"""Quotient-ring recursion, closedness, primitives, quartic branches."""

import random
from fractions import Fraction as Fr

import pytest

from exactwkb.errors import PreconditionError
from exactwkb.pearcey import (CubicFieldElement, annihilation_residuals,
                              branch_partials, check_closedness, check_primitives,
                              coefficient_field,
                              denominator_is_unit_power, homogeneity_residual,
                              pearcey_recursion, quartic_coefficients,
                              quartic_g_roots)

F, X1, X2 = coefficient_field()
S = CubicFieldElement.root()
UNIT = CubicFieldElement(X2, 0, 6)  # 6 S^2 + x2


@pytest.fixture(scope="module")
def recursion():
    return pearcey_recursion(8)


class TestQuotientRing:
    def test_defining_relation(self):
        s_cubed = S * S * S
        assert (s_cubed - CubicFieldElement(-X1 / 4, -X2 / 2, 0)).is_zero()

    def test_implicit_first_derivative(self):
        # 2 (6 S^2 + x2) dS/dx1 + 1 = 0
        d = S.d1()
        assert (CubicFieldElement.scalar(2) * UNIT * d
                + CubicFieldElement.scalar(1)).is_zero()

    def test_implicit_second_slot_derivative(self):
        # (6 S^2 + x2) dS/dx2 + S = 0
        d = S.d2()
        assert (UNIT * d + S).is_zero()

    def test_inverse_contract(self):
        inv = UNIT.inverse()
        assert (inv * UNIT - CubicFieldElement.scalar(1)).is_zero()

    def test_non_unit_rejected(self):
        with pytest.raises(PreconditionError):
            CubicFieldElement().inverse()

    def test_derivative_is_a_derivation(self):
        a = S * S + CubicFieldElement(X1, 0, 0) * S
        b = UNIT
        lhs = (a * b).d1()
        rhs = a.d1() * b + a * b.d1()
        assert (lhs - rhs).is_zero()


class TestRecursion:
    def test_t_minus_one_is_s_squared(self, recursion):
        assert (recursion.t(-1) - S * S).is_zero()

    def test_s0_log_derivative_identity(self, recursion):
        # 2 (6 S^2 + x2) S_0 + d1(6 S^2 + x2) = 0
        assert (CubicFieldElement.scalar(2) * UNIT * recursion.s(0)
                + UNIT.d1()).is_zero()

    def test_t0_instantiation(self, recursion):
        expected = S.d1() + CubicFieldElement.scalar(2) * S * recursion.s(0)
        assert (recursion.t(0) - expected).is_zero()

    def test_closedness_to_order_8(self, recursion):
        report = check_closedness(recursion)
        assert report.passed, report.failures

    def test_primitives_to_order_8(self, recursion):
        report = check_primitives(recursion)
        assert report.passed, report.failures

    def test_k_minus_one_primitive_by_hand(self, recursion):
        # (1/4)(3 x1 S + 2 x2 S^2) has d1 = S by the defining cubic
        prim = CubicFieldElement.scalar(Fr(1, 4)) * (
            CubicFieldElement.scalar(3) * CubicFieldElement.x1() * S
            + CubicFieldElement.scalar(2) * CubicFieldElement.x2() * S * S)
        assert (prim.d1() - S).is_zero()

    def test_denominator_shape(self, recursion):
        assert denominator_is_unit_power(recursion)


class TestQuartic:
    def test_weighted_homogeneity_of_coefficients(self):
        # (x1, x2, y) carry weights (3, 2, 4); every coefficient of g^k must
        # carry weight 3k so that g itself scales with weight -3
        rng = random.Random(5)
        lam = 1.7
        for _ in range(10):
            x1, x2, y = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                         for _ in range(3))
            base = quartic_coefficients(x1, x2, y)
            scaled = quartic_coefficients(lam ** 3 * x1, lam ** 2 * x2, lam ** 4 * y)
            for k, (b, s) in enumerate(zip(base, scaled)):
                weight = 3 * (4 - k)
                assert abs(s - b * lam ** weight) <= 1e-9 * max(1.0, abs(s))

    def test_roots_sum_to_zero_and_refine(self):
        rng = random.Random(42)
        checked = 0
        while checked < 100:
            x1, x2, y = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                         for _ in range(3))
            try:
                roots = quartic_g_roots(x1, x2, y)
            except Exception:
                continue
            checked += 1
            assert abs(sum(b.value for b in roots)) < 1e-12
            a, b, c, d, e = quartic_coefficients(x1, x2, y)
            for br in roots:
                g = br.value
                residual = abs(((a * g + b) * g + c) * g * g + d * g + e)
                assert residual < 1e-12 * max(abs(a * g ** 4), 1.0)

    def test_even_pairing_when_x1_vanishes(self):
        roots = [b.value for b in quartic_g_roots(0.0, 1.3, 0.7)]
        for v in roots:
            assert min(abs(v + w) for w in roots) < 1e-10

    def test_singular_locus_rejected(self):
        # leading coefficient vanishes at x1=x2=y=0 direction scaled suitably
        with pytest.raises(PreconditionError):
            quartic_g_roots(0.0, 0.0, 0.0)


class TestAnnihilation:
    def test_operators_annihilate_every_branch(self):
        rng = random.Random(7)
        checked = 0
        while checked < 20:
            x1, x2, y = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                         for _ in range(3))
            try:
                roots = quartic_g_roots(x1, x2, y)
            except Exception:
                continue
            checked += 1
            for br in roots:
                residuals = annihilation_residuals(br)
                assert all(r < 1e-8 for r in residuals), residuals

    def test_partials_match_finite_differences(self):
        x1, x2, y = 0.9 + 0.3j, -1.1 + 0.2j, 0.8 - 0.4j
        branch = quartic_g_roots(x1, x2, y)[1]
        d = branch_partials(branch)
        h = 1e-6

        def branch_near(x1n, x2n, yn):
            roots = quartic_g_roots(x1n, x2n, yn)
            return min(roots, key=lambda b: abs(b.value - branch.value)).value

        fd_x1 = (branch_near(x1 + h, x2, y) - branch_near(x1 - h, x2, y)) / (2 * h)
        assert abs(fd_x1 - d["first"]["x1"]) < 1e-6
        fd_y = (branch_near(x1, x2, y + h) - branch_near(x1, x2, y - h)) / (2 * h)
        assert abs(fd_y - d["first"]["y"]) < 1e-6

    def test_scaling_law(self):
        assert homogeneity_residual(1.0, 1.0, 1.0, 2.0) < 1e-10
        assert homogeneity_residual(0.7 + 0.1j, -1.2, 0.9 - 0.3j, 2.0) < 1e-10
