"""Normal ordering and the operator relations of the Pearcey system."""

import math
import random
from fractions import Fraction as Fr

import pytest

from exactwkb import weyl
from exactwkb.errors import PreconditionError
from exactwkb.weyl import (D1, D2, DETA, ETA, X1, X2, WeylElement,
                           pearcey_operators, verify_operator_identities)


class TestNormalOrdering:
    def test_canonical_commutators(self):
        assert D1 * X1 == X1 * D1 + WeylElement.scalar(1)
        assert DETA * ETA == ETA * DETA + WeylElement.scalar(1)
        assert D2 * X2 == X2 * D2 + WeylElement.scalar(1)

    def test_cross_pairs_commute(self):
        assert D1 * X2 == X2 * D1
        assert D2 * ETA == ETA * D2

    def test_repeated_commutation(self):
        assert D1 * D1 * X1 == X1 * D1 * D1 + 2 * D1

    def test_eta_localization(self):
        inv = WeylElement.monomial(eta=-1)
        inv2 = WeylElement.monomial(eta=-2)
        assert DETA * inv == inv * DETA - inv2

    def test_negative_coordinate_exponents_rejected(self):
        with pytest.raises(PreconditionError):
            WeylElement.monomial(x1=-1)


def apply_to(op, poly):
    """The action of ``op`` on a Laurent-in-eta polynomial, a dict of
    x1^p x2^q eta^r terms keyed by (p, q, r): the reference action the
    normal-ordered products are held against."""
    def falling(c, j):
        return math.prod(c - i for i in range(j))

    out = {}
    for (a, b, c, d, e, f), coeff in op.terms.items():
        for (p, q, r), pc in poly.items():
            if d > p or e > q:
                continue
            factor = falling(p, d) * falling(q, e) * falling(r, f)
            if factor == 0:
                continue
            key = (p - d + a, q - e + b, r - f + c)
            out[key] = out.get(key, 0) + coeff * pc * factor
    return {k: v for k, v in out.items() if v != 0}


def random_element(rng, max_exp=2, terms=3):
    data = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, max_exp) for _ in range(6))
        data[mono] = Fr(rng.randint(-5, 5))
    return WeylElement(data)


def random_polynomial(rng):
    poly = {}
    for _ in range(4):
        key = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        poly[key] = Fr(rng.randint(-4, 4))
    return poly


class TestAlgebraLaws:
    def test_associativity_on_random_triples(self):
        rng = random.Random(3)
        for _ in range(40):
            a, b, c = (random_element(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_action_respects_products(self):
        rng = random.Random(9)
        for _ in range(30):
            a, b = random_element(rng), random_element(rng)
            poly = random_polynomial(rng)
            assert apply_to(a * b, poly) == apply_to(a, apply_to(b, poly))


class TestOperatorIdentities:
    def test_all_identities_are_exact_zero(self):
        report = verify_operator_identities()
        for check in report.checks:
            assert check.passed, f"{check.name}: {check.residual!r}"
        assert report.passed

    def test_clearing_powers_recorded(self):
        powers = [c.eta_clearing_power for c in verify_operator_identities().checks]
        assert powers == [1, 2, 0, 1]

    def test_identities_annihilate_consistently_in_action(self):
        rng = random.Random(17)
        ops = pearcey_operators()
        lhs = ETA * ops["P1"]
        rhs = ops["Q1"] + 4 * (D1 * ops["Q2"])
        for _ in range(10):
            poly = random_polynomial(rng)
            assert apply_to(lhs, poly) == apply_to(rhs, poly)

    def test_p3_commutes_with_eta_conjugation(self):
        p3 = pearcey_operators()["P3"]
        inv = WeylElement.monomial(eta=-1)
        assert ETA * p3 * inv == p3

    def test_the_operators_are_built_once(self):
        first, second = pearcey_operators(), pearcey_operators()
        assert first is not second
        assert list(first) == ["P1", "P2", "P3", "P4", "Q1", "Q2"]
        assert all(first[name] is second[name] is getattr(weyl, name) for name in first)

    def test_p4_is_the_only_operator_with_eta_derivative(self):
        ops = pearcey_operators()
        for name, op in ops.items():
            has_deta = any(mono[5] for mono in op.terms)
            assert has_deta == (name == "P4")


class TestTypedInputs:
    @pytest.mark.parametrize("coeff", [0.1, 0.5, float("nan"), 1j, "3", None, True])
    def test_a_coefficient_that_is_not_an_int_or_fraction_raises(self, coeff):
        with pytest.raises(PreconditionError, match="coefficient"):
            WeylElement.scalar(coeff)
        with pytest.raises(PreconditionError, match="coefficient"):
            WeylElement({(1, 0, 0, 0, 0, 0): coeff})

    @pytest.mark.parametrize("mono", [(1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0),
                                      (1.5, 0, 0, 0, 0, 0), (True, 0, 0, 0, 0, 0), "x1"])
    def test_a_monomial_that_is_not_six_ints_raises(self, mono):
        with pytest.raises(PreconditionError, match="monomial"):
            WeylElement({mono: 1})

    def test_a_fractional_exponent_raises(self):
        with pytest.raises(PreconditionError):
            WeylElement.monomial(x1=1.5)

    @pytest.mark.parametrize("other", [0.5, 1j, "x", None])
    def test_an_unsupported_operand_is_not_implemented(self, other):
        assert X1.__add__(other) is NotImplemented
        assert X1.__sub__(other) is NotImplemented
        assert X1.__mul__(other) is NotImplemented
        for op in (lambda: X1 + other, lambda: other + X1, lambda: X1 - other,
                   lambda: other - X1, lambda: X1 * other, lambda: other * X1):
            with pytest.raises(TypeError):
                op()


class TestIntegerCoefficients:
    def test_operators_and_residuals_have_int_coefficients(self):
        for op in pearcey_operators().values():
            assert all(type(c) is int for c in op.terms.values())
        product = pearcey_operators()["Q1"] * pearcey_operators()["P2"]
        assert product.terms and all(type(c) is int for c in product.terms.values())

    def test_a_rational_stays_a_fraction_until_it_is_an_integer(self):
        half = X1 * Fr(1, 2)
        assert half.terms == {(1, 0, 0, 0, 0, 0): Fr(1, 2)}
        assert type((half * 2).terms[(1, 0, 0, 0, 0, 0)]) is int
        assert type(WeylElement.scalar(Fr(6, 3)).terms[(0,) * 6]) is int

    def test_an_integral_fraction_prints_compares_and_hashes_as_its_int(self):
        mono = (1, 0, 2, 0, 1, 0)
        for value in (3, -1, 1, 12):
            a, b = WeylElement({mono: value}), WeylElement({mono: Fr(value)})
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert repr(WeylElement({mono: Fr(-3, 2)})) == "-3/2*x1*eta^2*d2"

    def test_the_identities_construct_no_fraction(self, monkeypatch):
        calls = []
        new = Fr.__new__
        monkeypatch.setattr(Fr, "__new__", staticmethod(
            lambda cls, *args, **kwargs: calls.append(1) or new(cls, *args, **kwargs)))
        assert verify_operator_identities().passed
        assert calls == []

    def test_product_weights_are_ints(self):
        weights = [w for _, w in weyl._monomial_product((0, 0, 0, 3, 2, 2), (3, 2, -1, 0, 0, 0))]
        assert weights and all(type(w) is int for w in weights)
