"""Normal ordering and the operator relations of the Pearcey system."""

import random
from fractions import Fraction as Fr

import pytest

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
            assert (a * b).apply_to(poly) == a.apply_to(b.apply_to(poly))


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
            assert lhs.apply_to(poly) == rhs.apply_to(poly)

    def test_p3_commutes_with_eta_conjugation(self):
        p3 = pearcey_operators()["P3"]
        inv = WeylElement.monomial(eta=-1)
        assert ETA * p3 * inv == p3

    def test_p4_is_the_only_operator_with_eta_derivative(self):
        ops = pearcey_operators()
        for name, op in ops.items():
            has_deta = any(mono[5] for mono in op.terms)
            assert has_deta == (name == "P4")
