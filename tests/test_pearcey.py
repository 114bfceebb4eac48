"""Quotient-ring recursion, closedness, primitives, quartic branches."""

import copy
import dataclasses
import importlib.util
import json
import math
import os
import pickle
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as Fr
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.fields import field

from exactwkb import pearcey
from exactwkb.errors import NumericError, PreconditionError, VerificationError
from exactwkb.pearcey import (_D, _RING_ONE, _UNIT, _UNIT_INV, CubicFieldElement,
                              PearceyBranch, _divide_by_d, _mul, _nonzero,
                              _raw_sum, _ring_sum, _row_divide, _vanishes_on_curve,
                              annihilation_residuals,
                              branch_partials, check_closedness, check_primitives,
                              denominator_is_unit_power, homogeneity_residual,
                              pearcey_recursion, quartic_coefficients,
                              quartic_g_roots)
from exactwkb.verify import PEARCEY_HOMOGENEITY_TOL, run_pearcey_verify

ROOT = Path(__file__).resolve().parents[1]

# the oracle's own field: sympy's Q(x1, x2), which cancels every fraction by a gcd
F, X1, X2 = field("x1 x2", QQ)
DISC = 27 * X1 ** 2 + 8 * X2 ** 3
S = CubicFieldElement.root()
RING_X1, RING_X2 = CubicFieldElement.x1(), CubicFieldElement.x2()
RING_DISC = 27 * RING_X1 * RING_X1 + 8 * RING_X2 * RING_X2 * RING_X2
UNIT = CubicFieldElement(RING_X2, 0, 6)  # 6 S^2 + x2


@pytest.fixture(scope="module")
def recursion():
    return pearcey_recursion(8)


@pytest.fixture(scope="module")
def recursion_12():
    return pearcey_recursion(12)


@pytest.fixture(scope="module")
def bench_workloads():
    """bench/workloads.py, loaded from its file: the seeded inputs and the op
    of the ``pearcey`` benchmark workload."""
    pytest.importorskip("numpy")
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve names through it
    spec.loader.exec_module(module)
    return module


def _results(monkeypatch, name):
    """The list that collects every result of ``pearcey.<name>``."""
    results = []
    real = getattr(pearcey, name)
    monkeypatch.setattr(pearcey, name,
                        lambda *args: results.append(real(*args)) or results[-1])
    return results


# ---------------------------------------------------------------------------
# oracle: the ring as triples (c0, c1, c2) of reduced elements of Q(x1, x2),
# with every product and quotient cancelled by a gcd in the field
# ---------------------------------------------------------------------------

def field_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def field_mul(a, b):
    a0, a1, a2 = a
    b0, b1, b2 = b
    d = [a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0,
         a1 * b2 + a2 * b1, a2 * b2]
    # reduce with S^3 = -(2 x2 S + x1)/4, S^4 = -(2 x2 S^2 + x1 S)/4
    return (d[0] - X1 * d[3] / 4, d[1] - (2 * X2 * d[3] + X1 * d[4]) / 4,
            d[2] - 2 * X2 * d[4] / 4)


def field_inverse(u):
    """Solve u * v = 1 for v via the 3x3 multiplication matrix of u."""
    one, zero = F(1), F(0)
    cols = [field_mul(u, basis) for basis in ((one, zero, zero), (zero, one, zero),
                                              (zero, zero, one))]
    m = [[cols[j][i] for j in range(3)] for i in range(3)]
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    if det == 0:
        raise ZeroDivisionError("zero divisor")

    def minor(r, c):
        rows = [i for i in range(3) if i != r]
        cs = [j for j in range(3) if j != c]
        return (m[rows[0]][cs[0]] * m[rows[1]][cs[1]]
                - m[rows[0]][cs[1]] * m[rows[1]][cs[0]])
    return (minor(0, 0) / det, -minor(0, 1) / det, minor(0, 2) / det)


FIELD_UNIT = (X2, F(0), F(6))
FIELD_DS = (field_mul((F(QQ(-1, 2)), F(0), F(0)), field_inverse(FIELD_UNIT)),
            field_mul((F(0), F(-1), F(0)), field_inverse(FIELD_UNIT)))


def field_d(a, i):
    """Total derivative in x1 (i = 0) or x2 (i = 1)."""
    explicit = tuple(ci.diff((X1, X2)[i]) for ci in a)
    return field_add(explicit, field_mul((a[1], 2 * a[2], F(0)), FIELD_DS[i]))


def field_recursion(order):
    """S_k and T_k, k = -1..order, by the direct triple sum."""
    zero = (F(0), F(0), F(0))
    s_list = [(F(0), F(1), F(0))]
    unit_inv = field_inverse(FIELD_UNIT)
    s_list.append(field_mul((F(QQ(-1, 2)), F(0), F(0)),
                            field_mul(field_d(FIELD_UNIT, 0), unit_inv)))
    d1_cache = {-1: field_d(s_list[0], 0), 0: field_d(s_list[1], 0)}
    for k in range(1, order + 1):
        triple_sum = zero
        for k1 in range(-1, k):
            for k2 in range(-1, k):
                k3 = k - 2 - k1 - k2
                if -1 <= k3 < k:
                    triple_sum = field_add(triple_sum, field_mul(
                        field_mul(s_list[k1 + 1], s_list[k2 + 1]), s_list[k3 + 1]))
        cross = zero
        for k1 in range(-1, k):
            k2 = k - 2 - k1
            if -1 <= k2 < k:
                cross = field_add(cross, field_mul(s_list[k1 + 1], d1_cache[k2]))
        body = field_add(field_add(triple_sum, tuple(3 * ci for ci in cross)),
                         field_d(d1_cache[k - 2], 0))
        s_k = field_mul((F(-2), F(0), F(0)), field_mul(unit_inv, body))
        s_list.append(s_k)
        d1_cache[k] = field_d(s_k, 0)
    t_list = [field_mul(s_list[0], s_list[0])]
    for k in range(0, order + 1):
        conv = zero
        for j in range(-1, k + 1):
            conv = field_add(conv, field_mul(s_list[j + 1], s_list[k - j]))
        t_list.append(field_add(d1_cache[k - 1], conv))
    return s_list, t_list


def field_denominator_is_unit_power(triples):
    """Every reduced denominator, stripped of all factors of the resultant,
    leaves a constant."""
    for ci in (ci for triple in triples for ci in triple):
        den = ci.denom
        while True:
            quo, rem = divmod(den, DISC.numer)
            if rem:
                break
            den = quo
        if any(sum(monom) > 0 for monom in den.monoms()):
            return False
    return True


def key(e1, e2):
    """The packed key of x1^e1 x2^e2."""
    return e1 << 24 | e2 << 3


def ring(value):
    """A value of F whose reduced denominator is a constant times a power of D,
    as the ring element free of S built from its normalised (num, q, m)."""
    den, m = value.denom, 0
    while True:
        quotient, rest = divmod(den, DISC.numer)
        if rest:
            break
        den, m = quotient, m + 1
    assert den.is_ground, f"{value} has a denominator that is not a power of D"
    # value = sum_e b_e x^e / D^m, each b_e = a_e / den a Fraction
    constant = Fr(int(den.LC.numerator), int(den.LC.denominator))
    b = {e: Fr(int(a.numerator), int(a.denominator)) / constant for e, a in value.numer.terms()}
    q = math.lcm(*(c.denominator for c in b.values()))
    return CubicFieldElement._new({key(*e): int(c * q) for e, c in b.items()}, q, m)


def ring_triple(a):
    """The ring element c0 + c1 S + c2 S^2 of a field triple."""
    return CubicFieldElement(*map(ring, a))


def field_of(element):
    """The three coefficients of a ring element as reduced elements of F, read
    through ``.numer``/``.denom`` ``.terms()``."""
    def poly(terms):
        return F.ring.from_dict({e: QQ(c.numerator, c.denominator) for e, c in terms})
    return tuple(F.new(poly(ci.numer.terms()), poly(ci.denom.terms())) for ci in element.c)


ORACLE_ORDER = 5


@pytest.fixture(scope="module")
def oracle_recursion():
    return field_recursion(ORACLE_ORDER)


def numerators():
    """Polynomials of total degree <= 4 with small rational coefficients."""
    monomials = [(i, j) for i in range(5) for j in range(5 - i)]
    term = st.tuples(st.sampled_from(monomials),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return st.lists(term, max_size=4).map(
        lambda terms: sum((F(QQ(c.numerator, c.denominator)) * X1 ** i * X2 ** j
                           for (i, j), c in terms), F(0)))


def field_triples():
    """Numerator triples over D^m, m <= 2, as reduced field triples."""
    return st.builds(lambda n0, n1, n2, m: tuple(ni / DISC ** m for ni in (n0, n1, n2)),
                     numerators(), numerators(), numerators(), st.integers(0, 2))


class TestQuotientRing:
    def test_defining_relation(self):
        s_cubed = S * S * S
        assert (s_cubed - CubicFieldElement(-RING_X1 / 4, -RING_X2 / 2, 0)).is_zero()

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

    def test_inverse_stays_in_the_ring(self):
        # x1 is invertible in Q(x1, x2) but not in Q[x1, x2][1/D]
        with pytest.raises(PreconditionError):
            CubicFieldElement(RING_X1).inverse()

    @pytest.mark.parametrize("numerator, denominator", [
        (1, RING_X1), (RING_X2, RING_X1 * RING_DISC), (1, RING_DISC + 1)])
    def test_denominator_outside_powers_of_d_rejected(self, numerator, denominator):
        with pytest.raises(PreconditionError, match="not a unit"):
            CubicFieldElement(numerator) / denominator

    def test_field_coefficients_with_powers_of_d_accepted(self):
        a = CubicFieldElement(RING_X1 / (3 * RING_DISC * RING_DISC), Fr(2, 7), RING_X2)
        assert a.m == 2
        assert field_of(a) == (X1 / (3 * DISC ** 2), F(QQ(2, 7)), X2)
        assert ring(X1 / (3 * DISC ** 2)) == a.c[0]

    @pytest.mark.parametrize("value", [float("nan"), 0.5, 1.0, "x1", None, 1j,
                                       X1.numer, X1, X2 / DISC, [1, 2]])
    def test_other_coefficients_rejected(self, value):
        # a float is not silently made exact, and a value of sympy's ring or
        # field is not read: the oracle converts its values on its own side
        with pytest.raises(PreconditionError):
            CubicFieldElement(value)
        with pytest.raises(PreconditionError):
            CubicFieldElement(0, 0, value)

    @pytest.mark.parametrize("coefficients", [(S,), (0, S * S), (UNIT,)])
    def test_an_element_that_carries_s_is_not_a_coefficient(self, coefficients):
        with pytest.raises(PreconditionError, match="carries S"):
            CubicFieldElement(*coefficients)

    def test_only_an_element_free_of_s_has_a_numerator(self):
        with pytest.raises(PreconditionError, match="carries S"):
            S.numer
        x = CubicFieldElement(RING_X1 / (3 * RING_DISC), 0, 0)
        assert x.numer.terms() == [((1, 0), 1)]
        assert x.denom.terms() == [((2, 0), 81), ((0, 3), 24)]

    def test_every_element_is_rebuilt_from_its_coefficients(self, recursion):
        for x in recursion.s_terms + recursion.t_terms:
            assert all(not any(k & 7 for k in ci.num) for ci in x.c)
            assert CubicFieldElement(*x.c) == x

    def test_a_perturbed_coefficient_moves_the_element_by_its_s_term(self, recursion):
        # the route of the bench's perturbation check
        _, x1, x2 = pearcey.coefficient_field()
        assert (x1, x2) == (CubicFieldElement(RING_X1), CubicFieldElement(RING_X2))
        s = recursion.s(3)
        perturbed = CubicFieldElement(s.c[0], s.c[1] + x2 / 1000, s.c[2])
        assert perturbed - s == (x2 / 1000) * S
        assert perturbed != s

    def test_a_scalar_divisor_is_a_product_by_its_reciprocal(self):
        rec = pearcey_recursion(4)
        for x in rec.s_terms + rec.t_terms:
            assert x / 1000 == x * Fr(1, 1000)
            assert x / Fr(3, 7) == x * Fr(7, 3)
            assert x / -2 == x * Fr(-1, 2)

    def test_a_scalar_division_takes_no_inverse(self, monkeypatch):
        calls = []
        inverse = CubicFieldElement.inverse
        monkeypatch.setattr(CubicFieldElement, "inverse",
                            lambda u: calls.append(1) or inverse(u))
        x = pearcey_recursion(4).s(4)
        x / 1000, x / Fr(3, 7)
        assert calls == []
        assert x / UNIT == x * _UNIT_INV and calls == [1]

    @pytest.mark.parametrize("zero", [0, Fr(0), CubicFieldElement()])
    def test_a_division_by_zero_raises(self, zero):
        with pytest.raises(PreconditionError):
            S / zero

    def test_the_unit_inverse_is_u_over_d(self):
        assert _UNIT == UNIT and _UNIT.inverse() == _UNIT_INV
        assert _UNIT * _UNIT_INV == CubicFieldElement(1)

    def test_an_x2_degree_past_the_packed_field_raises(self):
        big = CubicFieldElement._new({key(0, 2 ** 18 - 1): 1}, 1, 0)
        assert big.n[0] == {(0, 2 ** 18 - 1): 1}
        with pytest.raises(PreconditionError, match="packed key"):
            big * big * CubicFieldElement.x2() * CubicFieldElement.x2()
        with pytest.raises(PreconditionError, match="packed key"):
            CubicFieldElement._new({key(0, 2 ** 19): 1}, 1, 0)

    @pytest.mark.parametrize("how", [copy.copy, copy.deepcopy,
                                     lambda v: pickle.loads(pickle.dumps(v))])
    def test_copies_are_equal_and_hash_equal(self, how):
        for x in (S, UNIT.inverse(), pearcey_recursion(2).s(2), CubicFieldElement()):
            y = how(x)
            assert y == x and hash(y) == hash(x)
            assert (y.n, y.q, y.m) == (x.n, x.q, x.m) and repr(y) == repr(x)

    def test_derivative_is_a_derivation(self):
        a = S * S + CubicFieldElement(RING_X1, 0, 0) * S
        b = UNIT
        lhs = (a * b).d1()
        rhs = a.d1() * b + a * b.d1()
        assert (lhs - rhs).is_zero()


def integer_polynomials(max_degree=6, max_terms=6):
    """Integer polynomials {(e1, e2): c} with small nonzero coefficients."""
    monomials = [(i, j) for i in range(max_degree + 1) for j in range(max_degree + 1 - i)]
    return st.dictionaries(st.sampled_from(monomials),
                           st.integers(-40, 40).filter(bool), max_size=max_terms)


def packed(p: dict) -> dict:
    """{(e1, e2): c} as the ring packs it."""
    return {key(e1, e2): c for (e1, e2), c in p.items()}


def numerator(n: tuple) -> dict:
    """The packed numerator n0 + n1 S + n2 S^2 of a triple of {(e1, e2): c}."""
    return {key + i: c for i, ni in enumerate(n) for key, c in packed(ni).items()}


def times_d(p: dict) -> dict:
    return _nonzero(_mul({}, p, _D, 1))


class TestDivisibilityByD:
    """D divides p exactly when p vanishes on (8 v^3, -6 v^2); the curve test
    is held against the row division by 27 x1^2, which makes no use of it."""

    def test_the_curve_is_the_zero_set_of_d(self):
        assert _vanishes_on_curve(_D)
        assert not _vanishes_on_curve(packed({(2, 0): 27, (0, 3): -8}))
        assert (not _vanishes_on_curve(packed({(1, 0): 1}))
                and not _vanishes_on_curve(packed({(0, 0): 1})))

    @settings(max_examples=200, deadline=None)
    @given(integer_polynomials())
    def test_the_curve_test_agrees_with_the_row_division(self, p):
        p = packed(p)
        assert _vanishes_on_curve(p) == (_row_divide(dict(p)) is not None)

    @settings(max_examples=100, deadline=None)
    @given(integer_polynomials(max_terms=8).filter(bool))
    def test_every_multiple_of_d_is_divided(self, p):
        p = packed(p)
        multiple = times_d(p)
        assert _vanishes_on_curve(multiple)
        assert _row_divide(dict(multiple)) == p
        assert _divide_by_d(multiple) == p
        assert _divide_by_d(times_d(multiple)) == multiple

    @settings(max_examples=100, deadline=None)
    @given(integer_polynomials(), st.integers(0, 8), st.integers(0, 8),
           st.integers(-40, 40).filter(bool))
    def test_a_multiple_plus_one_term_is_not_divided(self, p, e1, e2, c):
        q = times_d(packed(p))
        k = key(e1, e2)
        q[k] = q.get(k, 0) + c
        q = _nonzero(q)
        assert not _vanishes_on_curve(q)
        assert _row_divide(dict(q)) is None and _divide_by_d(q) is None

    @settings(max_examples=100, deadline=None)
    @given(integer_polynomials(), integer_polynomials(), integer_polynomials())
    def test_a_numerator_is_divided_exactly_when_each_power_of_s_is(self, n0, n1, n2):
        n = numerator((n0, n1, n2))
        assert _vanishes_on_curve(n) == all(_vanishes_on_curve(packed(ni))
                                            for ni in (n0, n1, n2))
        assert _divide_by_d(times_d(n)) == n

    def test_a_row_division_that_contradicts_the_curve_raises(self, monkeypatch):
        monkeypatch.setattr(pearcey, "_vanishes_on_curve", lambda p: True)
        with pytest.raises(VerificationError, match="disagree"):
            _divide_by_d(packed({(1, 0): 1}))


def weights():
    return st.integers(-6, 6)


class TestRingSum:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(weights(), field_triples(), field_triples()),
                    min_size=1, max_size=4),
           st.lists(st.tuples(weights(), field_triples()), max_size=2))
    def test_the_sum_equals_the_chained_operations(self, products, linear):
        terms = [(w, ring_triple(a), ring_triple(b)) for w, a, b in products]
        terms += [(w, ring_triple(a), _RING_ONE) for w, a in linear]
        chained = CubicFieldElement()
        for w, a, b in terms:
            chained = chained + CubicFieldElement.scalar(w) * a * b
        total = _ring_sum(terms)
        assert total == chained
        assert (total.n, total.q, total.m) == (chained.n, chained.q, chained.m)

    def test_no_terms_sum_to_zero(self):
        assert _ring_sum([]) == CubicFieldElement() and _ring_sum([]).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(weights(), field_triples(), st.sampled_from([None, 0, 1])),
                    min_size=1, max_size=3))
    def test_a_raw_sum_is_the_sum_of_its_terms_and_zero_where_it_is(self, terms):
        # terms of any power of D, each itself or its d1 or d2: the raw
        # numerator over the common q D^m is the sum's, and is zero exactly
        # where the sum is
        elements = [(w, ring_triple(a), i) for w, a, i in terms]
        num, q, m = _raw_sum([(w, e.num, e.q, e.m, i) for w, e, i in elements])
        chained = CubicFieldElement()
        for w, e, i in elements:
            chained = chained + CubicFieldElement.scalar(w) * (
                e if i is None else e.d1() if i == 0 else e.d2())
        assert CubicFieldElement._new(num, q, m) == chained
        assert any(num.values()) == (not chained.is_zero())
        w, e, i = elements[0]
        cancelled = [(w, e.num, e.q, e.m, i), (-w, e.num, e.q, e.m, i)]
        assert not any(_raw_sum(cancelled + [(0, e.num, e.q, e.m + 1, i)])[0].values())

    def test_terms_that_cancel_sum_to_the_normal_zero(self):
        a = UNIT.inverse()
        zero = _ring_sum([(2, a, S), (-1, a, S + S)])
        assert zero.is_zero() and (zero.q, zero.m) == (1, 0)


class TestRingCost:
    """Sums of products are normalised once, no row division is tried that
    fails, a ring product is one kernel call, and the recursion and its
    checks take no public ring products: what does not depend on the order
    is formed once, at import."""

    @staticmethod
    def _order_4_with_checks():
        rec = pearcey_recursion(4)
        assert check_closedness(rec).passed and check_primitives(rec).passed

    def test_normalisations_per_order_4_recursion_and_checks(self, monkeypatch):
        normalised = _results(monkeypatch, "_normalise")
        rec = pearcey_recursion(4)
        in_recursion = len(normalised)
        assert check_closedness(rec).passed and check_primitives(rec).passed
        # a normalisation per product and per partial sum took 270; 87 while
        # S_0 and the unit's partials were formed per call, 76 while the
        # checks normalised their sums, 29 now, all in the recursion
        assert len(normalised) == in_recursion <= 29

    def test_the_checks_reduce_nothing_and_build_no_element(self, monkeypatch):
        rec = pearcey_recursion(4)
        calls = []
        for name in ("_normalise", "_vanishes_on_curve", "_row_divide", "gcd"):
            real = getattr(pearcey, name)
            monkeypatch.setattr(pearcey, name, lambda *args, _real=real, _name=name:
                                calls.append(_name) or _real(*args))
        new = CubicFieldElement._new
        monkeypatch.setattr(CubicFieldElement, "_new", classmethod(
            lambda cls, *args: calls.append("_new") or new(*args)))
        assert check_closedness(rec).passed and check_primitives(rec).passed
        assert calls == []

    def test_kernel_calls_per_order_4_recursion_and_checks(self, monkeypatch):
        products = _results(monkeypatch, "_mul")
        self._order_4_with_checks()
        # one call per ring product, lift or derivative part: 204 (222 while
        # S_0 and the unit's partials were formed per call); the per-component
        # products of a numerator triple took 2,078 calls
        assert len(products) <= 215

    def test_no_row_division_fails(self, monkeypatch):
        quotients = _results(monkeypatch, "_row_divide")
        self._order_4_with_checks()
        assert quotients and all(q is not None for q in quotients)

    def test_no_public_products(self, monkeypatch):
        calls = []
        mul = CubicFieldElement.__mul__
        monkeypatch.setattr(CubicFieldElement, "__mul__",
                            lambda a, b: calls.append(1) or mul(a, b))
        self._order_4_with_checks()
        assert len(calls) == 0


class TestCheckWitnesses:
    """A recursion with one numerator coefficient of one S_k or T_k moved by
    1 fails both exact checks at that k, and only there: the zero tests see
    a wrong sum."""

    @pytest.fixture(scope="class")
    def recursion_4(self):
        return pearcey_recursion(4)

    @pytest.mark.parametrize("stream, k", [("s", 0), ("s", 3), ("t", -1), ("t", 2)])
    def test_a_moved_coefficient_fails_both_checks_at_its_k(self, recursion_4, stream, k):
        terms = list(getattr(recursion_4, f"{stream}_terms"))
        element = terms[k + 1]
        num = dict(element.num)
        num[min(num)] += 1
        terms[k + 1] = CubicFieldElement._new(num, element.q, element.m)
        moved = dataclasses.replace(recursion_4, **{f"{stream}_terms": tuple(terms)})
        assert check_closedness(moved).failures == (k,)
        assert check_primitives(moved).failures == (k,)


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

    def test_suite_verdict_leaves_out_the_stored_denominator_power(self, monkeypatch):
        """The stored power of D is reported, not gated: it holds by
        construction, and the field oracle below is its witness."""
        monkeypatch.setattr(pearcey, "denominator_is_unit_power", lambda rec: False)
        report = run_pearcey_verify(4, 5, 42, ann_points=2)
        assert report.body["denominator_shape"] is False
        assert report.passed

    @pytest.mark.parametrize("points, ann_points", [(0, 2), (-1, 2), (5, 0)])
    def test_suite_rejects_an_empty_sample(self, points, ann_points):
        with pytest.raises(PreconditionError):
            run_pearcey_verify(2, points, 42, ann_points=ann_points)

    def test_suite_raises_a_root_finder_failure(self, monkeypatch):
        """A NumericError is reported, not drawn again like a point outside
        the domain."""
        real = pearcey.quartic_g_roots
        calls = []

        def fails_first(x1, x2, y):
            calls.append((x1, x2, y))
            if len(calls) == 1:
                raise NumericError("no convergence")
            return real(x1, x2, y)

        monkeypatch.setattr(pearcey, "quartic_g_roots", fails_first)
        with pytest.raises(NumericError):
            run_pearcey_verify(2, 5, 42, ann_points=2)

    @pytest.mark.parametrize("order", [2.5, None, "3", True, False, -1])
    def test_an_order_that_is_not_a_nonnegative_int_raises(self, order):
        with pytest.raises(PreconditionError, match="order"):
            pearcey_recursion(order)

    def test_closedness_and_primitives_to_order_12(self, recursion_12):
        for report in (check_closedness(recursion_12), check_primitives(recursion_12)):
            assert report.passed, (report.name, report.failures)

    def test_every_s_and_t_keeps_its_pinned_numerator_and_denominator(self, recursion_12):
        """(n, q, m) of every S_k and T_k at order 12, as the numerator triple
        of tuple-keyed dicts computed them before the packed layout."""
        pins = json.loads((ROOT / "tests" / "data" / "pearcey_recursion_pins.json").read_text())
        assert pins["order"] == 12
        for name, element in (("s", recursion_12.s), ("t", recursion_12.t)):
            for k in range(-1, 13):
                x, pin = element(k), pins[name][str(k)]
                n = [sorted([e1, e2, c] for (e1, e2), c in ni.items()) for ni in x.n]
                assert (n, x.q, x.m) == (pin["n"], pin["q"], pin["m"]), (name, k)

    def test_every_s_and_t_has_its_single_weight(self, recursion_12):
        # x1, x2 and S weigh 3, 2 and 1, and D weighs 6
        for k in range(-1, 13):
            for x, want in ((recursion_12.s(k), -3 - 4 * k), (recursion_12.t(k), -2 - 4 * k)):
                assert not x.is_zero()
                assert {3 * e1 + 2 * e2 + i - 6 * x.m for i, ni in enumerate(x.n)
                        for e1, e2 in ni} == {want}

    def test_a_term_differentiated_in_x2_for_x1_fails_the_weight_check(self, monkeypatch):
        # d2 S_0 in place of d1 S_0, which every S_k from S_1 on reads
        s_minus_1, s0 = pearcey_recursion(0).s_terms
        assert pearcey._D1_S_LOW == (s_minus_1.d1(), s0.d1())
        monkeypatch.setattr(pearcey, "_D1_S_LOW", (s_minus_1.d1(), s0.d2()))
        with pytest.raises(VerificationError, match="S_1 is not weighted homogeneous"):
            pearcey_recursion(1)


class TestAgainstFieldOracle:
    def test_recursion_equals_the_field_recursion(self, oracle_recursion):
        rec = pearcey_recursion(ORACLE_ORDER)
        s_list, t_list = oracle_recursion
        for k in range(-1, ORACLE_ORDER + 1):
            assert field_of(rec.s(k)) == s_list[k + 1], k
            assert field_of(rec.t(k)) == t_list[k + 1], k

    def test_field_denominators_are_powers_of_d(self, oracle_recursion):
        s_list, _ = oracle_recursion
        assert field_denominator_is_unit_power(s_list[2:])
        assert not field_denominator_is_unit_power([(1 / X1, F(0), F(0))])

    @settings(max_examples=40, deadline=None)
    @given(field_triples(), field_triples())
    def test_ring_operations(self, a, b):
        x, y = ring_triple(a), ring_triple(b)
        assert field_of(x) == a
        assert field_of(x + y) == field_add(a, b)
        assert field_of(x - y) == field_add(a, tuple(-ci for ci in b))
        assert field_of(x * y) == field_mul(a, b)
        assert field_of(x.d1()) == field_d(a, 0)
        assert field_of(x.d2()) == field_d(a, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
           st.integers(0, 2), st.integers(0, 2), st.integers(-1, 1))
    def test_inverse_of_units(self, c, p, q, r):
        # c (6 S^2 + x2)^p (8 x2^2 - 18 x1 S + 24 x2 S^2)^q D^r
        u = CubicFieldElement.scalar(c) * CubicFieldElement(ring(DISC ** r))
        for _ in range(p):
            u = u * UNIT
        for _ in range(q):
            u = u * CubicFieldElement(8 * RING_X2 * RING_X2, -18 * RING_X1, 24 * RING_X2)
        assert field_of(u.inverse()) == field_inverse(field_of(u))
        assert (u * u.inverse()) == CubicFieldElement(1)

    @settings(max_examples=25, deadline=None)
    @given(field_triples())
    def test_inverse_exactly_for_units(self, a):
        x = ring_triple(a)
        try:
            expected = field_inverse(a)
        except ZeroDivisionError:
            expected = None
        if expected is not None and field_denominator_is_unit_power([expected]):
            assert field_of(x.inverse()) == expected
        else:
            with pytest.raises(PreconditionError):
                x.inverse()

    @settings(max_examples=40, deadline=None)
    @given(field_triples(), field_triples())
    def test_equal_elements_hash_equal(self, a, b):
        x = ring_triple(a)
        d = RING_DISC
        routes = [CubicFieldElement(*x.c), (x * d) * d.inverse(), (x + 1) - 1,
                  CubicFieldElement._new(numerator(x.n), x.q, x.m),
                  CubicFieldElement._new(times_d(numerator(x.n)), x.q, x.m + 1),
                  CubicFieldElement._new({k: 6 * c for k, c in numerator(x.n).items()},
                                         6 * x.q, x.m)]
        for other in routes:
            assert other == x and hash(other) == hash(x)
        y = ring_triple(b)
        assert (x == y) == (a == b)

    @settings(max_examples=60, deadline=None)
    @given(numerators(), st.integers(0, 3), numerators(), st.integers(0, 3))
    def test_coefficients_print_as_the_field(self, n, m, n_other, m_other):
        # N / (q D^m) with rational, negative and unit leading coefficients
        value, other = n / DISC ** m, n_other / DISC ** m_other
        a, b = CubicFieldElement(ring(value), ring(other)).c[:2]
        for x, field_value in ((a, value), (-a, -value), (a / -6, value / -6),
                               (a + b, value + other), (a - b, value - other),
                               (a * b, value * other)):
            assert repr(x) == f"({field_value}) + (0)*S + (0)*S^2"


def run_in_a_fresh_interpreter(script: str):
    """Run ``script`` in a new Python process with this tree's ``src`` first
    on the path, so that its ``sys.modules`` starts empty, and require exit 0."""
    src = ROOT / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestNoSympy:
    def test_package_and_pearcey_path_never_load_sympy(self):
        script = textwrap.dedent("""
            import sys
            import exactwkb
            from exactwkb.pearcey import (CubicFieldElement, check_closedness,
                                          check_primitives, coefficient_field,
                                          pearcey_recursion)
            rec = pearcey_recursion(4)
            assert check_closedness(rec).passed and check_primitives(rec).passed
            for term in rec.s_terms + rec.t_terms:
                for coefficient in term.c:
                    coefficient.numer.terms(), coefficient.denom.terms()
                repr(term)
            s = rec.s(-1)
            unit = 6 * s * s + CubicFieldElement.x2()
            assert unit * unit.inverse() == CubicFieldElement(1)
            _, x1, x2 = coefficient_field()
            s3 = rec.s(3)
            perturbed = CubicFieldElement(s3.c[0], s3.c[1] + x2 / 1000, s3.c[2])
            assert perturbed - s3 == (x2 / 1000) * s
            assert "sympy" not in sys.modules, "sympy was imported"
        """)
        run_in_a_fresh_interpreter(script)


class TestNoNumpy:
    def test_package_voros_point_and_pearcey_suite_never_load_numpy(self):
        script = textwrap.dedent("""
            import cmath, math, sys
            import exactwkb
            from exactwkb.resummation import verify_voros
            from exactwkb.verify import run_pearcey_verify
            assert verify_voros(cmath.exp(1j * math.pi / 6), 8.0).passed
            assert run_pearcey_verify(4, 20, 42, ann_points=5).passed
            assert "numpy" not in sys.modules, "numpy was imported"
        """)
        run_in_a_fresh_interpreter(script)

    def test_mpmath_loads_on_the_first_oracle_call(self):
        script = textwrap.dedent("""
            import sys
            import exactwkb, exactwkb.cli
            assert "mpmath" not in sys.modules, "mpmath was imported with the package"
            exactwkb.airy_reference(1)
            assert "mpmath" in sys.modules
        """)
        run_in_a_fresh_interpreter(script)

    def test_mpmath_is_the_only_runtime_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = ROOT / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert [d.split(">")[0] for d in project["dependencies"]] == ["mpmath"]
        assert any(d.startswith("numpy") for d in project["optional-dependencies"]["test"])


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

    @pytest.mark.parametrize("scale", [3.0, 1e5, 1e9, 1e-3, 0.01, 0.03, 0.1, 1.0])
    def test_roots_of_any_size_keep_the_order_of_the_unscaled_point(self, scale):
        # at 1e5 every root is below 1e-15 and every part rounded to 12 digits
        # was 0, so the labels kept the Aberth iteration's order; at 1e-3 to
        # 0.03 the singular-locus test, which compared A of weight 12 with an
        # absolute 1.0, refused the point
        x1, x2, y = 0.7 + 0.1j, -1.2, 0.9 - 0.3j
        base = quartic_g_roots(x1, x2, y)
        scaled = quartic_g_roots(scale ** 3 * x1, scale ** 2 * x2, scale ** 4 * y)
        assert [b.label for b in scaled] == [1, 2, 3, 4]
        for b, s in zip(base, scaled):
            assert abs(s.value * scale ** 3 - b.value) < 1e-12
        reals = [b.value.real for b in scaled]
        assert reals == sorted(reals)

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

    def test_roots_against_mpmath(self):
        # the four roots of the float-coefficient quartic, each to 1e-13
        # relative, against 50-digit roots; and the stop test of the iteration
        # is reachable: the scaled residual at each correctly rounded root,
        # evaluated as the iteration evaluates it, is within QUARTIC_ROUNDING
        rng = random.Random(13)
        for _ in range(60):
            x1, x2, y = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                         for _ in range(3))
            a, b, c, d, e = quartic_coefficients(x1, x2, y)
            with mpmath.workdps(50):
                exact = [complex(r) for r in mpmath.polyroots(
                    [mpmath.mpc(v) for v in (a, b, c, d, e)], maxsteps=200, extraprec=200)]
            roots = [br.value for br in quartic_g_roots(x1, x2, y)]
            for z in exact:
                assert min(abs(g - z) for g in roots) <= 1e-13 * abs(z)
                f = (((a * z + b) * z + c) * z + d) * z + e
                scale = max(abs(a * z ** 4), abs(c * z ** 2), abs(d * z), 1.0)
                assert abs(f) <= pearcey.QUARTIC_ROUNDING * scale

    def test_roots_that_meet_raise_a_numeric_error(self, monkeypatch):
        # a start circle of radius 0 puts all four roots on one point
        monkeypatch.setattr(pearcey, "cmath", SimpleNamespace(exp=lambda z: 0j))
        with pytest.raises(NumericError, match="met"):
            quartic_g_roots(0.9 + 0.3j, -1.1 + 0.2j, 0.8 - 0.4j)

    def test_even_pairing_when_x1_vanishes(self):
        roots = [b.value for b in quartic_g_roots(0.0, 1.3, 0.7)]
        for v in roots:
            assert min(abs(v + w) for w in roots) < 1e-10

    @pytest.mark.parametrize("point, name", [
        ((float("nan"), 1, 1), "x1"), ((1, complex(0, float("nan")), 1), "x2"),
        ((1, 1, float("inf")), "y"), ((complex(float("-inf"), 1), 1, 1), "x1"),
        ((0.9 + 0.3j, -1.1 + 0.2j, complex(0.8, float("nan"))), "y")])
    def test_a_point_that_is_not_finite_raises(self, point, name):
        with pytest.raises(PreconditionError, match=f"{name} = "):
            quartic_g_roots(*point)

    def test_a_nan_residual_fails_the_final_check(self, monkeypatch):
        # finite inputs whose coefficients are NaN: the singular-locus guard
        # compares with NaN, so only the residual check can refuse the roots
        nan = complex(float("nan"), 0)
        monkeypatch.setattr(pearcey, "quartic_coefficients",
                            lambda x1, x2, y: (nan, 0j, 1 + 0j, 1 + 0j, 1 + 0j))
        with pytest.raises(NumericError, match="did not refine"):
            quartic_g_roots(0.9 + 0.3j, -1.1 + 0.2j, 0.8 - 0.4j)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e9])
    @pytest.mark.parametrize("x1, x2, y", [(0, -1.2, 0), (0, 2.0, 1.0)])
    def test_a_singular_point_is_refused_at_every_scale(self, x1, x2, y, scale):
        # A = 0 where x1 = 0 and y (x2^2 - 4 y)^2 = 0
        with pytest.raises(PreconditionError, match="singular locus"):
            quartic_g_roots(scale ** 3 * x1, scale ** 2 * x2, scale ** 4 * y)

    def test_singular_locus_rejected(self):
        # leading coefficient vanishes at x1=x2=y=0 direction scaled suitably
        with pytest.raises(PreconditionError):
            quartic_g_roots(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("point, name", [
        ((1e80, 1, 1), "x1"), ((1, 1e120, 1), "x2"), ((1, 1, 1e200), "y"),
        ((complex(1.5e308, 1.5e308), 1, 1), "x1"), ((1, 1, 10 ** 400), "y")])
    def test_a_coordinate_too_large_raises(self, point, name):
        # A = 4 x1^2 x2 (36 y - x2^2) + ... - 27 x1^4 overflowed untyped here
        for solve in (quartic_coefficients, quartic_g_roots, homogeneity_residual):
            with pytest.raises(PreconditionError, match=f"{name} = .* weighted scale"):
                solve(*point)

    def test_a_point_just_inside_the_scale_bound_solves(self):
        # the point (0.7 + 0.1j, -1.2, 0.9 - 0.3j) scaled to the weighted scale
        # 0.99 QUARTIC_SCALE_MAX: its roots are the base roots times s^-3
        x1, x2, y = 0.7 + 0.1j, -1.2, 0.9 - 0.3j
        s = 0.99 * pearcey.QUARTIC_SCALE_MAX / abs(x2) ** 0.5
        assert max(abs(x1) ** (1 / 3), abs(x2) ** 0.5, abs(y) ** 0.25) == abs(x2) ** 0.5
        base = [b.value * s ** -3 for b in quartic_g_roots(x1, x2, y)]
        branches = quartic_g_roots(s ** 3 * x1, s ** 2 * x2, s ** 4 * y)
        for branch in branches:
            assert min(abs(branch.value / g - 1) for g in base) < 1e-13
            assert max(annihilation_residuals(branch)) < 1e-8


@pytest.mark.parametrize("exponent, solves", [(-25.72, True), (-25.8, False)])
def test_a_point_whose_iterates_overflow_solves_or_raises_a_numeric_error(exponent, solves):
    # the point (0.7 + 0.1j, -1.2, 0.9 - 0.3j) scaled to the weighted scale
    # 10^exponent: a fourth power of an iterate overflows, which z ** 4 raised
    # as an untyped OverflowError; an overflowing residual scale does not
    # settle, so the roots refine, or fail the final check where the roots'
    # own fourth powers overflow
    x1, x2, y = 0.7 + 0.1j, -1.2, 0.9 - 0.3j
    s = 10 ** exponent
    point = (s ** 3 * x1, s ** 2 * x2, s ** 4 * y)
    if not solves:
        with pytest.raises(NumericError, match="did not refine"):
            quartic_g_roots(*point)
        return
    base = [b.value * s ** -3 for b in quartic_g_roots(x1, x2, y)]
    for branch in quartic_g_roots(*point):
        assert min(abs(branch.value / g - 1) for g in base) < 1e-14


@pytest.mark.parametrize("exponent", [-25.89, -25.885])
def test_a_point_whose_root_bound_overflows_raises_a_numeric_error(exponent):
    # the same point scaled to where |A| is subnormal (2.3e-309 and 2.6e-309):
    # the parts of E / (2A) are finite and its modulus is not, so abs() raised
    # an untyped OverflowError
    x1, x2, y = 0.7 + 0.1j, -1.2, 0.9 - 0.3j
    s = 10 ** exponent
    point = (s ** 3 * x1, s ** 2 * x2, s ** 4 * y)
    assert abs(quartic_coefficients(*point)[0]) < 3e-309
    with pytest.raises(NumericError, match="Fujiwara radius overflows"):
        quartic_g_roots(*point)


def _hexed_complex(pair):
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


class TestQuarticRootPins:
    """Every root of the Aberth iteration, held bit for bit (as float.hex) at
    the quartic points of the pearcey benchmark's seeds 0-11 and four points
    of these tests."""

    RECORDED = json.loads((ROOT / "tests" / "data" / "quartic_root_pins.json").read_text())

    @pytest.mark.parametrize("index", range(len(RECORDED)))
    def test_roots_keep_their_bits(self, index):
        record = self.RECORDED[index]
        point = [_hexed_complex(v) for v in record["point"]]
        roots = [[b.value.real.hex(), b.value.imag.hex()] for b in quartic_g_roots(*point)]
        assert roots == record["roots"]


def _hexed(z):
    return [complex(z).real.hex(), complex(z).imag.hex()]


def _witness_bits(branch):
    """The branch's annihilation residuals and partials as float.hex."""
    d = branch_partials(branch)
    return {"residuals": [r.hex() for r in annihilation_residuals(branch)],
            "first": [_hexed(d["first"][v]) for v in ("x1", "x2", "y")],
            "second": [_hexed(d["second"][vw]) for vw in (
                ("x1", "x1"), ("x1", "x2"), ("x1", "y"), ("x2", "x2"), ("x2", "y"), ("y", "y"))]}


class TestAnnihilationPins:
    """``annihilation_residuals`` and ``branch_partials`` at every branch of
    the quartic points of the pearcey benchmark's seeds 0-11, held bit for bit
    (as float.hex) as recorded at d845b88, where each branch formed its own
    partials: for the branches of ``quartic_g_roots``, which share their
    point's record, and for the same branches built by hand."""

    RECORDED = json.loads((ROOT / "tests" / "data" / "annihilation_pins.json").read_text())

    @pytest.mark.parametrize("index", range(len(RECORDED)))
    def test_witnesses_keep_their_bits(self, index):
        record = self.RECORDED[index]
        solved = quartic_g_roots(*(_hexed_complex(v) for v in record["point"]))
        by_hand = [PearceyBranch(b.x1, b.x2, b.y, b.value, b.label) for b in solved]
        assert [_witness_bits(b) for b in solved] == record["branches"]
        assert [_witness_bits(b) for b in by_hand] == record["branches"]


class TestPointRecord:
    """The four branches of one solve form their point's coefficient
    partials once; a branch without the record forms its own."""

    def test_the_four_branches_form_the_partials_once(self, monkeypatch):
        coefficients = _results(monkeypatch, "quartic_coefficients")
        partials = _results(monkeypatch, "_coefficient_partials")
        solved = quartic_g_roots(0.7 + 0.1j, -1.2, 0.9 - 0.3j)
        for branch in solved:
            annihilation_residuals(branch)
            branch_partials(branch)
        assert (len(coefficients), len(partials)) == (1, 1)
        annihilation_residuals(dataclasses.replace(solved[0]))
        assert (len(coefficients), len(partials)) == (2, 2)

    def test_a_replaced_branch_does_not_read_the_record_of_its_old_point(self):
        branch = quartic_g_roots(0.7 + 0.1j, -1.2, 0.9 - 0.3j)[0]
        annihilation_residuals(branch)
        other = quartic_g_roots(0.9 + 0.3j, -1.1 + 0.2j, 0.8 - 0.4j)[0]
        moved = dataclasses.replace(branch, x1=other.x1, x2=other.x2, y=other.y,
                                    value=other.value)
        assert _witness_bits(moved) == _witness_bits(other)

    @pytest.mark.parametrize("changes, error, match", [
        ({"x1": float("nan")}, PreconditionError, "x1 = .* not finite"),
        ({"x2": complex(float("inf"), 0)}, PreconditionError, "x2 = .* not finite"),
        ({"y": float("-inf")}, PreconditionError, "y = .* not finite"),
        ({"value": float("inf")}, PreconditionError, "value = .* not finite"),
        ({"value": complex(0.5, float("nan"))}, PreconditionError, "value = .* not finite"),
        ({"value": 1e200}, PreconditionError, "value = .* too large"),
        ({"value": 1e200 + 0j}, PreconditionError, "value = .* too large"),
        ({"value": 1e77}, PreconditionError, "value = .* too large"),
        ({"x1": 1e61}, PreconditionError, "x1 = .* weighted scale"),
        ({"x1": 0, "value": 0}, NumericError, "degenerates")])
    def test_a_branch_without_the_record_raises_the_typed_errors(self, changes, error, match):
        # built by hand, or replaced from a solved branch, which drops the record
        fields = {"x1": 1, "x2": 1, "y": 1, "value": 0.5, "label": 1} | changes
        solved = quartic_g_roots(1, 1, 1)[0]
        for branch in (PearceyBranch(**fields), dataclasses.replace(solved, **changes)):
            assert branch._point is None
            for measure in (annihilation_residuals, branch_partials):
                with pytest.raises(error, match=match):
                    measure(branch)


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
        assert homogeneity_residual(1.0, 1.0, 1.0) < 1e-10
        assert homogeneity_residual(0.7 + 0.1j, -1.2, 0.9 - 0.3j) < 1e-10

    def test_scaling_law_sees_a_coefficient_of_the_wrong_weight(self, monkeypatch):
        # g -> l^-3 g is a symmetry only while every coefficient of g^k has
        # weight 3k; a constant added to the g^1 coefficient breaks it
        real = pearcey.quartic_coefficients

        def broken(x1, x2, y):
            a, b, c, d, e = real(x1, x2, y)
            return a, b, c, d + 0.5, e

        monkeypatch.setattr(pearcey, "quartic_coefficients", broken)
        assert homogeneity_residual(0.7 + 0.1j, -1.2, 0.9 - 0.3j) > 1e-3
        assert not run_pearcey_verify(4, 20, 42, ann_points=5).passed

    @pytest.mark.parametrize("fields, name", [
        ((float("nan"), 1, 1, 0.5), "x1"), ((1, complex(float("inf"), 0), 1, 0.5), "x2"),
        ((1, 1, float("-inf"), 0.5), "y"), ((1, 1, 1, float("inf")), "value"),
        ((1, 1, 1, complex(0.5, float("nan"))), "value")])
    def test_a_branch_that_is_not_finite_raises(self, fields, name):
        branch = PearceyBranch(*fields, 1)
        for measure in (annihilation_residuals, branch_partials):
            with pytest.raises(PreconditionError, match=f"{name} = .* not finite"):
                measure(branch)

    @pytest.mark.parametrize("value", [1e200, 1e200 + 0j, 1e77])
    def test_a_value_too_large_for_the_partials_raises(self, value):
        # 1e200 ** 3 raised an untyped OverflowError, and with 1e200 + 0j
        # "complex exponentiation"; at 1e77 the fourth power is finite but the
        # partials overflow and the residuals were NaN
        branch = PearceyBranch(1, 1, 1, value, 1)
        for measure in (annihilation_residuals, branch_partials):
            with pytest.raises(PreconditionError, match=r"value = .* too large"):
                measure(branch)


def _relative_newton_correction(x1, x2, y, roots):
    """The worst |F(z) / (z F'(z))| over ``roots`` of the quartic F at (x1, x2, y),
    evaluated as ``homogeneity_residual`` evaluates it."""
    a, b, c, d, e = quartic_coefficients(x1, x2, y)
    worst = 0.0
    for z in roots:
        f = (((a * z + b) * z + c) * z + d) * z + e
        fp = ((4 * a * z + 3 * b) * z + 2 * c) * z + d
        worst = max(worst, abs(f / (z * fp)))
    return worst


class TestHomogeneity:
    """The homogeneity check solves once, at a scaled point that is not a
    power-of-two image of the base point, and measures the roots."""

    @pytest.fixture(scope="class")
    def points(self, bench_workloads):
        """The 400 quartic points of the pearcey benchmark's seeds 0-49."""
        return [p for seed in range(50) for p in bench_workloads.pearcey_inputs(seed)["quartic"]]

    def test_one_solve_per_check(self, monkeypatch):
        solves = _results(monkeypatch, "quartic_g_roots")
        homogeneity_residual(0.7 + 0.1j, -1.2, 0.9 - 0.3j)
        lam = pearcey.HOMOGENEITY_LAMBDA
        assert len(solves) == 1
        branch = solves[0][0]
        assert (branch.x1, branch.x2, branch.y) == (
            lam ** 3 * (0.7 + 0.1j), lam ** 2 * -1.2, lam ** 4 * (0.9 - 0.3j))

    @pytest.mark.parametrize("fraction, lam", [(0.3, 3.0), (1 / 3, 3.0), (0.34, 1 / 3),
                                               (0.5, 1 / 3), (1.0, 1 / 3)])
    def test_a_point_that_lambda_would_take_past_the_bound_is_scaled_down(
            self, monkeypatch, fraction, lam):
        # the point (0.7 + 0.1j, -1.2, 0.9 - 0.3j) at the weighted scale
        # fraction * QUARTIC_SCALE_MAX; above a third of it, l = 3 would take
        # the point beyond the bound, and 1/3 is not dyadic either
        x1, x2, y = 0.7 + 0.1j, -1.2, 0.9 - 0.3j
        s = fraction * pearcey.QUARTIC_SCALE_MAX / abs(x2) ** 0.5
        point = (s ** 3 * x1, s ** 2 * x2, s ** 4 * y)
        solves = _results(monkeypatch, "quartic_g_roots")
        assert homogeneity_residual(*point) < PEARCEY_HOMOGENEITY_TOL
        branch = solves[0][0]
        assert (branch.x1, branch.x2, branch.y) == (
            lam ** 3 * point[0], lam ** 2 * point[1], lam ** 4 * point[2])

    def test_sixteen_solves_per_bench_op(self, monkeypatch, bench_workloads):
        # 8 points, each solved for its roots and once at the scaled point
        inputs = bench_workloads.pearcey_inputs(0)
        solves = _results(monkeypatch, "quartic_g_roots")
        bench_workloads.pearcey_run(inputs)
        assert len(solves) == 16

    def test_the_residual_measures_the_roots(self, points):
        residuals = [homogeneity_residual(*p) for p in points]
        assert len(residuals) == 400
        assert 0.0 not in residuals
        assert max(residuals) < PEARCEY_HOMOGENEITY_TOL

    def test_the_check_is_not_the_solver_against_itself(self, points):
        # under lambda = 2 the scaled roots, mapped back, were the base roots
        # bit for bit at 320 of these points, so the residual was the base
        # roots' own Newton correction there; at lambda = 3 it equals it at 5
        same = sum(homogeneity_residual(*p) == _relative_newton_correction(
                       *p, [b.value for b in quartic_g_roots(*p)]) for p in points)
        assert same < len(points) // 10
