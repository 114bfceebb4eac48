"""Exact arithmetic substrate: scalars, Puiseux series, eta-expansions."""

import copy
import math
import pickle
from fractions import Fraction as Fr

from exactwkb import airy_borel, airy_wkb, series

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactwkb.errors import PreconditionError
from exactwkb.series import ExactScalar, PuiseuxSeries

P = PuiseuxSeries


class TestExactScalar:
    def test_sqrt3_squares_to_three(self):
        assert ExactScalar.sqrt3() * ExactScalar.sqrt3() == ExactScalar(3)

    def test_field_inverse(self):
        z = ExactScalar(Fr(2, 3), Fr(-1, 5))
        assert z * z.inverse() == ExactScalar(1)

    def test_exact_equality_no_floats(self):
        assert ExactScalar(Fr(1, 3)) + ExactScalar(Fr(1, 3)) == ExactScalar(Fr(2, 3))
        assert ExactScalar(Fr(1, 3)) != ExactScalar(Fr(333333333, 1000000000))

    @pytest.mark.parametrize("value,root", [
        (ExactScalar(Fr(1, 4)), ExactScalar(Fr(1, 2))),
        (ExactScalar(3), ExactScalar.sqrt3()),
        (ExactScalar(Fr(3, 16)), ExactScalar.sqrt3(Fr(1, 4))),
        (ExactScalar(7, 4) * ExactScalar(7, 4), ExactScalar(7, 4)),
    ])
    def test_perfect_square_roots(self, value, root):
        assert value.sqrt() * value.sqrt() == value
        assert value.sqrt() in (root, -root)

    def test_non_square_rejected(self):
        with pytest.raises(PreconditionError):
            ExactScalar(2).sqrt()

    def test_square_with_negative_irrational_part(self):
        value = ExactScalar(7, -4)  # (2 - sqrt 3)^2
        root = value.sqrt()
        assert root * root == value
        assert root in (ExactScalar(2, -1), ExactScalar(-2, 1))


class TestPuiseuxArithmetic:
    def test_difference_of_squares(self):
        one_plus = P("s", {Fr(0): 1, Fr(1): 1})
        one_minus = P("s", {Fr(0): 1, Fr(1): -1})
        assert one_plus * one_minus == P("s", {Fr(0): 1, Fr(2): -1})

    def test_geometric_inverse(self):
        one_plus = P("s", {Fr(0): 1, Fr(1): 1}, Fr(3))
        inv = P.one("s", Fr(3)) / one_plus
        assert inv == P("s", {Fr(0): 1, Fr(1): -1, Fr(2): 1}, Fr(3))

    def test_from_grid_is_the_general_constructor_on_integer_pairs(self):
        got = P.from_grid("w", [(-1, 6, -4), (0, 0, 5), (3, 10, 4), (8, 2, 2)], Fr(9, 2))
        assert got == P("w", {Fr(-1, 2): Fr(-3, 2), Fr(3, 2): Fr(5, 2), Fr(4): 1}, Fr(9, 2))
        assert list(got.terms) == [Fr(-1, 2), Fr(3, 2), Fr(4)]
        assert [c._pqd for c in got.terms.values()] == [(-3, 0, 2), (5, 0, 2), (1, 0, 1)]
        assert P.from_grid("w", [(0, 1, 1), (2, 1, 3)]).truncation is None

    def test_from_grid_refuses_unordered_or_truncated_terms(self):
        with pytest.raises(PreconditionError, match="grid indices must increase, got 2 after 2"):
            P.from_grid("w", [(0, 1, 1), (2, 1, 1), (2, 1, 1)], 4)
        with pytest.raises(PreconditionError, match=r"w\^\(8/2\) lies past the truncation 4"):
            P.from_grid("w", [(0, 1, 1), (8, 1, 1)], 4)

    def test_half_power_leading_parts_add(self):
        a = P("s", {Fr(0): ExactScalar.sqrt3(Fr(1, 4)), Fr(1, 2): Fr(1, 6)})
        b = P("s", {Fr(0): ExactScalar.sqrt3(Fr(-1, 4)), Fr(1, 2): Fr(1, 6)})
        assert a + b == P("s", {Fr(1, 2): Fr(1, 3)})

    def test_variable_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            P.one("s") + P.one("u")

    def test_division_by_zero_series(self):
        with pytest.raises(ZeroDivisionError):
            P.one("s", 2) / P.zero("s", 2)

    def test_quarter_exponents_rejected(self):
        with pytest.raises(PreconditionError):
            P("s", {Fr(1, 4): 1})

    def test_truncation_propagates_through_mul(self):
        f = P("s", {Fr(1, 2): 1}, Fr(3))       # known through s^(5/2)
        g = P("s", {Fr(1): 1}, Fr(2))          # known through s^(3/2)
        assert (f * g).truncation == Fr(5, 2)  # min(3 + 1, 2 + 1/2)

    def test_inverse_shifts_truncation_by_valuation(self):
        f = P("s", {Fr(1): 1, Fr(2): 1}, Fr(4))
        inv = f.inverse()
        assert inv.truncation == Fr(2)         # relative precision 3, valuation 1
        assert (f * inv).coeff(0) == ExactScalar(1)


class TestCompositions:
    def test_exp(self):
        s = P.monomial("s", 1)
        assert s.exp(order=3) == P("s", {Fr(0): 1, Fr(1): 1, Fr(2): Fr(1, 2)}, Fr(3))

    def test_inv_sqrt(self):
        one_plus = P("s", {Fr(0): 1, Fr(1): 1})
        assert one_plus.inv_sqrt(order=2) == P("s", {Fr(0): 1, Fr(1): Fr(-1, 2)}, Fr(2))

    def test_exp_requires_positive_valuation(self):
        with pytest.raises(PreconditionError):
            P.one("s", 3).exp()


def small_scalars():
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return st.builds(ExactScalar, fractions, fractions)


def same_terms(a, b):
    """Coefficient-wise equality of two series, their truncations left aside."""
    return a.variable == b.variable and a.terms == b.terms


def small_series():
    exponents = st.integers(min_value=-4, max_value=8).map(lambda k: Fr(k, 2))
    term = st.tuples(exponents, small_scalars())
    return st.lists(term, min_size=0, max_size=4).map(
        lambda terms: P("s", terms, Fr(5)))


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(small_series(), small_series(), small_series())
    def test_associativity_and_distributivity(self, a, b, c):
        assert same_terms((a * b) * c, a * (b * c))
        assert same_terms(a * (b + c), a * b + a * c)

    @settings(max_examples=40, deadline=None)
    @given(small_series())
    def test_mul_then_div_by_unit_is_identity(self, a):
        unit = P("s", {Fr(0): 1, Fr(1, 2): Fr(1, 3)}, Fr(5))
        round_trip = (a * unit) / unit
        assert same_terms(round_trip, a.truncate(round_trip.truncation)
                          if round_trip.truncation is not None else a)

    @settings(max_examples=60, deadline=None)
    @given(small_series(), small_series())
    def test_exponent_denominators_stay_in_half_integers(self, a, b):
        for e in (a * b).terms:
            assert e.denominator in (1, 2)


class TestCalculus:
    def test_termwise_derivative(self):
        # the constant term drops out, and the truncation falls by one
        f = P("x", {Fr(1, 2): 1, 0: 5, Fr(2): Fr(3, 7), Fr(-5, 2): ExactScalar(0, 2)}, 4)
        assert f.differentiate() == P("x", {Fr(-1, 2): Fr(1, 2), Fr(1): Fr(6, 7),
                                            Fr(-7, 2): ExactScalar(0, -5)}, 3)


# ---------------------------------------------------------------------------
# the coefficient recurrences against term-by-term sums
# ---------------------------------------------------------------------------

def _precision(f, order):
    rel = f.truncation
    if order is not None:
        rel = Fr(order) if rel is None else min(rel, Fr(order))
    return rel


def _normalized_tail(f, v, lead, rel):
    inv_lead = lead.inverse()
    return P(f.variable, {e - v: c * inv_lead for e, c in f.terms.items() if e != v}, rel)


def naive_inverse(f, order=None):
    """1/f as lead^-1 x^-v sum_k (-u)^k, one series product per term."""
    if f.is_zero():
        raise ZeroDivisionError("division by identically-zero series")
    v, lead = f.leading()
    rel = None if f.truncation is None else f.truncation - v
    if order is not None:
        rel = Fr(order) if rel is None else min(rel, Fr(order))
    if len(f.terms) == 1:
        return P.monomial(f.variable, -v, lead.inverse(), None if rel is None else rel - v)
    if rel is None:
        raise PreconditionError("needs an explicit order")
    u = _normalized_tail(f, v, lead, rel)
    if u.valuation() is None:
        raise PreconditionError("normalized tail must have positive valuation")
    acc = term = P.one(f.variable, rel)
    k = 1
    while k * u.valuation() < rel:
        term = term * (-u)
        acc = acc + term
        k += 1
    return (acc * lead.inverse()).shift(-v)


def naive_exp(f, order=None):
    rel = _precision(f, order)
    if rel is None:
        raise PreconditionError("needs an explicit order")
    if f.is_zero():
        return P.one(f.variable, rel)
    if f.valuation() <= 0:
        raise PreconditionError("needs positive valuation")
    u = f.truncate(rel)
    acc = term = P.one(f.variable, rel)
    k = 1
    while k * f.valuation() < rel:
        term = term * u / k
        acc = acc + term
        k += 1
    return acc


def naive_binomial(f, p, order=None):
    """(lead x^v (1 + u))^p as root x^(pv) sum_k binom(p, k) u^k."""
    if f.is_zero():
        raise PreconditionError("no square root of the zero series")
    v, lead = f.leading()
    rel = _precision(f.shift(-v), order)   # relative precision, as for the inverse
    if (v / 2).denominator not in (1, 2):
        raise PreconditionError("exponent denominator")
    root = lead.sqrt()
    if p < 0:
        root = root.inverse()
    if len(f.terms) == 1:
        return P.monomial(f.variable, v * p, root, None if rel is None else rel + v * p)
    if rel is None:
        raise PreconditionError("needs an explicit order")
    u = _normalized_tail(f, v, lead, rel)
    if u.valuation() is None:
        raise PreconditionError("normalized tail must have positive valuation")
    acc = term = P.one(f.variable, rel)
    coeff = Fr(1)
    k = 0
    while (k + 1) * u.valuation() < rel:
        coeff = coeff * (p - k) / (k + 1)
        term = term * u
        acc = acc + term * coeff
        k += 1
    return (acc * root).shift(v * p)


def _same_outcome(fast, naive):
    """Both raise the same error type, or both return equal series."""
    try:
        expected = naive()
    except (PreconditionError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            fast()
        return
    assert fast() == expected


# leading coefficients: squares in Q(sqrt 3), some with irrational roots
SQUARES = [ExactScalar(1), ExactScalar(Fr(1, 4)), ExactScalar(Fr(3, 16)),
           ExactScalar(3), ExactScalar(Fr(9, 4)), ExactScalar(7, -4), ExactScalar(7, 4)]


def grid_series(min_valuation, lead=None, max_terms=6):
    """Random Q(sqrt 3) series on the half-integer grid, mostly truncated.

    With ``lead`` given, the leading coefficient is drawn from it and the
    valuation is a whole number, as square roots need.
    """
    if lead is None:
        half = st.integers(2 * min_valuation, 4).map(lambda h: Fr(h, 2))
        leads = small_scalars()
    else:
        half = st.integers(min_valuation, 2).map(Fr)
        leads = st.sampled_from(lead)
    truncations = st.integers(0, 14).map(lambda h: Fr(h, 2) if h else None)

    @st.composite
    def build(draw):
        v = draw(half)
        terms = {v: draw(leads.filter(lambda c: not c.is_zero()))}
        for _ in range(draw(st.integers(0, max_terms))):
            e = v + Fr(draw(st.integers(1, 12)), 2)
            terms[e] = draw(small_scalars())
        trunc = draw(truncations)
        trunc = None if trunc is None else v + trunc
        return P("s", terms, trunc)

    return build()


orders = st.integers(-2, 12).map(lambda h: Fr(h, 2) if h > -2 else None)


class TestKernelAgainstTermwiseSums:
    @settings(max_examples=80, deadline=None)
    @given(grid_series(-2), orders)
    def test_inverse(self, f, order):
        _same_outcome(lambda: f.inverse(order), lambda: naive_inverse(f, order))

    @settings(max_examples=60, deadline=None)
    @given(grid_series(1), orders)
    def test_exp(self, f, order):
        _same_outcome(lambda: f.exp(order), lambda: naive_exp(f, order))

    @settings(max_examples=80, deadline=None)
    @given(grid_series(-2, SQUARES), orders)
    def test_sqrt(self, f, order):
        _same_outcome(lambda: f.sqrt(order), lambda: naive_binomial(f, Fr(1, 2), order))

    @settings(max_examples=80, deadline=None)
    @given(grid_series(-2, SQUARES), orders)
    def test_inv_sqrt(self, f, order):
        _same_outcome(lambda: f.inv_sqrt(order), lambda: naive_binomial(f, Fr(-1, 2), order))

    @settings(max_examples=80, deadline=None)
    @given(grid_series(-2, SQUARES), orders, small_scalars(), st.sampled_from([Fr(1, 2), Fr(-1, 2)]))
    def test_claimed_truncation_survives_one_more_known_term(self, f, order, extra, p):
        # every coefficient below the claimed truncation is fixed by what is
        # known of f: knowing f one grid step further must not change it
        if f.truncation is None:
            return
        longer = P(f.variable, {**f.terms, f.truncation: extra}, f.truncation + Fr(1, 2))
        power = lambda g: g.sqrt(order) if p > 0 else g.inv_sqrt(order)
        try:
            short, long_ = power(f), power(longer)
        except PreconditionError:
            return
        assert long_.truncation >= short.truncation
        assert long_.truncate(short.truncation) == short

    def test_truncation_is_relative_to_the_valuation(self):
        assert P("x", {Fr(2): 1, Fr(3): 1}, Fr(4)).sqrt() == P(
            "x", {Fr(1): 1, Fr(2): Fr(1, 2)}, Fr(3))
        assert P("x", {Fr(-2): 1}, Fr(0)).sqrt() == P("x", {Fr(-1): 1}, Fr(1))

    def test_irrational_root_of_the_leading_coefficient(self):
        f = P("s", {Fr(0): Fr(3, 16), Fr(1, 2): 1, Fr(3): ExactScalar(1, 2)}, Fr(9, 2))
        assert f.sqrt() == naive_binomial(f, Fr(1, 2))
        assert f.inv_sqrt() == naive_binomial(f, Fr(-1, 2))
        assert f.sqrt().leading() == (Fr(0), ExactScalar.sqrt3(Fr(1, 4)))


class TestKernelCost:
    """The recurrences take no series products; O(n^3) sums take one per term.
    Products and recurrences take no Fraction arithmetic per pair of terms,
    and reduce once per coefficient; the Riccati recurrence takes none."""

    @staticmethod
    def _count_products(monkeypatch, fn):
        calls = []
        mul = P.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        with monkeypatch.context() as patch:
            patch.setattr(P, "__mul__", counted)
            fn()
        return len(calls)

    def test_reciprocal_of_the_local_root_series(self, monkeypatch):
        body = P("t", {Fr(0): 1, Fr(1): -1}, Fr(17))
        local = P.monomial("t", Fr(1, 2), 1, Fr(17)) * body.sqrt()
        assert self._count_products(monkeypatch, local.inverse) <= 4

    def test_coefficient_stream(self, monkeypatch):
        run = lambda: airy_wkb.wkb_coefficient_stream(24, "+")
        assert self._count_products(monkeypatch, run) <= 4

    def test_products_and_recurrences_take_no_fraction_arithmetic_per_pair(self, monkeypatch):
        body = P("t", {Fr(0): 1, Fr(1): -1}, Fr(17))
        local = P.monomial("t", Fr(1, 2), 1, Fr(17)) * body.sqrt()
        calls = []
        with monkeypatch.context() as patch:
            for name in ("__add__", "__mul__", "__rmul__", "__sub__", "__truediv__"):
                def counted(self, other, method=getattr(Fr, name)):
                    calls.append(1)
                    return method(self, other)
                patch.setattr(Fr, name, counted)
            product = local * local
            products = len(calls)
            inverse = local.inverse()
            inverses = len(calls) - products
        # 17 terms each: 153 pairs in the product, 136 in the recurrence
        assert products < 100 and inverses < 100
        assert product.terms == {Fr(1): 1, Fr(2): -1} and len(inverse.terms) == 17

    def test_products_and_recurrences_reduce_once_per_coefficient(self, monkeypatch):
        body = P("t", {Fr(0): 1, Fr(1): -1}, Fr(17))
        local = P.monomial("t", Fr(1, 2), 1, Fr(17)) * body.sqrt()
        calls = []
        reduce = series._reduce
        monkeypatch.setattr(series, "_reduce", lambda *args: calls.append(1) or reduce(*args))
        product = local * local
        products = len(calls)
        inverse = local.inverse()
        inverses = len(calls) - products
        # 17 coefficients each, t^1 .. t^17 from 153 pairs and t^(-1/2) ..
        # t^(31/2) from 136; a reduction per pair would take about 290
        assert product.truncation == Fr(35, 2) and products <= 17 + 2
        assert len(inverse.terms) == 17 and inverses <= 17 + 2

    @staticmethod
    def _count_fractions_built(monkeypatch, fn):
        calls = []
        new = Fr.__new__

        def counted(cls, *args, **kwargs):
            calls.append(1)
            return new(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fr, "__new__", counted)
            fn()
        return len(calls)

    @pytest.mark.parametrize("trunc", [17, 33])
    def test_products_and_recurrences_build_no_fraction(self, monkeypatch, trunc):
        # the kernel keys its terms by the int grid index; Fractions are built
        # where the API is read, and a product or a reciprocal reads none of it
        body = P("t", {Fr(0): 1, Fr(1): -1}, Fr(trunc))
        root = body.sqrt()
        local = P.monomial("t", Fr(1, 2), 1, Fr(trunc)) * root
        count = lambda fn: self._count_fractions_built(monkeypatch, fn)
        assert count(lambda: local * local) == count(lambda: root * local) == 0
        assert count(local.inverse) == 0
        # the square root of the leading coefficient is taken on Fractions
        assert count(body.sqrt) <= 6
        assert len(local.inverse().terms) == trunc

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_a_stream_builds_one_fraction_per_coefficient(self, monkeypatch, sign):
        # the same few Fractions besides, whatever the order: the stream's
        # truncations 17 and 33, and the default order 24
        extra = []
        for order in (16, 24, 32):
            run = lambda: airy_wkb.wkb_coefficient_stream(order, sign)
            extra.append(self._count_fractions_built(monkeypatch, run) - (order + 1))
            borel = lambda: airy_borel.borel_series(order, sign)
            assert self._count_fractions_built(monkeypatch, borel) <= order + 1 + extra[-1] + 2
        assert extra[0] == extra[1] == extra[2] <= 5

    @staticmethod
    def _count_fraction_arithmetic(monkeypatch, fn):
        calls = []
        with monkeypatch.context() as patch:
            for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                         "__truediv__", "__rtruediv__", "__pow__", "__neg__"):
                def counted(*args, method=getattr(Fr, name)):
                    calls.append(1)
                    return method(*args)
                patch.setattr(Fr, name, counted)
            fn()
        return len(calls)

    def test_riccati_recurrence_takes_no_fraction_arithmetic(self, monkeypatch):
        run = lambda: airy_wkb.riccati_recurrence(24, "+")
        # the 144 pairs of the convolutions run on ints; the 26 Fractions are
        # built, not computed
        assert self._count_fraction_arithmetic(monkeypatch, run) == 0

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_coefficient_stream_takes_no_fraction_arithmetic_per_term(self, monkeypatch, sign):
        # A and B come from the Riccati integers and the stream is read off
        # the product's coefficients; what is left is the kernel's truncation
        # bookkeeping, a few Fraction steps per call at every order
        counts = [self._count_fraction_arithmetic(
            monkeypatch, lambda: airy_wkb.wkb_coefficient_stream(order, sign))
            for order in (24, 120)]
        assert counts[0] == counts[1] <= 10

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_borel_transform_takes_no_fraction_arithmetic(self, monkeypatch, sign):
        stream = airy_wkb.wkb_coefficient_stream(60, sign)
        run = lambda: airy_borel.borel_transform(stream)
        # the scale 8^n / (3^n (2n-1)!!) is two running integer products
        assert self._count_fraction_arithmetic(monkeypatch, run) == 0


# ---------------------------------------------------------------------------
# ExactScalar against Fraction-pair arithmetic (a, b) = a + b sqrt 3
# ---------------------------------------------------------------------------

def pair(x):
    return (x.a, x.b)


def pair_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def pair_neg(x):
    return (-x[0], -x[1])


def pair_mul(x, y):
    return (x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def pair_inverse(x):
    norm = x[0] * x[0] - 3 * x[1] * x[1]
    if norm == 0:
        raise ZeroDivisionError
    return (x[0] / norm, -x[1] / norm)


def pair_pow(x, n):
    if n < 0:
        x, n = pair_inverse(x), -n
    out = (Fr(1), Fr(0))
    for _ in range(n):
        out = pair_mul(out, x)
    return out


def rational_sqrt(q):
    if q < 0:
        return None
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fr(num, den)
    return None


def pair_sqrt(x):
    """The root that ``ExactScalar.sqrt`` picks, or None for a non-square."""
    a, b = x
    if a == 0 and b == 0:
        return x
    if b == 0:
        root = rational_sqrt(a)
        if root is not None:
            return (root, Fr(0))
        root = rational_sqrt(a / 3)
        return None if root is None else (Fr(0), root)
    # (p + q sqrt 3)^2 = p^2 + 3 q^2 + 2 p q sqrt 3
    disc = rational_sqrt(a * a - 3 * b * b)
    if disc is None:
        return None
    for p2 in ((a + disc) / 2, (a - disc) / 2):
        p = rational_sqrt(p2) if p2 > 0 else None
        if p is not None and pair_mul((p, b / (2 * p)), (p, b / (2 * p))) == x:
            return (p, b / (2 * p))
    return None


def pair_float(x):
    return float(x[0]) + float(x[1]) * math.sqrt(3.0)


def rationals(bound=10 ** 6):
    return st.builds(Fr, st.integers(-bound, bound), st.integers(1, bound))


def pairs():
    return st.tuples(rationals(), rationals() | st.just(Fr(0)))


def operands():
    """An ExactScalar, an int or a Fraction, with its pair."""
    return st.one_of(pairs().map(lambda x: (ExactScalar(*x), x)),
                     st.integers(-50, 50).map(lambda n: (n, (Fr(n), Fr(0)))),
                     rationals(50).map(lambda q: (q, (q, Fr(0)))))


class TestScalarAgainstFractionPairs:
    @settings(max_examples=150, deadline=None)
    @given(pairs(), operands(), st.integers(-4, 4))
    def test_arithmetic(self, x, other, n):
        def check(got, want):
            # the value, and the canonical form: equal to and hashing as the
            # scalar built straight from the oracle's parts
            assert pair(got) == want
            assert got == ExactScalar(*want) and hash(got) == hash(ExactScalar(*want))

        xs = ExactScalar(*x)
        y, yp = other
        check(xs, x)
        check(xs + y, pair_add(x, yp))
        check(y + xs, pair_add(x, yp))
        check(xs - y, pair_add(x, pair_neg(yp)))
        check(y - xs, pair_add(yp, pair_neg(x)))
        check(-xs, pair_neg(x))
        check(xs * y, pair_mul(x, yp))
        check(y * xs, pair_mul(x, yp))
        if yp == (0, 0):
            with pytest.raises(ZeroDivisionError):
                xs / y
        else:
            check(xs / y, pair_mul(x, pair_inverse(yp)))
        if x == (0, 0):
            for fails in (xs.inverse, lambda: y / xs, lambda: xs ** -1):
                with pytest.raises(ZeroDivisionError):
                    fails()
            return
        check(xs.inverse(), pair_inverse(x))
        check(y / xs, pair_mul(yp, pair_inverse(x)))
        check(xs ** n, pair_pow(x, n))

    @settings(max_examples=150, deadline=None)
    @given(pairs())
    def test_sqrt(self, x):
        for value in (x, pair_mul(x, x), (x[0] * x[0], Fr(0)), (3 * x[0] * x[0], Fr(0))):
            want = pair_sqrt(value)
            if want is None:
                with pytest.raises(PreconditionError):
                    ExactScalar(*value).sqrt()
            else:
                assert pair(ExactScalar(*value).sqrt()) == want

    @settings(max_examples=150, deadline=None)
    @given(pairs(), st.integers(1, 10 ** 6), st.integers(-10 ** 6, 10 ** 6).filter(bool))
    def test_one_value_by_different_routes_is_equal_and_hashes_equal(self, x, k, n):
        a, b = x
        unreduced = (Fr(a.numerator * k, a.denominator * k), Fr(b.numerator * k, b.denominator * k))
        k_sqrt3 = ExactScalar(k, n)   # a unit whenever k^2 != 3 n^2, always here
        routes = [ExactScalar(a, b), ExactScalar(*unreduced),
                  ExactScalar.rational(a) + ExactScalar.sqrt3(b),
                  ExactScalar(a * n, b * n) / n, ExactScalar(a, b) * n / n,
                  ExactScalar(a, b) * k_sqrt3 / k_sqrt3,
                  ExactScalar(a, b) * k_sqrt3 * k_sqrt3.inverse()]
        for route in routes:
            assert route == routes[0] and hash(route) == hash(routes[0])
            assert repr(route) == repr(routes[0])
        if b == 0:
            assert routes[-1] == a
            assert (routes[-1] == a.numerator) == (a.denominator == 1)
        assert ExactScalar(Fr(2, 4)) == ExactScalar(Fr(1, 2)) == Fr(1, 2)
        assert hash(ExactScalar(Fr(2, 4))) == hash(ExactScalar(Fr(1, 2)))
        assert hash(ExactScalar(6, 4) / 2) == hash(ExactScalar(3, 2))

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(rationals(10 ** 40), rationals(10 ** 40)))
    def test_float_and_complex_as_the_parts(self, x):
        value = ExactScalar(*x)
        # bitwise: the numeric modules cache these values
        assert float(value).hex() == pair_float(x).hex()
        assert complex(value) == complex(pair_float(x))

    @pytest.mark.parametrize("bad", [0.5, 1.0, "1"])
    def test_non_rationals_rejected(self, bad):
        for build in (lambda: ExactScalar(bad), lambda: ExactScalar(1, bad),
                      lambda: ExactScalar.coerce(bad), lambda: ExactScalar(1) + bad,
                      lambda: ExactScalar(1) * bad, lambda: ExactScalar(1) / bad):
            with pytest.raises(TypeError):
                build()

    def test_immutable(self):
        value = ExactScalar(1, 2)
        with pytest.raises(AttributeError):
            value.a = Fr(3)
        with pytest.raises(AttributeError):
            value._pqd = (3, 0, 1)
        assert value == ExactScalar(1, 2)


# ---------------------------------------------------------------------------
# series products against a termwise product keyed by Fraction exponents
# ---------------------------------------------------------------------------

def termwise_product(f, g):
    """{exponent: (a, b)} and truncation of f * g: every pair of terms summed
    at its Fraction exponent below the truncation, zero coefficients dropped."""
    candidates = [a.truncation + (b.valuation() if b.terms else b.truncation)
                  for a, b in ((f, g), (g, f))
                  if a.truncation is not None and (b.terms or b.truncation is not None)]
    trunc = min(candidates) if candidates else None
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = e1 + e2
            if trunc is None or e < trunc:
                out[e] = pair_add(out.get(e, (Fr(0), Fr(0))), pair_mul(pair(c1), pair(c2)))
    return {e: ab for e, ab in out.items() if ab != (0, 0)}, trunc


# few distinct coefficients, so that products cancel often
CANCELLING = [ExactScalar(1), ExactScalar(-1), ExactScalar(2), ExactScalar.sqrt3(),
              ExactScalar.sqrt3(-1), ExactScalar(1, 1), ExactScalar(Fr(1, 2), Fr(-1, 3))]


def product_factors():
    exponents = st.integers(-6, 12).map(lambda h: Fr(h, 2))
    coefficients = st.sampled_from(CANCELLING) | small_scalars()
    truncations = st.none() | st.integers(-4, 16).map(lambda h: Fr(h, 2))
    return st.builds(lambda terms, trunc: P("s", terms, trunc),
                     st.lists(st.tuples(exponents, coefficients), max_size=6), truncations)


class TestProductAgainstTermwiseSum:
    @settings(max_examples=120, deadline=None)
    @given(product_factors(), product_factors())
    def test_product(self, f, g):
        want, trunc = termwise_product(f, g)
        got = f * g
        assert got.truncation == trunc
        assert {e: pair(c) for e, c in got.terms.items()} == want
        assert list(got.terms) == sorted(want)
        assert all(not c.is_zero() for c in got.terms.values())

    def test_cancelled_terms_are_dropped(self):
        f = P("s", {Fr(1, 2): 1, Fr(1): ExactScalar.sqrt3()})
        g = P("s", {Fr(1, 2): 1, Fr(1): ExactScalar.sqrt3(-1)}, Fr(4))
        assert (f * g).terms == {Fr(1): ExactScalar(1), Fr(2): ExactScalar(-3)}
        assert (f * g).truncation == Fr(9, 2)

    def test_exact_zero_factor_gives_exact_zero(self):
        f = P("s", {Fr(1): 1}, Fr(3))
        for product in (f * P.zero("s"), P.zero("s") * f):
            assert product == P.zero("s")


# ---------------------------------------------------------------------------
# the API over the int grid: Fraction exponents and half-integer truncations
# ---------------------------------------------------------------------------

class TestHalfIntegerTruncations:
    """A truncation, like an exponent, is a half-integer at every entry."""

    @pytest.mark.parametrize("bad", [Fr(1, 3), Fr(9, 4), Fr(-5, 6)])
    def test_every_entry_refuses_a_truncation_off_the_grid(self, bad):
        f = P("s", {Fr(0): 1, Fr(1, 2): Fr(1, 3)}, Fr(5))
        g = P("s", {Fr(1): 1, Fr(2): 1})
        for build in (lambda: P("s", {Fr(0): 1}, bad), lambda: P.zero("s", bad),
                      lambda: P.monomial("s", 1, 1, bad),
                      lambda: P.from_grid("s", [(0, 1, 1)], bad),
                      lambda: f.truncate(bad), lambda: g.truncate(bad),
                      lambda: f.inverse(bad), lambda: g.inverse(bad),
                      lambda: P.monomial("s", 1).inverse(bad),
                      lambda: f.sqrt(bad), lambda: f.inv_sqrt(bad),
                      lambda: P.monomial("s", 2, 4).sqrt(bad),
                      lambda: g.exp(bad), lambda: P.zero("s").exp(bad)):
            with pytest.raises(PreconditionError, match="only 1 or 2 allowed"):
                build()

    def test_half_integer_truncations_are_kept(self):
        assert P("s", {Fr(0): 1, Fr(5, 2): 1}, Fr(5, 2)).truncation == Fr(5, 2)
        assert P("s", {Fr(0): 1}, 3).truncation == Fr(3)
        assert P.from_grid("s", [(-2, 1, 1)], Fr(-1, 2)).terms == {Fr(-1): ExactScalar(1)}
        assert P("s", {Fr(1): 1, Fr(2): 1}).exp(Fr(7, 2)).truncation == Fr(7, 2)


def built_series():
    """Series from each route: the constructor, from_grid, a product, and
    the inverse, square root and exp recurrences."""
    @st.composite
    def build(draw):
        route = draw(st.sampled_from(["new", "grid", "product", "inverse", "sqrt", "exp"]))
        if route == "grid":
            indices = sorted(draw(st.sets(st.integers(-6, 12), max_size=6)))
            trunc = draw(st.none() | st.integers(13, 16).map(lambda h: Fr(h, 2)))
            return P.from_grid("s", [(h, draw(st.integers(-5, 5)), draw(st.integers(1, 7)))
                                     for h in indices], trunc)
        if route == "new":
            return draw(grid_series(-2))
        if route == "product":
            return draw(product_factors()) * draw(product_factors())
        order = draw(orders)
        try:
            if route == "inverse":
                return draw(grid_series(-2)).inverse(order)
            if route == "sqrt":
                return draw(grid_series(-2, SQUARES)).sqrt(order)
            return draw(grid_series(1)).exp(order)
        except (PreconditionError, ZeroDivisionError):
            return P.zero("s", order)

    return build()


class TestSeriesApi:
    @settings(max_examples=150, deadline=None)
    @given(built_series())
    def test_fraction_keys_and_truncations_whatever_the_route(self, f):
        terms = f.terms
        assert all(type(e) is Fr for e in terms) and list(terms) == sorted(terms)
        assert all(type(c) is ExactScalar and not c.is_zero() for c in terms.values())
        assert f.truncation is None or type(f.truncation) is Fr
        assert f.truncation is None or all(e < f.truncation for e in terms)
        assert f.terms == terms and f.terms is terms
        if terms:
            assert f.valuation() == next(iter(terms))
            assert f.leading() == next(iter(terms.items()))
        # the same series by other routes: equal, with equal hashes
        routes = [P(f.variable, list(terms.items())[::-1], f.truncation),
                  f * P.one(f.variable), f + P.zero(f.variable), -(-f)]
        if all(c.is_rational() for c in terms.values()):
            routes.append(P.from_grid(f.variable, [(int(2 * e), c.a.numerator, c.a.denominator)
                                                   for e, c in terms.items()], f.truncation))
        for other in routes:
            assert other == f and hash(other) == hash(f)
            assert other.terms == terms and other.truncation == f.truncation


class TestNegateRoot:
    """var^(1/2) -> -var^(1/2): the terms of half-integer exponent change sign."""

    def test_the_half_integer_terms_change_sign(self):
        f = P("t", {Fr(-1, 2): 3, Fr(0): 1, Fr(1, 2): ExactScalar(0, 2), Fr(3): Fr(5, 7)},
              Fr(7, 2))
        assert f.negate_root() == P("t", {Fr(-1, 2): -3, Fr(0): 1,
                                          Fr(1, 2): ExactScalar(0, -2), Fr(3): Fr(5, 7)},
                                    Fr(7, 2))
        assert P("t", {Fr(2): 1}).negate_root() == P("t", {Fr(2): 1})

    @settings(max_examples=60, deadline=None)
    @given(small_series(), small_series())
    def test_it_is_a_ring_automorphism_of_order_two(self, a, b):
        assert a.negate_root().negate_root() == a
        assert (a * b).negate_root() == a.negate_root() * b.negate_root()
        assert (a + b).negate_root() == a.negate_root() + b.negate_root()


COPIES = [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))]


class TestCopies:
    """Exact values are immutable, and a copy or a pickle round trip gives an
    equal value with an equal hash; a series keeps its internal grid."""

    @pytest.mark.parametrize("how", COPIES)
    def test_scalars(self, how):
        for x in (ExactScalar(), ExactScalar(Fr(-3, 4), 2), ExactScalar.sqrt3()):
            y = how(x)
            assert y == x and hash(y) == hash(x) and y._pqd == x._pqd

    @pytest.mark.parametrize("how", COPIES)
    def test_series(self, how):
        for f in (P("s", {Fr(-1, 2): ExactScalar(1, 2), 3: 5}, Fr(9, 2)), P.zero("t"),
                  P.one("s", 3), airy_borel.borel_series(8, "+").series):
            g = how(f)
            assert g == f and hash(g) == hash(f)
            assert (g.variable, g._grid, g._limit) == (f.variable, f._grid, f._limit)
            assert g.terms == f.terms and g.truncation == f.truncation

    @pytest.mark.parametrize("how", COPIES)
    def test_borel_series(self, how):
        b = airy_borel.borel_series(8, "-")
        assert how(b) == b and how(b).series._grid == b.series._grid
