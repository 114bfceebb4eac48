"""Exact arithmetic substrate: rationals adjoined sqrt(3) and truncated
Puiseux series with half-integer exponents.

Everything here is immutable and exact.  Floating point enters only through
the explicit ``complex()``/``float()`` conversions used by the numeric
modules.  Exponent denominators are capped at 2 on purpose: every series in
this problem lives in half-integer powers, so a finer denominator showing up
means a symbol-manipulation bug and is rejected immediately.

Scalars are fraction-free: (p + q sqrt 3)/d is three ints with d > 0 and
gcd(p, q, d) = 1, a canonical form, so each scalar sum or product is integer
work and one gcd (Knuth, TAOCP vol. 2, 4.5.1).  A series holds ints alone:
each term keyed by its grid index h = 2e, each coefficient as its triple
(p, q, d), and the truncation as the grid limit 2 * truncation, so a
truncation, like an exponent, must be a half-integer.  Products and the
recurrences below run on these ints; Fractions and ExactScalars are built only
where the API is read (``terms``, once per series, and ``truncation``,
``valuation``, ``leading``, ``coeff``).  Products and recurrences reduce once
per coefficient, not once per pair of terms: each coefficient is an integer
dot product over a common denominator, reduced at the end.

The transcendental operations run as O(n^2) coefficient recurrences on that
grid, with integer weights, after normalising f = lead x^v (1 + u):

- reciprocal and the binomial powers (1 + u)^p, p = -1, +-1/2, by
  J.C.P. Miller's power formula g_m = (1/m) sum_k ((p+1) k - m) u_k g_{m-k}
  (Knuth, TAOCP vol. 2, 4.7);
- exp(u) from g' = u' g: g_m = (1/m) sum_k k u_k g_{m-k} (Brent & Kung,
  J. ACM 25, 1978).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Union

from .errors import PreconditionError

RationalLike = Union[int, Fraction]

_SQRT3 = math.sqrt(3.0)
_gcd = math.gcd


def _ratio(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator > 0) of an int or a Fraction."""
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int):
        return value, 1
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class ExactScalar:
    """An element a + b*sqrt(3) of the quadratic field Q(sqrt(3)).

    It is stored as three ints, (p + q*sqrt(3))/d with d > 0 and
    gcd(p, q, d) = 1.  This form is canonical, so ``==`` and ``hash`` read
    the ints; ``a`` = p/d and ``b`` = q/d are the parts as Fractions.
    Equality, arithmetic and zero-testing are exact; (sqrt 3)^2 reduces to 3.
    """

    __slots__ = ("_pqd",)

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        pa, da = _ratio(a)
        pb, db = _ratio(b)
        p, q, d = pa * db, pb * da, da * db
        g = _gcd(p, q, d)
        _set_pqd(self, (p // g, q // g, d // g))

    def __setattr__(self, *_):
        raise AttributeError("ExactScalar is immutable")

    def __reduce__(self):
        return _scalar, (self._pqd,)

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value: RationalLike) -> "ExactScalar":
        return cls(value, 0)

    @classmethod
    def sqrt3(cls, coeff: RationalLike = 1) -> "ExactScalar":
        return cls(0, coeff)

    @classmethod
    def coerce(cls, value) -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        n, d = _ratio(value)
        return _scalar((n, 0, d))

    # -- parts and predicates -------------------------------------------

    @property
    def a(self) -> Fraction:
        p, _, d = self._pqd
        return Fraction(p, d)

    @property
    def b(self) -> Fraction:
        _, q, d = self._pqd
        return Fraction(q, d)

    def is_zero(self) -> bool:
        return self._pqd == (0, 0, 1)

    def is_rational(self) -> bool:
        return self._pqd[1] == 0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        p, q, d = self._pqd
        if isinstance(other, ExactScalar):
            r, s, e = other._pqd
            if d == e:
                return _scalar(_reduce(p + r, q + s, d))
            return _scalar(_reduce(p * e + r * d, q * e + s * d, d * e))
        if isinstance(other, int):
            # gcd(p + n d, q, d) = gcd(p, q, d) = 1
            return _scalar((p + other * d, q, d))
        r, e = _ratio(other)
        return _scalar(_reduce(p * e + r * d, q * e, d * e))

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        p, q, d = self._pqd
        return _scalar((-p, -q, d))

    def __sub__(self, other) -> "ExactScalar":
        return self + (-ExactScalar.coerce(other))

    def __rsub__(self, other) -> "ExactScalar":
        return ExactScalar.coerce(other) + (-self)

    def __mul__(self, other) -> "ExactScalar":
        p, q, d = self._pqd
        if isinstance(other, ExactScalar):
            r, s, e = other._pqd
            return _scalar(_reduce(p * r + 3 * q * s, p * s + q * r, d * e))
        if isinstance(other, int):
            # gcd(n p, n q, d) = gcd(n, d), because gcd(p, q, d) = 1
            g = _gcd(other, d)
            n = other // g
            return _scalar((p * n, q * n, d // g))
        r, e = _ratio(other)
        return _scalar(_reduce(p * r, q * r, d * e))

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        return _scalar(_invert(self._pqd))

    def __truediv__(self, other) -> "ExactScalar":
        if isinstance(other, int) and other:
            p, q, d = self._pqd
            return _scalar(_reduce(p, q, d * other))
        return self * ExactScalar.coerce(other).inverse()

    def __rtruediv__(self, other) -> "ExactScalar":
        return ExactScalar.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "ExactScalar":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sqrt(self) -> "ExactScalar":
        """Exact square root, defined only for perfect squares in Q(sqrt 3)."""
        if self.is_zero():
            return ZERO
        a, b = self.a, self.b
        if b == 0:
            root = _fraction_sqrt(a)
            if root is not None:
                return ExactScalar(root, 0)
            if a > 0:
                root = _fraction_sqrt(a / 3)
                if root is not None:
                    return ExactScalar(0, root)
            raise PreconditionError(f"{self!r} is not a perfect square in Q(sqrt 3)")
        # (p + q*sqrt3)^2 = p^2 + 3q^2 + 2pq sqrt3; solve for p, q.
        disc = a * a - 3 * b * b
        root_disc = _fraction_sqrt(disc) if disc >= 0 else None
        if root_disc is not None:
            for p2 in ((a + root_disc) / 2, (a - root_disc) / 2):
                if p2 <= 0:
                    continue
                p = _fraction_sqrt(p2)
                if p is None:
                    continue
                q = b / (2 * p)
                candidate = ExactScalar(p, q)
                if candidate * candidate == self:
                    return candidate
        raise PreconditionError(f"{self!r} is not a perfect square in Q(sqrt 3)")

    # -- comparisons / conversions --------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactScalar):
            return self._pqd == other._pqd
        if isinstance(other, (int, Fraction)):
            n, d = _ratio(other)
            return self._pqd == (n, 0, d)
        return NotImplemented

    def __hash__(self):
        return hash(self._pqd)

    def __float__(self) -> float:
        # int / int rounds correctly, so p / d is float(Fraction(p, d)) bitwise
        p, q, d = self._pqd
        return p / d + (q / d) * _SQRT3

    def __complex__(self) -> complex:
        return complex(float(self))

    def __repr__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return f"{a}"
        if a == 0:
            return f"{b}*sqrt3"
        sign = "+" if b > 0 else "-"
        return f"({a} {sign} {abs(b)}*sqrt3)"


_set_pqd = ExactScalar._pqd.__set__


def _scalar(pqd: tuple[int, int, int]) -> ExactScalar:
    """The scalar of a canonical triple (p, q, d): d > 0, gcd(p, q, d) = 1."""
    out = object.__new__(ExactScalar)
    _set_pqd(out, pqd)
    return out


def _reduce(p: int, q: int, d: int) -> tuple[int, int, int]:
    """The canonical triple of (p + q sqrt 3)/d for any d != 0."""
    if d < 0:
        p, q, d = -p, -q, -d
    g = _gcd(p, q, d)
    if g != 1:
        return p // g, q // g, d // g
    return p, q, d


def _invert(pqd: tuple[int, int, int]) -> tuple[int, int, int]:
    """The canonical triple of 1/x: d / (p + q sqrt 3) = d (p - q sqrt 3) / (p^2 - 3 q^2)."""
    p, q, d = pqd
    norm = p * p - 3 * q * q
    if norm == 0:
        raise ZeroDivisionError("division by zero in Q(sqrt 3)")
    return _reduce(d * p, -d * q, norm)


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    """Square root of a nonnegative rational if it is rational, else None."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
SQRT3 = ExactScalar.sqrt3()


def _half(value, what: str) -> int:
    """The grid index 2 value of a half-integer exponent or truncation."""
    if isinstance(value, int):
        return 2 * value
    if not isinstance(value, Fraction):
        value = Fraction(value)
    if value.denominator > 2:
        raise PreconditionError(
            f"{what} {value} has denominator {value.denominator}; only 1 or 2 allowed")
    return 2 * value.numerator // value.denominator


_ZERO_PQD = (0, 0, 1)
_ONE_PQD = (1, 0, 1)


class PuiseuxSeries:
    """A truncated series sum_e c_e * var^e with exponents in (1/2)Z.

    ``truncation`` is the first exponent *not* represented; ``None`` means the
    series is exact (a Puiseux polynomial).  Like the exponents, it is a
    half-integer.  Arithmetic propagates the truncation as the minimum of the
    operand precisions, shifted by valuations under multiplication and
    inversion.

    Inside, everything is an int: ``_grid`` maps the grid index h = 2e of each
    nonzero term, in increasing order, to the canonical triple (p, q, d) of
    its coefficient, and ``_limit`` is 2 * truncation.  ``terms`` and
    ``truncation`` are read off them, ``terms`` once and then cached.
    """

    __slots__ = ("variable", "_grid", "_limit", "_terms")

    def __init__(self, variable: str,
                 terms: Mapping[Fraction, ExactScalar] | Iterable[tuple] = (),
                 truncation: Fraction | int | None = None):
        items = terms.items() if isinstance(terms, Mapping) else terms
        limit = None if truncation is None else _half(truncation, "truncation")
        grid: dict[int, ExactScalar] = {}
        for e, c in items:
            h = _half(e, "exponent")
            c = ExactScalar.coerce(c)
            if limit is None or h < limit:
                grid[h] = grid[h] + c if h in grid else c
        self._set(variable, {h: c._pqd for h, c in sorted(grid.items()) if not c.is_zero()},
                  limit)

    def _set(self, variable: str, grid: dict, limit: int | None) -> "PuiseuxSeries":
        for name, value in (("variable", variable), ("_grid", grid), ("_limit", limit),
                            ("_terms", None)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, *_):
        raise AttributeError("PuiseuxSeries is immutable")

    def __reduce__(self):
        return PuiseuxSeries._trusted, (self.variable, self._grid, self._limit)

    @classmethod
    def _trusted(cls, variable: str, grid: dict[int, tuple],
                 limit: int | None) -> "PuiseuxSeries":
        """A series from a grid already checked: increasing indices, nonzero
        canonical triples, all below ``limit``."""
        return object.__new__(cls)._set(variable, grid, limit)

    def _term(self, h: int, c: tuple, limit: int | None) -> "PuiseuxSeries":
        """c var^(h/2) + O(var^(limit/2)), the term dropped at or past the limit."""
        return self._trusted(self.variable, {h: c} if limit is None or h < limit else {}, limit)

    @property
    def terms(self) -> dict[Fraction, ExactScalar]:
        """{exponent: coefficient}, in increasing order of the exponent."""
        if self._terms is None:
            object.__setattr__(self, "_terms", {Fraction(h, 2): _scalar(c)
                                                for h, c in self._grid.items()})
        return self._terms

    @property
    def truncation(self) -> Fraction | None:
        return None if self._limit is None else Fraction(self._limit, 2)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variable: str, truncation=None) -> "PuiseuxSeries":
        return cls(variable, {}, truncation)

    @classmethod
    def one(cls, variable: str, truncation=None) -> "PuiseuxSeries":
        return cls.monomial(variable, 0, ONE, truncation)

    @classmethod
    def monomial(cls, variable: str, exponent, coeff=ONE, truncation=None) -> "PuiseuxSeries":
        return cls(variable, {exponent: coeff}, truncation)

    @classmethod
    def from_grid(cls, variable: str, coeffs: Iterable[tuple[int, int, int]],
                  truncation: Fraction | int | None = None) -> "PuiseuxSeries":
        """The rational series sum (n/d) var^(h/2) over the triples (h, n, d).

        Grid indices h must increase; n, d are ints with d != 0, reduced here
        once each, and zero terms are dropped.  Terms at or past the
        truncation are refused.
        """
        limit = None if truncation is None else _half(truncation, "truncation")
        grid = {}
        last = -math.inf
        for h, n, d in coeffs:
            if h <= last:
                raise PreconditionError(f"grid indices must increase, got {h} after {last}")
            if limit is not None and h >= limit:
                raise PreconditionError(
                    f"term {variable}^({h}/2) lies past the truncation {Fraction(limit, 2)}")
            last = h
            if n:
                grid[h] = _reduce(n, 0, d)
        return cls._trusted(variable, grid, limit)

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._grid

    def valuation(self) -> Fraction | None:
        """Smallest stored exponent, or None for the (truncated) zero series."""
        if not self._grid:
            return None
        return Fraction(next(iter(self._grid)), 2)

    def coeff(self, exponent) -> ExactScalar:
        return self.terms.get(Fraction(exponent), ZERO)

    def leading(self) -> tuple[Fraction, ExactScalar]:
        if not self._grid:
            raise PreconditionError("zero series has no leading term")
        h, c = next(iter(self._grid.items()))
        return Fraction(h, 2), _scalar(c)

    def _same_variable(self, other: "PuiseuxSeries"):
        if self.variable != other.variable:
            raise PreconditionError(
                f"variable mismatch: {self.variable!r} vs {other.variable!r}")

    # -- ring operations --------------------------------------------------

    def __add__(self, other) -> "PuiseuxSeries":
        if isinstance(other, (int, Fraction, ExactScalar)):
            other = PuiseuxSeries.monomial(self.variable, 0, ExactScalar.coerce(other))
        self._same_variable(other)
        limit = min((x for x in (self._limit, other._limit) if x is not None), default=None)
        sums: dict[int, list] = {}
        for h, c in chain(self._grid.items(), other._grid.items()):
            if limit is None or h < limit:
                sums.setdefault(h, []).append((1, c, _ONE_PQD))
        grid = {h: c for h, c in ((h, _dot(sums[h])) for h in sorted(sums)) if c != _ZERO_PQD}
        return PuiseuxSeries._trusted(self.variable, grid, limit)

    __radd__ = __add__

    def __neg__(self) -> "PuiseuxSeries":
        return PuiseuxSeries._trusted(
            self.variable, {h: (-p, -q, d) for h, (p, q, d) in self._grid.items()}, self._limit)

    def __sub__(self, other) -> "PuiseuxSeries":
        if isinstance(other, (int, Fraction, ExactScalar)):
            other = PuiseuxSeries.monomial(self.variable, 0, ExactScalar.coerce(other))
        return self + (-other)

    def __rsub__(self, other) -> "PuiseuxSeries":
        return (-self) + other

    def __mul__(self, other) -> "PuiseuxSeries":
        if isinstance(other, (int, Fraction, ExactScalar)):
            c = ExactScalar.coerce(other)._pqd
            grid = {} if c == _ZERO_PQD else {h: _dot(((1, v, c),))
                                              for h, v in self._grid.items()}
            return PuiseuxSeries._trusted(self.variable, grid, self._limit)
        self._same_variable(other)
        limit = _product_limit(self, other)
        if not self._grid or not other._grid:
            return PuiseuxSeries._trusted(self.variable, {}, limit)
        # each factor over one denominator, so each product coefficient is an
        # integer sum over their product, reduced once
        f = list(zip(self._grid, _over_one_denominator(self._grid.values())))
        g = list(zip(other._grid, _over_one_denominator(other._grid.values())))
        low = f[0][0] + g[0][0]
        size = (f[-1][0] + g[-1][0] + 1 if limit is None else limit) - low
        num_p, num_q = [0] * size, [0] * size
        for h1, (p, q, _) in f:
            for h2, (r, s, _) in g:
                i = h1 + h2 - low
                if i >= size:
                    break
                num_p[i] += p * r + 3 * q * s
                num_q[i] += p * s + q * r
        den = f[0][1][2] * g[0][1][2]
        grid = {low + i: _reduce(a, b, den) for i, (a, b) in enumerate(zip(num_p, num_q)) if a or b}
        return PuiseuxSeries._trusted(self.variable, grid, limit)

    __rmul__ = __mul__

    def negate_root(self) -> "PuiseuxSeries":
        """The series with var^(1/2) replaced by -var^(1/2): every term of odd
        grid index negated."""
        return PuiseuxSeries._trusted(
            self.variable, {h: (-p, -q, d) if h & 1 else (p, q, d)
                            for h, (p, q, d) in self._grid.items()}, self._limit)

    def shift(self, exponent) -> "PuiseuxSeries":
        """Multiply by var^exponent."""
        d = _half(exponent, "exponent")
        return PuiseuxSeries._trusted(self.variable, {h + d: c for h, c in self._grid.items()},
                                      None if self._limit is None else self._limit + d)

    def _precision(self, order, v: int = 0) -> int | None:
        """The grid limit of the precision relative to var^(v/2): what is known
        of self past that term, capped by ``order``."""
        rel = None if self._limit is None else self._limit - v
        if order is not None:
            cap = _half(order, "order")
            rel = cap if rel is None else min(rel, cap)
        return rel

    def inverse(self, order: Fraction | int | None = None) -> "PuiseuxSeries":
        """Multiplicative inverse as a truncated series.

        ``order`` is the requested relative precision (number of exponent units
        past the leading term); required when the input is an exact multi-term
        polynomial, since its true inverse is an infinite series.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by identically-zero series")
        v, lead = next(iter(self._grid.items()))
        rel = self._precision(order, v)
        inv_lead = _invert(lead)
        if len(self._grid) == 1:
            return self._term(-v, inv_lead, None if rel is None else rel - v)
        if rel is None:
            raise PreconditionError(
                "inverse of an exact multi-term series needs an explicit order")
        if not self._has_tail(v, rel):
            raise PreconditionError("inverse: normalized tail must have positive valuation")
        # f = lead * x^v (1 + u); 1/f = lead^{-1} x^{-v} (1 + u)^{-1}
        return self._on_grid(rel, _power_weights(-2),
                             v=v, inv_lead=inv_lead, scale=inv_lead, shift=-v)

    def __truediv__(self, other) -> "PuiseuxSeries":
        if isinstance(other, (int, Fraction, ExactScalar)):
            return self * ExactScalar.coerce(other).inverse()
        self._same_variable(other)
        order = None
        if other.truncation is None and self.truncation is not None and not self.is_zero():
            order = self.truncation - self.valuation()
        return self * other.inverse(order=order)

    def __pow__(self, n: int) -> "PuiseuxSeries":
        if not isinstance(n, int) or n < 0:
            raise PreconditionError("series power expects a nonnegative integer")
        out = PuiseuxSeries.one(self.variable, self.truncation)
        for _ in range(n):
            out = out * self
        return out

    # -- calculus ----------------------------------------------------------

    def differentiate(self) -> "PuiseuxSeries":
        # c var^(h/2) has the derivative (h/2) c var^(h/2 - 1)
        grid = {h - 2: _reduce(h * p, h * q, 2 * d)
                for h, (p, q, d) in self._grid.items() if h}
        return PuiseuxSeries._trusted(self.variable, grid,
                                      None if self._limit is None else self._limit - 2)

    # -- compositions --------------------------------------------------------

    def truncate(self, order) -> "PuiseuxSeries":
        if self._limit is not None and self._limit < _half(order, "truncation"):
            return self
        return self._known_to(order)

    def _known_to(self, truncation) -> "PuiseuxSeries":
        """The terms below ``truncation``, claimed known up to it, past the
        present truncation too: a Newton iterate is known further than the
        arithmetic that made it claims."""
        limit = _half(truncation, "truncation")
        return PuiseuxSeries._trusted(
            self.variable, {h: c for h, c in self._grid.items() if h < limit}, limit)

    def exp(self, order=None) -> "PuiseuxSeries":
        """exp of a series with strictly positive valuation."""
        rel = self._precision(order)
        if rel is None:
            raise PreconditionError("exp of an exact series needs an explicit order")
        if self.is_zero():
            return self._term(0, _ONE_PQD, rel)
        if next(iter(self._grid)) <= 0:
            raise PreconditionError("exp requires strictly positive valuation")
        return self._on_grid(rel, _EXP_WEIGHTS)

    def _binomial_power(self, sign: int, order) -> "PuiseuxSeries":
        """(lead * x^v (1+u))^p for p = sign/2, v an even multiple of p.

        ``order`` caps the relative precision, as for ``inverse``; the result
        is known below rel + p v.
        """
        if self.is_zero():
            raise PreconditionError("no square root of the zero series")
        v, lead = next(iter(self._grid.items()))
        rel = self._precision(order, v)
        if v % 2:
            raise PreconditionError(
                f"sqrt would need exponent {Fraction(v, 2)}/2 with denominator > 2")
        root = _scalar(lead).sqrt()._pqd
        if sign < 0:
            root = _invert(root)
        shift = sign * v // 2
        if len(self._grid) == 1:
            return self._term(shift, root, None if rel is None else rel + shift)
        if rel is None:
            raise PreconditionError("sqrt of an exact multi-term series needs an explicit order")
        if not self._has_tail(v, rel):
            raise PreconditionError("sqrt: normalized tail must have positive valuation")
        return self._on_grid(rel, _power_weights(sign), v=v,
                             inv_lead=_invert(lead), scale=root, shift=shift)

    def sqrt(self, order=None) -> "PuiseuxSeries":
        return self._binomial_power(1, order)

    def inv_sqrt(self, order=None) -> "PuiseuxSeries":
        return self._binomial_power(-1, order)

    def _has_tail(self, v: int, rel: int) -> bool:
        """Whether any term lies strictly between the grid indices v and v + rel."""
        return any(v < h < v + rel for h in self._grid)

    def _on_grid(self, rel: int, weights, v: int = 0, inv_lead: tuple = _ONE_PQD,
                 scale: tuple = _ONE_PQD, shift: int = 0) -> "PuiseuxSeries":
        """Run a coefficient recurrence on u, where self = lead x^(v/2) (1 + u).

        The tail u is laid on the grid below ``rel``; the solution g of
        ``_grid_recurrence`` from g_0 = scale comes back as x^(shift/2) * g,
        known below the grid index rel + shift.  Without ``v`` and
        ``inv_lead``, u is self itself.
        """
        tail = {}
        for h, c in self._grid.items():
            h -= v
            if 0 < h < rel:
                tail[h] = c if inv_lead == _ONE_PQD else _dot(((1, c, inv_lead),))
        g = _grid_recurrence(tail, rel, scale, weights)
        return PuiseuxSeries._trusted(
            self.variable, {h + shift: c for h, c in g.items()}, rel + shift)

    # -- conversions -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (self.variable == other.variable and self._grid == other._grid
                and self._limit == other._limit)

    def __hash__(self):
        return hash((self.variable, tuple(self._grid.items()), self._limit))

    def __repr__(self) -> str:
        if not self.terms:
            body = "0"
        else:
            parts = []
            for e, c in self.terms.items():
                if e == 0:
                    parts.append(f"{c!r}")
                else:
                    parts.append(f"{c!r}*{self.variable}^{e}")
            body = " + ".join(parts)
        if self.truncation is not None:
            body += f" + O({self.variable}^{self.truncation})"
        return body


def _product_limit(f: PuiseuxSeries, g: PuiseuxSeries):
    """The grid limit of f * g; a factor that is exactly zero makes the
    product exactly zero."""
    candidates = []
    for a, b in ((f, g), (g, f)):
        if a._limit is not None:
            vb = next(iter(b._grid)) if b._grid else b._limit
            if vb is not None:
                candidates.append(a._limit + vb)
    return min(candidates) if candidates else None


def _dot(terms: Iterable[tuple[int, tuple, tuple]], den: int = 1) -> tuple[int, int, int]:
    """The canonical triple of (1/den) sum w x y over the terms (w, x, y).

    w is an int, and x, y are the integer triples (p, q, d) of
    (p + q sqrt 3)/d, d > 0, reduced or not.  The products are added over the
    lcm of their denominators, so a sum whose factors share one denominator
    per side takes no gcd before the final reduction.
    """
    num_p = num_q = 0
    common = 1
    for w, (p, q, d), (r, s, e) in terms:
        a = p * r + 3 * q * s
        b = p * s + q * r
        d *= e
        if d != common:
            if common % d:  # raise common to lcm(common, d)
                up = d // _gcd(common, d)
                num_p *= up
                num_q *= up
                common *= up
            k = common // d
            a *= k
            b *= k
        if w != 1:
            a *= w
            b *= w
        num_p += a
        num_q += b
    return _reduce(num_p, num_q, common * den)


def _over_one_denominator(triples) -> list[tuple[int, int, int]]:
    """The triples (p, q, d), all brought to the lcm d of their denominators."""
    # a list, not a generator: an argument tuple built from a generator is
    # resized, so it is freed into another size's free list than it was
    # taken from, and that free list grows call by call up to its cap
    common = math.lcm(*[d for _, _, d in triples])
    return [(p * (common // d), q * (common // d), common) for p, q, d in triples]


def _grid_recurrence(u: Mapping[int, tuple], n: int, first: tuple,
                     weights) -> dict[int, tuple]:
    """Nonzero coefficients g_m, m < n, of the series fixed by

        g_0 = first,   g_m = (1/divisor(m)) sum_{k <= m} weight(k, m) u_k g_{m-k},

    where ``weights`` is the pair of integer functions (weight, divisor) and u
    maps grid indices k >= 1 to nonzero elements of Q(sqrt 3).  Every element,
    ``first`` and each g_m included, is a canonical triple (p, q, d).  The
    recurrence is linear in g, so ``first`` scales the whole solution.

    Each g_m is one weighted sum of products over the pairs (k, m - k) with
    both factors nonzero, divided by divisor(m): an integer dot product
    reduced once (``_dot``).
    """
    weight, divisor = weights
    g = {} if n <= 0 else {0: first}
    support = sorted(u.items())
    # g_m vanishes unless m is a sum of indices of u, so a multiple of their gcd
    step = math.gcd(*u) or 1
    for m in range(step, n, step):
        terms = []
        for k, uk in support:
            if k > m:
                break
            prev = g.get(m - k)
            if prev is None:
                continue
            w = weight(k, m)
            if w:
                terms.append((w, uk, prev))
        if terms:
            value = _dot(terms, divisor(m))
            if value != _ZERO_PQD:
                g[m] = value
    return g


def _power_weights(p2: int):
    """(1 + u)^p, p = p2/2, by J.C.P. Miller's formula (Knuth, TAOCP vol. 2,
    4.7): g_m = (1/m) sum_k ((p+1) k - m) u_k g_{m-k}, taken over the divisor
    2m so that the weights (p2+2) k - 2m are integers.  At p = -1 every weight
    is -2m, and the reciprocal is g_m = -sum_k u_k g_{m-k}."""
    if p2 == -2:
        return (lambda k, m: -1), (lambda m: 1)
    c = p2 + 2
    return (lambda k, m: c * k - 2 * m), (lambda m: 2 * m)


# exp(u): g' = u' g, so g_m = (1/m) sum_k k u_k g_{m-k}
_EXP_WEIGHTS = ((lambda k, m: k), (lambda m: m))

