"""Pearcey-system machinery: exact WKB recursion in the cubic quotient ring,
closedness and primitive checks, and the Borel-plane quartic with its
holonomic annihilation witnesses.

The symbolic side lives in Q[x1, x2][1/D][S] / (4 S^3 + 2 x2 S + x1), where
D = 27 x1^2 + 8 x2^3 is (up to a constant) the resultant of the cubic with its
derivative.  An element is stored fraction-free over the integers, as a
numerator N in Z[x1, x2][S] of degree at most 2 in S, a positive integer q and
one power D^m, and means N / (q D^m).  N is one dict over its monomials
x1^a x2^b S^i, keyed by the packed int a << 24 | b << 3 | i (Monagan & Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007): the key of a product is the sum of the keys, so a ring
product is one double loop (``_mul``) that reduces 4 S^3 = -(x1 + 2 x2 S) as
it goes.  A stored key keeps b below 2^19, which leaves b's 21 bits room for
the sums that products form; a numerator past that raises instead of carrying
into a.

Every recursion coefficient has this shape, because the only denominator the
recursion divides by is the unit 6 S^2 + x2, whose inverse is U / D with
U = 8 x2^2 - 18 x1 S + 24 x2 S^2.  Total derivatives use the implicit formulas

    dS/dx1 = -1 / (2 (6 S^2 + x2)) = -U / (2 D),
    dS/dx2 = -S / (6 S^2 + x2)     = -S U / D,

and d(N / D^m) = (N' D - m N D') / D^(m+1).  An element is normalised by
lowering m while D divides N, and by cancelling the common integer factor of
q and N.  D is irreducible and primitive, so by Gauss's lemma a quotient by D
stays integral, and the normalised (N, q, m) is unique: equality and hashing
compare it directly and no polynomial gcd is ever taken.  Whether D divides N
is read off the curve D = 0, which (8 v^3, -6 v^2) parametrises: D divides a
polynomial p exactly when p(8 v^3, -6 v^2) = 0, one integer sum per power of
S and weight 3 a + 2 b; only then is N divided.  A sum of products, as the
recursion and its checks form them, is lifted to one common denominator and
normalised once (``_ring_sum``), and so is each public sum and product.
There is no second type for Q(x1, x2): a coefficient N_i / (q D^m) is an
element free of S, normalised as any other (``CubicFieldElement.c``).  The
numerator triple of tuple-keyed dicts (``CubicFieldElement.n``) and the three
coefficients are built only where they are read.

The Pearcey system is weighted homogeneous: x1, x2 and S have the weights 3,
2 and 1, so x1^a x2^b S^i has the weight 3 a + 2 b + i, and the cubic and D
have the single weights 3 and 6.  ``pearcey_recursion`` holds every S_k to the
single weight -3 - 4k and every T_k to -2 - 4k, once D^m is taken out, and
raises ``VerificationError`` where one falls short.

The numeric side solves the Borel-plane quartic A g^4 + C g^2 + D g + 1 by an
Aberth iteration (``quartic_g_roots``), at points whose weighted scale
max(|x1|^(1/3), |x2|^(1/2), |y|^(1/4)) is at most ``QUARTIC_SCALE_MAX``, and
witnesses each branch with the four annihilators through exact implicit
derivatives.  The weighted homogeneity g -> l^-3 g under (x1, x2, y) ->
(l^3 x1, l^2 x2, l^4 y) is checked by one solve at the point scaled by the
non-dyadic ``HOMOGENEITY_LAMBDA``, or by its inverse where that image would
lie beyond the scale bound; the roots are mapped back and held against the
unscaled quartic (``homogeneity_residual``).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm

from .errors import NumericError, PreconditionError, VerificationError

# ---------------------------------------------------------------------------
# packed polynomials in Z[x1, x2][S]
# ---------------------------------------------------------------------------

# x1^a x2^b S^i is the key a << 24 | b << 3 | i; b has 21 bits and S 3
_X1, _X2 = 1 << 24, 1 << 3
_B_BITS = (1 << 21) - 1
_CARRY = 3 << 22  # set in a key whose b is 2^19 or more
_ONE = {0: 1}
_D = {2 * _X1: 27, 3 * _X2: 8}
_D_PARTIALS = ({_X1: 54}, {2 * _X2: 24})
# M S^i, i = 3 or 4, is -(M x1 S^(i-3) + 2 M x2 S^(i-2)) / 4: the key offsets
_TO_X1, _TO_X2 = _X1 - 3, _X2 - 2


def _exponents(key: int) -> tuple:
    """(a, b) of the key of x1^a x2^b S^i."""
    return key >> 24, key >> 3 & _B_BITS


def _weight(key: int) -> int:
    """3 a + 2 b + i, the weight of x1^a x2^b S^i."""
    a, b = _exponents(key)
    return 3 * a + 2 * b + (key & 7)


def _nonzero(p: dict) -> dict:
    return {k: c for k, c in p.items() if c}


def _mul(out: dict, a: dict, b: dict, c: int = 4) -> dict:
    """out += c a b in place, reduced by 4 S^3 = -(x1 + 2 x2 S) as it goes;
    zeros may remain.  A term that reaches S^3 or S^4 is divided by 4, so c is
    a multiple of 4 unless a or b is free of S."""
    get = out.get
    for ka, ua in a.items():
        cu = c * ua
        for kb, ub in b.items():
            k = ka + kb
            if k & 7 < 3:
                out[k] = get(k, 0) + cu * ub
            else:
                half = cu * ub >> 1
                k1, k2 = k + _TO_X1, k + _TO_X2
                out[k1] = get(k1, 0) - (half >> 1)
                out[k2] = get(k2, 0) - half
    return out


def _diff(p: dict, i: int) -> dict:
    """The partial derivative in x1 (i = 0), in x2 (i = 1) or, formally, in S
    (i = 2)."""
    if i == 0:
        return {k - _X1: (k >> 24) * c for k, c in p.items() if k >= _X1}
    if i == 1:
        return {k - _X2: (k >> 3 & _B_BITS) * c for k, c in p.items() if k >> 3 & _B_BITS}
    return {k - 1: (k & 7) * c for k, c in p.items() if k & 7}


def _components(p: dict) -> tuple:
    """(n0, n1, n2) with p = n0 + n1 S + n2 S^2, each free of S."""
    parts = ({}, {}, {})
    for k, c in p.items():
        parts[k & 7][k & ~7] = c
    return parts


@lru_cache(maxsize=None)
def _d_power(m: int) -> dict:
    return _ONE if m == 0 else _nonzero(_mul({}, _d_power(m - 1), _D, 1))


@lru_cache(maxsize=None)
def _curve_monomial(key: int) -> tuple:
    """(group, 8^a (-6)^b) of x1^a x2^b S^i: at (8 v^3, -6 v^2) the monomial
    is the integer times v^(3 a + 2 b) S^i, and the group packs the weight
    3 a + 2 b + i with i."""
    a, b = _exponents(key)
    return _weight(key) << 3 | key & 7, 8 ** a * (-6) ** b


def _vanishes_on_curve(p: dict) -> bool:
    """Whether p(8 v^3, -6 v^2) = 0 identically in v, that is whether every
    power of S and weight 3 a + 2 b has sum c 8^a (-6)^b = 0 over the terms
    of p.

    (8 v^3, -6 v^2) runs through the zero set of D = 27 x1^2 + 8 x2^3.  D is
    irreducible, so by the Nullstellensatz a polynomial vanishes there exactly
    when D divides it (Cox, Little & O'Shea, Ideals, Varieties, and
    Algorithms, sec. 4.2)."""
    sums = {}
    for k, c in p.items():
        group, v = _curve_monomial(k)
        sums[group] = sums.get(group, 0) + c * v
    return not any(sums.values())


def _row_divide(p: dict):
    """p / D if the division leaves no remainder, else None.  Rows of equal x1
    degree are divided top-down by the leading term 27 x1^2."""
    rows = {}
    for k, c in p.items():
        rows.setdefault(k >> 24, {})[k & _X1 - 1] = c
    quotient = {}
    for a in range(max(rows, default=0), 1, -1):
        below = rows.setdefault(a - 2, {})
        for low, c in rows.get(a, {}).items():
            if c:
                t, r = divmod(c, 27)
                if r:
                    return None
                quotient[(a - 2) << 24 | low] = t
                below[low + 3 * _X2] = below.get(low + 3 * _X2, 0) - 8 * t
    if any(rows.get(0, {}).values()) or any(rows.get(1, {}).values()):
        return None
    return quotient


def _divide_by_d(p: dict):
    """p / D if D divides p, else None.

    Divisibility is read off the curve first (``_vanishes_on_curve``), and the
    row division runs only when it holds.  D is primitive, so by Gauss's lemma
    the quotient of an integer polynomial is an integer polynomial, and a row
    division that leaves a remainder contradicts the curve test: it raises
    ``VerificationError``."""
    if not _vanishes_on_curve(p):
        return None
    if (quotient := _row_divide(p)) is None:
        raise VerificationError(
            "the curve test and the row division disagree on whether "
            "27 x1^2 + 8 x2^3 divides a polynomial")
    return quotient


def _strip_d(p: dict) -> tuple:
    """(r, k) with p = r D^k and, unless p is 0, r not divisible by D."""
    k = 0
    while p and (lower := _divide_by_d(p)) is not None:
        p, k = lower, k + 1
    return p, k


def _normalise(n: dict, q: int, m: int) -> tuple:
    """(n, q, m) with the zero terms of n dropped, m lowered while D divides
    n, and the common integer factor of q and n cancelled; zero has q = 1 and
    m = 0.

    Each step tests n on the curve before it divides, so an n that D does not
    divide costs one pass over its terms.  A key whose b is 2^19 or more
    raises ``PreconditionError``, before a product of it could carry into a.
    A sum of products is normalised once, by ``_ring_sum``, not once per
    term."""
    n = _nonzero(n)
    if not n:
        return n, 1, 0
    if any(map(_CARRY.__and__, n)):
        raise PreconditionError("an x2 degree of 2^19 or more does not fit a packed key")
    while m > 0 and (lower := _divide_by_d(n)) is not None:
        n, m = lower, m - 1
    g = gcd(q, *n.values())
    if g > 1:
        n, q = {k: c // g for k, c in n.items()}, q // g
    return n, q, m


def _split(value) -> tuple:
    """(numerator, q, k) with value = numerator / (q D^k), the numerator packed,
    for an int, a Fraction or an element of the ring free of S, taken as it is
    stored.  An element that carries S, and any other value, raises
    ``PreconditionError``."""
    if isinstance(value, (int, Fraction)):
        value = Fraction(value)
        return ({0: value.numerator} if value else {}), value.denominator, 0
    if isinstance(value, CubicFieldElement):
        return value.numer.p, value.q, value.m
    raise PreconditionError(
        f"coefficient {value!r} is not an int, a Fraction or an element free of S")


def _poly_str(p: dict) -> str:
    """The polynomial as sympy prints it: lex-descending terms, x1 > x2."""
    if not p:
        return "0"
    text = ""
    for key, c in sorted(p.items(), reverse=True):
        e1, e2 = _exponents(key)
        factors = [f"{abs(c)}"] if abs(c) != 1 or not (e1 or e2) else []
        factors += [x if e == 1 else f"{x}**{e}" for x, e in (("x1", e1), ("x2", e2)) if e]
        text += (" - " if c < 0 else " + ") + "*".join(factors)
    return ("-" if text[1] == "-" else "") + text[3:]


class _Terms:
    """An integer polynomial read as sympy's are: ``terms()`` gives
    ((e1, e2), Fraction) pairs in lex-descending order."""

    __slots__ = ("p",)

    def __init__(self, p: dict):
        self.p = p

    def terms(self) -> list:
        return [(_exponents(k), Fraction(c)) for k, c in sorted(self.p.items(), reverse=True)]


def _fraction_str(c: "CubicFieldElement") -> str:
    """An element free of S, N / (q D^m) normalised, as sympy prints its
    rational-function field."""
    numer = _poly_str(c.num)
    if c.m == 0 and c.q == 1:
        return numer
    if len(c.num) > 1:
        numer = f"({numer})"
    denom = _poly_str(c.denom.p)
    return f"{numer}/({denom})" if c.m else f"{numer}/{denom}"


# ---------------------------------------------------------------------------
# the cubic quotient ring
# ---------------------------------------------------------------------------

class CubicFieldElement:
    """An element N / (q D^m) of the WKB coefficient ring.

    ``num`` is the packed numerator N in Z[x1, x2][S], of degree at most 2 in
    S, ``q`` a positive integer and ``m`` the power of D = 27 x1^2 + 8 x2^3,
    normalised as in the module docstring.  ``n`` reads N as the triple
    (n0, n1, n2) of N = n0 + n1 S + n2 S^2, each a dict {(e1, e2): int} of its
    nonzero coefficients, and ``c`` as the three coefficients N_i / (q D^m),
    each an element free of S; both are built on first read.  An element free
    of S is a coefficient of Q(x1, x2): ``numer`` and ``denom`` read its N and
    its expanded q D^m through ``terms()`` as sympy's polynomials are read,
    and ``numer`` raises ``PreconditionError`` on an element that carries S.
    The constructor takes the three coefficients as ints, Fractions or
    elements free of S, and raises ``PreconditionError`` for an element that
    carries S and for any other value (a float, say).  The ring is
    Q[x1, x2][1/D][S]/(cubic), not the field Q(x1, x2)[S]/(cubic): ``inverse``
    raises ``PreconditionError`` for an element that is not a unit of it, such
    as 0 or x1, and so does a division by one.  A division by an int or a
    Fraction multiplies by its reciprocal.
    """

    __slots__ = ("num", "q", "m", "_n", "_c")

    def __init__(self, c0=0, c1=0, c2=0):
        parts = [_split(ci) for ci in (c0, c1, c2)]
        q, m = lcm(*(qi for _, qi, _ in parts)), max(k for _, _, k in parts)
        num = {}
        for i, (p, qi, k) in enumerate(parts):
            _mul(num, {e + i: c for e, c in p.items()}, _d_power(m - k), q // qi)
        self._store(num, q, m)

    @classmethod
    def _new(cls, num: dict, q: int, m: int) -> "CubicFieldElement":
        self = object.__new__(cls)
        self._store(num, q, m)
        return self

    def _store(self, num: dict, q: int, m: int) -> None:
        num, q, m = _normalise(num, q, m)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_n", None)
        object.__setattr__(self, "_c", None)

    def __setattr__(self, *_):
        raise AttributeError("CubicFieldElement is immutable")

    def __reduce__(self):
        return CubicFieldElement._new, (self.num, self.q, self.m)

    @property
    def n(self) -> tuple:
        """The numerator triple (n0, n1, n2), built on first read."""
        if self._n is None:
            object.__setattr__(self, "_n", tuple(
                {_exponents(k): c for k, c in part.items()} for part in _components(self.num)))
        return self._n

    @property
    def c(self) -> tuple:
        """The three coefficients N_i / (q D^m), each normalised as an element
        free of S, built on first read."""
        if self._c is None:
            object.__setattr__(self, "_c", tuple(
                CubicFieldElement._new(part, self.q, self.m) for part in _components(self.num)))
        return self._c

    @property
    def numer(self) -> _Terms:
        """N of an element free of S."""
        if any(k & 7 for k in self.num):
            raise PreconditionError(f"{self!r} carries S, so it is not a coefficient of Q(x1, x2)")
        return _Terms(self.num)

    @property
    def denom(self) -> _Terms:
        """q D^m, expanded."""
        return _Terms(_mul({}, _d_power(self.m), _ONE, self.q))

    # -- constructors --------------------------------------------------

    @classmethod
    def root(cls) -> "CubicFieldElement":
        """The class of S itself."""
        return cls._new({1: 1}, 1, 0)

    @classmethod
    def scalar(cls, value) -> "CubicFieldElement":
        return cls(value, 0, 0)

    @classmethod
    def x1(cls) -> "CubicFieldElement":
        return cls._new({_X1: 1}, 1, 0)

    @classmethod
    def x2(cls) -> "CubicFieldElement":
        return cls._new({_X2: 1}, 1, 0)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        if not isinstance(other, CubicFieldElement):
            return NotImplemented
        return self.m == other.m and self.q == other.q and self.num == other.num

    def __hash__(self):
        return hash((self.m, self.q, frozenset(self.num.items())))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "CubicFieldElement":
        return _ring_sum([(1, self, _RING_ONE), (1, _element(other), _RING_ONE)])

    __radd__ = __add__

    def __neg__(self) -> "CubicFieldElement":
        return CubicFieldElement._new({k: -c for k, c in self.num.items()}, self.q, self.m)

    def __sub__(self, other) -> "CubicFieldElement":
        return _ring_sum([(1, self, _RING_ONE), (-1, _element(other), _RING_ONE)])

    def __rsub__(self, other) -> "CubicFieldElement":
        return _element(other) - self

    def __mul__(self, other) -> "CubicFieldElement":
        return _ring_sum([(1, self, _element(other))])

    __rmul__ = __mul__

    def inverse(self) -> "CubicFieldElement":
        """Solve u * v = 1 for v via the 3x3 multiplication matrix of the
        numerator; u is a unit exactly when that determinant is a nonzero
        constant times a power of D."""
        # 4 M, with M[i][j] = coefficient of S^i in N * S^j
        m = tuple(zip(*(_components(_mul({}, self.num, {j: 1})) for j in range(3))))

        def minor(c):
            a, b = [j for j in range(3) if j != c]
            return _mul(_mul({}, m[1][a], m[2][b], 1), m[1][b], m[2][a], -1)
        # first column of (4 M)^{-1} times det(4 M), and det(4 M) = 64 det M
        v = (minor(0), {k: -c for k, c in minor(1).items()}, minor(2))
        det = {}
        for j in range(3):
            _mul(det, m[0][j], v[j], 1)
        rest, k = _strip_d(_nonzero(det))
        if set(rest) != {0}:
            raise PreconditionError("element is not a unit in the cubic ring")
        # u^-1 = q D^m N^-1 = 4 q D^m v / (r D^k), r = rest
        r = rest[0]
        return CubicFieldElement._new(
            _mul({}, {e + i: c for i, vi in enumerate(v) for e, c in vi.items()},
                 _d_power(max(self.m - k, 0)), 4 * self.q if r > 0 else -4 * self.q),
            abs(r), max(k - self.m, 0))

    def __truediv__(self, other) -> "CubicFieldElement":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise PreconditionError("division by zero in the cubic ring")
            return self * Fraction(1, other)
        return self * _element(other).inverse()

    # -- derivatives -----------------------------------------------------------

    def d1(self) -> "CubicFieldElement":
        """Total derivative in x1, using the implicit derivative of the root."""
        return self._derivative(0)

    def d2(self) -> "CubicFieldElement":
        return self._derivative(1)

    def _derivative(self, i: int) -> "CubicFieldElement":
        """(N' D - m N D') / (q D^(m+1)) plus dN/dS dS/dx_i, with
        dS/dx_i = _CHAIN[i] / D; all over 4 q D^(m+1)."""
        n, m = self.num, self.m
        out = _mul({}, _diff(n, i), _D)
        if m:
            _mul(out, n, _D_PARTIALS[i], -4 * m)
        return CubicFieldElement._new(_mul(out, _diff(n, 2), _CHAIN[i]), 4 * self.q, m + 1)

    def __repr__(self) -> str:
        c0, c1, c2 = map(_fraction_str, self.c)
        return f"({c0}) + ({c1})*S + ({c2})*S^2"


def _element(value) -> CubicFieldElement:
    """value as a ring element: an element itself, else a scalar."""
    return value if isinstance(value, CubicFieldElement) else CubicFieldElement.scalar(value)


def coefficient_field():
    """The coefficient constructor and the generators x1, x2 of Q(x1, x2)."""
    return CubicFieldElement, CubicFieldElement.x1(), CubicFieldElement.x2()


# D (6 S^2 + x2)^-1, and the numerators -U/2 and -S U of dS/dx1 and dS/dx2 over D
_U = {2 * _X2: 8, _X1 + 1: -18, _X2 + 2: 24}
_CHAIN = ({k: -c // 2 for k, c in _U.items()},
          {k: c // 4 for k, c in _nonzero(_mul({}, {1: -1}, _U)).items()})
# 6 S^2 + x2, the derivative of the cubic (up to 2) and the only denominator
# the recursion ever needs, and its inverse U / D
_UNIT = CubicFieldElement._new({_X2: 1, 2: 6}, 1, 0)
_UNIT_INV = CubicFieldElement._new(_U, 1, 1)
_RING_ONE = CubicFieldElement._new(_ONE, 1, 0)


# ---------------------------------------------------------------------------
# the WKB recursion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PearceyRecursion:
    """S_k and T_k, k = -1..order, as elements of the quotient ring."""

    order: int
    s_terms: tuple
    t_terms: tuple

    def s(self, k: int) -> CubicFieldElement:
        if k < -1 or k > self.order:
            raise PreconditionError(f"S_{k} not computed")
        return self.s_terms[k + 1]

    def t(self, k: int) -> CubicFieldElement:
        if k < -1 or k > self.order:
            raise PreconditionError(f"T_{k} not computed")
        return self.t_terms[k + 1]


def _ring_sum(terms) -> CubicFieldElement:
    """The sum of w a b over the (w, a, b) of ``terms``, w an int, reduced once.

    Each raw product 4 a b is over q_a q_b D^(m_a + m_b); a term whose b is
    ``_RING_ONE`` takes 4 a.  Every term is lifted to the common q and m and
    added into one numerator, a term that needs no lift by D straight from
    ``_mul``, and only the sum is normalised, where chained ``+`` and ``*``
    would normalise each product and each partial sum."""
    raw = [(4 * w, a, None, a.q, a.m) if b is _RING_ONE else (w, a, b, a.q * b.q, a.m + b.m)
           for w, a, b in terms]
    q = lcm(*(qi for *_, qi, _ in raw))
    m = max((mi for *_, mi in raw), default=0)
    out = {}
    for w, a, b, qi, mi in raw:
        c = w * (q // qi)
        if b is None:
            _mul(out, a.num, _d_power(m - mi), c)
        elif mi == m:
            _mul(out, a.num, b.num, 4 * c)
        else:
            _mul(out, _mul({}, a.num, b.num), _d_power(m - mi), c)
    return CubicFieldElement._new(out, 4 * q, m)


def _pair_terms(s: list, n: int, low: int) -> list:
    """The terms (w, S_a, S_b) of the sum of S_a S_b over a + b = n with
    a, b >= low, each unordered pair once; s[k + 1] = S_k."""
    terms = [(2, s[a + 1], s[n - a + 1]) for a in range(low, (n + 1) // 2)]
    if n % 2 == 0 and n // 2 >= low:
        terms.append((1, s[n // 2 + 1], s[n // 2 + 1]))
    return terms


def _check_weights(name: str, elements, base: int) -> None:
    """Raise ``VerificationError`` unless the element of index k (from k = -1)
    has the single weight base - 4k once D^m is taken out: every monomial
    x1^a x2^b S^i of its numerator has 3 a + 2 b + i = base - 4k + 6m."""
    for k, element in enumerate(elements, -1):
        want = base - 4 * k + 6 * element.m
        if any(_weight(key) != want for key in element.num):
            raise VerificationError(
                f"{name}_{k} is not weighted homogeneous of weight {base - 4 * k}")


# d1 and d2 of the unit, which the k = 0 primitive reads; S_-1 = S and
# S_0 = -(1/2) d1(6 S^2 + x2) (6 S^2 + x2)^-1, their d1 and the pair sums
# P_-2 and P_-1: none depends on the order of the recursion
_UNIT_D = (_UNIT.d1(), _UNIT.d2())
_S_LOW = (CubicFieldElement.root(),
          CubicFieldElement.scalar(Fraction(-1, 2)) * _UNIT_D[0] * _UNIT_INV)
_D1_S_LOW = tuple(s.d1() for s in _S_LOW)
_PAIRS_LOW = {n: _ring_sum(_pair_terms(_S_LOW, n, -1)) for n in (-2, -1)}


def pearcey_recursion(order: int) -> PearceyRecursion:
    """Run the recursion for the coefficient streams.

    S_-1 = S (the cubic root), S_0 = -(1/2) d1 log(6 S^2 + x2), and each later
    S_k divides the lower-order cubic/derivative data by (6 S_-1^2 + x2); the
    T_k follow from T_k = d1 S_(k-1) + sum_j S_j S_(k-j-1).  Both the cubic
    term of S_k and the quadratic term of T_k read the pair sums
    P_n = sum_(a+b=n) S_a S_b, each formed once: P_(k-1) is completed from its
    sum without S_-1 S_k.  S_-1, S_0, their d1 and P_-2, P_-1 are formed once,
    at import.  Every sum of products is one ``_ring_sum``, normalised once.
    Every S_k and T_k is held to its weight, -3 - 4k and -2 - 4k
    (``VerificationError`` otherwise).
    """
    if isinstance(order, bool) or not isinstance(order, int):
        raise PreconditionError(f"order must be an int, got {order!r}")
    if order < 0:
        raise PreconditionError("order must be >= 0")
    s_list = list(_S_LOW)
    d1_cache = dict(enumerate(_D1_S_LOW, -1))
    pairs = dict(_PAIRS_LOW)
    for k in range(1, order + 1):
        # P_(k-1) lacks its two terms S_-1 S_k until S_k is known
        partial = pairs[k - 1] = _ring_sum(_pair_terms(s_list, k - 1, 0))
        body = _ring_sum(
            [(1, s_list[k1 + 1], pairs[k - 2 - k1]) for k1 in range(-1, k)]
            + [(3, s_list[k1 + 1], d1_cache[k - 2 - k1]) for k1 in range(-1, k)]
            + [(1, d1_cache[k - 2].d1(), _RING_ONE)])
        s_k = _ring_sum([(-2, _UNIT_INV, body)])
        s_list.append(s_k)
        d1_cache[k] = s_k.d1()
        pairs[k - 1] = _ring_sum([(1, partial, _RING_ONE), (2, s_list[0], s_k)])
    t_list = [pairs[-2]]  # T_-1 = S^2
    t_list += [d1_cache[k - 1] + pairs[k - 1] for k in range(0, order + 1)]
    _check_weights("S", s_list, -3)
    _check_weights("T", t_list, -2)
    return PearceyRecursion(order, tuple(s_list), tuple(t_list))


@dataclass(frozen=True)
class SymbolicCheckReport:
    name: str
    order: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def check_closedness(rec: PearceyRecursion) -> SymbolicCheckReport:
    """d2 S_k - d1 T_k = 0 exactly in the quotient ring for every k."""
    failures = []
    for k in range(-1, rec.order + 1):
        if not _ring_sum([(1, rec.s(k).d2(), _RING_ONE),
                          (-1, rec.t(k).d1(), _RING_ONE)]).is_zero():
            failures.append(k)
    return SymbolicCheckReport("closedness", rec.order, tuple(failures))


def check_primitives(rec: PearceyRecursion) -> SymbolicCheckReport:
    """The homogeneity-constrained primitives reproduce the streams.

    For k != 0 the primitive is -(1/(4k)) (3 x1 S_k + 2 x2 T_k); its partials
    must equal S_k and T_k.  With P = 3 x1 S_k + 2 x2 T_k this is checked as
    d1 P + 4k S_k = 0 and d2 P + 4k T_k = 0, the identities times -4k, so no
    rational scalar enters.  For k = 0 the primitive is -(1/2) log(6 S^2 + x2)
    and the same identities are checked, times -2, through the logarithmic
    derivative.
    """
    failures = []
    x1 = CubicFieldElement.x1()
    x2 = CubicFieldElement.x2()
    for k in range(-1, rec.order + 1):
        # d_x P times factor, plus w S_k (x = x1) or w T_k (x = x2), is 0; at
        # k = 0, P is log(6 S^2 + x2) and d_x P is d_x(6 S^2 + x2) (6 S^2 + x2)^-1
        if k == 0:
            partials, factor, w = _UNIT_D, _UNIT_INV, 2
        else:
            prim = _ring_sum([(3, x1, rec.s(k)), (2, x2, rec.t(k))])
            partials, factor, w = (prim.d1(), prim.d2()), _RING_ONE, 4 * k
        if not all(_ring_sum([(1, d, factor), (w, stream, _RING_ONE)]).is_zero()
                   for d, stream in zip(partials, (rec.s(k), rec.t(k)))):
            failures.append(k)
    return SymbolicCheckReport("primitives", rec.order, tuple(failures))


def denominator_is_unit_power(rec: PearceyRecursion) -> bool:
    """Every S_k coefficient denominator divides a power of the resultant
    27 x1^2 + 8 x2^3 of the cubic with its derivative (times a constant).

    This holds by construction: an element is stored as a numerator over D^m,
    so the check only reads the stored power.  The independent witness is the
    test-suite oracle, which rebuilds the recursion in Q(x1, x2) and strips D
    from each reduced denominator."""
    return all(rec.s(k).m >= 0 for k in range(1, rec.order + 1))



# ---------------------------------------------------------------------------
# the Borel-plane quartic
# ---------------------------------------------------------------------------

# the scaled residual |F(z)| / max_k |a_k z^k| every returned root must reach
QUARTIC_TOL = 1e-12
# |F| within the rounding of its evaluation: complex Horner and the last ulp of
# the root give at most 1.9e-15 sum_k |a_k z^k|, and that sum is at most four
# times the largest term
QUARTIC_ROUNDING = 8e-15
QUARTIC_SWEEPS = 100  # Aberth sweeps at most
# the largest weighted scale max(|x1|^(1/3), |x2|^(1/2), |y|^(1/4)) of a point:
# A has weight 12, so |A| stays near 1e240 up to it, and near 5e245 at three
# times it
QUARTIC_SCALE_MAX = 1e20
_X1_MAX, _X2_MAX, _Y_MAX = (QUARTIC_SCALE_MAX ** w for w in (3, 2, 4))
# lambda of the homogeneity check (x1, x2, y) -> (l^3 x1, l^2 x2, l^4 y); a power
# of two would scale every coefficient exactly, and the Aberth iteration would
# mostly return the base roots' bits scaled, so the check would compare the
# solver with itself
HOMOGENEITY_LAMBDA = 3.0

@dataclass(frozen=True)
class PearceyBranch:
    x1: complex
    x2: complex
    y: complex
    value: complex
    label: int


def _is_finite(value) -> bool:
    return abs(value.real) < inf and abs(value.imag) < inf


def _within_scale(x1, x2, y) -> bool:
    """Whether the point's weighted scale is at most ``QUARTIC_SCALE_MAX``."""
    return abs(x1) <= _X1_MAX and abs(x2) <= _X2_MAX and abs(y) <= _Y_MAX


def _check_point(x1, x2, y) -> None:
    """Raise ``PreconditionError``, naming the coordinate, unless the point is
    finite and its weighted scale is at most ``QUARTIC_SCALE_MAX``."""
    try:
        if _within_scale(x1, x2, y):
            return
    except OverflowError:  # a finite complex whose modulus overflows
        pass
    for name, value, limit in (("x1", x1, _X1_MAX), ("x2", x2, _X2_MAX), ("y", y, _Y_MAX)):
        if not _is_finite(value):
            raise PreconditionError(f"{name} = {value!r} is not finite")
        if not (abs(value.real) <= limit and abs(value.imag) <= limit
                and abs(value) <= limit):
            raise PreconditionError(
                f"{name} = {value!r} puts the point beyond the weighted scale "
                f"{QUARTIC_SCALE_MAX:g}")


def quartic_coefficients(x1: complex, x2: complex, y: complex):
    """(A, B, C, D, E) of A g^4 + B g^3 + C g^2 + D g + E annihilating g.

    A point that is not finite, or whose weighted scale is above
    ``QUARTIC_SCALE_MAX``, raises ``PreconditionError`` before any power is
    formed."""
    _check_point(x1, x2, y)
    a = 4 * x1 ** 2 * x2 * (36 * y - x2 ** 2) + 16 * y * (x2 ** 2 - 4 * y) ** 2 \
        - 27 * x1 ** 4
    return (a, 0j, 2 * (-8 * x2 * y + 2 * x2 ** 3 + 9 * x1 ** 2), -8 * x1, 1 + 0j)


def quartic_g_roots(x1: complex, x2: complex, y: complex) -> list[PearceyBranch]:
    """All four branch values at a point off the singular locus.

    The roots come from one Aberth-Ehrlich iteration (Aberth, Math. Comp. 27,
    1973), started on a circle of the Fujiwara radius
    2 max(|C/A|^(1/2), |D/A|^(1/3), |E/(2A)|^(1/4)), which bounds every root
    (B = 0).  A sweep moves each root in turn by F / (F' - F sum_j 1/(z - z_j)),
    the sum taken over the other three roots in index order; the four roots
    are held in locals, so a sweep builds no list.  The iteration ends after
    the first sweep in which every residual |F| lay within the rounding of its
    evaluation, and keeps that sweep's steps.  A root whose scaled residual is
    still above ``QUARTIC_TOL``, or is NaN, raises ``NumericError``; labels
    order the roots by (real, imaginary) part, each part rounded to 12 digits
    relative to the largest root's modulus.  A point that is not finite,
    or whose weighted scale is above ``QUARTIC_SCALE_MAX``, raises
    ``PreconditionError`` (``quartic_coefficients``), and so does a point near
    the singular locus: |A| at most 1e-10 times max(|x1|^4, |x2|^6, |y|^3),
    the twelfth power of its weighted scale, as A has weight 12, so the test
    refuses a point at every scale or at none.
    """
    a, b, c, d, e = quartic_coefficients(x1, x2, y)
    if abs(a) <= 1e-10 * max(abs(x1) ** 4, abs(x2) ** 6, abs(y) ** 3):
        raise PreconditionError(
            f"point lies near the singular locus (leading coefficient {a:.3e})")

    def scale(z):
        return max(abs(a * z ** 4), abs(c * z ** 2), abs(d * z), 1.0)

    radius = 2 * max(abs(c / a) ** 0.5, abs(d / a) ** (1 / 3), abs(e / (2 * a)) ** 0.25)
    # turned by 0.4 rad, off the axes that real or even quartics are symmetric about
    z0, z1, z2, z3 = (radius * cmath.exp(0.4j) * 1j ** k for k in range(4))
    a4, b3, c2 = 4 * a, 3 * b, 2 * c
    try:
        for _ in range(QUARTIC_SWEEPS):
            # each other-root sum starts from the int 0, as sum() does: 0 + (-0.0)
            # is 0.0, so without it a zero part could change sign
            f = (((a * z0 + b) * z0 + c) * z0 + d) * z0 + e
            fp = ((a4 * z0 + b3) * z0 + c2) * z0 + d
            step = f / (fp - f * (0 + 1 / (z0 - z1) + 1 / (z0 - z2) + 1 / (z0 - z3)))
            settled = abs(f) <= QUARTIC_ROUNDING * scale(z0)
            z0 -= step
            f = (((a * z1 + b) * z1 + c) * z1 + d) * z1 + e
            fp = ((a4 * z1 + b3) * z1 + c2) * z1 + d
            step = f / (fp - f * (0 + 1 / (z1 - z0) + 1 / (z1 - z2) + 1 / (z1 - z3)))
            settled = settled and abs(f) <= QUARTIC_ROUNDING * scale(z1)
            z1 -= step
            f = (((a * z2 + b) * z2 + c) * z2 + d) * z2 + e
            fp = ((a4 * z2 + b3) * z2 + c2) * z2 + d
            step = f / (fp - f * (0 + 1 / (z2 - z0) + 1 / (z2 - z1) + 1 / (z2 - z3)))
            settled = settled and abs(f) <= QUARTIC_ROUNDING * scale(z2)
            z2 -= step
            f = (((a * z3 + b) * z3 + c) * z3 + d) * z3 + e
            fp = ((a4 * z3 + b3) * z3 + c2) * z3 + d
            step = f / (fp - f * (0 + 1 / (z3 - z0) + 1 / (z3 - z1) + 1 / (z3 - z2)))
            settled = settled and abs(f) <= QUARTIC_ROUNDING * scale(z3)
            z3 -= step
            if settled:
                break
    except ZeroDivisionError:
        raise NumericError("two quartic roots met in the Aberth iteration") from None
    roots = [z0, z1, z2, z3]
    for z in roots:
        if not abs(((a * z + b) * z + c) * z ** 2 + d * z + e) <= QUARTIC_TOL * scale(z):
            raise NumericError(f"quartic root did not refine below {QUARTIC_TOL}")
    # parts rounded relative to the largest root, so that roots of any size
    # are ordered; rounded absolutely, roots below 5e-13 would all tie at 0
    big = max(abs(z0), abs(z1), abs(z2), abs(z3))
    roots.sort(key=lambda z: (round(z.real / big, 12), round(z.imag / big, 12)))
    return [PearceyBranch(x1, x2, y, z, i + 1) for i, z in enumerate(roots)]


def _quartic_partials(x1, x2, y, g):
    """Value-level partial derivatives of F(g; x1, x2, y) for the implicit
    differentiation of the branch.  A point or a value ``g`` that is not
    finite raises ``PreconditionError``."""
    a, _, c, _, _ = quartic_coefficients(x1, x2, y)
    if not _is_finite(g):
        raise PreconditionError(f"value = {g!r} is not finite")
    # first partials of the coefficients
    a_x1 = 8 * x1 * x2 * (36 * y - x2 ** 2) - 108 * x1 ** 3
    a_x2 = 4 * x1 ** 2 * (36 * y - x2 ** 2) - 8 * x1 ** 2 * x2 ** 2 \
        + 64 * y * x2 * (x2 ** 2 - 4 * y)
    a_y = 144 * x1 ** 2 * x2 + 16 * (x2 ** 2 - 4 * y) ** 2 \
        - 128 * y * (x2 ** 2 - 4 * y)
    c_x1 = 36 * x1
    c_x2 = 2 * (-8 * y + 6 * x2 ** 2)
    c_y = -16 * x2
    # second partials of the coefficients
    a_x1x1 = 8 * x2 * (36 * y - x2 ** 2) - 324 * x1 ** 2
    a_x1x2 = 8 * x1 * (36 * y - x2 ** 2) - 16 * x1 * x2 ** 2
    a_x1y = 288 * x1 * x2
    a_x2x2 = -24 * x1 ** 2 * x2 + 64 * y * (3 * x2 ** 2 - 4 * y)
    a_x2y = 144 * x1 ** 2 + 64 * x2 * (x2 ** 2 - 4 * y) - 256 * y * x2
    a_yy = -256 * (x2 ** 2 - 4 * y) + 512 * y
    c_x1x1 = 36
    c_x2x2 = 24 * x2
    c_x2y = -16
    try:
        g2, g3, g4 = g * g, g ** 3, g ** 4
    except OverflowError:
        raise PreconditionError(f"value = {g!r} is too large: its powers overflow") from None
    f_g = 4 * a * g3 + 2 * c * g - 8 * x1
    partials = {
        "x1": a_x1 * g4 + c_x1 * g2 - 8 * g,
        "x2": a_x2 * g4 + c_x2 * g2,
        "y": a_y * g4 + c_y * g2,
    }
    second = {
        ("x1", "x1"): a_x1x1 * g4 + c_x1x1 * g2,
        ("x1", "x2"): a_x1x2 * g4,
        ("x1", "y"): a_x1y * g4,
        ("x2", "x2"): a_x2x2 * g4 + c_x2x2 * g2,
        ("x2", "y"): a_x2y * g4 + c_x2y * g2,
        ("y", "y"): a_yy * g4,
    }
    cross_g = {
        "x1": 4 * a_x1 * g3 + 2 * c_x1 * g - 8,
        "x2": 4 * a_x2 * g3 + 2 * c_x2 * g,
        "y": 4 * a_y * g3 + 2 * c_y * g,
    }
    f_gg = 12 * a * g2 + 2 * c
    return f_g, partials, second, cross_g, f_gg


def branch_partials(branch: PearceyBranch) -> dict:
    """First and second partial derivatives of the branch in (x1, x2, y).

    A branch whose ``x1``, ``x2``, ``y`` or ``value`` is not finite raises
    ``PreconditionError`` naming the field, as does a point beyond
    ``QUARTIC_SCALE_MAX`` and a ``value`` so large that its powers or the
    partials overflow."""
    x1, x2, y, g = branch.x1, branch.x2, branch.y, branch.value
    f_g, fv, fvw, fvg, f_gg = _quartic_partials(x1, x2, y, g)
    if abs(f_g) < 1e-10:
        raise NumericError("branch derivative degenerates (double root nearby)")
    first = {v: -fv[v] / f_g for v in ("x1", "x2", "y")}
    second = {}
    for (v, w), fvw_val in fvw.items():
        gv, gw = first[v], first[w]
        second[(v, w)] = -(fvw_val + fvg[v] * gw + fvg[w] * gv
                           + f_gg * gv * gw) / f_g
    if not all(map(_is_finite, (*first.values(), *second.values()))):
        raise PreconditionError(f"value = {g!r} is too large: the partials overflow")
    return {"first": first, "second": second}


def annihilation_residuals(branch: PearceyBranch) -> tuple[float, float, float, float]:
    """Scaled residuals of the four Borel-plane operators applied to the branch.

    The operators are evaluated through exact implicit derivatives; each
    residual is normalized by the sum of its term magnitudes.  A branch that
    ``branch_partials`` refuses raises the same ``PreconditionError``.
    """
    x1, x2, y, g = branch.x1, branch.x2, branch.y, branch.value
    d = branch_partials(branch)
    g1, g2_, gy = d["first"]["x1"], d["first"]["x2"], d["first"]["y"]
    g11 = d["second"][("x1", "x1")]
    g12 = d["second"][("x1", "x2")]
    g1y = d["second"][("x1", "y")]
    g22 = d["second"][("x2", "x2")]
    g2y = d["second"][("x2", "y")]
    gyy = d["second"][("y", "y")]

    def scaled(terms):
        total = sum(terms)
        scale = sum(abs(t) for t in terms) + 1e-300
        return abs(total) / scale

    r1 = scaled([4 * g12, 2 * x2 * g1y, x1 * gyy])
    r2 = scaled([4 * g22, x1 * g1y, 2 * x2 * g2y, gy])
    r3 = scaled([g2y, -g11])
    r4 = scaled([3 * x1 * g1, 2 * x2 * g2_, 4 * y * gy, 3 * g])
    return (r1, r2, r3, r4)


def homogeneity_residual(x1: complex, x2: complex, y: complex) -> float:
    """How far the branches at the scaled point, mapped back, lie from roots
    of the quartic at (x1, x2, y).

    The scaling (x1, x2, y) -> (l^3 x1, l^2 x2, l^4 y) takes every branch
    value g to l^-3 g.  l is ``HOMOGENEITY_LAMBDA``, or its inverse, which is
    not dyadic either, at a point that l would take beyond
    ``QUARTIC_SCALE_MAX``: one whose weighted scale lies above
    ``QUARTIC_SCALE_MAX / HOMOGENEITY_LAMBDA``.  The quartic is solved once, at
    the scaled point; each root g' is mapped back to z = l^3 g' and held
    against the base quartic F by its relative Newton correction
    |F(z) / (z F'(z))|, to first order its relative distance from the nearest
    base root.  The worst of the four is returned.  A point beyond
    ``QUARTIC_SCALE_MAX`` raises ``PreconditionError``.
    """
    a, b, c, d, e = quartic_coefficients(x1, x2, y)
    lam = HOMOGENEITY_LAMBDA
    if not _within_scale(lam ** 3 * x1, lam ** 2 * x2, lam ** 4 * y):
        lam = 1 / HOMOGENEITY_LAMBDA
    lam3 = lam ** 3
    worst = 0.0
    for branch in quartic_g_roots(lam3 * x1, lam ** 2 * x2, lam ** 4 * y):
        z = lam3 * branch.value
        f = (((a * z + b) * z + c) * z + d) * z + e
        fp = ((4 * a * z + 3 * b) * z + 2 * c) * z + d
        worst = max(worst, abs(f / (z * fp)))
    return worst
