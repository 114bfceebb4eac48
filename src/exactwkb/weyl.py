"""Exact normal-ordered arithmetic in the Weyl algebra of (x1, x2, eta).

Monomials are kept in normal order x1^a x2^b eta^c d1^d d2^e deta^f with
rational coefficients; products are reduced with the commutation rules
[d_i, x_i] = 1, [d_eta, eta] = 1 (all other pairs commute).  The eta exponent
may be negative (localization at eta); the falling-factorial reduction rule is
valid there as well, but every shipped identity is verified in eta-cleared
polynomial form.

A coefficient is an ``int`` unless a caller gives a rational that is not an
integer: every reduction weight is an integer, so the Pearcey operators and
their identities are checked on integers alone.  A ``Fraction`` that is an
integer is stored as that int, which prints, compares and hashes the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import PreconditionError

# exponent order: (x1, x2, eta, d1, d2, d_eta)
Monomial = tuple[int, int, int, int, int, int]

_NAMES = ("x1", "x2", "eta", "d1", "d2", "deta")


def _falling(c: int, j: int) -> int:
    out = 1
    for i in range(j):
        out *= c - i
    return out


def _monomial(mono) -> Monomial:
    if not (isinstance(mono, tuple) and len(mono) == 6
            and all(isinstance(e, int) and not isinstance(e, bool) for e in mono)):
        raise PreconditionError(f"monomial must be a tuple of six ints, got {mono!r}")
    if any(e < 0 for i, e in enumerate(mono) if i != 2):
        raise PreconditionError("only eta may carry negative exponents")
    return mono


def _is_scalar(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


class WeylElement:
    """A finite rational combination of normal-ordered monomials.

    Coefficients are ints or Fractions and monomials tuples of six ints, of
    which only the eta exponent may be negative; anything else raises
    ``PreconditionError``.  ``+``, ``-`` and ``*`` take WeylElements, ints
    and Fractions, and return ``NotImplemented`` for any other operand.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int | Fraction] | None = None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            if not _is_scalar(coeff):
                raise PreconditionError(
                    f"coefficient must be an int or a Fraction, got {coeff!r}")
            mono = _monomial(mono)
            clean[mono] = clean.get(mono, 0) + coeff
        self.terms = _normal(clean)

    @classmethod
    def _new(cls, terms: dict) -> "WeylElement":
        """An element from checked monomials and int or Fraction sums."""
        self = object.__new__(cls)
        self.terms = _normal(terms)
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def monomial(cls, x1=0, x2=0, eta=0, d1=0, d2=0, deta=0, coeff=1) -> "WeylElement":
        return cls({(x1, x2, eta, d1, d2, deta): coeff})

    @classmethod
    def scalar(cls, coeff) -> "WeylElement":
        return cls.monomial(coeff=coeff)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    # -- linear structure ------------------------------------------------------

    def __add__(self, other) -> "WeylElement":
        if _is_scalar(other):
            other = WeylElement.scalar(other)
        elif not isinstance(other, WeylElement):
            return NotImplemented
        merged = dict(self.terms)
        for m, c in other.terms.items():
            merged[m] = merged.get(m, 0) + c
        return WeylElement._new(merged)

    __radd__ = __add__

    def __neg__(self) -> "WeylElement":
        return WeylElement._new({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "WeylElement":
        if _is_scalar(other):
            other = WeylElement.scalar(other)
        elif not isinstance(other, WeylElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "WeylElement":
        if not _is_scalar(other):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other) -> "WeylElement":
        if _is_scalar(other):
            return WeylElement._new({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, WeylElement):
            return NotImplemented
        out: dict[Monomial, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c12 = c1 * c2
                for mono, weight in _monomial_product(m1, m2):
                    out[mono] = out.get(mono, 0) + c12 * weight
        return WeylElement._new(out)

    def __rmul__(self, other) -> "WeylElement":
        if _is_scalar(other):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "WeylElement":
        if not isinstance(n, int) or n < 0:
            raise PreconditionError("operator power expects a nonnegative integer")
        out = WeylElement.scalar(1)
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms.items():
            factors = [f"{n}^{e}" if e != 1 else n
                       for n, e in zip(_NAMES, mono) if e != 0]
            body = "*".join(factors) if factors else "1"
            parts.append(f"{coeff}*{body}" if coeff != 1 or not factors else body)
        return " + ".join(parts)


def _normal(terms: dict) -> dict:
    """The nonzero terms in monomial order, a Fraction that is an integer as
    that int."""
    return {m: c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c
            for m, c in sorted(terms.items()) if c}


def _monomial_product(m1: Monomial, m2: Monomial):
    """Normal-ordered expansion of (normal monomial) * (normal monomial).

    Each conjugate pair contributes d^d x^a = sum_j C(d,j) (a)_j x^(a-j) d^(d-j);
    the three pairs act independently, all other generator pairs commute.  The
    weights are ints.
    """
    a1, b1, c1, d1, e1, f1 = m1
    a2, b2, c2, d2, e2, f2 = m2
    for j1 in range(0, min(d1, a2) + 1):
        w1 = comb(d1, j1) * _falling(a2, j1)
        for j2 in range(0, min(e1, b2) + 1):
            w2 = comb(e1, j2) * _falling(b2, j2)
            for j3 in range(0, f1 + 1):
                w3 = comb(f1, j3) * _falling(c2, j3)
                if w3 == 0:
                    continue
                mono = (a1 + a2 - j1, b1 + b2 - j2, c1 + c2 - j3,
                        d1 + d2 - j1, e1 + e2 - j2, f1 + f2 - j3)
                yield mono, w1 * w2 * w3


# short generator aliases
X1 = WeylElement.monomial(x1=1)
X2 = WeylElement.monomial(x2=1)
ETA = WeylElement.monomial(eta=1)
D1 = WeylElement.monomial(d1=1)
D2 = WeylElement.monomial(d2=1)
DETA = WeylElement.monomial(deta=1)

# the annihilating operators of the Pearcey integral, and the auxiliary pair
# that compares the two presentations of the system
P1 = 4 * (D1 * D2) + 2 * (ETA * X2 * D1) + ETA * ETA * X1
P2 = 4 * (D2 * D2) + ETA * X1 * D1 + 2 * (ETA * X2 * D2) + ETA
P3 = ETA * D2 - D1 * D1
P4 = 3 * (X1 * D1) + 2 * (X2 * D2) - 4 * (ETA * DETA) - WeylElement.scalar(1)
Q1 = 4 * (D1 * D1 * D1) + 2 * (X2 * ETA * ETA * D1) + X1 * ETA * ETA * ETA
Q2 = ETA * D2 - D1 * D1


def pearcey_operators() -> dict[str, WeylElement]:
    """A fresh dict of the module's operators P1..P4, Q1 and Q2 by name; the
    elements are the module's own, built once."""
    return {"P1": P1, "P2": P2, "P3": P3, "P4": P4, "Q1": Q1, "Q2": Q2}


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    eta_clearing_power: int
    residual: WeylElement

    @property
    def passed(self) -> bool:
        return self.residual.is_zero()


@dataclass(frozen=True)
class WeylReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_operator_identities() -> WeylReport:
    """Exact normal-form verification of the operator relations.

    The two relations involving eta^-1, eta^-2 factors are verified after
    clearing by the recorded eta power, which keeps everything polynomial:

        eta   * P1 = Q1 + 4 d1 Q2
        eta^2 * P2 = d1 Q1 + (4 Q2 + 8 d1^2 + 2 eta^2 x2) Q2
        Q1 = eta P1 - 4 d1 P3
        eta   * P2 = d1 P1 + 2 (2 d2 + eta x2) P3
    """
    checks = (
        IdentityCheck("eta*P1 - (Q1 + 4*d1*Q2)", 1,
                      ETA * P1 - (Q1 + 4 * (D1 * Q2))),
        IdentityCheck("eta^2*P2 - (d1*Q1 + (4*Q2 + 8*d1^2 + 2*eta^2*x2)*Q2)", 2,
                      ETA * ETA * P2
                      - (D1 * Q1 + (4 * Q2 + 8 * (D1 * D1)
                                    + 2 * (ETA * ETA * X2)) * Q2)),
        IdentityCheck("Q1 - (eta*P1 - 4*d1*P3)", 0,
                      Q1 - (ETA * P1 - 4 * (D1 * P3))),
        IdentityCheck("eta*P2 - (d1*P1 + 2*(2*d2 + eta*x2)*P3)", 1,
                      ETA * P2 - (D1 * P1 + 2 * ((2 * D2 + ETA * X2) * P3))),
    )
    return WeylReport(checks)
