"""Borel transforms of the normalized Airy WKB solutions, as exact series.

In the normalized Borel variable s the two transforms are series in s^(1/2)
(singular point s = 0, "+" solution) and (1-s)^(1/2) (singular point s = 1,
"-" solution).  Factoring out the common prefactor sqrt(3)/(2 sqrt(pi) x)
leaves plain rational coefficients; the prefactor and the i carried by the
"-" transform are kept as tags and never multiplied into the series.

Branch orientation (the single source of i-orientation truth for the whole
package): for s real > 1 the local root is (s-1)^(1/2) = e^(-i pi/2) (1-s)^(1/2),
equivalently (1-s)^(1/2) = +i (s-1)^(1/2).  With this choice the "-" transform
carries a +i prefactor relative to its (1-s)^(-1/2) expansion.  Numerically the
resummation module realizes the same choice by anchoring the local variable as
w = i * principal_sqrt(s - 1) along the summation rays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .airy_wkb import WkbCoefficientStream, wkb_coefficient_stream
from .errors import PreconditionError
from .series import PuiseuxSeries

S_VAR = "s"   # expansion variable at the base point s = 0
U_VAR = "u"   # u = 1 - s, expansion variable at the base point s = 1


@dataclass(frozen=True)
class BorelSeries:
    """Exact local expansion of a Borel-transformed WKB solution.

    ``series`` has leading exponent exactly -1/2 and rational coefficients;
    the magnitude prefactor sqrt(3)/(2 sqrt(pi) x) and the optional i are
    symbolic tags.
    """

    sign: str
    base_point: int
    series: PuiseuxSeries
    prefactor_i: bool

    def coefficients(self, count: int) -> list[Fraction]:
        """The rational tail coefficients d_0..d_{count-1} (d_0 = 1).

        A coefficient at or past the series truncation is unknown, not zero,
        and asking for it raises.
        """
        trunc = self.series.truncation
        if trunc is not None and count > 0 and Fraction(2 * count - 3, 2) >= trunc:
            raise PreconditionError(
                f"d_{count - 1} lies at {self.series.variable}^({2 * count - 3}/2), "
                f"past the series truncation O({self.series.variable}^{trunc})")
        out = []
        for n in range(count):
            c = self.series.coeff(Fraction(2 * n - 1, 2))
            if not c.is_rational():
                raise PreconditionError("Borel coefficients must be rational")
            out.append(c.a)
        return out


def borel_transform(stream: WkbCoefficientStream) -> BorelSeries:
    """Map the normalized coefficient stream to its Borel-plane expansion.

    Termwise, eta^(-n-1/2) exp(-alpha eta) becomes (y-alpha)^(n-1/2)/Gamma(n+1/2);
    in the normalized variable the n-th tail coefficient is
    d_n = c_n (4/3)^n / (1/2)_n, a pure rational because the Gamma ratio
    reduces to a Pochhammer factor.  With (1/2)_n = (2n-1)!! / 2^n the scale is
    the integer ratio 8^n / (3^n (2n-1)!!), times (-1)^n for the "-" stream
    written in u = 1-s.  Its numerator and denominator are running integer
    products, and each d_n is reduced once.
    """
    order = len(stream.coeffs) - 1
    minus = stream.sign == "-"
    up, down = 1, 1  # (+-8)^n and 3^n (2n-1)!!
    terms = []
    for n, c_n in enumerate(stream.coeffs):
        if n > 0:
            up *= -8 if minus else 8
            down *= 3 * (2 * n - 1)
        terms.append((2 * n - 1, c_n.numerator * up, c_n.denominator * down))
    series = PuiseuxSeries.from_grid(U_VAR if minus else S_VAR, terms,
                                     Fraction(2 * order + 1, 2))
    return BorelSeries(stream.sign, 1 if minus else 0, series, prefactor_i=minus)


def borel_series(order: int, sign: str = "+") -> BorelSeries:
    """Convenience wrapper: recurrence -> stream -> Borel expansion."""
    return borel_transform(wkb_coefficient_stream(order, sign))


def hypergeometric_oracle(sign: str, n_terms: int) -> list[Fraction]:
    """Gauss series coefficients (1/6)_n (5/6)_n / ((1/2)_n n!) as a test oracle.

    This is the hypergeometric route the main code path deliberately avoids;
    both signs produce the same rational list because the sign flip is
    absorbed by the change of expansion variable.
    """
    if n_terms < 1:
        raise PreconditionError("n_terms must be >= 1")
    if sign not in ("+", "-"):
        raise PreconditionError(f"sign must be '+' or '-', got {sign!r}")
    out = [Fraction(1)]
    for n in range(1, n_terms):
        step = ((Fraction(1, 6) + n - 1) * (Fraction(5, 6) + n - 1)
                / ((Fraction(1, 2) + n - 1) * n))
        out.append(out[-1] * step)
    return out


def exchange_symmetry_holds(order: int) -> bool:
    """The two expansions are exchanged by s -> 1-s together with the sign flip.

    Concretely: the "+" series written in s and the "-" series written in
    u = 1-s must have identical rational coefficients (the i tag carries the
    orientation).
    """
    plus = borel_series(order, "+")
    minus = borel_series(order, "-")
    return plus.coefficients(order + 1) == minus.coefficients(order + 1)
