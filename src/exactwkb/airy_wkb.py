"""Exact WKB data for the Airy equation with a large parameter.

The Riccati recurrence below produces the coefficient stream S_j; each S_j is
forced by weighted homogeneity to be a single monomial c_j * x^(-(3j+2)/2).
So S = sum_j eta^-j S_j is x^-1 f(w) with f = sum_j c_j w^j, in the one
variable w = eta^-1 x^-3/2, and every identity below is an identity of
w-series: since dw/dx = -(3/2) w / x, x^2 d/dx (x^-1 f) = -f - (3/2) w f'.
A primitive in x carries no x^-1: x^-1 w^j has the primitive -2/(3j) w^j.
The normalized solution pair carries the unit prefactor
eta^(-1/2) x^(-1/4) exp(+-(2/3) x^(3/2) eta) as metadata only, so every number
stored here is an exact rational.

The recurrence runs on the integers N_j = c_j 8^(j+1), and they are laid on
the w grid in one place (``_w_series``): the solution's f, its odd and even
parts, and the coefficient stream's inputs 1 + A = w f_odd and +-B, the
primitive of f_odd past its w^-1 phase term, are all read from there.  The
stream's coefficients are read off the kernel's product, so no Fraction
arithmetic is done per term.

Two independent derivations of the same coefficients are exposed: the
recurrence-driven stream (via the odd-part primitive) and the closed product
formula with Pochhammer factors.  Tests require them to agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .series import PuiseuxSeries, _reduce

W_VAR = "w"  # shorthand for the combination eta^-1 x^-3/2

DEFAULT_ORDER = 24


@dataclass(frozen=True)
class RiccatiSolution:
    """Truncated formal solution of S' + S^2 = eta^2 x, as f = x S.

    ``numerators[j + 1]`` is the Riccati integer N_j = c_j 8^(j+1), and c_j
    is the coefficient of w^j in f, for j = -1 .. order.
    """

    sign: str
    order: int
    numerators: tuple[int, ...]

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """c_-1 .. c_order."""
        return tuple(Fraction(n_j, 8 ** i) for i, n_j in enumerate(self.numerators))

    def coefficient(self, j: int) -> Fraction:
        if j < -1 or j > self.order:
            raise PreconditionError(f"S_{j} not computed (order {self.order})")
        return Fraction(self.numerators[j + 1], 8 ** (j + 1))

    def series(self) -> PuiseuxSeries:
        """f = sum_(j=-1..order) c_j w^j, known below w^(order+1)."""
        return _w_series(self.numerators, range(-1, self.order + 1))


def _w_series(n, js: range, s: int = 1) -> PuiseuxSeries:
    """sum_(j in js) s N_j / 8^(j+1) w^j, known below w^(js.stop), from the
    Riccati integers n[j + 1] = N_j."""
    return PuiseuxSeries.from_grid(W_VAR, [(2 * j, s * n[j + 1], 8 ** (j + 1)) for j in js],
                                   js.stop)


def _x2_d_dx(f: PuiseuxSeries) -> PuiseuxSeries:
    """x^2 d/dx (x^-1 f(w)) = -f - (3/2) w f'."""
    return -f - f.differentiate().shift(1) * Fraction(3, 2)


def _require_order_and_sign(order: int, sign: str) -> None:
    if isinstance(order, bool) or not isinstance(order, int):
        raise PreconditionError(f"order must be an int, got {order!r}")
    if order < 0:
        raise PreconditionError("order must be >= 0")
    if sign not in ("+", "-"):
        raise PreconditionError(f"sign must be '+' or '-', got {sign!r}")


def _riccati_integers(order: int, s: int) -> list[int]:
    """The integers N_j = c_j 8^(j+1), j = -1 .. order, of the branch c_-1 = s.

    With S_j = c_j x^(e_j), e_j = -(3j+2)/2, the recurrence is
    c_(j+1) = -(e_j c_j + sum_(k=0..j) c_k c_(j-k)) / (2 s).  Multiplying it by
    8^(j+2), with 1/(2s) = s/2 and 4 e_j = -2(3j+2), gives
        N_(j+1) = s (2(3j+2) N_j - conv_j / 2),  conv_j = sum_(k=0..j) N_k N_(j-k).
    Every N_j with j >= 0 is even, by induction: N_0 = s (-2 s) = -2, and if
    N_0 .. N_j are even then each product N_k N_(j-k) is divisible by 4, so
    conv_j / 2 is an even integer and so is N_(j+1).  The halving is exact.
    """
    n = [s]  # index j+1
    for j in range(-1, order):
        # conv_j / 2: each pair k < j - k once, plus half the middle square
        half_conv = 0
        for k in range((j + 1) // 2):
            half_conv += n[k + 1] * n[j - k + 1]
        if j % 2 == 0:
            half_conv += n[j // 2 + 1] ** 2 // 2
        n.append(s * (2 * (3 * j + 2) * n[j + 1] - half_conv))
    return n


def riccati_recurrence(order: int = DEFAULT_ORDER, sign: str = "+") -> RiccatiSolution:
    """Compute S_-1 .. S_order for the chosen square-root branch, as the
    integers N_j of ``_riccati_integers``."""
    _require_order_and_sign(order, sign)
    return RiccatiSolution(sign, order, tuple(_riccati_integers(order, 1 if sign == "+" else -1)))


def riccati_residual(solution: RiccatiSolution) -> PuiseuxSeries:
    """x^2 (S' + S^2 - eta^2 x) = -f - (3/2) w f' + f^2 - w^-2 for the
    truncated f = x S; it is known below w^order, and vanishes there."""
    f = solution.series()
    return _x2_d_dx(f) + f * f - PuiseuxSeries.monomial(W_VAR, -2)


def split_odd_even(solution: RiccatiSolution) -> tuple[PuiseuxSeries, PuiseuxSeries]:
    """(f_odd, f_even): f's odd and even powers of w, relative to the + branch.

    For the "-" branch the odd part is negated, so that both branches
    satisfy f = sign * f_odd + f_even with a common f_odd.
    """
    if solution.order < 2:
        raise PreconditionError("need order >= 2 to split odd and even parts")
    n, stop = solution.numerators, solution.order + 1
    flip = 1 if solution.sign == "+" else -1
    return _w_series(n, range(-1, stop, 2), flip), _w_series(n, range(0, stop, 2))


def check_even_is_log_derivative(s_odd: PuiseuxSeries, s_even: PuiseuxSeries) -> bool:
    """Check S_even = -(1/2) d/dx log S_odd up to the truncation.

    S_odd = x^-1 f_odd leads with the unit eta x^(1/2), so the identity holds
    exactly when its product form -2 S_even S_odd = S_odd' does, which takes
    no inverse: times x^2, -2 f_even f_odd = -f_odd - (3/2) w f_odd'."""
    return (s_even * s_odd * 2 + _x2_d_dx(s_odd)).is_zero()


def integrate_s_odd(s_odd: PuiseuxSeries) -> PuiseuxSeries:
    """The x-primitive of S_odd = x^-1 f_odd(w), integration constants zero.

    The contour-integral normalization amounts to the plain termwise primitive
    x^-1 c w^j -> -2c/(3j) w^j; a w^0 term, S_odd's x^-1 term, never occurs
    here and signals corrupted input.
    """
    if 0 in s_odd._grid:
        raise PreconditionError("unexpected x^-1 term in S_odd: it has no termwise primitive")
    # c w^(h/2) -> -4c / (3h) w^(h/2)
    grid = {h: _reduce(-4 * p, -4 * q, 3 * h * d) for h, (p, q, d) in s_odd._grid.items()}
    return PuiseuxSeries._trusted(s_odd.variable, grid, s_odd._limit)


@dataclass(frozen=True)
class WkbCoefficientStream:
    """Rational coefficients c_n of (eta^-1 x^-3/2)^n in the normalized solution."""

    sign: str
    coeffs: tuple[Fraction, ...]


def wkb_coefficient_stream(order: int = DEFAULT_ORDER, sign: str = "+") -> WkbCoefficientStream:
    """Expand (1 + A)^(-1/2) exp(sign * B) where A, B come from the recurrence.

    Both are series in w = eta^-1 x^-3/2, read from the Riccati integers
    through ``_w_series``: 1 + A = w f_odd, which is S_odd / (eta x^(1/2)),
    and B is the primitive of f_odd past its w^-1 term, the phase
    (2/3) eta x^(3/2) that the prefactor carries.  The kernel takes the
    inverse square root, the exponential and one product; the stream is read
    off the product's rational coefficients, so the result is exact.
    """
    _require_order_and_sign(order, sign)
    n = _riccati_integers(order, 1)
    # 1 + A = w f_odd below the stream's truncation w^(order + 1): j < order
    amplitude = _w_series(n, range(-1, order, 2)).shift(1).inv_sqrt()
    phase = integrate_s_odd(_w_series(n, range(1, order + 1, 2), 1 if sign == "+" else -1))
    stream = amplitude * phase.exp()
    coeffs = [Fraction(0)] * (order + 1)
    # read off the kernel's grid: one Fraction per coefficient
    for h, (p, q, d) in stream._grid.items():
        if q:
            raise PreconditionError("coefficient stream left the rationals")
        coeffs[h // 2] = Fraction(p, d)
    return WkbCoefficientStream(sign, tuple(coeffs))


def closed_form_coefficients(order: int, sign: str = "+") -> list[Fraction]:
    """Coefficients (sign * 3/4)^n (1/6)_n (5/6)_n / n! of the normalized solution.

    The reflection identity Gamma(1/6) Gamma(5/6) = 2 pi cancels the 1/(2 pi)
    prefactor of the explicit solution formula, which is why the values are
    plain rationals.
    """
    _require_order_and_sign(order, sign)
    ratio = Fraction(3, 4) if sign == "+" else Fraction(-3, 4)
    out = [Fraction(1)]
    for n in range(1, order + 1):
        # (1/6)_n (5/6)_n / n! grows by (n-1+1/6)(n-1+5/6)/n per step
        step = ratio * (Fraction(1, 6) + n - 1) * (Fraction(5, 6) + n - 1) / n
        out.append(out[-1] * step)
    return out
