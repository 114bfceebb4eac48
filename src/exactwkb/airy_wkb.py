"""Exact WKB data for the Airy equation with a large parameter.

The Riccati recurrence below produces the coefficient stream S_j; each S_j is
forced by weighted homogeneity to be a single monomial c_j * x^(-(3j+2)/2).
The normalized solution pair carries the unit prefactor
eta^(-1/2) x^(-1/4) exp(+-(2/3) x^(3/2) eta) as metadata only, so every number
stored here is an exact rational.

The recurrence runs on the integers N_j = c_j 8^(j+1).  The coefficient
stream is built from those integers too: its inputs 1 + A and +-B, the even
part and the primitive of S_odd, are rational series made straight from
integer numerator/denominator pairs, and its coefficients are read off the
kernel's product.  No Fraction arithmetic is done per term.

Two independent derivations of the same coefficients are exposed: the
recurrence-driven stream (via the odd-part primitive) and the closed product
formula with Pochhammer factors.  Tests require them to agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .series import EtaExpansion, PuiseuxSeries

X_VAR = "x"
W_VAR = "w"  # shorthand for the combination eta^-1 x^-3/2

DEFAULT_ORDER = 24


def _monomial_exponent(j: int) -> Fraction:
    return Fraction(-(3 * j + 2), 2)


@dataclass(frozen=True)
class RiccatiSolution:
    """Truncated formal solution of S' + S^2 = eta^2 x.

    ``coeffs[j]`` is the rational coefficient of x^(-(3j+2)/2) in S_j for
    j = -1 .. order (index shifted by one in the tuple).
    """

    sign: str
    order: int
    coeffs: tuple[Fraction, ...]

    def coefficient(self, j: int) -> Fraction:
        if j < -1 or j > self.order:
            raise PreconditionError(f"S_{j} not computed (order {self.order})")
        return self.coeffs[j + 1]

    def term(self, j: int) -> PuiseuxSeries:
        return PuiseuxSeries.monomial(X_VAR, _monomial_exponent(j), self.coefficient(j))

    def as_expansion(self) -> EtaExpansion:
        return EtaExpansion(
            {j: self.term(j) for j in range(-1, self.order + 1)}, self.order)


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
    """Compute S_-1 .. S_order for the chosen square-root branch.

    The recurrence runs on the integers N_j = c_j 8^(j+1) of
    ``_riccati_integers``, and the Fractions are built once, at the end.
    """
    _require_order_and_sign(order, sign)
    n = _riccati_integers(order, 1 if sign == "+" else -1)
    coeffs = tuple(Fraction(n_j, 8 ** (j + 1)) for j, n_j in enumerate(n, start=-1))
    return RiccatiSolution(sign, order, coeffs)


def riccati_residual(solution: RiccatiSolution) -> EtaExpansion:
    """S' + S^2 - eta^2 x for the truncated S; only high eta^-1 powers survive."""
    s = solution.as_expansion()
    residual = s.d_dx() + s * s - EtaExpansion(
        {-2: PuiseuxSeries.monomial(X_VAR, 1)}, s.truncation)
    return residual


def split_odd_even(solution: RiccatiSolution) -> tuple[EtaExpansion, EtaExpansion]:
    """Split S into its odd and even eta^-1 parts (relative to the + branch).

    For the "-" branch the odd part is negated first, so that both branches
    satisfy S = sign * S_odd + S_even with a common S_odd.
    """
    if solution.order < 2:
        raise PreconditionError("need order >= 2 to split odd and even parts")
    flip = 1 if solution.sign == "+" else -1
    odd = {}
    even = {}
    for j in range(-1, solution.order + 1):
        term = solution.term(j)
        if j % 2:  # odd j, includes j = -1
            odd[j] = term * flip
        else:
            even[j] = term
    return (EtaExpansion(odd, solution.order), EtaExpansion(even, solution.order))


def check_even_is_log_derivative(s_odd: EtaExpansion, s_even: EtaExpansion) -> bool:
    """Termwise check of S_even = -(1/2) d/dx log S_odd up to the truncation.

    S_odd leads with eta x^(1/2), a unit, so the identity holds exactly when
    its product form -2 S_even S_odd = S_odd' does, which takes no inverse."""
    lhs = (s_even * s_odd).scale(-2)
    rhs = s_odd.d_dx()
    trunc = min(lhs.truncation, rhs.truncation)
    return all(k in lhs.terms and k in rhs.terms and lhs.terms[k].same_terms(rhs.terms[k])
               for k in {*lhs.terms, *rhs.terms} if k <= trunc)


def integrate_s_odd(s_odd: EtaExpansion) -> EtaExpansion:
    """Primitive of S_odd with all integration constants forced to zero.

    The contour-integral normalization amounts to the plain termwise primitive
    c x^e -> c x^(e+1)/(e+1); exponent -1 never occurs here and signals
    corrupted input.
    """
    try:
        return s_odd.integrate_x()
    except PreconditionError as exc:
        raise PreconditionError(f"unexpected x^-1 term in S_odd: {exc}") from exc


@dataclass(frozen=True)
class WkbCoefficientStream:
    """Rational coefficients c_n of (eta^-1 x^-3/2)^n in the normalized solution."""

    sign: str
    coeffs: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.coeffs)


def wkb_coefficient_stream(order: int = DEFAULT_ORDER, sign: str = "+") -> WkbCoefficientStream:
    """Expand (1 + A)^(-1/2) exp(sign * B) where A, B come from the recurrence.

    A collects the even part of S_odd / (eta x^(1/2)) - 1 and B the primitive
    of the odd tail; both are series in w = eta^-1 x^-3/2.  For odd j the
    Riccati integers N_j = c_j 8^(j+1) give them directly: A has
    a_(j+1) = N_j / 8^(j+1), and B has b_j = -2 N_j / (3j 8^(j+1)), the
    primitive c_j x^(e_j+1) / (e_j+1) with e_j + 1 = -3j/2.  The kernel takes
    the inverse square root, the exponential and one product; the stream is
    read off the product's rational coefficients, so the result is exact.
    """
    _require_order_and_sign(order, sign)
    s = 1 if sign == "+" else -1
    n = _riccati_integers(order, 1)  # n[j + 1] = N_j
    one_plus_a = [(0, 1, 1)]
    phase = []
    for j in range(1, order + 1, 2):
        scale = 8 ** (j + 1)
        # eta^-j S_j / (eta x^(1/2)) = c_j w^(j+1), on the grid h = 2(j+1)
        if j + 1 <= order:
            one_plus_a.append((2 * j + 2, n[j + 1], scale))
        phase.append((2 * j, -2 * s * n[j + 1], 3 * j * scale))
    trunc = order + 1
    amplitude = PuiseuxSeries.from_grid(W_VAR, one_plus_a, trunc).inv_sqrt()
    stream = amplitude * PuiseuxSeries.from_grid(W_VAR, phase, trunc).exp()
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
