"""Numerical Borel summation and the connection-formula verifications.

The Laplace integrals run along the rays y = -+(2/3) x^(3/2) + t, t >= 0; in
the normalized variable the integrand at each node is the difference of two
branch values that the sum reads, from Viete's closed form of the cubic's
roots, so no node is tracked from another.
The endpoint square-root singularity is removed by t = u^2 and the quadrature
is adaptive Gauss-Legendre on u-panels: each panel is one 16-point rule over
its whole width, whose nodes one loop evaluates in place
(``RayField.laplace_panel``: local root, closed form, Laplace weight and the
running sums, with no Python call per node), and its error estimate is read
off the top Legendre coefficients of the same node values, so no second node
set is formed; a panel that fails its test bisects, and each child is one
rule of its own.
The part of the integral past the last tail panel is bounded from the decay
of the last two panels.

Across the Stokes line the "+" sum picks up a cut term.  It is i times the
"-" sum, read through the permutation of the "-" ray triple by a loop around
s = 1: that permutation is read exactly from the local series at s = 1
(``branches.loop_permutation``), nothing is integrated a second time, and a
permutation that does not send branch 3 to branch 1 raises.

The independent reference for the Airy identities is a from-scratch Maclaurin
evaluation of Ai and Bi in configurable precision: its series loop and the
four values it forms run on integers scaled by 2^prec, and mpmath serves only
the constants Ai(0), Ai'(0) and sqrt(3), once per precision; it is imported
on the oracle's first call, not with the package.  In double precision it
would be reliable to |z| <= 6; the working precision is raised automatically
beyond that.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

from .branches import check_local_root, closed_form_g_triple, loop_permutation
from .errors import NumericError, PreconditionError, VerificationError

TWO_PI_THIRDS = 2 * math.pi / 3
SQRT_PI = math.sqrt(math.pi)

REGION_I = "I"
REGION_II = "II"
BOUNDARY = "boundary"
OUTSIDE = "outside"
# |arg x - ray| below which classify_stokes puts x on a Stokes ray
STOKES_BOUNDARY_TOL = 1e-12

# gates of VorosReport: the jump, and the "-" sum against the oracle; every
# sum of verify_voros is integrated to VOROS_QUAD_TOL, and both sums of
# verify_airy_connection to AIRY_LINK_QUAD_TOL; AIRY_LINK_TOL is the default
# gate of verify_airy_connection and LAPLACE_TOL the default of laplace_sum
VOROS_PLUS_TOL = 1e-6
VOROS_MINUS_TOL = 1e-8
VOROS_QUAD_TOL = 1e-10
AIRY_LINK_QUAD_TOL = 1e-10
AIRY_LINK_TOL = 1e-6
LAPLACE_TOL = 1e-10


@dataclass(frozen=True)
class StokesContext:
    """Location of x relative to the Stokes geometry of the turning point."""

    x: complex
    region: str

    @property
    def x_three_halves(self) -> complex:
        return cmath.exp(1.5 * cmath.log(self.x))

    @property
    def alpha_plus(self) -> complex:
        """Singular point of the "+" transform: y = -(2/3) x^(3/2)."""
        return -2.0 / 3.0 * self.x_three_halves

    @property
    def alpha_minus(self) -> complex:
        """Singular point of the "-" transform: y = +(2/3) x^(3/2)."""
        return 2.0 / 3.0 * self.x_three_halves

    @property
    def kappa(self) -> complex:
        """ds/dt along either ray: s = base + kappa t."""
        return 0.75 / self.x_three_halves


def classify_stokes(x: complex) -> StokesContext:
    """Classify x against the Stokes rays arg x in {0, +-2 pi/3}."""
    if not cmath.isfinite(x):
        raise PreconditionError(f"x must be finite, got {x!r}")
    if x == 0:
        raise PreconditionError("x = 0 is the turning point")
    arg = cmath.phase(complex(x))
    for ray in (0.0, TWO_PI_THIRDS, -TWO_PI_THIRDS):
        if min(abs(arg - ray), abs(arg + 2 * math.pi - ray)) < STOKES_BOUNDARY_TOL:
            return StokesContext(complex(x), BOUNDARY)
    if -TWO_PI_THIRDS < arg < 0:
        return StokesContext(complex(x), REGION_I)
    if 0 < arg < TWO_PI_THIRDS:
        return StokesContext(complex(x), REGION_II)
    return StokesContext(complex(x), OUTSIDE)


# ---------------------------------------------------------------------------
# branch values along a summation ray
# ---------------------------------------------------------------------------

class RayField:
    """Values of the ordered branch triple along one summation ray.

    Every node is one evaluation of the closed form at the local root, which
    fixes the branch orientation, so no node depends on another.  A Borel
    sum reads the ray a panel at a time (``laplace_panel``); ``triple`` is
    the same closed form at one point (``closed_form_g_triple``), which the
    trace and the tests read.  The exact anchor series label the closed
    form's values and are its oracle in the tests.
    """

    def __init__(self, anchor: int, kappa: complex):
        self.anchor = anchor
        self.kappa = kappa

    def _local_root(self, t: float) -> complex:
        """s^(1/2) at anchor 0; at anchor 1, (1-s)^(1/2) by the i-orientation rule.

        Past s = 1 the root is fixed as (s-1)^(1/2) = e^(-i pi/2) (1-s)^(1/2),
        i.e. (1-s)^(1/2) = i * principal_sqrt(s-1).  This is the lateral
        determination that keeps the "-" Borel sum continuous across the Stokes
        line and makes the +i prefactor of the "-" transform come out right;
        ``laplace_panel`` forms the same root inline.
        """
        # formed from kappa*t directly: computing s = base + kappa*t and
        # subtracting the base back loses every digit for tiny t
        root = cmath.sqrt(self.kappa * t)
        return 1j * root if self.anchor == 1 else root

    def triple(self, t: float) -> tuple:
        return closed_form_g_triple(self.anchor, self._local_root(t))

    def laplace_panel(self, mid: float, half: float, eta: float,
                      inv_pref: complex) -> tuple:
        """The three sums of one Gauss panel of the ray's Laplace integral.

        At the nodes u = mid + half x_k of ``_GL_RULE``, t = u^2, the node
        value is v = D(t) inv_pref e^(-t eta) 2 u, with D = g_1 - g_2 at
        anchor 0 (the "+" sum) and i (g_1 - g_3) at anchor 1 (the "-" sum);
        the panel returns (sum w_k v, sum r14_k v, sum r15_k v) for
        ``_gauss_sum``.  One loop forms each node's local root (as
        ``_local_root``), refuses it as ``closed_form_g_triple`` does
        (``check_local_root``), and forms the closed form's p, q and r
        (``branches._g_triple``) and only the two entries that D reads.
        Every operation keeps the order and operands of ``triple`` and of a
        node-by-node sum, so each sum has the same bits; math.exp gives the
        real part of cmath.exp at a real argument, and a float factor is
        widened to (e, 0.0) before the complex product.
        """
        asin, acos, sin, sqrt, isfinite, exp = (cmath.asin, cmath.acos, cmath.sin,
                                                cmath.sqrt, cmath.isfinite, math.exp)
        kappa = self.kappa
        minus = self.anchor == 1
        total = 0j
        c14 = c15 = 0
        for xk, wk, r14, r15 in _GL_RULE:
            u = mid + half * xk
            t = u * u
            root = sqrt(kappa * t)
            if minus:
                root = 1j * root
            if not isfinite(root) or root == 0 or root * root == 1:
                check_local_root(root)
            # psi is asin of the root at anchor 0 and acos of it at anchor 1
            if minus:
                p = sin(acos(root) * (2 / 3))
                q = sin(asin(root) * (2 / 3))
            else:
                p = sin(asin(root) * (2 / 3))
                q = sin(acos(root) * (2 / 3))
            r = p + q
            g1 = -0.25 / (q * -p)
            if minus:
                v = 1j * (g1 - -0.25 / (r * q)) * inv_pref
            else:
                v = (g1 - -0.25 / (p * r)) * inv_pref
            v = v * exp(-t * eta) * 2 * u
            total += wk * v
            c14 += r14 * v
            c15 += r15 * v
        return total, c14, c15


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

# bisections of one panel before the quadrature gives up: its finest Gauss
# panel is 2^-25 of the width of the panel it starts from
MAX_BISECTIONS = 25

# the 16-point Gauss-Legendre rule of every panel, as numpy's leggauss(16)
# gives it (exactly symmetric; repr round-trips every float); held as literals
# so that importing the package loads neither numpy.polynomial nor numpy.linalg
_GL_HALF = ((0.09501250983763744, 0.18945061045506864),
            (0.2816035507792589, 0.18260341504492364),
            (0.45801677765722737, 0.16915651939500265),
            (0.6178762444026438, 0.1495959888165767),
            (0.755404408355003, 0.12462897125553407),
            (0.8656312023878318, 0.0951585116824926),
            (0.9445750230732326, 0.062253523938647456),
            (0.9894009349916499, 0.027152459411754176))
_GL_NODES = tuple(-x for x, _ in reversed(_GL_HALF)) + tuple(x for x, _ in _GL_HALF)
_GL_WEIGHTS = tuple(w for _, w in reversed(_GL_HALF)) + tuple(w for _, w in _GL_HALF)


def _top_legendre_rows() -> tuple:
    """(2n+1)/2 w_k P_n(x_k) at the 16 nodes for n = 14 and 15: the weights
    that read the top two Legendre coefficients of the interpolant through
    the node values off those values (three-term recurrence for P_n)."""
    row14, row15 = [], []
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        p_prev, p = 1.0, x
        for n in range(1, 15):
            p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
        row14.append(14.5 * w * p_prev)
        row15.append(15.5 * w * p)
    return tuple(row14), tuple(row15)


_LEGENDRE_14, _LEGENDRE_15 = _top_legendre_rows()
# (node, weight, row-14 entry, row-15 entry) of each node, for one pass per panel
_GL_RULE = tuple(zip(_GL_NODES, _GL_WEIGHTS, _LEGENDRE_14, _LEGENDRE_15))


def _gauss_sum(panel, a: float, b: float) -> tuple[complex, float]:
    """The 16-point Gauss sum over [a, b] and its error estimate: all the
    work of one panel, whose acceptance test reads the estimate.

    ``panel(mid, half)`` returns (sum w_k v_k, sum r14_k v_k, sum r15_k v_k)
    over the node values v_k at mid + half x_k of ``_GL_RULE``, each sum
    started from 0 and taken in node order (``RayField.laplace_panel``);
    the scaling by the half width and the estimate are formed here alone.

    The estimate reads the top two Legendre coefficients c_14, c_15 of the
    interpolant through the same 16 values (one even and one odd degree, so a
    function symmetric about the midpoint cannot hide).  The rule is exact
    through degree 31 and misses at most (b - a) |c_n| on a term c_n P_n of
    higher degree, since |P_n| <= 1 and the weights sum to 2; the estimate is
    that miss with the top two coefficients in place of the unseen ones.
    Where the coefficients decay it stands well above the true error, and
    rounding in the values sets its floor.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total, c14, c15 = panel(mid, half)
    return total * half, (b - a) * (abs(c14) + abs(c15))


def _adaptive_panel(panel, a: float, b: float, first: tuple, tol_abs: float,
                    floor: float, depth: int = 0):
    """Bisecting Gauss panel with a rounding floor on the acceptance test.

    ``first`` is the ``_gauss_sum`` result of the whole panel, formed by the
    caller.  A panel that fails the test bisects, each child is one
    ``_gauss_sum`` at half the budget, and a panel still failing after
    ``MAX_BISECTIONS`` bisections raises.  Without the floor, repeated budget
    halving eventually asks for accuracy below the noise of the panel sums
    themselves and the recursion chases rounding errors forever.
    """
    value, err = first
    if err <= max(tol_abs, floor):
        return value, err
    if depth >= MAX_BISECTIONS:
        raise NumericError("quadrature panel refinement exhausted")
    mid = 0.5 * (a + b)
    left, el = _adaptive_panel(panel, a, mid, _gauss_sum(panel, a, mid), tol_abs / 2,
                               floor, depth + 1)
    right, er = _adaptive_panel(panel, mid, b, _gauss_sum(panel, mid, b), tol_abs / 2,
                                floor, depth + 1)
    return left + right, el + er


def _laplace_panels(eta: float, tol: float) -> tuple[list[float], float]:
    """The main u-panel edges of the Laplace integral and the panel width.

    The edges run from 0 to where e^(-u^2 eta) has fallen to tol * 1e-3, or
    to e^(-30) if that is smaller; the quadrature's tail extension starts
    from the last edge."""
    decay = max(-math.log(tol * 1e-3), 30.0)
    u_max = math.sqrt(decay / eta)
    width = 1.0 / math.sqrt(eta)
    edges = [0.0, 0.5 * width, width]
    while edges[-1] < u_max:
        edges.append(min(edges[-1] + width, u_max))
    return edges, width


def _laplace_quadrature(panel, eta: float, tol: float):
    """integral_0^inf f(t) e^(-t eta) dt with t = u^2 removing the endpoint
    square-root singularity; returns (value, error_estimate).  ``panel`` is
    the panel function of ``_gauss_sum`` for the node values
    f(u^2) e^(-u^2 eta) 2 u in u (``RayField.laplace_panel``).  The estimate
    adds the panels' own to a bound on what lies past the last tail panel.
    It covers only the panels and the tail, not the rounding of the
    integrand values, so it is not a bound on the achieved error (see
    ``BorelSum``)."""
    edges, width = _laplace_panels(eta, tol)
    panels = list(zip(edges, edges[1:]))
    # the Gauss sum of every main panel, formed once: their sum sets the
    # absolute tolerance scale, and each panel starts from its own
    firsts = [_gauss_sum(panel, a, b) for a, b in panels]
    scale = max(abs(sum(value for value, _ in firsts)), 1e-280)
    tol_abs = scale * tol * 0.25
    floor = scale * 5e-16
    total = 0j
    err = 0.0
    for (a, b), first in zip(panels, firsts):
        value, e = _adaptive_panel(panel, a, b, first, tol_abs / len(panels), floor)
        total += value
        err += e
    # tail extension, in case the integrand decays slower than assumed
    a = edges[-1]
    while True:
        b = a + width
        previous = value
        value, e = _adaptive_panel(panel, a, b, _gauss_sum(panel, a, b), tol_abs, floor)
        total += value
        err += e
        if abs(value) < tol_abs:
            break
        if b > 40 * edges[-1]:
            raise NumericError("Laplace tail did not converge")
        a = b
    return total, err + _tail_bound(value, previous)


def _tail_bound(last: complex, previous: complex) -> float:
    """What lies past the last tail panel, as the geometric series of its
    value at the decay ratio of the last two panels.

    Where the ratio falls from panel to panel, as the factor e^(-u^2 eta)
    makes it do, this bounds the remainder; with no decay between the last
    two panels there is no bound, and it is inf.
    """
    if last == 0:
        return 0.0
    ratio = abs(last) / abs(previous) if previous != 0 else math.inf
    return abs(last) * ratio / (1 - ratio) if ratio < 1 else math.inf


# ---------------------------------------------------------------------------
# Borel sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BorelSum:
    """A Borel sum, taken at the point ``x``.

    ``quadrature_error_estimate`` covers the quadrature panels and the tail
    only, not the rounding of the integrand values (branch values and their
    differences), so it is an estimate, not a bound.  On the default Voros
    grid the achieved error exceeds it in 0 of 60 sums, against 40-digit
    values of Ai (at most 0.0072 of it), only because the panels' own
    estimates stand above that rounding there.
    """

    sign: str
    region: str
    eta: float
    value: complex
    quadrature_error_estimate: float
    x: complex


def _require_summable(ctx: StokesContext):
    if ctx.region not in (REGION_I, REGION_II):
        raise PreconditionError(
            f"Borel sums are defined on open Stokes regions, not {ctx.region!r}; "
            "approach the boundary through a region limit instead")


def _require_eta(eta: float):
    if not (math.isfinite(eta) and eta > 0):
        raise PreconditionError(f"eta must be positive and finite, got {eta!r}")


def _require_quadrature_inputs(eta: float, tol: float):
    _require_eta(eta)
    if not (math.isfinite(tol) and tol > 0):
        raise PreconditionError(f"tol must be positive and finite, got {tol!r}")


def _scaled_sum(sign: str, ctx: StokesContext, eta: float, alpha: complex,
                raw: complex, err: float) -> BorelSum:
    """The Borel sum e^(-alpha eta) * raw, refusing a result that underflows
    or overflows."""
    try:
        scale = cmath.exp(-alpha * eta)
    except OverflowError:
        raise NumericError(
            f"e^(-alpha eta) overflows at alpha = {alpha!r}, eta = {eta!r}") from None
    value = raw * scale
    if not cmath.isfinite(value):
        raise NumericError(
            f"e^(-alpha eta) = {scale!r} times the integral {raw!r} overflows the sum "
            f"at eta = {eta!r}")
    if raw != 0 and abs(value) < sys.float_info.min:
        raise NumericError(
            f"e^(-alpha eta) = {scale!r} underflows the sum at eta = {eta!r}")
    return BorelSum(sign, ctx.region, eta, value, err * abs(scale), ctx.x)


def laplace_sum(sign: str, ctx: StokesContext, eta: float,
                tol: float = LAPLACE_TOL) -> BorelSum:
    """Borel sum of the normalized WKB solution along its summation ray.

    The integrand is the branch combination for the requested sign:
    (g_1 - g_2)/(sqrt(pi) x) for "+" on the ray from s = 0, i (g_1 - g_3)/
    (sqrt(pi) x) for "-" on the ray from s = 1, evaluated a panel at a time
    (``RayField.laplace_panel``).  The sum's ``quadrature_error_estimate``
    leaves out the rounding of the integrand values, so it is not a bound on
    the achieved error (see ``BorelSum``).
    """
    if sign not in ("+", "-"):
        raise PreconditionError(f"sign must be '+' or '-', got {sign!r}")
    _require_quadrature_inputs(eta, tol)
    _require_summable(ctx)
    ray = RayField(0 if sign == "+" else 1, ctx.kappa)
    panel = functools.partial(ray.laplace_panel, eta=eta, inv_pref=1.0 / (SQRT_PI * ctx.x))
    raw, err = _laplace_quadrature(panel, eta, tol)
    alpha = ctx.alpha_plus if sign == "+" else ctx.alpha_minus
    return _scaled_sum(sign, ctx, eta, alpha, raw, err)


def gamma_term(ctx: StokesContext, minus: BorelSum) -> BorelSum:
    """The branch-cut contribution picked up by the continued "+" sum: i * minus.

    The loop integral around the "-" cut is -1/sqrt(pi) times the Laplace
    integral of the discontinuity Delta g_3 = triple[pi(3)] - triple[3] of the
    "-" ray triple, with pi the permutation of one loop around s = 1.  The
    only branch points of G are s = 0, 1 and infinity (s = 1/2 is an analytic
    crossing), so pi is the same at every point of the ray, and it is the
    permutation of the local series at s = 1, read exactly
    (``branches.loop_permutation``).  Where it sends branch 3 to branch 1 that
    integrand is i times the "-" sum's i (g_1 - g_3)/(sqrt(pi) x), and the cut
    term is i * minus with nothing integrated or tracked again.

    Raises PreconditionError unless ``minus`` is a "-" sum taken at ctx.x, in
    ctx's region, at a valid eta; VerificationError if the permutation does
    not send branch 3 to branch 1.
    """
    if minus.sign != "-" or minus.region != ctx.region:
        raise PreconditionError(
            f"the cut term takes the \"-\" sum in region {ctx.region!r}, "
            f"got a {minus.sign!r} sum in region {minus.region!r}")
    _require_eta(minus.eta)
    if minus.x != ctx.x:
        raise PreconditionError(
            f"the cut term takes the \"-\" sum at x = {ctx.x!r}, got one at {minus.x!r}")
    perm = loop_permutation(1)
    if perm[2] != 0:
        raise VerificationError(
            f"the loop around s = 1 permutes the \"-\" ray triple by {perm}, "
            "which does not send branch 3 to branch 1")
    return BorelSum("+", minus.region, minus.eta, 1j * minus.value,
                    minus.quadrature_error_estimate, ctx.x)


# ---------------------------------------------------------------------------
# independent Airy oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AiryValues:
    ai: complex
    bi: complex
    ai_prime: complex
    bi_prime: complex


AIRY_ORACLE_MAX_ABS = 40.0
AIRY_ORACLE_TOL = 1e-12  # relative accuracy every airy_reference value reaches
# bits the oracle's fixed point carries past 10^-dps, and its constants'
# mpmath working precision past 2^-prec
AIRY_GUARD_BITS = 32
_LOG2_10 = math.log2(10)


def airy_reference(z: complex) -> AiryValues:
    """Ai, Bi and derivatives from their Maclaurin series, summed in adaptive
    precision so the cancellation at moderate |z| stays controlled.

    Independent of every WKB code path.  Each attempt sums the series on
    integers scaled by 2^prec (``_airy_series_attempt``) and forms the four
    values on the same integers.  Double-precision-reliable up to |z| ~ 6
    on its own; beyond that the working precision grows like |z|^(3/2), an
    attempt whose values fail the acceptance test is repeated at more digits,
    and the hard cap is |z| <= 40; a z that is not finite raises
    PreconditionError.  Every value reaches AIRY_ORACLE_TOL relative accuracy
    except near the real zeros of Ai and Bi, where the accuracy is absolute
    (scaled to the larger of |Ai| and |Bi|, or of |Ai'| and |Bi'|).
    """
    z = complex(z)
    r = abs(z)
    # negated so that a NaN |z| fails it too
    if not r <= AIRY_ORACLE_MAX_ABS:
        raise PreconditionError(
            f"|z| = {r:.3g} outside the oracle's documented range (<= {AIRY_ORACLE_MAX_ABS})")
    dps = 25 + int(0.62 * r ** 1.5)
    for _ in range(4):
        values, lost_ok = _airy_series_attempt(z, dps)
        if lost_ok:
            return values
        dps = int(dps * 1.6) + 10
    raise NumericError("airy_reference could not reach the requested accuracy")


@functools.lru_cache(maxsize=None)
def _airy_constants(prec: int) -> tuple:
    """c1 = Ai(0) = 3^(-2/3) / Gamma(2/3), c2 = -Ai'(0) = 3^(-1/3) / Gamma(1/3)
    and sqrt(3), each floored to 2^-prec and held as an int scaled by 2^prec.

    mpmath works them out at AIRY_GUARD_BITS bits past 2^-prec, so each is
    within 2^(1-prec) of its value; this is the oracle's only use of mpmath.
    prec takes one value per (dps, e) pair of ``_airy_series_attempt``.
    """
    import mpmath

    with mpmath.workprec(prec + AIRY_GUARD_BITS):
        return tuple(int(mpmath.ldexp(c, prec)) for c in (
            mpmath.power(3, mpmath.mpf(-2) / 3) / mpmath.gamma(mpmath.mpf(2) / 3),
            mpmath.power(3, mpmath.mpf(-1) / 3) / mpmath.gamma(mpmath.mpf(1) / 3),
            mpmath.sqrt(3)))


def _fixed(x: float, prec: int) -> int:
    """floor(x 2^prec); exact when 2^-prec reaches the lowest bit of x."""
    num, den = x.as_integer_ratio()
    return (num << prec) // den


def _ai_bi_pair(constants: tuple, f: tuple, g: tuple, prec: int) -> tuple:
    """c1 f - c2 g and sqrt(3) (c1 f + c2 g) from (re, im) pairs of ints
    scaled by 2^prec, as two such pairs; each product is floored once."""
    c1, c2, sqrt3 = constants
    a = tuple((c1 * x - c2 * y) >> prec for x, y in zip(f, g))
    b = tuple((sqrt3 * ((c1 * x + c2 * y) >> prec)) >> prec for x, y in zip(f, g))
    return a, b


# (1 / AIRY_ORACLE_TOL)^2, for the acceptance test on squared magnitudes
_INVERSE_TOL_SQUARED = round(1 / AIRY_ORACLE_TOL) ** 2


def _accepted(ai: tuple, bi: tuple, max_mag2: int, dps: int) -> bool:
    """The acceptance test of an attempt at dps digits: enough digits must
    survive the cancellation for every output.

    Ai and Bi are (re, im) pairs of ints scaled by 2^prec and max_mag2 is
    max_mag^2 scaled by 2^(2 prec).  |Ai| and |Bi| must lie above
    10^-(dps-8) max_mag, and that floor below AIRY_ORACLE_TOL times the larger
    of them; both are compared exactly, squared and times 10^(2 dps).  A value
    that cancels to exactly zero fails.
    """
    mag_ai, mag_bi = ai[0] ** 2 + ai[1] ** 2, bi[0] ** 2 + bi[1] ** 2
    scale = 10 ** (2 * dps)
    lost = max_mag2 * 10 ** 16   # (10^-(dps-8) max_mag)^2 10^(2 dps)
    return (min(mag_ai, mag_bi) * scale > lost
            and max(mag_ai, mag_bi) * scale > lost * _INVERSE_TOL_SQUARED)


def _airy_series_attempt(z: complex, dps: int):
    """One summation of the Maclaurin series at dps digits: the values, and
    whether they pass the acceptance test.

    Ai = c1 f - c2 g and Bi = sqrt(3) (c1 f + c2 g) (DLMF 9.4.1-9.4.2), with
    f = sum t_k, t_0 = 1, t_k = t_(k-1) z^3 / (3k (3k-1)) and
    g = sum t_k, t_0 = z, t_k = t_(k-1) z^3 / (3k (3k+1)).  Everything runs
    on pairs of ints scaled by 2^prec, one unit u = 2^-prec, with
    prec = ceil(dps log2 10) + AIRY_GUARD_BITS + 3 e, where 2^-e is the
    smallest nonzero part of z when that is below 1: each term is
    ((t z^3) >> prec) // (3k (3k -+ 1)).  The loop adds up z f' = sum 3k t_k
    and z (g' - 1) = sum (3k+1) t_k, and f' and g' come from one floored
    division by z after it.  Termination compares squared magnitudes,
    |t|^2 10^(2 (dps+3)) against max_mag^2, max_mag being the largest |t|
    seen and at least 1.  Ai, Bi, Ai' and Bi' are formed with the constants
    floored to u (``_airy_constants``), the acceptance test (``_accepted``)
    compares squared magnitudes exactly, and each part becomes a float
    through one correctly rounded division by 2^prec.

    Error bound.  z is exact on the grid, z^3 is within (1 + |z|) sqrt(2) u,
    and every floor loses less than one unit, so the k-th term is within
    5 k u max_mag: 2 u of fresh rounding per step, carried onward by later
    steps, whose product of ratios is at most a term of f and so at most
    max_mag, and k times the rounding of z^3 relative to z^3.  Over the N
    terms, f and g are within 5 N^2 u max_mag and the two derivative sums
    within 15 N^3 u max_mag.  Since |z| >= 2^-(e+1), the division by z and
    its floor leave f' and g' within 30 N^3 2^e u max_mag + u, while
    |f|, |g| <= N max_mag and |f'|, |g'| <= 6 N^2 2^e max_mag + 1.  Each
    constant is within 2 u, c1 + c2 < 1, sqrt(3) < 2 and each product is
    floored once, so the constants and the floors add at most
    60 N^2 2^e u max_mag + 8 u to a value; with N >= 2 terms (t_0 and t_1
    at least) every value is within 64 N^3 2^e u max_mag, and the 3 e extra
    bits of prec absorb the 2^e.  A first attempt at |z| <= 40
    takes N <= 335 terms, so 64 N^3 < 2^32 and every bound is below
    10^-dps max_mag, eight digits under the acceptance floor
    10^-(dps-8) max_mag; the fourth escalated attempt at |z| = 40 takes 722
    terms, 64 N^3 < 2^35, still seven digits under it.  The remaining 2 e
    extra bits serve a z near 0 or near an axis: there a value's smaller part
    can be as small as the product of z's parts, and they keep the error
    below that part's own last bit.
    """
    e = max([-math.frexp(part)[1] for part in (z.real, z.imag) if part] + [0])
    prec = math.ceil(dps * _LOG2_10) + AIRY_GUARD_BITS + 3 * e
    zr, zi = _fixed(z.real, prec), _fixed(z.imag, prec)
    sr, si = (zr * zr - zi * zi) >> prec, (2 * zr * zi) >> prec
    cr, ci = (sr * zr - si * zi) >> prec, (sr * zi + si * zr) >> prec   # z^3
    one = 1 << prec
    fr, fi, gr, gi = one, 0, zr, zi
    dfr = dfi = dgr = dgi = 0   # z f' and z (g' - 1)
    tfr, tfi, tgr, tgi = one, 0, zr, zi
    csum, cdiff = cr + ci, ci - cr   # for three-product complex multiplication
    max_mag2 = one * one
    stop = 10 ** (2 * (dps + 3))
    # |t|^2 <= limit exactly when |t|^2 10^(2 (dps+3)) < max_mag^2
    limit = (max_mag2 - 1) // stop
    k = 1
    while True:
        k3 = 3 * k
        den = k3 * (k3 - 1)
        p = cr * (tfr + tfi)
        tfr, tfi = ((p - tfi * csum) >> prec) // den, ((p + tfr * cdiff) >> prec) // den
        den += 2 * k3
        p = cr * (tgr + tgi)
        tgr, tgi = ((p - tgi * csum) >> prec) // den, ((p + tgr * cdiff) >> prec) // den
        fr += tfr
        fi += tfi
        gr += tgr
        gi += tgi
        dfr += k3 * tfr
        dfi += k3 * tfi
        dgr += (k3 + 1) * tgr
        dgi += (k3 + 1) * tgi
        mag_f = tfr * tfr + tfi * tfi
        mag_g = tgr * tgr + tgi * tgi
        if mag_f > max_mag2 or mag_g > max_mag2:
            max_mag2 = mag_f if mag_f > mag_g else mag_g
            limit = (max_mag2 - 1) // stop
        elif mag_f <= limit and mag_g <= limit:
            break
        k += 1
        if k > 100000:
            raise NumericError("Airy series did not terminate")
    if z != 0:
        # (z f') / z and (z (g' - 1)) / z, times conj(z) over |z|^2
        norm = zr * zr + zi * zi
        fp = (((dfr * zr + dfi * zi) << prec) // norm, ((dfi * zr - dfr * zi) << prec) // norm)
        gp = (one + ((dgr * zr + dgi * zi) << prec) // norm,
              ((dgi * zr - dgr * zi) << prec) // norm)
    else:
        fp, gp = (0, 0), (one, 0)
    constants = _airy_constants(prec)
    ai, bi = _ai_bi_pair(constants, (fr, fi), (gr, gi), prec)
    aip, bip = _ai_bi_pair(constants, fp, gp, prec)
    values = AiryValues(*(complex(re / one, im / one) for re, im in (ai, bi, aip, bip)))
    return values, _accepted(ai, bi, max_mag2, dps)


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AiryLinkReport:
    """Residuals of the Ai/Bi identities against the series oracle."""

    x: complex
    eta: float
    region: str
    ai_residual: float
    bi_residual: float
    inverse_plus_residual: float
    inverse_minus_residual: float
    tol: float
    psi_plus: complex
    psi_minus: complex
    ai: complex
    bi: complex
    quadrature_error: float

    @property
    def max_residual(self) -> float:
        return max(self.ai_residual, self.bi_residual,
                   self.inverse_plus_residual, self.inverse_minus_residual)

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol


def verify_airy_connection(x: complex, eta: float,
                           tol: float = AIRY_LINK_TOL) -> AiryLinkReport:
    """Check the expressions of Ai and Bi through the two Borel sums at x.

    In region I:  Ai = eta^(1/3) Psi_- / (2 sqrt(pi)),
                  Bi = eta^(1/3) Psi_+ / sqrt(pi) - i eta^(1/3) Psi_- / (2 sqrt(pi));
    in region II the Bi relation carries +i instead.  The inverse expressions
    of Psi_+- through Ai and Bi are checked as well, Psi_+ through Ai at the
    rotated point z e^(+-2 pi i/3).  The gate ``tol`` must be positive and
    finite, as ``eta`` must.
    """
    ctx = classify_stokes(x)
    _require_summable(ctx)
    _require_quadrature_inputs(eta, tol)
    plus_sum = laplace_sum("+", ctx, eta, AIRY_LINK_QUAD_TOL)
    minus_sum = laplace_sum("-", ctx, eta, AIRY_LINK_QUAD_TOL)
    psi_plus = plus_sum.value
    psi_minus = minus_sum.value
    z = eta ** (2.0 / 3.0) * complex(x)
    oracle = airy_reference(z)
    cbrt = eta ** (1.0 / 3.0)
    i_sign = -1j if ctx.region == REGION_I else 1j

    ai_pred = cbrt * psi_minus / (2 * SQRT_PI)
    bi_pred = cbrt * psi_plus / SQRT_PI + i_sign * cbrt * psi_minus / (2 * SQRT_PI)
    ai_res = abs(ai_pred - oracle.ai) / abs(oracle.ai)
    bi_res = abs(bi_pred - oracle.bi) / abs(oracle.bi)

    # Bi +- i Ai (upper sign in region I) formed from Ai and Bi cancels
    # completely where psi_+ is recessive; DLMF 9.2.11 gives it as one Ai value
    turn = 1 if ctx.region == REGION_I else -1
    rotated = airy_reference(z * cmath.exp(turn * 2j * math.pi / 3))
    plus_pred = 2 * SQRT_PI / cbrt * cmath.exp(turn * 1j * math.pi / 6) * rotated.ai
    minus_pred = 2 * SQRT_PI / cbrt * oracle.ai
    inv_plus = abs(plus_pred - psi_plus) / abs(psi_plus)
    inv_minus = abs(minus_pred - psi_minus) / abs(psi_minus)
    quad_err = (plus_sum.quadrature_error_estimate / max(abs(psi_plus), 1e-300)
                + minus_sum.quadrature_error_estimate / max(abs(psi_minus), 1e-300))
    return AiryLinkReport(complex(x), eta, ctx.region, ai_res, bi_res,
                          inv_plus, inv_minus, tol, psi_plus, psi_minus,
                          oracle.ai, oracle.bi, quad_err)


@dataclass(frozen=True)
class VorosReport:
    """Jump of the "+" sum and invariance of the "-" sum across the Stokes line.

    The cut term is i * (the "-" sum), read through the loop permutation at
    s = 1 (``gamma_term``), so ``plus_residual`` is at rounding level by
    construction; the permutation itself is read exactly from the local
    series and checked by raising, not by this residual.  ``minus_residual``
    witnesses the oracle: the "-" sum against ``minus_continued`` =
    2 sqrt(pi) eta^(-1/3) Ai(eta^(2/3) x), from series code shared with
    neither the Borel sums nor the branch tracking.  The cut term held against
    i times that value would repeat this residual bit for bit, since
    multiplying by i is exact, so the report carries no such field.
    """

    x: complex
    eta: float
    plus_continued: complex
    plus_direct: complex
    minus_direct: complex
    minus_continued: complex
    cut_contribution: complex
    plus_residual: float
    minus_residual: float

    @property
    def passed(self) -> bool:
        return (self.plus_residual < VOROS_PLUS_TOL
                and self.minus_residual < VOROS_MINUS_TOL)


def verify_voros(x: complex, eta: float) -> VorosReport:
    """Numerically witness the connection formula at a region-II point.

    The continued "+" sum comes from the deformed path (direct region-II ray
    plus the cut term, i * (the "-" sum) once the exact loop permutation at
    s = 1 shows that it is so); the jump must equal i * (the "-" sum), and
    the "-" sum itself must not jump.  In region I the "-" sum is
    2 sqrt(pi) eta^(-1/3) Ai(eta^(2/3) x) (``verify_airy_connection`` holds it
    there); Ai is entire, so that value at x is the region-I sum continued, and
    the direct "-" sum is held against it.
    """
    ctx = classify_stokes(x)
    if ctx.region != REGION_II:
        raise PreconditionError("the Voros check samples x in region II")
    plus_direct = laplace_sum("+", ctx, eta, VOROS_QUAD_TOL)
    minus_direct = laplace_sum("-", ctx, eta, VOROS_QUAD_TOL)
    cut = gamma_term(ctx, minus_direct).value
    plus_continued = plus_direct.value + cut
    plus_res = (abs(plus_continued - plus_direct.value - 1j * minus_direct.value)
                / abs(plus_direct.value))
    ai = airy_reference(eta ** (2.0 / 3.0) * complex(x)).ai
    minus_continued = 2 * SQRT_PI * eta ** (-1.0 / 3.0) * ai
    minus_res = abs(minus_continued - minus_direct.value) / abs(minus_direct.value)
    return VorosReport(complex(x), eta, plus_continued, plus_direct.value,
                       minus_direct.value, minus_continued, cut, plus_res, minus_res)


def formal_solution_partial_sum(sign: str, x: complex, eta: float,
                                n_terms: int) -> complex:
    """Truncated normalized WKB solution, for Watson-style consistency checks.

    x must be finite and nonzero (x = 0 is the turning point), and eta
    positive and finite.
    """
    from .airy_wkb import wkb_coefficient_stream

    if not cmath.isfinite(x) or x == 0:
        raise PreconditionError(f"x must be finite and nonzero, got {x!r}")
    _require_eta(eta)
    stream = wkb_coefficient_stream(n_terms - 1, sign)
    x32 = cmath.exp(1.5 * cmath.log(complex(x)))
    w = 1.0 / (eta * x32)
    series = sum(float(c) * w ** n for n, c in enumerate(stream.coeffs))
    prefactor = eta ** -0.5 * cmath.exp(-0.25 * cmath.log(complex(x)))
    sign_factor = 1.0 if sign == "+" else -1.0
    return prefactor * cmath.exp(sign_factor * (2.0 / 3.0) * x32 * eta) * series
