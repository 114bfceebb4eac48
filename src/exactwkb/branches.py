"""Branches of the Borel-plane algebraic function and their continuation.

Scaling g by x removes all x-dependence: G = x*g satisfies

    16 s (1-s) G^3 - 3 G - 1 = 0

with polynomial coefficients in the normalized Borel variable s, while
X = G * s^(1/2) (1-s)^(1/2) satisfies 16 X^3 - 3 X = s^(1/2) (1-s)^(1/2).
All continuation runs on G (single-valued coefficients, honest monodromy);
X-values are G times the principal-root product of ``default_sqrt_rule``.

Branch labels follow the local expansions at the two base points:

    index 1: leading constant +sqrt(3)/4   (unbounded at both base points)
    index 2: -sqrt(3)/4 at s=0, bounded (-1/3) at s=1
    index 3: bounded (-1/3) at s=0, -sqrt(3)/4 at s=1

which is exactly the correspondence produced by continuation along the real
interval (0,1); branches 2 and 3 cross at s = 1/2.

The curve is rational.  With y = 1/G and a = 16 s (1-s) the cubic reads
y^3 + 3 y^2 = a, and z = y + 1 solves z^3 - 3 z = a - 2.  Viete's substitution
z = 2 cos(theta) and s = sin(psi)^2 turn this into cos(3 theta) = -cos(4 psi),
so G_k = 1/(2 cos(theta_k) - 1) with theta_k = (pi - 4 psi + 2 pi k)/3, and
the labels 1, 2, 3 are k = 0, 2, 1 (``closed_form_g_triple``).  Every branch
value is then one asin, one acos and two sines, and the crossing at s = 1/2
is the regular point psi = pi/4.  A loop round s = 0 sends psi to -psi and a
loop round s = 1 sends it to pi - psi: the transpositions (1 2) and (1 3)
that ``loop_permutation`` reads from the exact series.  ``continue_triple``,
which serves the monodromy loops and traces, continues psi along its path
piece by piece, each piece kept short against its distance to s = 0 and 1.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import pairwise, repeat
from operator import add, itemgetter, mul

from .airy_borel import borel_series
from .errors import NumericError, PreconditionError, VerificationError
from .series import ExactScalar, PuiseuxSeries

SQRT3 = 3.0 ** 0.5
_INF = float("inf")

# terms of the exact anchor series, which start a trace, give the loop
# permutations and fix the closed form's labels
ANCHOR_SERIES_TERMS = 32

LOOP_RADIUS_CAP = 0.35  # largest radius of a monodromy loop's polygon
LOOP_VERTICES = 4       # corners of a monodromy loop's polygon
POLISH_ITERATIONS = 8   # Newton steps of _polish_cubic at most
MAX_HALVINGS = 40
# longest piece of a continuation, as a fraction of the distance from its start
# to the nearer branch point of the cubic, s = 0 or 1
STEP_REACH = 0.5

# root distance below which solve_cubic_x repairs a double root
CLUSTER_TOL = 1e-6

_LABEL_SWAP_AT_1 = {1: 1, 2: 3, 3: 2}  # anchor-1 label -> anchor-0 series shape


# ---------------------------------------------------------------------------
# square-root determinations
# ---------------------------------------------------------------------------

def sqrt_s(s: complex) -> complex:
    """Principal root; positive for s > 0, matching the base-point convention."""
    return cmath.sqrt(s)


def sqrt_one_minus_s(s: complex) -> complex:
    """Principal root of 1-s; positive for real s < 1."""
    return cmath.sqrt(1 - s)


def default_sqrt_rule(s: complex) -> complex:
    """s^(1/2) (1-s)^(1/2) with principal roots on both factors."""
    return sqrt_s(s) * sqrt_one_minus_s(s)


# ---------------------------------------------------------------------------
# exact local series
# ---------------------------------------------------------------------------

def _local_c_series(var: str, trunc: Fraction) -> PuiseuxSeries:
    """Series of t^(1/2) (1-t)^(1/2) in the local variable t at either base."""
    body = PuiseuxSeries(var, {Fraction(0): 1, Fraction(1): -1}, trunc)
    return PuiseuxSeries.monomial(var, Fraction(1, 2), 1, trunc) * body.sqrt()


def _newton_root_series(c_series: PuiseuxSeries, seed: PuiseuxSeries,
                        trunc: Fraction) -> PuiseuxSeries:
    """Solve 16 X^3 - 3 X - c = 0 in the truncated Puiseux ring by Newton.

    The working precision doubles from 1/2 (Brent & Kung, J. ACM 25, 1978).
    While the residual vanishes at the working precision, the current iterate
    is already right there and the precision doubles without a step; so the
    first step runs at the precision the seed fixes, never where 48 X^2 - 3
    is still zero, as it is at a double root of the cubic.  The
    result keeps the truncation of a full-precision iteration: each step
    lowers it by what dividing by 48 X^2 - 3 costs.
    """
    x, known, prec = seed, trunc, Fraction(1, 2)
    for _ in range(200):
        prec = min(prec, known)
        xp = x._known_to(prec)
        f = xp * xp * xp * 16 - xp * 3 - c_series.truncate(prec)
        if f.is_zero():
            if prec == known:
                return xp
        else:
            x = xp - f / (xp * xp * 48 - 3)
            known -= prec - x.truncation
        prec *= 2
    raise NumericError("series Newton did not stabilize")


@lru_cache(maxsize=None)
def _x_series_shape(shape: int, n_terms: int) -> PuiseuxSeries:
    """Anchor-0 expansion of X for the given seed shape, in the local variable.

    shape 1: +sqrt(3)/4 + t^(1/2)/6 + ...; shape 2: the -sqrt(3)/4 mirror;
    shape 3: the bounded branch -(1/3) t^(1/2) - ...
    """
    var = "t"
    trunc = Fraction(n_terms, 2)
    c = _local_c_series(var, trunc)
    if shape == 1:
        seed = PuiseuxSeries.monomial(var, 0, ExactScalar(0, Fraction(1, 4)), trunc)
    elif shape == 2:
        seed = PuiseuxSeries.monomial(var, 0, ExactScalar(0, Fraction(-1, 4)), trunc)
    elif shape == 3:
        seed = PuiseuxSeries.monomial(var, Fraction(1, 2), Fraction(-1, 3), trunc)
    else:
        raise PreconditionError(f"unknown branch shape {shape}")
    return _newton_root_series(c, seed, trunc)


@lru_cache(maxsize=None)
def _g_series_shape(shape: int, n_terms: int) -> PuiseuxSeries:
    """Anchor expansion of the scaled branch G = X / (t^(1/2)(1-t)^(1/2))."""
    x_series = _x_series_shape(shape, n_terms + 2)
    c = _local_c_series("t", Fraction(n_terms + 2, 2))
    return (x_series / c).truncate(Fraction(n_terms - 1, 2))


def _anchor_series(anchor: int, n_terms: int) -> list[PuiseuxSeries]:
    """The series of G_1, G_2, G_3 at a base point, to ``n_terms``
    half-integer steps in the local variable."""
    return [_g_series_shape(index if anchor == 0 else _LABEL_SWAP_AT_1[index], n_terms)
            for index in (1, 2, 3)]


@dataclass(frozen=True)
class BranchLabel:
    """Identifies one root of the cubic family by its local expansion."""

    family: str          # "X" or "g"
    index: int           # 1, 2, 3
    anchor: int          # base point: 0 or 1

    def __post_init__(self):
        if self.family not in ("X", "g"):
            raise PreconditionError(f"unknown family {self.family!r}")
        if self.index not in (1, 2, 3):
            raise PreconditionError(f"branch index must be 1..3, got {self.index}")
        if self.anchor not in (0, 1):
            raise PreconditionError(f"anchor must be 0 or 1, got {self.anchor}")


def branch_series(label: BranchLabel, order: int) -> PuiseuxSeries:
    """Exact local expansion, to ``order`` half-integer steps, at the anchor.

    The local variable is s^(1/2) at anchor 0 and (1-s)^(1/2) at anchor 1
    (series returned in the symbolic variable "t" = local s).  Family "g"
    returns the x-scaled branch G = x*g.
    """
    if order < 1:
        raise PreconditionError("order must be >= 1")
    shape = label.index if label.anchor == 0 else _LABEL_SWAP_AT_1[label.index]
    if label.family == "X":
        return _x_series_shape(shape, order)
    return _g_series_shape(shape, order)


# ---------------------------------------------------------------------------
# numeric roots
# ---------------------------------------------------------------------------

# omega ** k, k = 0, 1, 2, for the primitive cube root omega of unity
_OMEGA_POWERS = tuple(complex(-0.5, SQRT3 / 2) ** k for k in range(3))


def _depressed_cubic_roots(p: complex, q: complex) -> tuple[complex, complex, complex]:
    """Roots of t^3 + p t + q by Cardano, deterministic branch choices."""
    if p == 0 and q == 0:
        return (0j, 0j, 0j)
    disc = (q / 2) ** 2 + (p / 3) ** 3
    half_q = -q / 2
    u3 = half_q + cmath.sqrt(disc)
    if abs(u3) < 1e-30:
        u3 = half_q - cmath.sqrt(disc)
    u = u3 ** (1.0 / 3.0)
    w0, w1, w2 = _OMEGA_POWERS
    u0, u1, u2 = u * w0, u * w1, u * w2
    return (u0 - p / (3 * u0), u1 - p / (3 * u1), u2 - p / (3 * u2))


def _polish_cubic(a3: complex, a1: complex, a0: complex, root: complex) -> complex:
    """Newton polish of a root of a3 t^3 + a1 t + a0 (guarded near F' = 0)."""
    t = root
    a3_3 = 3 * a3
    for _ in range(POLISH_ITERATIONS):
        a3_tt = a3 * t * t
        fp = a3_3 * t * t + a1
        # the guards compare with max(1.0, |.|), written out
        size = abs(a3_tt)
        if abs(fp) < 1e-13 * (size if size > 1.0 else 1.0):
            break
        step = (a3_tt * t + a1 * t + a0) / fp
        t -= step
        size = abs(t)
        if abs(step) <= 1e-16 * (size if size > 1.0 else 1.0):
            break
    return t


def solve_cubic_g(s: complex) -> tuple[complex, complex, complex]:
    """All roots of 16 s (1-s) G^3 - 3 G - 1 = 0, unordered but polished.

    An oracle with no caller in the package: every branch value comes from
    ``closed_form_g_triple``, and the tests hold those values against this
    Cardano solve with Newton polishing, which shares no code with it; the
    benchmark counts its calls.  A point s where 16 s (1-s) is NaN or
    infinite raises PreconditionError.
    """
    a3 = 16 * s * (1 - s)
    size = abs(a3)
    # one chained comparison on the hot path; NaN fails it too
    if not 1e-12 <= size < _INF:
        if size < 1e-12:
            raise NumericError(f"cubic degenerates at s = {s}")
        raise PreconditionError(f"16 s (1-s) is not finite at s = {s!r}")
    r0, r1, r2 = _depressed_cubic_roots(-3 / a3, -1 / a3)
    return (_polish_cubic(a3, -3, -1, r0), _polish_cubic(a3, -3, -1, r1),
            _polish_cubic(a3, -3, -1, r2))


def solve_cubic_x(s: complex) -> tuple[complex, complex, complex]:
    """All roots of 16 X^3 - 3 X - c = 0 with c = s^(1/2)(1-s)^(1/2).

    Near-double roots (c near +-1/2) are refined on the derivative 48 X^2 - 3,
    whose simple zero pins the double root to full precision; the remaining
    simple root then follows from the vanishing root sum.  Roots are returned
    sorted by (real, imag).
    """
    c = default_sqrt_rule(s)
    roots = [(_polish_cubic(16, -3, -c, r))
             for r in _depressed_cubic_roots(-3 / 16, -c / 16)]
    # double-root repair
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(roots[i] - roots[j]) < CLUSTER_TOL:
                mean = (roots[i] + roots[j]) / 2
                # Newton on F' = 48 X^2 - 3 from the cluster mean
                t = complex(mean)
                for _ in range(60):
                    step = (48 * t * t - 3) / (96 * t)
                    t -= step
                    if abs(step) < 1e-16:
                        break
                if abs(16 * t**3 - 3 * t - c) < 1e-10:
                    third = -2 * t
                    roots = [t, t, _polish_cubic(16, -3, -c, third)]
                break
    roots.sort(key=lambda z: (round(z.real, 13), round(z.imag, 13)))
    return tuple(roots)


# ---------------------------------------------------------------------------
# anchored values and continuation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _anchor_terms(anchor: int) -> tuple:
    """The series of ``anchored_g_triple`` at an anchor, converted from the
    exact coefficients once: the powers of the local root they use, and per
    branch its complex coefficients with a getter of their powers' values."""
    series = [g.terms for g in _anchor_series(anchor, ANCHOR_SERIES_TERMS)]
    powers = sorted({int(2 * e) for terms in series for e in terms})
    where = {power: k for k, power in enumerate(powers)}
    return tuple(powers), tuple(
        (tuple(complex(coeff) for coeff in terms.values()),
         itemgetter(*(where[int(2 * e)] for e in terms)))
        for terms in series)


def anchored_g_triple(anchor: int, local_root: complex) -> tuple[complex, complex, complex]:
    """(G_1, G_2, G_3) near a base point, from the exact series.

    ``local_root`` is the chosen determination of s^(1/2) (anchor 0) or
    (1-s)^(1/2) (anchor 1); passing it explicitly is what selects the branch
    orientation, see ``resummation.RayField._local_root``.
    """
    if local_root == 0:
        raise PreconditionError("branch values diverge at the base point itself")
    if not cmath.isfinite(local_root):
        raise PreconditionError(f"local root {local_root!r} is not finite")
    powers, ((c1, pick1), (c2, pick2), (c3, pick3)) = _anchor_terms(anchor)
    values = list(map(pow, repeat(local_root), powers))
    # each sum runs from 0j through the terms in series order, as a loop of +=
    return (reduce(add, map(mul, c1, pick1(values)), 0j),
            reduce(add, map(mul, c2, pick2(values)), 0j),
            reduce(add, map(mul, c3, pick3(values)), 0j))


def _g_triple(psi: complex, chi: complex) -> tuple[complex, complex, complex]:
    """(G_1, G_2, G_3) at s = sin(psi)^2, from Viete's closed form.

    ``chi`` is pi/2 - psi, passed on its own so that neither angle needs to
    be formed by cancellation.  2 cos(theta) - 1 is written as
    -4 sin((theta + pi/3)/2) sin((theta - pi/3)/2), whose half angles are
    (pi (k+1) - 2 psi)/3 and (pi k - 2 psi)/3; for k = 0, 1, 2 their sines are
    (q, -p), (r, q) and (p, r), with p = sin(2 psi/3), q = sin(2 chi/3) and
    r = sin((2 pi - 2 psi)/3) = p + q.  So a value that diverges at s = 0 or 1
    does so through a small p or q computed at full relative accuracy.  The
    labels 1, 2, 3 are k = 0, 2, 1, so the triple is written out in that order.
    """
    p = cmath.sin(psi * (2 / 3))
    q = cmath.sin(chi * (2 / 3))
    r = p + q
    return (-0.25 / (q * -p), -0.25 / (p * r), -0.25 / (r * q))


def closed_form_g_triple(anchor: int, local_root: complex) -> tuple[complex, complex, complex]:
    """(G_1, G_2, G_3) from the closed form, labelled as ``anchored_g_triple``
    labels them for the same ``local_root``.

    psi is asin of the local root at anchor 0, where the root is s^(1/2), and
    acos of it at anchor 1, where it is (1-s)^(1/2); pi/2 - psi is the other of
    the two.  Both are principal, and along a ray from its anchor the local
    root keeps clear of their cuts on the real axis outside [-1, 1] wherever
    the ray does not lie on the real axis of s.  A local root that is not
    finite, or where a branch diverges (0, or +-1 at the other base point),
    raises PreconditionError.
    """
    if not cmath.isfinite(local_root):
        raise PreconditionError(f"local root {local_root!r} is not finite")
    if local_root == 0 or local_root * local_root == 1:
        raise PreconditionError("branch values diverge at the base points s = 0 and 1")
    arc_sin, arc_cos = cmath.asin(local_root), cmath.acos(local_root)
    if anchor == 0:
        return _g_triple(arc_sin, arc_cos)
    return _g_triple(arc_cos, arc_sin)


def _psi_triple(psi: complex) -> tuple[complex, complex, complex]:
    """(G_1, G_2, G_3) at the angle psi of a continuation."""
    return _g_triple(psi, cmath.pi / 2 - psi)


# relative residual of the scaled cubic, or relative sum of the three values,
# above which a start triple is refused; also the relative distance from the
# nearest closed-form triple below which a start triple is taken without
# that diagnosis
START_TRIPLE_TOL = 1e-8


def _start_triple_fault(s: complex, triple: tuple) -> str | None:
    """Why ``triple`` cannot start a continuation at s, or None if it can: a
    value is not finite, a value leaves 16 s (1-s) G^3 - 3 G - 1 a relative
    residual above START_TRIPLE_TOL, or the three do not sum to 0 as the
    three roots do (the cubic has no G^2 term)."""
    if not all(cmath.isfinite(g) for g in triple):
        return "is not finite"
    a3 = 16 * s * (1 - s)
    for g in triple:
        residual = abs((a3 * g * g - 3) * g - 1)
        if residual > START_TRIPLE_TOL * (abs(a3 * g * g * g) + 3 * abs(g) + 1):
            return (f"does not solve the cubic: G = {g!r} leaves the residual "
                    f"{residual:.3g}")
    total = sum(triple)
    if abs(total) > START_TRIPLE_TOL * sum(abs(g) for g in triple):
        return f"is not the three roots of the cubic: its values sum to {total!r}"
    return None


def _start_psi(s: complex, triple: tuple) -> complex:
    """The angle psi at s whose closed-form triple is ``triple``, in order.

    sin(psi)^2 = s has the determinations +-psi_0 + n pi, and the ordered triple
    repeats when psi moves by 3 pi, so the six with n = 0, 1, 2 give the six
    orders of the roots; the nearest to ``triple`` is taken.  Where it is
    farther than START_TRIPLE_TOL relative, the triple is diagnosed, and one
    that is not finite or is not the root triple of the cubic at s
    (``_start_triple_fault``) raises PreconditionError.
    """
    psi0 = cmath.asin(cmath.sqrt(s))
    candidates = [sign * psi0 + n * cmath.pi for sign in (1, -1) for n in range(3)]
    distance, psi = min(
        ((max(abs(a - b) for a, b in zip(_psi_triple(c), triple)), c) for c in candidates),
        key=itemgetter(0))
    if not distance <= START_TRIPLE_TOL * max(1.0, *map(abs, triple)):
        fault = _start_triple_fault(s, triple)
        if fault is not None:
            raise PreconditionError(f"start triple {triple!r} at s = {s!r} {fault}")
    return psi


def _continued_psi(s0: complex, psi: complex, s1: complex) -> complex:
    """psi at s0 continued along the segment to s1.

    A segment longer than STEP_REACH times the distance from its start to the
    nearer branch point, s = 0 or 1, is bisected; a piece that is short enough
    ends on the determination +-psi_1 + n pi of psi at s1 nearest its start
    value.  The wrong determinations lie at 2 |psi - n pi/2| from the right
    one, which is small only near s = 0 and 1, and the piece length keeps its
    change in psi a few times smaller than that.  ``continue_triple`` refuses
    a segment before it would be bisected more than MAX_HALVINGS times.
    """
    if abs(s1 - s0) > STEP_REACH * min(abs(s0), abs(1 - s0)):
        mid = (s0 + s1) / 2
        return _continued_psi(mid, _continued_psi(s0, psi, mid), s1)
    psi1 = cmath.asin(cmath.sqrt(s1))
    near = psi1 + round((psi - psi1).real / cmath.pi) * cmath.pi
    far = -psi1 + round((psi + psi1).real / cmath.pi) * cmath.pi
    return near if abs(near - psi) <= abs(far - psi) else far


def _closest_approach(s0: complex, s1: complex, point: int) -> float:
    """The distance from ``point`` to the segment s0 -> s1."""
    ds = s1 - s0
    # the projection's parameter along ds; a complex quotient does not overflow
    # where |ds|^2 would
    t = ((point - s0) / ds).real if ds else 0.0
    return abs(s0 + min(max(t, 0.0), 1.0) * ds - point)


def _checked_path(path: list) -> list[complex]:
    """The waypoints of a continuation as complex numbers, after refusing
    every segment that is not finite or that is longer than
    2^MAX_HALVINGS * STEP_REACH times its closest approach to the branch
    point s = 0 or s = 1: ``_continued_psi`` would halve it more than
    MAX_HALVINGS times for its piece nearest that point, and a segment
    through the point has no such piece.  Refusals raise PreconditionError."""
    points = [complex(s) for s in path]
    reach = 2 ** MAX_HALVINGS * STEP_REACH
    for s0, s1 in pairwise(points):
        span = abs(s1 - s0)
        if not cmath.isfinite(span):
            raise PreconditionError(f"path segment {s0!r} -> {s1!r} is not finite")
        gap, point = min((_closest_approach(s0, s1, point), point) for point in (0, 1))
        if span > reach * gap:
            raise PreconditionError(
                f"path segment {s0!r} -> {s1!r} comes within {gap:.3g} of the branch point "
                f"s = {point}, and is longer than 2^MAX_HALVINGS * STEP_REACH times that distance")
    return points


def continue_triple(path: list, triple: tuple) -> tuple:
    """Continue an ordered root triple along a polyline of s-waypoints.

    The triple fixes the angle psi at path[0] (``_start_psi``), psi is
    continued segment by segment (``_continued_psi``), and the closed form
    gives the triple at the end; the monodromy loops and the tests walk this
    way.  Every segment is checked before any is walked (``_checked_path``),
    and a start triple that is not the cubic's root triple at path[0] raises
    PreconditionError.
    """
    points = _checked_path(path)
    psi = _start_psi(points[0], triple)
    for s0, s1 in pairwise(points):
        psi = _continued_psi(s0, psi, s1)
    return _psi_triple(psi)


# largest |start| of trace_branch: its first value comes from the exact series
# at s = 0, which must still be accurate there
TRACE_START_MAX = 0.35


def trace_branch(family: str, index: int, start: float, stop: float,
                 samples: int) -> list[tuple[float, complex]]:
    """(s, value) of branch ``index`` of ``family`` ("X" or "g") at ``samples``
    evenly spaced points from ``start`` to ``stop``.

    The branch is labelled at the base point 0: its value at ``start`` comes
    from the exact series there, and psi = asin(s^(1/2)), which the closed form
    labels the same way, is continued from sample to sample.
    """
    BranchLabel(family, index, 0)  # rejects an unknown family or index
    if abs(start) > TRACE_START_MAX:
        raise PreconditionError("start point too far from the anchor for the series")
    if samples < 2:
        raise PreconditionError(f"a trace needs at least 2 samples, got {samples}")
    path = [start + (stop - start) * k / (samples - 1) for k in range(samples)]
    _checked_path(path)
    triple = anchored_g_triple(0, sqrt_s(start))
    psi = cmath.asin(sqrt_s(start))
    out = []
    for k, s in enumerate(path):
        if k > 0:
            psi = _continued_psi(path[k - 1], psi, s)
            triple = _psi_triple(psi)
        value = triple[index - 1]
        if family == "X":
            value *= default_sqrt_rule(s)
        out.append((s, value))
    return out


# ---------------------------------------------------------------------------
# monodromy
# ---------------------------------------------------------------------------

def _loop_path(s: complex, center: complex):
    """A closed path from s once counterclockwise around ``center``.

    Walks radially in to a capped radius, goes round a regular polygon of
    LOOP_VERTICES corners on that circle, and walks back out, so the loop
    never strays near the other branch point; ``_continued_psi`` cuts each
    chord into the pieces it needs.
    """
    rho = abs(s - center)
    if rho < 1e-9:
        raise PreconditionError("cannot loop around the point itself")
    r0 = min(rho, LOOP_RADIUS_CAP)
    direction = (s - center) / rho
    path = []
    if rho > r0:
        path.append(center + direction * r0)
    phase0 = cmath.phase(direction)
    for k in range(1, LOOP_VERTICES + 1):
        ang = phase0 + 2 * cmath.pi * k / LOOP_VERTICES
        path.append(center + r0 * cmath.exp(1j * ang))
    if rho > r0:
        path.append(s)
    return path


def monodromy_triple(s: complex, triple: tuple, center: complex) -> tuple:
    """Continue the ordered triple once counterclockwise around ``center``,
    along ``_loop_path``: the numeric loop that the tests hold
    ``loop_permutation`` against."""
    return continue_triple([s, *_loop_path(s, center)], triple)


@lru_cache(maxsize=None)
def loop_permutation(anchor: int, n_terms: int = ANCHOR_SERIES_TERMS) -> tuple[int, int, int]:
    """The permutation pi of the branch triple by one loop around the base
    point ``anchor``, read from its exact series: the looped value of entry i
    is entry pi[i].

    A loop around the base point turns the local root u^(1/2) into -u^(1/2),
    so branch i continued round it has the series of G_i with the terms of
    odd grid index negated, and it goes to the one branch whose series that
    is.  The negation is its own inverse, so either orientation of the loop
    gives pi.  A summation ray carries the labels of its base point's series
    outward, and G branches only at s = 0, 1 and infinity, so pi is also the
    permutation of the ray's triple by a loop round that base point from any
    point of the ray (``monodromy_triple``).  The discontinuity of entry i is
    then ``triple[pi[i]] - triple[i]``: Delta at 0 of branch 2 is g_1 - g_2,
    and Delta at 1 of branch 3 is g_1 - g_3.  ``n_terms`` defaults to the
    series ``anchored_g_triple`` evaluates.  The series are fixed, so each
    (anchor, n_terms) is read once and cached.

    Raises PreconditionError for an anchor other than 0 or 1, and
    VerificationError when a negated series equals none of the three, or
    more than one.
    """
    if anchor not in (0, 1):
        raise PreconditionError(f"anchor must be 0 or 1, got {anchor}")
    series = _anchor_series(anchor, n_terms)
    images = [[j for j, other in enumerate(series) if other == looped]
              for looped in (g.negate_root() for g in series)]
    if any(len(found) != 1 for found in images):
        raise VerificationError(
            f"a loop round s = {anchor} sends branches 1, 2, 3 to the branches "
            f"{images} (counted from 0), not to one each")
    return tuple(found[0] for found in images)


# ---------------------------------------------------------------------------
# exact identity verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchIdentityReport:
    order: Fraction
    plus_identity: bool
    minus_identity: bool
    sum_zero_anchor0: bool
    sum_zero_anchor1: bool
    two_g1_plus_g2_form: bool
    loop_anchor0: str | None
    loop_anchor1: str | None

    @property
    def passed(self) -> bool:
        return (self.plus_identity and self.minus_identity
                and self.sum_zero_anchor0 and self.sum_zero_anchor1
                and self.two_g1_plus_g2_form
                and self.loop_anchor0 == "(1 2)" and self.loop_anchor1 == "(1 3)")


def _series_equal_through(a: PuiseuxSeries, b: PuiseuxSeries, order: Fraction) -> bool:
    exps = {e for e in a.terms if e <= order} | {e for e in b.terms if e <= order}
    return all(a.coeff(e) == b.coeff(e) for e in exps)


def _loop_cycles(anchor: int, n_terms: int) -> str | None:
    """``loop_permutation`` in cycle notation on the labels 1..3, "()" for
    the identity, or None where the series give no permutation.  The
    permutation is an involution, so its cycles are transpositions."""
    try:
        perm = loop_permutation(anchor, n_terms)
    except VerificationError:
        return None
    return "".join(f"({i + 1} {j + 1})" for i, j in enumerate(perm) if i < j) or "()"


def verify_branch_identities(order: int) -> BranchIdentityReport:
    """Termwise identities tying the Borel expansions to branch differences.

    Checks, as exact Puiseux identities through the given s-order:
    sqrt(pi) x psi_plus_B  = (X_1 - X_2)/(s(1-s))^(1/2)   at the base point 0,
    sqrt(pi) x psi_minus_B / i = (X_1 - X_3)/(s(1-s))^(1/2) at the base point 1,
    plus the root-sum relation g_3 = -g_1 - g_2 at both base points and the
    equivalent (2 g_1 + g_2) form of the minus combination.  It reports the
    loop permutation at each base point, read exactly from the same series
    (``loop_permutation``): it must be (1 2) at s = 0 and (1 3) at s = 1.
    """
    if order < 2:
        raise PreconditionError("order must be >= 2")
    n_terms = 2 * order + 6
    half = ExactScalar(0, Fraction(1, 2))  # sqrt(3)/2
    limit = Fraction(order)

    g_at_0 = _anchor_series(0, n_terms)
    g_at_1 = _anchor_series(1, n_terms)

    borel_plus = borel_series(order + 2, "+").series
    lhs_plus = PuiseuxSeries("t", borel_plus.terms, borel_plus.truncation) * half
    rhs_plus = g_at_0[0] - g_at_0[1]
    plus_ok = _series_equal_through(lhs_plus, rhs_plus, limit)

    borel_minus = borel_series(order + 2, "-").series
    lhs_minus = PuiseuxSeries("t", borel_minus.terms, borel_minus.truncation) * half
    rhs_minus = g_at_1[0] - g_at_1[2]
    minus_ok = _series_equal_through(lhs_minus, rhs_minus, limit)

    zero0 = (g_at_0[0] + g_at_0[1] + g_at_0[2]).truncate(limit).is_zero()
    zero1 = (g_at_1[0] + g_at_1[1] + g_at_1[2]).truncate(limit).is_zero()

    alt = (g_at_1[0] * 2 + g_at_1[1])
    alt_ok = _series_equal_through(alt, rhs_minus, limit)

    return BranchIdentityReport(limit, plus_ok, minus_ok, zero0, zero1, alt_ok,
                                _loop_cycles(0, n_terms), _loop_cycles(1, n_terms))


# ---------------------------------------------------------------------------
# the unscaled cubic in (x, y): numeric checks of the PDE system
# ---------------------------------------------------------------------------

def solve_cubic_g_xy(x: complex, y: complex) -> tuple[complex, complex, complex]:
    """Roots of (9 y^2 - 4 x^3) g^3 + 3 x g + 1 = 0."""
    a3 = 9 * y * y - 4 * x ** 3
    if abs(a3) < 1e-12:
        raise NumericError("cubic degenerates on the caustic 4x^3 = 9y^2")
    return tuple(_polish_cubic(a3, 3 * x, 1, r)
                 for r in _depressed_cubic_roots(3 * x / a3, 1 / a3))


def g_pde_residuals(x: complex, y: complex, g: complex) -> tuple[float, float]:
    """Relative residuals of the two holonomic equations satisfied by g.

    First equation: -g_xx + x g_yy = 0; second: 2x g_x + 3y g_y + 2g = 0.
    All partials come from implicit differentiation of the cubic.
    """
    a = 9 * y * y - 4 * x ** 3
    f_g = 3 * a * g * g + 3 * x
    f_x = -12 * x * x * g ** 3 + 3 * g
    f_y = 18 * y * g ** 3
    g_x = -f_x / f_g
    g_y = -f_y / f_g
    f_xx = -24 * x * g ** 3
    f_xg = -36 * x * x * g * g + 3
    f_yy = 18 * g ** 3
    f_yg = 54 * y * g * g
    f_gg = 6 * a * g
    g_xx = -(f_xx + 2 * f_xg * g_x + f_gg * g_x * g_x) / f_g
    g_yy = -(f_yy + 2 * f_yg * g_y + f_gg * g_y * g_y) / f_g
    r1 = -g_xx + x * g_yy
    scale1 = abs(g_xx) + abs(x * g_yy) + 1e-300
    r2 = 2 * x * g_x + 3 * y * g_y + 2 * g
    scale2 = abs(2 * x * g_x) + abs(3 * y * g_y) + abs(2 * g) + 1e-300
    return (abs(r1) / scale1, abs(r2) / scale2)
