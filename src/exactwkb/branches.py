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
interval (0,1); branches 2 and 3 cross at s = 1/2 where the tracker switches
to the local crossing chart and disambiguates by the sign of the linear term.

The tracker's kernel, ``step_triple``, sizes its own steps from the geometry of
the cubic: a step longer than STEP_REACH times the distance to the nearest of
s = 0, 1/2 and 1 is bisected, as is a step whose roots match ambiguously.  It
is the one step rule of every continuation: a summation ray
(``resummation.RayField``) calls it once per quadrature node, straight from
the nearest cached node, and ``continue_triple``, which serves the monodromy
loops and traces, calls it once per pair of waypoints.
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

# |s - base| below which branch values come from the exact local series.
SERIES_ZONE = 0.10
ANCHOR_SERIES_TERMS = 32

# Crossing chart around s = 1/2.
CHART_ZONE = 0.04
CHART_TIGHT = 2e-3
CHART_TERMS = 16

LOOP_RADIUS_CAP = 0.35  # largest radius of a monodromy loop's polygon
LOOP_VERTICES = 4       # corners of a monodromy loop's polygon
POLISH_ITERATIONS = 8   # Newton steps of _polish_cubic at most
MATCH_MARGIN = 3.0
MAX_HALVINGS = 40
# longest step of step_triple, as a fraction of the distance from its start to
# the nearest special point of the cubic, s = 0, 1/2 or 1
STEP_REACH = 0.5
# distance from s = 1/2 below which a waypoint or a bisection midpoint is moved
# on by twice this along the direction of travel: the tracker must not sample
# the crossing itself, where the two crossing branches take one value
COLLISION_NUDGE = 1e-4

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
    is still zero, as it is at the double root of the crossing chart.  The
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


@lru_cache(maxsize=None)
def _crossing_charts(n_terms: int) -> tuple:
    """Exact expansions at s = 1/2: (X for branch 2, X for branch 3, X simple,
    and the same three in G form), all in the local variable d = s - 1/2."""
    var = "d"
    trunc = Fraction(n_terms)
    c = PuiseuxSeries(var, {Fraction(0): Fraction(1, 4), Fraction(2): -1}, trunc).sqrt()
    quarter = Fraction(-1, 4)
    seed_plus = PuiseuxSeries(var, {Fraction(0): quarter,
                                    Fraction(1): ExactScalar(0, Fraction(1, 6))}, trunc)
    seed_minus = PuiseuxSeries(var, {Fraction(0): quarter,
                                     Fraction(1): ExactScalar(0, Fraction(-1, 6))}, trunc)
    seed_simple = PuiseuxSeries.monomial(var, 0, Fraction(1, 2), trunc)
    x_plus = _newton_root_series(c, seed_plus, trunc)
    x_minus = _newton_root_series(c, seed_minus, trunc)
    x_simple = _newton_root_series(c, seed_simple, trunc)
    return (x_plus, x_minus, x_simple,
            x_plus / c, x_minus / c, x_simple / c)


def crossing_chart_series(branch: str, family: str = "X",
                          n_terms: int = CHART_TERMS) -> PuiseuxSeries:
    """Local expansion at the branch crossing s = 1/2.

    ``branch``: "plus" / "minus" for the two crossing branches (labels 2 and 3
    from anchor 0, in that order), "simple" for the third root.
    """
    charts = _crossing_charts(n_terms)
    idx = {"plus": 0, "minus": 1, "simple": 2}[branch]
    return charts[idx + (0 if family == "X" else 3)]


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

    A point s where 16 s (1-s) is NaN or infinite raises PreconditionError.
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


@lru_cache(maxsize=None)
def _chart_terms(branch: str) -> tuple:
    """The G form of ``crossing_chart_series(branch)`` as (power of d, complex
    coefficient) pairs, converted from the exact coefficients once.  The chart
    is a series in whole powers of d."""
    terms = crossing_chart_series(branch, "g").terms
    if any(e.denominator != 1 for e in terms):
        raise NumericError("crossing chart left the whole powers of d")
    return tuple((e.numerator, complex(coeff)) for e, coeff in terms.items())


def _chart_values(delta: complex) -> tuple[complex, complex, complex]:
    """G of the chart branches plus, minus and simple at s = 1/2 + delta."""
    out = []
    for branch in ("plus", "minus", "simple"):
        total = 0j
        for power, coeff in _chart_terms(branch):
            total += coeff * delta ** power
        out.append(total)
    return tuple(out)


def _match_indices(predicted: tuple, candidates, scale: float) -> tuple | None:
    """Index of the nearest of the three candidates for each predicted value,
    each candidate used once and the runner-up at least MATCH_MARGIN times
    farther; None on ambiguity.

    The nearest and the runner-up are found by comparisons, ties going to the
    lower index: for distances that are not NaN, the choices of sorting the
    (distance, index) pairs.  A NaN distance, from a NaN predicted value or
    candidate, is ambiguous and gives None.
    """
    c0, c1, c2 = candidates
    taken = [False, False, False]
    result = []
    for p in predicted:
        d0 = abs(p - c0) / scale
        d1 = abs(p - c1) / scale
        d2 = abs(p - c2) / scale
        if d0 <= d1:
            if d2 < d0:
                jbest, best, second = 2, d2, d0
            else:
                jbest, best, second = 0, d0, d2 if d2 < d1 else d1
        elif d2 < d1:
            jbest, best, second = 2, d2, d1
        else:
            jbest, best, second = 1, d1, d2 if d2 < d0 else d0
        # negated so that a NaN nearest or runner-up fails it; a NaN candidate
        # is never the nearest, so it is left unmatched and the match fails
        if taken[jbest] or not (best == 0 or second >= MATCH_MARGIN * best):
            return None
        taken[jbest] = True
        result.append(jbest)
    return tuple(result)


def step_triple(s0: complex, triple: tuple, s1: complex, depth: int = 0) -> tuple:
    """One continuation step for the ordered root triple of the scaled cubic.

    The step chooses its own size.  Outside the crossing chart, a step longer
    than STEP_REACH times the distance from s0 to the nearest special point of
    the cubic is bisected: s = 0 and 1, where 16 s (1-s) vanishes and a root
    runs off to infinity, and s = 1/2, where two roots meet (the discriminant
    is 27 a (4 - a) with a = 16 s (1-s)).  So a step that passes a branch point
    closely is taken in pieces that each keep their distance from it, however
    long the caller's step is.

    Each branch is predicted by an Euler step on dG/ds = -F_s / F_G, from
    implicit differentiation of the scaled cubic, and matched to a root at s1;
    an ambiguous match is bisected too.  A midpoint within COLLISION_NUDGE of
    s = 1/2 is moved on along the step, since the crossing itself does not
    tell its two branches apart.  Each bisection counts one level of depth,
    and a step deeper than MAX_HALVINGS raises NumericError.  On a
    root, F_G vanishes only at the double root G = -1/2 of s = 1/2, which the
    tracker reaches through the crossing chart; a prediction that meets
    F_G = 0 raises NumericError.
    """
    if depth > MAX_HALVINGS:
        raise NumericError(f"continuation step underflow near s = {s0}")

    in_chart = abs(s1 - 0.5) < CHART_ZONE or abs(s0 - 0.5) < CHART_ZONE
    if in_chart:
        return _step_triple_chart(s0, triple, s1, depth)

    ds = s1 - s0
    if abs(ds) > STEP_REACH * min(abs(s0), abs(s0 - 0.5), abs(1 - s0)):
        return _bisected_step(s0, triple, s1, depth)
    # the factors of F_s = 16 (1 - 2s) G^3 and F_G = 48 s (1 - s) G^2 - 3 at s0
    f_s0 = 16 * (1 - 2 * s0)
    f_g0 = 48 * s0 * (1 - s0)
    predicted = []
    for g in triple:
        f_s = f_s0 * g ** 3
        f_g = f_g0 * g ** 2 - 3
        if abs(f_g) < 1e-12:
            raise NumericError(f"dG/ds is undefined at the double root G = {g} of s = {s0}")
        predicted.append(g + -f_s / f_g * ds)
    candidates = solve_cubic_g(s1)
    # max(1.0, max(|g|)), written out
    g0, g1, g2 = triple
    scale = abs(g0)
    size = abs(g1)
    if size > scale:
        scale = size
    size = abs(g2)
    if size > scale:
        scale = size
    matched = _match_indices(predicted, candidates, scale if scale > 1.0 else 1.0)
    if matched is None:
        return _bisected_step(s0, triple, s1, depth)
    j0, j1, j2 = matched
    return (candidates[j0], candidates[j1], candidates[j2])


def _bisected_step(s0: complex, triple: tuple, s1: complex, depth: int) -> tuple:
    """The step from s0 to s1 as two steps through its midpoint, one level
    deeper; a midpoint on the crossing is nudged off it along the step."""
    mid = (s0 + s1) / 2
    if abs(mid - 0.5) < COLLISION_NUDGE:
        mid = _nudged(mid, s1 - s0)
    half = step_triple(s0, triple, mid, depth + 1)
    return step_triple(mid, half, s1, depth + 1)


def _step_triple_chart(s0: complex, triple: tuple, s1: complex, depth: int) -> tuple:
    """Continuation step near the crossing, matched against the exact chart.

    Each tracked branch is classified against chart values at the current
    point; the classification (plus / minus / simple) is then re-evaluated at
    the target point.  The two crossing branches pass each other analytically,
    so the classification is stable through delta = 0.
    """
    d0, d1 = s0 - 0.5, s1 - 0.5
    if max(abs(d0), abs(d1)) > 2.5 * CHART_ZONE:
        # too far for the chart to be trusted; force smaller steps
        return _bisected_step(s0, triple, s1, depth)

    ref0 = _chart_values(d0)
    ref1 = _chart_values(d1)
    assignment = []
    for g in triple:
        dists = sorted((abs(g - r), k) for k, r in enumerate(ref0))
        assignment.append(dists[0][1])
    if sorted(assignment) != [0, 1, 2]:
        if abs(d0) < 1e-12:
            # started exactly at the collision: both crossing values coincide,
            # order is conventional
            seen = set()
            for i, g in enumerate(triple):
                dists = sorted((abs(g - r), k) for k, r in enumerate(ref0)
                               if k not in seen)
                assignment[i] = dists[0][1]
                seen.add(assignment[i])
        else:
            raise NumericError(f"chart classification ambiguous at s = {s0}")

    out = []
    for i in range(3):
        target = ref1[assignment[i]]
        if abs(d1) > CHART_TIGHT:
            target = _polish_cubic(16 * s1 * (1 - s1), -3, -1, target)
        out.append(target)
    return tuple(out)


# relative residual of the scaled cubic, or relative sum of the three values,
# above which a failed continuation is put down to its start triple
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


def _nudged(s: complex, direction: complex) -> complex:
    """s moved by 2 COLLISION_NUDGE along ``direction``, off the crossing."""
    return s + 2 * COLLISION_NUDGE * direction / max(abs(direction), 1e-30)


def _closest_approach(s0: complex, s1: complex, point: int) -> float:
    """The distance from ``point`` to the segment s0 -> s1."""
    ds = s1 - s0
    # the projection's parameter along ds; a complex quotient does not overflow
    # where |ds|^2 would
    t = ((point - s0) / ds).real if ds else 0.0
    return abs(s0 + min(max(t, 0.0), 1.0) * ds - point)


def continue_triple(path: list, triple: tuple) -> tuple:
    """Continue an ordered root triple along a polyline of s-waypoints.

    Each segment is one ``step_triple`` call, which cuts it into the pieces
    the cubic asks for; the monodromy loops, ``trace_branch`` and the tests
    walk this way, and a summation ray calls ``step_triple`` directly.
    Interior waypoints within COLLISION_NUDGE of the crossing s = 1/2 are
    nudged along the direction of travel, as the kernel's midpoints are.

    A segment that is not finite, or that is longer than 2^MAX_HALVINGS *
    STEP_REACH times its closest approach to the branch point s = 0 or s = 1,
    raises PreconditionError before any step is taken: the kernel would halve
    it more than MAX_HALVINGS times for its piece nearest that point, and a
    segment through the point has no such piece.  A continuation
    that fails with NumericError raises PreconditionError instead when the
    start triple is at fault: it is not finite or is not the root triple of
    the cubic at path[0] (``_start_triple_fault``, which only a failed call
    runs).
    """
    points = [complex(s) for s in path]
    for i in range(1, len(points) - 1):
        if abs(points[i] - 0.5) < COLLISION_NUDGE:
            points[i] = _nudged(points[i], points[i + 1] - points[i - 1])
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
    current = triple
    try:
        for s0, s1 in pairwise(points):
            current = step_triple(s0, current, s1)
    except NumericError as err:
        fault = _start_triple_fault(points[0], triple)
        if fault is None:
            raise
        raise PreconditionError(
            f"start triple {triple!r} at s = {points[0]!r} {fault}") from err
    return current


# largest |start| of trace_branch: its first value comes from the exact series
# at s = 0, which must still be accurate there
TRACE_START_MAX = 0.35


def trace_branch(family: str, index: int, start: float, stop: float,
                 samples: int) -> list[tuple[float, complex]]:
    """(s, value) of branch ``index`` of ``family`` ("X" or "g") at ``samples``
    evenly spaced points from ``start`` to ``stop``.

    The branch is labelled at the base point 0: its value at ``start`` comes
    from the exact series there and is continued sample by sample.
    """
    BranchLabel(family, index, 0)  # rejects an unknown family or index
    if abs(start) > TRACE_START_MAX:
        raise PreconditionError("start point too far from the anchor for the series")
    if samples < 2:
        raise PreconditionError(f"a trace needs at least 2 samples, got {samples}")
    path = [start + (stop - start) * k / (samples - 1) for k in range(samples)]
    triple = anchored_g_triple(0, sqrt_s(start))
    out = []
    for k, s in enumerate(path):
        if k > 0:
            triple = continue_triple(path[k - 1:k + 1], triple)
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
    never strays near the other branch point or the crossing; the kernel
    sizes the steps along each chord.
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
    series ``anchored_g_triple`` evaluates.

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
