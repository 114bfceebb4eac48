"""A numeric root tracker for the scaled cubic 16 s (1-s) G^3 - 3 G - 1 = 0:
the independent oracle that the tests hold the closed-form branch values
against.

It knows nothing of the closed form.  A step predicts each branch by an
Euler step on dG/ds = -F_s / F_G, solves the cubic by Cardano with Newton
polishing, and matches each prediction to the nearest root, the runner-up at
least MATCH_MARGIN times farther.  A step longer than STEP_REACH times the
distance from its start to the nearest of s = 0, 1/2 and 1 is bisected
before anything is solved, and so is a step whose match is ambiguous.
Within CHART_ZONE of the crossing s = 1/2, where two roots meet, each branch
is classified against the exact crossing-chart series instead.

This is the package's tracker as it stood before the closed form replaced
it, composed of its small steps; ``TrackedRay`` is its summation ray, which
steps each new node from the nearest node already tracked.
"""

import bisect
import cmath
from fractions import Fraction
from functools import lru_cache

from exactwkb.branches import SQRT3, _newton_root_series
from exactwkb.errors import NumericError, PreconditionError
from exactwkb.series import ExactScalar, PuiseuxSeries

POLISH_ITERATIONS = 8
MATCH_MARGIN = 3.0
MAX_HALVINGS = 40
STEP_REACH = 0.5
# the crossing chart around s = 1/2: its zone, the distance below which its
# values are not polished, and its order
CHART_ZONE = 0.04
CHART_TIGHT = 2e-3
CHART_TERMS = 16
# distance from s = 1/2 below which a bisection midpoint or a waypoint is
# moved on by twice this along the direction of travel
COLLISION_NUDGE = 1e-4
# |s - base| up to which the tests start a tracked ray, a loop or an arc from
# the exact anchor series
SERIES_HANDOFF = 0.08


def cardano_roots(p, q):
    """Roots of t^3 + p t + q by Cardano."""
    if p == 0 and q == 0:
        return (0j, 0j, 0j)
    disc = (q / 2) ** 2 + (p / 3) ** 3
    u3 = -q / 2 + cmath.sqrt(disc)
    if abs(u3) < 1e-30:
        u3 = -q / 2 - cmath.sqrt(disc)
    u = u3 ** (1.0 / 3.0)
    omega = complex(-0.5, SQRT3 / 2)
    roots = []
    for k in range(3):
        uk = u * omega ** k
        roots.append(uk - p / (3 * uk))
    return tuple(roots)


def newton_polish(a3, a1, a0, root):
    """Newton polish of a root of a3 t^3 + a1 t + a0, guarded near F' = 0."""
    t = root
    for _ in range(POLISH_ITERATIONS):
        f = (a3 * t * t * t) + a1 * t + a0
        fp = 3 * a3 * t * t + a1
        if abs(fp) < 1e-13 * max(1.0, abs(a3 * t * t)):
            break
        step = f / fp
        t -= step
        if abs(step) <= 1e-16 * max(1.0, abs(t)):
            break
    return t


def solve_cubic(s):
    """The three roots of the scaled cubic at s, unordered."""
    a3 = 16 * s * (1 - s)
    if abs(a3) < 1e-12:
        raise NumericError(f"cubic degenerates at s = {s}")
    if not cmath.isfinite(a3):
        raise PreconditionError(f"16 s (1-s) is not finite at s = {s!r}")
    return tuple(newton_polish(a3, -3, -1, r) for r in cardano_roots(-3 / a3, -1 / a3))


def g_derivative(s, g):
    f_s = 16 * (1 - 2 * s) * g ** 3
    f_g = 48 * s * (1 - s) * g ** 2 - 3
    if abs(f_g) < 1e-12:
        raise NumericError(f"dG/ds is undefined at the double root G = {g} of s = {s}")
    return -f_s / f_g


def match_indices(predicted, candidates, scale):
    """The index of the nearest candidate for each predicted value, each
    candidate used once and the runner-up at least MATCH_MARGIN times
    farther; None on ambiguity, a NaN distance included."""
    taken = [False] * 3
    result = []
    for p in predicted:
        d0, d1, d2 = [abs(p - c) / scale for c in candidates]
        if d0 <= d1:
            if d2 < d0:
                jbest, best, second = 2, d2, d0
            else:
                jbest, best, second = 0, d0, min(d1, d2)
        elif d2 < d1:
            jbest, best, second = 2, d2, d1
        else:
            jbest, best, second = 1, d1, min(d0, d2)
        if taken[jbest] or not (best == 0 or second >= MATCH_MARGIN * best):
            return None
        taken[jbest] = True
        result.append(jbest)
    return tuple(result)


@lru_cache(maxsize=None)
def _crossing_charts(n_terms):
    """Exact expansions at s = 1/2: X of the crossing branches plus and minus
    (labels 2 and 3 from anchor 0) and of the simple root, then the same
    three in G form, all in the local variable d = s - 1/2."""
    var = "d"
    trunc = Fraction(n_terms)
    c = PuiseuxSeries(var, {Fraction(0): Fraction(1, 4), Fraction(2): -1}, trunc).sqrt()
    quarter = Fraction(-1, 4)
    seeds = (
        PuiseuxSeries(var, {Fraction(0): quarter,
                            Fraction(1): ExactScalar(0, Fraction(1, 6))}, trunc),
        PuiseuxSeries(var, {Fraction(0): quarter,
                            Fraction(1): ExactScalar(0, Fraction(-1, 6))}, trunc),
        PuiseuxSeries.monomial(var, 0, Fraction(1, 2), trunc))
    xs = tuple(_newton_root_series(c, seed, trunc) for seed in seeds)
    return xs + tuple(x / c for x in xs)


def crossing_chart_series(branch, family="X", n_terms=CHART_TERMS):
    """The expansion of branch "plus", "minus" or "simple" at s = 1/2."""
    idx = {"plus": 0, "minus": 1, "simple": 2}[branch]
    return _crossing_charts(n_terms)[idx + (0 if family == "X" else 3)]


def chart_values(delta):
    """G of the chart branches plus, minus and simple at s = 1/2 + delta."""
    out = []
    for branch in ("plus", "minus", "simple"):
        total = 0j
        for e, coeff in crossing_chart_series(branch, "g").terms.items():
            total += complex(coeff) * delta ** e.numerator
        out.append(total)
    return tuple(out)


def step_triple(s0, triple, s1, depth=0):
    """The ordered triple at s0 continued to s1, bisected as the cubic asks."""
    if depth > MAX_HALVINGS:
        raise NumericError(f"continuation step underflow near s = {s0}")
    if abs(s1 - 0.5) < CHART_ZONE or abs(s0 - 0.5) < CHART_ZONE:
        return step_triple_chart(s0, triple, s1, depth)
    ds = s1 - s0
    if abs(ds) > STEP_REACH * min(abs(s0 - point) for point in (0, 0.5, 1)):
        return bisected_step(s0, triple, s1, depth)
    predicted = tuple(g + g_derivative(s0, g) * ds for g in triple)
    candidates = solve_cubic(s1)
    matched = match_indices(predicted, candidates, max(1.0, max(abs(g) for g in triple)))
    if matched is None:
        return bisected_step(s0, triple, s1, depth)
    return tuple(candidates[j] for j in matched)


def _nudged(s, direction):
    return s + 2 * COLLISION_NUDGE * direction / max(abs(direction), 1e-30)


def bisected_step(s0, triple, s1, depth):
    mid = (s0 + s1) / 2
    if abs(mid - 0.5) < COLLISION_NUDGE:
        mid = _nudged(mid, s1 - s0)
    half = step_triple(s0, triple, mid, depth + 1)
    return step_triple(mid, half, s1, depth + 1)


def step_triple_chart(s0, triple, s1, depth):
    """A step near the crossing: each branch is classified as plus, minus or
    simple against the chart at s0 and takes that chart value at s1, which
    the cubic polishes unless s1 is within CHART_TIGHT of the crossing."""
    d0, d1 = s0 - 0.5, s1 - 0.5
    if max(abs(d0), abs(d1)) > 2.5 * CHART_ZONE:
        return bisected_step(s0, triple, s1, depth)
    ref0 = chart_values(d0)
    ref1 = chart_values(d1)
    assignment = [min(range(3), key=lambda k: (abs(g - ref0[k]), k)) for g in triple]
    if sorted(assignment) != [0, 1, 2]:
        if abs(d0) >= 1e-12:
            raise NumericError(f"chart classification ambiguous at s = {s0}")
        # on the crossing itself the two crossing values coincide, and the
        # order is conventional
        seen = set()
        for i, g in enumerate(triple):
            assignment[i] = min((k for k in range(3) if k not in seen),
                                key=lambda k: (abs(g - ref0[k]), k))
            seen.add(assignment[i])
    out = []
    for k in assignment:
        target = ref1[k]
        if abs(d1) > CHART_TIGHT:
            target = newton_polish(16 * s1 * (1 - s1), -3, -1, target)
        out.append(target)
    return tuple(out)


def tracked_continue_triple(path, triple):
    """The triple continued along a polyline of waypoints, one step per
    segment; waypoints within COLLISION_NUDGE of s = 1/2 are moved on."""
    points = [complex(s) for s in path]
    for i in range(1, len(points) - 1):
        if abs(points[i] - 0.5) < COLLISION_NUDGE:
            points[i] = _nudged(points[i], points[i + 1] - points[i - 1])
    for s0, s1 in zip(points, points[1:]):
        triple = step_triple(s0, triple, s1)
    return triple


class TrackedRay:
    """The branch triple along a summation ray s = anchor + kappa t: from the
    ``start`` function (t -> triple) up to ``t0``, and beyond it one step from
    the nearest node already tracked."""

    def __init__(self, anchor, kappa, t0, start):
        self.anchor, self.kappa = anchor, kappa
        self._start = start
        self._ts, self._triples = [t0], [start(t0)]

    def triple(self, t):
        ts, triples = self._ts, self._triples
        if t <= ts[0]:
            return self._start(t)
        idx = bisect.bisect_left(ts, t)
        if idx < len(ts) and ts[idx] == t:
            return triples[idx]
        if idx == len(ts) or (idx > 0 and not abs(ts[idx] - t) < abs(ts[idx - 1] - t)):
            nearest = idx - 1
        else:
            nearest = idx
        s = self.anchor + self.kappa * t
        out = step_triple(self.anchor + self.kappa * ts[nearest], triples[nearest], s)
        ts.insert(idx, t)
        triples.insert(idx, out)
        return out


def relative_gap(a, b):
    """max |a_i - b_i| over the largest |a_i| of two triples."""
    return max(abs(x - y) for x, y in zip(a, b)) / max(abs(x) for x in a)
