"""The benchmark's workloads: seeded inputs, the timed program calls, and the
checks of every output against computations made apart from the program.

Every op of a workload is the same fixed bundle of calls, because per-op cost
depends strongly on the input point; the seed orders the calls within an op
and draws the sample points of the cheap numeric checks.  The program only
ever receives the generated inputs.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import mpmath
import numpy as np

from exactwkb import airy_borel, airy_wkb, pearcey, resummation, weyl
from exactwkb.series import PuiseuxSeries

# gates the program states for its own reports
AIRY_TOL = 1e-6
VOROS_PLUS_TOL = 1e-6
VOROS_MINUS_TOL = 1e-8
QUARTIC_TOL = 1e-12
ANNIHILATION_TOL = 1e-8
HOMOGENEITY_TOL = 1e-10
# five-point central differences in 40-digit arithmetic at step 1e-8: the
# worst relative residual over the points of seeds 0..119 is 1e-25
DIFFERENCE_DPS = 40
DIFFERENCE_STEP = 1e-8
DIFFERENCE_TOL = 1e-15


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list]


def _close(got: complex, want: complex, tol: float) -> bool:
    return abs(got - want) <= tol * abs(want)


def borel_sum_references(x: complex, eta: float) -> tuple[complex, complex, complex]:
    """Region-I "+", region-II "+" and the "-" Borel sums from mpmath's Ai.

    psi_+ = sqrt(pi) eta^(-1/3) (+-i Ai(z) + Bi(z)) with +i in region I and
    psi_- = 2 sqrt(pi) eta^(-1/3) Ai(z), z = eta^(2/3) x.  The two "+"
    combinations are formed as 2 e^(+-i pi/6) Ai(z e^(+-2 pi i/3)) (DLMF
    9.2.11), which does not cancel where the combination is recessive.
    """
    with mpmath.workdps(30):
        z = mpmath.mpc(eta) ** (mpmath.mpf(2) / 3) * mpmath.mpc(x)
        turn = mpmath.exp(2j * mpmath.pi / 3)
        sixth = mpmath.exp(1j * mpmath.pi / 6)
        k = mpmath.sqrt(mpmath.pi) * mpmath.mpf(eta) ** (mpmath.mpf(-1) / 3)
        return (complex(2 * k * sixth * mpmath.airyai(z * turn)),
                complex(2 * k / sixth * mpmath.airyai(z / turn)),
                complex(2 * k * mpmath.airyai(z)))


# ---------------------------------------------------------------------------
# voros: the connection formula on region-II points of the ray arg x = pi/6
# ---------------------------------------------------------------------------

VOROS_ARG = math.pi / 6
VOROS_BUNDLE = ((0.8, 8.0), (1.2, 12.0))   # (|x|, eta)


def voros_inputs(seed: int) -> list:
    points = [(r * cmath.exp(1j * VOROS_ARG), eta) for r, eta in VOROS_BUNDLE]
    random.Random(seed).shuffle(points)
    return points


def voros_run(points: list) -> list:
    return [resummation.verify_voros(x, eta) for x, eta in points]


def voros_check(points: list, reports: list) -> list:
    problems = []
    for (x, eta), rep in zip(points, reports, strict=True):
        plus_i, plus_ii, minus = borel_sum_references(x, eta)
        for field, want in (("plus_continued", plus_i), ("plus_direct", plus_ii),
                            ("minus_direct", minus), ("minus_continued", minus)):
            got = getattr(rep, field)
            if not _close(got, want, AIRY_TOL):
                problems.append(f"voros x={x:.4g} eta={eta}: {field} {got} vs Airy {want}")
        if not (rep.plus_residual < VOROS_PLUS_TOL and rep.minus_residual < VOROS_MINUS_TOL):
            problems.append(f"voros x={x:.4g} eta={eta}: gate residuals "
                            f"{rep.plus_residual:.3g}, {rep.minus_residual:.3g}")
    return problems


# ---------------------------------------------------------------------------
# pearcey: the quotient-ring recursion, its checks, the quartic and Weyl
# ---------------------------------------------------------------------------

PEARCEY_ORDER = 4          # the order of `verify all --fast`
QUARTIC_POINTS = 8
DIFFERENCE_POINTS = 2


def quartic(x1: complex, x2: complex, y: complex) -> tuple:
    """(A, C, D, E) of A g^4 + C g^2 + D g + E, from the weighted-homogeneous
    discriminant form of the Pearcey Borel-plane relation."""
    a = (4 * x1 ** 2 * x2 * (36 * y - x2 ** 2) + 16 * y * (x2 ** 2 - 4 * y) ** 2
         - 27 * x1 ** 4)
    return a, 2 * (2 * x2 ** 3 - 8 * x2 * y + 9 * x1 ** 2), -8 * x1, 1.0


def _min_gap(roots) -> float:
    return min(abs(p - q) for i, p in enumerate(roots) for q in roots[i + 1:])


def _cplx(rng: random.Random, r: float) -> complex:
    return complex(rng.uniform(-r, r), rng.uniform(-r, r))


def pearcey_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    quartic_points = []
    while len(quartic_points) < QUARTIC_POINTS:
        x1, x2, y = _cplx(rng, 2), _cplx(rng, 2), _cplx(rng, 2)
        a, c, d, e = quartic(x1, x2, y)
        if abs(a) < 1e-3 * max(1.0, abs(c), abs(d)):
            continue
        if _min_gap(np.roots([a, 0, c, d, e])) < 1e-2:
            continue
        quartic_points.append((x1, x2, y))
    difference_points = []
    while len(difference_points) < DIFFERENCE_POINTS:
        x1, x2 = _cplx(rng, 1.5), _cplx(rng, 1.5)
        if abs(27 * x1 ** 2 + 8 * x2 ** 3) < 1.0:
            continue
        roots = np.roots([4, 0, 2 * x2, x1])
        if _min_gap(roots) < 0.1:
            continue
        difference_points.append((x1, x2, complex(roots[rng.randrange(3)])))
    return {"quartic": quartic_points, "difference": difference_points}


def pearcey_run(inputs: dict) -> dict:
    rec = pearcey.pearcey_recursion(PEARCEY_ORDER)
    out = {
        "rec": rec,
        "closedness": pearcey.check_closedness(rec).passed,
        "primitives": pearcey.check_primitives(rec).passed,
        "unit_power": pearcey.denominator_is_unit_power(rec),
        "quartic": [],
    }
    for x1, x2, y in inputs["quartic"]:
        roots = pearcey.quartic_g_roots(x1, x2, y)
        out["quartic"].append(([b.value for b in roots],
                               [pearcey.annihilation_residuals(b) for b in roots],
                               pearcey.homogeneity_residual(x1, x2, y)))
    out["weyl"] = weyl.verify_operator_identities().passed
    return out


def _compile(element) -> tuple:
    """The three rational-function coefficients as (numerator, denominator)
    term lists of (coefficient, e1, e2), coefficients as mpmath numbers."""
    return tuple(tuple([(mpmath.mpf(int(q.numerator)) / int(q.denominator), e1, e2)
                        for (e1, e2), q in poly.terms()] for poly in (ci.numer, ci.denom))
                 for ci in element.c)


def _poly_value(terms, x1, x2):
    return mpmath.fsum(q * x1 ** e1 * x2 ** e2 for q, e1, e2 in terms)


def _element_value(compiled, x1, x2, s):
    return mpmath.fsum(_poly_value(num, x1, x2) / _poly_value(den, x1, x2) * s ** k
                       for k, (num, den) in enumerate(compiled))


def _cubic_root(x1, x2, guess):
    """The root of 4 S^3 + 2 x2 S + x1 continued from ``guess`` by Newton."""
    s = mpmath.mpc(guess)
    eps = mpmath.mpf(10) ** (-DIFFERENCE_DPS)
    for _ in range(100):
        step = (4 * s ** 3 + 2 * x2 * s + x1) / (12 * s ** 2 + 2 * x2)
        s -= step
        if abs(step) <= eps * max(1, abs(s)):
            break
    return s


def _derivative(f: Callable, h):
    """Five-point central difference at 0."""
    return (f(-2 * h) - 8 * f(-h) + 8 * f(h) - f(2 * h)) / (12 * h)


def pearcey_differences(rec, points) -> list:
    """(what, relative residual) of closedness d2 S_k = d1 T_k and of the
    primitive identities d1 P_k = S_k, d2 P_k = T_k, with the derivatives taken
    numerically by central differences on a tracked root of the cubic."""
    with mpmath.workdps(DIFFERENCE_DPS):
        return [(what, float(abs(lhs - rhs) / max(abs(lhs), abs(rhs))))
                for what, lhs, rhs in _differences(rec, points)]


def _differences(rec, points) -> list:
    out = []
    compiled = {k: (_compile(rec.s(k)), _compile(rec.t(k))) for k in range(-1, rec.order + 1)}
    h = mpmath.mpf(DIFFERENCE_STEP)
    for x1, x2, s0 in points:
        where = f"at ({x1:.3g}, {x2:.3g})"
        x1, x2 = mpmath.mpc(x1), mpmath.mpc(x2)
        cache = {}

        def values(d1, d2) -> tuple:
            key = (d1, d2)
            if key not in cache:
                p1, p2 = x1 + d1, x2 + d2
                s = _cubic_root(p1, p2, s0)
                cache[key] = (p1, p2, s, {k: (_element_value(cs, p1, p2, s),
                                              _element_value(ct, p1, p2, s))
                                          for k, (cs, ct) in compiled.items()})
            return cache[key]

        _, _, s_c, centre = values(0.0, 0.0)
        unit_c = 6 * s_c ** 2 + x2
        for k in range(-1, rec.order + 1):
            if k == 0:
                def prim(v):
                    return -mpmath.log((6 * v[2] ** 2 + v[1]) / unit_c) / 2
            else:
                def prim(v, k=k):
                    return -(3 * v[0] * v[3][k][0] + 2 * v[1] * v[3][k][1]) / (4 * k)
            out += [
                (f"closedness k={k} {where}",
                 _derivative(lambda e: values(0.0, e)[3][k][0], h),
                 _derivative(lambda e: values(e, 0.0)[3][k][1], h)),
                (f"primitive d1 P = S, k={k} {where}",
                 _derivative(lambda e: prim(values(e, 0.0)), h), centre[k][0]),
                (f"primitive d2 P = T, k={k} {where}",
                 _derivative(lambda e: prim(values(0.0, e)), h), centre[k][1]),
            ]
    return out


def pearcey_check(inputs: dict, out: dict) -> list:
    problems = [f"pearcey: program check {name} failed"
                for name in ("closedness", "primitives", "unit_power", "weyl") if not out[name]]
    problems += [f"pearcey {what}: relative residual {residual:.3g}"
                 for what, residual in pearcey_differences(out["rec"], inputs["difference"])
                 if not residual <= DIFFERENCE_TOL]
    for (x1, x2, y), (roots, annihilation, homogeneity) in zip(
            inputs["quartic"], out["quartic"], strict=True):
        a, c, d, e = quartic(x1, x2, y)
        where = f"pearcey quartic at ({x1:.3g}, {x2:.3g}, {y:.3g})"
        if len(roots) != 4 or _min_gap(roots) < 1e-6:
            problems.append(f"{where}: roots {roots} are not four distinct values")
            continue
        for g in roots:
            scale = max(abs(a * g ** 4), abs(c * g ** 2), abs(d * g), 1.0)
            if abs(a * g ** 4 + c * g ** 2 + d * g + e) > QUARTIC_TOL * scale:
                problems.append(f"{where}: root {g} leaves a residual")
        # Vieta: the g^3 coefficient vanishes and the product is E/A
        if abs(sum(roots)) > QUARTIC_TOL * max(1.0, *map(abs, roots)):
            problems.append(f"{where}: root sum {sum(roots)} is not 0")
        if not _close(roots[0] * roots[1] * roots[2] * roots[3], e / a, 1e-9):
            problems.append(f"{where}: root product is not E/A")
        if max(max(r) for r in annihilation) >= ANNIHILATION_TOL:
            problems.append(f"{where}: annihilation residuals {annihilation}")
        if not homogeneity < HOMOGENEITY_TOL:
            problems.append(f"{where}: homogeneity residual {homogeneity}")
    return problems


# ---------------------------------------------------------------------------
# exact-series: the exact series kernel, uncached
# ---------------------------------------------------------------------------

SERIES_ORDER = 24                 # airy_wkb's default coefficient order
LOCAL_TRUNCATION = Fraction(17)   # t^(1/2)(1-t)^(1/2) as the branch build truncates it


def exact_series_inputs(seed: int) -> list:
    signs = ["+", "-"]
    random.Random(seed).shuffle(signs)
    return signs


def exact_series_run(signs: list) -> dict:
    out = {}
    for sign in signs:
        out["stream" + sign] = airy_wkb.wkb_coefficient_stream(SERIES_ORDER, sign)
        out["borel" + sign] = airy_borel.borel_series(SERIES_ORDER, sign)
    body = PuiseuxSeries("t", {Fraction(0): 1, Fraction(1): -1}, LOCAL_TRUNCATION)
    root = body.sqrt()
    local = PuiseuxSeries.monomial("t", Fraction(1, 2), 1, LOCAL_TRUNCATION) * root
    out["body"], out["root"], out["local"] = body, root, local
    out["reciprocal"] = local.inverse()
    return out


def gauss_coefficients(n_terms: int) -> list:
    """(1/6)_n (5/6)_n / ((1/2)_n n!), n < n_terms."""
    out, value = [], Fraction(1)
    for n in range(n_terms):
        if n:
            value *= Fraction(6 * n - 5, 6) * Fraction(6 * n - 1, 6) / (Fraction(2 * n - 1, 2) * n)
        out.append(value)
    return out


def pochhammer_coefficients(n_terms: int, sign: str) -> list:
    """(sign 3/4)^n (1/6)_n (5/6)_n / n!, n < n_terms."""
    ratio = Fraction(3, 4) if sign == "+" else Fraction(-3, 4)
    out, value = [], Fraction(1)
    for n in range(n_terms):
        if n:
            value *= ratio * Fraction(6 * n - 5, 6) * Fraction(6 * n - 1, 6) / n
        out.append(value)
    return out


def _terms(series) -> dict:
    """{exponent: (a, b)} for a + b sqrt(3), read off the series."""
    return {e: (c.a, c.b) for e, c in series.terms.items()}


def _product(f: dict, g: dict, truncation: Fraction) -> dict:
    """Truncated product in Q(sqrt 3)[t^(1/2)], zero coefficients dropped."""
    out: dict = {}
    for e1, (a1, b1) in f.items():
        for e2, (a2, b2) in g.items():
            e = e1 + e2
            if e < truncation:
                a, b = out.get(e, (0, 0))
                out[e] = (a + a1 * a2 + 3 * b1 * b2, b + a1 * b2 + a2 * b1)
    return {e: ab for e, ab in out.items() if ab != (0, 0)}


def exact_series_check(signs: list, out: dict) -> list:
    problems = []
    n = SERIES_ORDER + 1
    gauss = gauss_coefficients(n)
    for sign in signs:
        if list(out["stream" + sign].coeffs) != pochhammer_coefficients(n, sign):
            problems.append(f"exact-series: stream {sign} differs from the Pochhammer form")
        series = out["borel" + sign].series
        want = {Fraction(2 * k - 1, 2): (g, 0) for k, g in enumerate(gauss)}
        if _terms(series) != want or series.truncation != Fraction(2 * n - 1, 2):
            problems.append(f"exact-series: Borel series {sign} differs from the Gauss series")
    trunc = LOCAL_TRUNCATION
    body, root, local, recip = (_terms(out[k]) for k in ("body", "root", "local", "reciprocal"))
    if _product(root, root, trunc) != body:
        problems.append("exact-series: sqrt(1-t) squared does not give 1-t")
    binomial, value = {}, Fraction(1)
    for k in range(int(trunc)):
        binomial[Fraction(2 * k + 1, 2)] = (value, 0)
        value *= -(Fraction(1, 2) - k) / (k + 1)
    if local != {e: c for e, c in binomial.items() if c != (0, 0)}:
        problems.append("exact-series: t^(1/2)(1-t)^(1/2) differs from its binomial series")
    # the product of local (valuation 1/2) and its reciprocal is known below
    # the smaller of the two shifted truncations
    r = out["reciprocal"]
    known = min(Fraction(1, 2) + r.truncation, r.valuation() + out["local"].truncation)
    if known < trunc - 1 or _product(local, recip, known) != {Fraction(0): (1, 0)}:
        problems.append("exact-series: reciprocal times series is not 1")
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload("voros", voros_inputs, voros_run, voros_check),
        Workload("pearcey", pearcey_inputs, pearcey_run, pearcey_check),
        Workload("exact-series", exact_series_inputs, exact_series_run, exact_series_check),
    )
}
