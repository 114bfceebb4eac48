"""Verification suites: the Voros grid, the seeded Pearcey suite, the exact
coefficient tables and the sections of ``verify all``.

Each suite returns its values and its verdict; every verdict comes from one
gate, and ``run_all`` takes each section's verdict from the same call the
matching subcommand reports.  Complex values are left as ``complex``.
"""

from __future__ import annotations

import cmath
import math
import random

from . import airy_borel, airy_wkb, branches, pearcey, resummation, weyl
from .errors import NumericError, PreconditionError

VOROS_GRID_RADII = [0.8 + 0.4 * k / 9 for k in range(10)]
VOROS_GRID_ETAS = [5.0, 8.0, 12.0]
PEARCEY_SEED = 42


# ---------------------------------------------------------------------------
# exact coefficient tables
# ---------------------------------------------------------------------------

def wkb_coefficient_rows(order: int, sign: str) -> list[tuple]:
    """(n, recurrence, closed form, equal) for the normalized coefficients."""
    stream = airy_wkb.wkb_coefficient_stream(order, sign)
    closed = airy_wkb.closed_form_coefficients(order, sign)
    return [(n, stream.coeffs[n], closed[n], stream.coeffs[n] == closed[n])
            for n in range(order + 1)]


def borel_rows(order: int, sign: str) -> tuple[airy_borel.BorelSeries, list[tuple]]:
    """The Borel series and (n, coefficient, hypergeometric oracle, equal)."""
    series = airy_borel.borel_series(order, sign)
    mine = series.coefficients(order + 1)
    oracle = airy_borel.hypergeometric_oracle(sign, order + 1)
    return series, [(n, mine[n], oracle[n], mine[n] == oracle[n])
                    for n in range(order + 1)]


# ---------------------------------------------------------------------------
# Voros connection formula on a grid of region-II points
# ---------------------------------------------------------------------------

def _voros_grid_points(grid: str):
    if grid == "default":
        radii, etas = VOROS_GRID_RADII, VOROS_GRID_ETAS
    elif grid == "quick":
        radii, etas = [0.8, 1.2], [8.0]
    else:
        raise PreconditionError(f"unknown grid {grid!r}")
    angle = cmath.exp(1j * math.pi / 6)
    return [(r * angle, eta) for eta in etas for r in radii]


def run_voros_grid(grid: str = "default") -> dict:
    reports = [resummation.verify_voros(x, eta)
               for x, eta in _voros_grid_points(grid)]
    return {
        "config": {"grid": grid, "plus_tol": resummation.VOROS_PLUS_TOL,
                   "minus_tol": resummation.VOROS_MINUS_TOL,
                   "quad_tol": resummation.VOROS_QUAD_TOL},
        "points": [{
            "x": rep.x, "eta": rep.eta,
            "plus_continued": rep.plus_continued,
            "plus_direct": rep.plus_direct,
            "minus_direct": rep.minus_direct,
            "cut_contribution": rep.cut_contribution,
            "plus_residual": rep.plus_residual,
            "minus_residual": rep.minus_residual,
        } for rep in reports],
        "max_plus_residual": max(rep.plus_residual for rep in reports),
        "max_minus_residual": max(rep.minus_residual for rep in reports),
        "passed": all(rep.passed for rep in reports),
    }


# ---------------------------------------------------------------------------
# Pearcey: symbolic recursion checks plus seeded numeric samples
# ---------------------------------------------------------------------------

def _sample(rng: random.Random, count: int, measure) -> list:
    """``measure(x1, x2, y)`` at ``count`` seeded points of [-2, 2]^6 where it
    raises no typed error; rejected points are drawn again."""
    out = []
    while len(out) < count:
        x1, x2, y = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
        try:
            out.append(measure(x1, x2, y))
        except (PreconditionError, NumericError):
            continue
    return out


def _quartic_residuals(x1, x2, y) -> tuple[float, float]:
    """Worst scaled quartic residual over the four roots, and |sum of roots|."""
    roots = [br.value for br in pearcey.quartic_g_roots(x1, x2, y)]
    a, b, c, d, e = pearcey.quartic_coefficients(x1, x2, y)
    residual = max(abs(((a * g + b) * g + c) * g * g + d * g + e) / max(abs(a * g ** 4), 1.0)
                   for g in roots)
    return residual, abs(sum(roots))


def _annihilation_residuals(x1, x2, y) -> tuple[list[float], float]:
    """Worst residual of each annihilator over the four roots, and the
    homogeneity residual."""
    per_root = [pearcey.annihilation_residuals(br)
                for br in pearcey.quartic_g_roots(x1, x2, y)]
    return ([max(column) for column in zip(*per_root)],
            pearcey.homogeneity_residual(x1, x2, y, 2.0))


def run_pearcey_verify(order: int, points: int, seed: int,
                       ann_points: int = 20) -> dict:
    """The exact recursion checks and the seeded numeric samples.

    ``denominator_shape`` is reported but is not part of ``passed``: a ring
    element is stored over a power of D, so it holds by construction.  Its
    independent witness is the test suite's field oracle
    (``TestAgainstFieldOracle::test_field_denominators_are_powers_of_d``).
    """
    rec = pearcey.pearcey_recursion(order)
    closed = pearcey.check_closedness(rec)
    prims = pearcey.check_primitives(rec)
    denom = pearcey.denominator_is_unit_power(rec)
    rng = random.Random(seed)
    quartic = _sample(rng, points, _quartic_residuals)
    annihilation = _sample(rng, ann_points, _annihilation_residuals)
    worst_residual = max((r for r, _ in quartic), default=0.0)
    worst_sum = max((s for _, s in quartic), default=0.0)
    worst_annihilation = [max((rs[i] for rs, _ in annihilation), default=0.0)
                          for i in range(4)]
    worst_homogeneity = max((h for _, h in annihilation), default=0.0)
    passed = (closed.passed and prims.passed
              and worst_residual < 1e-12 and worst_sum < 1e-12
              and all(w < 1e-8 for w in worst_annihilation)
              and worst_homogeneity < 1e-10)
    return {
        "config": {"order": order, "points": points, "seed": seed,
                   "annihilation_points": ann_points},
        "closedness": {"passed": closed.passed, "failures": list(closed.failures)},
        "primitives": {"passed": prims.passed, "failures": list(prims.failures)},
        "denominator_shape": denom,
        "quartic": {"points": len(quartic), "max_residual": worst_residual,
                    "max_root_sum": worst_sum},
        "annihilation": {"points": len(annihilation),
                         "max_residuals": worst_annihilation},
        "homogeneity_max_residual": worst_homogeneity,
        "passed": passed,
    }


# ---------------------------------------------------------------------------
# every suite, aggregated
# ---------------------------------------------------------------------------

def run_all(fast: bool) -> dict:
    """Section name -> verdict; ``fast`` runs the smaller configurations."""
    return {
        "wkb_double_derivation": all(equal for sign in "+-"
                                     for *_, equal in wkb_coefficient_rows(20, sign)),
        "borel_oracle": all(equal for sign in "+-"
                            for *_, equal in borel_rows(20, sign)[1]),
        "branch_identities": branches.verify_branch_identities(6).passed,
        "airy_link": resummation.verify_airy_connection(
            cmath.exp(-1j * math.pi / 6), 5.0 if fast else 10.0).passed,
        "voros": run_voros_grid("quick" if fast else "default")["passed"],
        "pearcey": run_pearcey_verify(4 if fast else 8, 20 if fast else 100,
                                      PEARCEY_SEED, ann_points=5 if fast else 20)["passed"],
        "weyl": weyl.verify_operator_identities().passed,
    }
