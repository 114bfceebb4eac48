"""The report of each CLI subcommand, verdict included: the exact coefficient
tables, the branch trace and identities, one Borel sum, the Airy link, the
Voros grid, the seeded Pearcey suite, the Weyl identities and ``verify all``.

Each function returns a ``Report``: the JSON body the subcommand prints, the
verdict that sets its exit code, and the rows it prints as CSV.  Every
verdict comes from one gate, and ``run_all`` takes each section's verdict
from the same function the matching subcommand prints.  The defaults of these
functions are the subcommands' defaults.  Exact values are left as
``Fraction`` and complex values as ``complex``.
"""

from __future__ import annotations

import cmath
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from . import airy_borel, airy_wkb, branches, pearcey, resummation, weyl
from .errors import PreconditionError

VOROS_GRID_RADII = [0.8 + 0.4 * k / 9 for k in range(10)]
VOROS_GRID_ETAS = [5.0, 8.0, 12.0]
PEARCEY_SEED = 42

# gates of run_pearcey_verify: the scaled quartic residual and |sum of the
# roots| at each sampled point, each annihilator's residual over the four
# roots, and the homogeneity residual: the relative Newton correction of the
# roots at the point scaled by pearcey.HOMOGENEITY_LAMBDA, mapped back
PEARCEY_QUARTIC_TOL = 1e-12
PEARCEY_ROOT_SUM_TOL = 1e-12
PEARCEY_ANNIHILATION_TOL = 1e-8
PEARCEY_HOMOGENEITY_TOL = 1e-10


@dataclass(frozen=True)
class Report:
    """What a subcommand prints: its JSON ``body``; ``passed``, the verdict
    that sets the exit code (True where the report checks nothing); and
    ``table``, the key of the body's list of rows that its CSV form prints."""

    body: dict
    passed: bool = True
    table: str | None = None


def _fields(obj, *names: str) -> dict:
    """The named attributes of a library report, keyed by name."""
    return {name: getattr(obj, name) for name in names}


# ---------------------------------------------------------------------------
# exact coefficient tables
# ---------------------------------------------------------------------------

def wkb_series(order: int = 8, sign: str = "+") -> Report:
    """The Riccati coefficients and the x exponent of each term."""
    sol = airy_wkb.riccati_recurrence(order, sign)
    return Report({
        "command": "wkb series",
        "config": {"order": order, "sign": sign},
        "terms": [{"j": j, "coefficient": sol.coefficient(j),
                   "x_exponent": Fraction(-(3 * j + 2), 2)}
                  for j in range(-1, order + 1)],
    }, table="terms")


def _match_table(command: str, order: int, sign: str, columns: tuple[str, str],
                 mine: list, theirs: list, **extra) -> Report:
    """Rows n = 0..order of two exact derivations side by side; the verdict
    is that every row matches."""
    rows = [{"n": n, columns[0]: mine[n], columns[1]: theirs[n],
             "match": mine[n] == theirs[n]} for n in range(order + 1)]
    all_match = all(row["match"] for row in rows)
    return Report({"command": command, "config": {"order": order, "sign": sign},
                   **extra, "rows": rows, "all_match": all_match}, all_match, "rows")


def wkb_coeffs(order: int = 20, sign: str = "+") -> Report:
    """The normalized coefficients from the recurrence and the closed form."""
    return _match_table("wkb coeffs", order, sign, ("recurrence", "closed_form"),
                        airy_wkb.wkb_coefficient_stream(order, sign).coeffs,
                        airy_wkb.closed_form_coefficients(order, sign))


def wkb_borel(order: int = 20, sign: str = "+") -> Report:
    """The Borel coefficients against the hypergeometric oracle."""
    series = airy_borel.borel_series(order, sign)
    return _match_table("wkb borel", order, sign, ("borel", "hypergeometric"),
                        series.coefficients(order + 1),
                        airy_borel.hypergeometric_oracle(sign, order + 1),
                        base_point=series.base_point, i_prefactor=series.prefactor_i)


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------

def branches_trace(start: float = 0.01, stop: float = 0.99, label: str = "X3",
                   samples: int = 50) -> Report:
    """One branch along the real axis; ``label`` is a family letter (X or g,
    either case) and an index, as in "X3"."""
    if not re.fullmatch("[XxGg][0-9]", label):
        raise PreconditionError(f"label must be X or g and one digit, got {label!r}")
    trace = branches.trace_branch("X" if label[0] in "Xx" else "g", int(label[1]),
                                  start, stop, samples)
    return Report({
        "command": "branches trace",
        "config": {"from": start, "to": stop, "label": label, "samples": samples},
        "samples": [{"s": float(f"{s:.10g}"), "re": value.real, "im": value.imag}
                    for s, value in trace],
    }, table="samples")


def branches_verify(order: int = 6) -> Report:
    """The exact Borel/branch identities."""
    report = branches.verify_branch_identities(order)
    return Report({
        "command": "branches verify",
        "config": {"order": order},
        **_fields(report, "plus_identity", "minus_identity", "sum_zero_anchor0",
                  "sum_zero_anchor1", "two_g1_plus_g2_form", "loop_anchor0",
                  "loop_anchor1", "passed"),
    }, report.passed)


# ---------------------------------------------------------------------------
# Borel sums
# ---------------------------------------------------------------------------

def resum_laplace(x: complex, eta: float, sign: str = "+",
                  tol: float = resummation.LAPLACE_TOL) -> Report:
    """One Borel sum at x."""
    ctx = resummation.classify_stokes(x)
    result = resummation.laplace_sum(sign, ctx, eta, tol)
    return Report({
        "command": "resum laplace",
        "config": {"x": ctx.x, "eta": eta, "sign": sign, "tol": tol},
        "region": result.region,
        "value": result.value,
        "error_estimate": result.quadrature_error_estimate,
    })


def airy_link(x: complex, eta: float, tol: float = resummation.AIRY_LINK_TOL) -> Report:
    """The Ai/Bi identities at one point."""
    report = resummation.verify_airy_connection(x, eta, tol)
    return Report({
        "command": "verify airy-link",
        "config": {"x": report.x, "eta": eta, "tol": tol},
        "values": _fields(report, "psi_plus", "psi_minus", "ai", "bi"),
        "residuals": {name: getattr(report, f"{name}_residual")
                      for name in ("ai", "bi", "inverse_plus", "inverse_minus")},
        **_fields(report, "region", "quadrature_error", "max_residual", "passed"),
    }, report.passed)


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


def run_voros_grid(grid: str = "default") -> Report:
    """``verify_voros`` at each point of the default or the quick grid."""
    reports = [resummation.verify_voros(x, eta)
               for x, eta in _voros_grid_points(grid)]
    passed = all(rep.passed for rep in reports)
    return Report({
        "command": "verify voros",
        "config": {"grid": grid, "plus_tol": resummation.VOROS_PLUS_TOL,
                   "minus_tol": resummation.VOROS_MINUS_TOL,
                   "quad_tol": resummation.VOROS_QUAD_TOL},
        "points": [_fields(rep, "x", "eta", "plus_continued", "plus_direct", "minus_direct",
                           "cut_contribution", "plus_residual", "minus_residual")
                   for rep in reports],
        "max_plus_residual": max(rep.plus_residual for rep in reports),
        "max_minus_residual": max(rep.minus_residual for rep in reports),
        "passed": passed,
    }, passed)


# ---------------------------------------------------------------------------
# Pearcey: symbolic recursion checks plus seeded numeric samples
# ---------------------------------------------------------------------------

def pearcey_recursion(order: int = 4) -> Report:
    """The recursion's S_k and T_k, k = -1..order, as ring elements."""
    rec = pearcey.pearcey_recursion(order)
    return Report({
        "command": "pearcey recursion",
        "config": {"order": order},
        "s_terms": {str(k): repr(rec.s(k)) for k in range(-1, order + 1)},
        "t_terms": {str(k): repr(rec.t(k)) for k in range(-1, order + 1)},
    })


def _sample(rng: random.Random, count: int, measure) -> list:
    """``measure(x1, x2, y)`` at ``count`` seeded points of [-2, 2]^6; a point
    where it raises ``PreconditionError`` lies outside its domain and is drawn
    again."""
    out = []
    while len(out) < count:
        x1, x2, y = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
        try:
            out.append(measure(x1, x2, y))
        except PreconditionError:
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
    homogeneity residual, which solves the quartic once more, at the scaled
    point."""
    per_root = [pearcey.annihilation_residuals(br)
                for br in pearcey.quartic_g_roots(x1, x2, y)]
    return ([max(column) for column in zip(*per_root)],
            pearcey.homogeneity_residual(x1, x2, y))


def run_pearcey_verify(order: int = 8, points: int = 100, seed: int = PEARCEY_SEED,
                       ann_points: int = 20) -> Report:
    """The exact recursion checks and the seeded numeric samples, ``points``
    quartic points and ``ann_points`` annihilation points, at least one each.

    ``denominator_shape`` is reported but is not part of ``passed``: a ring
    element is stored over a power of D, so it holds by construction.  Its
    independent witness is the test suite's field oracle
    (``TestAgainstFieldOracle::test_field_denominators_are_powers_of_d``).
    """
    rec = pearcey.pearcey_recursion(order)
    if points < 1 or ann_points < 1:
        raise PreconditionError(
            f"need at least one point of each sample, got {points} and {ann_points}")
    closed = pearcey.check_closedness(rec)
    prims = pearcey.check_primitives(rec)
    denom = pearcey.denominator_is_unit_power(rec)
    rng = random.Random(seed)
    quartic = _sample(rng, points, _quartic_residuals)
    annihilation = _sample(rng, ann_points, _annihilation_residuals)
    worst_residual = max(r for r, _ in quartic)
    worst_sum = max(s for _, s in quartic)
    worst_annihilation = [max(rs[i] for rs, _ in annihilation) for i in range(4)]
    worst_homogeneity = max(h for _, h in annihilation)
    passed = (closed.passed and prims.passed
              and worst_residual < PEARCEY_QUARTIC_TOL
              and worst_sum < PEARCEY_ROOT_SUM_TOL
              and all(w < PEARCEY_ANNIHILATION_TOL for w in worst_annihilation)
              and worst_homogeneity < PEARCEY_HOMOGENEITY_TOL)
    return Report({
        "command": "pearcey verify",
        "config": {"order": order, "points": points, "seed": seed,
                   "annihilation_points": ann_points},
        "closedness": _fields(closed, "passed", "failures"),
        "primitives": _fields(prims, "passed", "failures"),
        "denominator_shape": denom,
        "quartic": {"points": len(quartic), "max_residual": worst_residual,
                    "max_root_sum": worst_sum},
        "annihilation": {"points": len(annihilation),
                         "max_residuals": worst_annihilation},
        "homogeneity_max_residual": worst_homogeneity,
        "passed": passed,
    }, passed)


def weyl_verify() -> Report:
    """The normal-form operator identities."""
    report = weyl.verify_operator_identities()
    return Report({
        "command": "weyl verify",
        "config": {},
        "identities": [_fields(c, "name", "eta_clearing_power", "passed")
                       for c in report.checks],
        "passed": report.passed,
    }, report.passed)


# ---------------------------------------------------------------------------
# every suite, aggregated
# ---------------------------------------------------------------------------

def run_all(fast: bool = False) -> Report:
    """The verdict of each subcommand's function, at its defaults where it
    has them.  The Airy link runs at x = e^(-i pi/6) and eta 10; ``fast``
    takes eta 5, the quick Voros grid and a smaller Pearcey suite."""
    sections = {
        "wkb_double_derivation": all(wkb_coeffs(sign=sign).passed for sign in "+-"),
        "borel_oracle": all(wkb_borel(sign=sign).passed for sign in "+-"),
        "branch_identities": branches_verify().passed,
        "airy_link": airy_link(cmath.exp(-1j * math.pi / 6), 5.0 if fast else 10.0).passed,
        "voros": run_voros_grid("quick" if fast else "default").passed,
        "pearcey": (run_pearcey_verify(4, 20, ann_points=5) if fast
                    else run_pearcey_verify()).passed,
        "weyl": weyl_verify().passed,
    }
    passed = all(sections.values())
    return Report({
        "command": "verify all",
        "config": {"fast": fast},
        "sections": sections,
        "passed": passed,
    }, passed)
