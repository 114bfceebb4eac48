"""Command-line entry point: series dumps, verification suites, Borel sums.

One binary, subcommand style, flags only.  Every report echoes its
configuration (orders, seeds, tolerances) so a rerun with the same flags is
byte-identical.  Exit codes: 0 success, 2 argument errors (argparse), 3
precondition violations, 4 verification failures, 5 numerical failures.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import sys
from fractions import Fraction

from . import airy_borel, airy_wkb, branches, pearcey, resummation, weyl
from .errors import NumericError, PreconditionError, VerificationError

EXIT_OK = 0
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4
EXIT_NUMERIC = 5

VOROS_GRID_RADII = [0.8 + 0.4 * k / 9 for k in range(10)]
VOROS_GRID_ETAS = [5.0, 8.0, 12.0]


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _cx(z: complex) -> list[float]:
    return [z.real, z.imag]


def _parse_complex(text: str) -> complex:
    try:
        if "," in text:
            re_part, im_part = text.split(",")
            return complex(float(re_part), float(im_part))
        return complex(float(text), 0.0)
    except ValueError as exc:
        raise PreconditionError(f"cannot parse complex number from {text!r}") from exc


def _emit_json(report: dict) -> None:
    print(json.dumps(report, sort_keys=True, indent=2))


def _emit_csv(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# wkb subcommands
# ---------------------------------------------------------------------------

def cmd_wkb_series(args) -> int:
    sol = airy_wkb.riccati_recurrence(args.order, args.sign)
    rows = [[j, _frac(sol.coefficient(j)), _frac(Fraction(-(3 * j + 2), 2))]
            for j in range(-1, args.order + 1)]
    if args.format == "csv":
        _emit_csv(["j", "coefficient", "x_exponent"], rows)
    else:
        _emit_json({
            "command": "wkb series",
            "config": {"order": args.order, "sign": args.sign},
            "terms": [{"j": j, "coefficient": c, "x_exponent": e}
                      for j, c, e in rows],
        })
    return EXIT_OK


def cmd_wkb_coeffs(args) -> int:
    stream = airy_wkb.wkb_coefficient_stream(args.order, args.sign)
    closed = airy_wkb.closed_form_coefficients(args.order, args.sign)
    rows = []
    all_match = True
    for n in range(args.order + 1):
        match = stream.coeffs[n] == closed[n]
        all_match &= match
        rows.append([n, _frac(stream.coeffs[n]), _frac(closed[n]), match])
    if args.format == "csv":
        _emit_csv(["n", "recurrence", "closed_form", "match"], rows)
    else:
        _emit_json({
            "command": "wkb coeffs",
            "config": {"order": args.order, "sign": args.sign},
            "rows": [{"n": n, "recurrence": a, "closed_form": b, "match": m}
                     for n, a, b, m in rows],
            "all_match": all_match,
        })
    return EXIT_OK if all_match else EXIT_VERIFICATION


def cmd_wkb_borel(args) -> int:
    series = airy_borel.borel_series(args.order, args.sign)
    oracle = airy_borel.hypergeometric_oracle(args.sign, args.order + 1)
    mine = series.coefficients(args.order + 1)
    rows = [[n, _frac(mine[n]), _frac(oracle[n]), mine[n] == oracle[n]]
            for n in range(args.order + 1)]
    ok = all(r[3] for r in rows)
    if args.format == "csv":
        _emit_csv(["n", "borel", "hypergeometric", "match"], rows)
    else:
        _emit_json({
            "command": "wkb borel",
            "config": {"order": args.order, "sign": args.sign},
            "base_point": series.base_point,
            "i_prefactor": series.prefactor_i,
            "rows": [{"n": n, "borel": a, "hypergeometric": b, "match": m}
                     for n, a, b, m in rows],
            "all_match": ok,
        })
    return EXIT_OK if ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# branches subcommands
# ---------------------------------------------------------------------------

def cmd_branches_trace(args) -> int:
    family = "X" if args.label.upper().startswith("X") else "g"
    label = branches.BranchLabel(family, int(args.label[-1]), 0)
    if abs(args.start) > 0.35:
        raise PreconditionError("start point too far from the anchor for the series")
    samples = max(args.samples, 2)
    path = [args.start + (args.stop - args.start) * k / (samples - 1) for k in range(samples)]
    triple = branches.anchored_g_triple(0, branches.sqrt_s(args.start))
    rows = []
    for k, s in enumerate(path):
        if k > 0:
            triple = branches.continue_triple(path[k - 1:k + 1], triple)
        value = triple[label.index - 1]
        if family == "X":
            value *= branches.default_sqrt_rule(s)
        rows.append([f"{s:.10g}", repr(value.real), repr(value.imag)])
    if args.csv:
        _emit_csv(["s", "re", "im"], rows)
    else:
        _emit_json({
            "command": "branches trace",
            "config": {"from": args.start, "to": args.stop, "label": args.label,
                       "samples": samples},
            "samples": [{"s": float(s), "re": float(re), "im": float(im)}
                        for s, re, im in rows],
        })
    return EXIT_OK


def cmd_branches_verify(args) -> int:
    report = branches.verify_branch_identities(args.order)
    _emit_json({
        "command": "branches verify",
        "config": {"order": args.order},
        "plus_identity": report.plus_identity,
        "minus_identity": report.minus_identity,
        "sum_zero_anchor0": report.sum_zero_anchor0,
        "sum_zero_anchor1": report.sum_zero_anchor1,
        "two_g1_plus_g2_form": report.two_g1_plus_g2_form,
        "passed": report.passed,
    })
    return EXIT_OK if report.passed else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# resummation subcommands
# ---------------------------------------------------------------------------

def cmd_resum_laplace(args) -> int:
    ctx = resummation.classify_stokes(_parse_complex(args.x))
    result = resummation.laplace_sum(args.sign, ctx, args.eta, args.tol)
    _emit_json({
        "command": "resum laplace",
        "config": {"x": _cx(ctx.x), "eta": args.eta, "sign": args.sign,
                   "tol": args.tol},
        "region": result.region,
        "value": _cx(result.value),
        "error_estimate": result.quadrature_error_estimate,
    })
    return EXIT_OK


def cmd_verify_airy_link(args) -> int:
    report = resummation.verify_airy_connection(_parse_complex(args.x), args.eta,
                                                tol=args.tol)
    _emit_json({
        "command": "verify airy-link",
        "config": {"x": _cx(report.x), "eta": args.eta, "tol": args.tol},
        "region": report.region,
        "values": {
            "psi_plus": _cx(report.psi_plus),
            "psi_minus": _cx(report.psi_minus),
            "ai": _cx(report.ai),
            "bi": _cx(report.bi),
        },
        "quadrature_error": report.quadrature_error,
        "residuals": {
            "ai": report.ai_residual,
            "bi": report.bi_residual,
            "inverse_plus": report.inverse_plus_residual,
            "inverse_minus": report.inverse_minus_residual,
        },
        "max_residual": report.max_residual,
        "passed": report.passed,
    })
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _voros_grid_points(grid: str):
    if grid == "default":
        radii, etas = VOROS_GRID_RADII, VOROS_GRID_ETAS
    elif grid == "quick":
        radii, etas = [0.8, 1.2], [8.0]
    else:
        raise PreconditionError(f"unknown grid {grid!r}")
    angle = cmath.exp(1j * math.pi / 6)
    return [(r * angle, eta) for eta in etas for r in radii]


def run_voros_grid(grid: str = "default", plus_tol: float = 1e-6,
                   minus_tol: float = 1e-8, quad_tol: float = 1e-10) -> dict:
    points = []
    worst_plus = worst_minus = worst_cut_airy = 0.0
    for x, eta in _voros_grid_points(grid):
        rep = resummation.verify_voros(x, eta, quad_tol)
        worst_plus = max(worst_plus, rep.plus_residual)
        worst_minus = max(worst_minus, rep.minus_residual)
        worst_cut_airy = max(worst_cut_airy, rep.cut_vs_airy_residual)
        points.append({
            "x": _cx(rep.x), "eta": eta,
            "plus_continued": _cx(rep.plus_continued),
            "plus_direct": _cx(rep.plus_direct),
            "minus_direct": _cx(rep.minus_direct),
            "cut_contribution": _cx(rep.cut_contribution),
            "plus_residual": rep.plus_residual,
            "minus_residual": rep.minus_residual,
            "cut_vs_airy_residual": rep.cut_vs_airy_residual,
        })
    return {
        "config": {"grid": grid, "plus_tol": plus_tol, "minus_tol": minus_tol,
                   "quad_tol": quad_tol},
        "points": points,
        "max_plus_residual": worst_plus,
        "max_minus_residual": worst_minus,
        "max_cut_vs_airy_residual": worst_cut_airy,
        "passed": (worst_plus < plus_tol and worst_minus < minus_tol
                   and worst_cut_airy < plus_tol),
    }


def cmd_verify_voros(args) -> int:
    report = run_voros_grid(args.grid)
    report["command"] = "verify voros"
    _emit_json(report)
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


def run_pearcey_verify(order: int, points: int, seed: int,
                       ann_points: int = 20) -> dict:
    import random

    rec = pearcey.pearcey_recursion(order)
    closed = pearcey.check_closedness(rec)
    prims = pearcey.check_primitives(rec)
    denom = pearcey.denominator_is_unit_power(rec)
    rng = random.Random(seed)
    worst_residual = worst_sum = 0.0
    sampled = 0
    while sampled < points:
        x1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        x2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        try:
            roots = pearcey.quartic_g_roots(x1, x2, y)
        except (PreconditionError, NumericError):
            continue
        sampled += 1
        worst_sum = max(worst_sum, abs(sum(b.value for b in roots)))
        a, b, c, d, e = pearcey.quartic_coefficients(x1, x2, y)
        for br in roots:
            g = br.value
            res = abs(((a * g + b) * g + c) * g * g + d * g + e) \
                / max(abs(a * g ** 4), 1.0)
            worst_residual = max(worst_residual, res)
    worst_annihilation = [0.0] * 4
    worst_homogeneity = 0.0
    sampled_ann = 0
    while sampled_ann < ann_points:
        x1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        x2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        try:
            roots = pearcey.quartic_g_roots(x1, x2, y)
            for br in roots:
                rs = pearcey.annihilation_residuals(br)
                worst_annihilation = [max(w, r) for w, r in zip(worst_annihilation, rs)]
            worst_homogeneity = max(worst_homogeneity,
                                    pearcey.homogeneity_residual(x1, x2, y, 2.0))
        except (PreconditionError, NumericError):
            continue
        sampled_ann += 1
    passed = (closed.passed and prims.passed and denom
              and worst_residual < 1e-12 and worst_sum < 1e-12
              and all(w < 1e-8 for w in worst_annihilation)
              and worst_homogeneity < 1e-10)
    return {
        "config": {"order": order, "points": points, "seed": seed,
                   "annihilation_points": ann_points},
        "closedness": {"passed": closed.passed, "failures": list(closed.failures)},
        "primitives": {"passed": prims.passed, "failures": list(prims.failures)},
        "denominator_shape": denom,
        "quartic": {"points": sampled, "max_residual": worst_residual,
                    "max_root_sum": worst_sum},
        "annihilation": {"points": sampled_ann,
                         "max_residuals": worst_annihilation},
        "homogeneity_max_residual": worst_homogeneity,
        "passed": passed,
    }


def cmd_pearcey_recursion(args) -> int:
    rec = pearcey.pearcey_recursion(args.order)
    _emit_json({
        "command": "pearcey recursion",
        "config": {"order": args.order},
        "s_terms": {str(k): repr(rec.s(k)) for k in range(-1, args.order + 1)},
        "t_terms": {str(k): repr(rec.t(k)) for k in range(-1, args.order + 1)},
    })
    return EXIT_OK


def cmd_pearcey_verify(args) -> int:
    report = run_pearcey_verify(args.order, args.points, args.seed)
    report["command"] = "pearcey verify"
    _emit_json(report)
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


def cmd_weyl_verify(args) -> int:
    report = weyl.verify_operator_identities()
    _emit_json({
        "command": "weyl verify",
        "config": {},
        "identities": [{"name": c.name, "eta_clearing_power": c.eta_clearing_power,
                        "passed": c.passed} for c in report.checks],
        "passed": report.passed,
    })
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_verify_all(args) -> int:
    sections = {}

    stream = airy_wkb.wkb_coefficient_stream(20, "+")
    closed = airy_wkb.closed_form_coefficients(20, "+")
    stream_m = airy_wkb.wkb_coefficient_stream(20, "-")
    closed_m = airy_wkb.closed_form_coefficients(20, "-")
    sections["wkb_double_derivation"] = (list(stream.coeffs) == closed
                                         and list(stream_m.coeffs) == closed_m)

    mine = airy_borel.borel_series(20, "+").coefficients(21)
    oracle = airy_borel.hypergeometric_oracle("+", 21)
    mine_m = airy_borel.borel_series(20, "-").coefficients(21)
    sections["borel_oracle"] = mine == oracle and mine_m == oracle

    sections["branch_identities"] = branches.verify_branch_identities(6).passed

    link = resummation.verify_airy_connection(cmath.exp(-1j * math.pi / 6),
                                              5.0 if args.fast else 10.0)
    sections["airy_link"] = link.passed

    voros = run_voros_grid("quick" if args.fast else "default")
    sections["voros"] = voros["passed"]

    pear = run_pearcey_verify(4 if args.fast else 8,
                              20 if args.fast else 100, 42,
                              ann_points=5 if args.fast else 20)
    sections["pearcey"] = pear["passed"]

    sections["weyl"] = weyl.verify_operator_identities().passed

    ok = all(sections.values())
    _emit_json({
        "command": "verify all",
        "config": {"fast": args.fast},
        "sections": sections,
        "passed": ok,
    })
    return EXIT_OK if ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactwkb",
        description="Exact WKB toolkit: Airy Borel summation and the Pearcey system")
    sub = parser.add_subparsers(dest="group", required=True)

    wkb = sub.add_parser("wkb", help="Airy WKB series and coefficient streams")
    wkb_sub = wkb.add_subparsers(dest="command", required=True)
    p = wkb_sub.add_parser("series", help="Riccati coefficient table")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_wkb_series)
    p = wkb_sub.add_parser("coeffs", help="normalized coefficients, both derivations")
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_wkb_coeffs)
    p = wkb_sub.add_parser("borel", help="Borel expansion vs hypergeometric oracle")
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_wkb_borel)

    br = sub.add_parser("branches", help="algebraic branch tracking")
    br_sub = br.add_subparsers(dest="command", required=True)
    p = br_sub.add_parser("trace", help="sample one branch along the real axis")
    p.add_argument("--from", dest="start", type=float, default=0.01)
    p.add_argument("--to", dest="stop", type=float, default=0.99)
    p.add_argument("--label", default="X3")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_branches_trace)
    p = br_sub.add_parser("verify", help="exact Borel/branch identity check")
    p.add_argument("--order", type=int, default=6)
    p.set_defaults(func=cmd_branches_verify)

    rs = sub.add_parser("resum", help="numerical Borel summation")
    rs_sub = rs.add_subparsers(dest="command", required=True)
    p = rs_sub.add_parser("laplace", help="one Borel sum")
    p.add_argument("--x", required=True, help="complex point RE,IM")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_resum_laplace)

    ver = sub.add_parser("verify", help="verification suites")
    ver_sub = ver.add_subparsers(dest="command", required=True)
    p = ver_sub.add_parser("voros", help="connection formula on a grid")
    p.add_argument("--grid", default="default", choices=["default", "quick"])
    p.add_argument("--json", action="store_true", help="accepted for symmetry; output is always JSON")
    p.set_defaults(func=cmd_verify_voros)
    p = ver_sub.add_parser("airy-link", help="Ai/Bi identities at one point")
    p.add_argument("--x", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_verify_airy_link)
    p = ver_sub.add_parser("all", help="every verification, aggregated")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=cmd_verify_all)

    pe = sub.add_parser("pearcey", help="Pearcey system checks")
    pe_sub = pe.add_subparsers(dest="command", required=True)
    p = pe_sub.add_parser("recursion", help="symbolic recursion dump")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--json", action="store_true", help="accepted for symmetry; output is always JSON")
    p.set_defaults(func=cmd_pearcey_recursion)
    p = pe_sub.add_parser("verify", help="symbolic + sampled numeric suite")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--json", action="store_true", help="accepted for symmetry; output is always JSON")
    p.set_defaults(func=cmd_pearcey_verify)

    wy = sub.add_parser("weyl", help="operator identity checks")
    wy_sub = wy.add_subparsers(dest="command", required=True)
    p = wy_sub.add_parser("verify", help="normal-form identities")
    p.add_argument("--json", action="store_true", help="accepted for symmetry; output is always JSON")
    p.set_defaults(func=cmd_weyl_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
