"""Command-line entry point: series dumps, verification suites, Borel sums.

One binary, subcommand style, flags only.  Each subcommand parses its flags,
makes one library call (the suites live in ``exactwkb.verify``) and prints
the result as JSON or CSV.  Every report echoes its
configuration (orders, seeds, tolerances) so a rerun with the same flags is
byte-identical.  Exit codes: 0 success, 2 argument errors (argparse), 3
precondition violations, 4 verification failures, 5 numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction

from . import airy_wkb, branches, pearcey, resummation, verify, weyl
from .errors import NumericError, PreconditionError, VerificationError

EXIT_OK = 0
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4
EXIT_NUMERIC = 5


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _cx(z: complex) -> list[float]:
    """JSON form of the complex values in a report: [re, im]."""
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
    print(json.dumps(report, sort_keys=True, indent=2, default=_cx))


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
    rows = [[n, _frac(a), _frac(b), match]
            for n, a, b, match in verify.wkb_coefficient_rows(args.order, args.sign)]
    all_match = all(r[3] for r in rows)
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
    series, table = verify.borel_rows(args.order, args.sign)
    rows = [[n, _frac(a), _frac(b), match] for n, a, b, match in table]
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
    if not re.fullmatch("[XxGg][0-9]", args.label):
        raise PreconditionError(f"label must be X or g and one digit, got {args.label!r}")
    family = "X" if args.label[0] in "Xx" else "g"
    label = branches.BranchLabel(family, int(args.label[1]), 0)
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
        "config": {"x": ctx.x, "eta": args.eta, "sign": args.sign,
                   "tol": args.tol},
        "region": result.region,
        "value": result.value,
        "error_estimate": result.quadrature_error_estimate,
    })
    return EXIT_OK


def cmd_verify_airy_link(args) -> int:
    report = resummation.verify_airy_connection(_parse_complex(args.x), args.eta,
                                                tol=args.tol)
    _emit_json({
        "command": "verify airy-link",
        "config": {"x": report.x, "eta": args.eta, "tol": args.tol},
        "region": report.region,
        "values": {
            "psi_plus": report.psi_plus,
            "psi_minus": report.psi_minus,
            "ai": report.ai,
            "bi": report.bi,
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


def cmd_verify_voros(args) -> int:
    report = verify.run_voros_grid(args.grid)
    report["command"] = "verify voros"
    _emit_json(report)
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


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
    report = verify.run_pearcey_verify(args.order, args.points, args.seed)
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
    sections = verify.run_all(args.fast)
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
    p.add_argument("--seed", type=int, default=verify.PEARCEY_SEED)
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
