"""Command-line entry point: series dumps, verification suites, Borel sums.

One binary, subcommand style, flags only.  Each subcommand is one call into
``exactwkb.verify``, which builds its report, verdict included; this module
parses the flags, prints the report as JSON or CSV and maps the outcome to an
exit code.  A flag left out takes the default of the ``verify`` function.
Every report echoes its configuration (orders, seeds, tolerances) so a rerun
with the same flags is byte-identical.  Exit codes: 0 success, 2 argument
errors (argparse), 3 precondition violations, 4 verification failures, 5
numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import verify
from .errors import NumericError, PreconditionError, VerificationError

EXIT_OK = 0
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4
EXIT_NUMERIC = 5

_ORDER = ("--order", {"type": int})
_SIGN = ("--sign", {"choices": ["+", "-"]})
_FORMAT = ("--format", {"choices": ["json", "csv"]})
_JSON = ("--json", {"action": "store_const", "const": "json", "dest": "format",
                    "help": "accepted for symmetry; output is always JSON"})
_ETA = ("--eta", {"type": float, "required": True})
_TOL = ("--tol", {"type": float})

# group -> (help, command -> (help, the verify function that builds its
# report, its flags as (name, add_argument keywords)))
COMMANDS = {
    "wkb": ("Airy WKB series and coefficient streams", {
        "series": ("Riccati coefficient table", verify.wkb_series,
                   [_ORDER, _SIGN, _FORMAT]),
        "coeffs": ("normalized coefficients, both derivations", verify.wkb_coeffs,
                   [_ORDER, _SIGN, _FORMAT]),
        "borel": ("Borel expansion vs hypergeometric oracle", verify.wkb_borel,
                  [_ORDER, _SIGN, _FORMAT]),
    }),
    "branches": ("algebraic branch tracking", {
        "trace": ("sample one branch along the real axis", verify.branches_trace, [
            ("--from", {"dest": "start", "type": float}),
            ("--to", {"dest": "stop", "type": float}),
            ("--label", {}),
            ("--samples", {"type": int}),
            ("--csv", {"action": "store_const", "const": "csv", "dest": "format"})]),
        "verify": ("exact Borel/branch identity check", verify.branches_verify, [_ORDER]),
    }),
    "resum": ("numerical Borel summation", {
        "laplace": ("one Borel sum", verify.resum_laplace, [
            ("--x", {"required": True, "help": "complex point RE,IM"}), _ETA, _SIGN, _TOL]),
    }),
    "verify": ("verification suites", {
        "voros": ("connection formula on a grid", verify.run_voros_grid, [
            ("--grid", {"choices": ["default", "quick"]}), _JSON]),
        "airy-link": ("Ai/Bi identities at one point", verify.airy_link, [
            ("--x", {"required": True}), _ETA, _TOL]),
        "all": ("every verification, aggregated", verify.run_all, [
            ("--fast", {"action": "store_true"})]),
    }),
    "pearcey": ("Pearcey system checks", {
        "recursion": ("symbolic recursion dump", verify.pearcey_recursion, [_ORDER, _JSON]),
        "verify": ("symbolic + sampled numeric suite", verify.run_pearcey_verify, [
            _ORDER, ("--points", {"type": int}), ("--seed", {"type": int}), _JSON]),
    }),
    "weyl": ("operator identity checks", {
        "verify": ("normal-form identities", verify.weyl_verify, [_JSON]),
    }),
}


def _parse_complex(text: str) -> complex:
    """RE,IM or RE as a complex number."""
    try:
        return complex(*map(float, text.split(",")))
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"cannot parse complex number from {text!r}") from exc


def _plain(value) -> str | list[float]:
    """JSON form of a report's exact values (str) and complex values ([re, im])."""
    return str(value) if isinstance(value, Fraction) else [value.real, value.imag]


def _emit(report: verify.Report, form: str) -> None:
    if form == "csv":
        rows = report.body[report.table]
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(row.values() for row in rows)
    else:
        print(json.dumps(report.body, sort_keys=True, indent=2, default=_plain))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactwkb",
        description="Exact WKB toolkit: Airy Borel summation and the Pearcey system")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in COMMANDS.items():
        sub = groups.add_parser(group, help=group_help).add_subparsers(
            dest="command", required=True)
        for name, (help_text, run, flags) in commands.items():
            p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
            for flag, options in flags:
                p.add_argument(flag, **options)
            p.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    del args["group"], args["command"]
    run, form = args.pop("run"), args.pop("format", "json")
    try:
        if "x" in args:
            args["x"] = _parse_complex(args["x"])
        report = run(**args)
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(report, form)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
