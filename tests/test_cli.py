"""CLI surface: formats, exit codes, determinism."""

import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from exactwkb.branches import (ANCHOR_SERIES_TERMS, BranchLabel, branch_series,
                               default_sqrt_rule)
from exactwkb import cli, verify
from exactwkb.cli import main


def evaluate(series, s):
    """The exact series summed in floating point at s; half powers take the
    principal root."""
    root = complex(s) ** 0.5
    return sum(complex(c) * root ** int(2 * e) for e, c in series.terms.items())


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


class TestTables:
    def test_series_csv_shape(self):
        code, out = run_cli(["wkb", "series", "--order", "3", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,coefficient,x_exponent"
        assert lines[1] == "-1,1,1/2"
        assert len(lines) == 6

    def test_coeffs_agree_to_20(self):
        code, out = run_cli(["wkb", "coeffs", "--order", "20"])
        assert code == 0
        report = json.loads(out)
        assert report["all_match"]
        assert len(report["rows"]) == 21

    def test_borel_match_report(self):
        code, out = run_cli(["wkb", "borel", "--sign", "-", "--order", "10"])
        assert code == 0
        report = json.loads(out)
        assert report["all_match"]
        assert report["i_prefactor"] is True

    def test_trace_csv(self):
        code, out = run_cli(["branches", "trace", "--from", "0.05", "--to", "0.4",
                             "--label", "X3", "--samples", "8", "--csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,re,im"
        assert len(lines) == 9


def trace_values(label, *flags):
    code, out = run_cli(["branches", "trace", "--label", label, *flags, "--csv"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    return [(float(s), complex(float(re), float(im))) for s, re, im in rows]


class TestTrace:
    @pytest.mark.parametrize("label", ["X3", "g2"])
    def test_samples_solve_the_cubic_and_start_on_the_anchor_series(self, label):
        values = trace_values(label, "--from", "0.05", "--to", "0.4", "--samples", "8")
        assert len(values) == 8
        for s, v in values:
            if label[0] == "X":
                residual = 16 * v ** 3 - 3 * v - default_sqrt_rule(s)
            else:
                residual = 16 * s * (1 - s) * v ** 3 - 3 * v - 1
            assert abs(residual) < 1e-12
        s0, v0 = values[0]
        series = branch_series(BranchLabel(label[0], int(label[1]), 0), ANCHOR_SERIES_TERMS)
        assert abs(v0 - evaluate(series, s0)) < 1e-12

    @pytest.mark.parametrize("label", ["X2", "X3"])
    def test_sample_on_the_crossing_keeps_the_label(self, label):
        # 37 samples from 0.2 to 0.8 put one exactly on s = 1/2, where the
        # crossing branches 2 and 3 coincide; 36 samples miss it
        on = trace_values(label, "--from", "0.2", "--to", "0.8", "--samples", "37")
        off = trace_values(label, "--from", "0.2", "--to", "0.8", "--samples", "36")
        assert on[18][0] == 0.5
        assert abs(on[-1][1] - off[-1][1]) < 1e-9

    @pytest.mark.parametrize("label", ["x3", "G2"])
    def test_trace_label_letter_is_case_blind(self, label):
        assert trace_values(label) == trace_values(label.swapcase())


class TestVerifiers:
    def test_branches_verify(self):
        code, out = run_cli(["branches", "verify", "--order", "4"])
        assert code == 0
        assert json.loads(out)["passed"]

    def test_weyl_verify(self):
        code, out = run_cli(["weyl", "verify", "--json"])
        assert code == 0
        assert json.loads(out)["passed"]

    def test_resum_laplace(self):
        code, out = run_cli(["resum", "laplace", "--x", "0.866,-0.5",
                             "--eta", "8", "--sign", "-", "--tol", "1e-8"])
        assert code == 0
        report = json.loads(out)
        assert report["region"] == "I"
        assert report["error_estimate"] < 1e-8

    def test_airy_link(self):
        code, out = run_cli(["verify", "airy-link", "--x", "0.866,-0.5",
                             "--eta", "8"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"]
        # reports carry inputs, values, residuals and error estimates
        assert {"values", "residuals", "quadrature_error", "config"} <= report.keys()

    def test_voros_quick_grid(self):
        code, out = run_cli(["verify", "voros", "--grid", "quick", "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"]
        assert len(report["points"]) == 2
        assert "plus_direct" in report["points"][0]


class TestExactReports:
    """Reports made only of rationals and booleans, recorded once and held byte
    for byte; float-bearing reports are left out, their last bits follow the
    platform's libm."""

    RECORDED = json.loads((Path(__file__).parent / "data" / "exact_reports.json").read_text())

    @pytest.mark.parametrize("command", sorted(RECORDED))
    def test_report_matches_the_recording(self, command):
        code, out = run_cli(command.split())
        assert code == 0
        assert out == self.RECORDED[command]


class TestExitCodes:
    def test_parse_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["wkb", "series", "--format", "yaml"])
        assert exc.value.code == 2

    def test_precondition_error_is_3(self):
        code, _ = run_cli(["resum", "laplace", "--x", "1,0", "--eta", "8"])
        assert code == 3

    @pytest.mark.parametrize("quadrature_args", [["--eta", "8", "--tol", "0"],
                                                 ["--eta", "nan"]])
    def test_bad_quadrature_input_is_3(self, quadrature_args):
        code, _ = run_cli(["resum", "laplace", "--x", "0.866,-0.5", *quadrature_args])
        assert code == 3

    def test_overflowing_borel_sum_is_5(self, capsys):
        # the region-II "+" sum grows like e^(|Re alpha| eta): at |x| = 3 on
        # arg x = pi/6, e^(-alpha eta) overflows above eta of about 290
        code, out = run_cli(["resum", "laplace", "--x", "2.598,1.5", "--eta", "300",
                             "--sign", "+"])
        err = capsys.readouterr().err
        assert code == 5 and out == ""
        assert "e^(-alpha eta) overflows" in err and "Traceback" not in err

    def test_unparseable_complex_is_3(self):
        code, _ = run_cli(["resum", "laplace", "--x", "one", "--eta", "8"])
        assert code == 3

    @pytest.mark.parametrize("label", ["Xq", "X13", "Y2", "X0", "X4", "", "gg"])
    def test_bad_trace_label_is_3(self, label):
        code, _ = run_cli(["branches", "trace", "--label", label])
        assert code == 3

    @pytest.mark.parametrize("endpoint", [["--from", "nan"], ["--to", "nan"],
                                          ["--to", "inf"]])
    def test_non_finite_trace_endpoint_is_3(self, endpoint):
        code, _ = run_cli(["branches", "trace", *endpoint])
        assert code == 3

    @pytest.mark.parametrize("samples", ["1", "-3"])
    def test_too_few_trace_samples_is_3(self, samples):
        code, out = run_cli(["branches", "trace", "--samples", samples])
        assert (code, out) == (3, "")

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_airy_link_gate_not_positive_and_finite_is_3(self, tol):
        code, out = run_cli(["verify", "airy-link", "--x", "0.866,-0.5",
                             "--eta", "8", "--tol", tol])
        assert (code, out) == (3, "")

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_empty_pearcey_sample_is_3(self, points):
        code, out = run_cli(["pearcey", "verify", "--order", "2", "--points", points])
        assert (code, out) == (3, "")


class TestModuleEntryPoint:
    def test_python_m_runs_the_cli(self):
        # the package imported from the same source tree as these tests
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        args = ["verify", "all", "--fast"]
        done = subprocess.run([sys.executable, "-m", "exactwkb", *args], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert (0, done.stdout) == run_cli(args)


class TestDeterminism:
    def test_seeded_reports_are_byte_identical(self):
        args = ["pearcey", "verify", "--order", "2", "--points", "5",
                "--seed", "42", "--json"]
        code_a, out_a = run_cli(args)
        code_b, out_b = run_cli(args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_weyl_report_byte_identical(self):
        _, out_a = run_cli(["weyl", "verify", "--json"])
        _, out_b = run_cli(["weyl", "verify", "--json"])
        assert out_a == out_b


def package_modules(source):
    """The package modules a module's source imports, by short name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "exactwkb"):
            module = (node.module or "").removeprefix("exactwkb").lstrip(".")
            found |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.removeprefix("exactwkb.") for alias in node.names
                      if alias.name.split(".")[0] == "exactwkb"}
    return found


class TestReportPath:
    def test_import_finder_sees_every_form(self):
        source = ("from . import branches, verify\nfrom .errors import X\n"
                  "import exactwkb.pearcey\nfrom exactwkb.series import P\nimport json")
        assert package_modules(source) == {"branches", "verify", "errors",
                                           "pearcey", "series"}

    def test_cli_imports_only_verify_and_errors(self):
        """Every report is built in exactwkb.verify, so the CLI needs no other
        package module."""
        assert package_modules(Path(cli.__file__).read_text()) == {"verify", "errors"}

    def test_verify_all_reads_each_subcommand_verdict(self, monkeypatch):
        failing = verify.Report({}, passed=False)
        for name in ("wkb_coeffs", "wkb_borel", "branches_verify", "airy_link",
                     "run_voros_grid", "run_pearcey_verify", "weyl_verify"):
            monkeypatch.setattr(verify, name, lambda *args, **kwargs: failing)
        report = verify.run_all(fast=True)
        assert report.body["sections"] and not any(report.body["sections"].values())
        assert not report.passed
