"""CLI surface: formats, exit codes, determinism."""

import io
import json
from contextlib import redirect_stdout

import pytest

from exactwkb.cli import main


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

    def test_unparseable_complex_is_3(self):
        code, _ = run_cli(["resum", "laplace", "--x", "one", "--eta", "8"])
        assert code == 3


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
