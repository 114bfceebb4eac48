"""Tests of the benchmark itself: every output check rejects a corrupted
output, every workload runs clean, and the tracer outlives missing hooks.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads as W  # noqa: E402
from exactwkb.series import ExactScalar, PuiseuxSeries  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


# -- the output checks reject corrupted outputs -------------------------------

@pytest.fixture(scope="module")
def voros():
    points = W.voros_inputs(0)[:1]
    return points, W.voros_run(points)


@pytest.fixture(scope="module")
def pearcey():
    inputs = W.pearcey_inputs(0)
    return inputs, W.pearcey_run(inputs)


@pytest.fixture(scope="module")
def exact_series():
    signs = W.exact_series_inputs(0)
    return signs, W.exact_series_run(signs)


def test_voros_rejects_scaled_psi_minus(voros):
    points, reports = voros
    assert W.voros_check(points, reports) == []
    bad = [dataclasses.replace(reports[0], minus_direct=reports[0].minus_direct * (1 + 1e-4))]
    assert W.voros_check(points, bad)


def test_pearcey_rejects_perturbed_s_coefficient(pearcey):
    inputs, out = pearcey
    assert W.pearcey_check(inputs, out) == []
    rec = out["rec"]
    s_k = rec.s(3)
    _, x1, x2 = W.pearcey.coefficient_field()
    perturbed = W.pearcey.CubicFieldElement(s_k.c[0], s_k.c[1] + x2 / 1000, s_k.c[2])
    terms = list(rec.s_terms)
    terms[3 + 1] = perturbed
    bad = dict(out, rec=dataclasses.replace(rec, s_terms=tuple(terms)))
    problems = W.pearcey_check(inputs, bad)
    assert problems and all("k=3" in p for p in problems)


def _with_term(series: PuiseuxSeries, exponent: Fraction, value) -> PuiseuxSeries:
    terms = dict(series.terms)
    terms[exponent] = ExactScalar.coerce(value)
    return PuiseuxSeries(series.variable, terms, series.truncation)


def test_exact_series_rejects_changed_borel_coefficient(exact_series):
    signs, out = exact_series
    assert W.exact_series_check(signs, out) == []
    borel = out["borel+"]
    e = Fraction(2 * 7 - 1, 2)
    series = _with_term(borel.series, e, borel.series.terms[e] + Fraction(1, 10 ** 12))
    bad = dict(out, **{"borel+": dataclasses.replace(borel, series=series)})
    assert W.exact_series_check(signs, bad)


def test_exact_series_rejects_reciprocal_off_by_one_term(exact_series):
    signs, out = exact_series
    recip = out["reciprocal"]
    last = max(recip.terms)
    dropped = PuiseuxSeries(recip.variable, {e: c for e, c in recip.terms.items() if e != last},
                            recip.truncation)
    assert W.exact_series_check(signs, dict(out, reciprocal=dropped))
    changed = _with_term(recip, last, recip.terms[last] + 1)
    assert W.exact_series_check(signs, dict(out, reciprocal=changed))


def test_exact_series_rejects_changed_stream_coefficient(exact_series):
    signs, out = exact_series
    stream = out["stream-"]
    coeffs = list(stream.coeffs)
    coeffs[5] += Fraction(1, 10 ** 9)
    bad = dict(out, **{"stream-": dataclasses.replace(stream, coeffs=tuple(coeffs))})
    assert W.exact_series_check(signs, bad)


# -- the tracer ---------------------------------------------------------------

def test_tracer_skips_absent_hooks_and_restores():
    from exactwkb import airy_borel, airy_wkb

    original = airy_wkb.wkb_coefficient_stream
    t = tracer.Tracer()
    t.install(tracer.HOOKS + (("gone.fn", "exactwkb.airy_wkb", "no_such_function"),
                              ("gone.module", "exactwkb.no_such_module", "f"),
                              ("gone.method", "exactwkb.series", "PuiseuxSeries.no_such")))
    try:
        assert t.absent == ["gone.fn", "gone.module", "gone.method"]
        t.mark("start")
        airy_borel.borel_series(6, "+")
        t.mark("end")
    finally:
        t.uninstall()
    assert airy_wkb.wkb_coefficient_stream is original
    assert airy_borel.wkb_coefficient_stream is original
    got = t.metrics(tracer.OP_METRICS, t.phases["start"], t.phases["end"], 1)
    assert got["series.mul.calls"] > 0
    assert got["airy_borel.borel_series.self_s"] > 0
    # the stream is called from airy_borel's namespace and still traced
    assert t.phases["end"]["airy_wkb.wkb_coefficient_stream"][0] == 1
    missing = t.metrics((("gone.fn.calls", ("gone.fn",), "calls"),), {}, t.phases["end"], 1)
    assert missing == {}


# -- whole runs ---------------------------------------------------------------

def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["voros", "pearcey", "exact-series"])
def test_short_run_has_no_failed_ops(workload):
    result = _result(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                               "--trace", "0"))
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = _result(run_bench("--workload", "exact-series", "--seed", "3", "--seconds", "1",
                               "--trace", "1"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(result["metrics"])
    assert result["correct"] is True and result["failed"] == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "pearcey", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
