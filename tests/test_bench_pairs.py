"""The summary arithmetic of tools/bench_pairs.py on canned run outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _tool()
BETTER = {"setup_s": "lower", "op_p50_s": "lower", "ops_per_s": "higher",
          "peak_rss_mb": "lower"}


def run_output(values, attempted=100, failed=0, correct=True):
    """A bench/run.py output line, parsed, with the given metric values."""
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()}}


def test_the_run_length_and_directions_are_those_benchmark_json_declares():
    assert bench_pairs.benchmark() == (20, BETTER)


@pytest.mark.parametrize("workload", ["pearcey", "voros", "exact-series"])
def test_the_recorded_pairs_of_bench_37_summarise_as_recorded(workload):
    recorded = json.loads((ROOT / "BENCH_37.json").read_text())["end_to_end"][workload]
    pairs = recorded["pairs"]
    sides = {side: [run_output({name: recorded[name][side]["runs"][k] for name in BETTER})
                     for k in range(pairs)] for side in ("parent", "change")}
    summary = bench_pairs.summarise(sides["parent"], sides["change"], BETTER)
    assert summary["pairs"] == pairs
    # the recorded runs were rounded to 9 decimals after their summary was
    # taken, so a recomputed quartile may differ in that last place
    for name in BETTER:
        got, want = summary[name], recorded[name]
        for side in ("parent", "change"):
            assert got[side]["runs"] == want[side]["runs"]
            for key in ("q1", "median", "q3"):
                assert got[side][key] == pytest.approx(want[side][key], rel=0, abs=2e-9)
        assert got["change_pct"] == pytest.approx(want["change_pct"], rel=0, abs=2e-3), name
        assert got["change_better_pairs"] == want["change_better_pairs"], name
    op = summary["op_p50_s"]
    assert op["parent_iqr"] == round(recorded["op_p50_s"]["parent"]["q3"]
                                     - recorded["op_p50_s"]["parent"]["q1"], 9)
    assert op["gap_exceeds_parent_iqr"] == (workload == "pearcey")


def test_ties_count_for_neither_side_and_the_gap_is_taken_in_the_better_direction():
    parent = [run_output({"t": v, "rate": r}, attempted=10, failed=f)
              for v, r, f in ((1.0, 5.0, 0), (2.0, 5.0, 1), (3.0, 5.0, 0), (4.0, 5.0, 0))]
    change = [run_output({"t": v, "rate": r}, attempted=11, correct=k != 2)
              for k, (v, r) in enumerate(((1.0, 6.0), (1.5, 6.0), (3.5, 4.0), (2.0, 5.0)))]
    summary = bench_pairs.summarise(parent, change, {"t": "lower", "rate": "higher"})
    assert summary["failed"] == {"parent": 1, "change": 0}
    assert summary["attempted"] == {"parent": 40, "change": 44}
    assert summary["correct_all"] is False
    t, rate = summary["t"], summary["rate"]
    # t: pair 1 ties, pairs 2 and 4 are lower, pair 3 higher
    assert t["change_better_pairs"] == 2
    assert t["parent"]["median"] == 2.5 and t["change"]["median"] == 1.75
    assert t["parent"]["q1"] == 1.25 and t["parent"]["q3"] == 3.75
    assert t["median_gap"] == 0.75 and t["parent_iqr"] == 2.5
    assert not t["gap_exceeds_parent_iqr"]
    assert t["change_pct"] == -30.0
    # rate: higher is better, so the gap is change minus parent
    assert rate["change_better_pairs"] == 2
    assert rate["median_gap"] == 0.5 and rate["parent_iqr"] == 0.0
    assert rate["gap_exceeds_parent_iqr"]
    assert len(bench_pairs.summary_lines(summary, {"t": "lower", "rate": "higher"})) == 3


def test_unequal_or_single_pairs_are_refused():
    one = [run_output({"t": 1.0})]
    with pytest.raises(ValueError):
        bench_pairs.summarise(one, one, {"t": "lower"})
    with pytest.raises(ValueError):
        bench_pairs.summarise(one * 2, one * 3, {"t": "lower"})
