"""Run the benchmark in alternating pairs, parent commit against this tree.

    python tools/bench_pairs.py --parent HEAD --workload voros --pairs 10 \\
        [--first-seed 1] [--json pairs-voros.json]

The parent's tracked files are unpacked with ``git archive`` into a temporary
directory: no worktree is made and nothing under ``.git`` changes.  The change
is the working tree that holds this file.  Pair k runs ``bench/run.py
--trace 0`` at seed first_seed + k on both trees, one run at a time, the
parent first where the seed is odd, each run as long as ``BENCHMARK.json``'s
``run_seconds``.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's median
and quartiles (``statistics.quantiles``, exclusive method), the change in
percent, the pairs the change won (ties count for neither side) and the
median gap, taken in the metric's better direction, against the parent's
interquartile spread: what each ``BENCH_<n>.json`` records.  ``--json``
writes the same summary with every run's value.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def benchmark(root: Path = ROOT) -> tuple[float, dict]:
    """(run_seconds, {metric: "lower" or "higher"}): the run length that
    ``BENCHMARK.json`` sets, and the better direction of each end-to-end
    metric it declares."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    return declared["run_seconds"], {m["name"]: m["better"] for m in declared["end_to_end"]}


def side_summary(values: list) -> dict:
    """Quartiles, median and every value of one side's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": round(q1, 9), "median": round(median, 9), "q3": round(q3, 9),
            "runs": values}


def summarise(parent_runs: list, change_runs: list, better: dict) -> dict:
    """The pair summary of two equal-length lists of ``bench/run.py`` outputs
    (its last stdout line, parsed), the k-th of each from pair k."""
    if len(parent_runs) != len(change_runs) or len(parent_runs) < 2:
        raise ValueError("need at least two pairs, each with a run on both sides")
    summary = {
        "pairs": len(parent_runs),
        "correct_all": all(r["correct"] for r in parent_runs + change_runs),
        "failed": {"parent": sum(r["failed"] for r in parent_runs),
                   "change": sum(r["failed"] for r in change_runs)},
        "attempted": {"parent": sum(r["attempted"] for r in parent_runs),
                      "change": sum(r["attempted"] for r in change_runs)},
    }
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        parent = [r["metrics"][name]["value"] for r in parent_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        p, c = side_summary(parent), side_summary(change)
        gap = sign * (c["median"] - p["median"]) + 0.0   # + 0.0: no "-0" for a tie
        spread = p["q3"] - p["q1"]
        summary[name] = {
            "parent": p,
            "change": c,
            "change_pct": round(100 * (c["median"] - p["median"]) / p["median"], 3),
            "change_better_pairs": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "median_gap": round(gap, 9),
            "parent_iqr": round(spread, 9),
            "gap_exceeds_parent_iqr": gap > spread,
        }
    return summary


def summary_lines(summary: dict, better: dict) -> list[str]:
    """The printed form of ``summarise``'s result, one line per metric."""
    lines = [f"{summary['pairs']} pairs; correct on every run: {summary['correct_all']}; "
             f"failed/attempted parent {summary['failed']['parent']}/"
             f"{summary['attempted']['parent']}, change {summary['failed']['change']}/"
             f"{summary['attempted']['change']}"]
    for name in better:
        m = summary[name]
        p, c = m["parent"], m["change"]
        lines.append(
            f"{name}: parent {p['median']:.6g} ({p['q1']:.6g}-{p['q3']:.6g}) -> change "
            f"{c['median']:.6g} ({c['q1']:.6g}-{c['q3']:.6g}), {m['change_pct']:+.1f}%, "
            f"change better in {m['change_better_pairs']}/{summary['pairs']}; "
            f"gap {m['median_gap']:.3g} in the {better[name]}-is-better direction, "
            f"parent IQR {m['parent_iqr']:.3g}")
    return lines


def unpack(rev: str, dest: Path):
    """The tracked files of ``rev`` under ``dest``, through ``git archive``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run in ``tree``: its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py in {tree} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--json", type=Path, help="write the summary here")
    args = p.parse_args(argv)
    seconds, better = benchmark()
    parent_runs, change_runs = [], []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        unpack(args.parent, parent_tree)
        for seed in range(args.first_seed, args.first_seed + args.pairs):
            sides = [(parent_tree, parent_runs), (ROOT, change_runs)]
            for tree, runs in sides if seed % 2 else sides[::-1]:
                runs.append(run_bench(tree, args.workload, seed, seconds))
            print(f"seed {seed}: op_p50_s parent "
                  f"{parent_runs[-1]['metrics']['op_p50_s']['value']:.6g}, change "
                  f"{change_runs[-1]['metrics']['op_p50_s']['value']:.6g}", flush=True)
    summary = summarise(parent_runs, change_runs, better)
    print("\n".join(summary_lines(summary, better)))
    if args.json:
        record = {"parent": args.parent, "workload": args.workload,
                  "run_seconds": seconds, "first_seed": args.first_seed, **summary}
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
