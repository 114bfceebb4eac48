"""Benchmark of exactwkb: one command, three fixed-work workloads.

    python3 bench/run.py --workload voros --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src`` of the repository that
holds this file.  An untraced run starts three single-threaded worker
processes one after another; each measures one set-up and times ops for a
third of ``--seconds``, so the timed ops sample the host over the whole run.
With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of one traced worker that times ops for
all of ``--seconds``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("voros", "pearcey", "exact-series")
WORKERS = 3                # worker processes per untraced run
DEADLINE_S = 170.0         # the whole run ends within this, or fails

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"setup.import_s": "s", "trace.op_p50_s": "s"}


def layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    per = "" if name.startswith("setup.") else "/op"
    return ("count" if name.endswith(".calls") else "s") + per


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--src", str(SRC)]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace-file", str(OUT / f"trace-{args.workload}-{args.seed}.jsonl")]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=worker_env(), cwd=HERE,
                          stdout=subprocess.PIPE, timeout=max(deadline - t0, 1.0),
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "exactwkb" / "__init__.py").is_file():
        print(f"no exactwkb package under {SRC}", file=sys.stderr)
        return 2
    # compiled once here, so that no worker's set-up pays for byte-compiling
    compileall.compile_dir(str(SRC), quiet=1)

    workers = 1 if args.trace else WORKERS
    try:
        runs = [run_worker(args, args.seconds / workers, deadline) for _ in range(workers)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    correct = all(r["warmup_correct"] and r["wrong"] == 0 for r in runs)
    op_times = [t for r in runs for t in r["op_times"]]
    if not op_times:
        print("benchmark run failed: no op completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in runs[0]["layers"].items()}
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "op_p50_s": statistics.median(op_times),
            "ops_per_s": len(op_times) / sum(op_times),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
