"""One benchmark process: import exactwkb, warm up, then time ops.

Started by run.py with the package's ``src`` on PYTHONPATH and numeric thread
pools pinned to one thread.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the launcher started this process")
    p.add_argument("--src", required=True)
    p.add_argument("--trace-file", help="trace the run and write its spans here")
    args = p.parse_args()

    t_import = time.monotonic()
    import exactwkb
    import_s = time.monotonic() - t_import
    src = Path(args.src).resolve()
    if src not in Path(exactwkb.__file__).resolve().parents:
        print(f"exactwkb imported from {exactwkb.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace_file:
        from tracer import OP_METRICS, SETUP_METRICS, Tracer
        tracer = Tracer()
        tracer.install()
        for name in tracer.absent:
            print(f"trace: hook {name} is absent; its metrics are not reported",
                  file=sys.stderr)
        tracer.mark("start")

    inputs = workload.make_inputs(args.seed)
    # warm-up op: fills the program's caches; part of set-up, not timed
    output = workload.run(inputs)
    warmup_problems = workload.check(inputs, output)
    failures = list(warmup_problems)
    setup_s = time.monotonic() - args.t0
    if tracer:
        tracer.mark("setup")

    op_times, attempted, failed, wrong = [], 0, 0, 0
    start = time.monotonic()
    while True:
        attempted += 1
        t_op = time.perf_counter()
        try:
            output = workload.run(inputs)
        except Exception:   # a failed op is counted, and the run goes on
            failed += 1
            if failed == 1:
                traceback.print_exc()
        else:
            op_times.append(time.perf_counter() - t_op)
            problems = workload.check(inputs, output)
            if problems:
                wrong += 1
                failed += 1
                failures += problems
        if time.monotonic() - start >= args.seconds:
            break
    result = {"setup_s": setup_s, "warmup_correct": not warmup_problems,
              "attempted": attempted, "failed": failed, "wrong": wrong,
              "op_times": op_times}
    if tracer:
        tracer.mark("ops")
        layers = tracer.metrics(OP_METRICS, tracer.phases["setup"], tracer.phases["ops"],
                                max(len(op_times), 1))
        layers.update(tracer.metrics(SETUP_METRICS, tracer.phases["start"],
                                     tracer.phases["setup"], 1))
        layers["setup.import_s"] = import_s
        if op_times:
            layers["trace.op_p50_s"] = statistics.median(op_times)
        result["layers"] = layers
        tracer.write(args.trace_file)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in failures[:20]:
        print("check failed: " + line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
