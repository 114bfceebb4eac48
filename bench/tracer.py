"""Span tracing at the layer boundaries of exactwkb, from outside the package.

Each hook replaces one public function or method by a wrapper that records a
span (name, start, end, parent) and accumulates call counts and self time.  A
function imported into several modules is replaced wherever the same object is
bound, so calls between layers are seen whichever module makes them.  A hook
whose target is gone is reported as absent and skipped; the run goes on.

Hooks sit at layer boundaries only: never on ExactScalar or Fraction
arithmetic, which runs millions of times per operation.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (metric name, module, attribute path); the metric name is also the span name
HOOKS = (
    ("series.mul", "exactwkb.series", "PuiseuxSeries.__mul__"),
    ("series.inverse", "exactwkb.series", "PuiseuxSeries.inverse"),
    ("series.sqrt", "exactwkb.series", "PuiseuxSeries.sqrt"),
    ("series.inv_sqrt", "exactwkb.series", "PuiseuxSeries.inv_sqrt"),
    ("series.exp", "exactwkb.series", "PuiseuxSeries.exp"),
    ("airy_wkb.riccati_recurrence", "exactwkb.airy_wkb", "riccati_recurrence"),
    ("airy_wkb.wkb_coefficient_stream", "exactwkb.airy_wkb", "wkb_coefficient_stream"),
    ("airy_borel.borel_series", "exactwkb.airy_borel", "borel_series"),
    ("branches.solve_cubic_g", "exactwkb.branches", "solve_cubic_g"),
    ("branches.anchored_g_triple", "exactwkb.branches", "anchored_g_triple"),
    ("branches.continue_triple", "exactwkb.branches", "continue_triple"),
    ("branches.monodromy_triple", "exactwkb.branches", "monodromy_triple"),
    ("resummation.ray_triple", "exactwkb.resummation", "RayField.triple"),
    ("resummation.laplace_sum", "exactwkb.resummation", "laplace_sum"),
    ("resummation.gamma_term", "exactwkb.resummation", "gamma_term"),
    ("resummation.verify_voros", "exactwkb.resummation", "verify_voros"),
    ("pearcey.pearcey_recursion", "exactwkb.pearcey", "pearcey_recursion"),
    ("pearcey.check_closedness", "exactwkb.pearcey", "check_closedness"),
    ("pearcey.check_primitives", "exactwkb.pearcey", "check_primitives"),
    ("pearcey.denominator_is_unit_power", "exactwkb.pearcey", "denominator_is_unit_power"),
    ("pearcey.ring_mul", "exactwkb.pearcey", "CubicFieldElement.__mul__"),
    ("pearcey.ring_inverse", "exactwkb.pearcey", "CubicFieldElement.inverse"),
    ("pearcey.quartic_g_roots", "exactwkb.pearcey", "quartic_g_roots"),
    ("pearcey.annihilation_residuals", "exactwkb.pearcey", "annihilation_residuals"),
    ("weyl.verify_operator_identities", "exactwkb.weyl", "verify_operator_identities"),
)

# per-layer metrics reported per timed op: (metric, hook names, field)
OP_METRICS = (
    ("branches.solve_cubic_g.calls", ("branches.solve_cubic_g",), "calls"),
    ("branches.monodromy_triple.calls", ("branches.monodromy_triple",), "calls"),
    ("branches.continue_triple.calls", ("branches.continue_triple",), "calls"),
    ("branches.continue_triple.self_s", ("branches.continue_triple",), "self"),
    ("branches.anchored_g_triple.calls", ("branches.anchored_g_triple",), "calls"),
    ("branches.anchored_g_triple.self_s", ("branches.anchored_g_triple",), "self"),
    ("resummation.ray_triple.calls", ("resummation.ray_triple",), "calls"),
    ("resummation.laplace_sum.calls", ("resummation.laplace_sum",), "calls"),
    ("resummation.laplace_sum.self_s", ("resummation.laplace_sum",), "self"),
    ("resummation.gamma_term.self_s", ("resummation.gamma_term",), "self"),
    ("series.mul.calls", ("series.mul",), "calls"),
    ("series.inverse.calls", ("series.inverse",), "calls"),
    ("series.self_s", ("series.mul", "series.inverse", "series.sqrt",
                       "series.inv_sqrt", "series.exp"), "self"),
    ("airy_wkb.wkb_coefficient_stream.self_s", ("airy_wkb.wkb_coefficient_stream",), "self"),
    ("airy_borel.borel_series.self_s", ("airy_borel.borel_series",), "self"),
    ("pearcey.pearcey_recursion.self_s", ("pearcey.pearcey_recursion",), "self"),
    ("pearcey.check_closedness.self_s", ("pearcey.check_closedness",), "self"),
    ("pearcey.check_primitives.self_s", ("pearcey.check_primitives",), "self"),
    ("pearcey.ring_mul.calls", ("pearcey.ring_mul",), "calls"),
    ("pearcey.ring_mul.self_s", ("pearcey.ring_mul",), "self"),
    ("pearcey.ring_inverse.calls", ("pearcey.ring_inverse",), "calls"),
    ("pearcey.quartic_g_roots.calls", ("pearcey.quartic_g_roots",), "calls"),
    ("pearcey.quartic_g_roots.self_s", ("pearcey.quartic_g_roots",), "self"),
    ("weyl.verify_operator_identities.self_s", ("weyl.verify_operator_identities",), "self"),
)

# per-layer metrics of the set-up phase (warm-up op, cold caches), per run
SETUP_METRICS = tuple(("setup." + name, hooks, field) for name, hooks, field in OP_METRICS
                      if name.startswith("series."))

MAX_SPANS = 100_000


class Tracer:
    """In-memory span recorder with per-hook counters, split by phase."""

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.calls = array("q")
        self.self_s = array("d")
        self._stack: list[list] = []     # [span id, seconds covered by children]
        self._next_id = 0
        self.spans = {key: array(code) for key, code in
                      (("id", "q"), ("name", "q"), ("parent", "q"),
                       ("start", "d"), ("end", "d"))}
        self.dropped = 0
        self._restore: list[tuple] = []
        self.phases: dict[str, tuple] = {}

    # -- installing ----------------------------------------------------------

    def install(self, hooks=HOOKS) -> None:
        for name, module_name, path in hooks:
            try:
                target = _resolve(importlib.import_module(module_name), path)
            except (ImportError, AttributeError, KeyError):
                target = None
            if not callable(target):
                self.absent.append(name)
                continue
            index = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            wrapper = self._wrap(target, index)
            package = module_name.split(".")[0]
            owners = [m for key, m in list(sys.modules.items()) if m is not None
                      and (key == package or key.startswith(package + "."))]
            owners += [v for m in owners for v in vars(m).values() if isinstance(v, type)]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is target:
                        self._restore.append((owner, key, value))
                        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _wrap(self, fn, index: int):
        clock = time.perf_counter
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        spans = self.spans
        ids, names, parents = spans["id"], spans["name"], spans["parent"]
        starts, ends = spans["start"], spans["end"]
        tracer = self

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[index] += 1
                self_s[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(ids) < MAX_SPANS:
                    ids.append(span_id)
                    names.append(index)
                    parents.append(parent)
                    starts.append(start)
                    ends.append(end)
                else:
                    tracer.dropped += 1

        return hooked

    # -- reading ---------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        return {name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.names)}

    def mark(self, phase: str) -> None:
        """Snapshot the counters at the end of a phase."""
        self.phases[phase] = self.totals()

    def metrics(self, definitions, start: dict, end: dict, per: float) -> dict:
        """Per-layer values between two snapshots, divided by ``per``.

        A metric all of whose hooks are absent is left out.
        """
        out = {}
        for metric, hooks, field in definitions:
            present = [h for h in hooks if h in end]
            if not present:
                continue
            pos = 0 if field == "calls" else 1
            total = sum(end[h][pos] - start.get(h, (0, 0.0))[pos] for h in present)
            out[metric] = total / per
        return out

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines: one header, then one per span."""
        s = self.spans
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "absent": self.absent,
                                 "dropped": self.dropped}) + "\n")
            for i in range(len(s["id"])):
                fh.write(json.dumps([s["id"][i], self.names[s["name"][i]], s["parent"][i],
                                     round(s["start"][i], 9), round(s["end"][i], 9)]) + "\n")


def _resolve(module, path: str):
    """The object a dotted path names, read from the __dict__ that defines it."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = vars(owner)[part]
    return vars(owner)[attr]
