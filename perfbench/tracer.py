"""Outside-in tracer: wraps public library functions from the benchmark.

The library has no instrumentation of its own, so the tracer replaces
module-level bindings of selected functions with timing wrappers. The
modules import these functions by name (`from .core import step`), so a
wrapper must be installed in every module of the package that binds
the same function object, not only in the defining module; each binding
gets its own wrapper, which records the site it was called through.

Two kinds of target:
- aggregates (L1 steps, called millions of times) keep per-site call
  counts, node-steps and busy time, with no per-call record;
- spans (L2-L6) record name, site, start, end and parent, kept in
  memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _rows(net) -> int:
    return sum(len(rule.table) for rule in net.rules)


@dataclass(frozen=True)
class Target:
    metric: str
    module: str
    name: str
    aggregate: bool = False
    counter: str | None = None
    count: Callable | None = None


PACKAGE = "artifact"

TARGETS = (
    Target("L1.step", "artifact.core", "step", aggregate=True),
    Target("L1.iterate", "artifact.core", "iterate", aggregate=True),
    Target("L2.csan_to_network", "artifact.csan", "csan_to_network", counter="rows", count=_rows),
    Target("L2.gnetwork_to_network", "artifact.gnet", "gnetwork_to_network"),
    Target("L3.compile_to_gol", "artifact.gol", "compile_to_gol"),
    Target("L3.compile_gnetwork", "artifact.gadget", "compile_gnetwork_detailed"),
    Target("L3.csan_glue", "artifact.glue", "csan_glue"),
    Target("L3.make_csan", "artifact.csan", "make_csan"),
    Target("L4.verify_certificate", "artifact.gadget", "verify_certificate"),
    Target(
        "L4.verify_simulation",
        "artifact.simulate",
        "verify_simulation",
        counter="configs",
        count=lambda rep: rep.checked,
    ),
    Target("L4.check_pseudo_orbit", "artifact.glue", "check_pseudo_orbit"),
    Target("L5.attractors", "artifact.core", "attractors"),
    Target("L5.orbit_graph", "artifact.core", "orbit_graph", counter="states", count=lambda og: len(og.succ)),
    Target("L5.analyze_orbit", "artifact.core", "analyze_orbit"),
    Target("L5.oracle", "artifact.problems", "b_pred"),
    Target("L5.oracle", "artifact.problems", "pred_chg"),
    Target("L5.oracle", "artifact.problems", "reach"),
    Target("L6.cli_run", "artifact.cli", "run"),
    Target("L6.network_from_json", "artifact.core", "network_from_json"),
    Target("L6.instance_from_json", "artifact.problems", "instance_from_json"),
)


class Tracer:
    """Collects aggregates and spans while installed (a context manager)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, site, start, end, parent index or -1]
        self.aggregates: dict[str, list] = {}  # site -> [metric, calls, node_steps, busy_s]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for target in TARGETS:
            original = getattr(importlib.import_module(target.module), target.name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        site = f"{mod.__name__}.{attr}"
                        wrapper = (
                            self._aggregate(original, target, site)
                            if target.aggregate
                            else self._span(original, target, site)
                        )
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers ---------------------------------------------------------

    def _aggregate(self, fn, target: Target, site: str):
        stat = self.aggregates.setdefault(site, [target.metric, 0, 0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(net, *args, **kwargs):
            t = clock()
            out = fn(net, *args, **kwargs)
            stat[3] += clock() - t
            stat[1] += 1
            stat[2] += len(net.rules)
            return out

        return wrapper

    def _span(self, fn, target: Target, site: str):
        spans, stack, counters = self.spans, self._stack, self.counters
        name, count = target.metric, target.count
        counter = f"{name}.{target.counter}" if target.counter else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, site, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counter:
                counters[counter] = counters.get(counter, 0) + count(out)
            return out

        return wrapper

    # -- reading ----------------------------------------------------------

    def site_calls(self) -> dict[str, int]:
        """Calls recorded through each patched binding, by `module.name`."""
        out = {site: stat[1] for site, stat in self.aggregates.items()}
        for rec in self.spans:
            out[rec[1]] = out.get(rec[1], 0) + 1
        return out

    def values(self) -> dict[str, float]:
        """Flat metric values: aggregates, span summaries and counters."""
        out: dict[str, float] = dict(self.counters)
        for metric, calls, node_steps, busy in self.aggregates.values():
            out[f"{metric}.calls"] = out.get(f"{metric}.calls", 0) + calls
            out[f"{metric}.node_steps"] = out.get(f"{metric}.node_steps", 0) + node_steps
            out[f"{metric}.busy_s"] = out.get(f"{metric}.busy_s", 0.0) + busy
        for name, s in summarize(self.spans).items():
            for key, v in s.items():
                out[f"{name}.{key}"] = v
        steps = out.get("L1.step.node_steps", 0)
        out["L1.step.ns_per_node_step"] = out.get("L1.step.busy_s", 0.0) * 1e9 / steps if steps else 0.0
        return out

    def span_records(self) -> list[dict]:
        keys = ("name", "site", "start", "end", "parent")
        return [dict(zip(keys, rec)) for rec in self.spans]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s and self_s.

    busy_s adds the durations of the spans of a name that are not nested
    inside another span of the same name, so recursion is not counted
    twice. self_s adds each span's duration minus the durations of its
    direct children; children of one span never overlap, because the
    traced program is single-threaded.
    """
    child = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, _, start, end, parent) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["self_s"] += (end - start) - child[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][4]
        if parent < 0:
            s["busy_s"] += end - start
    return out
