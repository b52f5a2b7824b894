"""Benchmark of the artifact package: one seeded workload per process.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
src/. Workloads are `compile`, `sweep` and `walk` (see NOTES.md). The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with no
instrumentation. With --trace 1 the run is repeated under the tracer,
the metrics are the per-layer ones, and the spans are written to
.perfbench/ in the checkout. The exit code is 0 only if every job's
output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# The reported set-up time is the median package import, each in a
# fresh interpreter, plus the median set-up. Both are measured in two
# rounds, one before the timed loop and one after it, so that a slow
# spell of the machine seldom covers them all. A round is
# IMPORT_REPEATS imports and SETUP_REPEATS set-ups (before, after),
# more set-ups while the round has taken less than SETUP_SECONDS, at
# most SETUP_MAX_REPEATS.
IMPORT_REPEATS = 3
SETUP_REPEATS = (2, 1)
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 12

# Run by a fresh interpreter: time the package import, print seconds.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import workloads
print(time.perf_counter() - t0)
"""

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "L1.step.calls": "count",
    "L1.step.node_steps": "count",
    "L1.step.busy_s": "s",
    "L1.step.ns_per_node_step": "ns",
    "L1.iterate.calls": "count",
    "L2.csan_to_network.calls": "count",
    "L2.csan_to_network.busy_s": "s",
    "L2.csan_to_network.rows": "count",
    "L2.gnetwork_to_network.calls": "count",
    "L2.gnetwork_to_network.busy_s": "s",
    "L3.compile_to_gol.calls": "count",
    "L3.compile_to_gol.busy_s": "s",
    "L3.compile_to_gol.self_s": "s",
    "L3.compile_gnetwork.self_s": "s",
    "L3.csan_glue.calls": "count",
    "L3.csan_glue.self_s": "s",
    "L3.make_csan.calls": "count",
    "L4.verify_certificate.calls": "count",
    "L4.verify_certificate.busy_s": "s",
    "L4.verify_simulation.self_s": "s",
    "L4.verify_simulation.configs": "count",
    "L4.check_pseudo_orbit.calls": "count",
    "L5.attractors.self_s": "s",
    "L5.orbit_graph.busy_s": "s",
    "L5.orbit_graph.states": "count",
    "L5.oracle.calls": "count",
    "L5.oracle.self_s": "s",
    "L5.analyze_orbit.calls": "count",
    "L5.analyze_orbit.self_s": "s",
    "L5.orbit_len": "count",
    "L6.cli_run.calls": "count",
    "L6.cli_run.self_s": "s",
    "L6.network_from_json.busy_s": "s",
    "L6.instance_from_json.busy_s": "s",
    "trace.jobs": "count",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Record:
    """One job run: its place in the job list, time and outcome."""

    index: int
    job: object
    seconds: float
    ok: bool


def closed_loop(wl, state, seconds: float | None = None, count: int | None = None) -> list[Record]:
    """Issue jobs back to back, cycling through the set-up's pass order.

    Stops after `count` jobs, or once `seconds` have passed and one
    whole pass has run (a started job always finishes), so a slow
    program cannot leave its slowest jobs out of the figures. A job
    that raises or fails its check is recorded as not ok and the loop
    goes on. Outputs are dropped once checked, so they do not pile up
    in memory.
    """
    jobs = state.jobs
    order = state.order or tuple(range(len(jobs)))
    records: list[Record] = []
    start = time.perf_counter()
    while (count is None or len(records) < count) and (
        len(records) < len(order) or seconds is None or time.perf_counter() - start < seconds
    ):
        index = order[len(records) % len(order)]
        job = jobs[index]
        t0 = time.perf_counter()
        try:
            out = wl.run(state, job)
            dt = time.perf_counter() - t0
            wl.check(state, job, out)
            ok = True
        except Exception:  # a failed job is counted, reported and survived
            dt = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            ok = False
        out = None  # free the output before the next job runs
        records.append(Record(index, job, dt, ok))
    return records


def best_per_job(records: list[Record]) -> dict[int, Record]:
    """The fastest run of each distinct job of the list.

    Other tenants of a shared machine only ever slow a job down, so the
    best of a job's repeats is the steadiest estimate of its cost. A
    run covers a whole pass, so the mix of jobs behind these times is
    the same in every run.
    """
    best: dict[int, Record] = {}
    for r in records:
        if r.index not in best or r.seconds < best[r.index].seconds:
            best[r.index] = r
    return best


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def import_times() -> list[float]:
    """Seconds to import the package, each in a fresh interpreter.

    This process imports the package only once, so its own import time
    is a single sample; a few fresh interpreters give a median.
    """
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


def end_to_end(records: list[Record], import_s: list[float], setup_times: list[float]) -> dict:
    best = list(best_per_job(records).values())
    times = [r.seconds for r in best]
    return {
        "setup_s": statistics.median(import_s) + statistics.median(setup_times),
        "work_per_s": sum(r.job.units for r in best) / sum(times),
        "job_p50_ms": 1e3 * statistics.median(times),
        "job_p90_ms": 1e3 * percentile(times, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def summary_lines(wl, records: list[Record], metrics: dict) -> list[str]:
    """Human-readable lines with the workload's own throughput names."""
    best = best_per_job(records)
    lines = [
        f"{wl.name}: {len(records)} jobs in {sum(r.seconds for r in records):.2f} s,"
        f" {len(best)} distinct, {sum(r.job.units for r in best.values())} {wl.unit} per pass"
    ]
    if wl.name == "compile":
        lines.append(f"gates_per_s {metrics['work_per_s']:.4g}")
    elif wl.name == "sweep":
        verify = [r for r in best.values() if r.job.net is None]
        attractors = [r for r in best.values() if r.job.net is not None]
        lines.append(
            f"configs_per_s {sum(r.job.units for r in verify) / sum(r.seconds for r in verify):.4g}"
            f"  states_per_s {sum(r.job.units for r in attractors) / sum(r.seconds for r in attractors):.4g}"
        )
    else:
        lines.append(
            f"instances_per_s {metrics['work_per_s']:.4g}  instance_p50_ms"
            f" {metrics['job_p50_ms']:.4g}  instance_p90_ms {metrics['job_p90_ms']:.4g}"
            f" (over {len(best)} instances, {len(records)} calls)"
        )
    return lines


def set_up(wl, seed: int, repeats: int, seconds: float, times: list[float]):
    """Set up `repeats` times, or more until `seconds` have been spent.

    Appends each set-up's time to `times` and returns the last state;
    the earlier ones are closed and dropped before the next set-up, so
    that two never hold memory at once and `peak_rss_mb` does not
    depend on how many set-ups fit in `seconds`.
    """
    state = None
    spent = 0.0
    for n in range(SETUP_MAX_REPEATS):
        if n >= repeats and spent >= seconds:
            break
        if state is not None:
            state.close()
            state = None
        t0 = time.perf_counter()
        state = wl.setup(seed)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return state


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, run and check one workload; return the result object.

    A tiny run (the benchmark's tests) and a traced run set up once and
    leave the package's import time out of `setup_s`.
    """
    import workloads

    wl = workloads.make(name, OUT_DIR, tiny=tiny)
    rounds = not (tiny or trace)
    import_s: list[float] = []
    setup_times: list[float] = []
    state = None
    try:
        if rounds:
            import_s += import_times()
            state = set_up(wl, seed, SETUP_REPEATS[0], SETUP_SECONDS, setup_times)
        else:
            state = set_up(wl, seed, 1, 0.0, setup_times)
        records = closed_loop(wl, state, seconds=seconds)
        if rounds:
            state.close()
            state = None  # dropped before the next set-up, as in set_up
            state = set_up(wl, seed, SETUP_REPEATS[1], SETUP_SECONDS, setup_times)
            import_s += import_times()
        if not trace:
            import_s = import_s or [0.0]
            metrics = end_to_end(records, import_s, setup_times)
            for line in summary_lines(wl, records, metrics):
                print(line)
            print(
                f"setup_s = import {statistics.median(import_s):.4g} s (median of {len(import_s)}"
                f" fresh interpreters, best {min(import_s):.4g}) + set-up"
                f" {statistics.median(setup_times):.4g} s (median of {len(setup_times)}, best {min(setup_times):.4g})"
            )
            units = END_TO_END
        else:
            metrics, traced = traced_run(wl, seed, records)
            records += traced
            units = PER_LAYER
    finally:
        if state is not None:
            state.close()
    failed = sum(not r.ok for r in records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0), "unit": u} for k, u in units.items()},
    }


def traced_run(wl, seed: int, untraced: list[Record]):
    """Repeat the set-up and the same jobs under the tracer."""
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        state = wl.setup(seed)
        try:
            records = closed_loop(wl, state, count=len(untraced))
        finally:
            state.close()
    metrics = tracer.values()
    metrics["trace.jobs"] = len(records)
    metrics["trace.overhead_frac"] = sum(r.seconds for r in best_per_job(records).values()) / sum(
        r.seconds for r in best_per_job(untraced).values()
    ) - 1
    metrics["L5.orbit_len"] = statistics.mean(getattr(r.job, "orbit_len", 0) for r in records)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{wl.name}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": seed, "spans": tracer.span_records()}, fh)
    return metrics, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("compile", "sweep", "walk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "artifact" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    # The default state budget applies; no caller-side override.
    os.environ.pop("ARTIFACT_MAX_STATES", None)
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: F401  (imports every module of the package)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
