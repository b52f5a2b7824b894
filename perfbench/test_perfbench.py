"""Tests of the benchmark itself: python -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from artifact import core  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_generators_are_deterministic_for_a_seed():
    for seed in (0, 7):
        a, b = random.Random(seed), random.Random(seed)
        assert gen.nor_permutation(5, a) == gen.nor_permutation(5, b)
        assert gen.random_boolean_network(10, 3, a) == gen.random_boolean_network(10, 3, b)
        for family, size, problem in workloads.Walk.TINY_SLOTS:
            assert gen.walk_case(family, size, problem, a, 24) == gen.walk_case(family, size, problem, b, 24)
    assert gen.nor_permutation(6, random.Random(1)) != gen.nor_permutation(6, random.Random(2))


def test_workload_setups_are_deterministic_for_a_seed():
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, run.OUT_DIR, tiny=True)
        first, second = wl.setup(3), wl.setup(3)
        try:
            strip = (lambda j: j.case) if name == "walk" else (lambda j: j)
            assert [strip(j) for j in first.jobs] == [strip(j) for j in second.jobs]
        finally:
            first.close()
            second.close()


def test_nor_networks_have_the_documented_wiring():
    ring = gen.nor_ring(4)
    assert ring.inputs[0] == (ring.outputs[3][1], ring.outputs[1][0])
    perm = gen.nor_permutation(4, random.Random(0))
    for j in range(4):
        assert set(perm.inputs[j]).isdisjoint(perm.outputs[j])


def test_tiny_runs_emit_every_named_metric_with_its_unit():
    wanted = {
        False: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        True: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    assert wanted[False] == run.END_TO_END
    assert wanted[True] == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(name, 1, 0.2, trace, tiny=True)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted[trace]
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), k
            if not trace:
                assert all(v["value"] > 0 for v in result["metrics"].values())


def test_a_run_covers_every_job_even_past_its_time():
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, run.OUT_DIR, tiny=True)
        state = wl.setup(4)
        try:
            records = run.closed_loop(wl, state, seconds=0.0)
        finally:
            state.close()
        assert len(run.best_per_job(records)) == len(state.jobs)


def test_reference_orbit_matches_the_library_walker():
    rng = random.Random(9)
    for _ in range(50):
        net = gen.random_boolean_network(8, 2, rng)
        x = tuple(rng.randrange(2) for _ in range(8))
        want = core.analyze_orbit(net, x)
        orb = gen.reference_orbit(net, x, want.transient + want.period)
        assert (orb.transient, orb.period) == (want.transient, want.period)
        assert orb.at(3 * orb.transient + 7) == core.iterate(net, x, 3 * orb.transient + 7)
        assert len(list(orb.walk())) == len(set(orb.walk())) == want.transient + want.period


def test_self_time_on_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]; a second
    # a [2, 3] sits inside b, so busy_s of a counts only the outer one.
    spans = [
        ["a", "s", 0.0, 10.0, -1],
        ["b", "s", 1.0, 4.0, 0],
        ["a", "s", 2.0, 3.0, 1],
        ["c", "s", 5.0, 9.0, 0],
        ["d", "s", 6.0, 8.0, 3],
    ]
    got = summarize(spans)
    assert got["a"] == {"calls": 2, "busy_s": 10.0, "self_s": (10 - 3 - 4) + 1}
    assert got["b"] == {"calls": 1, "busy_s": 3.0, "self_s": 2.0}
    assert got["c"] == {"calls": 1, "busy_s": 4.0, "self_s": 2.0}
    assert got["d"] == {"calls": 1, "busy_s": 2.0, "self_s": 2.0}


# Bindings each workload must reach, by the site the tracer records.
# gol.verify_certificate is patched too but is reached only through
# gol.regenerate_gol_fixtures, which no workload runs; cli.verify_simulation
# is reached only by the verify-sim and gol subcommands, outside the walk mix.
BINDINGS = {
    "compile": (
        "artifact.simulate.step",
        "artifact.simulate.iterate",
        "artifact.glue.step",
        "artifact.gadget.csan_to_network",
        "artifact.gadget.csan_glue",
        "artifact.gadget.check_pseudo_orbit",
        "artifact.gadget.gnetwork_to_network",
        "artifact.gadget.verify_certificate",
        "artifact.gol.compile_gnetwork_detailed",
        "artifact.gol.csan_to_network",
        "artifact.gol.compile_to_gol",
        "artifact.glue.make_csan",
    ),
    "sweep": (
        "artifact.simulate.step",
        "artifact.simulate.iterate",
        "artifact.simulate.verify_simulation",
        "artifact.core.attractors",
        "artifact.core.orbit_graph",
        "artifact.core.step",
        "artifact.gnet.gnetwork_to_network",
    ),
    "walk": (
        "artifact.problems.step",
        "artifact.core.step",
        "artifact.cli.run",
        "artifact.cli.network_from_json",
        "artifact.cli.instance_from_json",
        "artifact.cli.analyze_orbit",
        "artifact.cli.b_pred",
        "artifact.cli.pred_chg",
        "artifact.cli.reach",
        "artifact.problems.network_from_json",
    ),
}


def test_every_listed_binding_records_calls():
    for name, sites in BINDINGS.items():
        wl = workloads.make(name, run.OUT_DIR, tiny=True)
        tracer = Tracer()
        with tracer:
            state = wl.setup(5)
            try:
                records = run.closed_loop(wl, state, count=len(state.jobs))
            finally:
                state.close()
        assert all(r.ok for r in records)
        calls = tracer.site_calls()
        missing = [s for s in sites if not calls.get(s)]
        assert not missing, f"{name}: no calls through {missing}"


def test_tracer_restores_every_binding():
    from artifact import cli, core, glue, problems, simulate

    before = (core.step, simulate.step, glue.step, problems.step, cli.run, cli.b_pred)
    with Tracer():
        assert simulate.step is not before[1]
    assert (core.step, simulate.step, glue.step, problems.step, cli.run, cli.b_pred) == before


def test_a_wrong_expected_answer_is_counted_as_failed():
    wl = workloads.make("walk", run.OUT_DIR, tiny=True)
    state = wl.setup(2)
    try:
        job = state.jobs[1]
        wrong = dataclasses.replace(job.case, answer=not job.case.answer)
        state.jobs[1] = dataclasses.replace(job, case=wrong)
        records = run.closed_loop(wl, state, count=2 * len(state.jobs))
    finally:
        state.close()
    failed = [r.index for r in records if not r.ok]
    assert failed == [1, 1]
