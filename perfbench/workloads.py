"""The benchmark workloads: seeded set-up, one job, and its check.

Each workload is a closed loop driven by run.py: one client issues the
next job when the last one returns. A workload object holds only its
sizes; `setup(seed)` builds everything a run needs (the part a user
pays before the first answer), `run(state, job)` is the timed call
into the library, and `check(state, job, out)` verifies the output
outside the timed region and raises `CheckFailed` on a wrong result.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import gen
from artifact import cli, core, csan, gnet, gol, simulate

# Every gate becomes one NOR gadget of 66 host nodes once its wires are fused.
HOST_NODES_PER_GATE = 66


class CheckFailed(Exception):
    """A job returned a wrong result."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class State:
    """What one set-up produced: the job list and anything jobs share.

    `order` is one pass of the closed loop as indices into `jobs`, so
    that short jobs can run several times a pass; empty means each job
    once, in list order.
    """

    jobs: list
    shared: dict = field(default_factory=dict)
    workdir: str | None = None
    order: tuple[int, ...] = ()

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


# ---------------------------------------------------------------------------
# compile: gadget compiler on growing gate networks


@dataclass(frozen=True)
class CompileJob:
    gates: int
    wiring: str
    gn: gnet.GNetwork
    source: core.Network
    sample_seed: int

    @property
    def units(self) -> int:
        return self.gates


class Compile:
    """Compile a closed NOR network, tabulate the host, sample the simulation.

    Sizes grow from 2 to 12 gates, so the compiler's growth shows, and
    ring and random wirings glue in different orders. Only the random
    wirings depend on the seed, and they are the two shortest jobs: the
    jobs that set `job_p50_ms` (the 4-gate ring), `job_p90_ms` (the 6-
    and 12-gate rings) and most of `work_per_s` (the 12-gate ring) are
    the same for every seed, so these figures do not move with it.

    A pass (PASS, indices into SCHEDULE) starts with the 12-gate ring
    and runs the 4-gate ring three times between the other jobs. It
    takes 15 to 25 s on a 2-CPU machine, depending on the host's load,
    so a 25 s run times the 12-gate ring twice and the 4-gate ring
    three to six times.
    """

    name = "compile"
    unit = "gates"
    SCHEDULE = ((12, "ring"), (4, "ring"), (2, "perm"), (3, "perm"), (6, "ring"))
    PASS = (0, 1, 2, 1, 3, 1, 4)
    TINY_SCHEDULE = ((2, "ring"), (2, "perm"))
    TINY_PASS = (0, 1, 0)
    SAMPLES = 8

    def __init__(self, tiny: bool = False):
        self.schedule = self.TINY_SCHEDULE if tiny else self.SCHEDULE
        self.order = self.TINY_PASS if tiny else self.PASS

    def setup(self, seed: int) -> State:
        rng = random.Random(seed)
        cert = gol.build_certificate()
        jobs = []
        for k, wiring in self.schedule:
            gn = gen.nor_network(k, wiring, rng)
            jobs.append(CompileJob(k, wiring, gn, gnet.gnetwork_to_network(gn), rng.getrandbits(32)))
        return State(jobs, {"cert": cert}, order=self.order)

    def run(self, state: State, job: CompileJob):
        host_csan, emb = gol.compile_to_gol(job.gn, state.shared["cert"])
        host = csan.csan_to_network(host_csan)
        rep = simulate.verify_simulation(
            job.source, host, emb, mode="sample", samples=self.SAMPLES, seed=job.sample_seed
        )
        return host_csan, host, emb, rep

    def check(self, state: State, job: CompileJob, out) -> None:
        host_csan, host, emb, rep = out
        want = HOST_NODES_PER_GATE * job.gates
        _require(host_csan.n == want and host.n == want, f"host has {host.n} nodes, want {want}")
        _require(rep.ok, f"sampled simulation check failed: {rep.message()}")
        _require(rep.checked == self.SAMPLES and rep.seed == job.sample_seed, "sample count or seed lost")
        emb.validate(job.source, host)


# ---------------------------------------------------------------------------
# sweep: exhaustive verification and attractors, one configuration at a time


@dataclass(frozen=True)
class SweepJob:
    """Exhaustive check of the compiled ring (net None), or attractors of net."""

    net: core.Network | None
    units: int  # source configurations verified, or states classified


class Sweep:
    """Exhaustively verify one compiled ring; classify random networks.

    The job list is the verification followed by `attractors` of each
    random network. A pass takes about 2 s on a 2-CPU machine, so a
    25 s run repeats every job about ten times.
    """

    name = "sweep"
    unit = "configurations"

    def __init__(self, tiny: bool = False):
        self.ring, self.n, self.k, self.count = (2, 8, 3, 2) if tiny else (5, 16, 3, 3)

    def setup(self, seed: int) -> State:
        rng = random.Random(seed)
        cert = gol.build_certificate()
        gn = gen.nor_ring(self.ring)
        host_csan, emb = gol.compile_to_gol(gn, cert)
        host = csan.csan_to_network(host_csan)
        source = gnet.gnetwork_to_network(gn)
        nets = [gen.random_boolean_network(self.n, self.k, rng) for _ in range(self.count)]
        jobs = [SweepJob(None, 2**source.n)] + [SweepJob(net, 2**net.n) for net in nets]
        return State(jobs, {"source": source, "host": host, "emb": emb})

    def run(self, state: State, job: SweepJob):
        if job.net is None:
            s = state.shared
            return simulate.verify_simulation(s["source"], s["host"], s["emb"])
        return core.attractors(job.net)

    def check(self, state: State, job: SweepJob, out) -> None:
        if job.net is None:
            _require(out.ok, f"exhaustive simulation check failed: {out.message()}")
            _require(out.checked == job.units, f"checked {out.checked} of {job.units} configurations")
            return
        total = sum(a.basin_size for a in out)
        _require(total == job.units, f"basins cover {total} of {job.units} states")
        for a in out:
            cyc = a.cycle
            for i, x in enumerate(cyc):
                _require(core.step(job.net, x) == cyc[(i + 1) % len(cyc)], "attractor cycle does not close")


# ---------------------------------------------------------------------------
# walk: oracles and orbit analysis through the CLI


@dataclass(frozen=True)
class WalkJob:
    case: gen.WalkCase
    argv: tuple[str, ...]
    output: str
    units: int = 1

    @property
    def orbit_len(self) -> int:
        return self.case.orbit_len


class Walk:
    """`cli.run` on seeded instance documents, one call per job.

    Slots fix the family, size and question of each instance, so the
    mix of orbit lengths and of yes/no answers is the same for every
    seed; the seed picks the networks, start configurations and
    queries. The networks are narrow and the orbits long, so each job
    takes thousands of small steps. The longest orbit, the spare
    counter of odometer(14) at 49,191 configurations, sets the peak
    memory of the run through the library's walkers: the reference
    answers of set-up take constant memory.
    """

    name = "walk"
    unit = "instances"
    SLOTS = (
        ("odometer", 12, "b-pred"),
        ("gt", 12, "reach-yes"),
        ("shift", 12, "pred-chg"),
        ("odometer-spare", 10, "analyze"),
        ("odometer", 12, "reach-no"),
        ("gt", 12, "b-pred"),
        ("shift", 12, "analyze"),
        ("odometer-spare", 11, "pred-chg"),
        ("shift", 12, "b-pred"),
        ("shift", 12, "reach-no"),
        ("gt", 12, "analyze"),
        ("odometer-spare", 14, "reach-yes"),
    )
    TINY_SLOTS = (
        ("odometer", 4, "b-pred"),
        ("gt", 8, "reach-yes"),
        ("shift", 6, "pred-chg"),
        ("odometer-spare", 4, "analyze"),
        ("shift", 6, "reach-no"),
    )
    # Wanted orbit length of the shift-register instances.
    TARGET = 2000
    TINY_TARGET = 24

    def __init__(self, workdir: Path, tiny: bool = False):
        self.slots = self.TINY_SLOTS if tiny else self.SLOTS
        self.target = self.TINY_TARGET if tiny else self.TARGET
        self.variants = 1 if tiny else 2
        self.workdir = workdir

    def setup(self, seed: int) -> State:
        rng = random.Random(seed)
        gol.build_certificate()  # fixture loading, paid by every user run
        os.makedirs(self.workdir, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="walk-", dir=self.workdir)
        state = State([], workdir=tmp)
        for variant in range(self.variants):
            for i, (family, size, problem) in enumerate(self.slots):
                case = gen.walk_case(family, size, problem, rng, self.target)
                stem = os.path.join(tmp, f"{variant}-{i}")
                with open(stem + ".json", "w", encoding="utf-8") as fh:
                    json.dump(case.doc, fh)
                if case.problem == "analyze":
                    argv = ("analyze", stem + ".json", "--config", json.dumps(list(case.config)))
                else:
                    argv = ("oracle", case.problem, stem + ".json")
                argv += ("-o", stem + ".out")
                state.jobs.append(WalkJob(case, argv, stem + ".out"))
        return state

    def run(self, state: State, job: WalkJob) -> int:
        return cli.run(list(job.argv))

    def check(self, state: State, job: WalkJob, out: int) -> None:
        case = job.case
        with open(job.output, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(job.output)  # a later run of this job must write it afresh
        _require(out == case.exit_code, f"{job.argv[:2]}: exit code {out}, want {case.exit_code}")
        if case.problem == "analyze":
            got = (doc.get("transient"), doc.get("period"))
        else:
            got = doc.get("answer")
        _require(got == case.answer, f"{job.argv[:2]}: answer {got}, want {case.answer}")


def make(name: str, workdir: Path, tiny: bool = False):
    """The named workload; `walk` writes its documents under `workdir`."""
    if name == "compile":
        return Compile(tiny)
    if name == "sweep":
        return Sweep(tiny)
    if name == "walk":
        return Walk(workdir, tiny)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("compile", "sweep", "walk")
