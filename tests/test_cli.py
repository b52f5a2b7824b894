"""Command-line surface: reports, exit codes, file plumbing."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import artifact
from artifact import cli, core, docs, gol, simulate
from artifact.circuit import circuit_to_json, closed_network, make_circuit
from artifact.cli import run
from artifact.core import make_network, network_to_json
from artifact.csan import build_threshold, csan_to_json
from artifact.gadget import certificate_to_json
from artifact.glue import dowel_to_json, glue_networks, make_dowel
from artifact.gnet import (
    ID_1_1,
    NOR_2_2,
    GNetworkBuilder,
    gnetwork_to_json,
    gt_transient_network,
    prime_rotations,
)
from artifact.problems import (
    h_counter_network,
    instance_to_json,
    make_pred_instance,
    make_reach_instance,
    odometer,
)
from artifact.simulate import BlockEmbedding, embedding_to_json

from conftest import rotation


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


@pytest.fixture()
def rot3_file(tmp_path):
    path = tmp_path / "rot3.json"
    docs.write(network_to_json(rotation(3)), path)
    return str(path)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_clock_fixture(tmp_path, capsys):
    clock = tmp_path / "clock.json"
    docs.write(csan_to_json(gol.build_clock()), clock)
    x = json.dumps(list(gol.clock_initial()))
    assert run(["analyze", str(clock), "--config", x]) == 0
    assert out_json(capsys) == {"transient": 0, "period": 6}


def test_simulate_zero_steps_echoes(rot3_file, capsys):
    assert run(["simulate", rot3_file, "--config", "[1,0,0]", "-t", "0"]) == 0
    assert out_json(capsys) == {"t": 0, "config": [1, 0, 0]}


def test_simulate_advances_and_traces(rot3_file, capsys):
    assert run(["simulate", rot3_file, "--config", "[1,0,0]", "-t", "2", "--trace"]) == 0
    doc = out_json(capsys)
    assert doc["config"] == [0, 0, 1]
    assert doc["trace"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_simulate_config_file_and_output(tmp_path, rot3_file, capsys):
    cfg = tmp_path / "x.json"
    cfg.write_text("[0,1,0]")
    out = tmp_path / "report.json"
    code = run(
        ["simulate", rot3_file, "--config-file", str(cfg), "-t", "1", "-o", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text()) == {"t": 1, "config": [0, 0, 1]}


def test_simulate_folds_a_huge_time_into_the_cycle(tmp_path, rot3_file, capsys):
    flip = write_json(tmp_path, "flip.json", network_to_json(make_network(2, [((0,), (1, 0))])))
    start = time.perf_counter()
    assert run(["simulate", flip, "--config", "[0]", "-t", str(10**30)]) == 0
    assert time.perf_counter() - start < 1
    assert out_json(capsys) == {"t": 10**30, "config": [0]}
    assert run(["simulate", rot3_file, "--config", "[1,0,0]", "-t", str(10**30 + 1)]) == 0
    assert out_json(capsys) == {"t": 10**30 + 1, "config": [0, 0, 1]}  # 10**30 + 1 = 2 mod 3


def test_simulate_within_the_budget_folds_into_the_cycle(rot3_file, capsys):
    # 2^22 steps of the specification took about 5 s on odometer(3).
    start = time.perf_counter()
    t = str(core.DEFAULT_MAX_STATES)
    assert run(["simulate", rot3_file, "--config", "[1,0,0]", "-t", t]) == 0
    assert time.perf_counter() - start < 1
    assert out_json(capsys) == {"t": 2**22, "config": [0, 1, 0]}  # 2^22 = 1 mod 3


def test_simulate_past_the_budget_agrees_with_stepping(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "DEFAULT_MAX_STATES", 5)
    # A rotation of nodes 0-2; node 3 latches once node 0 shows a 1.
    rules = [((2,), (0, 1)), ((0,), (0, 1)), ((1,), (0, 1)), ((0, 3), (0, 1, 1, 1))]
    net = make_network(2, rules)
    x = (0, 0, 1, 0)  # transient 2, period 3
    path = write_json(tmp_path, "net.json", network_to_json(net))
    for t in range(12):
        assert run(["simulate", path, "--config", json.dumps(x), "-t", str(t)]) == 0
        assert out_json(capsys) == {"t": t, "config": list(core.iterate(net, x, t))}
    # A trace past the budget, and an orbit that does not close within it.
    assert run(["simulate", path, "--config", json.dumps(x), "-t", "6", "--trace"]) == 3
    assert "budget" in out_json(capsys)["error"]
    ring = write_json(tmp_path, "ring.json", network_to_json(rotation(8)))
    assert run(["simulate", ring, "--config", "[1,0,0,0,0,0,0,0]", "-t", "100"]) == 3
    assert "budget" in out_json(capsys)["error"]


def test_pretty_indents(rot3_file, capsys):
    assert run(["simulate", rot3_file, "--config", "[1,0,0]", "-t", "0", "--pretty"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("{\n  ")


def test_oracle_answers_set_exit_code(tmp_path, rot3_file, capsys):
    net = rotation(3)
    yes = write_json(
        tmp_path, "yes.json", instance_to_json(make_pred_instance(net, 1, (1, 0, 0), 1, 1))
    )
    no = write_json(
        tmp_path, "no.json", instance_to_json(make_pred_instance(net, 1, (1, 0, 0), 0, 1))
    )
    assert run(["oracle", "u-pred", yes]) == 0
    assert out_json(capsys) == {"problem": "u-pred", "answers": [True], "answer": True}
    assert run(["oracle", "u-pred", no]) == 1
    assert out_json(capsys)["answer"] is False
    assert run(["oracle", "u-pred", yes, no]) == 1
    assert out_json(capsys)["answers"] == [True, False]


def test_oracle_parallel_matches_serial(tmp_path, capsys):
    net = rotation(4)
    paths = []
    for i, t in enumerate((1, 2, 3)):
        inst = make_pred_instance(net, t % 4, (1, 0, 0, 0), 1, t)
        paths.append(write_json(tmp_path, f"i{i}.json", instance_to_json(inst)))
    assert run(["oracle", "u-pred", *paths]) == 0
    serial = out_json(capsys)["answers"]
    assert run(["oracle", "u-pred", *paths, "--jobs", "2"]) == 0
    assert out_json(capsys)["answers"] == serial == [True, True, True]


def test_oracle_budget_exit_code(tmp_path, capsys):
    net = rotation(8)
    inst = make_pred_instance(net, 0, (1, 0, 0, 0, 1, 1, 0, 1), 1, 10**9, "binary")
    path = write_json(tmp_path, "big.json", instance_to_json(inst))
    assert run(["oracle", "b-pred", path, "--max-states", "3"]) == 3
    assert "error" in out_json(capsys)


@pytest.mark.parametrize("max_states", ["0", "-5"])
@pytest.mark.parametrize("command", ["analyze", "oracle"])
def test_max_states_below_one_is_refused(command, max_states, tmp_path, rot3_file, capsys):
    if command == "analyze":
        argv = ["analyze", rot3_file, "--config", "[1,0,0]"]
    else:
        inst = make_reach_instance(rotation(3), (1, 0, 0), (0, 1, 0))
        argv = ["oracle", "reach", write_json(tmp_path, "r.json", instance_to_json(inst))]
    assert run([*argv, "--max-states", max_states]) == 2
    assert out_json(capsys) == {"error": f"--max-states must be at least 1, got {max_states}"}


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_oracle_jobs_below_one_is_refused(jobs, tmp_path, capsys):
    inst = make_reach_instance(rotation(3), (1, 0, 0), (0, 1, 0))
    path = write_json(tmp_path, "r.json", instance_to_json(inst))
    assert run(["oracle", "reach", path, path, "--jobs", jobs]) == 2
    assert out_json(capsys) == {"error": f"--jobs must be at least 1, got {jobs}"}


def test_oracle_one_job_answers(tmp_path, capsys):
    inst = make_reach_instance(rotation(3), (1, 0, 0), (0, 1, 0))
    path = write_json(tmp_path, "r.json", instance_to_json(inst))
    assert run(["oracle", "reach", path, "--jobs", "1"]) == 0
    assert out_json(capsys)["answer"] is True


def test_max_states_one_answers_a_fixed_point(tmp_path, rot3_file, capsys):
    assert run(["analyze", rot3_file, "--config", "[0,0,0]", "--max-states", "1"]) == 0
    assert out_json(capsys) == {"transient": 0, "period": 1}
    inst = make_reach_instance(rotation(3), (0, 0, 0), (0, 0, 0))
    path = write_json(tmp_path, "r.json", instance_to_json(inst))
    assert run(["oracle", "reach", path, "--max-states", "1"]) == 0
    assert out_json(capsys)["answer"] is True


def test_oracle_kind_mismatch(tmp_path, capsys):
    net = rotation(3)
    inst = write_json(
        tmp_path, "r.json", instance_to_json(make_reach_instance(net, (1, 0, 0), (0, 1, 0)))
    )
    assert run(["oracle", "u-pred", inst]) == 2
    assert "error" in out_json(capsys)
    binary = write_json(
        tmp_path,
        "b.json",
        instance_to_json(make_pred_instance(net, 0, (1, 0, 0), 1, 3, "binary")),
    )
    assert run(["oracle", "u-pred", binary]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("problem", ["pred-chg", "reach"])
def test_oracle_refuses_another_instance_kind(problem, tmp_path, capsys):
    binary = make_pred_instance(rotation(3), 0, (1, 0, 0), 1, 3, "binary")
    inst = write_json(tmp_path, "b.json", instance_to_json(binary))
    assert run(["oracle", problem, inst]) == 2
    kind = "change" if problem == "pred-chg" else "reachability"
    assert out_json(capsys) == {"error": f"{inst}: not a {kind} instance"}


def test_analyze_reads_a_circuit_as_its_closed_network(tmp_path, capsys):
    circ = make_circuit(2, [("AND", (0, 1)), ("NOT", (0,)), ("OR", (2, 3))], (4, 2))
    path = write_json(tmp_path, "circuit.json", circuit_to_json(circ))
    assert run(["analyze", path, "--config", "[1, 1]"]) == 0
    res = core.analyze_orbit(closed_network(circ), (1, 1))
    assert out_json(capsys) == {"transient": res.transient, "period": res.period}


def test_input_errors_exit_two(rot3_file, capsys):
    assert run(["analyze", rot3_file, "--config", "[9,0,0]"]) == 2
    assert run(["analyze", rot3_file, "--config", "not json"]) == 2
    assert run(["analyze", "/no/such/file.json", "--config", "[0]"]) == 2
    assert run(["analyze", rot3_file]) == 2  # configuration required
    capsys.readouterr()


def test_undecodable_files_exit_two(tmp_path, rot3_file, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'\xff\xfe{"format"')
    assert run(["analyze", str(binary), "--config", "[0]"]) == 2
    assert "decode" in out_json(capsys)["error"]
    assert run(["analyze", rot3_file, "--config-file", str(binary)]) == 2
    assert "decode" in out_json(capsys)["error"]


def test_non_integer_inputs_exit_two(tmp_path, rot3_file, capsys):
    node = {"deps": [0.0], "table": [1, 0]}
    doc = {"format": "network", "version": 1, "alphabet": 2, "nodes": [node]}
    float_dep = write_json(tmp_path, "float_dep.json", doc)
    assert run(["simulate", float_dep, "--config", "[0]", "-t", "2"]) == 2
    assert "integers" in out_json(capsys)["error"]
    for config in ("[1.0,0,0]", "[true,0,0]"):
        assert run(["simulate", rot3_file, "--config", config, "-t", "2"]) == 2
        assert "out of alphabet range" in out_json(capsys)["error"]


def bundled_certificate(**changes):
    return {**certificate_to_json(gol.build_certificate()), **changes}


def certificate_with_context(context):
    doc = bundled_certificate()
    doc["gates"][0]["context"] = context
    return doc


def edited_certificate(edit):
    doc = bundled_certificate()
    edit(doc)
    return doc


def nor_pair_doc(**changes):
    b = GNetworkBuilder(2)
    g0, o0 = b.new_gate(NOR_2_2)
    g1, o1 = b.new_gate(NOR_2_2)
    b.connect(g0, o1)
    b.connect(g1, o0)
    return {**gnetwork_to_json(b.build()), **changes}


def rot3_instance(**changes):
    inst = make_pred_instance(rotation(3), 0, (1, 0, 0), 1, 3, "binary")
    return {**instance_to_json(inst), **changes}


def rot3_embedding(**changes):
    return {**identity_embedding_doc(rotation(3)), **changes}


def shorthand_csan(alphabet=2, label="id", **shorthand):
    """Two joined nodes, both given by the same family shorthand."""
    vertex = {"lambda": shorthand}
    return {
        "format": "csan",
        "version": 1,
        "alphabet": alphabet,
        "n": 2,
        "edges": [[0, 1, label]],
        "vertices": [vertex, vertex],
    }


def explicit_csan(first_out):
    """Two joined nodes with explicit rows, each keeping its own state."""
    rows = [[s, m, s] for s in (0, 1) for m in ([1, 0], [0, 0], [0, 1])]
    return {
        "format": "csan",
        "version": 1,
        "alphabet": 2,
        "n": 2,
        "edges": [[0, 1, "id"]],
        "vertices": [{"lambda": [[0, [1, 0], first_out], *rows[1:]]}, {"lambda": rows}],
    }


# case -> (arguments with DOC where the document's path goes, document).
# Each of these documents once escaped its parser or checker as a built-in
# exception, was judged with exit code 0 or 1 on a non-integer state, or
# (the shorthands) was converted with exit code 0 although the family
# refuses its parameters or its alphabet.
DOC = object()
MALFORMED = {
    "certificate context key": (
        ["verify-cert", DOC], lambda: certificate_with_context({"x": 0})
    ),
    "certificate context list": (["verify-cert", DOC], lambda: certificate_with_context([])),
    "certificate time string": (["verify-cert", DOC], lambda: bundled_certificate(time="6")),
    "certificate context state string": (
        ["verify-cert", DOC],
        lambda: edited_certificate(lambda d: d["gates"][0]["context"].update({"10": "1"})),
    ),
    "certificate context state float": (
        ["verify-cert", DOC],
        lambda: edited_certificate(lambda d: d["gates"][0]["context"].update({"10": 1.0})),
    ),
    "certificate context state float zero": (
        ["verify-cert", DOC],
        lambda: edited_certificate(lambda d: d["gates"][0]["context"].update({"10": 0.0})),
    ),
    "certificate state pattern string": (
        ["verify-cert", DOC],
        lambda: edited_certificate(lambda d: d["state_configs"][1].update({"drive0": "1"})),
    ),
    "certificate run state string": (
        ["verify-cert", DOC],
        lambda: edited_certificate(
            lambda d: d["gates"][0]["pseudo_orbits"][0]["orbit"]["configs"][0].__setitem__(0, "1")
        ),
    ),
    "instance config scalar": (["oracle", "b-pred", DOC], lambda: rot3_instance(x=5)),
    "instance time string": (["oracle", "b-pred", DOC], lambda: rot3_instance(t="9")),
    "instance time float": (
        ["oracle", "u-pred", DOC], lambda: rot3_instance(t=3.0, problem="u-pred")
    ),
    "instance gap float": (
        ["oracle", "pred-chg", DOC], lambda: rot3_instance(k=2.0, problem="pred-chg")
    ),
    "circuit inputs string": (
        ["convert", DOC, "--to", "circuit"],
        lambda: {"format": "circuit", "n_inputs": "2", "gates": [], "outputs": [0, 1]},
    ),
    "gnetwork alphabet string": (["convert", DOC], lambda: nor_pair_doc(alphabet="2")),
    "matrix rows scalar": (
        ["convert", DOC], lambda: {"format": "matrix", "kind": "gf2", "rows": 5}
    ),
    "shorthand interval alpha above beta": (
        ["convert", DOC], lambda: shorthand_csan(family="interval", alpha=2, beta=1)
    ),
    "shorthand threshold theta float": (
        ["convert", DOC], lambda: shorthand_csan(family="threshold", theta=1.5)
    ),
    "shorthand threshold theta bool": (
        ["convert", DOC], lambda: shorthand_csan(family="threshold", theta=True)
    ),
    "shorthand lifelike birth string": (
        ["convert", DOC],
        lambda: shorthand_csan(family="lifelike", birth=["1"], survive=[2, 3]),
    ),
    "shorthand linear ternary": (
        ["convert", DOC], lambda: shorthand_csan(alphabet=3, family="linear")
    ),
    "shorthand threshold ternary": (
        ["convert", DOC], lambda: shorthand_csan(alphabet=3, family="threshold", theta=1)
    ),
    "shorthand reaction binary": (
        ["convert", DOC],
        lambda: shorthand_csan(label="activity", family="reaction", theta=1),
    ),
    "csan row output float": (["convert", DOC], lambda: explicit_csan(0.5)),
    "csan alphabet bool": (
        ["convert", DOC], lambda: shorthand_csan(alphabet=True, family="minmax", polarity="MIN")
    ),
    "csan n float": (
        ["convert", DOC], lambda: {**shorthand_csan(family="minmax", polarity="MIN"), "n": 2.0}
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_exit_two(case, tmp_path, capsys):
    args, build = MALFORMED[case]
    path = write_json(tmp_path, "doc.json", build())
    assert run([path if a is DOC else a for a in args]) == 2
    assert out_json(capsys)["error"]


def id_pair_doc(table):
    """Two ID_1_1 gates feeding each other, the first given `table`."""
    b = GNetworkBuilder(2)
    g0, o0 = b.new_gate(ID_1_1)
    g1, o1 = b.new_gate(ID_1_1)
    b.connect(g0, o1)
    b.connect(g1, o0)
    doc = gnetwork_to_json(b.build())
    doc["gates"][0]["table"] = table
    return doc


# Gate entries that once escaped as a built-in exception or, with a row too
# long or a float cell, were read with exit code 0. One codec reads both.
BAD_GNETWORK_TABLES = {"row too short": [[0], []], "row too long": [[0], [1, 1]]}
BAD_CERTIFICATE_GATES = {
    "two rows": lambda gate: gate.update(table=gate["table"][:2]),
    "alphabet float": lambda gate: gate.update(alphabet=2.0),
    "row too short": lambda gate: gate["table"].__setitem__(1, [0]),
    "cell float": lambda gate: gate["table"][0].__setitem__(0, 1.0),
}


@pytest.mark.parametrize("case", sorted(BAD_GNETWORK_TABLES))
def test_malformed_gnetwork_gates_exit_two(case, tmp_path, capsys):
    path = write_json(tmp_path, "gnet.json", id_pair_doc(BAD_GNETWORK_TABLES[case]))
    for argv in (["convert", path], ["analyze", path, "--config", "[0, 1]"]):
        assert run(argv) == 2
        assert "gate ID_1_1: each table row needs 1 states < 2" in out_json(capsys)["error"]


@pytest.mark.parametrize("case", sorted(BAD_CERTIFICATE_GATES))
def test_malformed_certificate_gates_exit_two(case, tmp_path, capsys):
    edit = BAD_CERTIFICATE_GATES[case]
    cert = write_json(tmp_path, "cert.json", edited_certificate(lambda d: edit(d["gates"][0]["gate"])))
    pair = write_json(tmp_path, "pair.json", nor_pair_doc())
    for argv in (["verify-cert", cert], ["compile", pair, "--certificate", cert]):
        assert run(argv) == 2
        assert "gate NOR_2_2" in out_json(capsys)["error"]


@pytest.mark.parametrize(
    "changes",
    [{"time": "x"}, {"blocks": [["a"], [1], [2]]}, {"patterns": [[[0], [1.0]]] * 3}],
    ids=["time string", "block string", "pattern float"],
)
def test_malformed_embeddings_exit_two(changes, tmp_path, rot3_file, capsys):
    emb = write_json(tmp_path, "emb.json", rot3_embedding(**changes))
    assert run(["verify-sim", rot3_file, rot3_file, emb]) == 2
    assert "expected integers" in out_json(capsys)["error"]


def test_gol_demo_reports_both_passes(capsys):
    assert run(["gol", "demo"]) == 0
    doc = out_json(capsys)
    assert doc["certificate"]["ok"] and doc["certificate"]["checked"] == 64
    assert doc["simulation"]["ok"] and doc["simulation"]["mode"] == "exhaustive"
    assert doc["simulation"]["checked"] == 16
    assert doc["host_nodes"] == 132 and doc["time"] == 6


def test_verify_cert_bundled(capsys):
    assert run(["verify-cert"]) == 0
    doc = out_json(capsys)
    assert doc["ok"] and doc["checked"] == 64 and doc["failures"] == []


def identity_embedding_doc(net, time=1):
    emb = BlockEmbedding(
        time=time,
        blocks=tuple((v,) for v in range(net.n)),
        patterns=tuple(tuple((s,) for s in range(net.alphabet)) for _ in range(net.n)),
    )
    return embedding_to_json(emb)


def test_verify_sim_pass_and_fail(tmp_path, rot3_file, capsys):
    ok_emb = write_json(tmp_path, "emb1.json", identity_embedding_doc(rotation(3)))
    assert run(["verify-sim", rot3_file, rot3_file, ok_emb]) == 0
    doc = out_json(capsys)
    assert doc["ok"] and doc["checked"] == 8 and doc["mode"] == "exhaustive"
    # claiming two host steps per source step is simply false
    bad_emb = write_json(tmp_path, "emb2.json", identity_embedding_doc(rotation(3), time=2))
    assert run(["verify-sim", rot3_file, rot3_file, bad_emb]) == 1
    doc = out_json(capsys)
    assert not doc["ok"] and doc["counterexample"]


def test_verify_sim_sampled_is_seed_deterministic(tmp_path, rot3_file, capsys):
    emb = write_json(tmp_path, "emb.json", identity_embedding_doc(rotation(3)))
    args = ["verify-sim", rot3_file, rot3_file, emb, "--mode", "sample", "--samples", "20"]
    assert run([*args, "--seed", "7"]) == 0
    first = out_json(capsys)
    assert run([*args, "--seed", "7"]) == 0
    assert out_json(capsys) == first
    assert first["seed"] == 7 and first["checked"] == 20


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_sim_refuses_fewer_than_one_sample(samples, tmp_path, rot3_file, capsys):
    emb = write_json(tmp_path, "emb.json", identity_embedding_doc(rotation(3)))
    args = ["verify-sim", rot3_file, rot3_file, emb, "--mode", "sample", f"--samples={samples}"]
    assert run(args) == 2
    assert "--samples" in out_json(capsys)["error"]


@pytest.mark.parametrize("side", ["source", "host"])
def test_verify_sim_refuses_an_alphabet_past_a_lane(side, tmp_path, capsys):
    # one node on 2^33 states beside a one-node binary network, identity-shaped blocks
    wide = make_network(2**33, [((), (2**33 - 1,))])
    narrow = make_network(2, [((), (1,))])
    source, host = (wide, narrow) if side == "source" else (narrow, wide)
    src = write_json(tmp_path, "source.json", network_to_json(source))
    dst = write_json(tmp_path, "host.json", network_to_json(host))
    emb = write_json(tmp_path, "emb.json", identity_embedding_doc(narrow))
    assert run(["verify-sim", src, dst, emb]) == 2
    error = f"{side} alphabet of 8589934592 does not fit a 32-bit lane"
    assert out_json(capsys) == {"error": error}


def test_verify_sim_folds_a_huge_time_into_the_cycle(tmp_path, rot3_file):
    # 2^64 = 1 (mod 3). Run apart, so that a regression fails on the
    # timeout instead of stepping without end.
    emb = write_json(tmp_path, "emb.json", identity_embedding_doc(rotation(3), time=2**64))
    src = str(Path(artifact.__file__).parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    done = subprocess.run(
        [sys.executable, "-m", "artifact.cli", "verify-sim", rot3_file, rot3_file, emb],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"ok": True, "mode": "exhaustive", "checked": 8, "failures": []}


def test_verify_sim_exits_three_when_a_batch_does_not_cycle_within_the_budget(
    tmp_path, monkeypatch, capsys
):
    # The budget of 4 steps ends before the 5-rotation's batch repeats.
    monkeypatch.setattr(simulate, "DEFAULT_MAX_STATES", 4)
    net = write_json(tmp_path, "rot5.json", network_to_json(rotation(5)))
    emb = write_json(tmp_path, "emb.json", identity_embedding_doc(rotation(5), time=5))
    assert run(["verify-sim", net, net, emb]) == 3
    assert "exceeds the budget of 4 host steps" in out_json(capsys)["error"]


def test_verify_sim_reaches_a_verdict_on_a_ten_gate_ring(tmp_path, capsys):
    # 2^20 source configurations at T = 6 are 6.3M host configurations.
    # verify-sim has no budget on them, and the analyze/oracle budget
    # does not reach it. The embedding claims T = 12, so the first
    # configuration fails and the check stops after one chunk.
    b = GNetworkBuilder(2)
    gates = [b.new_gate(NOR_2_2) for _ in range(10)]
    for (g, _), (_, outs) in zip(gates, gates[-1:] + gates[:-1]):
        b.connect(g, outs)
    ring = write_json(tmp_path, "ring.json", gnetwork_to_json(b.build()))
    out = tmp_path / "compiled.json"
    assert run(["compile", ring, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["embedding"]["time"] == 6
    host = write_json(tmp_path, "host.json", doc["csan"])
    emb = write_json(tmp_path, "emb.json", {**doc["embedding"], "time": 12})
    assert run(["verify-sim", ring, host, emb]) == 1
    report = out_json(capsys)
    assert not report["ok"] and report["checked"] == 1


@pytest.mark.parametrize("alphabet", [1000, 2000])
def test_convert_csan_on_a_large_alphabet(alphabet, tmp_path, capsys):
    lone = {"lambda": {"family": "minmax", "polarity": "MIN"}}
    doc = {"format": "csan", "version": 1, "alphabet": alphabet, "n": 1, "edges": [], "vertices": [lone]}
    assert run(["convert", write_json(tmp_path, "big.json", doc)]) == 0
    # an isolated min-max node keeps its state
    assert out_json(capsys)["nodes"] == [{"deps": [0], "table": list(range(alphabet))}]


def test_convert_csan_and_circuit(tmp_path, rot3_file, capsys):
    from artifact.csan import build_rule90_ring

    ring = tmp_path / "ring.json"
    docs.write(csan_to_json(build_rule90_ring(4)), ring)
    assert run(["convert", str(ring), "--to", "network"]) == 0
    doc = out_json(capsys)
    assert doc["format"] == "network" and len(doc["nodes"]) == 4
    assert run(["convert", rot3_file, "--to", "circuit"]) == 0
    doc = out_json(capsys)
    assert doc["format"] == "circuit" and doc["n_inputs"] == 3
    bad = write_json(tmp_path, "bad.json", {"format": "mystery"})
    assert run(["convert", bad, "--to", "network"]) == 2
    capsys.readouterr()


def test_convert_writes_dot(tmp_path, rot3_file, capsys):
    dot = tmp_path / "net.dot"
    assert run(["convert", rot3_file, "--to", "network", "--dot", str(dot)]) == 0
    assert dot.read_text().startswith("digraph")
    capsys.readouterr()


def test_convert_refuses_dot_with_a_circuit(tmp_path, rot3_file, capsys):
    dot = tmp_path / "c.dot"
    assert run(["convert", rot3_file, "--to", "circuit", "--dot", str(dot)]) == 2
    error = out_json(capsys)["error"]
    assert "--dot" in error and "--to circuit" in error
    assert not dot.exists()
    # refused before the input is read
    missing = str(tmp_path / "missing.json")
    assert run(["convert", missing, "--to", "circuit", "--dot", str(dot)]) == 2
    assert out_json(capsys)["error"] == error


def test_glue_matches_library(tmp_path, capsys):
    f1 = make_network(2, [((0, 1), (0, 1, 1, 0)), ((1,), (0, 1))])
    f2 = make_network(2, [((0,), (1, 0)), ((0, 1), (0, 0, 0, 1))])
    d = make_dowel(["c0"], [], {"c0": 1}, {"c0": 0})
    p1 = tmp_path / "f1.json"
    p2 = tmp_path / "f2.json"
    pd = tmp_path / "d.json"
    docs.write(network_to_json(f1), p1)
    docs.write(network_to_json(f2), p2)
    docs.write(dowel_to_json(d), pd)
    assert run(["glue", str(p1), str(p2), str(pd)]) == 0
    doc = out_json(capsys)
    want = glue_networks(f1, f2, d)
    assert len(doc["nodes"]) == want.n


@pytest.mark.parametrize("image", ["0", 1.5, [0], None, True], ids=repr)
def test_glue_refuses_a_dowel_image_that_is_not_an_integer(image, tmp_path, capsys):
    f = write_json(tmp_path, "f.json", network_to_json(make_network(2, [((0,), (0, 1))] * 2)))
    dowel = dowel_to_json(make_dowel(["c0"], [], {"c0": 1}, {"c0": 0}))
    dowel["phi2"]["c0"] = image
    assert run(["glue", f, f, write_json(tmp_path, "d.json", dowel)]) == 2
    assert "expected integers for dowel images" in out_json(capsys)["error"]


def test_glue_refuses_a_dowel_that_fuses_one_node_twice(tmp_path, capsys):
    f = write_json(tmp_path, "f.json", network_to_json(make_network(2, [((0,), (0, 1))] * 2)))
    dowel = dowel_to_json(make_dowel(["c0", "c1"], [], {"c0": 0, "c1": 0}, {"c0": 0, "c1": 1}))
    assert run(["glue", f, f, write_json(tmp_path, "d.json", dowel)]) == 2
    assert "phi1 must be injective: node 0 is fused twice" in out_json(capsys)["error"]


def test_compile_emits_host_and_embedding(tmp_path, capsys):
    b = GNetworkBuilder(2)
    g0, o0 = b.new_gate(NOR_2_2)
    g1, o1 = b.new_gate(NOR_2_2)
    b.connect(g0, o1)
    b.connect(g1, o0)
    pair = write_json(tmp_path, "pair.json", gnetwork_to_json(b.build()))
    out = tmp_path / "compiled.json"
    assert run(["compile", pair, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["csan"]["format"] == "csan"
    assert doc["embedding"]["time"] == 6
    host = write_json(tmp_path, "host.json", doc["csan"])
    emb = write_json(tmp_path, "emb.json", doc["embedding"])
    assert run(["verify-sim", pair, host, emb]) == 0
    assert out_json(capsys)["ok"]


def test_construct_primes(capsys):
    assert run(["construct", "primes", "--n", "4"]) == 0
    doc = out_json(capsys)
    assert doc["marked"] == [1, 0, 1, 0, 0]
    assert len(doc["net"]["nodes"]) == 5
    assert doc["gnetwork"]["format"] == "gnetwork"


def test_construct_odometer_and_hcounter(capsys):
    assert run(["construct", "odometer", "--n", "3"]) == 0
    doc = out_json(capsys)
    assert doc["net"]["alphabet"] == 10 and len(doc["net"]["nodes"]) == 3
    assert run(["construct", "hcounter", "--n", "2"]) == 0
    doc = out_json(capsys)
    assert doc["net"]["alphabet"] == 8 and len(doc["net"]["nodes"]) == 2


def test_construct_sat_pred_from_dimacs(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("c demo\np cnf 2 2\n1 -2 0\n2 0\n")
    assert run(["construct", "sat-pred", "--cnf", str(cnf)]) == 0
    doc = out_json(capsys)
    assert doc["n_vars"] == 2
    assert doc["clauses"] == [[1, -2], [2]]
    assert len(doc["net"]["nodes"]) == 3
    assert run(["construct", "sat-pred"]) == 2  # --cnf is required
    capsys.readouterr()


def test_construct_gt_transient(capsys):
    assert run(["construct", "gt-transient", "--n", "4"]) == 0
    doc = out_json(capsys)
    assert doc["gnetwork"]["format"] == "gnetwork"
    assert len(doc["start"]) == len(doc["net"]["nodes"])


def _exits_three_at_once(argv, capsys):
    start = time.perf_counter()
    assert run(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert "exceeds the budget" in out_json(capsys)["error"]


def test_construct_past_the_table_budget_exits_three(capsys):
    _exits_three_at_once(["construct", "hcounter", "--n", "8"], capsys)  # 8^8 rows
    _exits_three_at_once(["construct", "hcounter", "--n", "7"], capsys)  # 7 tables of 8^7


@pytest.mark.parametrize("kind", ["odometer", "primes", "hcounter", "gt-transient"])
def test_construct_of_a_huge_size_exits_three_before_building(kind, capsys):
    # Each died of MemoryError (exit 1) in a 3 GB address space before
    # the size was counted from --n.
    _exits_three_at_once(["construct", kind, "--n", str(10**12)], capsys)


@pytest.mark.parametrize(
    "build, sizes",
    [
        (odometer, (1, 2, 3, 6)),
        (h_counter_network, (1, 2, 3)),
        (lambda n: prime_rotations(n)[0], (3, 8, 20)),
        (lambda n: gt_transient_network(n)[0], (3, 4, 8, 20)),
    ],
)
def test_construct_builders_count_their_entries_from_n(build, sizes, monkeypatch):
    # With the budget at the entries the network holds it is built, and one
    # entry below it is refused: the count from n is exact.
    for n in sizes:
        entries = sum(len(rule.table) for rule in build(n).rules)
        monkeypatch.setattr(core, "MAX_TABLE", entries)
        build(n)
        monkeypatch.setattr(core, "MAX_TABLE", entries - 1)
        with pytest.raises(core.BudgetExceededError, match="exceeds the budget"):
            build(n)
        monkeypatch.undo()


def test_construct_refuses_from_the_first_size_past_the_budget(capsys):
    # The first n whose network passes 2^22 entries: odometer holds
    # 200 + 1000 (n - 2); primes 2 per ring node, and 5857 is prime;
    # gt-transient 3 (p + 1) per ring of p plus the tree and the latch,
    # and 4729 is prime.
    for kind, n in (("odometer", 4197), ("primes", 5858), ("gt-transient", 4730)):
        _exits_three_at_once(["construct", kind, "--n", str(n)], capsys)


def test_convert_past_the_table_budget_exits_three(tmp_path, capsys):
    rows = [[1] * 23] + [[0] * 23] * 22
    matrix = {"format": "matrix", "version": 1, "kind": "GF2", "rows": rows}
    _exits_three_at_once(["convert", write_json(tmp_path, "m.json", matrix)], capsys)
    # a node of degree 22 reads 23 nodes
    star = csan_to_json(build_threshold(23, [(0, v) for v in range(1, 23)], [1] * 23))
    _exits_three_at_once(["convert", write_json(tmp_path, "star.json", star)], capsys)


# A CSAN document is sized from its alphabet and degrees before any vertex
# table is built or compared. Unguarded, the first took 23 s and 3.1 GB, the
# second (on 100 states) 11.5 s and 1.0 GB, and the third died of MemoryError.


def csan_doc(alphabet, n, edges, vertex):
    return {"format": "csan", "version": 1, "alphabet": alphabet, "n": n, "edges": edges,
            "vertices": [{"lambda": vertex}] * n}


def test_csan_table_of_another_size_exits_two_at_once(tmp_path, capsys):
    one_row = csan_doc(20000, 1, [], [[0, [0, 0, 0], 0]])
    start = time.perf_counter()
    assert run(["convert", write_json(tmp_path, "one_row.json", one_row)]) == 2
    assert time.perf_counter() - start < 1.0
    assert out_json(capsys) == {"error": "node 0 table must cover exactly the multisets of size <= 0"}


@pytest.mark.parametrize("alphabet", [100, 200])
def test_csan_shorthand_past_the_budget_exits_three(alphabet, tmp_path, capsys):
    # The middle node's table would hold 100 * C(102, 2) rows of 101 integers.
    path = csan_doc(alphabet, 3, [[0, 1, "id"], [1, 2, "id"]], {"family": "minmax", "polarity": "MAX"})
    _exits_three_at_once(["convert", write_json(tmp_path, "path.json", path)], capsys)


def test_csan_alphabet_past_the_budget_exits_three(tmp_path, capsys):
    pair = csan_doc(2**40, 2, [[0, 1, "id"]], [[0, [1], 0]])
    _exits_three_at_once(["convert", write_json(tmp_path, "pair.json", pair)], capsys)


NO_NUMPY = """
import sys
from artifact import cli, core
assert cli.run(["verify-sim", *sys.argv[1:]]) == 0
assert cli.run(["gol", "demo"]) == 0
core.attractors(core.make_network(2, [((1,), (0, 1)), ((0, 1), (0, 1, 1, 0))]))
print("numpy" in sys.modules)
"""


def test_batch_paths_never_import_numpy(tmp_path, rot3_file):
    # The lane kernels use the standard library only: importing numpy in a
    # benchmark job raised its peak RSS from 38.8 to 50.6 MB (+30 %), and
    # the import alone costs about 0.12 s.
    emb = write_json(tmp_path, "emb.json", identity_embedding_doc(rotation(3)))
    src = str(Path(artifact.__file__).parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, rot3_file, rot3_file, emb],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_compile_step_serves_the_orbit_walker_only(tmp_path, rot3_file, monkeypatch, capsys):
    # Compiling the 792-node host of a 12-gate ring costs about 45 ms, a
    # loss on paths that step a host a few times or in lane batches.
    compiled = []
    original = core.compile_step

    def counted(net):
        compiled.append(net.n)
        return original(net)

    monkeypatch.setattr(core, "compile_step", counted)
    pair = write_json(tmp_path, "pair.json", nor_pair_doc())
    out = tmp_path / "compiled.json"
    assert run(["compile", pair, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    host = write_json(tmp_path, "host.json", doc["csan"])
    emb = write_json(tmp_path, "emb.json", doc["embedding"])
    assert run(["verify-sim", pair, host, emb]) == 0
    assert run(["gol", "demo"]) == 0
    assert compiled == []
    assert run(["analyze", rot3_file, "--config", "[1,0,0]"]) == 0
    assert compiled == [3]
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, says",
    [
        (["oracle", "no-such-problem", "x.json"], "invalid choice"),
        (["analyze", "NET", "--config"], "expected one argument"),
        (["simulate", "NET", "-t", "two"], "invalid int value"),
        (["analyze", "NET", "--no-such-flag"], "unrecognized arguments"),
        (["verify-cert", "a.json", "b.json"], "unrecognized arguments"),
        ([], "required: command"),
    ],
)
def test_usage_errors_exit_two(argv, says, rot3_file, capsys):
    argv = [rot3_file if a == "NET" else a for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert says in json.loads(captured.out)["error"]
    assert captured.err == ""


def test_negative_config_is_read_as_a_value(rot3_file, capsys):
    assert run(["analyze", rot3_file, "--config", "-1"]) == 2
    assert out_json(capsys) == {"error": "configuration must be a JSON array of states"}


def test_run_reuses_one_parser(tmp_path, rot3_file, monkeypatch, capsys):
    reach = write_json(
        tmp_path,
        "reach.json",
        instance_to_json(make_reach_instance(rotation(3), (1, 0, 0), (0, 1, 0))),
    )
    calls = [
        ["analyze", rot3_file, "--config", "[1,0,0]", "--max-states", "2"],
        ["analyze", rot3_file, "--config", "[1,0,0]"],
        ["oracle", "reach", reach, "--pretty"],
        ["oracle", "no-such-problem", reach],  # argparse error
        ["simulate", rot3_file, "--config", "[1,0,0]", "-t", "2", "--trace"],
        ["oracle", "reach", reach],
        ["simulate", rot3_file, "-t", "1"],  # no configuration
        ["analyze", rot3_file, "--config", "[0,1,1]"],
    ]

    def outcomes():
        got = []
        for argv in calls:
            try:
                code = run(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    cli._parser.cache_clear()
    shared = outcomes()
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [3, 0, 0, 2, 0, 0, 2, 0]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outcomes() == shared
