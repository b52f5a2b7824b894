"""Command-line surface: reports, exit codes, file plumbing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import artifact
from artifact import cli, core, docs, gol
from artifact.cli import run
from artifact.core import make_network, network_to_json
from artifact.csan import csan_to_json
from artifact.glue import dowel_to_json, glue_networks, make_dowel
from artifact.gnet import NOR_2_2, GNetworkBuilder, gnetwork_to_json
from artifact.problems import (
    instance_to_json,
    make_pred_instance,
    make_reach_instance,
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


def test_oracle_budget_env_default(tmp_path, capsys, monkeypatch):
    net = rotation(8)
    inst = make_pred_instance(net, 0, (1, 0, 0, 0, 1, 1, 0, 1), 1, 10**9, "binary")
    path = write_json(tmp_path, "big.json", instance_to_json(inst))
    monkeypatch.setenv("ARTIFACT_MAX_STATES", "3")
    assert run(["oracle", "b-pred", path]) == 3
    capsys.readouterr()


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
    doc = docs.read(gol._DATA_DIR / "gol_certificate.json")
    return {**doc, **changes}


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


# case -> (arguments with DOC where the document's path goes, document).
# Each of these documents once escaped its parser or checker as a built-in
# exception, or was judged with exit code 0 or 1 on a non-integer state.
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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_exit_two(case, tmp_path, capsys):
    args, build = MALFORMED[case]
    path = write_json(tmp_path, "doc.json", build())
    assert run([path if a is DOC else a for a in args]) == 2
    assert out_json(capsys)["error"]


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
    assert [code for code, _, _ in shared] == [3, 0, 0, ("SystemExit", 2), 0, 0, 2, 0]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outcomes() == shared
