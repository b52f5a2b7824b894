"""Fuzz `cli.run` over mutated documents.

`analyze` and `oracle b-pred|pred-chg|reach` read a network or an
instance document and walk an orbit; `verify-sim` reads a source, a
host and an embedding and steps the host in lanes; `verify-cert` reads
a certificate and replays its recorded runs; `compile --certificate` compiles with
one; `convert` and `analyze` read a gate network, `compile` and
`convert` whole gate-network documents, and `convert` a CSAN
whose vertices are family shorthands, and tabulate it; `convert`,
`convert --to circuit` and `analyze` read a circuit; `glue` reads two
networks or CSANs and a dowel; `convert` and `glue` read whole CSAN
documents, alphabet and size included; `simulate` reads a network or
gate network document, a configuration and a time; `construct` reads a
size or a DIMACS file. Whatever the
documents hold, the command must end in one of its exit codes (0 yes,
1 no, 2 bad input, 3 budget exceeded) and never in an uncaught
exception.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import gol
from artifact.circuit import circuit_to_json, make_circuit
from artifact.cli import run
from artifact.core import network_to_json
from artifact.csan import csan_to_json
from artifact.gadget import certificate_to_json
from artifact.glue import dowel_to_json, make_dowel
from artifact.gnet import gnetwork_to_json
from artifact.problems import (
    instance_to_json,
    make_pred_chg_instance,
    make_pred_instance,
    make_reach_instance,
    odometer,
)
from artifact.simulate import BlockEmbedding, embedding_to_json

from conftest import rotation, xor_ring
from test_csan import lifelike_shorthand
from test_glued_hosts import wire_junction
from test_gol import cross_pair

NET = odometer(3)  # from START: transient 18, period 12, inside the budget of 64
START = (5, 5, 5)
BASE = {
    "analyze": {"net": network_to_json(NET), "x": list(START)},
    "b-pred": instance_to_json(make_pred_instance(NET, 1, START, 1, 2**40, "binary")),
    "pred-chg": instance_to_json(make_pred_chg_instance(NET, 2, START, 3)),
    "reach": instance_to_json(make_reach_instance(NET, START, (0, 1, 2))),
}

ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(-3, 2**64),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
    st.lists(st.integers(-2, 5), max_size=5),
    st.lists(st.booleans(), max_size=3),
)


def locations(doc, at=()):
    """Every place in a JSON tree, the root included, as a key path."""
    yield at
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from locations(value, at + (key,))


@st.composite
def mutated(draw, doc, sections=lambda draw: [()]):
    """doc with one to three values replaced, lists truncated or keys dropped.

    Each edit lands under one of the key paths that `sections` draws.
    """
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        root = draw(st.sampled_from(sections(draw)))
        try:
            sub = doc
            for key in root:
                sub = sub[key]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed this section
        at = draw(st.sampled_from(list(locations(sub, root))))
        if not at:
            doc = draw(ODD_VALUES)
            continue
        parent = doc
        for key in at[:-1]:
            parent = parent[key]
        key = at[-1]
        edit = draw(st.sampled_from(("replace", "truncate", "drop")))
        if edit == "truncate" and isinstance(parent[key], list):
            del parent[key][draw(st.integers(0, len(parent[key]))) :]
        elif edit == "drop" and isinstance(parent, dict):
            del parent[key]
        else:
            parent[key] = draw(ODD_VALUES)
    return doc


def run_on(command, doc) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        doc_file = Path(tmp) / "doc.json"
        out = str(Path(tmp) / "out.json")
        if command == "analyze":
            net = doc.get("net") if isinstance(doc, dict) else doc
            x = doc.get("x") if isinstance(doc, dict) else None
            doc_file.write_text(json.dumps(net))
            # "=" keeps a config such as -1 from reading as an option
            argv = ["analyze", str(doc_file), f"--config={json.dumps(x)}"]
        else:
            doc_file.write_text(json.dumps(doc))
            argv = ["oracle", command, str(doc_file)]
        return run([*argv, "--max-states", "64", "-o", out])


@pytest.mark.parametrize("command", sorted(BASE))
def test_unmutated_documents_answer(command):
    assert run_on(command, BASE[command]) in (0, 1)


@pytest.mark.parametrize("command", sorted(BASE))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_documents_exit_with_a_code(command, data):
    doc = data.draw(mutated(BASE[command]))
    assert run_on(command, doc) in (0, 1, 2, 3)


CERT = certificate_to_json(gol.build_certificate())


def certificate_sections(draw):
    """A recorded run, the gate's context, the state patterns, a trace."""
    runs = len(CERT["gates"][0]["pseudo_orbits"])
    traces = len(CERT["standard_traces"])
    return [
        ("gates", 0, "pseudo_orbits", draw(st.integers(0, runs - 1))),
        ("gates", 0, "context"),
        ("state_configs",),
        ("standard_traces", draw(st.integers(0, traces - 1))),
    ]


def test_unmutated_certificate_verifies(tmp_path):
    doc_file = tmp_path / "cert.json"
    doc_file.write_text(json.dumps(CERT))
    assert run(["verify-cert", str(doc_file), "-o", str(tmp_path / "out.json")]) == 0


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_certificates_exit_with_a_code(data):
    doc = data.draw(mutated(CERT, certificate_sections))
    with tempfile.TemporaryDirectory() as tmp:
        doc_file = Path(tmp) / "cert.json"
        doc_file.write_text(json.dumps(doc))
        assert run(["verify-cert", str(doc_file), "-o", str(Path(tmp) / "out.json")]) in (0, 1, 2, 3)


# Gate entries: the gate of the certificate, and every gate of a gnetwork.
# The codec refuses a wrong type, row count or row length with exit code 2.


def run_to_document(argv) -> int:
    """The exit code of `run(argv)`, whose report must be a JSON document."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        code = run([*argv, "-o", str(out)])
        assert isinstance(json.loads(out.read_text()), dict)
        return code


NOR_PAIR = gnetwork_to_json(cross_pair())
GATE_FIELDS = ("name", "n_in", "n_out", "table")


def test_unmutated_gate_documents_answer(tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(CERT))
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(NOR_PAIR))
    assert run_to_document(["compile", str(pair), "--certificate", str(cert)]) == 0
    assert run_to_document(["convert", str(pair)]) == 0
    assert run_to_document(["analyze", str(pair), "--config", "[0, 1, 1, 0]"]) == 0


@settings(max_examples=40, deadline=None)
@given(data=st.data(), command=st.sampled_from(("verify-cert", "compile")))
def test_mutated_certificate_gates_exit_with_a_document(data, command):
    doc = data.draw(mutated(CERT, lambda draw: [("gates", 0, "gate")]))
    with tempfile.TemporaryDirectory() as tmp:
        cert = Path(tmp) / "cert.json"
        cert.write_text(json.dumps(doc))
        if command == "verify-cert":
            argv = ["verify-cert", str(cert)]
        else:
            pair = Path(tmp) / "pair.json"
            pair.write_text(json.dumps(NOR_PAIR))
            argv = ["compile", str(pair), "--certificate", str(cert)]
        assert run_to_document(argv) in (0, 1, 2, 3)


def gate_fields(draw):
    return [("gates", draw(st.integers(0, 1)), draw(st.sampled_from(GATE_FIELDS)))]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), command=st.sampled_from(("convert", "analyze")))
def test_mutated_gnetwork_gates_exit_with_a_document(data, command):
    doc = data.draw(mutated(NOR_PAIR, gate_fields))
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "gnet.json"
        src.write_text(json.dumps(doc))
        argv = [command, str(src)] + (["--config", "[0, 1, 1, 0]"] if command == "analyze" else [])
        assert run_to_document(argv) in (0, 1, 2, 3)


# Whole gate-network documents: the alphabet, the gate list and each
# gate's ports as well as its fields. An alphabet below 1 is refused as
# the document is read, by `compile` as by `convert`.
def gnetwork_sections(draw):
    gate = draw(st.integers(0, 1))
    return [(), ("alphabet",), ("gates",), ("gates", gate, "inputs"), ("gates", gate, "outputs")]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), command=st.sampled_from(("compile", "convert")))
def test_mutated_gnetwork_documents_exit_with_a_document(data, command):
    doc = data.draw(mutated(NOR_PAIR, gnetwork_sections))
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "gnet.json"
        src.write_text(json.dumps(doc))
        assert run_to_document([command, str(src)]) in (0, 1, 2, 3)


# A closed circuit of two inputs: node 2 is NOT x0, node 3 is x0 AND x1.
# `convert` and `analyze` read it as its closed network, and `convert --to
# circuit` writes it back.
CIRCUIT = circuit_to_json(make_circuit(2, [("NOT", (0,)), ("AND", (0, 1))], (2, 3)))
CIRCUIT_COMMANDS = {
    "convert": ["convert"],
    "convert --to circuit": ["convert", "--to", "circuit"],
    "analyze": ["analyze", "--config", "[0, 1]"],
}


def run_on_circuit(command, doc) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "circuit.json"
        src.write_text(json.dumps(doc))
        name, *options = CIRCUIT_COMMANDS[command]
        return run_to_document([name, str(src), *options])


@pytest.mark.parametrize("command", sorted(CIRCUIT_COMMANDS))
def test_unmutated_circuit_document_answers(command):
    assert run_on_circuit(command, CIRCUIT) == 0


@settings(max_examples=150, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(CIRCUIT_COMMANDS)))
def test_mutated_circuit_documents_exit_with_a_document(data, command):
    assert run_on_circuit(command, data.draw(mutated(CIRCUIT))) in (0, 1, 2, 3)


# The wire with lifelike shorthands for vertices; only they are mutated
# here. Whole documents are mutated below.
WIRE = lifelike_shorthand(gol.build_wire())


def convert(doc) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        doc_file = Path(tmp) / "csan.json"
        doc_file.write_text(json.dumps(doc))
        return run(["convert", str(doc_file), "-o", str(Path(tmp) / "out.json")])


def test_unmutated_shorthand_csan_converts():
    assert convert(WIRE) == 0


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_shorthand_vertices_exit_with_a_code(data):
    doc = data.draw(mutated(WIRE, lambda draw: [("vertices",)]))
    assert convert(doc) in (0, 2)


# A 3-rotation simulated at time 2 by a 6-rotation that holds each state
# twice. One of the three documents is mutated at a time.
SIMULATION = {
    "source": network_to_json(rotation(3)),
    "host": network_to_json(rotation(6)),
    "embedding": embedding_to_json(
        BlockEmbedding(2, ((0, 1), (2, 3), (4, 5)), (((0, 0), (1, 1)),) * 3)
    ),
}


def verify_sim(documents, *options) -> int:
    """The exit code of `verify-sim` on the source, host and embedding documents."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for role in ("source", "host", "embedding"):
            path = Path(tmp) / f"{role}.json"
            path.write_text(json.dumps(documents[role]))
            paths.append(str(path))
        return run_to_document(["verify-sim", *paths, *options])


def test_unmutated_simulation_verifies():
    assert verify_sim(SIMULATION) == 0


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    role=st.sampled_from(sorted(SIMULATION)),
    mode=st.sampled_from(("exhaustive", "sample")),
)
def test_mutated_simulation_documents_exit_with_a_document(data, role, mode):
    # Any time is in: a huge one folds into each batch's cycle.
    documents = {**SIMULATION, role: data.draw(mutated(SIMULATION[role]))}
    options = ["--mode", mode, "--samples", "20", "--seed", "1"]
    assert verify_sim(documents, *options) in (0, 1, 2, 3)


# `glue` on two lifelike wires (the csan path) and on two plain networks,
# each with its dowel. One of the three documents is mutated at a time; a
# wire keeps its alphabet and n here, and not in the whole-document test.
GLUE = {
    "csan": {
        "first": csan_to_json(gol.build_wire()),
        "second": csan_to_json(gol.build_wire()),
        "dowel": dowel_to_json(wire_junction()),
    },
    "network": {
        "first": network_to_json(xor_ring(3)),
        "second": network_to_json(rotation(3)),
        "dowel": dowel_to_json(make_dowel(["a"], ["b"], {"a": 2, "b": 0}, {"a": 1, "b": 2})),
    },
}


def glue_sections(path, role):
    if path == "csan" and role != "dowel":
        return lambda draw: [("edges",), ("vertices",)]
    return lambda draw: [()]


def glue(documents) -> int:
    """The exit code of `glue` on the first, second and dowel documents."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for role in ("first", "second", "dowel"):
            path = Path(tmp) / f"{role}.json"
            path.write_text(json.dumps(documents[role]))
            paths.append(str(path))
        return run_to_document(["glue", *paths])


@pytest.mark.parametrize("path", sorted(GLUE))
def test_unmutated_glue_documents_glue(path):
    assert glue(GLUE[path]) == 0


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    path=st.sampled_from(sorted(GLUE)),
    role=st.sampled_from(("first", "second", "dowel")),
)
def test_mutated_glue_documents_exit_with_a_document(data, path, role):
    documents = GLUE[path]
    documents = {**documents, role: data.draw(mutated(documents[role], glue_sections(path, role)))}
    assert glue(documents) in (0, 2)


# Whole CSAN documents: the alphabet, n, the edges and the vertices are all
# mutated. A document is sized from its alphabet and degrees before any
# table is built or compared, so a huge alphabet or table is refused (exit
# 3) rather than built. The bases are the wire with explicit rows and a
# min-max path on three states given by shorthands; each glues to itself.
MINMAX_PATH = {
    "format": "csan",
    "version": 1,
    "alphabet": 3,
    "n": 3,
    "edges": [[0, 1, "id"], [1, 2, "id"]],
    "vertices": [{"lambda": {"family": "minmax", "polarity": p}} for p in ("MAX", "MIN", "MAX")],
}
CSANS = {
    "wire": (csan_to_json(gol.build_wire()), dowel_to_json(wire_junction())),
    "minmax": (MINMAX_PATH, dowel_to_json(make_dowel(["a"], ["b"], {"a": 1, "b": 2}, {"a": 0, "b": 1}))),
}


def csan_sections(draw):
    return [("alphabet",), ("n",), ("edges",), ("vertices",)]


def convert_to_document(doc) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "csan.json"
        path.write_text(json.dumps(doc))
        return run_to_document(["convert", str(path)])


@pytest.mark.parametrize("base", sorted(CSANS))
def test_unmutated_csan_documents_convert_and_glue(base):
    doc, dowel = CSANS[base]
    assert convert_to_document(doc) == 0
    assert glue({"first": doc, "second": doc, "dowel": dowel}) == 0


@settings(max_examples=150, deadline=None)
@given(data=st.data(), base=st.sampled_from(sorted(CSANS)))
def test_mutated_csan_documents_convert_to_a_document(data, base):
    doc = data.draw(mutated(CSANS[base][0], csan_sections))
    assert convert_to_document(doc) in (0, 2, 3)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), base=st.sampled_from(sorted(CSANS)), role=st.sampled_from(("first", "second")))
def test_mutated_csan_documents_glue_to_a_document(data, base, role):
    doc, dowel = CSANS[base]
    documents = {"first": doc, "second": doc, "dowel": dowel}
    documents[role] = data.draw(mutated(doc, csan_sections))
    assert glue(documents) in (0, 2, 3)


def report_of(argv) -> tuple[int, dict]:
    """The exit code and the JSON report of `run(argv)` on stdout; a usage
    error is reported there too."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = run(argv)
    report = json.loads(out.getvalue())
    assert isinstance(report, dict)
    return code, report


def write_json(directory: Path, doc) -> str:
    path = directory / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


# `simulate` on odometer(3) and on the NOR pair, each with a start. The time
# is any int, a huge one included, or an odd value: within the state budget
# it folds as soon as the orbit's cycle is met, past it once a walk closes it.
SIMULATE = {
    "network": (network_to_json(NET), list(START)),
    "gnetwork": (NOR_PAIR, [0, 1, 1, 0]),
}
TIMES = st.one_of(st.integers(-3, 2**64), ODD_VALUES)


@pytest.mark.parametrize("base", sorted(SIMULATE))
def test_unmutated_simulate_documents_answer(base, tmp_path):
    doc, x = SIMULATE[base]
    net = write_json(tmp_path, doc)
    assert report_of(["simulate", net, f"--config={json.dumps(x)}", "-t", str(2**64)])[0] == 0


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    base=st.sampled_from(sorted(SIMULATE)),
    what=st.sampled_from(("document", "config", "time")),
    t=TIMES,
)
def test_mutated_simulate_arguments_exit_with_a_report(data, base, what, t):
    doc, x = SIMULATE[base]
    if what == "document":
        doc = data.draw(mutated(doc))
    elif what == "config":
        x = data.draw(mutated(x))
    with tempfile.TemporaryDirectory() as tmp:
        net = write_json(Path(tmp), doc)
        argv = ["simulate", net, f"--config={json.dumps(x)}", f"-t={json.dumps(t)}"]
        assert report_of(argv)[0] in (0, 1, 2, 3)


# `construct` at sizes up to 5, which build at once, and at sizes past every
# kind's table budget (the largest first refused size is primes' 5,858),
# which are refused before anything is built, up to 2^64; and at odd values.
# The sizes in between build and write networks of up to 2^22 entries,
# seconds each, which is not what this test is about.
SIZES = st.one_of(st.integers(-3, 5), st.integers(6000, 2**64), ODD_VALUES)
CNF = "p cnf 3 2\n1 -2 0\n2 3 0\n"


@st.composite
def mutated_cnf(draw):
    """CNF with one to three tokens replaced by a size or dropped."""
    lines = [line.split(" ") for line in CNF.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        tokens = draw(st.sampled_from(lines))
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i] = draw(st.one_of(SIZES.map(json.dumps), st.just("")))
    return "\n".join(" ".join(tokens) for tokens in lines)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(("odometer", "primes", "hcounter", "gt-transient")), n=SIZES)
def test_construct_of_any_size_exits_with_a_report(kind, n):
    with tempfile.TemporaryDirectory() as tmp:
        dot = Path(tmp) / "net.dot"
        code, report = report_of(["construct", kind, f"--n={json.dumps(n)}", "--dot", str(dot)])
        assert code in (0, 2, 3)
        assert ("error" in report) == (code != 0)


@settings(max_examples=100, deadline=None)
@given(text=mutated_cnf())
def test_construct_sat_pred_of_a_mutated_cnf_exits_with_a_report(text):
    with tempfile.TemporaryDirectory() as tmp:
        cnf = Path(tmp) / "f.cnf"
        cnf.write_text(text)
        assert report_of(["construct", "sat-pred", "--cnf", str(cnf)])[0] in (0, 2, 3)

