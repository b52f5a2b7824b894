"""The document layer: one contract for every format, and one place for JSON."""

import ast
from pathlib import Path

import pytest

from artifact import docs, gol
from artifact.circuit import (
    InvalidCircuitError,
    circuit_encode,
    circuit_from_json,
    circuit_to_json,
)
from artifact.core import InvalidNetworkError, network_from_json, network_to_json
from artifact.csan import (
    InvalidCsanError,
    build_rule90_ring,
    csan_from_json,
    csan_to_json,
)
from artifact.gadget import (
    InvalidGadgetError,
    certificate_from_json,
    certificate_to_json,
    gadget_from_json,
    gadget_to_json,
)
from artifact.glue import (
    InvalidGlueError,
    dowel_from_json,
    dowel_to_json,
    make_dowel,
    make_pseudo_orbit,
    pseudo_orbit_from_json,
    pseudo_orbit_to_json,
)
from artifact.gnet import (
    NOR_2_2,
    GNetworkBuilder,
    InvalidGNetworkError,
    gnetwork_from_json,
    gnetwork_to_json,
)
from artifact.problems import (
    InvalidInstanceError,
    instance_from_json,
    instance_to_json,
    make_reach_instance,
)
from artifact.simulate import (
    BlockEmbedding,
    InvalidEmbeddingError,
    embedding_from_json,
    embedding_to_json,
)

from conftest import rotation

SRC = Path(docs.__file__).resolve().parent


def nor_pair():
    b = GNetworkBuilder(2)
    g0, outs0 = b.new_gate(NOR_2_2)
    g1, outs1 = b.new_gate(NOR_2_2)
    b.connect(g0, outs1)
    b.connect(g1, outs0)
    return b.build()


def sample(kind):
    net = rotation(3)
    return {
        "network": lambda: net,
        "csan": lambda: build_rule90_ring(4),
        "dowel": lambda: make_dowel(["a"], ["b"], {"a": 2, "b": 0}, {"a": 1, "b": 2}),
        "pseudoorbit": lambda: make_pseudo_orbit([(0, 1), (1, 0), (0, 1)], exempt={1}),
        "gadget": lambda: gol.build_nor_gadget(),
        "certificate": lambda: gol.build_certificate(),
        "gnetwork": nor_pair,
        "circuit": lambda: circuit_encode(net),
        "embedding": lambda: BlockEmbedding(1, ((0,), (1,), (2,)), (((0,), (1,)),) * 3),
        "instance": lambda: make_reach_instance(net, (1, 0, 0), (0, 1, 0)),
    }[kind]()


# kind -> (writer, parser, the parser's typed error)
FORMATS = {
    "network": (network_to_json, network_from_json, InvalidNetworkError),
    "csan": (csan_to_json, csan_from_json, InvalidCsanError),
    "dowel": (dowel_to_json, dowel_from_json, InvalidGlueError),
    "pseudoorbit": (pseudo_orbit_to_json, pseudo_orbit_from_json, InvalidGlueError),
    "gadget": (gadget_to_json, gadget_from_json, InvalidGadgetError),
    "certificate": (certificate_to_json, certificate_from_json, InvalidGadgetError),
    "gnetwork": (gnetwork_to_json, gnetwork_from_json, InvalidGNetworkError),
    "circuit": (circuit_to_json, circuit_from_json, InvalidCircuitError),
    "embedding": (embedding_to_json, embedding_from_json, InvalidEmbeddingError),
    "instance": (instance_to_json, instance_from_json, InvalidInstanceError),
}


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_every_format_round_trips_through_a_file(kind, tmp_path):
    to_json, from_json, _ = FORMATS[kind]
    doc = to_json(sample(kind))
    assert doc["format"] == kind and doc["version"] == 1
    path = tmp_path / f"{kind}.json"
    docs.write(doc, path)
    assert to_json(from_json(docs.read(path))) == doc


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_every_format_rejects_a_foreign_envelope(kind):
    _, from_json, error = FORMATS[kind]
    for foreign in ({"format": "mystery", "version": 1}, [kind], None):
        with pytest.raises(error, match=f"not an? {kind} document"):
            from_json(foreign)


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_every_format_maps_a_bare_envelope_to_its_error(kind):
    _, from_json, error = FORMATS[kind]
    with pytest.raises(error, match=f"bad {kind} document"):
        from_json({"format": kind})


def test_errors_of_nested_documents_pass_through():
    doc = instance_to_json(sample("instance"))
    with pytest.raises(InvalidNetworkError, match="bad network document"):
        instance_from_json(dict(doc, net={"format": "network"}))
    cert = certificate_to_json(sample("certificate"))
    cert["gates"][0]["gadget"]["csan"] = {"format": "csan", "n": 1}
    with pytest.raises(InvalidCsanError, match="bad csan document"):
        certificate_from_json(cert)


def test_parsing_maps_builtin_errors_and_keeps_library_errors():
    for exc in (KeyError("k"), TypeError("t"), ValueError("v"), IndexError("i")):
        with pytest.raises(InvalidGlueError, match="bad dowel document"):
            with docs.parsing({"format": "dowel"}, "dowel", InvalidGlueError):
                raise exc
    with pytest.raises(InvalidCsanError, match="inner"):
        with docs.parsing({"format": "dowel"}, "dowel", InvalidGlueError):
            raise InvalidCsanError("inner")


def test_integers_reject_bools_floats_and_strings():
    docs.integers(InvalidGlueError, "values", (0, -3), [2**70], ())
    for bad in (True, 1.0, "1", None):
        with pytest.raises(InvalidGlueError, match=f"expected integers for values, got {bad!r}"):
            docs.integers(InvalidGlueError, "values", (0,), [1, bad])


def test_write_pretty(tmp_path):
    path = tmp_path / "doc.json"
    docs.write({"b": 1, "a": [2]}, path, pretty=True)
    assert path.read_text() == '{\n  "b": 1,\n  "a": [\n    2\n  ]\n}\n'
    docs.write(docs.envelope("thing", x=1), path)
    assert path.read_text() == '{"format": "thing", "version": 1, "x": 1}\n'


# ---------------------------------------------------------------------------
# Only docs.py touches JSON files and the envelope

# (module, enclosing function, call) pairs allowed outside docs.py: the
# CLI parses a --config array.
JSON_EXCEPTIONS = {("cli.py", "_parse_config", "json.loads")}


def json_layer_violations(name, source):
    """JSON calls and "version" writes in one module, as (module, function, what)."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found.append((name, func, "from json import"))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
        ):
            found.append((name, func, f"json.{node.func.attr}"))
        if isinstance(node, ast.Dict) and any(
            isinstance(k, ast.Constant) and k.value == "version" for k in node.keys
        ):
            found.append((name, func, '"version" key'))
        if isinstance(node, ast.Call) and any(kw.arg == "version" for kw in node.keywords):
            found.append((name, func, "version= keyword"))
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.slice, ast.Constant)
            and node.slice.value == "version"
        ):
            found.append((name, func, '"version" item'))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_only_the_document_layer_reads_writes_and_stamps_json():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "docs.py":
            found.update(json_layer_violations(path.name, path.read_text(encoding="utf-8")))
    assert found == JSON_EXCEPTIONS


def test_the_layer_guard_sees_each_kind_of_violation():
    source = '''
import json
from json import loads
def save(doc, fh):
    json.dump(doc, fh)
    doc["version"] = 2
    return {"format": "x", "version": 1}, dict(version=1)
'''
    assert sorted(what for _, _, what in json_layer_violations("m.py", source)) == [
        '"version" item',
        '"version" key',
        "from json import",
        "json.dump",
        "version= keyword",
    ]
