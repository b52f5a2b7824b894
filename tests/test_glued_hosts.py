"""Glued hosts pinned by digest.

The compile oracle in test_compile.py and the definitional step in
test_glue.py number their hosts through `glue.glued_numbering`, the
function the code under test uses too. So the documents of `compile`,
`glue` and `gol demo`, and one stitched pseudo-orbit, are pinned here by
the sha256 of `json.dumps(doc, sort_keys=True)`, taken before the glue
paths were merged into one numbering. A changed digest means a glued
host, or its embedding, now comes out numbered or wired differently.
"""

import hashlib
import json
import random

import pytest

from artifact import gol
from artifact.cli import run
from artifact.core import network_to_json
from artifact.csan import csan_to_json, csan_to_network
from artifact.glue import dowel_to_json, glue_pseudo_orbits, make_dowel, pseudo_orbit_to_json
from artifact.gnet import gnetwork_to_json

from conftest import random_network
from test_compile import nor_ring, random_wiring


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run_to_doc(tmp_path, argv, inputs):
    """Write inputs as documents, run the CLI on them, and read its output document."""
    paths = []
    for i, doc in enumerate(inputs):
        path = tmp_path / f"in{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    out = tmp_path / "out.json"
    assert run([*argv, *paths, "-o", str(out)]) == 0
    return json.loads(out.read_text())


def wire_junction():
    """The wire's far end (nodes 12-17, 22, 23) onto a second wire's near end."""
    phi1 = {"jd0": 12, "jd1": 13, "jd2": 14, "jda": 22, "jr0": 15, "jr1": 16, "jr2": 17, "jra": 23}
    phi2 = {"jd0": 0, "jd1": 1, "jd2": 2, "jda": 18, "jr0": 3, "jr1": 4, "jr2": 5, "jra": 19}
    return make_dowel(("jd0", "jd1", "jd2", "jda"), ("jr0", "jr1", "jr2", "jra"), phi1, phi2)


def plain_pair():
    rng = random.Random(17)
    f1, f2 = random_network(rng, 5, 3), random_network(rng, 4, 3)
    d = make_dowel(["a", "b"], ["c"], {"a": 3, "b": 0, "c": 4}, {"a": 1, "b": 3, "c": 0})
    return f1, f2, d


def compile_doc(tmp_path, gn):
    return run_to_doc(tmp_path, ["compile"], [gnetwork_to_json(gn)])


def glue_wires_doc(tmp_path):
    wire = csan_to_json(gol.build_wire())
    return run_to_doc(tmp_path, ["glue"], [wire, wire, dowel_to_json(wire_junction())])


def glue_plain_doc(tmp_path):
    f1, f2, d = plain_pair()
    docs = [network_to_json(f1), network_to_json(f2), dowel_to_json(d)]
    return run_to_doc(tmp_path, ["glue"], docs)


def stitched_wire_signal_doc(tmp_path):
    net = csan_to_network(gol.build_wire())
    p1 = gol.wire_signal(1, steps=6)
    p2 = gol.wire_signal(1, steps=6, offset=4)
    return pseudo_orbit_to_json(glue_pseudo_orbits(net, net, wire_junction(), p1, p2))


def gol_demo_doc(tmp_path):
    return run_to_doc(tmp_path, ["gol", "demo"], [])


BUILDS = {
    "compile nor_ring(2)": lambda tmp: compile_doc(tmp, nor_ring(2)),
    "compile nor_ring(6)": lambda tmp: compile_doc(tmp, nor_ring(6)),
    "compile random_wiring(8, seed 3)": lambda tmp: compile_doc(
        tmp, random_wiring(8, random.Random(3))
    ),
    "glue two lifelike wires": glue_wires_doc,
    "glue two plain networks": glue_plain_doc,
    "stitch two wire signals": stitched_wire_signal_doc,
    "gol demo": gol_demo_doc,
}

PINNED = {
    "compile nor_ring(2)": "e2d545dea162acb72c9a7ab5ddee067eabc455da655652e3e771fd169d8cc96e",
    "compile nor_ring(6)": "a69d47aa8730f88112e7b2ea5ca1c7405b5f4521637f1fac6e58a14f52f0e8e7",
    "compile random_wiring(8, seed 3)": "bef38a41faa3d9c22b7fc5fdc6664936ef42f0f68d4ce085cec9cbacf73db658",
    "glue two lifelike wires": "19a75fb2ff4e97e1b4f00e822a5eed5ea3185fb148e3d2935993525d200e6415",
    "glue two plain networks": "92c40d7f0840457298ad54ccf6c226ed57945d72b04529883de8fbabe3484acb",
    "gol demo": "3532c2694dbfd85fdf0b89fd3a060ac430f545782200dec97810992c2295a97b",
    "stitch two wire signals": "c2dc2190536cc852a9df41f03da90eafcab75038505b9b2dc357610d5a487b5a",
}


def test_every_glued_build_is_pinned():
    assert set(PINNED) == set(BUILDS)


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_glued_builds_write_the_pinned_documents(name, tmp_path):
    assert digest(BUILDS[name](tmp_path)) == PINNED[name]
