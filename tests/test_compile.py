"""The one-pass gadget compiler against chained pairwise glueing.

The oracle below glues gate j onto the accumulated gadget of gates
0..j-1 with `glue.csan_glue` or `glue.glue_networks`, which glue two
networks along one dowel and run the full labeled-glue guards, on the
test's own junction dowel; it keeps the copies left unfused itself and
numbers every step from that dowel. It shares no glue routine with the
compiler, which builds its host once from certified gadgets. Both must
produce the same host, embedding, dowels, contexts and node maps. The
oracle numbers each step through `glue.glued_numbering`, as the compiler
numbers its host, so test_glued_hosts.py pins compiled documents by
digest as well.

The compiler's junctions are pinned against the test's own, and a
soundness test holds its certified guard to `glue.glue_parts`' full
guard on those junctions.
"""

import dataclasses
import functools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import cli, csan, gadget, glue, gol
from artifact.cli import run
from artifact.csan import build_lifelike, csan_to_json
from artifact.gadget import (
    CertificateReport,
    InvalidGadgetError,
    certificate_to_json,
    compile_gnetwork_detailed,
    make_certificate,
    make_gadget,
)
from artifact.glue import Junction, PseudoOrbit, dowel_junction, glued_numbering
from artifact.gnet import ID_1_1, NOR_2_2, GNetworkBuilder, gnetwork_to_json
from artifact.simulate import BlockEmbedding, embedding_to_json

from test_gadget import IFACE, identity_gadget, junction_dowel, nor_gadget, toy_certificate


def nor_ring(k):
    """Gate i reads output 1 of gate i-1 and output 0 of gate i+1."""
    b = GNetworkBuilder(2)
    outs = [b.new_gate(NOR_2_2)[1] for _ in range(k)]
    for i in range(k):
        b.connect(i, [outs[(i - 1) % k][1], outs[(i + 1) % k][0]])
    return b.build()


def random_wiring(k, rng, gate=NOR_2_2):
    """Inputs wired by a random permutation of the outputs, no gate fed by itself."""
    m = gate.n_in  # = gate.n_out
    n = m * k
    while True:
        perm = rng.sample(range(n), n)
        if all(set(perm[m * j : m * j + m]).isdisjoint(range(m * j, m * j + m)) for j in range(k)):
            break
    b = GNetworkBuilder(2)
    for _ in range(k):
        b.new_gate(gate)
    for j in range(k):
        b.connect(j, perm[m * j : m * j + m])
    return b.build()


def identity_ring(k):
    b = GNetworkBuilder(2)
    outs = [b.new_gate(ID_1_1)[1][0] for _ in range(k)]
    for i in range(k):
        b.connect(i, [outs[(i - 1) % k]])
    return b.build()


# ---------------------------------------------------------------------------
# The pairwise oracle


def pairwise_compile(gn, cert):
    """(host gadget, embedding, dowels, contexts, node_maps) by chained glueing."""
    produced_by, consumed_by = {}, {}
    for j in range(len(gn.gates)):
        for k, v in enumerate(gn.outputs[j]):
            produced_by[v] = (j, k)
        for k, v in enumerate(gn.inputs[j]):
            consumed_by[v] = (j, k)
    iface = cert.interface
    acc = cert.gadgets[gn.gates[0]]
    node_maps = [{v: v for v in range(acc.n)}]
    in_tags = [(0, k) for k in range(gn.gates[0].n_in)]
    out_tags = [(0, k) for k in range(gn.gates[0].n_out)]
    dowels = {}
    for j in range(1, len(gn.gates)):
        gate = gn.gates[j]
        new = cert.gadgets[gate]
        in_pairs, a_wires = [], []
        for idx, (jj, kk) in enumerate(in_tags):
            v = gn.inputs[jj][kk]
            pj, pk = produced_by[v]
            if pj == j:
                in_pairs.append((idx, pk))
                a_wires.append(v)
        out_pairs, b_wires = [], []
        for idx, (jj, kk) in enumerate(out_tags):
            v = gn.outputs[jj][kk]
            cj, ck = consumed_by[v]
            if cj == j:
                out_pairs.append((idx, ck))
                b_wires.append(v)
        d = junction_dowel(acc, new, in_pairs, out_pairs)
        if acc.csan is not None and new.csan is not None:
            dynamics = glue.csan_glue(acc.csan, new.csan, d)
        else:
            dynamics = glue.glue_networks(acc.dynamics, new.dynamics, d)
        (m1, m2), _ = glued_numbering((acc.n, new.n), [dowel_junction(d)])
        node_maps = [{o: m1[h] for o, h in m.items()} for m in node_maps]
        node_maps.append(m2)
        dowels = {v: {c: m1[h] for c, h in m.items()} for v, m in dowels.items()}
        for v, (ia, _) in zip(a_wires, in_pairs):
            dowels[v] = {c: m1[acc.in_copies[ia][c]] for c in iface.names}
        for v, (oa, _) in zip(b_wires, out_pairs):
            dowels[v] = {c: m1[acc.out_copies[oa][c]] for c in iface.names}
        used_in_first = {ia for ia, _ in in_pairs}
        used_out_second = {ob for _, ob in in_pairs}
        used_out_first = {oa for oa, _ in out_pairs}
        used_in_second = {ib for _, ib in out_pairs}
        # The copies left unfused, first gadget first, in copy order.
        kept = {
            kind: [
                {c: index[u] for c, u in copy.items()}
                for part, index, used in ((acc, m1, used_first), (new, m2, used_second))
                for k, copy in enumerate(getattr(part, kind))
                if k not in used
            ]
            for kind, used_first, used_second in (
                ("in_copies", used_in_first, used_in_second),
                ("out_copies", used_out_first, used_out_second),
            )
        }
        glued = make_gadget(iface, dynamics, kept["in_copies"], kept["out_copies"])
        in_tags = [t for k, t in enumerate(in_tags) if k not in used_in_first] + [
            (j, k) for k in range(gate.n_in) if k not in used_in_second
        ]
        out_tags = [t for k, t in enumerate(out_tags) if k not in used_out_first] + [
            (j, k) for k in range(gate.n_out) if k not in used_out_second
        ]
        acc = glued

    contexts = []
    for j, gate in enumerate(gn.gates):
        contexts.append({node_maps[j][v]: s for v, s in cert.context_configs[gate].items()})
    extra = sorted((h, s) for m in contexts for h, s in m.items())
    blocks, patterns = [], []
    for v in range(gn.n):
        by_node = {h: c for c, h in dowels[v].items()}
        block = sorted(by_node)
        rows = []
        for q in range(gn.alphabet):
            row = [cert.state_configs[q][by_node[h]] for h in block]
            if v == 0:
                row.extend(s for _, s in extra)
            rows.append(tuple(row))
        if v == 0:
            block.extend(h for h, _ in extra)
        blocks.append(tuple(block))
        patterns.append(tuple(rows))
    emb = BlockEmbedding(cert.time, tuple(blocks), tuple(patterns))
    return acc, emb, tuple(dowels[v] for v in range(gn.n)), tuple(contexts), tuple(node_maps)


def assert_valid_as_made(host):
    """host passes validation and equals, field by field, make_csan's build of it."""
    host.validate()
    edges = [(u, v, rho) for (u, v), rho in zip(host.edges, host.edge_rho)]
    made = csan.make_csan(host.alphabet, host.n, edges, host.lam)
    for field in dataclasses.fields(csan.Csan):
        assert getattr(host, field.name) == getattr(made, field.name)


def assert_same_as_pairwise(gn, cert):
    host, emb, dowels, contexts, node_maps = pairwise_compile(gn, cert)
    got = compile_gnetwork_detailed(gn, cert)
    if isinstance(got.host, csan.Csan):
        assert_valid_as_made(got.host)
    assert got.host == host.dynamics
    assert got.embedding == emb
    assert got.dowels == dowels
    assert got.contexts == contexts
    assert got.node_maps == node_maps
    return got


@pytest.fixture(scope="module")
def certificate():
    return gol.build_certificate()


# ---------------------------------------------------------------------------
# Differential tests


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8, 12, 16])
def test_nor_rings_match_pairwise(certificate, k):
    got = assert_same_as_pairwise(nor_ring(k), certificate)
    assert got.host.n == 66 * k


@pytest.mark.parametrize("seed", [0, 1])
def test_random_nor_wirings_match_pairwise(certificate, seed):
    rng = random.Random(seed)
    for k in (3, 8, 16):
        assert_same_as_pairwise(random_wiring(k, rng), certificate)


@functools.cache
def toy_nor_certificate():
    return toy_certificate({NOR_2_2: nor_gadget()})


@functools.cache
def toy_identity_certificate():
    # Node 4 lies outside both copies; the certificate's context holds it.
    return toy_certificate({ID_1_1: identity_gadget(extra_nodes=1)}, contexts={ID_1_1: {4: 0}})


def test_toy_nor_wirings_match_pairwise():
    cert = toy_nor_certificate()
    rng = random.Random(7)
    for k in range(2, 7):
        got = assert_same_as_pairwise(nor_ring(k), cert)
        assert not isinstance(got.host, csan.Csan)
        for _ in range(4):
            assert_same_as_pairwise(random_wiring(k, rng), cert)


def test_toy_identity_rings_with_context_match_pairwise():
    cert = toy_identity_certificate()
    for k in range(2, 6):
        got = assert_same_as_pairwise(identity_ring(k), cert)
        assert got.host.n == 3 * k  # five nodes per gadget, two fused per wire


# The labeled NOR case glues 84-node gadgets, so its rings stay within 12 gates.
TOY_CASES = {
    "NOR_2_2": (NOR_2_2, toy_nor_certificate, nor_ring, 40),
    "ID_1_1": (ID_1_1, toy_identity_certificate, identity_ring, 40),
    "NOR_2_2 labeled": (NOR_2_2, functools.cache(gol.build_certificate), nor_ring, 12),
}


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(sorted(TOY_CASES)),
    wiring=st.sampled_from(("ring", "permutation")),
    k=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_toy_ring_and_permutation_wirings_match_pairwise(case, wiring, k, seed):
    """Labeled hosts also pass `validate` and equal make_csan's build of them."""
    gate, make_cert, ring, most = TOY_CASES[case]
    k = 2 + (k - 2) % (most - 1)
    gn = ring(k) if wiring == "ring" else random_wiring(k, random.Random(seed), gate)
    assert_same_as_pairwise(gn, make_cert())


# ---------------------------------------------------------------------------
# The certified junction guard against the full one
#
# On the gadgets of a verified certificate a compiler junction compares
# edges only across its wires, and `csan_closure_failures` stands for the
# rest of the full guard. Each mutant changes one gadget of a glue into
# another valid lifelike network; wherever the full guard (`glue_parts` on
# the compiler's junctions) refuses the glue, the certified path (the
# closure check, then the compiler) must refuse it too.


def step_wiring(gn):
    """The (in_pairs, out_pairs) of each glue step, as the compiler builds them."""
    produced_by, consumed_by = {}, {}
    for j in range(len(gn.gates)):
        for k, v in enumerate(gn.outputs[j]):
            produced_by[v] = (j, k)
        for k, v in enumerate(gn.inputs[j]):
            consumed_by[v] = (j, k)
    return [
        (
            sorted((consumed_by[v], k) for k, v in enumerate(gn.outputs[j]) if consumed_by[v][0] < j),
            sorted((produced_by[v], k) for k, v in enumerate(gn.inputs[j]) if produced_by[v][0] < j),
        )
        for j in range(1, len(gn.gates))
    ]


def step_junctions(gn, parts):
    """The junction of each glue step, on (gate, node) places; parts[j] is gate j's gadget.

    Step j's names are "a{w}:{c}" for the w-th earlier input copy wired
    to an output copy of gate j, then "b{w}:{c}" for the earlier output
    copies wired to its input copies, as in `junction_dowel`.
    """
    iface = parts[0].interface
    junctions = []
    for j, (in_pairs, out_pairs) in enumerate(step_wiring(gn), 1):
        c1, c2, at1, at2 = [], [], {}, {}
        for tag, pairs, half, first, second in (
            ("a", in_pairs, iface.inputs, "in_copies", "out_copies"),
            ("b", out_pairs, iface.outputs, "out_copies", "in_copies"),
        ):
            for w, ((i, k), b) in enumerate(pairs):
                for c in iface.names:
                    name = f"{tag}{w}:{c}"
                    (c1 if c in half else c2).append(name)
                    at1[name] = (i, getattr(parts[i], first)[k][c])
                    at2[name] = (j, getattr(parts[j], second)[b][c])
        junctions.append(Junction(tuple(c1), tuple(c2), at1, at2))
    return junctions


def test_step_junctions_are_the_compilers(certificate, monkeypatch):
    seen = []
    numbering = gadget.glued_numbering
    monkeypatch.setattr(
        gadget, "glued_numbering", lambda sizes, js: seen.append(js) or numbering(sizes, js)
    )
    for gn in (random_wiring(6, random.Random(3)), nor_ring(4)):
        seen.clear()
        compile_gnetwork_detailed(gn, certificate)
        assert seen == [step_junctions(gn, [certificate.gadgets[g] for g in gn.gates])]


LIFE = (gol.BIRTH, gol.SURVIVE)


def labeled_toy_nor():
    # One edge per copy; the kept halves (input ci, output co) meet at node 8.
    edges = [(0, 1), (2, 3), (4, 5), (6, 7), (0, 8), (2, 8), (5, 8), (7, 8)]
    return make_gadget(
        IFACE,
        build_lifelike(9, edges, *LIFE),
        [{"ci": 0, "co": 1}, {"ci": 2, "co": 3}],
        [{"ci": 4, "co": 5}, {"ci": 6, "co": 7}],
    )


def labeled_toy_identity():
    edges = [(0, 1), (2, 3), (0, 4), (3, 4)]
    return make_gadget(IFACE, build_lifelike(5, edges, *LIFE), [{"ci": 0, "co": 1}], [{"ci": 2, "co": 3}])


MUTATIONS = ("cross", "mislabel", "drop", "swap", "lam")


def mutant(g, kind, rng):
    """g with one change to its labeled graph, again a valid lifelike Csan.

    cross: a new edge between two copies; mislabel: an edge negated;
    drop: an edge removed; swap: an edge moved to a new endpoint; lam: a
    copy node given a table from another lifelike rule.
    """
    c = g.csan
    edges = dict(zip(c.edges, c.edge_rho))
    copies = [sorted(copy.values()) for copy in (*g.in_copies, *g.out_copies)]
    if kind == "cross":
        a, b = rng.sample(copies, 2)
        edges[tuple(sorted((rng.choice(a), rng.choice(b))))] = rng.choice(((0, 1), (1, 0)))
    elif kind == "mislabel":
        edges[rng.choice(sorted(edges))] = (1, 0)
    elif kind == "drop":
        del edges[rng.choice(sorted(edges))]
    elif kind == "swap":
        u, v = rng.choice(sorted(edges))
        rho = edges.pop((u, v))
        w = rng.choice([w for w in range(c.n) if w not in (u, v) and (min(u, w), max(u, w)) not in edges])
        edges[min(u, w), max(u, w)] = rho
    lam = list(build_lifelike(c.n, edges, *LIFE).lam)
    if kind == "lam":
        v = rng.choice([v for copy in copies for v in copy])
        lam[v] = build_lifelike(c.n, edges, (1,), (1,)).lam[v]
    labeled = csan.make_csan(2, c.n, [(u, v, rho) for (u, v), rho in edges.items()], lam)
    return make_gadget(g.interface, labeled, g.in_copies, g.out_copies)


def refuses(glue_them):
    try:
        glue_them()
    except (glue.InvalidGlueError, csan.InvalidCsanError):
        return True
    return False


def compiled_from(parts, gn):
    """`compile_gnetwork_detailed` of gn, gate j given gadget parts[j], its
    certificate taken as verified.

    Each gate is renamed by its position, so one part may differ from
    the others; the certificate holds uniform state patterns, all-0
    contexts and no runs, and its report is set rather than computed.
    """
    iface = parts[0].interface
    gates = tuple(dataclasses.replace(g, name=f"{g.name}@{j}") for j, g in enumerate(gn.gates))
    states = [{c: q for c in iface.names} for q in range(gn.alphabet)]
    contexts = {g: dict.fromkeys(gadget.context_nodes(p), 0) for g, p in zip(gates, parts)}
    cert = make_certificate(iface, dict(zip(gates, parts)), states, contexts, 1, {}, {})
    cert.report = CertificateReport(True, 0)
    return compile_gnetwork_detailed(dataclasses.replace(gn, gates=gates), cert)


LABELED_CASES = {
    "NOR": (lambda: gol.build_certificate().gadgets[NOR_2_2], NOR_2_2, nor_ring),
    "toy NOR": (labeled_toy_nor, NOR_2_2, nor_ring),
    "toy ID": (labeled_toy_identity, ID_1_1, identity_ring),
}


@pytest.mark.parametrize("name", sorted(LABELED_CASES))
def test_the_certified_guard_refuses_every_mutant_the_full_guard_refuses(name):
    make, gate, ring = LABELED_CASES[name]
    base = make()
    assert build_lifelike(base.n, base.csan.edges, *LIFE) == base.csan
    assert gadget.csan_closure_failures(base.interface, [("g", base)]) == ()
    rng = random.Random(2209)
    seen = set()
    for gn in (ring(2), ring(3), ring(5), random_wiring(3, rng, gate), random_wiring(5, rng, gate)):
        k = len(gn.gates)
        for kind in MUTATIONS:
            for _ in range(4):
                parts = [base] * k
                parts[rng.randrange(k)] = bad = mutant(base, kind, rng)
                csans, junctions = [g.csan for g in parts], step_junctions(gn, parts)
                full = refuses(lambda: glue.glue_parts(csans, junctions))
                closure = bool(gadget.csan_closure_failures(base.interface, [("g", base), ("m", bad)]))
                reduced = refuses(lambda: compiled_from(parts, gn))
                assert closure or reduced or not full, kind
                if not closure:
                    assert reduced == full, kind
                if not (closure or reduced):
                    got = compiled_from(parts, gn)
                    host, node_maps = glue.glue_parts(csans, junctions)
                    assert got.host == host and list(got.node_maps) == node_maps
                    assert_valid_as_made(got.host)
                seen.add((full, closure, reduced))
    # Some refusal rests on the reduced guard, some on the closure check alone.
    assert (True, False, True) in seen and (True, True, False) in seen


def test_cli_compile_writes_the_pairwise_host(tmp_path, certificate):
    gn = nor_ring(3)
    host, emb, *_ = pairwise_compile(gn, certificate)
    src = tmp_path / "ring.json"
    src.write_text(json.dumps(gnetwork_to_json(gn)))
    out = tmp_path / "compiled.json"
    assert run(["compile", str(src), "-o", str(out)]) == 0
    want = {"csan": csan_to_json(host.csan), "embedding": embedding_to_json(emb)}
    assert out.read_text() == json.dumps(want) + "\n"


# ---------------------------------------------------------------------------
# Growth: a fixed number of tabulations and one host build


def counting(monkeypatch, name, modules):
    calls = []
    for mod in modules:
        if hasattr(mod, name):
            original = getattr(mod, name)

            def wrapper(*args, _original=original, **kwargs):
                out = _original(*args, **kwargs)
                calls.append(out.n)
                return out

            monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_compile_tabulates_and_builds_a_fixed_number_of_times(monkeypatch):
    modules = (csan, gadget, glue, gol)
    tabulated = counting(monkeypatch, "csan_to_network", modules)
    cert = gol.build_certificate()  # records its runs on the tabulated NOR gadget
    assert tabulated == [84]
    assert gadget.verify_certificate(cert).ok
    assert cert.report.ok  # kept, so the compiles below only assemble
    built = counting(monkeypatch, "glued_csan", modules)
    made = counting(monkeypatch, "make_csan", modules)
    rechecked = []
    validate = csan.Csan.validate
    monkeypatch.setattr(csan.Csan, "validate", lambda c: rechecked.append(c.n) or validate(c))
    for mod in (gadget, glue):
        labels = mod.differing_labels
        monkeypatch.setattr(
            mod, "differing_labels", lambda *a, _f=labels: rechecked.append(a) or _f(*a)
        )
    for k in (2, 6):
        built.clear()
        host, _ = gol.compile_to_gol(nor_ring(k), cert)
        assert built == [host.n] == [66 * k]
    assert made == [] and rechecked == []
    assert tabulated == [84]  # the NOR gadget, once for all three checks


def test_host_tabulation_builds_as_many_tables_for_every_ring(monkeypatch):
    built = []
    original = csan._node_table
    monkeypatch.setattr(csan, "_node_table", lambda *args: built.append(1) or original(*args))
    cert = gol.build_certificate()
    counts = []
    for k in (4, 6, 12):
        host, _ = gol.compile_to_gol(nor_ring(k), cert)
        built.clear()
        net = csan.csan_to_network(host)
        assert net.n == 66 * k
        assert len({id(rule.table) for rule in net.rules}) == len(built)
        counts.append(len(built))
    assert counts == [12, 12, 12]


def test_host_tabulation_memory_does_not_grow_with_the_ring():
    host, _ = gol.compile_to_gol(nor_ring(32))
    tracemalloc.start()
    try:
        net = csan.csan_to_network(host)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.n == 66 * 32
    assert peak < 4 * 2**20


def test_cli_compile_tabulates_the_host_only_for_dot(tmp_path, monkeypatch):
    gol._bundled_certificate.cache_clear()  # as in a fresh process
    tabulated = counting(monkeypatch, "csan_to_network", (csan,))  # all go through Csan.network
    src = tmp_path / "ring.json"
    src.write_text(json.dumps(gnetwork_to_json(nor_ring(2))))
    out = tmp_path / "compiled.json"
    assert run(["compile", str(src), "-o", str(out)]) == 0
    assert tabulated == [84]  # the NOR gadget, and no host
    dot = tmp_path / "host.dot"
    assert run(["compile", str(src), "-o", str(out), "--dot", str(dot)]) == 0
    assert tabulated == [84, 132]
    assert dot.read_text().startswith("digraph")


# ---------------------------------------------------------------------------
# One certificate, verified once per object


def counting_verifications(monkeypatch):
    verified = []
    original = gadget.verify_certificate

    def counted(cert):
        verified.append(id(cert))
        return original(cert)

    for mod in (gadget, gol, cli):
        if hasattr(mod, "verify_certificate"):
            monkeypatch.setattr(mod, "verify_certificate", counted)
    return verified


def test_compiles_with_one_certificate_verify_it_once(monkeypatch):
    verified = counting_verifications(monkeypatch)
    cert = gol.build_certificate()
    for k in (2, 3, 4, 2):
        host, _ = gol.compile_to_gol(nor_ring(k), cert)
        assert host.n == 66 * k
    assert verified == [id(cert)]
    other = gol.build_certificate()
    gol.compile_to_gol(nor_ring(2), other)
    assert verified == [id(cert), id(other)]
    assert cert.report.ok and cert.report.checked == 64
    # The report is not a field: equality and the document ignore it.
    assert cert == gol.build_certificate()
    assert certificate_to_json(cert) == certificate_to_json(gol.build_certificate())


def test_compiles_without_a_certificate_verify_the_bundled_one_once(monkeypatch):
    gol._bundled_certificate.cache_clear()
    verified = counting_verifications(monkeypatch)
    for k in (2, 3):
        host, _ = gol.compile_to_gol(nor_ring(k))
        assert host.n == 66 * k
    assert len(verified) == 1
    assert gol.build_certificate() is not gol.build_certificate()


def test_gol_demo_verifies_the_certificate_once(tmp_path, monkeypatch):
    verified = counting_verifications(monkeypatch)
    assert run(["gol", "demo", "-o", str(tmp_path / "demo.json")]) == 0
    assert len(verified) == 1


# The refusal the compiler gave before the report was kept, for the bundled
# certificate with state (t=2, node 5) of the cell FLIPPED flipped.
FLIPPED = ((0, 0), (0, 0), (1, 1))
FLIPPED_MESSAGE = (
    "certificate rejected: gate NOR_2_2 cell (0, 0)->(0, 0)|(1, 1): not a valid"
    " exempted run (t=1, node 5, want 0, got 1); gate NOR_2_2 cell"
    " (0, 0)->(0, 0)|(1, 1): input copy 0 strays from the standard trace at t=2"
)


def flipped(cert):
    """A new certificate: cert with one run state of the cell FLIPPED flipped."""
    table = dict(cert.pseudo_orbits[NOR_2_2])
    po = table[FLIPPED]
    configs = [list(x) for x in po.configs]
    configs[2][5] ^= 1
    table[FLIPPED] = PseudoOrbit(tuple(map(tuple, configs)), po.exempt)
    return dataclasses.replace(cert, pseudo_orbits={NOR_2_2: table})


def test_a_flipped_run_state_is_refused_after_its_original_compiled():
    cert = gol.build_certificate()
    gol.compile_to_gol(nor_ring(2), cert)
    bad = flipped(cert)
    for _ in range(2):
        with pytest.raises(InvalidGadgetError) as exc:
            gol.compile_to_gol(nor_ring(2), bad)
        assert str(exc.value) == FLIPPED_MESSAGE
    assert cert.report.ok and not bad.report.ok
    assert bad.report == gadget.verify_certificate(bad)
    host, _ = gol.compile_to_gol(nor_ring(2), cert)
    assert host.n == 132


def test_cli_compile_refuses_a_flipped_run_state(tmp_path):
    doc = certificate_to_json(gol.build_certificate())
    for cell in doc["gates"][0]["pseudo_orbits"]:
        if (tuple(cell["inputs"]), tuple(cell["next_inputs"]), tuple(cell["outputs"])) == FLIPPED:
            cell["orbit"]["configs"][2][5] ^= 1
    bad = tmp_path / "flipped.json"
    bad.write_text(json.dumps(doc))
    assert certificate_to_json(flipped(gol.build_certificate())) == json.loads(bad.read_text())
    src = tmp_path / "ring.json"
    src.write_text(json.dumps(gnetwork_to_json(nor_ring(2))))
    out = tmp_path / "compiled.json"
    assert run(["compile", str(src), "--certificate", str(bad), "-o", str(out)]) == 2
    assert json.loads(out.read_text()) == {"error": FLIPPED_MESSAGE}
