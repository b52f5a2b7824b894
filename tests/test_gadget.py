"""Interface copies, gadget glueing, certificates, and the gate compiler."""

import dataclasses
import functools
from copy import deepcopy
from itertools import product
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import docs, gol
from artifact.core import ArtifactError, make_network, network_to_json, step, trace
from artifact.csan import build_lifelike, csan_in_family, csan_to_network, family_spec
from artifact.gadget import (
    CertificateReport,
    CoherentCertificate,
    InvalidGadgetError,
    certificate_from_json,
    certificate_to_json,
    compile_gnetwork_detailed,
    context_nodes,
    csan_closure_failures,
    exempt_nodes,
    gadget_from_json,
    gadget_glue,
    gadget_to_json,
    interface_nodes,
    make_certificate,
    make_gadget,
    make_interface,
    verify_certificate,
)
from artifact.glue import PseudoOrbit, make_pseudo_orbit
from artifact.gnet import (
    FRZ_ID,
    ID_1_1,
    NOR_2_2,
    GNetwork,
    GNetworkBuilder,
    InvalidGNetworkError,
    gnetwork_to_network,
    make_gate,
)
from artifact.simulate import embed, verify_simulation

# The oracle below steps each run with the per-configuration loop.
from test_glue import reference_check_pseudo_orbit as check_pseudo_orbit

IFACE = make_interface(["ci"], ["co"])
STATES = ({"ci": 0, "co": 0}, {"ci": 0, "co": 1})


def toy_traces():
    # one step moves the carried value from one boundary pair to the next
    return {
        (q, qp): ({"ci": 0, "co": q}, {"ci": 0, "co": qp})
        for q in (0, 1)
        for qp in (0, 1)
    }


def identity_gadget(extra_nodes=0):
    rules = [((), (0,)), ((), (0,)), ((), (0,)), ((1,), (0, 1))]
    rules += [((), (0,))] * extra_nodes
    net = make_network(2, rules)
    return make_gadget(IFACE, net, [{"ci": 0, "co": 1}], [{"ci": 2, "co": 3}])


def neg_gadget():
    net = make_network(2, [((), (0,)), ((), (0,)), ((), (0,)), ((1,), (1, 0))])
    return make_gadget(IFACE, net, [{"ci": 0, "co": 1}], [{"ci": 2, "co": 3}])


def nor_gadget():
    rules = [((), (0,)) for _ in range(8)]
    rules[5] = ((1, 3), (1, 0, 0, 0))
    rules[7] = ((1, 3), (1, 0, 0, 0))
    net = make_network(2, rules)
    return make_gadget(
        IFACE,
        net,
        [{"ci": 0, "co": 1}, {"ci": 2, "co": 3}],
        [{"ci": 4, "co": 5}, {"ci": 6, "co": 7}],
    )


def drive_orbit(gd, gate, q_i, q_ip, q_o, context=None):
    """Record the exempted run for one state triple by stepping the net
    and overwriting the externally driven boundary nodes from the traces."""
    traces = toy_traces()
    q_op = gate.apply(q_i)
    x0 = [0] * gd.net.n
    for v, s in (context or {}).items():
        x0[v] = s
    for k, copy in enumerate(gd.in_copies):
        for c, v in copy.items():
            x0[v] = traces[(q_i[k], q_ip[k])][0][c]
    for k, copy in enumerate(gd.out_copies):
        for c, v in copy.items():
            x0[v] = traces[(q_o[k], q_op[k])][0][c]
    configs = [tuple(x0)]
    x = tuple(x0)
    for t in range(1, 2):
        y = list(step(gd.net, x))
        for k, copy in enumerate(gd.in_copies):
            for c in gd.interface.outputs:
                y[copy[c]] = traces[(q_i[k], q_ip[k])][t][c]
        for k, copy in enumerate(gd.out_copies):
            for c in gd.interface.inputs:
                y[copy[c]] = traces[(q_o[k], q_op[k])][t][c]
        x = tuple(y)
        configs.append(x)
    return make_pseudo_orbit(configs, exempt_nodes(gd))


def toy_certificate(gate_map, contexts=None):
    contexts = contexts or {}
    orbits = {}
    for gate, gd in gate_map.items():
        table = {}
        for q_i in product(range(2), repeat=gate.n_in):
            for q_ip in product(range(2), repeat=gate.n_in):
                for q_o in product(range(2), repeat=gate.n_out):
                    table[(q_i, q_ip, q_o)] = drive_orbit(
                        gd, gate, q_i, q_ip, q_o, contexts.get(gate)
                    )
        orbits[gate] = table
    return make_certificate(
        IFACE, gate_map, STATES, contexts, 1, toy_traces(), orbits
    )


def two_gate_loop():
    b = GNetworkBuilder(2)
    j0, (n0,) = b.new_gate(ID_1_1)
    j1, (n1,) = b.new_gate(ID_1_1)
    b.connect(j0, [n1])
    b.connect(j1, [n0])
    return b.build()


# ---------------------------------------------------------------------------
# Interfaces and gadgets


def test_interface_validation():
    assert IFACE.names == ("ci", "co")
    with pytest.raises(InvalidGadgetError):
        make_interface([], [])
    with pytest.raises(InvalidGadgetError):
        make_interface(["a"], ["a"])
    with pytest.raises(InvalidGadgetError):
        make_interface([1], ["a"])


def test_gadget_validation_errors():
    net = make_network(2, [((), (0,))] * 4)
    with pytest.raises(InvalidGadgetError):
        make_gadget(IFACE, net, [{"ci": 0}], [{"ci": 2, "co": 3}])
    with pytest.raises(InvalidGadgetError):
        make_gadget(IFACE, net, [{"ci": 0, "co": 0}], [{"ci": 2, "co": 3}])
    with pytest.raises(InvalidGadgetError):
        make_gadget(IFACE, net, [{"ci": 0, "co": 9}], [{"ci": 2, "co": 3}])
    with pytest.raises(InvalidGadgetError):
        make_gadget(IFACE, net, [{"ci": 0, "co": 1}], [{"ci": 1, "co": 3}])


@pytest.mark.parametrize(
    "make, in_pairs, out_pairs",
    [(gol.build_nor_gadget, (), [(0, 0)]), (identity_gadget, [(0, 0)], [(0, 0)])],
    ids=["nor", "identity"],
)
def test_glue_onto_itself_equals_glue_onto_a_deep_copy(make, in_pairs, out_pairs):
    g = make()
    before = deepcopy(g)
    itself = gadget_glue(g, g, in_pairs, out_pairs)
    assert g == before
    assert itself == gadget_glue(g, deepcopy(g), in_pairs, out_pairs)


def test_boundary_node_helpers():
    g = identity_gadget()
    assert interface_nodes(g) == {0, 1, 2, 3}
    assert context_nodes(g) == ()
    assert exempt_nodes(g) == {1, 2}
    assert context_nodes(identity_gadget(extra_nodes=1)) == (4,)
    nor = nor_gadget()
    assert exempt_nodes(nor) == {1, 3, 4, 6}


def test_disjoint_union_adds():
    u = gadget_glue(identity_gadget(), neg_gadget())
    assert u.net.n == 8
    assert len(u.in_copies) == 2 and len(u.out_copies) == 2
    assert u.in_copies[0] == {"ci": 0, "co": 1}
    assert u.in_copies[1] == {"ci": 4, "co": 5}
    for x in product(range(2), repeat=8):
        left = step(identity_gadget().net, x[:4])
        right = step(neg_gadget().net, x[4:])
        assert step(u.net, x) == left + right


def test_single_junction_pair_glue_shape():
    # one-state toy gadgets: only the wiring shape matters
    def stub(n, ins, outs):
        net = make_network(1, [((), (0,))] * n)
        return make_gadget(IFACE, net, ins, outs)

    f = stub(6, [{"ci": 0, "co": 1}], [{"ci": 2, "co": 3}, {"ci": 4, "co": 5}])
    g = stub(6, [{"ci": 0, "co": 1}, {"ci": 4, "co": 5}], [{"ci": 2, "co": 3}])
    h = gadget_glue(f, g, in_pairs=[(0, 0)], out_pairs=[(1, 1)])
    assert h.net.n == 8
    assert h.in_copies == ({"ci": 6, "co": 7},)
    assert h.out_copies == ({"ci": 4, "co": 5},)


def test_glue_rejects_mismatches():
    g = identity_gadget()
    other = make_gadget(
        make_interface(["x"], ["y"]),
        make_network(2, [((), (0,))] * 2),
        [{"x": 0, "y": 1}],
        [],
    )
    with pytest.raises(InvalidGadgetError):
        gadget_glue(g, other, in_pairs=[(0, 0)])
    ternary = make_gadget(
        IFACE,
        make_network(3, [((), (0,))] * 4),
        [{"ci": 0, "co": 1}],
        [{"ci": 2, "co": 3}],
    )
    with pytest.raises(InvalidGadgetError):
        gadget_glue(g, ternary, in_pairs=[(0, 0)])
    nor = nor_gadget()
    with pytest.raises(InvalidGadgetError):
        gadget_glue(nor, nor_gadget(), in_pairs=[(0, 0), (1, 0)])
    with pytest.raises(InvalidGadgetError):
        gadget_glue(g, identity_gadget(), in_pairs=[(0, 7)])


def test_self_glue_closes():
    g = identity_gadget()
    closed = gadget_glue(g, g, in_pairs=[(0, 0)], out_pairs=[(0, 0)])
    assert closed.net.n == 4
    assert closed.in_copies == () and closed.out_copies == ()


# ---------------------------------------------------------------------------
# Certificates


def test_toy_certificate_passes():
    cert = toy_certificate({ID_1_1: identity_gadget()})
    report = verify_certificate(cert)
    assert report.ok, report.message()
    assert report.checked == 8
    assert "ok" in report.message()


def test_nor_certificate_passes():
    cert = toy_certificate({NOR_2_2: nor_gadget()})
    report = verify_certificate(cert)
    assert report.ok, report.message()
    assert report.checked == 64


def test_certificate_missing_cell_fails():
    cert = toy_certificate({ID_1_1: identity_gadget()})
    del cert.pseudo_orbits[ID_1_1][((0,), (0,), (0,))]
    report = verify_certificate(cert)
    assert not report.ok
    assert any("missing pseudo-orbit" in f for f in report.failures)
    assert "rejected" in report.message()


def test_certificate_catches_strayed_copy_trace():
    cert = toy_certificate({ID_1_1: identity_gadget()})
    po = cert.pseudo_orbits[ID_1_1][((0,), (1,), (0,))]
    bad = list(list(c) for c in po.configs)
    bad[1][1] = 0  # input copy must show the 0 -> 1 trace
    cert.pseudo_orbits[ID_1_1][((0,), (1,), (0,))] = make_pseudo_orbit(bad, po.exempt)
    report = verify_certificate(cert)
    assert not report.ok
    assert any("strays from the standard trace" in f for f in report.failures)


def test_certificate_catches_broken_run():
    cert = toy_certificate({ID_1_1: identity_gadget()})
    po = cert.pseudo_orbits[ID_1_1][((1,), (1,), (0,))]
    bad = list(list(c) for c in po.configs)
    bad[1][3] = 0  # node 3 is not exempt and must copy its input
    cert.pseudo_orbits[ID_1_1][((1,), (1,), (0,))] = make_pseudo_orbit(bad, po.exempt)
    report = verify_certificate(cert)
    assert not report.ok
    assert any("not a valid exempted run" in f for f in report.failures)


def test_certificate_catches_wrong_exempt_set():
    cert = toy_certificate({ID_1_1: identity_gadget()})
    po = cert.pseudo_orbits[ID_1_1][((0,), (0,), (0,))]
    cert.pseudo_orbits[ID_1_1][((0,), (0,), (0,))] = make_pseudo_orbit(
        po.configs, exempt=(1,)
    )
    report = verify_certificate(cert)
    assert not report.ok
    assert any("exempt set differs" in f for f in report.failures)


def test_certificate_checks_context():
    gd = identity_gadget(extra_nodes=1)
    cert = toy_certificate({ID_1_1: gd}, contexts={ID_1_1: {4: 1}})
    report = verify_certificate(cert)
    assert not report.ok
    assert any("context nodes differ" in f for f in report.failures)
    cert_ok = toy_certificate({ID_1_1: gd}, contexts={ID_1_1: {4: 0}})
    assert verify_certificate(cert_ok).ok
    cert_bad_keys = toy_certificate({ID_1_1: gd}, contexts={ID_1_1: {4: 0}})
    cert_bad_keys.context_configs[ID_1_1] = {3: 0, 4: 0}
    report = verify_certificate(cert_bad_keys)
    assert not report.ok
    assert any("context must assign exactly" in f for f in report.failures)


def test_certificate_requires_injective_states():
    cert = toy_certificate({ID_1_1: identity_gadget()})
    flat = ({"ci": 0, "co": 0}, {"ci": 0, "co": 0})
    cert.state_configs = flat
    report = verify_certificate(cert)
    assert not report.ok
    assert any("not injective" in f for f in report.failures)


def test_certificate_structural_failures():
    cert = toy_certificate({ID_1_1: identity_gadget()})
    del cert.standard_traces[(0, 1)]
    report = verify_certificate(cert)
    assert not report.ok
    assert any("standard trace (0,1) missing" in f for f in report.failures)

    cert = toy_certificate({ID_1_1: identity_gadget()})
    cert.standard_traces[(1, 1)] = ({"ci": 0, "co": 1},)
    report = verify_certificate(cert)
    assert any("wrong length" in f for f in report.failures)

    cert = toy_certificate({ID_1_1: identity_gadget()})
    cert.gadgets[NOR_2_2] = identity_gadget()
    cert.context_configs[NOR_2_2] = {}
    report = verify_certificate(cert)
    assert any("copies for a 2->2 gate" in f for f in report.failures)


def test_certificate_trace_endpoints_checked():
    cert = toy_certificate({ID_1_1: identity_gadget()})
    cert.standard_traces[(1, 0)] = ({"ci": 0, "co": 0}, {"ci": 0, "co": 0})
    report = verify_certificate(cert)
    assert not report.ok
    assert any("does not start at pattern 1" in f for f in report.failures)


def alphabet_3_gadget():
    net = make_network(3, [((), (0,))] * 4)
    return make_gadget(IFACE, net, [{"ci": 0, "co": 1}], [{"ci": 2, "co": 3}])


def foreign_interface_gadget():
    iface = make_interface(["a"], ["b"])
    return make_gadget(iface, identity_gadget().net, [{"a": 0, "b": 1}], [{"a": 2, "b": 3}])


# Each case edits one clause of the valid toy certificate: (edit, failure).
CERTIFICATE_REFUSALS = {
    "invalid interface": (
        lambda c: dataclasses.replace(c, interface=dataclasses.replace(IFACE, inputs=("co",))),
        "interface: interface halves must be disjoint and duplicate-free",
    ),
    "no encoded states": (
        lambda c: dataclasses.replace(c, state_configs=()),
        "certificate encodes no states",
    ),
    "time below 1": (
        lambda c: dataclasses.replace(c, time=0),
        "time constant must be >= 1",
    ),
    "gadgets on two alphabets": (
        lambda c: dataclasses.replace(c, gadgets={**c.gadgets, NOR_2_2: alphabet_3_gadget()}),
        "gadgets disagree on the alphabet",
    ),
    "state pattern keys": (
        lambda c: dataclasses.replace(c, state_configs=({"ci": 0}, STATES[1])),
        "state pattern 0 must assign exactly the interface names",
    ),
    "state pattern outside the alphabet": (
        lambda c: dataclasses.replace(c, state_configs=(STATES[0], {"ci": 0, "co": 2})),
        "state pattern 1 uses states outside the alphabet",
    ),
    "trace step keys": (
        lambda c: dataclasses.replace(
            c, standard_traces={**c.standard_traces, (0, 1): ({"ci": 0, "co": 0}, {"co": 1})}
        ),
        "trace (0,1) step 1 must assign exactly the interface names",
    ),
    "invalid gadget": (
        lambda c: dataclasses.replace(
            c, gadgets={ID_1_1: dataclasses.replace(identity_gadget(), in_copies=({"ci": 0},))}
        ),
        "gate ID_1_1: input copy 0 must map exactly the interface names",
    ),
    "gadget interface": (
        lambda c: dataclasses.replace(c, gadgets={ID_1_1: foreign_interface_gadget()}),
        "gate ID_1_1: gadget interface differs from the certificate's",
    ),
    "gate alphabet": (
        lambda c: dataclasses.replace(c, gadgets={FRZ_ID: identity_gadget()}),
        "gate FRZ_ID: gate alphabet 3 differs from the 2 encoded states",
    ),
    "copy count": (
        lambda c: dataclasses.replace(c, gadgets={NOR_2_2: identity_gadget()}),
        "gate NOR_2_2: gadget exposes 1/1 copies for a 2->2 gate",
    ),
    "labeled beside unlabeled": (
        lambda c: dataclasses.replace(
            c, gadgets={**c.gadgets, NOR_2_2: lifelike_gadget([(0, 1), (2, 3)])}
        ),
        "mixed labeled and unlabeled gadgets",
    ),
}


@pytest.mark.parametrize("case", sorted(CERTIFICATE_REFUSALS))
def test_certificate_refusals_name_the_broken_clause(case):
    edit, failure = CERTIFICATE_REFUSALS[case]
    report = verify_certificate(edit(toy_certificate({ID_1_1: identity_gadget()})))
    assert not report.ok
    assert failure in report.failures


# ---------------------------------------------------------------------------
# Compiling gate networks


def test_compile_identity_loop_swaps():
    gn = two_gate_loop()
    cert = toy_certificate({ID_1_1: identity_gadget()})
    compiled = compile_gnetwork_detailed(gn, cert)
    host, emb = compiled.network, compiled.embedding
    assert host.n == 4 and emb.time == 1
    source = gnetwork_to_network(gn)
    report = verify_simulation(source, host, emb, mode="exhaustive")
    assert report.ok, report.message()
    for x in product(range(2), repeat=2):
        lhs = embed(emb, host.n, step(source, x))
        rhs = step(host, embed(emb, host.n, x))
        assert lhs == rhs


def test_compile_three_gate_rotation():
    b = GNetworkBuilder(2)
    j0, (n0,) = b.new_gate(ID_1_1)
    j1, (n1,) = b.new_gate(ID_1_1)
    j2, (n2,) = b.new_gate(ID_1_1)
    b.connect(j0, [n2])
    b.connect(j1, [n0])
    b.connect(j2, [n1])
    gn = b.build()
    cert = toy_certificate({ID_1_1: identity_gadget()})
    compiled = compile_gnetwork_detailed(gn, cert)
    host, emb = compiled.network, compiled.embedding
    assert host.n == 6
    report = verify_simulation(gnetwork_to_network(gn), host, emb, mode="exhaustive")
    assert report.ok, report.message()


def test_compile_with_disjoint_union_step():
    # two independent swap loops; gate 2 touches no earlier gate
    b = GNetworkBuilder(2)
    outs = [b.new_gate(ID_1_1)[1][0] for _ in range(4)]
    b.connect(0, [outs[1]])
    b.connect(1, [outs[0]])
    b.connect(2, [outs[3]])
    b.connect(3, [outs[2]])
    gn = b.build()
    cert = toy_certificate({ID_1_1: identity_gadget()})
    compiled = compile_gnetwork_detailed(gn, cert)
    host, emb = compiled.network, compiled.embedding
    assert host.n == 8
    report = verify_simulation(gnetwork_to_network(gn), host, emb, mode="exhaustive")
    assert report.ok, report.message()


def test_compile_nor_latch_and_stitching():
    b = GNetworkBuilder(2)
    j0, o0 = b.new_gate(NOR_2_2)
    j1, o1 = b.new_gate(NOR_2_2)
    b.connect(j0, o1)
    b.connect(j1, o0)
    gn = b.build()
    cert = toy_certificate({NOR_2_2: nor_gadget()})
    compiled = compile_gnetwork_detailed(gn, cert)
    host, emb = compiled.network, compiled.embedding
    source = gnetwork_to_network(gn)
    report = verify_simulation(source, host, emb, mode="exhaustive")
    assert report.ok, report.message()
    assert len(compiled.dowels) == 4
    assert all(set(d.keys()) == {"ci", "co"} for d in compiled.dowels)
    # every host step restricted to one gadget copy replays its recorded run
    for x in product(range(2), repeat=4):
        run = trace(host, embed(emb, host.n, x), cert.time)
        fx = step(source, x)
        for j, gate in enumerate(gn.gates):
            q_i = tuple(x[v] for v in gn.inputs[j])
            q_ip = tuple(fx[v] for v in gn.inputs[j])
            q_o = tuple(x[v] for v in gn.outputs[j])
            po = cert.pseudo_orbits[gate][(q_i, q_ip, q_o)]
            placed = compiled.node_maps[j]
            for t in range(cert.time + 1):
                for orig, h in placed.items():
                    assert run[t][h] == po.configs[t][orig]


def test_compile_empty_gate_network():
    gn = GNetwork(2, (), (), ())
    cert = toy_certificate({ID_1_1: identity_gadget()})
    compiled = compile_gnetwork_detailed(gn, cert)
    host, emb = compiled.network, compiled.embedding
    assert host.n == 0
    assert emb.blocks == ()


def test_compile_folds_context_nodes():
    gn = two_gate_loop()
    gd = identity_gadget(extra_nodes=1)
    cert = toy_certificate({ID_1_1: gd}, contexts={ID_1_1: {4: 0}})
    compiled = compile_gnetwork_detailed(gn, cert)
    assert compiled.network.n == 6
    assert len(compiled.contexts) == 2
    ctx_nodes = sorted(h for m in compiled.contexts for h in m)
    assert len(ctx_nodes) == 2
    assert set(compiled.embedding.blocks[0]) >= set(ctx_nodes)
    report = verify_simulation(
        gnetwork_to_network(gn), compiled.network, compiled.embedding, mode="exhaustive"
    )
    assert report.ok, report.message()


def test_compile_error_reporting():
    gn = two_gate_loop()
    cert = toy_certificate({NOR_2_2: nor_gadget()})
    with pytest.raises(InvalidGadgetError, match="no gadget recorded"):
        compile_gnetwork_detailed(gn, cert)
    broken = toy_certificate({ID_1_1: identity_gadget()})
    del broken.pseudo_orbits[ID_1_1][((0,), (0,), (0,))]
    with pytest.raises(InvalidGadgetError, match="rejected"):
        compile_gnetwork_detailed(gn, broken)
    looped = GNetwork(2, (ID_1_1,), ((0,),), ((0,),))
    with pytest.raises(InvalidGNetworkError):
        compile_gnetwork_detailed(looped, toy_certificate({ID_1_1: identity_gadget()}))


@pytest.mark.parametrize("q", [1, 3])
def test_compile_refuses_a_gate_network_on_other_states(q):
    ident = make_gate("ID", q, 1, 1, lambda x: (x,))
    gn = GNetwork(q, (ident, ident), ((1,), (0,)), ((0,), (1,)))
    with pytest.raises(
        InvalidGadgetError, match=f"gate network alphabet {q} differs from the 2 certified states"
    ):
        compile_gnetwork_detailed(gn, toy_certificate({ID_1_1: identity_gadget()}))


# ---------------------------------------------------------------------------
# Labeled gadgets


def lifelike_gadget(edges):
    mirror = build_lifelike(4, edges, birth=(1,), survive=(0, 1))
    return make_gadget(IFACE, mirror, [{"ci": 0, "co": 1}], [{"ci": 2, "co": 3}])


def test_labeled_glue_keeps_family():
    a = lifelike_gadget([(0, 1), (2, 3)])
    b = lifelike_gadget([(0, 1), (2, 3)])
    h = gadget_glue(a, b, in_pairs=[(0, 0)])
    assert h.csan is not None
    assert h.net.n == 6
    assert csan_in_family(h.csan, family_spec("lifelike"))
    assert h.in_copies == ({"ci": 4, "co": 5},)
    assert h.out_copies == ({"ci": 2, "co": 3},)
    plain_a = make_gadget(IFACE, a.net, a.in_copies, a.out_copies)
    plain_b = make_gadget(IFACE, b.net, b.in_copies, b.out_copies)
    plain = gadget_glue(plain_a, plain_b, in_pairs=[(0, 0)])
    for x in product(range(2), repeat=6):
        assert step(h.net, x) == step(plain.net, x)


def test_labeled_closure_conditions():
    good = lifelike_gadget([(0, 1), (2, 3)])
    assert csan_closure_failures(IFACE, [("g", good)]) == ()
    plain = make_gadget(IFACE, good.net, good.in_copies, good.out_copies)
    fails = csan_closure_failures(IFACE, [("g", plain)])
    assert any("no labeled structure" in f for f in fails)
    leaky = lifelike_gadget([(0, 1), (2, 3), (1, 2)])
    fails = csan_closure_failures(IFACE, [("g", leaky)])
    assert any("receiving nodes have neighbors outside" in f for f in fails)
    assert any("continuation nodes have neighbors outside" in f for f in fails)
    lopsided = lifelike_gadget([(0, 1)])
    fails = csan_closure_failures(IFACE, [("g", lopsided)])
    assert any("induced labeled subgraph differs" in f for f in fails)


def test_labeled_glue_condition_violation_raises():
    leaky = lifelike_gadget([(0, 1), (2, 3), (1, 2)])
    with pytest.raises(Exception):
        gadget_glue(leaky, lifelike_gadget([(0, 1), (2, 3), (1, 2)]), in_pairs=[(0, 0)])


# ---------------------------------------------------------------------------
# Serialization


def test_gadget_json_roundtrip(tmp_path):
    for g in (identity_gadget(), lifelike_gadget([(0, 1), (2, 3)])):
        doc = gadget_to_json(g)
        back = gadget_from_json(doc)
        assert back.net == g.net
        assert back.in_copies == g.in_copies and back.out_copies == g.out_copies
        assert (back.csan is None) == (g.csan is None)
        path = tmp_path / "gadget.json"
        docs.write(gadget_to_json(g), path, pretty=True)
        assert gadget_from_json(docs.read(path)).net == g.net
    with pytest.raises(InvalidGadgetError):
        gadget_from_json({"format": "nope"})


def test_gadget_documents_carry_the_dynamics_once():
    labeled = lifelike_gadget([(0, 1), (2, 3)])
    doc = gadget_to_json(labeled)
    assert "csan" in doc and "network" not in doc
    plain = gadget_to_json(identity_gadget())
    assert "network" in plain and "csan" not in plain
    # Older documents carry both views; the table must match the labels.
    both = dict(doc, network=network_to_json(csan_to_network(labeled.csan)))
    assert gadget_from_json(both) == labeled
    zero = make_network(2, [((), (0,))] * 4)
    with pytest.raises(InvalidGadgetError, match="labeled twin disagrees with the network"):
        gadget_from_json(dict(doc, network=network_to_json(zero)))


def test_tabulated_view_is_derived_once_and_not_compared():
    g = lifelike_gadget([(0, 1), (2, 3)])
    assert g.n == 4 and g.alphabet == 2 and g.csan is g.dynamics
    assert g.net is g.net and g.net == csan_to_network(g.csan)
    assert g == lifelike_gadget([(0, 1), (2, 3)])
    h = identity_gadget()
    assert h.csan is None and h.net is h.dynamics


def test_certificate_json_roundtrip(tmp_path):
    cert = toy_certificate({ID_1_1: identity_gadget(), NOR_2_2: nor_gadget()})
    doc = certificate_to_json(cert)
    back = certificate_from_json(doc)
    assert back.time == cert.time
    assert back.state_configs == cert.state_configs
    assert set(back.gadgets) == {ID_1_1, NOR_2_2}
    assert back.pseudo_orbits[NOR_2_2] == cert.pseudo_orbits[NOR_2_2]
    assert verify_certificate(back).ok
    path = tmp_path / "cert.json"
    docs.write(certificate_to_json(cert), path, pretty=True)
    assert verify_certificate(certificate_from_json(docs.read(path))).ok
    with pytest.raises(InvalidGadgetError):
        certificate_from_json({"format": "certificate"})


# ---------------------------------------------------------------------------
# The batched certificate check against the cell-by-cell one


def _copy_trace_matches(po, copy, wanted):
    """First time step where the copy strays from the trace, None if none."""
    for t, pattern in enumerate(wanted):
        got = po.configs[t]
        if any(got[copy[c]] != pattern[c] for c in pattern):
            return t
    return None


def reference_verify_certificate(cert: CoherentCertificate) -> CertificateReport:
    """The cell-by-cell check that `verify_certificate` replaced, kept as its oracle."""
    failures: list[str] = []
    checked = 0
    iface = cert.interface
    try:
        iface.validate()
    except InvalidGadgetError as exc:
        return CertificateReport(False, 0, (f"interface: {exc}",))
    names = iface.names
    nq = cert.source_alphabet
    if nq < 1:
        failures.append("certificate encodes no states")
    if cert.time < 1:
        failures.append("time constant must be >= 1")
    if len({g.alphabet for g in cert.gadgets.values()}) > 1:
        failures.append("gadgets disagree on the alphabet")
    host_q = max((g.alphabet for g in cert.gadgets.values()), default=1)

    def pattern_ok(pat: Mapping[str, int], what: str) -> bool:
        if set(pat.keys()) != set(names):
            failures.append(f"{what} must assign exactly the interface names")
            return False
        docs.integers(InvalidGadgetError, what, pat.values())
        if any(not 0 <= s < host_q for s in pat.values()):
            failures.append(f"{what} uses states outside the alphabet")
            return False
        return True

    states_ok = all(
        pattern_ok(s, f"state pattern {q}") for q, s in enumerate(cert.state_configs)
    )
    if states_ok:
        rows = [tuple(s[c] for c in names) for s in cert.state_configs]
        for q in range(nq):
            for qp in range(q + 1, nq):
                if rows[q] == rows[qp]:
                    failures.append(
                        f"state patterns are not injective (q={q} and q={qp} coincide)"
                    )
    traces_ok = True
    for q in range(nq):
        for qp in range(nq):
            tr = cert.standard_traces.get((q, qp))
            if tr is None:
                failures.append(f"standard trace ({q},{qp}) missing")
                traces_ok = False
                continue
            if len(tr) != cert.time + 1:
                failures.append(f"standard trace ({q},{qp}) has the wrong length")
                traces_ok = False
                continue
            if not all(pattern_ok(p, f"trace ({q},{qp}) step {t}") for t, p in enumerate(tr)):
                traces_ok = False
                continue
            if states_ok and dict(tr[0]) != cert.state_configs[q]:
                failures.append(f"standard trace ({q},{qp}) does not start at pattern {q}")
            if states_ok and dict(tr[-1]) != cert.state_configs[qp]:
                failures.append(f"standard trace ({q},{qp}) does not end at pattern {qp}")

    for gate, gd in cert.gadgets.items():
        prefix = f"gate {gate.name}"
        try:
            gd.validate()
        except InvalidGadgetError as exc:
            failures.append(f"{prefix}: {exc}")
            continue
        if gd.interface != iface:
            failures.append(f"{prefix}: gadget interface differs from the certificate's")
            continue
        if gate.alphabet != nq:
            failures.append(
                f"{prefix}: gate alphabet {gate.alphabet} differs from the"
                f" {nq} encoded states"
            )
            continue
        if len(gd.in_copies) != gate.n_in or len(gd.out_copies) != gate.n_out:
            failures.append(
                f"{prefix}: gadget exposes {len(gd.in_copies)}/{len(gd.out_copies)}"
                f" copies for a {gate.n_in}->{gate.n_out} gate"
            )
            continue
        ctx = cert.context_configs.get(gate, {})
        hat = context_nodes(gd)
        if set(ctx.keys()) != set(hat):
            failures.append(f"{prefix}: context must assign exactly the non-interface nodes")
            continue
        docs.integers(InvalidGadgetError, f"{prefix} context", ctx.values())
        if any(not 0 <= s < gd.alphabet for s in ctx.values()):
            failures.append(f"{prefix}: context uses states outside the alphabet")
            continue
        if not (states_ok and traces_ok):
            continue
        protected = exempt_nodes(gd)
        table = cert.pseudo_orbits.get(gate, {})
        for q_i in product(range(nq), repeat=gate.n_in):
            q_op = gate.apply(q_i)
            for q_ip in product(range(nq), repeat=gate.n_in):
                for q_o in product(range(nq), repeat=gate.n_out):
                    checked += 1
                    cell = f"{prefix} cell {q_i}->{q_ip}|{q_o}"
                    po = table.get((q_i, q_ip, q_o))
                    if po is None:
                        failures.append(
                            f"{prefix}: missing pseudo-orbit for inputs"
                            f" {q_i}->{q_ip} outputs {q_o}"
                        )
                        continue
                    if po.exempt != protected:
                        failures.append(
                            f"{cell}: exempt set differs from the protected"
                            " interface nodes"
                        )
                        continue
                    if len(po.configs) != cert.time + 1:
                        failures.append(f"{cell}: run length differs from the time constant")
                        continue
                    docs.integers(InvalidGadgetError, f"{cell} run", *po.configs)
                    try:
                        sub = check_pseudo_orbit(gd.net, po)
                    except ArtifactError as exc:
                        failures.append(f"{cell}: {exc}")
                        continue
                    if not sub.ok:
                        t, v, want, got = sub.failures[0]
                        failures.append(
                            f"{cell}: not a valid exempted run"
                            f" (t={t}, node {v}, want {want}, got {got})"
                        )
                    for k, copy in enumerate(gd.in_copies):
                        tr = cert.standard_traces[(q_i[k], q_ip[k])]
                        t = _copy_trace_matches(po, copy, tr)
                        if t is not None:
                            failures.append(
                                f"{cell}: input copy {k} strays from the standard"
                                f" trace at t={t}"
                            )
                    for k, copy in enumerate(gd.out_copies):
                        tr = cert.standard_traces[(q_o[k], q_op[k])]
                        t = _copy_trace_matches(po, copy, tr)
                        if t is not None:
                            failures.append(
                                f"{cell}: output copy {k} strays from the standard"
                                f" trace at t={t}"
                            )
                    for t in (0, cert.time):
                        if any(po.configs[t][v] != ctx[v] for v in hat):
                            failures.append(
                                f"{cell}: context nodes differ from the recorded"
                                f" context at t={t}"
                            )

    mirrored = [g.csan is not None for g in cert.gadgets.values()]
    if any(mirrored):
        if not all(mirrored):
            failures.append("mixed labeled and unlabeled gadgets")
        else:
            failures.extend(
                csan_closure_failures(
                    iface, [(f"gate {g.name}", gd) for g, gd in cert.gadgets.items()]
                )
            )
    return CertificateReport(not failures, checked, tuple(failures))


CERTIFICATES = {
    "toy": lambda: toy_certificate({ID_1_1: identity_gadget()}),
    "toy-nor": lambda: toy_certificate({NOR_2_2: nor_gadget()}),
    "nor": gol.build_certificate,
}


@functools.cache
def certificate(name):
    return CERTIFICATES[name]()


def mutated_certificate(data, cert):
    """cert with one to three recorded runs or contexts edited."""
    runs = {gate: dict(table) for gate, table in cert.pseudo_orbits.items()}
    contexts = {gate: dict(ctx) for gate, ctx in cert.context_configs.items()}
    for _ in range(data.draw(st.integers(1, 3))):
        gate = data.draw(st.sampled_from(list(runs)))
        q = cert.gadgets[gate].alphabet
        edit = data.draw(
            st.sampled_from(("flip", "alphabet", "exempt", "drop", "shorten", "context"))
        )
        if edit == "context":
            ctx = contexts[gate]
            if ctx:
                ctx[data.draw(st.sampled_from(sorted(ctx)))] = data.draw(st.integers(-1, q))
            continue
        table = runs[gate]
        if not table:
            continue
        key = data.draw(st.sampled_from(list(table)))
        po = table[key]
        if not po.configs:  # shortened to nothing by an earlier edit
            continue
        if edit == "drop":
            del table[key]
        elif edit == "shorten":
            table[key] = PseudoOrbit(po.configs[:-1], po.exempt)
        elif edit == "exempt":
            v = data.draw(st.integers(0, len(po.configs[0]) - 1))
            table[key] = PseudoOrbit(po.configs, po.exempt ^ {v})
        else:
            configs = [list(x) for x in po.configs]
            t = data.draw(st.integers(0, len(configs) - 1))
            v = data.draw(st.integers(0, len(configs[t]) - 1))
            if edit == "flip":
                configs[t][v] = (configs[t][v] + 1) % q
            else:
                configs[t][v] = data.draw(st.sampled_from((-1, q, 255, 256, 2**40)))
            table[key] = PseudoOrbit(tuple(map(tuple, configs)), po.exempt)
    return dataclasses.replace(cert, pseudo_orbits=runs, context_configs=contexts)


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_certificates_match_reference(name):
    cert = certificate(name)
    assert verify_certificate(cert) == reference_verify_certificate(cert)
    assert verify_certificate(cert).ok


def test_verify_certificate_checks_each_run_shape_once(monkeypatch):
    from artifact import gadget, glue

    shaped = []
    original = glue.check_pseudo_orbit_shape
    for mod in (gadget, glue):
        monkeypatch.setattr(
            mod, "check_pseudo_orbit_shape", lambda net, p: shaped.append(p) or original(net, p)
        )
    report = verify_certificate(certificate("nor"))
    assert report.ok and report.checked == 64
    assert len(shaped) == 64 and len({id(p) for p in shaped}) == 64


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_certificates_match_reference(name, data):
    cert = mutated_certificate(data, certificate(name))
    assert verify_certificate(cert) == reference_verify_certificate(cert)
