"""Gate network construction, catalogs and showcase builders."""

import pytest

from artifact.core import analyze_orbit, index_config, iterate, step, trace
from artifact.gnet import (
    AND_2_1,
    FRZ_AND,
    FRZ_FORK,
    FRZ_HOLD,
    FRZ_HOT_AND,
    GATE_SETS,
    GNetwork,
    GNetworkBuilder,
    ID_1_1,
    InvalidGNetworkError,
    NOR_2_2,
    gnetwork_from_json,
    gnetwork_to_json,
    gnetwork_to_network,
    gt_transient_network,
    prime_rotations,
)


def gnetwork_step(gn: GNetwork, x) -> tuple[int, ...]:
    """One step of a gate network read gate by gate: the reference for
    `gnetwork_to_network`."""
    out = [0] * gn.n
    for j, g in enumerate(gn.gates):
        res = g.apply([x[u] for u in gn.inputs[j]])
        for k, v in enumerate(gn.outputs[j]):
            out[v] = res[k]
    return tuple(out)


def nor_latch():
    b = GNetworkBuilder(2)
    g0, outs0 = b.new_gate(NOR_2_2)
    g1, outs1 = b.new_gate(NOR_2_2)
    b.connect(g0, list(outs1))
    b.connect(g1, list(outs0))
    return b.build()


def test_gate_tables():
    assert FRZ_AND.apply((1, 1)) == (1,)
    assert FRZ_AND.apply((0, 1)) == (0,)
    assert FRZ_AND.apply((2, 0)) == (2,)
    assert FRZ_HOT_AND.apply((1, 1)) == (2,)
    assert FRZ_HOT_AND.apply((1, 0)) == (0,)
    assert FRZ_HOT_AND.apply((0, 2)) == (2,)
    assert FRZ_HOLD.apply((1, 0)) == (1,)
    assert FRZ_HOLD.apply((0, 2)) == (2,)
    assert FRZ_FORK.apply((2,)) == (2, 2)
    assert NOR_2_2.apply((0, 0)) == (1, 1)
    assert NOR_2_2.apply((1, 0)) == (0, 0)
    # first argument varies fastest in the row order
    assert AND_2_1.table == ((0,), (0,), (0,), (1,))
    assert FRZ_HOLD.table[1 + 3 * 0] == (1,)
    assert FRZ_HOLD.table[0 + 3 * 2] == (2,)


def test_gate_sets_catalog():
    sets = GATE_SETS
    assert {k: len(v) for k, v in sets.items()} == {
        "Gmon": 8, "Gmon2": 2, "Gnor": 1, "Gnand": 1,
        "Gconj": 2, "Gwire": 1, "Gt": 5,
    }
    assert all(g.alphabet == 2 for g in sets["Gmon"])
    assert all(g.alphabet == 3 for g in sets["Gt"])


def test_builder_rejects_unwired_ports():
    b = GNetworkBuilder(2)
    b.new_gate(NOR_2_2)
    with pytest.raises(InvalidGNetworkError):
        b.build()


def test_duplicate_consumption_rejected():
    # AND(x, x) with one node on both ports is not allowed
    b = GNetworkBuilder(2)
    g0, (s,) = b.new_gate(ID_1_1)
    g1, (m,) = b.new_gate(AND_2_1)
    b.connect(g1, [s, s])
    b.connect(g0, [m])
    with pytest.raises(InvalidGNetworkError):
        b.build()


def test_self_consumption_rejected():
    b = GNetworkBuilder(2)
    g0, (n0,) = b.new_gate(ID_1_1)
    b.connect(g0, [n0])
    with pytest.raises(InvalidGNetworkError):
        b.build()


def test_latch_dynamics_match_network():
    gn = nor_latch()
    net = gnetwork_to_network(gn)
    for idx in range(2**4):
        x = index_config(idx, 2, 4)
        assert gnetwork_step(gn, x) == step(net, x)
    # one side low, other high: a fixed point of the cross-coupled pair
    settled = iterate(net, (0, 0, 1, 1), 4)
    assert step(net, settled) == settled


def test_prime_rotation_periods():
    gn, marked = prime_rotations(10)
    net = gnetwork_to_network(gn)
    res = analyze_orbit(net, marked)
    assert res.transient == 0
    assert res.period == 2 * 3 * 5 * 7
    gn3, marked3 = prime_rotations(3)
    assert analyze_orbit(gnetwork_to_network(gn3), marked3).period == 2


def test_gt_transient_network_small():
    gn, marked = gt_transient_network(4)
    net = gnetwork_to_network(gn)
    res = analyze_orbit(net, marked)
    assert res.transient >= 6
    assert res.period == 6
    gn3, marked3 = gt_transient_network(3)
    res3 = analyze_orbit(gnetwork_to_network(gn3), marked3)
    assert res3.transient >= 2
    assert res3.period == 2


def test_gt_transient_latch_holds_its_2_once_the_tree_trips():
    # From the step the hot AND fires, the hold/relay pair keeps the 2
    # circulating: the hold node shows it at least once in every two
    # consecutive steps. Before that step no node is frozen, and the
    # all-zero configuration never trips.
    gn, marked = gt_transient_network(4)
    net = gnetwork_to_network(gn)
    zero = (0,) * net.n
    assert iterate(net, zero, 12) == zero
    ((hot,),) = [out for g, out in zip(gn.gates, gn.outputs) if g.name == "FRZ_HOT_AND"]
    ((hold,),) = [out for g, out in zip(gn.gates, gn.outputs) if g.name == "FRZ_HOLD"]
    period = 6
    tr = trace(net, marked, 6 * period)
    trip = next(t for t, x in enumerate(tr) if x[hot] == 2)
    assert trip >= period - 1
    assert all(2 not in x for x in tr[:trip])
    for t in range(trip + 1, len(tr) - 1):
        assert tr[t][hold] == 2 or tr[t + 1][hold] == 2


def test_gnetwork_json_roundtrip():
    gn, _ = gt_transient_network(4)
    assert gnetwork_from_json(gnetwork_to_json(gn)) == gn
    gn2 = nor_latch()
    assert gnetwork_from_json(gnetwork_to_json(gn2)) == gn2
    with pytest.raises(InvalidGNetworkError):
        gnetwork_from_json({"format": "network"})
