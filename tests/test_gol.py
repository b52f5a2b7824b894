"""Life-on-graphs kit: wire and clock dynamics, NOR gadget, compiler."""

import hashlib
import json
import random
from itertools import product
from math import gcd

import pytest

from artifact import gol
from artifact.core import InvalidConfigError, analyze_orbit, step, trace
from artifact.csan import csan_in_family, csan_step, csan_to_json, csan_to_network, family_spec
from artifact.gadget import (
    InvalidGadgetError,
    certificate_to_json,
    exempt_nodes,
    gadget_glue,
    verify_certificate,
)
from artifact.glue import (
    check_pseudo_orbit,
    csan_glue,
    dowel_junction,
    glue_pseudo_orbits,
    glued_numbering,
    make_dowel,
    make_pseudo_orbit,
)
from artifact.gnet import ID_1_1, NOR_2_2, GNetworkBuilder, InvalidGNetworkError, gnetwork_to_network
from artifact.problems import b_pred, make_pred_instance, reduce_pred_via_simulation
from artifact.simulate import embed, verify_simulation

from test_compile import nor_ring

LIFELIKE = family_spec("lifelike")


@pytest.fixture(scope="module")
def wire():
    return gol.build_wire()


@pytest.fixture(scope="module")
def clock():
    return gol.build_clock()


@pytest.fixture(scope="module")
def nor():
    return gol.build_nor_gadget()


@pytest.fixture(scope="module")
def certificate():
    return gol.build_certificate()


def cross_pair():
    """Two NOR gates feeding each other: the smallest legal closed form."""
    b = GNetworkBuilder(2)
    g0, outs0 = b.new_gate(NOR_2_2)
    g1, outs1 = b.new_gate(NOR_2_2)
    b.connect(g0, outs1)
    b.connect(g1, outs0)
    return b.build()


# ---------------------------------------------------------------------------
# Wire and clock


def test_wire_is_a_lifelike_ladder(wire):
    assert wire.n == 24
    assert csan_in_family(wire, LIFELIKE)
    assert csan_step(wire, (0,) * 24) == (0,) * 24


def test_wire_signal_runs(wire):
    net = csan_to_network(wire)
    lit = gol.wire_signal(1)
    assert lit.exempt == {0, 1, 2, 18}
    assert check_pseudo_orbit(net, lit).ok
    assert check_pseudo_orbit(net, gol.wire_signal(0)).ok
    # last recorded step: the pair occupies the far end, helpers trailing
    tail = lit.configs[5]
    assert [tail[v] for v in range(12, 18)] == [1] * 6
    assert tail[21] == 1 and tail[22] == 1 and tail[23] == 0


def test_wire_signal_is_checked_not_assumed(wire):
    net = csan_to_network(wire)
    lit = gol.wire_signal(1)
    broken = [list(x) for x in lit.configs]
    broken[3][9] ^= 1
    bad = make_pseudo_orbit(broken, lit.exempt)
    assert not check_pseudo_orbit(net, bad).ok
    with pytest.raises(ValueError):
        gol.wire_signal(2)


@pytest.mark.parametrize("bit", [2, -1])
def test_a_signal_value_past_a_bit_is_a_typed_refusal(bit):
    with pytest.raises(InvalidConfigError, match=f"signal value must be 0 or 1, got {bit}"):
        gol.wire_signal(bit)


def test_clock_ticks_with_period_six(clock):
    net = csan_to_network(clock)
    seed = gol.clock_initial()
    res = analyze_orbit(net, seed)
    assert (res.transient, res.period) == (0, 6)
    assert step(net, (0,) * 24) == (0,) * 24
    # the live pair advances one layer per step, helpers one step behind
    run = trace(net, seed, 6)
    for t in range(7):
        for p in range(6):
            layer_live = (t - p) % 6 in (0, 1)
            helper_live = (t - p) % 6 in (1, 2)
            assert all(run[t][3 * p + i] == int(layer_live) for i in range(3))
            assert run[t][18 + p] == int(helper_live)


# ---------------------------------------------------------------------------
# The NOR gadget and its certificate


def test_nor_gadget_shape(nor):
    assert nor.dynamics.n == 84
    assert nor.csan is not None and csan_in_family(nor.csan, LIFELIKE)
    assert nor.interface.inputs == gol.RELAY_NAMES
    assert nor.interface.outputs == gol.DRIVE_NAMES
    assert len(nor.in_copies) == 2 and len(nor.out_copies) == 2
    driven = set(range(0, 5)) | set(range(17, 22))
    stubs = set(range(44, 48)) | set(range(56, 60))
    assert exempt_nodes(nor) == driven | stubs


def center_schedule(x, y):
    """Frozen seven-row schedule of the gadget center over one period.

    Columns: inlet triple of each input stub, the pacing triple, the
    damper, the collector, and the outlet triple of each output stub.
    """
    z = 1 - max(x, y)
    zero = (0,) * 17
    feed = (x, x, x, y, y, y, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    fire = (x, x, x, y, y, y, 1, 1, 1, 0, z, 0, 0, 0, 0, 0, 0)
    burst = (0, 0, 0, 0, 0, 0, 0, 0, 0, z, z, z, z, z, z, z, z)
    drain = (0, 0, 0, 0, 0, 0, 0, 0, 0, z, 0, z, z, z, z, z, z)
    return (zero, zero, feed, fire, burst, drain, zero)


def test_nor_center_schedule_bit_exact(certificate):
    cols = gol.nor_center_nodes()
    table = certificate.pseudo_orbits[NOR_2_2]
    assert len(table) == 64
    for (q_i, _, _), run in table.items():
        want = center_schedule(*q_i)
        for t in range(7):
            assert tuple(run.configs[t][v] for v in cols) == want[t]


def test_certificate_verifies(certificate):
    report = verify_certificate(certificate)
    assert report.ok, report.message()
    assert report.checked == 64
    assert "64" in report.message()


def test_certificate_boundary_data(certificate):
    s0, s1 = certificate.state_configs
    assert s0 != s1
    down = certificate.standard_traces[(1, 0)]
    assert down[0] == s1 and down[6] == s0
    assert certificate.time == gol.SIGNAL_PERIOD
    ctx = certificate.context_configs[NOR_2_2]
    for run in certificate.pseudo_orbits[NOR_2_2].values():
        assert all(run.configs[0][v] == s for v, s in ctx.items())
        assert all(run.configs[6][v] == s for v, s in ctx.items())


# ---------------------------------------------------------------------------
# Glueing wires and gadgets


def junction_dowel():
    names_d = ("jd0", "jd1", "jd2", "jda")
    names_r = ("jr0", "jr1", "jr2", "jra")
    phi1 = {"jd0": 12, "jd1": 13, "jd2": 14, "jda": 22, "jr0": 15, "jr1": 16, "jr2": 17, "jra": 23}
    phi2 = {"jd0": 0, "jd1": 1, "jd2": 2, "jda": 18, "jr0": 3, "jr1": 4, "jr2": 5, "jra": 19}
    return make_dowel(names_d, names_r, phi1, phi2)


def test_long_wire_glue_carries_signal(wire):
    d = junction_dowel()
    long_wire = csan_glue(wire, wire, d)
    assert long_wire.n == 40
    assert csan_in_family(long_wire, LIFELIKE)
    net = csan_to_network(wire)
    p1 = gol.wire_signal(1, steps=6)
    p2 = gol.wire_signal(1, steps=6, offset=4)
    assert check_pseudo_orbit(net, p1).ok
    assert check_pseudo_orbit(net, p2).ok
    stitched = glue_pseudo_orbits(net, net, d, p1, p2)
    (m1, m2), _ = glued_numbering((24, 24), [dowel_junction(d)])
    assert stitched.exempt == {m1[v] for v in (0, 1, 2, 18)}
    assert check_pseudo_orbit(csan_to_network(long_wire), stitched).ok
    # by step six the pair has crossed the junction into the second wire
    far = [m2[v] for v in (6, 7, 8)]
    assert [stitched.configs[6][v] for v in far] == [1, 1, 1]
    assert [stitched.configs[0][v] for v in far] == [0, 0, 0]


def test_nor_chain_glue_stays_in_family(nor):
    chained = gadget_glue(nor, nor, out_pairs=[(0, 0)])
    assert chained.dynamics.n == 84 + 84 - 9
    assert csan_in_family(chained.csan, LIFELIKE)
    assert len(chained.in_copies) == 3 and len(chained.out_copies) == 3


# ---------------------------------------------------------------------------
# Compiling gate networks into the family


def test_compile_cross_pair_simulates(certificate):
    gn = cross_pair()
    host_csan, emb = gol.compile_to_gol(gn, certificate)
    assert host_csan.n == 2 * 84 - 4 * 9
    assert csan_in_family(host_csan, LIFELIKE)
    host = csan_to_network(host_csan)
    source = gnetwork_to_network(gn)
    assert emb.time == 6
    assert verify_simulation(source, host, emb, mode="exhaustive").ok


def test_compile_flip_flop_orbit(certificate):
    gn = cross_pair()
    host_csan, emb = gol.compile_to_gol(gn, certificate)
    host = csan_to_network(host_csan)
    lows = embed(emb, host.n, (0, 0, 0, 0))
    highs = embed(emb, host.n, (1, 1, 1, 1))
    res = analyze_orbit(host, lows)
    assert (res.transient, res.period) == (0, 12)
    assert trace(host, lows, 6)[-1] == highs
    assert trace(host, highs, 6)[-1] == lows


def test_compile_rejects_other_gates(certificate):
    b = GNetworkBuilder(2)
    g0, outs0 = b.new_gate(ID_1_1)
    g1, outs1 = b.new_gate(ID_1_1)
    b.connect(g0, outs1)
    b.connect(g1, outs0)
    with pytest.raises(InvalidGadgetError, match="not the two-output NOR"):
        gol.compile_to_gol(b.build(), certificate)


def test_single_gate_cannot_close_on_itself():
    b = GNetworkBuilder(2)
    g0, outs0 = b.new_gate(NOR_2_2)
    b.connect(g0, outs0)
    with pytest.raises(InvalidGNetworkError, match="consumes its own output"):
        b.build()


def test_compile_empty_network():
    empty_csan, emb = gol.compile_to_gol(GNetworkBuilder(2).build())
    assert empty_csan.n == 0
    assert emb.time == 6 and emb.blocks == ()


def test_kit_parts_are_lifelike(wire, clock, nor):
    for graph in (wire, clock, nor.csan):
        assert csan_in_family(graph, LIFELIKE)


# ---------------------------------------------------------------------------
# The built kit against the data files it replaced

# sha256 of json.dumps(doc, sort_keys=True) for the documents of the wire,
# the clock, the clock's seed and the certificate as they were read from
# the former data files (csan_to_json of the loaded wire and clock,
# certificate_to_json of the loaded certificate, which equals its file).
SHIPPED = {
    "wire": "4f925219433fd77b90864c97d12855be54ac70843df5596f0dc3deadee780761",
    "clock": "97bdef850ad823d0c670c9c56092f52ca39f285c87e71020affafcb90b84fcaa",
    "clock_initial": "978159ab383a0e70da9e199b6cc107210ce2ee62779e6b2e1a990c535537ce47",
    "certificate": "9cd48d97b844e7b80a24da4777b19aded76efc36196f17fc0f41a412cc83ccca",
}


def digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_built_kit_equals_the_former_data_files(wire, clock, certificate):
    got = {
        "wire": csan_to_json(wire),
        "clock": csan_to_json(clock),
        "clock_initial": list(gol.clock_initial()),
        "certificate": certificate_to_json(certificate),
    }
    assert {name: digest(doc) for name, doc in got.items()} == SHIPPED


def test_nor_gadget_holds_one_table_per_degree(nor):
    degrees = {nor.csan.degree(v) for v in range(nor.n)}
    assert len({id(t) for t in nor.csan.lam}) == len(degrees) == 9


# ---------------------------------------------------------------------------
# Consequences of the simulation, witnessed on the compiled host itself
#
# The host is passed as the Csan that `compile_to_gol` returns, never
# tabulated by the caller. The embedding is injective and a source step
# takes T host steps, so prediction carries over, a host period p folds to
# the source period as p / gcd(p, T), and a host transient lies in
# (T (tau - 1), T tau] for a source transient tau > 0, and is 0 for tau = 0.


def compiled_ring(k):
    gn = nor_ring(k)
    host, emb = gol.compile_to_gol(gn)
    return gnetwork_to_network(gn), host, emb


@pytest.mark.parametrize("k, count", [(2, None), (3, 4)])
def test_prediction_on_the_lifelike_host_agrees_with_the_source(k, count):
    source, host, emb = compiled_ring(k)
    xs = list(product(range(2), repeat=source.n))
    if count is not None:
        xs = random.Random(k).sample(xs, count)
    asked = 0
    for x in xs:
        for v, q, t in product(range(source.n), range(2), range(3)):
            inst = make_pred_instance(source, v, x, q, t, "binary")
            calls, decode = reduce_pred_via_simulation(host, emb, inst)
            assert all(call.net is host for call in calls)
            assert decode([b_pred(call) for call in calls]) == b_pred(inst)
            asked += 1
    assert asked == len(xs) * source.n * 2 * 3  # 384 on the 2-gate ring, 144 on the 3-gate


@pytest.mark.parametrize("k", [2, 3, 4])
def test_host_orbits_fold_to_the_source_orbits(k):
    source, host, emb = compiled_ring(k)
    T = emb.time
    for x in product(range(2), repeat=source.n):
        want = analyze_orbit(source, x)
        got = analyze_orbit(host, embed(emb, host.n, x))
        assert got.period // gcd(got.period, T) == want.period
        if want.transient == 0:
            assert got.transient == 0
        else:
            assert T * (want.transient - 1) < got.transient <= T * want.transient
