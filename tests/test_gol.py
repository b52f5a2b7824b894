"""Life-on-graphs kit: wire and clock dynamics, NOR gadget, compiler."""

import hashlib
import json

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
from artifact.simulate import embed, verify_simulation

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
    assert nor.net.n == 84
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
    assert chained.net.n == 84 + 84 - 9
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
