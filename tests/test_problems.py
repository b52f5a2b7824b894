"""Decision oracles, instance rewritings, and the showcase counter networks."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import gol
from artifact.core import (
    BudgetExceededError,
    InvalidConfigError,
    analyze_orbit,
    iterate,
    make_network,
    step,
    trace,
)
from artifact.csan import build_rule90_ring, csan_to_network
from artifact.gnet import NOR_2_2, GNetworkBuilder, gnetwork_to_network, prime_rotations
from artifact.problems import (
    UNARY_TIME_LIMIT,
    CnfParseError,
    InvalidInstanceError,
    b_pred,
    eval_cnf,
    gated_product_network,
    h_counter_network,
    instance_from_json,
    instance_to_json,
    make_pred_chg_instance,
    make_pred_instance,
    make_reach_instance,
    odometer,
    parse_dimacs,
    pred_chg,
    pred_to_reach,
    product_network,
    reach,
    reach_easy_answer,
    reach_easy_network,
    reach_to_pred,
    reduce_pred_via_simulation,
    sat_pred_network,
    u_pred,
)
from artifact.simulate import BlockEmbedding, embed

from conftest import and_funnel, constant_net, random_network, rotation, xor_ring


def hold_net(n, q):
    return make_network(q, [((v,), tuple(range(q))) for v in range(n)])


def identity_embedding(net):
    pats = tuple(tuple((s,) for s in range(net.alphabet)) for _ in range(net.n))
    return BlockEmbedding(time=1, blocks=tuple((v,) for v in range(net.n)), patterns=pats)


def beacon_mark(state):
    return state >> 2


# ---------------------------------------------------------------------------
# Instances


def test_instance_validation():
    net = rotation(3)
    with pytest.raises(InvalidInstanceError):
        make_pred_instance(net, 3, (0, 0, 0), 0, 1)
    with pytest.raises(InvalidInstanceError):
        make_pred_instance(net, 0, (0, 0, 0), 2, 1)
    with pytest.raises(InvalidInstanceError):
        make_pred_instance(net, 0, (0, 0, 0), 0, -1)
    with pytest.raises(InvalidInstanceError):
        make_pred_instance(net, 0, (0, 0, 0), 0, 1, "decimal")
    with pytest.raises(InvalidConfigError):
        make_pred_instance(net, 0, (0, 0), 0, 1)
    with pytest.raises(InvalidInstanceError):
        make_pred_chg_instance(net, 0, (0, 0, 0), 0)
    with pytest.raises(InvalidConfigError):
        make_reach_instance(net, (0, 0, 0), (0, 2, 0))


def test_unary_magnitude_cap():
    net = rotation(2)
    with pytest.raises(InvalidInstanceError):
        make_pred_instance(net, 0, (0, 1), 1, UNARY_TIME_LIMIT + 1, "unary")
    # the same time is fine written in binary
    inst = make_pred_instance(net, 0, (0, 1), 1, UNARY_TIME_LIMIT + 1, "binary")
    assert inst.t == UNARY_TIME_LIMIT + 1


def test_instance_json_round_trip():
    net = rotation(3)
    insts = [
        make_pred_instance(net, 1, (1, 0, 0), 1, 4, "unary"),
        make_pred_instance(net, 1, (1, 0, 0), 1, 10**12, "binary"),
        make_pred_chg_instance(net, 2, (1, 0, 0), 3),
        make_reach_instance(net, (1, 0, 0), (0, 0, 1)),
    ]
    kinds = ["u-pred", "b-pred", "pred-chg", "reach"]
    solvers = [u_pred, b_pred, pred_chg, reach]
    for inst, kind, solve in zip(insts, kinds, solvers):
        doc = instance_to_json(inst)
        assert doc["format"] == "instance" and doc["problem"] == kind
        back = instance_from_json(doc)
        assert type(back) is type(inst)
        assert instance_to_json(back) == doc
        assert solve(back) == solve(inst)


def test_instance_json_errors():
    net = rotation(2)
    doc = instance_to_json(make_reach_instance(net, (0, 1), (1, 0)))
    with pytest.raises(InvalidInstanceError):
        instance_from_json([doc])
    with pytest.raises(InvalidInstanceError):
        instance_from_json({**doc, "format": "network"})
    with pytest.raises(InvalidInstanceError):
        instance_from_json({**doc, "problem": "halting"})
    missing = dict(doc)
    del missing["y"]
    with pytest.raises(InvalidInstanceError):
        instance_from_json(missing)
    with pytest.raises(TypeError):
        instance_to_json(net)


# ---------------------------------------------------------------------------
# Oracles


def test_pred_on_hold_network_reads_the_start():
    net = hold_net(3, 3)
    x = (2, 0, 1)
    for v in range(3):
        for q in range(3):
            for t in (0, 1, 7, 10**15):
                inst = make_pred_instance(net, v, x, q, t, "binary")
                assert b_pred(inst) == (x[v] == q)
                if t <= 100:
                    assert u_pred(inst) == (x[v] == q)


def test_pred_rule90_ring_dies_in_two_steps():
    net = csan_to_network(build_rule90_ring(4))
    # 1000 -> 0101 -> 0000: node 0 is dead at time 2
    assert u_pred(make_pred_instance(net, 0, (1, 0, 0, 0), 0, 2))
    assert iterate(net, (1, 0, 0, 0), 2) == (0, 0, 0, 0)


def prime_rotation_state(t):
    # rings of sizes 2 and 3 on nodes 0-1 and 2-4; the mark advances one
    # node per step around each ring
    out = [0] * 5
    out[t % 2] = 1
    out[2 + t % 3] = 1
    return tuple(out)


def test_pred_binary_time_on_prime_rotations():
    gn, marked = prime_rotations(4)
    net = gnetwork_to_network(gn)
    assert marked == (1, 0, 1, 0, 0)
    for t in range(32):
        assert iterate(net, marked, t) == prime_rotation_state(t)
    t = 6 * 10**9
    for v in range(net.n):
        q = prime_rotation_state(t)[v]
        assert b_pred(make_pred_instance(net, v, marked, q, t, "binary"))
        assert not b_pred(make_pred_instance(net, v, marked, 1 - q, t, "binary"))


def test_unary_and_binary_oracles_agree():
    rng = random.Random(2)
    nets = [
        xor_ring(4),
        rotation(5),
        and_funnel(),
        constant_net(2, 3, 1),
        random_network(rng, 4, 2),
        random_network(rng, 3, 3),
    ]
    for i, net in enumerate(nets):
        r = random.Random(100 + i)
        starts = [tuple(r.randrange(net.alphabet) for _ in range(net.n)) for _ in range(2)]
        for x in starts:
            got = trace(net, x, 100)
            for v in (0, net.n - 1):
                for q in range(min(net.alphabet, 2)):
                    for t in range(0, 101, 7):
                        want = got[t][v] == q
                        assert u_pred(make_pred_instance(net, v, x, q, t, "unary")) == want
                        assert b_pred(make_pred_instance(net, v, x, q, t, "binary")) == want


def test_pred_chg_constant_net_never_changes():
    net = constant_net(3, 2, 0)
    for k in range(1, 5):
        assert not pred_chg(make_pred_chg_instance(net, 0, (0, 0, 0), k))


def test_pred_chg_on_the_clock():
    clock = csan_to_network(gol.build_clock())
    x = gol.clock_initial()
    rows = trace(clock, x, 6)
    blinkers = [v for v in range(clock.n) if len({row[v] for row in rows}) > 1]
    assert blinkers  # the wave keeps moving
    v = blinkers[0]
    # period 6 from an on-cycle start: every sub-period stride sees the
    # wave move, the full-period stride never does
    for k in range(1, 6):
        assert pred_chg(make_pred_chg_instance(clock, v, x, k))
    assert not pred_chg(make_pred_chg_instance(clock, v, x, 6))


def test_pred_chg_full_period_false_iff_k_periodic():
    net = rotation(4)
    x = (1, 0, 0, 0)
    for k in (1, 2, 3, 4):
        rows = [iterate(net, x, k * t) for t in range(1, 9)]
        want = any(row[0] != x[0] for row in rows)
        assert pred_chg(make_pred_chg_instance(net, 0, x, k)) == want
    assert not pred_chg(make_pred_chg_instance(net, 0, x, 4))


def test_reach_examples():
    net = rotation(3)
    assert reach(make_reach_instance(net, (1, 1, 0), (1, 1, 0)))  # time zero
    gn, marked = prime_rotations(4)
    pnet = gnetwork_to_network(gn)
    assert reach(make_reach_instance(pnet, marked, prime_rotation_state(1)))
    doubled = list(marked)
    doubled[1] = 1  # two marks on the 2-ring can never arise
    assert not reach(make_reach_instance(pnet, marked, tuple(doubled)))


def test_budget_exceeded_surfaces():
    net = rotation(8)
    x = (1, 0, 0, 0, 1, 1, 0, 1)
    with pytest.raises(BudgetExceededError):
        b_pred(make_pred_instance(net, 0, x, 1, 10**9, "binary"), max_states=3)
    with pytest.raises(BudgetExceededError):
        reach(make_reach_instance(net, x, tuple(reversed(x))), max_states=3)


# ---------------------------------------------------------------------------
# Carrying prediction across a block simulation


def test_reduction_identity_embedding_passes_through():
    net = make_network(2, [((0, 1), (0, 1, 1, 0)), ((0, 1), (1, 0, 0, 1))])
    emb = identity_embedding(net)
    for x in product(range(2), repeat=2):
        for v in range(2):
            for q in range(2):
                for t in range(4):
                    inst = make_pred_instance(net, v, x, q, t, "unary")
                    calls, decode = reduce_pred_via_simulation(net, emb, inst)
                    assert len(calls) == 1
                    (call,) = calls
                    assert call.v == v and call.x == x and call.t == t
                    assert decode([u_pred(call)]) == u_pred(inst)


@pytest.fixture(scope="module")
def compiled_pair():
    b = GNetworkBuilder(2)
    g0, outs0 = b.new_gate(NOR_2_2)
    g1, outs1 = b.new_gate(NOR_2_2)
    b.connect(g0, outs1)
    b.connect(g1, outs0)
    gn = b.build()
    src = gnetwork_to_network(gn)
    chost, emb = gol.compile_to_gol(gn)
    return src, csan_to_network(chost), emb


def test_reduction_across_gol_compilation(compiled_pair):
    src, host, emb = compiled_pair
    rng = random.Random(3)
    for x in product(range(2), repeat=4):
        v = rng.randrange(4)
        q = rng.randrange(2)
        for t in (0, 2, 5):
            inst = make_pred_instance(src, v, x, q, t, "unary")
            calls, decode = reduce_pred_via_simulation(host, emb, inst)
            assert len(calls) < src.alphabet
            hx = embed(emb, host.n, x)
            for call in calls:
                assert call.net is host and call.x == hx and call.t == t * emb.time
            assert decode([u_pred(call) for call in calls]) == u_pred(inst)


def test_reduction_widens_change_gap(compiled_pair):
    src, host, emb = compiled_pair
    inst = make_pred_chg_instance(src, 1, (1, 0, 0, 1), 2)
    calls, decode = reduce_pred_via_simulation(host, emb, inst)
    assert {call.k for call in calls} == {12}  # k=2 stretched by T=6
    assert {call.v for call in calls} == set(emb.blocks[1])
    assert decode([pred_chg(call) for call in calls]) == pred_chg(inst)


def test_reduction_change_false_case():
    net = constant_net(2, 2, 0)
    inst = make_pred_chg_instance(net, 0, (0, 0), 1)
    calls, decode = reduce_pred_via_simulation(net, identity_embedding(net), inst)
    assert decode([pred_chg(call) for call in calls]) is False


# ---------------------------------------------------------------------------
# Prediction <-> reachability rewritings


def test_pred_to_reach_agrees_exhaustively():
    rng = random.Random(9)
    for net in (random_network(rng, 3, 2, max_deg=3), random_network(rng, 2, 3, max_deg=2)):
        for x in product(range(net.alphabet), repeat=net.n):
            for v in range(net.n):
                for q in range(net.alphabet):
                    for t in (0, 1, 3):
                        inst = make_pred_instance(net, v, x, q, t, "binary")
                        assert reach(pred_to_reach(inst)) == b_pred(inst)


def test_pred_to_reach_time_zero_absorbs_at_once():
    net = rotation(2)
    inst = make_pred_instance(net, 0, (1, 0), 1, 0, "binary")
    r = pred_to_reach(inst)
    assert step(r.net, r.x) == r.y
    no = pred_to_reach(make_pred_instance(net, 0, (1, 0), 0, 0, "binary"))
    assert not reach(no)


def test_pred_to_reach_table_budget():
    net = rotation(2)
    inst = make_pred_instance(net, 0, (1, 0), 1, 6 * 10**9, "binary")
    with pytest.raises(BudgetExceededError):
        pred_to_reach(inst)


def test_reach_to_pred_agrees_exhaustively():
    rng = random.Random(21)
    nets = [
        random_network(rng, 2, 2, max_deg=2),
        random_network(rng, 3, 2, max_deg=3),
        make_network(3, [((0,), (1, 2, 0))]),
    ]
    for net in nets:
        for x in product(range(net.alphabet), repeat=net.n):
            for y in product(range(net.alphabet), repeat=net.n):
                inst = make_reach_instance(net, x, y)
                p = reach_to_pred(inst)
                assert p.t == net.alphabet**net.n
                assert p.time_format == "binary"
                assert p.v == net.n and p.q == 1
                assert b_pred(p) == reach(inst)


def test_reach_to_pred_four_state_toy():
    net = make_network(4, [((0,), (1, 2, 0, 3))])
    for x in range(4):
        for y in range(4):
            inst = make_reach_instance(net, (x,), (y,))
            assert b_pred(reach_to_pred(inst)) == reach(inst)


def test_reach_to_pred_guards():
    one = make_network(1, [((0,), (0,))])
    with pytest.raises(InvalidInstanceError):
        reach_to_pred(make_reach_instance(one, (0,), (0,)))
    net = rotation(7)  # tables of 8^8 rows
    with pytest.raises(BudgetExceededError):
        reach_to_pred(make_reach_instance(net, (0,) * 7, (1,) * 7))


# ---------------------------------------------------------------------------
# Formula counters


def brute_sat(clauses, n):
    # independent of eval_cnf on purpose
    for a in range(1 << n):
        val = {i + 1: bool(a >> i & 1) for i in range(n)}
        if all(any(val[l] if l > 0 else not val[-l] for l in c) for c in clauses):
            return True
    return False


HAND_FORMULAS = [
    (1, ((1,),)),
    (1, ((1,), (-1,))),
    (2, ((1, -1),)),
    (3, ((1, -2), (2, 3), (-1, -3))),
    (4, ((1,), (-1, 2), (-2, 3), (-3, 4), (-4,))),
]


def random_formulas(seed, count, max_vars=10):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_vars)
        clauses = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 6))
        )
        out.append((n, clauses))
    return out


def test_sat_counter_flag_changes_iff_satisfiable():
    for n, clauses in HAND_FORMULAS + random_formulas(11, 8):
        net = sat_pred_network(clauses, n)
        assert net.n == n + 1
        inst = make_pred_chg_instance(net, 0, (0,) * (n + 1), 1)
        assert pred_chg(inst) == brute_sat(clauses, n)


def test_sat_counter_single_variable_trace():
    net = sat_pred_network(((1,),), 1)
    rows = trace(net, (0, 0), 4)
    assert rows == [(0, 0), (0, 1), (1, 0), (0, 1), (1, 0)]


def test_sat_counter_contradiction_stays_down():
    net = sat_pred_network(((1,), (-1,)), 1)
    for row in trace(net, (0, 0), 8):
        assert row[0] == 0


def test_sat_counter_tautology_raises_at_once():
    net = sat_pred_network(((1, -1),), 2)
    rows = trace(net, (0, 0, 0), 6)
    assert all(row[0] == 1 for row in rows[1:])


def test_reach_easy_answer_matches_orbit_walk():
    for n, clauses in [(2, ((1, -2),)), (2, ((1,), (-1,))), (3, ((1, 2, 3),))]:
        net = reach_easy_network(clauses, n)
        for x in product(range(2), repeat=n + 1):
            for y in product(range(2), repeat=n + 1):
                want = reach(make_reach_instance(net, x, y))
                assert reach_easy_answer(clauses, x, y, n) == want


def test_reach_easy_counter_loops_iff_unsatisfiable():
    for n, clauses in HAND_FORMULAS:
        net = reach_easy_network(clauses, n)
        start = (0,) * (n + 1)
        loops = iterate(net, start, 1 << n) == start
        assert loops == (not brute_sat(clauses, n))


def test_dimacs_round():
    text = """c tiny example
p cnf 3 2
1 -2 0
2 3 0
"""
    assert parse_dimacs(text) == (3, ((1, -2), (2, 3)))


@pytest.mark.parametrize(
    "text",
    [
        "p cnf x 2\n1 0\n",
        "1 -2 0\n",
        "p cnf 2 1\n1 two 0\n",
        "p cnf 2 1\n1 -2\n",
        "p cnf 2 2\n1 0\n",
        "p cnf 2 1\n3 0\n",
        "c empty\n",
    ],
)
def test_dimacs_errors(text):
    with pytest.raises(CnfParseError):
        parse_dimacs(text)


def test_clause_guards():
    with pytest.raises(CnfParseError):
        sat_pred_network(((0,),), 1)
    with pytest.raises(CnfParseError):
        sat_pred_network(((2,),), 1)


def test_eval_cnf_packs_lsb_first():
    clauses = ((1, -2),)
    assert eval_cnf(clauses, 0b01)
    assert not eval_cnf(clauses, 0b10)


# ---------------------------------------------------------------------------
# Run-length beacon and products


def test_beacon_guards():
    with pytest.raises(InvalidInstanceError):
        h_counter_network(0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_beacon_orbit_shape(n):
    net = h_counter_network(n)
    res = analyze_orbit(net, (0,) * n)
    assert (res.transient, res.period) == (1, 4**n)


def test_beacon_width_one_run():
    # during the width-1 sweep the mark shows one zero then one one
    net = h_counter_network(1)
    rows = trace(net, (0,) * 1, 6)
    shown = [
        beacon_mark(rows[t + 1][0])
        for t in range(6)
        if rows[t][0] & 1  # width counter reads 1
    ]
    assert shown[:2] == [0, 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_beacon_mark_sampling_from_zeros(n):
    net = h_counter_network(n)
    size = 1 << n
    rows = trace(net, (0,) * n, 4**n + size)
    for k in range(1, size + 1):
        samples = {beacon_mark(rows[k * j][0]) for j in range(1, 4**n // k + 1)}
        assert samples == {0, 1}, k


@pytest.mark.parametrize("n", [2, 3])
def test_beacon_mark_silent_only_at_full_stride(n):
    # starting one step into the sweep, stride 2^n resamples the same
    # silent spot forever; every smaller stride still sees both marks
    net = h_counter_network(n)
    start = (2,) + (0,) * (n - 1)
    size = 1 << n
    rows = trace(net, start, 4**n + size)
    for k in range(1, size):
        samples = {beacon_mark(rows[k * j][0]) for j in range(1, 4**n // k + 1)}
        assert samples == {0, 1}, k
    silent = {beacon_mark(rows[size * j][0]) for j in range(1, 4**n // size + 1)}
    assert silent == {0}
    for k in range(1, size + 1):
        inst = make_pred_chg_instance(net, 0, start, k)
        assert pred_chg(inst)  # full node state still cycles at every stride


def test_product_keeps_sides_independent():
    held = hold_net(2, 2)
    beacon = h_counter_network(2)
    prod = product_network(held, beacon)
    assert prod.alphabet == 16
    x = tuple(f * 8 + h for f, h in zip((1, 0), (0, 0)))
    for t in range(10):
        row = iterate(prod, x, t)
        assert tuple(s // 8 for s in row) == (1, 0)
        assert tuple(s % 8 for s in row) == iterate(beacon, (0, 0), t)


def test_product_rejects_size_mismatch():
    with pytest.raises(InvalidInstanceError):
        product_network(hold_net(2, 2), h_counter_network(3))


def test_product_with_beacon_defeats_every_stride():
    net = product_network(rotation(2), h_counter_network(2))
    for hstart in ((0, 0), (2, 0)):
        x = tuple(f * 8 + h for f, h in zip((1, 0), hstart))
        for k in range(1, 5):
            assert pred_chg(make_pred_chg_instance(net, 0, x, k))


def test_gated_product_slows_by_beacon_period():
    neg = make_network(2, [((0,), (1, 0))])
    gated, anchor = gated_product_network(neg)
    assert anchor == (4,)
    start = (1 * 8 + anchor[0],)
    res = analyze_orbit(gated, start)
    assert (res.transient, res.period) == (0, 2 * 4)
    swap = rotation(2)
    gated2, anchor2 = gated_product_network(swap)
    start2 = tuple(b * 8 + a for b, a in zip((1, 0), anchor2))
    res2 = analyze_orbit(gated2, start2)
    assert (res2.transient, res2.period) == (0, 2 * 4**2)
    mid = iterate(gated2, start2, 4**2)
    assert tuple(s // 8 for s in mid) == (0, 1)  # exactly one slow step
    assert tuple(s % 8 for s in mid) == anchor2


def test_gated_product_reach_correspondence():
    rng = random.Random(6)
    net = random_network(rng, 2, 2, max_deg=2)
    gated, anchor = gated_product_network(net)
    for x in product(range(2), repeat=2):
        for y in product(range(2), repeat=2):
            want = reach(make_reach_instance(net, x, y))
            gx = tuple(b * 8 + a for b, a in zip(x, anchor))
            gy = tuple(b * 8 + a for b, a in zip(y, anchor))
            assert reach(make_reach_instance(gated, gx, gy)) == want


# ---------------------------------------------------------------------------
# Three-speed odometer


def test_odometer_guards():
    with pytest.raises(InvalidInstanceError):
        odometer(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_odometer_counting_cycle(n):
    net = odometer(n)
    res = analyze_orbit(net, (0,) * n)
    assert res.transient == n - 1
    assert res.period == 3 * 2 ** (n - 1)
    # the slow digit's stream has no smaller period
    stream = [c[0] for c in res.cycle]
    length = len(stream)
    divisors = [d for d in range(1, length) if length % d == 0]
    assert not any(stream == stream[d:] + stream[:d] for d in divisors)


def test_odometer_n2_cycle_length_six():
    assert analyze_orbit(odometer(2), (0, 0)).period == 6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_odometer_idle_states_are_fixed(n):
    net = odometer(n)
    for x in product((8, 9), repeat=n):
        assert step(net, x) == x


def test_odometer_seeds_drain_to_zero():
    for n in range(1, 5):
        net = odometer(n)
        for x in product((3, 4), repeat=n):
            assert iterate(net, x, n) == (0,) * n
            assert analyze_orbit(net, x).period == 3 * 2 ** (n - 1)


def test_odometer_spare_chain_outlasts_the_cycle():
    expected_tau = {1: 3, 2: 9, 3: 18, 4: 33}
    for n in range(1, 5):
        res = analyze_orbit(odometer(n), (5,) * n)
        period = 3 * 2 ** (n - 1)
        assert res.transient == expected_tau[n]
        assert res.transient >= period
        assert res.period == period


# ---------------------------------------------------------------------------
# Properties


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_property_oracles_and_json_agree(data):
    q = data.draw(st.integers(2, 3), label="alphabet")
    n = data.draw(st.integers(1, 3), label="nodes")
    rng = random.Random(data.draw(st.integers(0, 10**6), label="net_seed"))
    net = random_network(rng, n, q)
    x = tuple(data.draw(st.integers(0, q - 1), label=f"x{v}") for v in range(n))
    v = data.draw(st.integers(0, n - 1), label="v")
    target = data.draw(st.integers(0, q - 1), label="q")
    t = data.draw(st.integers(0, 30), label="t")
    unary = make_pred_instance(net, v, x, target, t, "unary")
    binary = make_pred_instance(net, v, x, target, t, "binary")
    assert u_pred(unary) == b_pred(binary)
    assert u_pred(instance_from_json(instance_to_json(unary))) == u_pred(unary)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_property_rewritings_agree(data):
    q = data.draw(st.integers(2, 3), label="alphabet")
    n = data.draw(st.integers(1, 2), label="nodes")
    rng = random.Random(data.draw(st.integers(0, 10**6), label="net_seed"))
    net = random_network(rng, n, q)
    x = tuple(data.draw(st.integers(0, q - 1), label=f"x{v}") for v in range(n))
    y = tuple(data.draw(st.integers(0, q - 1), label=f"y{v}") for v in range(n))
    rinst = make_reach_instance(net, x, y)
    assert b_pred(reach_to_pred(rinst)) == reach(rinst)
    t = data.draw(st.integers(0, 4), label="t")
    target = data.draw(st.integers(0, q - 1), label="q")
    pinst = make_pred_instance(net, 0, x, target, t, "binary")
    assert reach(pred_to_reach(pinst)) == b_pred(pinst)
