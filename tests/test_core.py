"""Core dynamics: stepping, orbit analysis, attractors, serialization."""

import dataclasses
import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import core
from artifact.core import (
    BudgetExceededError,
    InvalidConfigError,
    InvalidNetworkError,
    analyze_orbit,
    attractors,
    config_index,
    index_config,
    interaction_graph,
    iterate,
    make_network,
    network_from_json,
    network_to_json,
    orbit_graph,
    step,
    to_dot,
    trace,
)
from conftest import (
    and_funnel,
    constant_net,
    random_network,
    rotation,
    small_networks,
    xor_ring,
)


def brute_step_xor_ring(x):
    """Independent oracle for the XOR ring: direct neighbour XOR."""
    n = len(x)
    return tuple(x[(i - 1) % n] ^ x[(i + 1) % n] for i in range(n))


def test_step_xor_ring_hand_checked():
    net = xor_ring(5)
    assert step(net, (1, 0, 0, 0, 0)) == (0, 1, 0, 0, 1)
    for x in itertools.product(range(2), repeat=5):
        assert step(net, x) == brute_step_xor_ring(x)


def test_table_order_first_dep_fastest():
    # f(x0, x1) = x0 and not x1; table index is x0 + 2*x1
    net = make_network(2, [((0, 1), (0, 1, 0, 0)), ((1,), (0, 1))])
    assert step(net, (1, 0))[0] == 1
    assert step(net, (0, 0))[0] == 0
    assert step(net, (1, 1))[0] == 0


def test_iterate_and_trace():
    net = rotation(4)
    x = (1, 0, 0, 0)
    assert iterate(net, x, 4) == x
    tr = trace(net, x, 4)
    assert len(tr) == 5
    assert tr[0] == x
    assert tr[1] == (0, 1, 0, 0)
    assert tr[4] == x


def test_empty_deps_constant_node():
    net = constant_net(3, 4, 2)
    assert step(net, (0, 3, 1)) == (2, 2, 2)


def test_analyze_orbit_rotation():
    net = rotation(3)
    res = analyze_orbit(net, (1, 0, 0))
    assert res.transient == 0
    assert res.period == 3
    assert set(res.cycle) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_analyze_orbit_transient():
    net = and_funnel()
    res = analyze_orbit(net, (1, 0))
    assert res.transient == 1
    assert res.period == 1
    assert res.cycle == ((0, 0),)


def test_analyze_orbit_budget():
    net = rotation(5)
    with pytest.raises(BudgetExceededError):
        analyze_orbit(net, (1, 0, 0, 0, 0), budget=3)


def test_walk_orbit_path_and_budget_edge():
    net = and_funnel()
    assert core.walk_orbit(net, (1, 0)) == ([(1, 0), (0, 0)], 1, 1)
    # exactly `budget` configurations may be visited before the repeat
    assert core.walk_orbit(rotation(5), (1, 0, 0, 0, 0), budget=5)[1:] == (0, 5)
    with pytest.raises(BudgetExceededError):
        core.walk_orbit(rotation(5), (1, 0, 0, 0, 0), budget=4)


def test_config_codec_roundtrip():
    for x in itertools.product(range(3), repeat=4):
        assert index_config(config_index(x, 3), 3, 4) == x
    # node 0 varies fastest
    assert config_index((1, 0, 0), 2) == 1
    assert config_index((0, 0, 1), 2) == 4


def test_orbit_graph_matches_direct_stepping():
    net = xor_ring(3)
    og = orbit_graph(net)
    assert len(og.succ) == 8
    for i, s in enumerate(og.succ):
        x = index_config(i, 2, 3)
        assert index_config(s, 2, 3) == brute_step_xor_ring(x)


def test_orbit_graph_cap():
    net = xor_ring(5)
    with pytest.raises(BudgetExceededError):
        orbit_graph(net, max_states=4)


def test_attractors_partition_space():
    net = xor_ring(4)
    atts = attractors(net)
    assert sum(a.basin_size for a in atts) == 16
    # the XOR ring fixes the all-zero configuration
    assert any(a.cycle == ((0, 0, 0, 0),) for a in atts)


def test_attractors_against_orbit_walks():
    net = xor_ring(3)
    atts = attractors(net)
    cycle_sets = [set(a.cycle) for a in atts]
    for x in itertools.product(range(2), repeat=3):
        res = analyze_orbit(net, x)
        assert any(set(res.cycle) == cs for cs in cycle_sets)


def test_attractors_basin_sizes_oracle():
    # independent oracle: count, per attractor, configs whose orbit lands in it
    net = and_funnel()
    atts = attractors(net)
    counted = {}
    for x in itertools.product(range(2), repeat=2):
        cyc = frozenset(analyze_orbit(net, x).cycle)
        counted[cyc] = counted.get(cyc, 0) + 1
    assert {frozenset(a.cycle): a.basin_size for a in atts} == counted


def test_interaction_graph_effective_only():
    # node 0 declares dep on node 1 but its table ignores it
    net = make_network(2, [((0, 1), (0, 1, 0, 1)), ((0,), (0, 1))])
    edges = interaction_graph(net)
    assert (0, 0) in edges
    assert (0, 1) in edges
    assert (1, 0) not in edges


def test_interaction_graph_xor_ring():
    net = xor_ring(5)
    edges = interaction_graph(net)
    expected = set()
    for i in range(5):
        expected.add(((i - 1) % 5, i))
        expected.add(((i + 1) % 5, i))
    assert edges == expected


def test_validation_errors():
    with pytest.raises(InvalidNetworkError):
        make_network(2, [((0, 0), (0, 0, 0, 0))])  # duplicate dep
    with pytest.raises(InvalidNetworkError):
        make_network(2, [((1,), (0, 1))])  # dep out of range
    with pytest.raises(InvalidNetworkError):
        make_network(2, [((0,), (0, 1, 0))])  # wrong table size
    with pytest.raises(InvalidNetworkError):
        make_network(2, [((0,), (0, 2))])  # state out of range
    with pytest.raises(InvalidConfigError):
        step_config_check()


def step_config_check():
    net = rotation(2)
    core.check_config(net, (0, 2))


def test_json_roundtrip():
    net = xor_ring(4)
    doc = network_to_json(net)
    back = network_from_json(doc)
    assert back == net
    with pytest.raises(InvalidNetworkError):
        network_from_json({"format": "bogus"})


@pytest.mark.parametrize(
    "alphabet, deps, table",
    [
        (2.0, [0], [1, 0]),
        (2, [0.0], [1, 0]),
        (2, [True], [1, 0]),
        (2, [0], [1.0, 0]),
        (2, [0], [1, False]),
    ],
)
def test_json_rejects_non_integers(alphabet, deps, table):
    node = {"deps": deps, "table": table}
    doc = {"format": "network", "version": 1, "alphabet": alphabet, "nodes": [node]}
    with pytest.raises(InvalidNetworkError, match="integer"):
        network_from_json(doc)


def test_config_check_rejects_non_integers():
    net = rotation(2)
    assert core.check_config(net, [1, 0]) == (1, 0)
    for bad in ((1.0, 0), (True, 0), ("1", 0)):
        with pytest.raises(InvalidConfigError):
            core.check_config(net, bad)


def test_dot_export():
    net = rotation(3)
    dot = to_dot(net)
    assert "digraph" in dot
    assert "2 -> 0;" in dot


@st.composite
def small_net_and_config(draw):
    net = draw(small_networks())
    x = tuple(draw(st.integers(0, net.alphabet - 1)) for _ in range(net.n))
    return net, x


@settings(max_examples=60, deadline=None)
@given(small_net_and_config())
def test_analyze_orbit_properties(net_x):
    net, x = net_x
    res = analyze_orbit(net, x)
    at_tau = iterate(net, x, res.transient)
    assert iterate(net, at_tau, res.period) == at_tau
    # period is minimal
    for d in range(1, res.period):
        assert iterate(net, at_tau, d) != at_tau
    # transient is minimal
    if res.transient > 0:
        before = iterate(net, x, res.transient - 1)
        assert iterate(net, before, res.period) != before
    assert res.cycle[0] == at_tau


@st.composite
def batch_case(draw):
    """A network, empty dependency lists included, and b configurations."""
    net = draw(small_networks(min_q=1, max_n=5, max_deg=3))
    b = draw(st.integers(1, 20))
    state = st.integers(0, net.alphabet - 1)
    return net, [tuple(draw(state) for _ in range(net.n)) for _ in range(b)]


def batch_step(net, configs):
    """step_batch on configs, unpacked back to one configuration per lane."""
    b, width = len(configs), net.lane_bytes
    xs = [core.pack_lanes((x[v] for x in configs), width) for v in range(net.n)]
    ys = [core.unpack_lanes(y, b, width) for y in core.step_batch(net, xs, b)]
    return [tuple(y[i] for y in ys) for i in range(b)]


@settings(max_examples=80, deadline=None)
@given(batch_case())
def test_step_batch_matches_step_per_lane(case):
    net, configs = case
    assert batch_step(net, configs) == [step(net, x) for x in configs]


# (alphabet, dependencies per node) either side of the byte gather's
# limit and of byte lanes: tables of 256 and 512 entries on q = 2, of 243
# and 729 on q = 3, of 256 and 257 on q = 256 and 257, and one-entry
# tables on q = 256 and 257. A table past 256 entries in byte lanes reads
# an index summed in groups of 8 deps on q = 2, 5 on q = 3, 3 on q = 5
# and 1 on q = 17; the rest take each side of those group boundaries.
GATHER_BOUNDARY = (
    (2, 8), (2, 9), (3, 5), (3, 6), (256, 1), (257, 1), (256, 0), (257, 0),
    (2, 16), (2, 17), (3, 11), (5, 3), (5, 4), (5, 7), (17, 1), (17, 2), (17, 3),
)  # fmt: skip


def boundary_network(q, k, n, seed, constant=False):
    """n nodes, each reading k of them through a seeded table of q^k entries,
    and with `constant` one more node of degree 0.

    Each node's table is one seeded table rotated by a seeded shift, so
    that tables of 2^17 entries on 19 nodes cost one draw of 2^17 states.
    """
    rng = random.Random(seed)
    base = rng.choices(range(q), k=q**k)
    shifts = [rng.randrange(q**k) for _ in range(n)]
    rules = [(rng.sample(range(n), k), base[r:] + base[:r]) for r in shifts]
    return make_network(q, rules + [((), [rng.randrange(q)])] * constant)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(GATHER_BOUNDARY),
    st.integers(0, 2),
    st.booleans(),
    st.sampled_from((1, 2, 37)),
    st.integers(0, 2**32),
)
def test_step_batch_matches_step_at_the_gather_boundary(qk, extra, constant, b, seed):
    q, k = qk
    net = boundary_network(q, k, k + extra, seed, constant)
    byte_read = q**k <= core.BYTE_TABLE and q <= core.BYTE_TABLE
    want = [byte_read] * (k + extra) + [q <= core.BYTE_TABLE] * constant
    assert [tr is not None for tr in net.byte_tables] == want
    assert net.lane_bytes == (1 if q <= core.BYTE_TABLE else 4)
    rng = random.Random(seed)
    configs = [tuple(rng.randrange(q) for _ in range(net.n)) for _ in range(b)]
    assert batch_step(net, configs) == [step(net, x) for x in configs]


@pytest.mark.parametrize("b", [1, 2, 37])
def test_large_alphabet_skips_the_byte_gather(b):
    # one-entry tables on q = 300, one of them past a byte
    net = make_network(300, [((), (299,)), ((), (7,)), ((0, 1), tuple(range(300)) * 300)])
    assert net.byte_tables == (None, None, None) and net.lane_bytes == 4
    rng = random.Random(b)
    configs = [tuple(rng.randrange(300) for _ in range(3)) for _ in range(b)]
    assert batch_step(net, configs) == [step(net, x) for x in configs]


@pytest.mark.parametrize("q, k, n", [(2, 8, 15), (2, 9, 15), (3, 5, 9), (3, 6, 9)])
def test_orbit_graph_crosses_chunks_at_the_gather_boundary(q, k, n):
    net = boundary_network(q, k, n, seed=q * k)
    assert q**n > core.ORBIT_CHUNK
    assert net.lane_bytes == (1 if q <= core.BYTE_TABLE else 4)
    assert list(orbit_graph(net).succ) == reference_succ(net)


def test_orbit_graph_crosses_chunks_with_wide_and_byte_tables_on_three_states():
    # 3^6 = 729 entries on even nodes (index groups of 5 and 1 deps), 3^2 on odd ones
    rng = random.Random(36)
    rules = [(rng.sample(range(10), k), rng.choices(range(3), k=3**k)) for k in (6, 2) * 5]
    net = make_network(3, rules)
    assert 3**10 > core.ORBIT_CHUNK and net.lane_bytes == 1
    assert [tr is None for tr in net.byte_tables] == [True, False] * 5
    assert list(orbit_graph(net).succ) == reference_succ(net)


def test_byte_tables_are_no_field():
    net = xor_ring(4)
    twin = xor_ring(4)
    assert net.byte_tables[0] == bytes((0, 1, 1, 0)).ljust(256, b"\0")
    assert net.byte_tables is net.byte_tables
    assert net.lane_bytes == 1
    assert net == twin and hash(net) == hash(twin)
    assert "lane_bytes" not in {f.name for f in dataclasses.fields(net)}
    assert network_to_json(net) == network_to_json(twin)


def test_byte_tables_are_built_once_per_shared_table(monkeypatch):
    shared = (0, 1, 1, 0)
    twin = tuple(list(shared))  # equal, but its own object
    rules = [core.Rule(((i - 1) % 5, (i + 1) % 5), shared) for i in range(4)]
    net = core.Network(2, tuple(rules) + (core.Rule((0, 1), twin),))
    built = []
    original = core.byte_table
    monkeypatch.setattr(core, "byte_table", lambda t, q: built.append(t) or original(t, q))
    trs = net.byte_tables
    assert len(built) == 2 and built[0] is shared and built[1] is twin
    assert all(tr is trs[0] for tr in trs[:4]) and trs[4] == trs[0] and trs[4] is not trs[0]
    configs = [(1, 0, 1, 1, 0), (0, 1, 1, 0, 1)]
    assert batch_step(net, configs) == [step(net, x) for x in configs]


def reference_succ(net):
    q, n = net.alphabet, net.n
    return [config_index(step(net, index_config(i, q, n)), q) for i in range(q**n)]


@settings(max_examples=60, deadline=None)
@given(small_networks(min_q=1))
def test_orbit_graph_matches_step(net):
    assert list(orbit_graph(net).succ) == reference_succ(net)


def test_orbit_graph_crosses_chunks():
    net = random_network(random.Random(3), 10, 3)  # 3^10 states, 3^8 per chunk
    assert 3**10 > core.ORBIT_CHUNK and net.lane_bytes == 1
    assert list(orbit_graph(net).succ) == reference_succ(net)


# (alphabet, nodes, past one chunk): in byte lanes a partial successor
# code takes 8 nodes on q = 2, 5 on q = 3 and 3 on q = 5, so every n
# below ends on a short group.
@pytest.mark.parametrize(
    "q, n, crosses", [(2, 11, False), (3, 7, False), (5, 4, False), (2, 15, True), (5, 7, True)]
)
def test_orbit_graph_in_byte_lanes(q, n, crosses):
    net = random_network(random.Random(q * n), n, q)
    assert net.lane_bytes == 1
    assert (q**n > core.ORBIT_CHUNK) == crosses
    assert list(orbit_graph(net).succ) == reference_succ(net)


def reference_attractors(net):
    """The two-array cycle search that `attractors` replaced, on `reference_succ`."""
    succ = reference_succ(net)
    n_conf = len(succ)
    comp = [-1] * n_conf
    state = bytearray(n_conf)  # 0 new, 1 on current path, 2 done
    cycles = []
    for s in range(n_conf):
        if state[s]:
            continue
        path = []
        u = s
        while state[u] == 0:
            state[u] = 1
            path.append(u)
            u = succ[u]
        if state[u] == 1:
            at = path.index(u)
            cyc = path[at:]
            cid = len(cycles)
            cycles.append(cyc)
            for w in cyc:
                comp[w] = cid
        cid = comp[u]
        for w in path:
            if comp[w] == -1:
                comp[w] = cid
            state[w] = 2
    basin = [0] * len(cycles)
    for c in comp:
        basin[c] += 1
    q, n = net.alphabet, net.n
    return [
        core.Attractor(tuple(index_config(i, q, n) for i in cyc), basin[cid])
        for cid, cyc in enumerate(cycles)
    ]


@settings(max_examples=80, deadline=None)
@given(small_networks(min_q=1))
def test_attractors_match_reference(net):
    # equal lists: the same cycles in the same order, each from the same configuration
    assert attractors(net) == reference_attractors(net)


def test_attractors_of_the_empty_network():
    net = make_network(2, [])
    assert attractors(net) == reference_attractors(net) == [core.Attractor(((),), 1)]


def test_attractors_past_a_chunk_match_reference():
    net = random_network(random.Random(3), 10, 3)  # 3^10 states, 3^8 per chunk
    assert attractors(net) == reference_attractors(net)


def test_orbit_graph_refuses_states_past_a_lane():
    with pytest.raises(BudgetExceededError, match="32-bit lane"):
        orbit_graph(xor_ring(32), max_states=2**40)


# ---------------------------------------------------------------------------
# The generated stepper and the walker that uses it


@st.composite
def compiled_case(draw):
    """A network over q in {1, 2, 3}, empty, small or past one chunk of
    compile_step, with empty dependency lists and one-entry tables, and
    a few configurations."""
    q = draw(st.integers(1, 3))
    chunk = core.STEP_CHUNK
    n = draw(st.one_of(st.integers(0, 6), st.integers(chunk - 1, chunk + 2)))
    rules = []
    for _ in range(n):
        deps = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=min(3, n)))
        size = q ** len(deps)
        table = draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))
        rules.append((deps, table))
    net = make_network(q, rules)
    config = st.tuples(*[st.integers(0, q - 1)] * n)
    return net, draw(st.lists(config, min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(compiled_case())
def test_compile_step_matches_step(case):
    net, configs = case
    stepper = core.compile_step(net)
    for x in configs:
        assert stepper(x) == step(net, x)


def test_compile_step_joins_chunks():
    net = random_network(random.Random(5), 2 * core.STEP_CHUNK + 1, 2)
    x = tuple(random.Random(6).randrange(2) for _ in range(net.n))
    assert core.compile_step(net)(x) == step(net, x)


def reference_walk_orbit(net, x, budget=core.DEFAULT_MAX_STATES):
    """The dict-and-list walker over `step` that `walk_orbit` replaced."""
    seen = {}
    path = []
    cur = tuple(x)
    while cur not in seen:
        if len(path) >= budget:
            raise BudgetExceededError(
                f"orbit of length > {budget} (budget exceeded, no cycle found)"
            )
        seen[cur] = len(path)
        path.append(cur)
        cur = step(net, cur)
    tau = seen[cur]
    return path, tau, len(path) - tau


def walk_outcome(walker, net, x, budget):
    try:
        return walker(net, x, budget)
    except BudgetExceededError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(small_networks(min_q=1, max_n=6, max_deg=3), st.data())
def test_walk_orbit_matches_reference(net, data):
    x = data.draw(st.tuples(*[st.integers(0, net.alphabet - 1)] * net.n))
    want = reference_walk_orbit(net, x)
    assert core.walk_orbit(net, x) == want
    length = len(want[0])
    extra = data.draw(st.integers(0, length + 1))
    for budget in {0, 1, length - 1, length, length + 1, extra}:
        got = walk_outcome(core.walk_orbit, net, x, budget)
        assert got == walk_outcome(reference_walk_orbit, net, x, budget)
        assert isinstance(got, str) == (budget < length)


def test_dropped_stepper_leaves_no_cycle():
    net = random_network(random.Random(7), 2 * core.STEP_CHUNK + 1, 3)
    gc.collect()
    gc.disable()
    try:
        stepper = core.compile_step(net)
        stepper((0,) * net.n)
        del stepper
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_compile_step_on_a_wide_host_stays_small():
    from artifact import csan, gol
    from test_compile import nor_ring

    host, _ = gol.compile_to_gol(nor_ring(12))
    net = csan.csan_to_network(host)
    assert net.n == 792
    tracemalloc.start()
    try:
        stepper = core.compile_step(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    x = tuple(random.Random(8).randrange(2) for _ in range(net.n))
    assert stepper(x) == step(net, x)


def test_step_batch_runs_a_nor_host_in_byte_lanes(monkeypatch):
    """A tabulated NOR host steps by its plain count codes and never builds a
    wide index; with its codes forced through the weighted sum, or stripped of
    them, the same host agrees, the latter through `wide_index`."""
    from artifact import csan, gol
    from test_compile import nor_ring

    host, _ = gol.compile_to_gol(nor_ring(3))
    net = csan.csan_to_network(host)
    assert net.lane_bytes == 1
    assert max(len(rule.table) for rule in net.rules) > core.BYTE_TABLE
    assert all(rule.code is not None and rule.code.plain for rule in net.rules)
    rng = random.Random(3)
    configs = [tuple(rng.randrange(2) for _ in range(net.n)) for _ in range(1024)]
    want = [step(net, x) for x in configs]
    wide_index = core.wide_index
    with monkeypatch.context() as m:
        m.setattr(core, "wide_index", lambda *a: pytest.fail("wide_index on a coded rule"))
        assert batch_step(net, configs) == want
        weighted = []
        for r in net.rules:
            code = dataclasses.replace(r.code)
            object.__setattr__(code, "plain", False)
            weighted.append(core.Rule(r.deps, r.table, code))
        assert batch_step(core.Network(2, tuple(weighted)), configs) == want
    bare = core.Network(2, tuple(core.Rule(r.deps, r.table) for r in net.rules))
    wide = []
    monkeypatch.setattr(core, "wide_index", lambda *a: wide.append(1) or wide_index(*a))
    assert batch_step(bare, configs) == want
    assert len(wide) == sum(len(r.table) > core.BYTE_TABLE for r in net.rules)
