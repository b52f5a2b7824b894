"""Core dynamics: stepping, orbit analysis, attractors, serialization."""

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


@settings(max_examples=80, deadline=None)
@given(batch_case())
def test_step_batch_matches_step_per_lane(case):
    net, configs = case
    b = len(configs)
    xs = [core.pack_lanes(x[v] for x in configs) for v in range(net.n)]
    ys = [core.unpack_lanes(y, b) for y in core.step_batch(net, xs, b)]
    for i, x in enumerate(configs):
        assert tuple(y[i] for y in ys) == step(net, x)


def reference_succ(net):
    q, n = net.alphabet, net.n
    return [config_index(step(net, index_config(i, q, n)), q) for i in range(q**n)]


@settings(max_examples=60, deadline=None)
@given(small_networks(min_q=1))
def test_orbit_graph_matches_step(net):
    assert list(orbit_graph(net).succ) == reference_succ(net)


def test_orbit_graph_crosses_chunks():
    net = random_network(random.Random(3), 10, 3)  # 3^10 states, 3^8 per chunk
    assert 3**10 > core.ORBIT_CHUNK
    assert list(orbit_graph(net).succ) == reference_succ(net)


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
