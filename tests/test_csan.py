"""Labeled-graph networks: families, semantics, interaction graphs, codecs."""

import json
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import csan as csan_module
from artifact import docs, gol
from artifact.circuit import (
    InvalidCircuitError,
    bits_per_node,
    circuit_encode,
    decode_config,
    encode_config,
    eval_circuit,
)
from artifact.core import (
    MAX_TABLE,
    InvalidConfigError,
    Network,
    Rule,
    index_config,
    interaction_graph,
    make_network,
    network_from_json,
    network_to_json,
    step,
)
from artifact.csan import (
    Csan,
    InvalidCsanError,
    build_interval,
    build_lifelike,
    build_minmax,
    build_reaction_diffusion,
    build_rule90_ring,
    build_threshold,
    csan_from_json,
    csan_in_family,
    csan_step,
    csan_to_json,
    csan_to_network,
    family_spec,
    make_csan,
    matrix_to_network,
    multisets_up_to,
    multisets_with_total,
    rho_identity,
)
from artifact.glue import glue_networks, make_dowel

import family_reference as ref_csan
from conftest import xor_ring
from test_core import batch_step

# Shared 4-node instance: hub 0 joined to 1,2,3 and hub 3 joined to 1,2.
HUB_EDGES = [(0, 1), (0, 2), (0, 3), (3, 2), (3, 1)]
HUB_THETA = (3, 2, 2, 3)

K5_EDGES = [(u, v) for u, v in combinations(range(5), 2)]

TRIANGLE = [(0, 1), (1, 2), (0, 2)]


def all_configs(q, n):
    return (index_config(i, q, n) for i in range(q**n))


def interaction_graph_bruteforce(net: Network) -> set[tuple[int, int]]:
    """Effective dependencies by trying every one-node change everywhere.

    Exponential in n; this is the definitional oracle against which the
    structural extraction is validated.
    """
    q = net.alphabet
    n = net.n
    edges: set[tuple[int, int]] = set()
    for idx in range(q**n):
        x = index_config(idx, q, n)
        fx = step(net, x)
        for u in range(n):
            for a in range(q):
                if a == x[u]:
                    continue
                y = list(x)
                y[u] = a
                fy = step(net, tuple(y))
                for v in range(n):
                    if fx[v] != fy[v]:
                        edges.add((u, v))
    return edges


# ---------------------------------------------------------------------------
# Multisets


def test_multiset_helpers():
    assert list(multisets_with_total(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(multisets_up_to(2, 1)) == [(0, 0), (0, 1), (1, 0)]
    got = list(multisets_up_to(3, 4))
    assert len(got) == len(set(got))
    assert all(sum(m) <= 4 for m in got)


def test_multisets_with_total_are_every_count_vector_in_order():
    for q in range(1, 5):
        for total in range(6):
            every = [m for m in product(range(total + 1), repeat=q) if sum(m) == total]
            assert list(multisets_with_total(q, total)) == every


# ---------------------------------------------------------------------------
# Builders and one-step behavior


def test_rule90_ring_step():
    ring = build_rule90_ring(4)
    assert csan_step(ring, [1, 0, 0, 0]) == (0, 1, 0, 1)
    assert csan_step(ring, [0, 0, 0, 0]) == (0, 0, 0, 0)
    with pytest.raises(InvalidCsanError):
        build_rule90_ring(2)


def test_ring7_matches_circulant_matrix():
    ring = build_rule90_ring(7)
    want = {(i, (i + 1) % 7) for i in range(7)}
    assert set(ring.edges) == {(min(u, v), max(u, v)) for u, v in want}
    mat = [[1 if j in ((i + 1) % 7, (i - 1) % 7) else 0 for j in range(7)] for i in range(7)]
    via_matrix = matrix_to_network("GF2", mat)
    via_csan = csan_to_network(ring)
    for x in all_configs(2, 7):
        assert step(via_matrix, x) == step(via_csan, x)


def test_threshold_hub_instance():
    net = build_threshold(4, HUB_EDGES, HUB_THETA)
    assert csan_step(net, [1, 1, 1, 1]) == (1, 1, 1, 1)
    assert csan_step(net, [1, 0, 0, 0]) == (0, 0, 0, 0)
    with pytest.raises(InvalidCsanError):
        build_threshold(4, HUB_EDGES, (1, 1))


def test_threshold_zero_fires_everywhere():
    net = build_threshold(4, HUB_EDGES, (0, 0, 0, 0))
    for x in all_configs(2, 4):
        assert csan_step(net, x) == (1, 1, 1, 1)


def test_majority_triangle():
    net = build_threshold(3, TRIANGLE, (1, 1, 1))
    assert csan_step(net, [1, 1, 0]) == (1, 1, 1)
    assert csan_step(net, [0, 0, 0]) == (0, 0, 0)


def test_minmax_ternary_min_node():
    net = build_minmax(3, [(0, 1), (0, 2)], ("MIN", "MAX", "MAX"), alphabet=3)
    assert csan_step(net, [0, 1, 2])[0] == 1
    assert csan_step(net, [0, 0, 0]) == (0, 0, 0)


def test_minmax_all_max_is_disjunctive():
    path = [(0, 1), (1, 2)]
    net = build_minmax(3, path, ("MAX", "MAX", "MAX"))
    nbrs = {0: [1], 1: [0, 2], 2: [1]}
    for x in all_configs(2, 3):
        want = tuple(max(x[u] for u in nbrs[v]) for v in range(3))
        assert csan_step(net, x) == want


def test_minmax_alternating_instance_accepted():
    net = build_minmax(4, HUB_EDGES, ("MAX", "MIN", "MAX", "MIN"))
    assert csan_in_family(net, family_spec("minmax"))
    with pytest.raises(InvalidCsanError):
        build_minmax(4, HUB_EDGES, ("MAX", "MIN", "MAX", "UP"))


def test_lifelike_birth_and_survival():
    star = [(0, 1), (0, 2), (0, 3), (0, 4)]
    gol = build_lifelike(5, star, birth={3}, survive={2, 3})
    assert csan_step(gol, [0, 1, 1, 1, 0])[0] == 1
    assert csan_step(gol, [1, 1, 1, 0, 0])[0] == 1
    assert csan_step(gol, [1, 1, 0, 0, 0])[0] == 0
    assert csan_step(gol, [1, 1, 1, 1, 1])[0] == 0


def test_interval_full_range_is_constant_one():
    net = build_interval(3, TRIANGLE, 0, 2)
    for x in all_configs(2, 3):
        assert csan_step(net, x) == (1, 1, 1)
    with pytest.raises(InvalidCsanError):
        build_interval(3, TRIANGLE, 2, 1)


def test_interval_on_complete_graph():
    net = build_interval(5, K5_EDGES, 3, 4)
    assert csan_step(net, [1, 1, 1, 1, 0]) == (1, 1, 1, 1, 1)
    assert csan_step(net, [1, 1, 1, 1, 1]) == (1, 1, 1, 1, 1)
    assert csan_step(net, [1, 1, 0, 0, 0]) == (0, 0, 0, 0, 0)


def test_reaction_diffusion_chain():
    net = build_reaction_diffusion(2, [(0, 1)], (1, 1), chain=2)
    assert csan_step(net, [1, 0]) == (2, 1)
    assert csan_step(net, [2, 1]) == (0, 2)
    # Refractory neighbors are invisible through the activity label.
    assert csan_step(net, [0, 2]) == (0, 0)
    assert csan_step(net, [0, 0]) == (0, 0)
    fire = build_reaction_diffusion(2, [(0, 1)], (0, 0), chain=2)
    assert csan_step(fire, [0, 0]) == (1, 1)
    with pytest.raises(InvalidCsanError):
        build_reaction_diffusion(2, [(0, 1)], (1, 1), chain=1)


# ---------------------------------------------------------------------------
# Conversion to plain networks

INSTANCES = [
    build_rule90_ring(4),
    build_rule90_ring(7),
    build_threshold(4, HUB_EDGES, HUB_THETA),
    build_threshold(3, TRIANGLE, (1, 1, 1)),
    build_minmax(4, HUB_EDGES, ("MAX", "MIN", "MAX", "MIN")),
    build_minmax(3, [(0, 1), (0, 2)], ("MIN", "MAX", "MAX"), alphabet=3),
    build_lifelike(3, [(0, 1), (1, 2)], {3}, {2, 3}),
    build_lifelike(5, [(0, 1), (0, 2), (0, 3), (0, 4)], {3}, {2, 3}),
    build_interval(5, K5_EDGES, 3, 4),
    build_reaction_diffusion(3, [(0, 1), (1, 2)], (1, 1, 1), chain=2),
]


@pytest.mark.parametrize("c", INSTANCES, ids=range(len(INSTANCES)))
def test_network_conversion_agrees_exhaustively(c):
    net = csan_to_network(c)
    assert net.alphabet == c.alphabet and net.n == c.n
    for x in all_configs(c.alphabet, c.n):
        one = csan_step(c, x)
        assert one == step(net, x)
        assert csan_step(c, one) == step(net, one)


def test_conversion_row_counts():
    gol = build_lifelike(3, [(0, 1), (1, 2)], {3}, {2, 3})
    net = csan_to_network(gol)
    assert len(net.rules[1].table) == 8
    assert len(net.rules[0].table) == 4


def test_identity_csan_converts_to_identity_network():
    lam_deg1 = {(s, m): s for s in range(2) for m in multisets_up_to(2, 1)}
    c = make_csan(2, 2, [(0, 1, "id")], [lam_deg1, lam_deg1])
    net = csan_to_network(c)
    for x in all_configs(2, 2):
        assert step(net, x) == x


# ---------------------------------------------------------------------------
# Interaction graphs


def test_interaction_rule90():
    ring = build_rule90_ring(4)
    want = set()
    for v in range(4):
        want.add(((v + 1) % 4, v))
        want.add(((v - 1) % 4, v))
    got = interaction_graph(ring)
    assert got == want
    assert all(u != v for u, v in got)
    assert interaction_graph_bruteforce(csan_to_network(ring)) == want


def test_interaction_constant_rule_is_empty():
    lam_deg1 = {(s, m): 0 for s in range(2) for m in multisets_up_to(2, 1)}
    c = make_csan(2, 2, [(0, 1, "id")], [lam_deg1, lam_deg1])
    assert interaction_graph(c) == set()
    assert interaction_graph_bruteforce(csan_to_network(c)) == set()


def test_interaction_ignores_constant_edge_label():
    # Node 3 needs two visible ones; the edge from node 0 maps everything
    # to 0, so node 0 can never influence it.
    lam_leaf = {(s, m): 0 for s in range(2) for m in multisets_up_to(2, 1)}
    lam_and = {
        (s, m): int(m[1] >= 2) for s in range(2) for m in multisets_up_to(2, 3)
    }
    c = make_csan(
        2,
        4,
        [(0, 3, (0, 0)), (1, 3, "id"), (2, 3, "id")],
        [lam_leaf, lam_leaf, lam_leaf, lam_and],
    )
    got = interaction_graph(c)
    assert got == {(1, 3), (2, 3)}
    assert interaction_graph_bruteforce(csan_to_network(c)) == got


def test_interaction_self_dependency():
    gol = build_lifelike(3, [(0, 1), (1, 2)], {3}, {2, 3})
    got = interaction_graph(gol)
    # Birth and survival counts differ, so own state matters somewhere.
    assert (1, 1) in got
    assert got == interaction_graph_bruteforce(csan_to_network(gol))


@st.composite
def random_csans(draw, alphabets=(2, 3), max_n=4):
    """Random CSANs; each edge label is any map on the alphabet, so binary
    ones are labelled id, negation, const-0 or const-1."""
    n = draw(st.integers(2, max_n))
    q = draw(st.sampled_from(alphabets))
    pairs = list(combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, picks) if keep]
    rhos = [
        tuple(draw(st.integers(0, q - 1)) for _ in range(q)) for _ in edges
    ]
    degs = [0] * n
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    lam = []
    for v in range(n):
        lam.append(
            {
                (s, m): draw(st.integers(0, q - 1))
                for s in range(q)
                for m in multisets_up_to(q, degs[v])
            }
        )
    return make_csan(q, n, [(u, v, r) for (u, v), r in zip(edges, rhos)], lam)


@settings(max_examples=40, deadline=None)
@given(random_csans())
def test_interaction_graph_matches_bruteforce(c):
    assert interaction_graph(c) == interaction_graph_bruteforce(csan_to_network(c))


@settings(max_examples=60, deadline=None)
@given(random_csans(alphabets=(2,), max_n=7))
def test_binary_conversion_matches_csan_step(c):
    net = csan_to_network(c)
    net.validate()
    for x in all_configs(2, c.n):
        assert step(net, x) == csan_step(c, x)


@settings(max_examples=40, deadline=None)
@given(random_csans(alphabets=(1, 3), max_n=4))
def test_general_conversion_matches_csan_step(c):
    net = csan_to_network(c)
    net.validate()
    for x in all_configs(c.alphabet, c.n):
        assert step(net, x) == csan_step(c, x)


# ---------------------------------------------------------------------------
# Shared tabulation

# The tabulation before nodes shared tables: one table per node, built
# from the node's own neighbourhood. Kept unchanged as the oracle.
_REFERENCE_SHIFT = {d: bytes((i + d) % 256 for i in range(256)) for d in (-1, 1, 64)}


def _reference_binary_rows(c, neighbors, deps, v):
    delta = {u: rho[1] - rho[0] for u, rho in neighbors}
    rows = bytes([sum(rho[0] for _, rho in neighbors)])
    for u in deps:
        d = 64 if u == v else delta[u]
        rows += rows.translate(_REFERENCE_SHIFT[d]) if d else rows
    deg = len(neighbors)
    lut = bytearray(256)
    for s in range(2):
        for ones in range(deg + 1):
            lut[64 * s + ones] = c.lam[v][(s, (deg - ones, ones))]
    return rows.translate(lut)


def reference_csan_to_network(c):
    inc = c.incidence
    q = c.alphabet
    rules = []
    for v in range(c.n):
        deps = tuple(sorted([v] + [u for u, _ in inc[v]]))
        if q == 2:
            table = _reference_binary_rows(c, inc[v], deps, v)
        else:
            pos = {u: i for i, u in enumerate(deps)}
            table = []
            for idx in range(q ** len(deps)):
                combo = index_config(idx, q, len(deps))
                counts = [0] * q
                for u, rho in inc[v]:
                    counts[rho[combo[pos[u]]]] += 1
                table.append(c.lam[v][(combo[pos[v]], tuple(counts))])
        rules.append(Rule(deps, tuple(table)))
    return Network(q, tuple(rules))


# id, negation, const-0 and const-1
BINARY_LABELS = ((0, 1), (1, 0), (0, 0), (1, 1))


@st.composite
def shared_csans(draw, alphabets):
    """CSANs whose nodes draw their tables from a pool of one to three dicts.

    Labels come from a small pool too, so that many nodes see the same
    neighbourhood. With exact coverage the pool holds one dict per
    (choice, degree) and make_csan builds the CSAN. Otherwise each dict
    covers every multiset up to the largest degree, so one dict serves
    nodes of several degrees; validate asks for exact coverage, so that
    Csan is built directly.
    """
    q = draw(st.sampled_from(alphabets))
    n = draw(st.integers(2, 6 if q == 2 else 5))
    pairs = list(combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, picks) if keep]
    if q == 2:
        labels = BINARY_LABELS
    else:
        label = st.tuples(*[st.integers(0, q - 1)] * q)
        labels = draw(st.lists(label, min_size=1, max_size=2))
    rhos = [draw(st.sampled_from(labels)) for _ in edges]
    degs = [sum(v in e for e in edges) for v in range(n)]
    choice = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))

    def table(bound):
        return {
            (s, m): draw(st.integers(0, q - 1))
            for s in range(q)
            for m in multisets_up_to(q, bound)
        }

    if draw(st.booleans()):
        pool = {}
        for k, d in zip(choice, degs):
            if (k, d) not in pool:
                pool[k, d] = table(d)
        lam = [pool[k, d] for k, d in zip(choice, degs)]
        return make_csan(q, n, [(u, v, r) for (u, v), r in zip(edges, rhos)], lam)
    pool = [table(max(degs)) for _ in range(3)]
    return Csan(q, tuple(edges), tuple(rhos), tuple(pool[k] for k in choice))


def sharing_key(c, v):
    """What node v's table depends on: its lam table's identity, its place
    among its sorted deps and its neighbours' labels in dep order."""
    deps = sorted([v] + [u for u, _ in c.incidence[v]])
    label = dict(c.incidence[v])
    return (id(c.lam[v]), deps.index(v), tuple(label[u] for u in deps if u != v))


def assert_shared_tabulation(c):
    net = csan_to_network(c)
    assert net == reference_csan_to_network(c)
    keys = [sharing_key(c, v) for v in range(c.n)]
    for v, w in combinations(range(c.n), 2):
        assert (net.rules[v].table is net.rules[w].table) == (keys[v] == keys[w]), (v, w)


@settings(max_examples=80, deadline=None)
@given(shared_csans(alphabets=(2,)))
def test_binary_shared_tabulation_matches_reference(c):
    assert_shared_tabulation(c)


@settings(max_examples=60, deadline=None)
@given(shared_csans(alphabets=(1, 3)))
def test_general_shared_tabulation_matches_reference(c):
    assert_shared_tabulation(c)


@pytest.mark.parametrize("c", INSTANCES, ids=range(len(INSTANCES)))
def test_instances_tabulate_as_the_reference(c):
    assert_shared_tabulation(c)


# ---------------------------------------------------------------------------
# Count codes: binary tables stepped by their live count

# The largest degree whose closed neighbourhood's table fits the budget.
TOP_DEGREE = MAX_TABLE.bit_length() - 2


@st.composite
def hub_csans(draw, hub_degree):
    """Binary CSANs whose node 0 has hub_degree neighbours and whose last node
    is isolated. The hub reads four or more neighbours through all four
    labels, and up to five of its neighbours are joined among themselves.

    Every node draws its table from a pool of two dicts that cover every
    multiset up to the largest degree, so nodes of different degrees share
    one; validate asks for exact coverage, so the Csan is built directly.
    """
    n = hub_degree + 2
    spokes = list(draw(st.permutations(BINARY_LABELS)))[:hub_degree]
    spokes += [draw(st.sampled_from(BINARY_LABELS)) for _ in range(hub_degree - len(spokes))]
    pairs = list(combinations(range(1, min(hub_degree, 5) + 1), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    rim = [p for p, keep in zip(pairs, picks) if keep]
    edges = [(0, u) for u in range(1, hub_degree + 1)] + rim
    rhos = spokes + [draw(st.sampled_from(BINARY_LABELS)) for _ in rim]
    bound = max(sum(v in e for e in edges) for v in range(n))
    pool = [
        {(s, m): draw(st.integers(0, 1)) for s in range(2) for m in multisets_up_to(2, bound)}
        for _ in range(2)
    ]
    lam = tuple(pool[draw(st.integers(0, 1))] for _ in range(n))
    return Csan(2, tuple(edges), tuple(rhos), lam)


@pytest.mark.parametrize("hub_degree", [0, 1, 4, 9, TOP_DEGREE])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_count_codes_step_batch_as_step_and_csan_step(hub_degree, data):
    c = data.draw(hub_csans(hub_degree))
    b = data.draw(st.sampled_from((1, 7, 1024)))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    net = csan_to_network(c)
    assert all(r.code is not None for r in net.rules)
    assert all((r.code is s.code) == (r.table is s.table) for r in net.rules for s in net.rules)
    assert net.rules[-1].code.weights == (64,)
    if hub_degree >= 4:  # negated and const-1 spokes count from 1
        assert net.rules[0].code.base > 0 and not net.rules[0].code.plain
    configs = [tuple(rng.randrange(2) for _ in range(c.n)) for _ in range(b)]
    want = [csan_step(c, x) for x in configs]
    assert batch_step(net, configs) == [step(net, x) for x in configs] == want


def test_count_codes_are_invisible():
    c = gol.build_wire()
    net = csan_to_network(c)
    bare = Network(2, tuple(Rule(r.deps, r.table) for r in net.rules))
    coded, plain = net.rules[0], bare.rules[0]
    assert coded.code is not None and plain.code is None
    assert coded == plain and hash(coded) == hash(plain) and repr(coded) == repr(plain)
    assert net == bare and hash(net) == hash(bare) and repr(net) == repr(bare)
    doc = network_to_json(reference_csan_to_network(c))
    assert network_to_json(net) == network_to_json(bare) == doc
    rebuilt = make_network(2, [(r.deps, r.table) for r in net.rules])
    glued = glue_networks(net, net, make_dowel(["a"], [], {"a": 0}, {"a": 0}))
    for copy in (rebuilt, glued, network_from_json(doc)):
        assert all(r.code is None for r in copy.rules)


def _path_tables(*bounds, out=lambda s, m: s):
    return [
        {(s, m): out(s, m) for s in range(2) for m in multisets_up_to(2, b)} for b in bounds
    ]


def test_table_shared_across_degrees_is_rejected_at_its_first_bad_node():
    # On the path 0-1-2-3 nodes 0 and 3 have degree 1, nodes 1 and 2 degree 2.
    path = [(0, 1, "id"), (1, 2, "id"), (2, 3, "id")]
    deg1, deg2 = _path_tables(1, 2)
    cases = [
        ([deg1, deg1, deg1, deg1], "node 1 table must cover exactly the multisets of size <= 2"),
        ([deg2, deg2, deg2, deg2], "node 0 table must cover exactly the multisets of size <= 1"),
        ([deg1, deg2, deg2, deg2], "node 3 table must cover exactly the multisets of size <= 1"),
        ([deg1, deg2, deg1, deg1], "node 2 table must cover exactly the multisets of size <= 2"),
    ]
    for lam, message in cases:
        with pytest.raises(InvalidCsanError) as err:
            make_csan(2, 4, path, lam)
        assert str(err.value) == message
    assert make_csan(2, 4, path, [deg1, deg2, deg2, deg1]).n == 4


def test_shared_table_with_an_outside_output_is_rejected():
    path = [(0, 1, "id"), (1, 2, "id"), (2, 3, "id")]
    (deg1,) = _path_tables(1)
    (bad1,) = _path_tables(1, out=lambda s, m: 2 * m[1])
    (deg2,) = _path_tables(2)
    for lam, node in (([bad1, deg2, deg2, bad1], 0), ([deg1, deg2, deg2, bad1], 3)):
        with pytest.raises(InvalidCsanError) as err:
            make_csan(2, 4, path, lam)
        assert str(err.value) == f"node {node} table has out-of-alphabet outputs"
    bad_label = (0, 2)
    with pytest.raises(InvalidCsanError) as err:
        make_csan(2, 4, [(0, 1, "id"), (1, 2, bad_label), (2, 3, bad_label)], [deg1, deg2, deg2, deg1])
    assert str(err.value) == "edge (1,2) label is not a map on the alphabet"


@pytest.mark.parametrize("out", [0.5, True, 1.0])
def test_a_non_integer_output_is_refused_and_names_its_node(out):
    path = [(0, 1, "id")]
    t, u = _path_tables(1, 1)
    u[(0, (1, 0))] = out
    with pytest.raises(InvalidCsanError) as err:
        make_csan(2, 2, path, [t, u])
    assert str(err.value) == "node 1 table has out-of-alphabet outputs"


def test_make_csan_copies_each_shared_table_once():
    path = [(0, 1, "id"), (1, 2, "neg"), (2, 3, "id")]
    deg1, deg2 = _path_tables(1, 2)
    c = make_csan(2, 4, path, [deg1, deg2, deg2, deg1])
    assert c.lam[0] is c.lam[3] and c.lam[1] is c.lam[2]
    assert c.edge_rho[0] is c.edge_rho[2]  # a label name is expanded once
    assert c.lam[0] is not deg1 and c.lam[1] is not deg2
    apart = make_csan(2, 4, path, [dict(t) for t in (deg1, deg2, deg2, deg1)])
    assert len({id(t) for t in apart.lam}) == 4
    doc = csan_to_json(apart)
    assert c == apart and csan_to_json(c) == doc
    assert csan_from_json(doc) == c
    for t in (deg1, deg2):
        for key in t:
            t[key] = 1 - t[key]
    assert c == apart and csan_to_json(c) == doc


# ---------------------------------------------------------------------------
# Family membership


def test_builders_satisfy_their_family_predicates():
    assert csan_in_family(build_rule90_ring(7), family_spec("linear"))
    assert csan_in_family(
        build_threshold(4, HUB_EDGES, HUB_THETA), family_spec("threshold")
    )
    assert csan_in_family(
        build_minmax(4, HUB_EDGES, ("MAX", "MIN", "MAX", "MIN")),
        family_spec("minmax"),
    )
    assert csan_in_family(
        build_minmax(3, [(0, 1)], ("MIN", "MAX", "MAX"), alphabet=3),
        family_spec("minmax", alphabet=3),
    )
    assert csan_in_family(
        build_lifelike(5, [(0, 1), (0, 2), (0, 3), (0, 4)], {3}, {2, 3}),
        family_spec("lifelike"),
    )
    assert csan_in_family(
        build_interval(5, K5_EDGES, 3, 4), family_spec("interval")
    )
    assert csan_in_family(
        build_reaction_diffusion(3, [(0, 1), (1, 2)], (1, 1, 1), chain=2),
        family_spec("reaction", alphabet=3),
    )


def test_family_negatives():
    ring = build_rule90_ring(4)
    assert not csan_in_family(ring, family_spec("threshold"))
    thr = build_threshold(4, HUB_EDGES, HUB_THETA)
    assert not csan_in_family(thr, family_spec("linear"))
    rd = build_reaction_diffusion(2, [(0, 1)], (1, 1), chain=2)
    assert not csan_in_family(rd, family_spec("minmax", alphabet=3))
    assert not csan_in_family(thr, family_spec("reaction", alphabet=3))
    with pytest.raises(InvalidCsanError):
        family_spec("nosuch")
    with pytest.raises(InvalidCsanError):
        family_spec("linear", alphabet=3)


def test_threshold_is_lifelike_specialization():
    # Threshold tables depend only on the live count, so they also pass
    # the outer-totalistic predicate; parity does too.
    thr = build_threshold(4, HUB_EDGES, HUB_THETA)
    assert csan_in_family(thr, family_spec("lifelike"))
    assert csan_in_family(build_rule90_ring(4), family_spec("lifelike"))


# ---------------------------------------------------------------------------
# The family registry against the three copies it replaced

# family -> (builder name, alphabet the builder gives, edge label name)
BUILT = {
    "linear": ("build_linear_gf2", lambda p: 2, "id"),
    "threshold": ("build_threshold", lambda p: 2, "id"),
    "minmax": ("build_minmax", lambda p: p["alphabet"], "id"),
    "lifelike": ("build_lifelike", lambda p: 2, "id"),
    "interval": ("build_interval", lambda p: 2, "id"),
    "reaction": ("build_reaction_diffusion", lambda p: p["chain"] + 1, "activity"),
}
FAMILY_ALPHABETS = [(name, q) for name in sorted(BUILT) for q in (2, 3, 4)]


@st.composite
def family_cases(draw):
    """A family, a graph and builder arguments, some of them out of range."""
    name = draw(st.sampled_from(sorted(BUILT)))
    # At least one node: with none, no node rule is built, so the
    # registry leaves alpha <= beta and chain >= 2 unchecked there, where
    # the former builders refused them.
    n = draw(st.integers(1, 5))
    edges = [
        (v, u) if draw(st.booleans()) else (u, v)
        for u, v in combinations(range(n), 2)
        if draw(st.booleans())
    ]
    counts = st.integers(0, 5)

    def per_node(values):
        return [draw(values) for _ in range(n)]

    kwargs = {
        "linear": lambda: {},
        "threshold": lambda: {"theta": per_node(counts)},
        "minmax": lambda: {
            "polarity": per_node(st.sampled_from(("MIN", "MAX"))),
            "alphabet": draw(st.integers(2, 4)),
        },
        "lifelike": lambda: {
            "birth": draw(st.sets(counts, max_size=3)),
            "survive": draw(st.sets(counts, max_size=3)),
        },
        "interval": lambda: {"alpha": draw(counts), "beta": draw(counts)},
        "reaction": lambda: {"theta": per_node(counts), "chain": draw(st.integers(1, 3))},
    }[name]()
    return name, n, edges, kwargs


def shorthand_doc(name, n, edges, kwargs):
    _, alphabet, label = BUILT[name]
    vertices = []
    for v in range(n):
        params = {}
        for key, value in kwargs.items():
            if key in ("theta", "polarity"):
                params[key] = value[v]
            elif key in ("birth", "survive"):
                params[key] = sorted(value)
            elif key not in ("alphabet", "chain"):
                params[key] = value
        vertices.append({"lambda": {"family": name, **params}})
    return {
        "format": "csan",
        "version": 1,
        "alphabet": alphabet(kwargs),
        "n": n,
        "edges": [[u, v, label] for u, v in edges],
        "vertices": vertices,
    }


def flipped(c, v, key):
    lam = list(c.lam)
    table = dict(lam[v])
    table[key] = (table[key] + 1) % c.alphabet
    lam[v] = table
    return Csan(c.alphabet, c.edges, c.edge_rho, tuple(lam))


def same_membership(c):
    for name, q in FAMILY_ALPHABETS:
        try:
            want = ref_csan.csan_in_family(c, ref_csan.family_spec(name, q))
        except InvalidCsanError:
            with pytest.raises(InvalidCsanError):
                family_spec(name, q)
            continue
        assert csan_in_family(c, family_spec(name, q)) == want, (name, q)


@settings(max_examples=150, deadline=None)
@given(family_cases(), st.data())
def test_registry_matches_the_former_builders_shorthand_and_membership(case, data):
    name, n, edges, kwargs = case
    builder = BUILT[name][0]
    try:
        want = getattr(ref_csan, builder)(n, edges, **kwargs)
    except InvalidCsanError:
        with pytest.raises(InvalidCsanError):
            getattr(csan_module, builder)(n, edges, **kwargs)
        with pytest.raises(InvalidCsanError):
            csan_from_json(shorthand_doc(name, n, edges, kwargs))
        return
    got = getattr(csan_module, builder)(n, edges, **kwargs)
    assert got == want
    doc = shorthand_doc(name, n, edges, kwargs)
    assert csan_from_json(doc) == got == ref_csan.csan_from_shorthand(doc)
    same_membership(got)
    v = data.draw(st.integers(0, n - 1))
    key = data.draw(st.sampled_from(sorted(got.lam[v])))
    same_membership(flipped(got, v, key))


# ---------------------------------------------------------------------------
# Matrix maps


def test_matrix_identity():
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    for kind in ("GF2", "BOOLEAN_OR", "BOOLEAN_AND"):
        net = matrix_to_network(kind, eye)
        for x in all_configs(2, 3):
            assert step(net, x) == x


def test_matrix_or_two_cycle_swaps():
    net = matrix_to_network("BOOLEAN_OR", [[0, 1], [1, 0]])
    for x in all_configs(2, 2):
        assert step(net, x) == (x[1], x[0])


def test_matrix_empty_rows_give_neutral_element():
    m = [[0, 0], [1, 0]]
    assert step(matrix_to_network("GF2", m), (1, 1)) == (0, 1)
    assert step(matrix_to_network("BOOLEAN_OR", m), (1, 1)) == (0, 1)
    assert step(matrix_to_network("BOOLEAN_AND", m), (0, 0)) == (1, 0)


def test_matrix_and_semantics():
    net = matrix_to_network("BOOLEAN_AND", [[0, 1, 1], [1, 0, 1], [0, 0, 0]])
    assert step(net, (0, 1, 1)) == (1, 0, 1)
    assert step(net, (1, 1, 0)) == (0, 0, 1)


def test_matrix_validation():
    with pytest.raises(InvalidCsanError):
        matrix_to_network("XOR3", [[0]])
    with pytest.raises(InvalidCsanError):
        matrix_to_network("GF2", [[0, 1]])
    with pytest.raises(InvalidCsanError):
        matrix_to_network("GF2", [[2]])
    with pytest.raises(InvalidCsanError):
        matrix_to_network("GF2", [])


# ---------------------------------------------------------------------------
# Circuit encoding


def test_encoding_helpers():
    assert bits_per_node(2) == 1
    assert bits_per_node(3) == 2
    assert bits_per_node(4) == 2
    assert bits_per_node(1) == 0
    assert encode_config((2, 1), 3) == (0, 1, 1, 0)
    assert decode_config((0, 1, 1, 0), 3, 2) == (2, 1)
    with pytest.raises(InvalidConfigError):
        decode_config((1, 1), 3, 1)
    with pytest.raises(InvalidConfigError):
        decode_config((1,), 3, 1)
    # Injectivity of the node encoding on the alphabet.
    codes = {encode_config((s,), 5) for s in range(5)}
    assert len(codes) == 5


def test_circuit_encode_identity_is_wire_only():
    net = make_network(2, [((i,), (0, 1)) for i in range(3)])
    c = circuit_encode(net)
    assert c.gates == ()
    assert c.outputs == (0, 1, 2)


def test_circuit_encode_ring4():
    net = csan_to_network(build_rule90_ring(4))
    c = circuit_encode(net)
    for x in all_configs(2, 4):
        assert eval_circuit(c, encode_config(x, 2)) == encode_config(step(net, x), 2)


def test_circuit_encode_ternary_constant():
    net = make_network(3, [((0,), (2, 2, 2))])
    c = circuit_encode(net)
    for s in range(3):
        assert eval_circuit(c, encode_config((s,), 3)) == (0, 1)


@pytest.mark.parametrize(
    "net",
    [
        xor_ring(5),
        csan_to_network(build_reaction_diffusion(2, [(0, 1)], (1, 1), chain=2)),
        csan_to_network(build_minmax(3, [(0, 1), (0, 2)], ("MIN", "MAX", "MAX"), alphabet=3)),
        make_network(4, [((0, 1), tuple((a * b) % 4 for b in range(4) for a in range(4))), ((0,), (3, 2, 1, 0))]),
    ],
    ids=["xor5", "reaction", "minmax3", "mod4"],
)
def test_circuit_encode_matches_step(net):
    c = circuit_encode(net)
    q = net.alphabet
    for x in all_configs(q, net.n):
        got = eval_circuit(c, encode_config(x, q))
        assert got == encode_config(step(net, x), q)


def test_circuit_encode_rejects_unary_alphabet():
    net = make_network(1, [((0,), (0,))])
    with pytest.raises(InvalidCircuitError):
        circuit_encode(net)


# ---------------------------------------------------------------------------
# Validation and serialization


def test_step_missing_entry_raises():
    full = {(s, m): 0 for s in range(2) for m in multisets_up_to(2, 1)}
    partial = dict(list(full.items())[:2])
    broken = Csan(2, ((0, 1),), (rho_identity(2),), (partial, full))
    with pytest.raises(InvalidCsanError):
        broken.validate()
    with pytest.raises(InvalidCsanError):
        csan_step(broken, (1, 1))


def test_make_csan_rejections():
    lam1 = {(s, m): 0 for s in range(2) for m in multisets_up_to(2, 1)}
    with pytest.raises(InvalidCsanError):
        make_csan(2, 2, [(0, 0, "id")], [lam1, lam1])
    with pytest.raises(InvalidCsanError):
        make_csan(2, 2, [(0, 1, "id"), (1, 0, "id")], [lam1, lam1])
    with pytest.raises(InvalidCsanError):
        make_csan(2, 2, [(0, 1, (0, 1, 1))], [lam1, lam1])
    with pytest.raises(InvalidCsanError):
        make_csan(2, 2, [(0, 1, "nosuch")], [lam1, lam1])
    bad_out = {k: 7 for k in lam1}
    with pytest.raises(InvalidCsanError):
        make_csan(2, 2, [(0, 1, "id")], [lam1, bad_out])
    with pytest.raises(InvalidConfigError):
        csan_step(build_rule90_ring(3), (0, 1))
    with pytest.raises(InvalidConfigError):
        csan_step(build_rule90_ring(3), (0, 1, 9))


def test_json_roundtrip(tmp_path):
    for c in [
        build_rule90_ring(7),
        build_threshold(4, HUB_EDGES, HUB_THETA),
        build_reaction_diffusion(3, [(0, 1), (1, 2)], (1, 1, 1), chain=2),
    ]:
        doc = csan_to_json(c)
        assert doc["format"] == "csan"
        assert csan_from_json(doc) == c
    rd = build_reaction_diffusion(2, [(0, 1)], (1, 1), chain=2)
    assert csan_to_json(rd)["edges"][0][2] == "activity"
    odd = make_csan(
        2,
        2,
        [(0, 1, (0, 0))],
        [{(s, m): 0 for s in range(2) for m in multisets_up_to(2, 1)}] * 2,
    )
    assert csan_to_json(odd)["edges"][0][2] == [0, 0]
    assert csan_from_json(csan_to_json(odd)) == odd
    path = tmp_path / "net.json"
    docs.write(csan_to_json(rd), path, pretty=True)
    assert csan_from_json(docs.read(path)) == rd


def uninterned_csan(doc):
    """The explicit-row document read with one fresh table per vertex."""
    tables = [{(s, tuple(m)): out for s, m, out in v["lambda"]} for v in doc["vertices"]]
    return make_csan(doc["alphabet"], doc["n"], [tuple(e) for e in doc["edges"]], tables)


def test_csan_from_json_shares_equal_explicit_tables():
    doc = csan_to_json(gol.build_nor_gadget().csan)
    got = csan_from_json(doc)
    plain = uninterned_csan(doc)
    assert len({id(t) for t in plain.lam}) == got.n == 84
    contents = {frozenset(t.items()) for t in plain.lam}
    assert len({id(t) for t in got.lam}) == len(contents) < 12
    for u, v in combinations(range(84), 2):
        assert (got.lam[u] is got.lam[v]) == (got.lam[u] == got.lam[v])
    assert got == plain
    text = json.dumps(csan_to_json(got), sort_keys=True)
    assert text == json.dumps(csan_to_json(plain), sort_keys=True)
    assert text == json.dumps(doc, sort_keys=True)


def lifelike_shorthand(c):
    """The document of a Game of Life CSAN with every vertex table a shorthand."""
    shorthand = {"family": "lifelike", "birth": [3], "survive": [2, 3]}
    return {**csan_to_json(c), "vertices": [{"lambda": dict(shorthand)} for _ in range(c.n)]}


def test_csan_from_json_shares_one_shorthand_table_per_degree():
    doc = lifelike_shorthand(gol.build_wire())
    got = csan_from_json(doc)
    degrees = {got.degree(v) for v in range(got.n)}
    assert len(degrees) > 1
    assert len({id(t) for t in got.lam}) == len(degrees)
    edges = [(u, v) for u, v, _ in doc["edges"]]
    assert got == build_lifelike(got.n, edges, [3], [2, 3])


def test_json_family_shorthand():
    doc = {
        "format": "csan",
        "version": 1,
        "alphabet": 2,
        "n": 4,
        "edges": [[u, v, "id"] for u, v in HUB_EDGES],
        "vertices": [{"lambda": {"family": "threshold", "theta": t}} for t in HUB_THETA],
    }
    assert csan_from_json(doc) == build_threshold(4, HUB_EDGES, HUB_THETA)
    mixed = dict(doc)
    mixed["vertices"] = [
        {"lambda": {"family": "minmax", "polarity": p}}
        for p in ("MAX", "MIN", "MAX", "MIN")
    ]
    assert csan_from_json(mixed) == build_minmax(
        4, HUB_EDGES, ("MAX", "MIN", "MAX", "MIN")
    )
    bad = dict(doc)
    bad["vertices"] = [{"lambda": {"family": "nosuch"}}] * 4
    with pytest.raises(InvalidCsanError):
        csan_from_json(bad)
    with pytest.raises(InvalidCsanError):
        csan_from_json({"format": "network"})
    short = dict(doc)
    short["vertices"] = doc["vertices"][:2]
    with pytest.raises(InvalidCsanError):
        csan_from_json(short)


@pytest.mark.parametrize(
    "shorthand",
    [
        {"family": "threshold"},
        {"family": "threshold", "theta": 1, "beta": 2},
        {"family": "interval", "alpha": 1},
        {"family": "lifelike", "birth": [3], "survive": [2], "extra": 0},
    ],
    ids=["missing", "unknown", "interval missing", "lifelike unknown"],
)
def test_shorthand_keys_must_be_the_family_keys(shorthand):
    doc = {
        "format": "csan",
        "version": 1,
        "alphabet": 2,
        "n": 2,
        "edges": [[0, 1, "id"]],
        "vertices": [{"lambda": shorthand}] * 2,
    }
    with pytest.raises(InvalidCsanError, match=f"family {shorthand['family']!r} takes"):
        csan_from_json(doc)


def test_symmetry_of_stored_structure():
    for c in INSTANCES:
        assert all(u < v for u, v in c.edges)
        assert len(set(c.edges)) == len(c.edges)
        assert len(c.edge_rho) == len(c.edges)


def test_cached_structure_agrees_and_takes_no_part_in_equality():
    for c in INSTANCES:
        fresh = csan_from_json(csan_to_json(c))
        assert fresh == c  # c has its cache built, fresh not yet
        for v in range(c.n):
            touching = [e for e in c.edges if v in e]
            assert c.degree(v) == len(touching)
            assert c.neighbors(v) == {u if w == v else w for u, w in touching}
        for (u, v), rho in zip(c.edges, c.edge_rho):
            assert c.edge_label(u, v) == c.edge_label(v, u) == rho
        assert csan_to_json(fresh) == csan_to_json(c)
