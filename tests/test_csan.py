"""Labeled-graph networks: families, semantics, interaction graphs, codecs."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import docs
from artifact.circuit import InvalidCircuitError, eval_circuit
from artifact.core import InvalidConfigError, index_config, make_network, step
from artifact.csan import (
    Csan,
    InvalidCsanError,
    bits_per_node,
    build_interval,
    build_lifelike,
    build_linear_gf2,
    build_minmax,
    build_reaction_diffusion,
    build_rule90_ring,
    build_threshold,
    circuit_encode,
    csan_from_json,
    csan_in_family,
    csan_step,
    csan_to_json,
    csan_to_network,
    decode_config,
    encode_config,
    family_spec,
    interaction_graph_bruteforce,
    interaction_graph_csan,
    make_csan,
    make_multiset,
    matrix_to_network,
    multisets_up_to,
    multisets_with_total,
    rho_activity,
    rho_identity,
)

from conftest import xor_ring

# Shared 4-node instance: hub 0 joined to 1,2,3 and hub 3 joined to 1,2.
HUB_EDGES = [(0, 1), (0, 2), (0, 3), (3, 2), (3, 1)]
HUB_THETA = (3, 2, 2, 3)

K5_EDGES = [(u, v) for u, v in combinations(range(5), 2)]

TRIANGLE = [(0, 1), (1, 2), (0, 2)]


def all_configs(q, n):
    return (index_config(i, q, n) for i in range(q**n))


# ---------------------------------------------------------------------------
# Multisets


def test_multiset_helpers():
    m = make_multiset([1, 1, 2], 3, 5)
    assert m.counts == (0, 2, 1)
    assert m.total == 3
    with pytest.raises(InvalidCsanError):
        make_multiset([1, 1], 2, 1)
    with pytest.raises(InvalidCsanError):
        make_multiset([5], 2, 3)
    assert list(multisets_with_total(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(multisets_up_to(2, 1)) == [(0, 0), (0, 1), (1, 0)]
    got = list(multisets_up_to(3, 4))
    assert len(got) == len(set(got))
    assert all(sum(m) <= 4 for m in got)


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
    got = interaction_graph_csan(ring)
    assert got == want
    assert all(u != v for u, v in got)
    assert interaction_graph_bruteforce(csan_to_network(ring)) == want


def test_interaction_constant_rule_is_empty():
    lam_deg1 = {(s, m): 0 for s in range(2) for m in multisets_up_to(2, 1)}
    c = make_csan(2, 2, [(0, 1, "id")], [lam_deg1, lam_deg1])
    assert interaction_graph_csan(c) == set()
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
    got = interaction_graph_csan(c)
    assert got == {(1, 3), (2, 3)}
    assert interaction_graph_bruteforce(csan_to_network(c)) == got


def test_interaction_self_dependency():
    gol = build_lifelike(3, [(0, 1), (1, 2)], {3}, {2, 3})
    got = interaction_graph_csan(gol)
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
    assert interaction_graph_csan(c) == interaction_graph_bruteforce(
        csan_to_network(c)
    )


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
