"""Circuit evaluation, synchronization and the gate-network compilers."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.circuit import (
    Circuit,
    InvalidCircuitError,
    circuit_from_json,
    circuit_to_json,
    closed_network,
    double_rail,
    eval_circuit,
    gmon_to_gmon2,
    make_circuit,
    nor_realizers,
    synchronize,
)
from artifact.core import analyze_orbit, index_config, iterate, trace
from artifact.gnet import (
    AND_2_1,
    GNetworkBuilder,
    gnetwork_to_json,
    gnetwork_to_network,
    mon_gate,
)
from artifact.simulate import embed, embedding_to_json, verify_simulation


def random_closed_circuit(n_inputs: int, depth: int, seed: int) -> Circuit:
    """Random closed synchronous circuit with fanout 1 or 2 everywhere.

    Layers of constant width: every layer node consumes nodes of the
    previous layer only, each previous node is consumed once or twice,
    and the last layer feeds back as the next input vector.
    """
    if n_inputs < 1 or depth < 1:
        raise InvalidCircuitError("need n_inputs >= 1 and depth >= 1")
    rng = random.Random(seed)
    gates: list[tuple[str, tuple[int, ...]]] = []
    prev_layer = list(range(n_inputs))
    for _ in range(depth):
        mandatory = prev_layer[:]
        rng.shuffle(mandatory)
        counts = {v: 1 for v in prev_layer}
        layer = []
        for j in range(n_inputs):
            first = mandatory[j]
            extra = [v for v in prev_layer if counts[v] < 2]
            if extra and rng.random() < 0.6:
                second = rng.choice(extra)
                counts[second] += 1
                op = rng.choice(["AND", "OR"])
                args = (first, second) if rng.random() < 0.5 else (second, first)
                gates.append((op, args))
            else:
                gates.append((rng.choice(["NOT", "ID"]), (first,)))
            layer.append(n_inputs + len(gates) - 1)
        prev_layer = layer
    c = Circuit(n_inputs, tuple(gates), tuple(prev_layer))
    c.validate()
    if not c.is_synchronous():
        raise InvalidCircuitError("generator produced a non-synchronous circuit")
    return c


def test_eval_basics():
    c = make_circuit(1, [("NOT", (0,))], [1])
    assert eval_circuit(c, (1,)) == (0,)
    c2 = make_circuit(2, [("AND", (0, 1))], [2])
    assert eval_circuit(c2, (1, 1)) == (1,)
    assert eval_circuit(c2, (1, 0)) == (0,)


def test_eval_against_truth_table():
    # (x AND y) OR (NOT x): two levels, checked for all inputs
    c = make_circuit(
        2,
        [("AND", (0, 1)), ("NOT", (0,)), ("OR", (2, 3))],
        [4],
    )
    for idx in range(4):
        x, y = index_config(idx, 2, 2)
        assert eval_circuit(c, (x, y)) == ((x & y) | (1 - x),)


def test_validation():
    with pytest.raises(InvalidCircuitError):
        make_circuit(1, [("XOR", (0, 0))], [1])
    with pytest.raises(InvalidCircuitError):
        make_circuit(1, [("AND", (0,))], [1])
    with pytest.raises(InvalidCircuitError):
        make_circuit(1, [("ID", (1,))], [1])  # forward reference
    with pytest.raises(InvalidCircuitError):
        eval_circuit(make_circuit(1, [("ID", (0,))], [1]), (0, 1))


def test_synchronize_skewed_path():
    # x feeds both AND ports: one direct, one through a NOT
    c = make_circuit(1, [("NOT", (0,)), ("AND", (0, 1))], [2])
    assert not c.is_synchronous()
    s = synchronize(c)
    assert s.is_synchronous()
    assert s.depth == c.depth == 2
    for v in range(2):
        assert eval_circuit(s, (v,)) == eval_circuit(c, (v,))


def test_synchronize_idempotent_on_synchronous():
    c = make_circuit(2, [("AND", (0, 1)), ("NOT", (2,))], [3])
    assert c.is_synchronous()
    s = synchronize(c)
    assert len(s.gates) == len(c.gates)


def test_synchronize_multi_output_depths():
    c = make_circuit(2, [("NOT", (0,)), ("AND", (0, 1)), ("OR", (2, 3))], [2, 4])
    s = synchronize(c)
    assert s.is_synchronous()
    lv = s.levels()
    assert len({lv[o] for o in s.outputs}) == 1
    for idx in range(4):
        bits = index_config(idx, 2, 2)
        assert eval_circuit(s, bits) == eval_circuit(c, bits)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_synchronize_preserves_truth_tables(data):
    n = data.draw(st.integers(1, 3))
    n_gates = data.draw(st.integers(1, 6))
    gates = []
    for g in range(n_gates):
        op = data.draw(st.sampled_from(["AND", "OR", "NOT", "ID"]))
        hi = n + g
        if op in ("AND", "OR"):
            args = (data.draw(st.integers(0, hi - 1)), data.draw(st.integers(0, hi - 1)))
        else:
            args = (data.draw(st.integers(0, hi - 1)),)
        gates.append((op, args))
    outs = [data.draw(st.integers(0, n + n_gates - 1)) for _ in range(n)]
    c = make_circuit(n, gates, outs)
    s = synchronize(c)
    assert s.is_synchronous()
    for idx in range(2**n):
        bits = index_config(idx, 2, n)
        assert eval_circuit(s, bits) == eval_circuit(c, bits)


def test_closed_network_of_not_loop():
    c = make_circuit(1, [("NOT", (0,))], [1])
    net = closed_network(c)
    assert net.n == 1
    assert analyze_orbit(net, (0,)).period == 2


def test_double_rail_not_loop_hand_trace():
    c = make_circuit(1, [("NOT", (0,))], [1])
    gn, emb = double_rail(c)
    host = gnetwork_to_network(gn)
    assert emb.time == 2
    y0 = embed(emb, host.n, (0,))
    tr = trace(host, y0, 4)
    # rails: input buffers then gate rails; wave alternates layers
    assert tr[2] == embed(emb, host.n, (1,))
    assert tr[4] == y0
    assert analyze_orbit(host, y0).period == 4


def test_double_rail_and_circuit():
    # two inputs, AND plus a NOT lane to keep the system closed
    c = make_circuit(2, [("AND", (0, 1)), ("NOT", (0,))], [2, 3])
    gn, emb = double_rail(c)
    src = closed_network(c)
    host = gnetwork_to_network(gn)
    assert emb.time == c.depth + 1 == 2
    report = verify_simulation(src, host, emb, mode="exhaustive")
    assert report.ok, report.message()
    # monotone catalog only
    assert all(g.name.startswith(("AND", "OR")) for g in gn.gates)


def test_double_rail_rejects_open_or_skewed():
    with pytest.raises(InvalidCircuitError):
        double_rail(make_circuit(2, [("AND", (0, 1))], [2]))  # open
    skew = make_circuit(1, [("NOT", (0,)), ("AND", (0, 1))], [2])
    with pytest.raises(InvalidCircuitError):
        double_rail(skew)


def test_double_rail_rail_complement_invariant():
    c = random_closed_circuit(3, 2, seed=5)
    gn, emb = double_rail(c)
    src = closed_network(c)
    host = gnetwork_to_network(gn)
    for idx in range(2**3):
        x = index_config(idx, 2, 3)
        y = embed(emb, host.n, x)
        for t in range(1, 4):
            y2 = iterate(host, y, t * emb.time)
            assert y2 == embed(emb, host.n, iterate(src, x, t))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_double_rail_random_circuits(seed):
    c = random_closed_circuit(3, 3, seed=seed)
    gn, emb = double_rail(c)
    assert emb.time == c.depth + 1
    report = verify_simulation(
        closed_network(c), gnetwork_to_network(gn), emb, mode="exhaustive"
    )
    assert report.ok, report.message()


def gmon_loop_and_fork():
    # AND(u, v) -> m; OR fork of m -> (u, v): closed monotone network
    b = GNetworkBuilder(2)
    ga, (m,) = b.new_gate(AND_2_1)
    gf, (u, v) = b.new_gate(mon_gate("OR", 1, 2))
    b.connect(ga, [u, v])
    b.connect(gf, [m])
    return b.build()


def test_gmon_to_gmon2_loop():
    gn = gmon_loop_and_fork()
    host_gn, emb = gmon_to_gmon2(gn)
    assert emb.time == 6
    assert all(g.name in ("AND_2_2", "OR_2_2") for g in host_gn.gates)
    src = gnetwork_to_network(gn)
    host = gnetwork_to_network(host_gn)
    report = verify_simulation(src, host, emb, mode="exhaustive")
    assert report.ok, report.message()


def test_gmon_to_gmon2_on_double_rail_output():
    c = random_closed_circuit(2, 2, seed=11)
    gn, demb = double_rail(c)
    host_gn, emb = gmon_to_gmon2(gn)
    src = gnetwork_to_network(gn)
    host = gnetwork_to_network(host_gn)
    report = verify_simulation(src, host, emb, mode="sample", samples=150, seed=3)
    assert report.ok, report.message()


def test_gmon_to_gmon2_and_block_values():
    # embedded AND block turns (x,x,y,y) pairs into the (x AND y) pair
    gn = gmon_loop_and_fork()
    host_gn, emb = gmon_to_gmon2(gn)
    host = gnetwork_to_network(host_gn)
    src = gnetwork_to_network(gn)
    for idx in range(2**3):
        x = index_config(idx, 2, 3)
        y = iterate(host, embed(emb, host.n, x), 6)
        want = embed(emb, host.n, iterate(src, x, 1))
        assert y == want
    # signal pairs carry (q, q); all machinery cells sit at zero
    for pats in emb.patterns:
        for q, pat in enumerate(pats):
            assert pat[:2] == (q, q)
            assert all(v == 0 for v in pat[2:])


# sha256 of json.dumps(doc, sort_keys=True) of each compiler's host and
# embedding documents, taken before the compilers built their embeddings
# through simulate.block_embedding: a changed digest means a block, a
# pattern or the order of the nodes that ride in node 0's block moved.
# Per seeded circuit (inputs, depth, seed): double_rail's embedding and
# host, then gmon_to_gmon2's embedding and host on that host.
COMPILED_DIGESTS = {
    (2, 2, 11): (
        "a9ad4bd5b690cfa2f9d1e0a7cc8cb82d505f59e364e282f8dedbad4004fc4e26",
        "a83183acb3e3c00dbc4ba223cdf7926de11364ce8fd727815567f7e6420439ce",
        "648a00b5c579cb168400e50ed84647c899b35269657ebe12c6c726649f4b815b",
        "0ac78b2e9668255c9b12f709e2a4197ef76fec6225a13e35e8ba90332ab095ab",
    ),
    (3, 2, 5): (
        "7f467d17a9728e6bfddc61ec47d92b047c9bd1f914c704c20c60d1de443f21f1",
        "a7af706c25519d0766b122a19f31f382e567c9c50d152453a8f017e41eeab02b",
        "4ce1432603378f11536b4547e9030521bd2822ac1bf620fcf054f37c1a75717e",
        "93b17805017d9a4d50a1af2d6de4f4b8c29a9e1ae5a93c959958b525606b9562",
    ),
    (3, 3, 7): (
        "fc2bf23238cbf3bf0766339e528aaed399866ffebb249ec0fc60772f6c7b4e25",
        "7f213ac2ceb0d804edaab7c88e1f8a9409d52aef6f8bd9e52b0fa7c14e772c39",
        "cc36af60185da2ec8b60f646453824cbbedff963268a51426bda7f33f4cc9d57",
        "bd89ec71fdbef89420ae53c18b58207016f89638c124d2993e52786379eb4add",
    ),
    (4, 3, 2): (
        "84439a3cd6e4435dedc6fe4f1bef45ff27942de402ba51804dfbed91aa3445db",
        "24dc94be3128f9c02f13c820ca729751aff30253494a726244e04ef20b78f636",
        "4c0da37bdadf264cb8918fb850f20976d4c0990bf9d50977d3d2cd4e8ab8b3fc",
        "44466072f17ae8c4fff332ede8459880fa8c6c05c1f3789d24931d9bd024cc1c",
    ),
}


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(COMPILED_DIGESTS))
def test_compiled_embeddings_are_pinned(case):
    gn, emb = double_rail(random_closed_circuit(*case))
    gn2, emb2 = gmon_to_gmon2(gn)
    docs = (embedding_to_json(emb), gnetwork_to_json(gn))
    docs += (embedding_to_json(emb2), gnetwork_to_json(gn2))
    assert tuple(map(digest, docs)) == COMPILED_DIGESTS[case]


def test_gmon_to_gmon2_of_the_loop_and_fork_is_pinned():
    gn2, emb = gmon_to_gmon2(gmon_loop_and_fork())
    assert digest(embedding_to_json(emb)) == (
        "375aae3cdf196ca28b84d62f3eb829ccae703da6f6943ddc869f05a4f12a7d07"
    )
    assert digest(gnetwork_to_json(gn2)) == (
        "7777dc082b1ce6a535933db3075e097401259e09d3a4c1f4879bd63179bd7c52"
    )


def test_nor_realizers_exhaustive():
    conj, disj = nor_realizers()
    assert conj.depth == 2 and disj.depth == 2
    for idx in range(16):
        a, bb, cc, d = index_config(idx, 2, 4)
        got_c = conj.eval((a, bb, cc, d))
        got_d = disj.eval((a, bb, cc, d))
        if a == bb and cc == d:
            assert got_c == ((a & cc),) * 4
            assert got_d == ((a | cc),) * 4


def test_random_closed_circuit_shape():
    for seed in range(5):
        c = random_closed_circuit(4, 3, seed=seed)
        assert c.is_synchronous()
        assert len(c.outputs) == c.n_inputs
        assert c.depth == 3
        # determinism
        again = random_closed_circuit(4, 3, seed=seed)
        assert again == c


def test_circuit_json_roundtrip():
    c = random_closed_circuit(3, 2, seed=9)
    assert circuit_from_json(circuit_to_json(c)) == c
    with pytest.raises(InvalidCircuitError):
        circuit_from_json({"format": "network"})
