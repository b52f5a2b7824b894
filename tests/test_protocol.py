"""One step protocol: a Csan or a GNetwork is stepped, walked, verified,
drawn and written as itself.

Every entry point that takes a model answers on a Csan c as on its
tabulation `csan_to_network(c)`, and on a GNetwork gn as on
`gnetwork_to_network(gn)`. The tabulation, and the stepper compiled from
it, that a model keeps for this are invisible: the model still equals
an unstepped copy, hashes and writes the same, pickles and copies.
"""

import copy
import pickle
from dataclasses import replace
from itertools import product
from random import Random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artifact import core, gol
from artifact.core import (
    analyze_orbit,
    attractors,
    interaction_graph,
    network_to_json,
    pack_lanes,
    step,
    step_batch,
    to_dot,
    walk_orbit,
)
from artifact.csan import Csan, csan_step, csan_to_json, csan_to_network, interaction_graph_csan
from artifact.glue import check_pseudo_orbits, make_pseudo_orbit
from artifact.gnet import (
    Gate,
    GNetwork,
    GNetworkBuilder,
    gnetwork_to_json,
    gnetwork_to_network,
    gt_transient_network,
    prime_rotations,
)
from artifact.problems import odometer
from artifact.simulate import verify_simulation

from test_csan import random_csans
from test_problems import identity_embedding


@settings(max_examples=100, deadline=None)
@given(random_csans())
def test_a_csan_answers_as_its_tabulation(c):
    unstepped = Csan(c.alphabet, c.edges, c.edge_rho, c.lam)
    doc = csan_to_json(c)
    net = csan_to_network(c)
    configs = list(product(range(c.alphabet), repeat=c.n))
    for x in configs:
        assert step(c, x) == step(net, x) == csan_step(c, x)
    for b in (1, 7):
        lanes = [configs[(5 * i) % len(configs)] for i in range(b)]
        xs = [pack_lanes(col, net.lane_bytes) for col in zip(*lanes)]
        assert step_batch(c, xs, b) == step_batch(net, xs, b)
    for x in configs:
        assert analyze_orbit(c, x) == analyze_orbit(net, x)
    assert attractors(c) == attractors(net)
    # Runs that follow the map for a step, then jump, exempt on one node each.
    runs = [
        make_pseudo_orbit([x, step(net, x), configs[(3 * i) % len(configs)]], {i % c.n})
        for i, x in enumerate(configs[:8])
    ]
    assert check_pseudo_orbits(c, runs) == check_pseudo_orbits(net, runs)
    for time in (1, 2):  # F simulates itself at time 1; at time 2 it mostly fails
        emb = replace(identity_embedding(net), time=time)
        want = verify_simulation(net, net, emb)
        assert verify_simulation(c, net, emb) == want
        assert verify_simulation(net, c, emb) == want
    assert to_dot(c) == to_dot(net)
    assert network_to_json(c) == network_to_json(net)
    assert interaction_graph(c) == interaction_graph(net) == interaction_graph_csan(c)
    assert c == unstepped and csan_to_json(c) == doc and c.network is c.network


@st.composite
def random_gnetworks(draw):
    """Two to four gates of random tables, each with as many outputs as inputs (1 or 2).

    The inputs are wired by a random permutation of the nodes, in which a
    port fed by its own gate swaps with the first port it can swap with.
    """
    q = draw(st.integers(2, 3))
    arities = draw(st.lists(st.integers(1, 2), min_size=2, max_size=4))
    n = sum(arities)
    assume(2 * max(arities) <= n)  # a gate of k ports needs k nodes of other gates
    b = GNetworkBuilder(q)
    for j, k in enumerate(arities):
        rows = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * k), min_size=q**k, max_size=q**k))
        b.new_gate(Gate(f"G{j}", q, k, k, tuple(rows)))
    gate = [j for j, k in enumerate(arities) for _ in range(k)]  # of each port, and each node
    wiring = list(draw(st.permutations(range(n))))
    for i in range(n):
        if gate[wiring[i]] == gate[i]:
            i2 = next(
                i2 for i2 in range(n) if gate[i] != gate[wiring[i2]] and gate[wiring[i]] != gate[i2]
            )
            wiring[i], wiring[i2] = wiring[i2], wiring[i]
    for j, k in enumerate(arities):
        b.connect(j, wiring[sum(arities[:j]) : sum(arities[: j + 1])])
    return b.build()


def assert_answers_as_tabulation(gn, configs, exhaustive=True):
    """gn answers as gnetwork_to_network(gn) on every entry point, and stays as it was."""
    unstepped = GNetwork(gn.alphabet, gn.gates, gn.inputs, gn.outputs)
    doc = gnetwork_to_json(gn)
    net = gnetwork_to_network(gn)
    for x in configs:
        assert step(gn, x) == step(net, x)
        assert analyze_orbit(gn, x) == analyze_orbit(net, x)
    for b in (1, 7):
        lanes = [configs[(5 * i) % len(configs)] for i in range(b)]
        xs = [pack_lanes(col, net.lane_bytes) for col in zip(*lanes)]
        assert step_batch(gn, xs, b) == step_batch(net, xs, b)
    if exhaustive:
        assert attractors(gn) == attractors(net)
    mode = "exhaustive" if exhaustive else "sample"
    for time in (1, 2):
        emb = replace(identity_embedding(net), time=time)
        want = verify_simulation(net, net, emb, mode=mode, samples=50, seed=3)
        assert verify_simulation(gn, net, emb, mode=mode, samples=50, seed=3) == want
        assert verify_simulation(net, gn, emb, mode=mode, samples=50, seed=3) == want
    assert to_dot(gn) == to_dot(net)
    assert network_to_json(gn) == network_to_json(net)
    assert gn == unstepped and hash(gn) == hash(unstepped)
    assert gnetwork_to_json(gn) == doc and gn.network is gn.network


@settings(max_examples=60, deadline=None)
@given(random_gnetworks())
def test_a_gnetwork_answers_as_its_tabulation(gn):
    assert_answers_as_tabulation(gn, list(product(range(gn.alphabet), repeat=gn.n)))


def test_the_showcase_gnetworks_answer_as_their_tabulations():
    gn, marked = prime_rotations(6)  # rings of 2, 3 and 5: 1,024 configurations
    assert_answers_as_tabulation(gn, [marked, *product((0, 1), repeat=gn.n)][::37])
    gn, start = gt_transient_network(3)  # one ring and the latch: 3^9 configurations
    assert_answers_as_tabulation(gn, [start, *product(range(3), repeat=gn.n)][::997])
    gn, start = gt_transient_network(6)  # 3^21 configurations: sampled
    rng = Random(5)
    configs = [start] + [tuple(rng.randrange(3) for _ in range(gn.n)) for _ in range(20)]
    assert_answers_as_tabulation(gn, configs, exhaustive=False)


def test_a_walked_model_pickles_copies_and_compares_equal(monkeypatch):
    compiled = []
    original = core.compile_step

    def counted(net):
        compiled.append(net.n)
        return original(net)

    monkeypatch.setattr(core, "compile_step", counted)
    wire = gol.build_wire()
    gn, marked = prime_rotations(6)
    for model, x in ((odometer(4), (5,) * 4), (wire, (0,) * wire.n), (gn, marked)):
        fresh = copy.deepcopy(model)
        path = walk_orbit(model, x)
        assert compiled[-1] == model.n
        done = len(compiled)
        assert walk_orbit(model, x) == path and len(compiled) == done  # compiled once
        for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model), copy.copy(model)):
            assert clone == model == fresh
            assert walk_orbit(clone, x) == path
