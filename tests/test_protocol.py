"""One step protocol: a Csan is stepped, walked, verified, drawn and written as itself.

Every entry point that takes a model answers on a Csan c as on its
tabulation `csan_to_network(c)`, and the tabulation that c keeps for
this is invisible: c still equals an unstepped copy and writes the same
document.
"""

from dataclasses import replace
from itertools import product

from hypothesis import given, settings

from artifact.core import (
    analyze_orbit,
    attractors,
    interaction_graph,
    network_to_json,
    pack_lanes,
    step,
    step_batch,
    to_dot,
)
from artifact.csan import Csan, csan_step, csan_to_json, csan_to_network, interaction_graph_csan
from artifact.glue import check_pseudo_orbits, make_pseudo_orbit
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
