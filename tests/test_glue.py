"""Dowel glueing, pseudo-orbits, stitching, and family-preserving glue."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import docs
from artifact.core import InvalidConfigError, index_config, make_network, step, trace
from artifact.csan import build_lifelike, build_threshold, csan_in_family, csan_step, csan_to_network, family_spec
from artifact.glue import (
    InvalidGlueError,
    Junction,
    check_dowel_structure,
    PseudoOrbit,
    PseudoOrbitReport,
    check_pseudo_orbit,
    check_pseudo_orbits,
    csan_glue,
    dowel_from_json,
    dowel_junction,
    dowel_to_json,
    glue_networks,
    glue_parts,
    glue_pseudo_orbits,
    glued_numbering,
    make_dowel,
    make_pseudo_orbit,
    pseudo_orbit_from_json,
    pseudo_orbit_to_json,
)

from conftest import random_glue_instance, rotation, xor_ring


def all_configs(q, n):
    return (index_config(i, q, n) for i in range(q**n))


def definitional_step(f1, f2, d, z):
    """Oracle: pull back through each side's reindexing, step, reassemble."""
    node_maps, owner = glued_numbering((f1.n, f2.n), [dowel_junction(d)])
    stepped = [step(f, [z[m[v]] for v in range(f.n)]) for f, m in zip((f1, f2), node_maps)]
    return tuple(stepped[j][v] for j, v in owner)


# ---------------------------------------------------------------------------
# Dowels and network glueing


def test_dowel_validation():
    ident = make_network(2, [((0,), (0, 1))])
    good = make_dowel(["a"], [], {"a": 0}, {"a": 0})
    good.validate(1, 1)
    with pytest.raises(InvalidGlueError):
        make_dowel(["a"], ["a"], {"a": 0}, {"a": 0}).validate(1, 1)
    with pytest.raises(InvalidGlueError):
        make_dowel(["a", "b"], [], {"a": 0, "b": 0}, {"a": 0, "b": 1}).validate(2, 2)
    with pytest.raises(InvalidGlueError):
        make_dowel(["a"], [], {"a": 5}, {"a": 0}).validate(1, 1)
    with pytest.raises(InvalidGlueError):
        make_dowel(["a"], [], {"b": 0}, {"a": 0}).validate(1, 1)
    with pytest.raises(InvalidGlueError):
        make_dowel([3], [], {3: 0}, {3: 0}).validate(1, 1)
    with pytest.raises(InvalidGlueError):
        glue_networks(ident, make_network(3, [((0,), (0, 1, 2))]), good)


@pytest.mark.parametrize("image", [1.0, True], ids=repr)
def test_dowel_validation_refuses_an_image_that_is_not_an_int(image):
    # 1.0 used to end in a bare TypeError, and True glued as node 1.
    f = make_network(2, [((0,), (0, 1))] * 2)
    for tag in ("phi1", "phi2"):
        phi = {"phi1": {"a": 0}, "phi2": {"a": 0}, tag: {"a": image}}
        with pytest.raises(InvalidGlueError, match=f"expected integers for {tag} images"):
            glue_networks(f, f, make_dowel(["a"], [], phi["phi1"], phi["phi2"]))


def test_empty_dowel_is_disjoint_union():
    ident = make_network(2, [((0,), (0, 1))])
    d = make_dowel([], [], {}, {})
    glued = glue_networks(ident, ident, d)
    assert glued.n == 2
    for x in all_configs(2, 2):
        assert step(glued, x) == x


def test_numbering_order():
    d = make_dowel(["a"], ["b"], {"a": 2, "b": 0}, {"a": 1, "b": 2})
    node_maps, owner = glued_numbering((3, 3), [dowel_junction(d)])
    assert owner == [(0, 2), (1, 2), (0, 1), (1, 0)]
    assert node_maps == [{0: 1, 1: 2, 2: 0}, {0: 3, 1: 0, 2: 1}]


def test_numbering_order_of_chained_junctions():
    # "a" fuses node 1 of part 0 with node 0 of part 1, ruled by part 0;
    # then "b" fuses node 1 of part 1 with node 0 of part 2, ruled by part 2.
    first = Junction(("a",), (), {"a": (0, 1)}, {"a": (1, 0)})
    second = Junction((), ("b",), {"b": (1, 1)}, {"b": (2, 0)})
    node_maps, owner = glued_numbering((2, 2, 2), [first, second])
    assert owner == [(2, 0), (0, 1), (0, 0), (2, 1)]
    assert node_maps == [{0: 2, 1: 1}, {0: 1, 1: 0}, {0: 0, 1: 3}]


def test_a_node_fused_twice_is_refused():
    # "a" and "b" both place a name on node 0 of part 0
    first = Junction(("a",), (), {"a": (0, 0)}, {"a": (1, 0)})
    second = Junction(("b",), (), {"b": (0, 0)}, {"b": (1, 1)})
    net = rotation(2)
    for junctions in ([first, second], [second, first]):
        with pytest.raises(InvalidGlueError, match="node 0 of part 0 is fused twice"):
            glued_numbering((2, 2), junctions)
        with pytest.raises(InvalidGlueError, match="node 0 of part 0 is fused twice"):
            glue_parts((net, net), junctions)
    # one junction that places two names on node 1 of part 1
    twice = Junction(("a", "b"), (), {"a": (0, 0), "b": (0, 1)}, {"a": (1, 1), "b": (1, 1)})
    with pytest.raises(InvalidGlueError, match="node 1 of part 1 is fused twice"):
        glued_numbering((2, 2), [twice])


def test_one_sided_dowel_keeps_first_network():
    f1 = xor_ring(3)
    f2 = rotation(3)
    d = make_dowel(["a"], [], {"a": 0}, {"a": 1})
    glued = glue_networks(f1, f2, d)
    (m1, _), _ = glued_numbering((3, 3), [dowel_junction(d)])
    for z in all_configs(2, glued.n):
        got = step(glued, z)
        want = definitional_step(f1, f2, d, z)
        assert got == want
        # First-network nodes evolve exactly as in the first network.
        x1 = [z[m1[v]] for v in range(3)]
        s1 = step(f1, x1)
        for v in range(3):
            assert got[m1[v]] == s1[v]


def test_glue_matches_definitional_oracle_randomized():
    rng = random.Random(20240811)
    for _ in range(25):
        f1, f2, d, _, _ = random_glue_instance(rng, max_nodes=4)
        glued = glue_networks(f1, f2, d)
        if glued.alphabet**glued.n > 2**12:
            continue
        for z in all_configs(glued.alphabet, glued.n):
            assert step(glued, z) == definitional_step(f1, f2, d, z)


# ---------------------------------------------------------------------------
# Pseudo-orbits


def test_true_orbit_passes():
    net = xor_ring(3)
    orbit = trace(net, (1, 0, 0), 5)
    p = make_pseudo_orbit(orbit)
    report = check_pseudo_orbit(net, p)
    assert report.ok
    assert report.message() == "pseudo-orbit respected"


def test_corrupted_entry_fails_at_location():
    net = xor_ring(3)
    orbit = [list(x) for x in trace(net, (1, 0, 0), 4)]
    want = orbit[2][1]
    orbit[2][1] = 1 - want
    report = check_pseudo_orbit(net, make_pseudo_orbit(orbit))
    assert not report.ok
    # Breaking x^2 is seen when comparing step(x^1) against x^2, and it
    # also derails the transition out of t=2 at node 1's readers.
    assert (1, 1) in {(t, v) for t, v, _, _ in report.failures}
    assert "t=1" in report.message()
    exempting = make_pseudo_orbit(orbit, exempt={1})
    partial = check_pseudo_orbit(net, exempting)
    assert not partial.ok
    assert all(v != 1 for _, v, _, _ in partial.failures)


def test_pseudo_orbit_shape_errors():
    net = xor_ring(3)
    with pytest.raises(InvalidGlueError):
        make_pseudo_orbit([])
    with pytest.raises(InvalidGlueError):
        make_pseudo_orbit([(0, 0, 0), (0, 0)])
    with pytest.raises(InvalidConfigError):
        check_pseudo_orbit(net, make_pseudo_orbit([(0, 0)]))
    with pytest.raises(InvalidConfigError):
        check_pseudo_orbit(net, make_pseudo_orbit([(0, 0, 5)]))
    with pytest.raises(InvalidConfigError):
        check_pseudo_orbit(net, make_pseudo_orbit([(0, 0, 0)], exempt={9}))


def reference_check_pseudo_orbit(net, p):
    """The per-configuration loop `check_pseudo_orbits` replaced, kept as its oracle."""
    if any(len(x) != net.n for x in p.configs):
        raise InvalidConfigError("pseudo-orbit does not match the network size")
    if any(not 0 <= s < net.alphabet for x in p.configs for s in x):
        raise InvalidConfigError("pseudo-orbit state outside the alphabet")
    if any(v < 0 or v >= net.n for v in p.exempt):
        raise InvalidConfigError("exempt set outside the node range")
    failures = []
    for t in range(len(p.configs) - 1):
        fx = step(net, p.configs[t])
        nxt = p.configs[t + 1]
        for v in range(net.n):
            if v in p.exempt:
                continue
            if nxt[v] != fx[v]:
                failures.append((t, v, fx[v], nxt[v]))
    return PseudoOrbitReport(not failures, tuple(failures))


def corrupted_runs(rng, net, p):
    """p, and runs of net made from it: states changed, exempt sets changed, cut short."""
    q = net.alphabet
    runs = [p, PseudoOrbit(p.configs[:1], p.exempt), PseudoOrbit(p.configs, frozenset())]
    for _ in range(3):
        configs = [list(x) for x in p.configs]
        for _ in range(rng.randint(1, 4)):
            if net.n:
                configs[rng.randrange(len(configs))][rng.randrange(net.n)] = rng.randrange(q)
        exempt = {v for v in range(net.n) if rng.random() < 0.3}
        runs.append(make_pseudo_orbit(configs[: rng.randint(1, len(configs))], exempt))
    rng.shuffle(runs)
    return runs


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_check_pseudo_orbits_matches_reference(seed):
    rng = random.Random(seed)
    f1, f2, d, p1, p2 = random_glue_instance(rng)
    glued = glue_networks(f1, f2, d)
    z = glue_pseudo_orbits(f1, f2, d, p1, p2)
    for net, p in ((f1, p1), (f2, p2), (glued, z)):
        runs = corrupted_runs(rng, net, p)
        assert check_pseudo_orbits(net, runs) == [reference_check_pseudo_orbit(net, r) for r in runs]
        assert [check_pseudo_orbit(net, r) for r in runs] == check_pseudo_orbits(net, runs)
    assert check_pseudo_orbits(f1, []) == []


def test_check_pseudo_orbits_refuses_the_first_malformed_run():
    net = xor_ring(3)
    good = make_pseudo_orbit(trace(net, (1, 0, 0), 3))
    for bad, match in (
        (make_pseudo_orbit([(0, 0)]), "network size"),
        (make_pseudo_orbit([(0, 0, 0), (0, 2, 0)]), "outside the alphabet"),
        (make_pseudo_orbit([(0, 0, 0), (0, -1, 0)]), "outside the alphabet"),
        (make_pseudo_orbit([(0, 0, 0)], exempt={3}), "node range"),
    ):
        with pytest.raises(InvalidConfigError, match=match):
            reference_check_pseudo_orbit(net, bad)
        with pytest.raises(InvalidConfigError, match=match):
            check_pseudo_orbits(net, [good, bad, make_pseudo_orbit([(0,)])])
    huge = make_network(2**40, [((), (2**40 - 1,))])
    with pytest.raises(InvalidConfigError, match="32-bit lane"):
        check_pseudo_orbit(huge, make_pseudo_orbit([(0,), (2**40 - 1,)]))


def test_stitch_disjoint_true_orbits():
    f1, f2 = xor_ring(3), rotation(3)
    d = make_dowel([], [], {}, {})
    p1 = make_pseudo_orbit(trace(f1, (1, 0, 0), 4))
    p2 = make_pseudo_orbit(trace(f2, (1, 1, 0), 4))
    z = glue_pseudo_orbits(f1, f2, d, p1, p2)
    assert z.exempt == frozenset()
    assert check_pseudo_orbit(glue_networks(f1, f2, d), z).ok


def test_stitch_random_instances():
    rng = random.Random(7011)
    for _ in range(40):
        f1, f2, d, p1, p2 = random_glue_instance(rng)
        assert check_pseudo_orbit(f1, p1).ok
        assert check_pseudo_orbit(f2, p2).ok
        z = glue_pseudo_orbits(f1, f2, d, p1, p2)
        report = check_pseudo_orbit(glue_networks(f1, f2, d), z)
        assert report.ok, report.message()


def test_trace_mismatch_rejected():
    f1 = xor_ring(3)
    f2 = rotation(3)
    d = make_dowel(["a"], [], {"a": 0}, {"a": 0})
    p1 = make_pseudo_orbit([(1, 0, 0), tuple(step(f1, (1, 0, 0)))])
    bad_start = (0, 0, 0)
    p2 = make_pseudo_orbit(
        [bad_start, tuple(step(f2, bad_start))], exempt={0}
    )
    with pytest.raises(InvalidGlueError) as exc:
        glue_pseudo_orbits(f1, f2, d, p1, p2)
    assert "trace mismatch" in str(exc.value)


def test_exempt_own_half_rejected():
    f1 = xor_ring(3)
    f2 = rotation(3)
    d = make_dowel(["a"], [], {"a": 0}, {"a": 0})
    start = (1, 0, 0)
    p1 = make_pseudo_orbit([start, tuple(step(f1, start))], exempt={0})
    p2 = make_pseudo_orbit([start, tuple(step(f2, start))], exempt={0})
    with pytest.raises(InvalidGlueError):
        glue_pseudo_orbits(f1, f2, d, p1, p2)
    with pytest.raises(InvalidGlueError):
        glue_pseudo_orbits(f1, f2, d, p1, make_pseudo_orbit([start]))


@pytest.mark.parametrize("change", [lambda x: x[:2], lambda x: x + (0,)], ids=["short", "long"])
@pytest.mark.parametrize("side", [0, 1])
def test_stitching_refuses_runs_of_the_wrong_length(change, side):
    f1, f2 = xor_ring(3), rotation(3)
    d = make_dowel(["a"], [], {"a": 0}, {"a": 0})
    runs = [make_pseudo_orbit(trace(f, (1, 0, 0), 2)) for f in (f1, f2)]
    runs[side] = make_pseudo_orbit([change(x) for x in runs[side].configs])
    with pytest.raises(InvalidConfigError, match="network size"):
        glue_pseudo_orbits(f1, f2, d, *runs)


@pytest.mark.parametrize("side", [0, 1])
def test_stitching_refuses_an_exempt_node_outside_the_network(side):
    f1, f2 = xor_ring(3), rotation(3)
    d = make_dowel(["a"], [], {"a": 0}, {"a": 0})
    runs = [make_pseudo_orbit(trace(f, (1, 0, 0), 2)) for f in (f1, f2)]
    runs[side] = make_pseudo_orbit(runs[side].configs, exempt={7})
    with pytest.raises(InvalidConfigError, match="node range"):
        glue_pseudo_orbits(f1, f2, d, *runs)


# ---------------------------------------------------------------------------
# Family-preserving glueing


def lifelike_path(n):
    return build_lifelike(n, [(i, i + 1) for i in range(n - 1)], {3}, {2, 3})


def test_csan_glue_two_paths_stays_lifelike():
    c1 = lifelike_path(3)
    c2 = lifelike_path(3)
    d = make_dowel(["a"], ["b"], {"a": 1, "b": 2}, {"a": 0, "b": 1})
    glued = csan_glue(c1, c2, d)
    assert glued.n == 4
    assert set(glued.edges) == {(0, 1), (0, 2), (1, 3)}
    assert csan_in_family(glued, family_spec("lifelike"))
    net_direct = glue_networks(csan_to_network(c1), csan_to_network(c2), d)
    via_csan = csan_to_network(glued)
    for x in all_configs(2, 4):
        assert step(via_csan, x) == step(net_direct, x)
        assert csan_step(glued, x) == step(net_direct, x)


def test_csan_glue_empty_dowel():
    c1 = lifelike_path(2)
    c2 = lifelike_path(2)
    glued = csan_glue(c1, c2, make_dowel([], [], {}, {}))
    assert glued.n == 4
    assert set(glued.edges) == {(0, 1), (2, 3)}


def test_csan_glue_condition_violations():
    c1 = lifelike_path(3)
    c2 = lifelike_path(3)
    # Second half lands mid-path: its neighbors leave the dowel image.
    bad = make_dowel(["a"], ["b"], {"a": 0, "b": 1}, {"a": 0, "b": 1})
    with pytest.raises(InvalidGlueError) as exc:
        csan_glue(c1, c2, bad)
    assert "first network" in str(exc.value)
    # Same shape mirrored on the second network.
    bad2 = make_dowel(["a"], ["b"], {"a": 1, "b": 2}, {"a": 1, "b": 2})
    with pytest.raises(InvalidGlueError) as exc2:
        csan_glue(c1, c2, bad2)
    assert "second network" in str(exc2.value)
    # Dowel-induced subgraphs disagree: edge on one side only.
    no_edge = make_dowel(["a"], ["b"], {"a": 1, "b": 2}, {"a": 0, "b": 2})
    with pytest.raises(InvalidGlueError) as exc3:
        csan_glue(c1, lifelike_path(3), no_edge)
    assert "induced dowel subgraphs differ" in str(exc3.value)
    # Same structure but different vertex rules on the dowel.
    thr = build_threshold(3, [(0, 1), (1, 2)], (1, 1, 1))
    d = make_dowel(["a"], ["b"], {"a": 1, "b": 2}, {"a": 0, "b": 1})
    with pytest.raises(InvalidGlueError) as exc4:
        csan_glue(c1, thr, d)
    assert "vertex labels differ" in str(exc4.value)
    with pytest.raises(InvalidGlueError):
        csan_glue(
            c1,
            build_lifelike(3, [(0, 1), (1, 2)], {3}, {2, 3}),
            make_dowel([3], [], {3: 0}, {3: 0}),
        )


def test_dowel_guards_see_no_edge_between_parts():
    # Nodes 0 and 1 are adjacent in a two-node path, but placed in two
    # different paths they share no edge, like two isolated nodes.
    pair, isolated = lifelike_path(2), build_lifelike(2, [], {3}, {2, 3})
    parts = (pair, pair, isolated)
    apart = {"a": (0, 0), "b": (1, 1)}
    alone = {"a": (2, 0), "b": (2, 1)}
    together = {"a": (0, 0), "b": (0, 1)}
    check_dowel_structure(parts, Junction(("a", "b"), (), apart, alone))
    check_dowel_structure(parts, Junction(("a", "b"), (), together, together))
    with pytest.raises(InvalidGlueError, match="induced dowel subgraphs differ"):
        check_dowel_structure(parts, Junction(("a", "b"), (), apart, together))


# ---------------------------------------------------------------------------
# Serialization


def test_dowel_json_roundtrip(tmp_path):
    d = make_dowel(["a"], ["b"], {"a": 2, "b": 0}, {"a": 1, "b": 2})
    doc = dowel_to_json(d)
    assert doc["C1"] == ["a"] and doc["C2"] == ["b"]
    assert dowel_from_json(doc) == d
    path = tmp_path / "dowel.json"
    docs.write(dowel_to_json(d), path, pretty=True)
    assert dowel_from_json(docs.read(path)) == d
    with pytest.raises(InvalidGlueError):
        dowel_from_json({"format": "network"})
    with pytest.raises(InvalidGlueError):
        dowel_from_json({"format": "dowel", "C1": []})


def test_pseudo_orbit_json_roundtrip(tmp_path):
    p = make_pseudo_orbit([(0, 1), (1, 0), (0, 1)], exempt={1})
    doc = pseudo_orbit_to_json(p)
    assert doc["exempt"] == [1]
    assert pseudo_orbit_from_json(doc) == p
    path = tmp_path / "orbit.json"
    docs.write(pseudo_orbit_to_json(p), path)
    assert pseudo_orbit_from_json(docs.read(path)) == p
    with pytest.raises(InvalidGlueError):
        pseudo_orbit_from_json({"format": "pseudoorbit", "configs": []})
