"""Shared hand-built fixtures.

Networks here are written out table-by-table on purpose: they serve as
independent oracles for the builder code under test, so they must not
go through that code themselves.
"""

from __future__ import annotations

from hypothesis import strategies as st

from artifact.core import Network, make_network


def xor_ring(n: int) -> Network:
    """Ring where each node becomes the XOR of its two ring neighbours."""
    rules = []
    for i in range(n):
        left, right = (i - 1) % n, (i + 1) % n
        # first dep varies fastest: table[a + 2b] for (left=a, right=b)
        rules.append(((left, right), (0, 1, 1, 0)))
    return make_network(2, rules)


def rotation(n: int) -> Network:
    """x_i' = x_{i-1}: a pure shift with period n orbits."""
    return make_network(2, [(((i - 1) % n,), (0, 1)) for i in range(n)])


def and_funnel() -> Network:
    """2 nodes: node 0 = AND(node0, node1), node 1 holds its state."""
    return make_network(2, [((0, 1), (0, 0, 0, 1)), ((1,), (0, 1))])


def constant_net(n: int, q: int, value: int) -> Network:
    return make_network(q, [((), (value,)) for _ in range(n)])


def random_network(rng, n: int, q: int, max_deg: int = 3) -> Network:
    """Seeded random network with bounded declared in-degree."""
    rules = []
    for _ in range(n):
        k = rng.randint(0, min(max_deg, n))
        deps = tuple(rng.sample(range(n), k))
        table = tuple(rng.randrange(q) for _ in range(q**k))
        rules.append((deps, table))
    return make_network(q, rules)


@st.composite
def small_networks(draw, min_q=2, max_n=4, max_deg=2):
    """Hypothesis strategy: small networks of alphabet min_q..3."""
    q = draw(st.integers(min_q, 3))
    n = draw(st.integers(1, max_n))
    rules = []
    for _ in range(n):
        k = draw(st.integers(0, min(max_deg, n)))
        deps = tuple(draw(st.permutations(range(n)))[:k])
        table = tuple(draw(st.integers(0, q - 1)) for _ in range(q**k))
        rules.append((deps, table))
    return make_network(q, rules)


def random_glue_instance(rng, max_nodes: int = 5):
    """Two random networks, a random dowel, and compatible pseudo-orbits.

    The sequences are produced by stepping each side and overwriting
    exactly the exempt nodes, then forcing dowel agreement by copying
    the driven half across. Returns (f1, f2, dowel, p1, p2).
    """
    from artifact.glue import make_dowel, make_pseudo_orbit

    q = rng.choice([2, 2, 3])
    n1 = rng.randint(1, max_nodes)
    n2 = rng.randint(1, max_nodes)
    f1 = random_network(rng, n1, q)
    f2 = random_network(rng, n2, q)
    k = rng.randint(0, min(n1, n2))
    names = [f"c{i}" for i in range(k)]
    split = rng.randint(0, k)
    c1, c2 = names[:split], names[split:]
    targets1 = rng.sample(range(n1), k)
    targets2 = rng.sample(range(n2), k)
    phi1 = dict(zip(names, targets1))
    phi2 = dict(zip(names, targets2))
    d = make_dowel(c1, c2, phi1, phi2)

    img1_c2 = {phi1[c] for c in c2}
    img2_c1 = {phi2[c] for c in c1}
    free1 = [v for v in range(n1) if v not in set(targets1)]
    free2 = [v for v in range(n2) if v not in set(targets2)]
    x_private = set(rng.sample(free1, rng.randint(0, len(free1))))
    y_private = set(rng.sample(free2, rng.randint(0, len(free2))))

    horizon = rng.randint(1, 5)
    x = [rng.randrange(q) for _ in range(n1)]
    y = [rng.randrange(q) for _ in range(n2)]
    for c in names:
        y[phi2[c]] = x[phi1[c]]
    xs, ys = [tuple(x)], [tuple(y)]
    from artifact.core import step

    for _ in range(horizon):
        fx = list(step(f1, xs[-1]))
        fy = list(step(f2, ys[-1]))
        for v in x_private:
            fx[v] = rng.randrange(q)
        for v in y_private:
            fy[v] = rng.randrange(q)
        for c in c2:
            fx[phi1[c]] = fy[phi2[c]]
        for c in c1:
            fy[phi2[c]] = fx[phi1[c]]
        xs.append(tuple(fx))
        ys.append(tuple(fy))
    p1 = make_pseudo_orbit(xs, x_private | img1_c2)
    p2 = make_pseudo_orbit(ys, y_private | img2_c1)
    return f1, f2, d, p1, p2
