"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` and nothing else that varies,
so the same seed always yields the same inputs. The
program under test only ever sees the generated objects or documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from artifact import core, gnet, problems

NOR = gnet.NOR_2_2


# ---------------------------------------------------------------------------
# Closed NOR_2_2 gate networks


def nor_ring(k: int) -> gnet.GNetwork:
    """Gate i reads output 1 of gate i-1 and output 0 of gate i+1."""
    b = gnet.GNetworkBuilder(2)
    outs = [b.new_gate(NOR)[1] for _ in range(k)]
    for i in range(k):
        b.connect(i, [outs[(i - 1) % k][1], outs[(i + 1) % k][0]])
    return b.build()


def nor_permutation(k: int, rng: random.Random) -> gnet.GNetwork:
    """Inputs wired by a uniform random permutation of the 2k gate outputs.

    Permutations that make a gate read its own output are redrawn,
    because a gate network may not feed a gate from itself.
    """
    if k < 2:
        raise ValueError("a permutation wiring needs at least two gates")
    n = 2 * k
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        if all({perm[2 * j], perm[2 * j + 1]}.isdisjoint({2 * j, 2 * j + 1}) for j in range(k)):
            break
    b = gnet.GNetworkBuilder(2)
    for _ in range(k):
        b.new_gate(NOR)
    for j in range(k):
        b.connect(j, perm[2 * j : 2 * j + 2])
    return b.build()


def nor_network(k: int, wiring: str, rng: random.Random) -> gnet.GNetwork:
    if wiring == "ring":
        return nor_ring(k)
    if wiring == "perm":
        return nor_permutation(k, rng)
    raise ValueError(f"unknown wiring {wiring!r}")


# ---------------------------------------------------------------------------
# Random Boolean networks


def random_boolean_network(n: int, k: int, rng: random.Random) -> core.Network:
    """n nodes, each reading k distinct random nodes through a random table."""
    rules = []
    for _ in range(n):
        deps = tuple(rng.sample(range(n), k))
        rules.append((deps, tuple(rng.randrange(2) for _ in range(2**k))))
    return core.make_network(2, rules)


def shift_register(n: int, rng: random.Random) -> core.Network:
    """Random nonlinear feedback shift register on n >= 4 binary nodes.

    Node i < n-1 copies node i+1; node n-1 takes x_0 XOR g(x_a, x_b, x_c)
    for three random taps and a random table g. The XOR with x_0 makes
    the global map a bijection, so every orbit is a pure cycle.
    """
    taps = rng.sample(range(1, n), 3)
    g = [rng.randrange(2) for _ in range(8)]
    table = tuple((idx & 1) ^ g[idx >> 1] for idx in range(16))
    rules = [((i + 1,), (0, 1)) for i in range(n - 1)]
    rules.append(((0, *taps), table))
    return core.make_network(2, rules)


# ---------------------------------------------------------------------------
# Reference orbits


@dataclass(frozen=True)
class Orbit:
    """Orbit of one start configuration, found without the library's walkers.

    Only the start, the transient and the period are kept; any point of
    the orbit is found again by stepping, so a reference answer takes
    constant memory however long the orbit is.
    """

    net: core.Network
    start: tuple[int, ...]
    transient: int
    period: int

    def at(self, t: int) -> tuple[int, ...]:
        """F^t(start), with t folded into the first transient + period steps."""
        if t >= self.transient:
            t = self.transient + (t - self.transient) % self.period
        return core.iterate(self.net, self.start, t)

    def walk(self):
        """Every configuration of the orbit once, from the start on."""
        cur = self.start
        for _ in range(self.transient + self.period):
            yield cur
            cur = core.step(self.net, cur)


def reference_orbit(net: core.Network, x, limit: int) -> Orbit | None:
    """Transient and period by Brent's cycle detection over `core.step`.

    None once the search has taken more than 3 * `limit` steps without
    closing the cycle, which happens only for orbits longer than `limit`.
    """
    x = tuple(x)
    # Find the period: the tortoise jumps to the hare at each power of two.
    power = period = 1
    tortoise, hare = x, core.step(net, x)
    steps = 1
    while tortoise != hare:
        if steps > 3 * limit:
            return None
        if power == period:
            tortoise, power, period = hare, 2 * power, 0
        hare = core.step(net, hare)
        period += 1
        steps += 1
    # Find the transient: two walkers a period apart meet at its end.
    tortoise, hare = x, core.iterate(net, x, period)
    transient = 0
    while tortoise != hare:
        tortoise, hare = core.step(net, tortoise), core.step(net, hare)
        transient += 1
    return Orbit(net, x, transient, period)


# ---------------------------------------------------------------------------
# Walk instances


@dataclass(frozen=True)
class WalkCase:
    """One `cli.run` job: its command, input document and expected result.

    For an oracle, `answer` is the expected boolean; for `analyze`,
    `answer` is the expected (transient, period). `orbit_len` is the
    transient plus the period of the walked orbit.
    """

    problem: str
    doc: dict
    config: tuple[int, ...] | None
    answer: object
    exit_code: int
    orbit_len: int


# Orbits walked for reference answers are far shorter than this.
ORBIT_LIMIT = 1 << 20
SHIFT_DRAWS = 8


def _walk_start(family: str, size: int, rng: random.Random, target: int):
    """(network, start, reference orbit) for one family.

    `target` is the wanted orbit length of a shift register.
    """
    if family == "odometer":
        net = problems.odometer(size)
        x = tuple(rng.randrange(3) for _ in range(size))
        return net, x, reference_orbit(net, x, ORBIT_LIMIT)
    if family == "odometer-spare":
        # The spare counter runs a long transient before the count. The
        # start is fixed because the transient's length depends on it.
        net = problems.odometer(size)
        x = (5,) * size
        return net, x, reference_orbit(net, x, ORBIT_LIMIT)
    if family == "gt":
        gn, start = gnet.gt_transient_network(size)
        net = gnet.gnetwork_to_network(gn)
        return net, start, reference_orbit(net, start, ORBIT_LIMIT)
    if family == "shift":
        # Of a fixed number of draws, keep the orbit whose length is
        # nearest the target, so job cost hardly depends on the seed.
        best = None
        for _ in range(SHIFT_DRAWS):
            net = shift_register(size, rng)
            x = tuple(rng.randrange(2) for _ in range(size))
            orb = reference_orbit(net, x, 2 * target)
            miss = abs(orb.period - target) if orb is not None else target
            if best is None or miss < best[0]:
                best = (miss, net, x, orb)
        if best[3] is None:
            raise ValueError(f"no shift-register orbit of length near {target}")
        return best[1:]
    raise ValueError(f"unknown family {family!r}")


def _unreached(net: core.Network, orb: Orbit, rng: random.Random) -> tuple[int, ...]:
    while True:
        y = tuple(rng.randrange(net.alphabet) for _ in range(net.n))
        if all(y != z for z in orb.walk()):
            return y


def walk_case(family: str, size: int, problem: str, rng: random.Random, target: int = 0) -> WalkCase:
    """One seeded instance of `problem` on a `family` network, with its answer.

    A problem written "reach-yes" or "reach-no" fixes the reach answer,
    so the job mix does not depend on the seed.
    """
    net, x, orb = _walk_start(family, size, rng, target)
    orbit_len = orb.transient + orb.period
    if problem == "analyze":
        doc = core.network_to_json(net)
        return WalkCase("analyze", doc, x, (orb.transient, orb.period), 0, orbit_len)
    if problem == "b-pred":
        v = rng.randrange(net.n)
        t = rng.randrange(1 << 40, 1 << 50)
        truth = orb.at(t)[v]
        want = rng.random() < 0.5
        q = truth if want else (truth + 1 + rng.randrange(net.alphabet - 1)) % net.alphabet
        inst = problems.make_pred_instance(net, v, x, q, t, "binary")
    elif problem == "pred-chg":
        v = rng.randrange(net.n)
        k = rng.randint(1, 5)
        # Grid points k*t for t up to transient + period cover every
        # position the sampled orbit can ever show.
        want = False
        cur = x
        for _ in range(orbit_len):
            cur = core.iterate(net, cur, k)
            if cur[v] != x[v]:
                want = True
                break
        inst = problems.make_pred_chg_instance(net, v, x, k)
    elif problem in ("reach-yes", "reach-no"):
        want = problem == "reach-yes"
        y = orb.at(rng.randrange(orbit_len)) if want else _unreached(net, orb, rng)
        inst = problems.make_reach_instance(net, x, y)
        problem = "reach"
    else:
        raise ValueError(f"unknown problem {problem!r}")
    return WalkCase(problem, problems.instance_to_json(inst), None, want, 0 if want else 1, orbit_len)
