"""Finite automata networks with explicit local rule tables.

A network is a finite set of nodes over a common alphabet {0..q-1}.
Each node carries a dependency list and a lookup table for its local
update; the global map applies all local updates synchronously.

Table layout is row-major with the FIRST dependency varying fastest:
the entry for values (a_0, ..., a_{k-1}) on deps (d_0, ..., d_{k-1})
sits at index a_0 + a_1*q + a_2*q^2 + ...
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import docs
from .docs import ArtifactError  # the root error lives with the document layer

DEFAULT_MAX_STATES = 2**22


class InvalidNetworkError(ArtifactError, ValueError):
    """Malformed network: bad deps, table sizes or state values."""


class InvalidConfigError(ArtifactError, ValueError):
    """Configuration does not match the network (length or alphabet)."""


class BudgetExceededError(ArtifactError):
    """An exploration exceeded its state or time budget.

    Raised instead of silently truncating; callers that want partial
    results must pass a larger budget explicitly.
    """


@dataclass(frozen=True)
class Rule:
    """Local update rule of one node."""

    deps: tuple[int, ...]
    table: tuple[int, ...]


@dataclass(frozen=True)
class Network:
    """Automata network: shared alphabet size plus one rule per node."""

    alphabet: int
    rules: tuple[Rule, ...]

    @property
    def n(self) -> int:
        return len(self.rules)

    def validate(self) -> None:
        q = self.alphabet
        if q < 1:
            raise InvalidNetworkError("alphabet size must be >= 1")
        for v, rule in enumerate(self.rules):
            if len(set(rule.deps)) != len(rule.deps):
                raise InvalidNetworkError(f"node {v}: duplicate dependency")
            for d in rule.deps:
                if not 0 <= d < self.n:
                    raise InvalidNetworkError(f"node {v}: dep {d} out of range")
            if len(rule.table) != q ** len(rule.deps):
                raise InvalidNetworkError(
                    f"node {v}: table has {len(rule.table)} entries, "
                    f"expected {q ** len(rule.deps)}"
                )
            for s in rule.table:
                if not 0 <= s < q:
                    raise InvalidNetworkError(f"node {v}: state {s} out of range")


def make_network(alphabet: int, rules: Iterable[tuple[Sequence[int], Sequence[int]]]) -> Network:
    """Build and validate a network from (deps, table) pairs."""
    net = Network(alphabet, tuple(Rule(tuple(d), tuple(t)) for d, t in rules))
    net.validate()
    return net


def check_config(net: Network, x: Sequence[int]) -> tuple[int, ...]:
    """x as a tuple of int states, one per node; reads only net.n and net.alphabet."""
    x = tuple(x)
    if len(x) != net.n:
        raise InvalidConfigError(f"config has {len(x)} nodes, network has {net.n}")
    for s in x:
        if type(s) is not int or not 0 <= s < net.alphabet:
            raise InvalidConfigError(f"state {s!r} out of alphabet range")
    return x


def step(net: Network, x: Sequence[int]) -> tuple[int, ...]:
    """One synchronous update of every node."""
    q = net.alphabet
    out = []
    for rule in net.rules:
        idx = 0
        m = 1
        for d in rule.deps:
            idx += x[d] * m
            m *= q
        out.append(rule.table[idx])
    return tuple(out)


def iterate(net: Network, x: Sequence[int], t: int) -> tuple[int, ...]:
    """t-fold iteration of the global map."""
    y = tuple(x)
    for _ in range(t):
        y = step(net, y)
    return y


def trace(net: Network, x: Sequence[int], t: int) -> list[tuple[int, ...]]:
    """Orbit prefix [x, F(x), ..., F^t(x)] with t+1 entries."""
    out = [tuple(x)]
    for _ in range(t):
        out.append(step(net, out[-1]))
    return out


@dataclass(frozen=True)
class OrbitAnalysis:
    """Eventually periodic structure of one orbit."""

    transient: int
    period: int
    cycle: tuple[tuple[int, ...], ...]


def walk_orbit(
    net: Network, x: Sequence[int], budget: int = DEFAULT_MAX_STATES
) -> tuple[list[tuple[int, ...]], int, int]:
    """Orbit of x up to its first repeat: (configs, transient, period).

    Raises BudgetExceededError once `budget` configurations have been
    visited without closing the cycle.
    """
    seen: dict[tuple[int, ...], int] = {}
    path: list[tuple[int, ...]] = []
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


def analyze_orbit(net: Network, x: Sequence[int], budget: int = DEFAULT_MAX_STATES) -> OrbitAnalysis:
    """Transient, period and cycle of the orbit of x (see walk_orbit)."""
    path, tau, period = walk_orbit(net, check_config(net, x), budget)
    return OrbitAnalysis(tau, period, tuple(path[tau:]))


def config_index(x: Sequence[int], q: int) -> int:
    """Encode a configuration as an integer, node 0 varying fastest."""
    idx = 0
    for s in reversed(x):
        idx = idx * q + s
    return idx


def index_config(idx: int, q: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(idx % q)
        idx //= q
    return tuple(out)


def _succ_range(args) -> list[int]:
    net, lo, hi = args
    q = net.alphabet
    n = net.n
    return [config_index(step(net, index_config(i, q, n)), q) for i in range(lo, hi)]


@dataclass(frozen=True)
class OrbitGraph:
    """Functional graph of the global map over all q^n configurations.

    succ[i] is the encoded successor of the configuration encoded by i.
    """

    alphabet: int
    n: int
    succ: tuple[int, ...]


def orbit_graph(net: Network, max_states: int = DEFAULT_MAX_STATES, jobs: int = 1) -> OrbitGraph:
    """Exhaustive successor table; refuses to enumerate past max_states."""
    n_conf = net.alphabet**net.n
    if n_conf > max_states:
        raise BudgetExceededError(
            f"{n_conf} configurations exceed the cap of {max_states}"
        )
    if jobs > 1 and n_conf > 4096:
        chunk = (n_conf + jobs - 1) // jobs
        ranges = [(net, lo, min(lo + chunk, n_conf)) for lo in range(0, n_conf, chunk)]
        succ: list[int] = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_succ_range, ranges):
                succ.extend(part)
    else:
        succ = _succ_range((net, 0, n_conf))
    return OrbitGraph(net.alphabet, net.n, tuple(succ))


@dataclass(frozen=True)
class Attractor:
    """One limit cycle together with the size of its basin."""

    cycle: tuple[tuple[int, ...], ...]
    basin_size: int


def attractors(net: Network, max_states: int = DEFAULT_MAX_STATES, jobs: int = 1) -> list[Attractor]:
    """All limit cycles of the global map with basin sizes.

    Basins partition the full configuration space; their sizes sum
    to q^n.
    """
    og = orbit_graph(net, max_states=max_states, jobs=jobs)
    succ = og.succ
    n_conf = len(succ)
    comp = [-1] * n_conf
    state = bytearray(n_conf)  # 0 new, 1 on current path, 2 done
    cycles: list[list[int]] = []
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
    q, n = og.alphabet, og.n
    return [
        Attractor(tuple(index_config(i, q, n) for i in cyc), basin[cid])
        for cid, cyc in enumerate(cycles)
    ]


def interaction_graph(net: Network) -> set[tuple[int, int]]:
    """Effective dependency edges (u, v): changing u can change F(x)_v.

    Computed from the tables, so declared-but-unused dependencies do
    not produce edges. This is the minimal communication graph.
    """
    q = net.alphabet
    edges = set()
    for v, rule in enumerate(net.rules):
        for j, u in enumerate(rule.deps):
            stride = q**j
            block = stride * q
            eff = False
            for base in range(0, len(rule.table), block):
                for off in range(stride):
                    first = rule.table[base + off]
                    for a in range(1, q):
                        if rule.table[base + off + a * stride] != first:
                            eff = True
                            break
                    if eff:
                        break
                if eff:
                    break
            if eff:
                edges.add((u, v))
    return edges


def network_to_json(net: Network) -> dict:
    return docs.envelope(
        "network",
        alphabet=net.alphabet,
        nodes=[{"deps": list(r.deps), "table": list(r.table)} for r in net.rules],
    )


def network_from_json(data: dict) -> Network:
    with docs.parsing(data, "network", InvalidNetworkError):
        q = data["alphabet"]
        rules = [(node["deps"], node["table"]) for node in data["nodes"]]
        docs.integers(InvalidNetworkError, "alphabet", (q,))
        for v, (deps, table) in enumerate(rules):
            docs.integers(InvalidNetworkError, f"node {v} deps and table", deps, table)
        return make_network(q, rules)


def to_dot(net: Network, name: str = "F") -> str:
    """Communication graph in DOT: edge u -> v iff u is a declared dep of v."""
    lines = [f"digraph {name} {{"]
    for v in range(net.n):
        lines.append(f"  {v};")
    for v, rule in enumerate(net.rules):
        for u in rule.deps:
            lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines)
