"""Finite automata networks with explicit local rule tables.

A network is a finite set of nodes over a common alphabet {0..q-1}.
Each node carries a dependency list and a lookup table for its local
update; the global map applies all local updates synchronously.

Table layout is row-major with the FIRST dependency varying fastest:
the entry for values (a_0, ..., a_{k-1}) on deps (d_0, ..., d_{k-1})
sits at index a_0 + a_1*q + a_2*q^2 + ...

Three steppers share that layout. `step` is the executable
specification: a plain loop over the rules, which `iterate`, `trace`
and every differential test use. `step_batch` steps many
configurations at once in packed lanes, for exhaustive sweeps over
wide hosts. `compile_step` generates, once per network, one expression
per node, for the orbit walker's thousands of sequential steps on
narrow networks. `iterate` stays on the specification because its
callers step a few times, which would not repay a compilation, and
because independent checks (the benchmark's reference answers among
them) step with it.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import index, itemgetter
from typing import Callable, Iterable, Sequence

from . import docs
from .docs import ArtifactError  # the root error lives with the document layer

DEFAULT_MAX_STATES = 2**22
# States per orbit_graph batch: 64 KB of lanes per node.
ORBIT_CHUNK = 2**14
# Nodes per generated function of compile_step: one function for a
# host of hundreds of nodes costs megabytes while it compiles.
STEP_CHUNK = 64

# Lane packing: a batch of b configurations is one int per node, whose
# 32-bit lane i holds that node's state in configuration i.
LANE_BITS = 32
LANE_BYTES = LANE_BITS // 8
LANE_LIMIT = 1 << LANE_BITS
if array("I").itemsize != LANE_BYTES:
    raise ImportError("lane packing needs a 4-byte array('I') item")


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
            if not 0 <= min(rule.table) <= max(rule.table) < q:
                bad = next(s for s in rule.table if not 0 <= s < q)
                raise InvalidNetworkError(f"node {v}: state {bad} out of range")


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


def compile_step(net: Network) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """`step` as generated code: node v is the expression t{v}[x[d_0] + x[d_1]*q + ...].

    Only node numbers, `index(d)` and q**j reach the source, so no text
    of a document is ever evaluated. Each chunk of STEP_CHUNK nodes is
    its own lambda, whose globals hold that chunk's tables and no
    builtins; an evaluated lambda is not stored in its namespace, so no
    reference cycle keeps the tables alive after the stepper is dropped.
    """
    q = index(net.alphabet)
    parts = []
    for lo in range(0, max(net.n, 1), STEP_CHUNK):  # n = 0 still gets `lambda x: ()`
        tables: dict = {"__builtins__": {}}
        exprs = []
        for v in range(lo, min(lo + STEP_CHUNK, net.n)):
            rule = net.rules[v]
            tables[f"t{v}"] = rule.table
            terms = [
                f"x[{index(d)}]" + (f" * {q**j}" if j else "") for j, d in enumerate(rule.deps)
            ]
            at = " + ".join(terms) if len(rule.table) > 1 else "0"
            exprs.append(f"t{v}[{at}], ")
        parts.append(eval(f"lambda x: ({''.join(exprs)})", tables))
    if len(parts) == 1:
        return parts[0]
    return lambda x: tuple(chain.from_iterable([f(x) for f in parts]))


def pack_lanes(states: Iterable[int]) -> int:
    """One packed int whose lane i holds the i-th state (each below 2^32)."""
    return int.from_bytes(array("I", states).tobytes(), sys.byteorder)


def unpack_lanes(x: int, b: int) -> array:
    """The b lanes of a packed int, lane 0 first."""
    return array("I", x.to_bytes(LANE_BYTES * b, sys.byteorder))


def gather_lanes(table: Sequence[int], lanes: Sequence[int]) -> int:
    """pack_lanes(table[i] for i in lanes), gathered at C speed."""
    got = itemgetter(*lanes)(table)
    return pack_lanes(got if len(lanes) > 1 else (got,))


def step_batch(net: Network, xs: Sequence[int], b: int) -> list[int]:
    """`step` on b configurations at once, in the lane packing.

    xs[v] packs node v's state in each configuration. The table index
    sum a_0 + a_1*q + ... is formed for all lanes with a few big-int
    operations; no lane carries into the next, since an index stays
    below q^deg = len(table) < 2^32.
    """
    q = net.alphabet
    out = []
    for rule in net.rules:
        idx = 0
        m = 1
        for d in rule.deps:
            idx += xs[d] * m
            m *= q
        out.append(gather_lanes(rule.table, unpack_lanes(idx, b)))
    return out


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

    Steps with `compile_step(net)`, whose compilation a walk of thousands
    of steps repays many times; tests hold it to `step`, the
    specification. `seen` maps each configuration to its time and keeps
    insertion order, so it is also the path. Raises
    BudgetExceededError once `budget` configurations have been visited
    without closing the cycle.
    """
    f = compile_step(net)
    seen: dict[tuple[int, ...], int] = {}
    cur = tuple(x)
    i = 0
    while (tau := seen.setdefault(cur, i)) == i:
        if i >= budget:
            raise BudgetExceededError(
                f"orbit of length > {budget} (budget exceeded, no cycle found)"
            )
        i += 1
        cur = f(cur)
    return list(seen), tau, i - tau


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


@dataclass(frozen=True)
class OrbitGraph:
    """Functional graph of the global map over all q^n configurations.

    succ[i] is the encoded successor of the configuration encoded by i.
    """

    alphabet: int
    n: int
    succ: tuple[int, ...]


def orbit_graph(net: Network, max_states: int = DEFAULT_MAX_STATES) -> OrbitGraph:
    """Exhaustive successor table; refuses to enumerate past max_states.

    States are stepped in chunks of q^c <= ORBIT_CHUNK that share their
    high digits, with step_batch. The c low digit planes are the same
    in every chunk and are built once by repeating bytes; the high
    digits are constant in a chunk. Successors are encoded in the lanes
    as y_0 + y_1*q + ..., which needs q^n < 2^32.
    """
    q, n = net.alphabet, net.n
    n_conf = q**n
    if n_conf > max_states:
        raise BudgetExceededError(
            f"{n_conf} configurations exceed the cap of {max_states}"
        )
    if n_conf >= LANE_LIMIT:
        raise BudgetExceededError(f"{n_conf} configurations do not fit a 32-bit lane")
    c = 0
    while c < n and q ** (c + 1) <= ORBIT_CHUNK:
        c += 1
    b = q**c
    lane = [s.to_bytes(LANE_BYTES, sys.byteorder) for s in range(q)]
    low = [
        int.from_bytes(b"".join(a * q**v for a in lane) * q ** (c - v - 1), sys.byteorder)
        for v in range(c)
    ]
    ones = pack_lanes([1] * b)
    weights = [q**v for v in range(n)]
    succ = array("I")
    for hi in range(q ** (n - c)):
        xs = low + [s * ones for s in index_config(hi, q, n - c)]
        ys = step_batch(net, xs, b)
        succ.extend(unpack_lanes(sum(y * w for y, w in zip(ys, weights)), b))
    return OrbitGraph(q, n, tuple(succ))


@dataclass(frozen=True)
class Attractor:
    """One limit cycle together with the size of its basin."""

    cycle: tuple[tuple[int, ...], ...]
    basin_size: int


def attractors(net: Network, max_states: int = DEFAULT_MAX_STATES) -> list[Attractor]:
    """All limit cycles of the global map with basin sizes.

    Basins partition the full configuration space; their sizes sum
    to q^n.
    """
    og = orbit_graph(net, max_states=max_states)
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
