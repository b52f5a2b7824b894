"""Networks on labeled undirected graphs with multiset local rules.

A node reads its own state plus the multiset of its neighbors' states,
each neighbor state first passed through the map labeling the
connecting edge. Vertex tables are total over every multiset of size
up to the node's degree, so the global map is defined everywhere.
Includes the standard rule families (parity, threshold, min-max,
outer-totalistic, excitation chains), interaction-graph extraction and
conversions to plain networks, matrices and Boolean circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import docs
from .circuit import Circuit, InvalidCircuitError, make_circuit
from .core import (
    ArtifactError,
    InvalidConfigError,
    Network,
    Rule,
    check_config,
    index_config,
    make_network,
    step,
)

LambdaTable = Mapping[tuple[int, tuple[int, ...]], int]


class InvalidCsanError(ArtifactError, ValueError):
    """Malformed labeled network: bad graph, labels or table coverage."""


# ---------------------------------------------------------------------------
# Multisets as count vectors


@dataclass(frozen=True)
class BoundedMultiset:
    """Multiset over {0..q-1} stored as a count vector, size at most bound."""

    counts: tuple[int, ...]
    bound: int

    @property
    def total(self) -> int:
        return sum(self.counts)

    def validate(self) -> None:
        if not self.counts:
            raise InvalidCsanError("multiset needs at least one state slot")
        if any(c < 0 for c in self.counts):
            raise InvalidCsanError("multiset counts must be nonnegative")
        if self.total > self.bound:
            raise InvalidCsanError(
                f"multiset of size {self.total} exceeds bound {self.bound}"
            )


def make_multiset(states: Iterable[int], q: int, bound: int) -> BoundedMultiset:
    counts = [0] * q
    for s in states:
        if not 0 <= s < q:
            raise InvalidCsanError(f"state {s} outside alphabet of size {q}")
        counts[s] += 1
    m = BoundedMultiset(tuple(counts), bound)
    m.validate()
    return m


def multisets_with_total(q: int, total: int) -> Iterator[tuple[int, ...]]:
    """Count vectors of length q summing to total, lexicographic order."""
    if q == 1:
        yield (total,)
        return
    for c in range(total + 1):
        for rest in multisets_with_total(q - 1, total - c):
            yield (c,) + rest


def multisets_up_to(q: int, bound: int) -> Iterator[tuple[int, ...]]:
    for total in range(bound + 1):
        yield from multisets_with_total(q, total)


# ---------------------------------------------------------------------------
# Edge label catalog


def rho_identity(q: int) -> tuple[int, ...]:
    return tuple(range(q))


def rho_negation(q: int) -> tuple[int, ...]:
    return tuple(q - 1 - a for a in range(q))


def rho_activity(q: int) -> tuple[int, ...]:
    """Project onto activity: state 1 is visible, everything else reads 0."""
    return tuple(1 if a == 1 else 0 for a in range(q))


RHO_CATALOG: dict[str, Callable[[int], tuple[int, ...]]] = {
    "id": rho_identity,
    "neg": rho_negation,
    "activity": rho_activity,
}


def _rho_name(table: tuple[int, ...]) -> str | None:
    q = len(table)
    for name, fn in RHO_CATALOG.items():
        if fn(q) == table:
            return name
    return None


# ---------------------------------------------------------------------------
# The labeled-network type


@dataclass
class Csan:
    """Undirected simple graph with a state map per edge, a table per node.

    lam[v] maps (own state, neighbor-multiset count vector) to the next
    state; it must cover every multiset of total size up to deg(v).
    Edge labels are stored once per edge and seen identically from both
    endpoints. The incidence lists and the edge lookup are built once per
    instance on first use and are not fields, so they take no part in
    equality or serialization; the graph must not be edited afterwards.
    """

    alphabet: int
    edges: tuple[tuple[int, int], ...]
    edge_rho: tuple[tuple[int, ...], ...]
    lam: tuple[dict[tuple[int, tuple[int, ...]], int], ...]

    @property
    def n(self) -> int:
        return len(self.lam)

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
        """incidence[v] lists (neighbor, edge label) in edge order."""
        inc: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(self.n)]
        for (u, v), rho in zip(self.edges, self.edge_rho):
            inc[u].append((v, rho))
            inc[v].append((u, rho))
        return tuple(tuple(row) for row in inc)

    @cached_property
    def _labels(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return dict(zip(self.edges, self.edge_rho))

    def degree(self, v: int) -> int:
        return len(self.incidence[v])

    def neighbors(self, v: int) -> set[int]:
        return {u for u, _ in self.incidence[v]}

    def edge_label(self, u: int, v: int) -> tuple[int, ...] | None:
        """Label of the edge {u, v}, None when there is no such edge."""
        return self._labels.get((u, v) if u < v else (v, u))

    def validate(self) -> None:
        q = self.alphabet
        n = self.n
        if q < 1:
            raise InvalidCsanError("alphabet size must be at least 1")
        if len(self.edge_rho) != len(self.edges):
            raise InvalidCsanError("one label per edge required")
        seen = set()
        for (u, v), rho in zip(self.edges, self.edge_rho):
            if not (0 <= u < v < n):
                raise InvalidCsanError(f"bad edge ({u},{v}): need 0 <= u < v < n")
            if (u, v) in seen:
                raise InvalidCsanError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            if len(rho) != q or any(not 0 <= a < q for a in rho):
                raise InvalidCsanError(f"edge ({u},{v}) label is not a map on the alphabet")
        wants: dict[int, set[tuple[int, tuple[int, ...]]]] = {}
        for v in range(n):
            deg = self.degree(v)
            if deg not in wants:
                wants[deg] = {(s, m) for s in range(q) for m in multisets_up_to(q, deg)}
            if self.lam[v].keys() != wants[deg]:
                raise InvalidCsanError(
                    f"node {v} table must cover exactly the multisets of size <= {deg}"
                )
            if any(not 0 <= out < q for out in self.lam[v].values()):
                raise InvalidCsanError(f"node {v} table has out-of-alphabet outputs")


def make_csan(
    alphabet: int,
    n: int,
    edges: Iterable[tuple[int, int, object]],
    lam: Sequence[LambdaTable],
) -> Csan:
    """Build and validate. Edge labels may be catalog names or explicit maps."""
    norm = []
    rhos = []
    for u, v, rho in edges:
        if u == v:
            raise InvalidCsanError(f"self-loop at node {u} not allowed")
        a, b = (u, v) if u < v else (v, u)
        norm.append((a, b))
        if isinstance(rho, str):
            if rho not in RHO_CATALOG:
                raise InvalidCsanError(f"unknown edge label name {rho!r}")
            rhos.append(RHO_CATALOG[rho](alphabet))
        else:
            rhos.append(tuple(rho))
    order = sorted(range(len(norm)), key=lambda i: norm[i])
    if len(lam) != n:
        raise InvalidCsanError("one table per node required")
    c = Csan(
        alphabet,
        tuple(norm[i] for i in order),
        tuple(rhos[i] for i in order),
        tuple(dict(t) for t in lam),
    )
    c.validate()
    return c


def csan_step(c: Csan, x: Sequence[int]) -> tuple[int, ...]:
    """One synchronous update: label-mapped neighbor multiset into each table."""
    x = check_config(c, x)
    inc = c.incidence
    out = []
    for v in range(c.n):
        counts = [0] * c.alphabet
        for u, rho in inc[v]:
            counts[rho[x[u]]] += 1
        key = (x[v], tuple(counts))
        try:
            out.append(c.lam[v][key])
        except KeyError:
            raise InvalidCsanError(f"node {v} table missing entry for {key}") from None
    return tuple(out)


# ---------------------------------------------------------------------------
# Family builders


def _normalize_edges(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    out = []
    for u, v in edges:
        if u == v:
            raise InvalidCsanError(f"self-loop at node {u} not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidCsanError(f"edge ({u},{v}) outside node range")
        out.append((min(u, v), max(u, v)))
    if len(set(out)) != len(out):
        raise InvalidCsanError("duplicate edge")
    return sorted(out)


def _build_family(
    n: int,
    edges: Iterable[tuple[int, int]],
    q: int,
    rho: tuple[int, ...],
    rule: Callable[[int, int, tuple[int, ...]], int],
) -> Csan:
    norm = _normalize_edges(n, edges)
    degs = [0] * n
    for u, v in norm:
        degs[u] += 1
        degs[v] += 1
    lam = []
    for v in range(n):
        lam.append(
            {
                (s, m): rule(v, s, m)
                for s in range(q)
                for m in multisets_up_to(q, degs[v])
            }
        )
    return make_csan(q, n, [(u, v, rho) for u, v in norm], lam)


def build_linear_gf2(n: int, edges: Iterable[tuple[int, int]]) -> Csan:
    """Each node becomes the parity of its neighbors; own state is ignored."""
    return _build_family(
        n, edges, 2, rho_identity(2), lambda v, s, m: m[1] % 2
    )


def build_rule90_ring(n: int) -> Csan:
    """Parity of the two ring neighbors on a cycle of n >= 3 nodes."""
    if n < 3:
        raise InvalidCsanError("ring needs at least 3 nodes")
    return build_linear_gf2(n, [(i, (i + 1) % n) for i in range(n)])


def build_threshold(
    n: int, edges: Iterable[tuple[int, int]], theta: Sequence[int]
) -> Csan:
    """Node turns 1 exactly when at least theta[v] neighbors are 1."""
    if len(theta) != n:
        raise InvalidCsanError("one threshold per node required")
    return _build_family(
        n, edges, 2, rho_identity(2), lambda v, s, m: 1 if m[1] >= theta[v] else 0
    )


def build_minmax(
    n: int, edges: Iterable[tuple[int, int]], polarity: Sequence[str], alphabet: int = 2
) -> Csan:
    """Each node takes the min or the max state present among its neighbors.

    Isolated nodes hold their own state. On a binary alphabet MAX nodes
    are disjunctions and MIN nodes conjunctions of their neighbors.
    """
    if len(polarity) != n or any(p not in ("MIN", "MAX") for p in polarity):
        raise InvalidCsanError("polarity must give MIN or MAX for every node")

    def rule(v: int, s: int, m: tuple[int, ...]) -> int:
        present = [a for a, cnt in enumerate(m) if cnt > 0]
        if not present:
            return s
        return min(present) if polarity[v] == "MIN" else max(present)

    return _build_family(n, edges, alphabet, rho_identity(alphabet), rule)


def build_lifelike(
    n: int, edges: Iterable[tuple[int, int]], birth: Iterable[int], survive: Iterable[int]
) -> Csan:
    """Dead node is born on a count in birth; live node survives on survive."""
    b = frozenset(birth)
    s_set = frozenset(survive)
    return _build_family(
        n,
        edges,
        2,
        rho_identity(2),
        lambda v, s, m: int(m[1] in (s_set if s else b)),
    )


def build_interval(
    n: int, edges: Iterable[tuple[int, int]], alpha: int, beta: int
) -> Csan:
    """Node turns 1 exactly when its live-neighbor count lies in [alpha, beta]."""
    if alpha > beta:
        raise InvalidCsanError("need alpha <= beta")
    return _build_family(
        n, edges, 2, rho_identity(2), lambda v, s, m: int(alpha <= m[1] <= beta)
    )


def build_reaction_diffusion(
    n: int, edges: Iterable[tuple[int, int]], theta: Sequence[int], chain: int
) -> Csan:
    """Excitable states 0..chain; neighbors are seen through activity only.

    A resting node (state 0) fires to 1 when at least theta[v] neighbors
    are exactly in state 1; a fired node walks 1 -> 2 -> ... -> chain and
    then returns to 0. Requires chain >= 2 so the refractory walk exists.
    """
    if chain < 2:
        raise InvalidCsanError("state chain needs length at least 2")
    if len(theta) != n:
        raise InvalidCsanError("one threshold per node required")
    q = chain + 1

    def rule(v: int, s: int, m: tuple[int, ...]) -> int:
        if s == 0:
            return 1 if m[1] >= theta[v] else 0
        return 0 if s == chain else s + 1

    return _build_family(n, edges, q, rho_activity(q), rule)


# ---------------------------------------------------------------------------
# Family membership predicates


@dataclass(frozen=True)
class FamilySpec:
    """A named family: alphabet plus a total predicate on one node's labels.

    The predicate receives the node's table and the labels of its
    incident edges and decides membership; a network is in the family
    when every node passes.
    """

    name: str
    alphabet: int
    member: Callable[[LambdaTable, tuple[tuple[int, ...], ...]], bool]


def _all_rho(rhos: tuple[tuple[int, ...], ...], expect: tuple[int, ...]) -> bool:
    return all(r == expect for r in rhos)


def _member_linear(lam: LambdaTable, rhos) -> bool:
    if not _all_rho(rhos, rho_identity(2)):
        return False
    return all(out == m[1] % 2 for (s, m), out in lam.items())


def _member_threshold(lam: LambdaTable, rhos) -> bool:
    if not _all_rho(rhos, rho_identity(2)):
        return False
    deg = max(sum(m) for _, m in lam)
    return any(
        all(out == int(m[1] >= t) for (s, m), out in lam.items())
        for t in range(deg + 2)
    )


def _minmax_rule(kind: str, s: int, m: tuple[int, ...]) -> int:
    present = [a for a, cnt in enumerate(m) if cnt > 0]
    if not present:
        return s
    return min(present) if kind == "MIN" else max(present)


def _member_minmax(q: int) -> Callable[[LambdaTable, tuple], bool]:
    def member(lam: LambdaTable, rhos) -> bool:
        if not _all_rho(rhos, rho_identity(q)):
            return False
        return any(
            all(out == _minmax_rule(kind, s, m) for (s, m), out in lam.items())
            for kind in ("MIN", "MAX")
        )

    return member


def _member_lifelike(lam: LambdaTable, rhos) -> bool:
    if not _all_rho(rhos, rho_identity(2)):
        return False
    # Output may depend only on (own state, live count), not on the
    # dead count, so rows of different total size must agree.
    by_key: dict[tuple[int, int], int] = {}
    for (s, m), out in lam.items():
        if by_key.setdefault((s, m[1]), out) != out:
            return False
    return True


def _member_interval(lam: LambdaTable, rhos) -> bool:
    if not _all_rho(rhos, rho_identity(2)):
        return False
    deg = max(sum(m) for _, m in lam)
    return any(
        all(out == int(a <= m[1] <= b) for (s, m), out in lam.items())
        for a in range(deg + 1)
        for b in range(a, deg + 1)
    )


def _member_reaction(q: int) -> Callable[[LambdaTable, tuple], bool]:
    def member(lam: LambdaTable, rhos) -> bool:
        if q < 3 or not _all_rho(rhos, rho_activity(q)):
            return False
        for (s, m), out in lam.items():
            if s != 0 and out != (0 if s == q - 1 else s + 1):
                return False
        rest = [(m[1], out) for (s, m), out in lam.items() if s == 0]
        deg = max(sum(m) for _, m in lam)
        return any(
            all(out == int(c >= t) for c, out in rest) for t in range(deg + 2)
        )

    return member


def family_spec(name: str, alphabet: int = 2) -> FamilySpec:
    """Membership predicate for one of the builtin families."""
    table: dict[str, Callable] = {
        "linear": _member_linear,
        "threshold": _member_threshold,
        "minmax": _member_minmax(alphabet),
        "lifelike": _member_lifelike,
        "interval": _member_interval,
        "reaction": _member_reaction(alphabet),
    }
    if name not in table:
        raise InvalidCsanError(f"unknown family {name!r}")
    if name in ("linear", "threshold", "lifelike", "interval") and alphabet != 2:
        raise InvalidCsanError(f"family {name!r} is binary only")
    return FamilySpec(name, alphabet, table[name])


def csan_in_family(c: Csan, spec: FamilySpec) -> bool:
    if c.alphabet != spec.alphabet:
        return False
    inc = c.incidence
    return all(
        spec.member(c.lam[v], tuple(rho for _, rho in inc[v])) for v in range(c.n)
    )


# ---------------------------------------------------------------------------
# Conversion to plain networks and interaction graphs


# bytes.translate tables that add -1, +1 or 64 to every byte of a row code.
_SHIFT = {d: bytes((i + d) % 256 for i in range(256)) for d in (-1, 1, 64)}


def _binary_rows(
    c: Csan,
    neighbors: Sequence[tuple[int, tuple[int, ...]]],
    deps: Sequence[int],
    v: int,
) -> bytes:
    # Row codes (own state * 64 + live-neighbour count) are built by
    # doubling: the rows with deps[i] = 1 are the rows so far with that
    # dep's effect added, so bit i of a row index holds deps[i]. Counts
    # stay in [0, deg], so a code fits in a byte while deg < 64, which
    # any table that fits in memory satisfies.
    delta = {u: rho[1] - rho[0] for u, rho in neighbors}
    rows = bytes([sum(rho[0] for _, rho in neighbors)])
    for u in deps:
        d = 64 if u == v else delta[u]
        rows += rows.translate(_SHIFT[d]) if d else rows
    deg = len(neighbors)
    lut = bytearray(256)
    for s in range(2):
        for ones in range(deg + 1):
            lut[64 * s + ones] = c.lam[v][(s, (deg - ones, ones))]
    return rows.translate(lut)


def csan_to_network(c: Csan) -> Network:
    """Tabulate every node over its closed neighborhood; same global map.

    The tables are valid by construction from a validated CSAN (distinct
    sorted deps, q^|deps| rows, states from lam), so they are not
    validated again.
    """
    inc = c.incidence
    q = c.alphabet
    rules = []
    for v in range(c.n):
        deps = tuple(sorted([v] + [u for u, _ in inc[v]]))
        if q == 2:
            table = _binary_rows(c, inc[v], deps, v)
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


def _achievable_counts(
    q: int, contributors: Sequence[tuple[int, tuple[int, ...]]]
) -> set[tuple[int, ...]]:
    """All multiset count vectors the given labeled neighbors can produce."""
    acc = {(0,) * q}
    for _, rho in contributors:
        images = set(rho)
        nxt = set()
        for m in acc:
            for a in images:
                grown = list(m)
                grown[a] += 1
                nxt.add(tuple(grown))
        acc = nxt
    return acc


def interaction_graph_csan(c: Csan) -> set[tuple[int, int]]:
    """Effective dependency edges (u, v) from the labeled structure.

    Works per neighborhood on achievable multisets, so it stays
    polynomial in the number of nodes for a fixed alphabet instead of
    sweeping global configurations.
    """
    q = c.alphabet
    inc = c.incidence
    edges: set[tuple[int, int]] = set()
    for v in range(c.n):
        lam = c.lam[v]
        full = _achievable_counts(q, inc[v])
        if any(len({lam[(s, m)] for s in range(q)}) > 1 for m in full):
            edges.add((v, v))
        for i, (u, rho_u) in enumerate(inc[v]):
            images = sorted(set(rho_u))
            if len(images) < 2:
                continue
            others = inc[v][:i] + inc[v][i + 1 :]
            found = False
            for m in _achievable_counts(q, others):
                for s in range(q):
                    outs = set()
                    for a in images:
                        grown = list(m)
                        grown[a] += 1
                        outs.add(lam[(s, tuple(grown))])
                        if len(outs) > 1:
                            break
                    if len(outs) > 1:
                        found = True
                        break
                if found:
                    break
            if found:
                edges.add((u, v))
    return edges


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
# Matrix represented maps

MATRIX_KINDS = ("GF2", "BOOLEAN_OR", "BOOLEAN_AND")


def matrix_to_network(kind: str, matrix: Sequence[Sequence[int]]) -> Network:
    """Binary network F(x)_i combining {j : M[i][j] = 1} by xor, or, or and.

    An all-zero row yields the combination's neutral element: 0 for GF2
    and BOOLEAN_OR, 1 for BOOLEAN_AND.
    """
    kind = kind.upper()
    if kind not in MATRIX_KINDS:
        raise InvalidCsanError(f"kind must be one of {MATRIX_KINDS}")
    n = len(matrix)
    rows = [tuple(row) for row in matrix]
    if n == 0 or any(len(row) != n for row in rows):
        raise InvalidCsanError("matrix must be square and nonempty")
    if any(e not in (0, 1) for row in rows for e in row):
        raise InvalidCsanError("matrix entries must be 0 or 1")
    rules = []
    for i in range(n):
        deps = tuple(j for j in range(n) if rows[i][j])
        table = []
        for idx in range(2 ** len(deps)):
            bits = index_config(idx, 2, len(deps))
            if kind == "GF2":
                table.append(sum(bits) % 2)
            elif kind == "BOOLEAN_OR":
                table.append(1 if any(bits) else 0)
            else:
                table.append(1 if all(bits) else 0)
        rules.append((deps, table))
    return make_network(2, rules)


# ---------------------------------------------------------------------------
# Circuit encoding of a network's global map


def bits_per_node(q: int) -> int:
    """Bits in the fixed binary node encoding: ceil(log2 q), 0 when q = 1."""
    return (q - 1).bit_length()


def encode_config(x: Sequence[int], q: int) -> tuple[int, ...]:
    """Node-major bit string, low bit of each node first."""
    k = bits_per_node(q)
    bits = []
    for s in x:
        if not 0 <= s < q:
            raise InvalidConfigError(f"state {s} outside alphabet of size {q}")
        bits.extend((s >> j) & 1 for j in range(k))
    return tuple(bits)


def decode_config(bits: Sequence[int], q: int, n: int) -> tuple[int, ...]:
    k = bits_per_node(q)
    if len(bits) != n * k:
        raise InvalidConfigError(f"need {n * k} bits for {n} nodes")
    out = []
    for i in range(n):
        s = sum(bits[i * k + j] << j for j in range(k))
        if s >= q:
            raise InvalidConfigError(f"bit group {i} decodes outside the alphabet")
        out.append(s)
    return tuple(out)


class _CircuitSketch:
    """Accumulates gates with memoized negations and constants."""

    def __init__(self, n_inputs: int):
        self.n_inputs = n_inputs
        self.gates: list[tuple[str, tuple[int, ...]]] = []
        self._nots: dict[int, int] = {}
        self._consts: dict[int, int] = {}

    def add(self, op: str, *args: int) -> int:
        self.gates.append((op, args))
        return self.n_inputs + len(self.gates) - 1

    def invert(self, src: int) -> int:
        if src not in self._nots:
            self._nots[src] = self.add("NOT", src)
        return self._nots[src]

    def constant(self, value: int) -> int:
        if value not in self._consts:
            neg = self.invert(0)
            op = "OR" if value else "AND"
            self._consts[value] = self.add(op, 0, neg)
        return self._consts[value]

    def fold(self, op: str, ids: Sequence[int], empty: int) -> int:
        if not ids:
            return self.constant(empty)
        acc = ids[0]
        for nxt in ids[1:]:
            acc = self.add(op, acc, nxt)
        return acc


def circuit_encode(net: Network) -> Circuit:
    """Boolean circuit computing the global map on binary-encoded configs.

    Each node contributes bits_per_node(q) input and output bits; on
    every encoded configuration the circuit's output is the encoding of
    step(net, x). Bit patterns that decode outside the alphabet are
    unconstrained.
    """
    q = net.alphabet
    k = bits_per_node(q)
    if k == 0:
        raise InvalidCircuitError("alphabet of size 1 has an empty encoding")
    sk = _CircuitSketch(net.n * k)
    recognizers: dict[tuple[int, int], int] = {}

    def recognize(node: int, value: int) -> int:
        if (node, value) not in recognizers:
            lits = []
            for j in range(k):
                bit = node * k + j
                lits.append(bit if (value >> j) & 1 else sk.invert(bit))
            recognizers[(node, value)] = sk.fold("AND", lits, 1)
        return recognizers[(node, value)]

    outputs = []
    for rule in net.rules:
        d = len(rule.deps)
        bit_minterms: list[list[int]] = [[] for _ in range(k)]
        for idx in range(q**d):
            combo = index_config(idx, q, d)
            out = rule.table[idx]
            needed = [b for b in range(k) if (out >> b) & 1]
            if not needed:
                continue
            term = sk.fold(
                "AND", [recognize(u, a) for u, a in zip(rule.deps, combo)], 1
            )
            for b in needed:
                bit_minterms[b].append(term)
        for b in range(k):
            outputs.append(sk.fold("OR", bit_minterms[b], 0))
    return make_circuit(sk.n_inputs, sk.gates, outputs)


# ---------------------------------------------------------------------------
# Serialization


def _shorthand_rule(q: int, spec: Mapping) -> Callable[[int, tuple[int, ...]], int]:
    """Per-vertex rule from a family shorthand like {"family": "threshold", ...}."""
    fam = spec.get("family")
    if fam == "linear":
        return lambda s, m: m[1] % 2
    if fam == "threshold":
        t = spec["theta"]
        return lambda s, m: int(m[1] >= t)
    if fam == "minmax":
        kind = spec["polarity"]
        if kind not in ("MIN", "MAX"):
            raise InvalidCsanError("polarity must be MIN or MAX")
        return lambda s, m: _minmax_rule(kind, s, m)
    if fam == "lifelike":
        b = frozenset(spec["birth"])
        srv = frozenset(spec["survive"])
        return lambda s, m: int(m[1] in (srv if s else b))
    if fam == "interval":
        a, b = spec["alpha"], spec["beta"]
        return lambda s, m: int(a <= m[1] <= b)
    if fam == "reaction":
        t = spec["theta"]
        chain = q - 1
        return lambda s, m: (1 if m[1] >= t else 0) if s == 0 else (
            0 if s == chain else s + 1
        )
    raise InvalidCsanError(f"unknown family shorthand {fam!r}")


def csan_to_json(c: Csan) -> dict:
    edges = []
    for (u, v), rho in zip(c.edges, c.edge_rho):
        name = _rho_name(rho)
        edges.append([u, v, name if name else list(rho)])
    vertices = []
    for v in range(c.n):
        rows = [[s, list(m), out] for (s, m), out in sorted(c.lam[v].items())]
        vertices.append({"lambda": rows})
    return docs.envelope("csan", alphabet=c.alphabet, n=c.n, edges=edges, vertices=vertices)


def csan_from_json(data: dict) -> Csan:
    """Read a document whose vertex tables are explicit rows or shorthands."""
    with docs.parsing(data, "csan", InvalidCsanError):
        q = data["alphabet"]
        n = data["n"]
        raw_edges = [(u, v, rho) for u, v, rho in data["edges"]]
        vertices = data["vertices"]
        if len(vertices) != n:
            raise InvalidCsanError("one vertex entry per node required")
        degs = [0] * n
        for u, v, _ in raw_edges:
            degs[u] += 1
            degs[v] += 1
        lam = []
        for v, entry in enumerate(vertices):
            body = entry["lambda"]
            if isinstance(body, Mapping):
                rule = _shorthand_rule(q, body)
                lam.append(
                    {
                        (s, m): rule(s, m)
                        for s in range(q)
                        for m in multisets_up_to(q, degs[v])
                    }
                )
            else:
                lam.append({(s, tuple(m)): out for s, m, out in body})
        return make_csan(q, n, raw_edges, lam)
