"""Networks on labeled undirected graphs with multiset local rules.

A node reads its own state plus the multiset of its neighbors' states,
each neighbor state first passed through the map labeling the
connecting edge. Vertex tables are total over every multiset of size
up to the node's degree, so the global map is defined everywhere.
Also interaction-graph extraction and conversions to plain networks,
matrices and Boolean circuits.

The rule families are written once, in the registry `FAMILIES`: the
`build_*` builders, `csan_in_family` and the JSON shorthand
{"family": name, **params} for a vertex table all read it. Integer
parameters must be ints (not bools or floats). Keys per family:

- linear (binary): none; parity of the live neighbours;
- threshold (binary): theta; 1 when at least theta neighbours are live;
- minmax: polarity, "MIN" or "MAX"; least or greatest neighbour state,
  own state when isolated;
- lifelike (binary): birth, survive, lists of live-neighbour counts;
- interval (binary): alpha <= beta; 1 when the live count is in between;
- reaction (alphabet chain + 1 >= 3, "activity" edges): theta; rest
  fires on at least theta neighbours in state 1, then walks the chain.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import docs
from .circuit import Circuit, InvalidCircuitError, make_circuit
from .core import (
    MAX_TABLE,
    ArtifactError,
    BudgetExceededError,
    CountCode,
    InvalidConfigError,
    Network,
    Rule,
    Tabulated,
    check_config,
    make_network,
    map_shared,
    table_rows,
    table_size,
)

LambdaTable = Mapping[tuple[int, tuple[int, ...]], int]


class InvalidCsanError(ArtifactError, ValueError):
    """Malformed labeled network: bad graph, labels or table coverage."""


# ---------------------------------------------------------------------------
# Multisets as count vectors


def multisets_with_total(q: int, total: int) -> Iterator[tuple[int, ...]]:
    """Count vectors of length q summing to total, lexicographic order.

    Stars and bars without recursion: the successor of c moves one unit
    from the rightmost positive entry c[k] (k >= 1) to c[k - 1] and
    gathers the rest of c[k] in the last entry.
    """
    c = [0] * (q - 1) + [total]
    while True:
        yield tuple(c)
        k = q - 1
        while k > 0 and not c[k]:
            k -= 1
        if k == 0:
            return
        rest = c[k] - 1
        c[k] = 0
        c[k - 1] += 1
        c[-1] = rest


def multisets_up_to(q: int, bound: int) -> Iterator[tuple[int, ...]]:
    for total in range(bound + 1):
        yield from multisets_with_total(q, total)


def _lam_rows(q: int, deg: int) -> int:
    """Rows of a vertex table of degree deg: q own states times C(deg + q, q) multisets."""
    return q * comb(deg + q, q) if q > 0 else 0


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
class Csan(Tabulated):
    """Undirected simple graph with a state map per edge, a table per node.

    lam[v] maps (own state, neighbor-multiset count vector) to the next
    state; it must cover every multiset of total size up to deg(v).
    Edge labels are stored once per edge and seen identically from both
    endpoints. The incidence lists, the edge lookup and the tabulation
    `network`, through which `core` steps, walks and writes a Csan as
    it is, are built once per instance on first use and are not fields,
    so they take no part in equality or serialization; the graph and
    tables must not be edited afterwards. `csan_step` is the reference.
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

    @cached_property
    def network(self) -> Network:
        return csan_to_network(self)

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
        # A label or table object shared by several edges or nodes is checked
        # once (a table once per degree): what passed passes again, so the
        # first failing edge or node stays the same.
        seen = set()
        maps: set[int] = set()
        for (u, v), rho in zip(self.edges, self.edge_rho):
            if not (0 <= u < v < n):
                raise InvalidCsanError(f"bad edge ({u},{v}): need 0 <= u < v < n")
            if (u, v) in seen:
                raise InvalidCsanError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            if id(rho) in maps:
                continue
            if len(rho) != q or any(not 0 <= a < q for a in rho):
                raise InvalidCsanError(f"edge ({u},{v}) label is not a map on the alphabet")
            maps.add(id(rho))
        wants: dict[int, set[tuple[int, tuple[int, ...]]]] = {}
        checked: set[tuple[int, int]] = set()
        for v in range(n):
            deg = self.degree(v)
            if (id(self.lam[v]), deg) in checked:
                continue
            checked.add((id(self.lam[v]), deg))
            # Counted first, so that no wanted key is made for a table of another size.
            if len(self.lam[v]) == _lam_rows(q, deg) and deg not in wants:
                wants[deg] = {(s, m) for s in range(q) for m in multisets_up_to(q, deg)}
            if self.lam[v].keys() != wants.get(deg):
                raise InvalidCsanError(
                    f"node {v} table must cover exactly the multisets of size <= {deg}"
                )
            if any(type(out) is not int or not 0 <= out < q for out in self.lam[v].values()):
                raise InvalidCsanError(f"node {v} table has out-of-alphabet outputs")


def make_csan(
    alphabet: int,
    n: int,
    edges: Iterable[tuple[int, int, object]],
    lam: Sequence[LambdaTable],
) -> Csan:
    """Build and validate. Edge labels may be catalog names or explicit maps.

    Each distinct table object in lam is copied once, so nodes given the
    same dict share one copy, and a later change to the caller's dict
    does not reach the Csan. Documents and builders come through here;
    a glued host is built from its valid parts by `glue.glued_csan`,
    which shares their tables and does not validate again. A catalog
    name is expanded once, and its edges share that label. Nodes on an
    alphabet past MAX_TABLE are refused with BudgetExceededError before
    any label is expanded.
    """
    if n and alphabet > MAX_TABLE:
        raise BudgetExceededError(
            f"an alphabet of {alphabet} states exceeds the budget of {MAX_TABLE}"
        )
    norm = []
    rhos = []
    named: dict[str, tuple[int, ...]] = {}
    for u, v, rho in edges:
        if u == v:
            raise InvalidCsanError(f"self-loop at node {u} not allowed")
        a, b = (u, v) if u < v else (v, u)
        norm.append((a, b))
        if isinstance(rho, str):
            if rho not in RHO_CATALOG:
                raise InvalidCsanError(f"unknown edge label name {rho!r}")
            if rho not in named:
                named[rho] = RHO_CATALOG[rho](alphabet)
            rhos.append(named[rho])
        else:
            rhos.append(tuple(rho))
    order = sorted(range(len(norm)), key=lambda i: norm[i])
    if len(lam) != n:
        raise InvalidCsanError("one table per node required")
    c = Csan(
        alphabet,
        tuple(norm[i] for i in order),
        tuple(rhos[i] for i in order),
        tuple(map_shared(dict, lam)),
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
# Rule families

NodeRule = Callable[[int, tuple[int, ...]], int]


def _linear(q: int) -> NodeRule:
    return lambda s, m: m[1] % 2


def _threshold(q: int, theta: int) -> NodeRule:
    docs.integers(InvalidCsanError, "threshold theta", [theta])
    return lambda s, m: int(m[1] >= theta)


def _thetas(lam: LambdaTable, deg: int) -> list[dict]:
    return [{"theta": t} for t in range(deg + 2)]


def _minmax(q: int, polarity: str) -> NodeRule:
    if polarity not in ("MIN", "MAX"):
        raise InvalidCsanError("polarity must be MIN or MAX")
    pick = min if polarity == "MIN" else max
    return lambda s, m: pick([a for a, cnt in enumerate(m) if cnt], default=s)


def _lifelike(q: int, birth: Iterable[int], survive: Iterable[int]) -> NodeRule:
    docs.integers(InvalidCsanError, "lifelike birth and survive", birth, survive)
    born, kept = frozenset(birth), frozenset(survive)
    return lambda s, m: int(m[1] in (kept if s else born))


def _read_lifelike(lam: LambdaTable, deg: int) -> list[dict]:
    # The one candidate, read off the table (listing every pair of count
    # sets would be exponential): a count gives birth (survival) when a
    # row of a dead (live) node with that live count gives 1.
    live = [sorted({m[1] for (s, m), out in lam.items() if s == a and out}) for a in (0, 1)]
    return [{"birth": live[0], "survive": live[1]}]


def _interval(q: int, alpha: int, beta: int) -> NodeRule:
    docs.integers(InvalidCsanError, "interval alpha and beta", [alpha, beta])
    if alpha > beta:
        raise InvalidCsanError("need alpha <= beta")
    return lambda s, m: int(alpha <= m[1] <= beta)


def _intervals(lam: LambdaTable, deg: int) -> list[dict]:
    return [{"alpha": a, "beta": b} for a in range(deg + 1) for b in range(a, deg + 1)]


def _reaction(q: int, theta: int) -> NodeRule:
    chain = q - 1
    if chain < 2:
        raise InvalidCsanError("state chain needs length at least 2")
    docs.integers(InvalidCsanError, "reaction theta", [theta])
    return lambda s, m: int(m[1] >= theta) if s == 0 else (0 if s == chain else s + 1)


@dataclass(frozen=True)
class Family:
    """One family of `FAMILIES`: a node rule with named parameters.

    `rho(q)` labels every edge, `keys` name the parameters (the shorthand
    keys), and a `binary` family exists on alphabet 2 only.
    `rule(q, **params)` checks the parameters and returns the node rule
    (own state, count vector of the label-mapped neighbour states) ->
    next state. A node of degree deg with table lam is in the family
    exactly when some `candidates(lam, deg)` entry that `rule` accepts
    reproduces lam.
    """

    rho: Callable[[int], tuple[int, ...]]
    keys: tuple[str, ...]
    binary: bool
    rule: Callable[..., NodeRule]
    candidates: Callable[[LambdaTable, int], list[dict]]


# The registry: builders, membership and the JSON shorthand all read it.
# Shorthand keys: linear none, threshold and reaction theta, minmax
# polarity, lifelike birth and survive, interval alpha and beta.
FAMILIES: dict[str, Family] = {
    "linear": Family(rho_identity, (), True, _linear, lambda lam, deg: [{}]),
    "threshold": Family(rho_identity, ("theta",), True, _threshold, _thetas),
    "minmax": Family(
        rho_identity, ("polarity",), False, _minmax,
        lambda lam, deg: [{"polarity": "MIN"}, {"polarity": "MAX"}],
    ),
    "lifelike": Family(rho_identity, ("birth", "survive"), True, _lifelike, _read_lifelike),
    "interval": Family(rho_identity, ("alpha", "beta"), True, _interval, _intervals),
    "reaction": Family(rho_activity, ("theta",), False, _reaction, _thetas),
}


def _family(name: str, q: int) -> Family:
    fam = FAMILIES.get(name)
    if fam is None:
        raise InvalidCsanError(f"unknown family {name!r}")
    if fam.binary and q != 2:
        raise InvalidCsanError(f"family {name!r} is binary only")
    return fam


def _family_table(name: str, q: int, deg: int, params: Mapping) -> dict:
    """Table of a degree-deg node running family `name` with `params`.

    A table whose rows would hold more than MAX_TABLE integers, q + 1
    per row, is refused with BudgetExceededError before it is built.
    """
    fam = _family(name, q)
    if params.keys() != set(fam.keys):
        raise InvalidCsanError(
            f"family {name!r} takes parameters {list(fam.keys)}, got {list(params)}"
        )
    rule = fam.rule(q, **params)
    rows = _lam_rows(q, deg)
    if rows * (q + 1) > MAX_TABLE:
        raise BudgetExceededError(
            f"a table of {rows} rows of {q + 1} integers (degree {deg}, {q} states)"
            f" exceeds the budget of {MAX_TABLE}"
        )
    return {(s, m): rule(s, m) for s in range(q) for m in multisets_up_to(q, deg)}


def _family_csan(
    name: str, n: int, edges: Iterable[tuple[int, int]], params: Sequence[Mapping], q: int = 2
) -> Csan:
    """Node v runs family `name` with params[v]; every edge gets its label.

    Nodes with equal parameters and degree share one table, so the
    per-table memos of `csan_to_network`, `Csan.validate` and
    `Network.byte_tables` see one table, as for a document read by
    `csan_from_json`.
    """
    edges = list(edges)
    degs = Counter(v for edge in edges for v in edge)
    tables: dict[tuple, dict] = {}
    lam = []
    for v, p in enumerate(params):
        key = (degs[v], tuple(sorted(p.items())))
        if key not in tables:
            tables[key] = _family_table(name, q, degs[v], p)
        lam.append(tables[key])
    rho = _family(name, q).rho(q)
    return make_csan(q, n, [(u, v, rho) for u, v in edges], lam)


def build_linear_gf2(n: int, edges: Iterable[tuple[int, int]]) -> Csan:
    """Each node becomes the parity of its neighbors; own state is ignored."""
    return _family_csan("linear", n, edges, [{}] * n)


def build_rule90_ring(n: int) -> Csan:
    """Parity of the two ring neighbors on a cycle of n >= 3 nodes."""
    if n < 3:
        raise InvalidCsanError("ring needs at least 3 nodes")
    return build_linear_gf2(n, [(i, (i + 1) % n) for i in range(n)])


def build_threshold(
    n: int, edges: Iterable[tuple[int, int]], theta: Sequence[int]
) -> Csan:
    """Node turns 1 exactly when at least theta[v] neighbors are 1."""
    return _family_csan("threshold", n, edges, [{"theta": t} for t in theta])


def build_minmax(
    n: int, edges: Iterable[tuple[int, int]], polarity: Sequence[str], alphabet: int = 2
) -> Csan:
    """Each node takes the min or the max state present among its neighbors.

    Isolated nodes hold their own state. On a binary alphabet MAX nodes
    are disjunctions and MIN nodes conjunctions of their neighbors.
    """
    return _family_csan("minmax", n, edges, [{"polarity": p} for p in polarity], alphabet)


def build_lifelike(
    n: int, edges: Iterable[tuple[int, int]], birth: Iterable[int], survive: Iterable[int]
) -> Csan:
    """Dead node is born on a count in birth; live node survives on survive."""
    params = {"birth": tuple(birth), "survive": tuple(survive)}
    return _family_csan("lifelike", n, edges, [params] * n)


def build_interval(
    n: int, edges: Iterable[tuple[int, int]], alpha: int, beta: int
) -> Csan:
    """Node turns 1 exactly when its live-neighbor count lies in [alpha, beta]."""
    return _family_csan("interval", n, edges, [{"alpha": alpha, "beta": beta}] * n)


def build_reaction_diffusion(
    n: int, edges: Iterable[tuple[int, int]], theta: Sequence[int], chain: int
) -> Csan:
    """Excitable states 0..chain; neighbors are seen through activity only.

    A resting node (state 0) fires to 1 when at least theta[v] neighbors
    are exactly in state 1; a fired node walks 1 -> 2 -> ... -> chain and
    then returns to 0. Requires chain >= 2 so the refractory walk exists.
    """
    return _family_csan("reaction", n, edges, [{"theta": t} for t in theta], chain + 1)


@dataclass(frozen=True)
class FamilySpec:
    """A family of `FAMILIES` on one alphabet; `csan_in_family` tests members."""

    name: str
    alphabet: int


def family_spec(name: str, alphabet: int = 2) -> FamilySpec:
    """Membership test for one of the registered families."""
    _family(name, alphabet)
    return FamilySpec(name, alphabet)


def _reproduces(fam: Family, q: int, params: dict, lam: LambdaTable) -> bool:
    # A candidate the rule refuses (a reaction chain on two states)
    # reproduces nothing.
    try:
        rule = fam.rule(q, **params)
    except InvalidCsanError:
        return False
    return all(rule(s, m) == out for (s, m), out in lam.items())


def csan_in_family(c: Csan, spec: FamilySpec) -> bool:
    """Every edge carries the family's label, and every node's table is
    reproduced by one of the family's candidate parameters."""
    q = c.alphabet
    if q != spec.alphabet:
        return False
    fam = FAMILIES[spec.name]
    rho = fam.rho(q)
    return all(rho == r for r in c.edge_rho) and all(
        any(_reproduces(fam, q, p, c.lam[v]) for p in fam.candidates(c.lam[v], c.degree(v)))
        for v in range(c.n)
    )


# ---------------------------------------------------------------------------
# Conversion to plain networks and interaction graphs


def _binary_code(lam: LambdaTable, shifts: tuple[int, ...], base: int) -> CountCode:
    # Row codes are own state * 64 + live-neighbour count: each dep adds
    # its shift (64 for the node itself, rho[1] - rho[0] for a neighbour)
    # to the base count. Counts stay in [0, deg], so a code fits in a
    # byte while deg < 64, which the table budget guarantees.
    deg = len(shifts) - 1
    lut = bytearray(256)
    for s in range(2):
        for ones in range(deg + 1):
            lut[64 * s + ones] = lam[(s, (deg - ones, ones))]
    return CountCode(shifts, base, bytes(lut))


def _general_rows(
    lam: LambdaTable, q: int, own: int, rhos: Sequence[tuple[int, ...]]
) -> tuple[int, ...]:
    # deps[own] is the node itself; rhos label the other deps in order.
    table = []
    for combo in table_rows(q, len(rhos) + 1):
        counts = [0] * q
        for a, rho in zip(combo[:own] + combo[own + 1 :], rhos):
            counts[rho[a]] += 1
        table.append(lam[(combo[own], tuple(counts))])
    return tuple(table)


def csan_to_network(c: Csan) -> Network:
    """Tabulate every node over its closed neighborhood; same global map.

    A node's table depends only on its lam table and on what its sorted
    deps see, so nodes with equal inputs share one table object. The key
    is the identity of the node's lam table plus, for q = 2, the row
    shift of each dep (64 for the node itself, rho[1] - rho[0] for a
    neighbour) and the base count sum rho[0], and for general q, the
    node's position among its deps and each neighbour's label in dep
    order. A glued host, whose nodes are copies of a few gadget nodes,
    builds one table per distinct gadget node and neighbourhood, not one
    per host node. Every rule keeps its own deps.

    For q = 2 the table is built from, and each rule records as its
    `code`, the `CountCode` of its key: weights are the shifts, base is
    the base count and lut maps own * 64 + live count to the lam entry.
    Rules that share a table share its code, so `step_batch` steps every
    node of a binary host by its count, in byte lanes, whatever its
    degree.

    The tables are valid by construction from a validated CSAN (distinct
    sorted deps, q^|deps| rows, states from lam), so they are not
    validated again. A table past the budget is refused before it is built.
    """
    inc = c.incidence
    q = c.alphabet
    tables: dict[tuple, tuple[tuple[int, ...], CountCode | None]] = {}
    rules = []
    for v in range(c.n):
        deps = tuple(sorted([v] + [u for u, _ in inc[v]]))
        label = dict(inc[v])
        lam = c.lam[v]
        if q == 2:
            shifts = tuple(64 if u == v else label[u][1] - label[u][0] for u in deps)
            key = (id(lam), shifts, sum(rho[0] for _, rho in inc[v]))
        else:
            key = (id(lam), deps.index(v), tuple(label[u] for u in deps if u != v))
        made = tables.get(key)
        if made is None:
            if q == 2:
                table_size(2, len(deps))
                code = _binary_code(lam, key[1], key[2])
                made = tables[key] = (tuple(code.rows()), code)
            else:
                made = tables[key] = (_general_rows(lam, q, key[1], key[2]), None)
        rules.append(Rule(deps, *made))
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
    combine = {"GF2": lambda bits: sum(bits) % 2, "BOOLEAN_OR": any, "BOOLEAN_AND": all}[kind]
    rules = []
    for i in range(n):
        deps = tuple(j for j in range(n) if rows[i][j])
        rules.append((deps, [int(combine(bits)) for bits in table_rows(2, len(deps))]))
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
        for combo, out in zip(table_rows(q, d), rule.table):
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
    """Read a document whose vertex tables are explicit rows or shorthands.

    Vertices with equal tables share one dict, interned by content, so
    the per-table memos of `csan_to_network`, `Csan.validate` and
    `Network.byte_tables` see one table.
    """
    with docs.parsing(data, "csan", InvalidCsanError):
        q = data["alphabet"]
        n = data["n"]
        docs.integers(InvalidCsanError, "alphabet and n", (q, n))
        raw_edges = [(u, v, rho) for u, v, rho in data["edges"]]
        vertices = data["vertices"]
        if len(vertices) != n:
            raise InvalidCsanError("one vertex entry per node required")
        degs = Counter(x for u, v, _ in raw_edges for x in (u, v))
        interned: dict[frozenset, LambdaTable] = {}
        lam = []
        for v, entry in enumerate(vertices):
            body = entry["lambda"]
            if isinstance(body, Mapping):
                params = dict(body)
                table = _family_table(params.pop("family", None), q, degs[v], params)
            else:
                table = {(s, tuple(m)): out for s, m, out in body}
                # A row is (own state, count vector, output); check every cell.
                cells = [*chain.from_iterable(body)]
                counts = [*chain.from_iterable(cells[1::3])]
                docs.integers(InvalidCsanError, f"node {v} table", cells[::3], counts, cells[2::3])
            lam.append(interned.setdefault(frozenset(table.items()), table))
        return make_csan(q, n, raw_edges, lam)
