"""Finite automata networks with explicit local rule tables.

A network is a finite set of nodes over a common alphabet {0..q-1}.
Each node carries a dependency list and a lookup table for its local
update; the global map applies all local updates synchronously.

Table layout is row-major with the FIRST dependency varying fastest:
the entry for values (a_0, ..., a_{k-1}) on deps (d_0, ..., d_{k-1})
sits at index a_0 + a_1*q + a_2*q^2 + ... This module owns the layout:
every builder writes a table by one pass over `table_rows`, which
refuses a table, or the tables one pass fills, of more than MAX_TABLE
rows with BudgetExceededError before any row is made, and reads a
row's index with `config_index`.

Three steppers share that layout. `step` is the executable
specification: a plain loop over the rules, which `iterate`, `trace`
and every differential test use. `step_batch` steps many
configurations at once in packed lanes, for exhaustive sweeps over
wide hosts; a rule built from a binary CSAN it reads by its live count
(below). `compile_step` generates, once per network, one expression
per node, for the orbit walker's thousands of sequential steps on
narrow networks. `iterate` stays on the specification because its
callers step a few times, which would not repay a compilation, and
because independent checks (the benchmark's reference answers among
them) step with it.

`step_batch` packs a batch of configurations into one int per node,
one lane per configuration. The lane width belongs to the alphabet
(`Network.lane_bytes`): one byte when it has at most 256 states, and
32 bits past that. A rule that carries a `CountCode` (every rule
`csan.csan_to_network` builds on a binary CSAN) is read through it
whatever its table's size: its deps, weighted by the code, sum to the
byte own * 64 + live count in every lane, and one `bytes.translate`
through the code's 256-byte lut gives the next states. Any other table
of at most 256 entries is read for all lanes with `bytes.translate`
through the table padded to 256 bytes: a few C-level passes that make
no per-lane Python objects. A larger table reads a 32-bit index. In
byte lanes it is built for that node alone (`wide_index`): its deps
are summed in groups whose codes fit a byte, and each group's code is
widened once to 32-bit lanes and summed there. Such an index is read
with `operator.itemgetter` over the unpacked lanes. Rules read from
documents or rebuilt by `make_network` carry no code and take these
table paths.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product
from operator import index, itemgetter, mul
from typing import Callable, Iterable, Iterator, Sequence

from . import docs
from .docs import ArtifactError  # the root error lives with the document layer

DEFAULT_MAX_STATES = 2**22
# Rows of the largest rule table any builder writes.
MAX_TABLE = 2**22
# States per orbit_graph batch: 64 KB of lanes per node.
ORBIT_CHUNK = 2**14
# Nodes per generated function of compile_step: one function for a
# host of hundreds of nodes costs megabytes while it compiles.
STEP_CHUNK = 64

# Lane packing: a batch of b configurations is one int per node, whose
# lane i holds that node's state in configuration i. A lane is one byte
# on an alphabet of at most BYTE_TABLE states (`Network.lane_bytes`)
# and LANE_BITS wide otherwise; table indices past a byte and successor
# codes always take LANE_BITS.
LANE_BITS = 32
LANE_BYTES = LANE_BITS // 8
LANE_LIMIT = 1 << LANE_BITS
# array typecode per lane width in bytes
LANE_CODES = {1: "B", LANE_BYTES: "I"}
# Tables and alphabets up to this size are read with bytes.translate.
BYTE_TABLE = 256
if array("I").itemsize != LANE_BYTES:
    raise ImportError("lane packing needs a 4-byte array('I') item")


class InvalidNetworkError(ArtifactError, ValueError):
    """Malformed network: bad deps, table sizes or state values."""


class InvalidConfigError(ArtifactError, ValueError):
    """Configuration does not match the network (length or alphabet)."""


class BudgetExceededError(ArtifactError):
    """An exploration exceeded its state or time budget, or a rule table,
    or the tables one builder pass fills, would have more than MAX_TABLE
    rows.

    Raised instead of silently truncating; callers that want partial
    results must pass a larger exploration budget explicitly. The table
    budget is fixed.
    """


# bytes.translate tables that add -1, +1 or 64 to every byte of a row code.
_SHIFT = {d: bytes((i + d) % 256 for i in range(256)) for d in (-1, 1, 64)}


@dataclass(frozen=True)
class CountCode:
    """A binary table as an affine byte code: table[i] = lut[base + sum_j weights[j]*a_j].

    a_j is the state of dep j in row i. One weight is 64, at the node's
    own dep (`own`); every other weight is -1, 0 or 1, and base plus
    those terms stays in [0, 64). So the code is own state * 64 + live
    count, as a binary CSAN node reads its neighbours through their
    labels, and `step_batch` steps the rule in byte lanes with one
    weighted sum of the packed deps and one translate through the
    256-byte lut, whatever the table's size. `plain` says every weight
    but the own one is +1 and the base is 0: the sum needs no product.
    """

    weights: tuple[int, ...]
    base: int
    lut: bytes
    own: int = field(init=False)
    plain: bool = field(init=False)

    def __post_init__(self) -> None:
        own = self.weights.index(64)
        object.__setattr__(self, "own", own)
        plain = self.base == 0 and all(w == 1 for j, w in enumerate(self.weights) if j != own)
        object.__setattr__(self, "plain", plain)

    def rows(self) -> bytes:
        """The table, one byte per row, built by doubling from the base.

        The rows with a_j = 1 are the rows so far with weights[j] added,
        so bit j of a row index holds a_j.
        """
        rows = bytes([self.base])
        for w in self.weights:
            rows += rows.translate(_SHIFT[w]) if w else rows
        return rows.translate(self.lut)


@dataclass(frozen=True)
class Rule:
    """Local update rule of one node: its deps and its table over them.

    code, when given, is the `CountCode` that table was built from,
    with its weights in deps order; `step_batch` then steps the rule
    through it. It says nothing the table does not: it takes no part in
    equality, hashing, repr or documents, and builders that copy a rule
    (`make_network` among them) drop it.
    """

    deps: tuple[int, ...]
    table: tuple[int, ...]
    code: CountCode | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Network:
    """Automata network: shared alphabet size plus one rule per node."""

    alphabet: int
    rules: tuple[Rule, ...]

    @property
    def n(self) -> int:
        return len(self.rules)

    @cached_property
    def byte_tables(self) -> tuple[bytes | None, ...]:
        """Per rule, its translation table for `gather_lanes`, built on first use.

        Rules that share one table object share one translation table.
        Not a field, so it takes no part in equality, hashing or documents.
        """
        return tuple(
            map_shared(lambda t: byte_table(t, self.alphabet), [r.table for r in self.rules])
        )

    @cached_property
    def lane_bytes(self) -> int:
        """Bytes per lane of `step_batch`: 1 on an alphabet of at most 256, else 4.

        A byte holds every state; a table of more than 256 entries reads
        a 32-bit index built for its node alone. Not a field.
        """
        return 1 if self.alphabet <= BYTE_TABLE else LANE_BYTES

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


def map_shared(fn: Callable, items: Sequence) -> list:
    """[fn(x) for x in items], calling fn once per distinct object in items.

    Objects are told apart by identity, which items keeps alive for the
    call, so equal but distinct objects each get their own call.
    """
    done: dict[int, object] = {}
    out = []
    for x in items:
        key = id(x)
        if key not in done:
            done[key] = fn(x)
        out.append(done[key])
    return out


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


def pack_lanes(states: Iterable[int], width: int) -> int:
    """One packed int whose lane i, `width` bytes wide, holds the i-th state."""
    raw = bytes(states) if width == 1 else array(LANE_CODES[width], states).tobytes()
    return int.from_bytes(raw, sys.byteorder)


def unpack_lanes(x: int, b: int, width: int) -> array:
    """The b lanes of a packed int, each `width` bytes wide, lane 0 first."""
    return array(LANE_CODES[width], x.to_bytes(width * b, sys.byteorder))


def byte_table(table: Sequence[int], alphabet: int) -> bytes | None:
    """table padded to 256 bytes for `bytes.translate`, or None if it does not fit.

    It fits when it has at most BYTE_TABLE entries and its states come
    from an alphabet of at most BYTE_TABLE.
    """
    if len(table) > BYTE_TABLE or alphabet > BYTE_TABLE:
        return None
    return bytes(table).ljust(BYTE_TABLE, b"\0")


def gather_lanes(
    table: Sequence[int], idx: int, b: int, width: int, tr: bytes | None,
    idx_width: int | None = None,
) -> int:
    """pack_lanes(table[i] for i in unpack_lanes(idx, b, idx_width), width), at C speed.

    idx_width, the lane width of idx, defaults to width. tr is
    byte_table(table, ...), given only in byte lanes: every byte of the
    packed indices is translated, and that is the result. Without it the
    lanes are unpacked and read with itemgetter.
    """
    if tr is not None:
        return int.from_bytes(idx.to_bytes(b, "little").translate(tr), "little")
    lanes = unpack_lanes(idx, b, idx_width or width)
    got = itemgetter(*lanes)(table)
    return pack_lanes(got if b > 1 else (got,), width)


def byte_digits(q: int) -> int:
    """The most base-q digits whose code fits a byte: the largest g <= 8 with q^g <= 256, or 1."""
    return next((g for g in range(8, 1, -1) if q**g <= BYTE_TABLE), 1)


def wide_index(xs: Sequence[int], deps: Sequence[int], q: int, b: int, g: int) -> int:
    """xs[d_0] + xs[d_1]*q + ... over deps in 32-bit lanes, from b byte lanes of states below q.

    The sum must stay below 2^32. The deps are taken in groups of
    g = byte_digits(q), so that a group's code fits a byte and no lane
    carries into the next. Each code is widened once to 32-bit lanes by
    bytearray slice assignment and multiplied by its place value there.
    """
    idx = 0
    place = 1
    for lo in range(0, len(deps), g):
        code = 0
        m = 1
        for d in deps[lo : lo + g]:
            code += xs[d] * m
            m *= q
        wide = bytearray(LANE_BYTES * b)
        wide[0::LANE_BYTES] = code.to_bytes(b, "little")
        idx += int.from_bytes(wide, "little") * place
        place *= m
    return idx


def step_batch(net: Network, xs: Sequence[int], b: int) -> list[int]:
    """`step` on b >= 1 configurations at once, in lanes of net.lane_bytes.

    xs[v] packs node v's state in each configuration. A rule with a
    `CountCode` sums its packed deps by their weights, adds the base to
    every lane and translates through the code's lut: each lane's sum
    ends in [0, 128), so the big-int sum is the packed byte codes even
    where a negative weight makes a partial sum negative. Otherwise a
    table of at most 256 entries in byte lanes, or any table in 32-bit
    lanes, has its index sum a_0 + a_1*q + ... formed in the network's
    lanes with a few big-int operations, and no lane carries into the
    next. A larger table in byte lanes reads a 32-bit index from
    `wide_index`. `gather_lanes` then reads the table for every lane.
    """
    q = net.alphabet
    width = net.lane_bytes
    g = byte_digits(q)
    get = xs.__getitem__
    ones = int.from_bytes(b"\1" * b, "little")
    out = []
    for rule, tr in zip(net.rules, net.byte_tables):
        code = rule.code
        if code is not None:
            if code.plain:
                idx = sum(map(get, rule.deps)) + 63 * xs[rule.deps[code.own]]
            else:
                idx = sum(map(mul, map(get, rule.deps), code.weights)) + code.base * ones
            out.append(int.from_bytes(idx.to_bytes(b, "little").translate(code.lut), "little"))
            continue
        if tr is None and width == 1:
            idx = wide_index(xs, rule.deps, q, b, g)
            out.append(gather_lanes(rule.table, idx, b, width, None, LANE_BYTES))
            continue
        idx = 0
        m = 1
        for d in rule.deps:
            idx += xs[d] * m
            m *= q
        out.append(gather_lanes(rule.table, idx, b, width, tr))
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


def orbit_at(path: Sequence[tuple[int, ...]], tau: int, period: int, t: int) -> tuple[int, ...]:
    """F^t(x) from walk_orbit's (path, tau, period); t past the path folds into the cycle."""
    if t < len(path):
        return path[t]
    return path[tau + (t - tau) % period]


def analyze_orbit(net: Network, x: Sequence[int], budget: int = DEFAULT_MAX_STATES) -> OrbitAnalysis:
    """Transient, period and cycle of the orbit of x (see walk_orbit)."""
    path, tau, period = walk_orbit(net, check_config(net, x), budget)
    return OrbitAnalysis(tau, period, tuple(path[tau:]))


def table_size(q: int, k: int, tables: int = 1) -> int:
    """q**k, the rows of a table on k deps.

    A builder that fills `tables` such tables in one pass says so, and
    BudgetExceededError is raised when together they pass MAX_TABLE rows.
    """
    # q >= 2 and k past the budget's bit length exceed it without computing q**k.
    if q > 1 and k >= MAX_TABLE.bit_length() or q**k > MAX_TABLE:
        raise BudgetExceededError(f"a table of {q}^{k} rows exceeds the budget of {MAX_TABLE}")
    if tables * q**k > MAX_TABLE:
        raise BudgetExceededError(
            f"a pass of {tables} tables of {q}^{k} rows exceeds the budget of {MAX_TABLE}"
        )
    return q**k


def table_rows(q: int, k: int, tables: int = 1) -> Iterator[tuple[int, ...]]:
    """The values of k deps over {0..q-1}, one tuple per table row, in table order.

    Element 0 varies fastest, so the i-th tuple is the row at index i.
    The budget, for `tables` tables filled from these rows, is checked
    when called, before any row is made.
    """
    table_size(q, k, tables)
    return map(itemgetter(slice(None, None, -1)), product(range(q), repeat=k))


def global_map_network(
    q: int, n: int, next_config: Callable[[tuple[int, ...]], Sequence[int]]
) -> Network:
    """The network on n nodes, each reading all n, whose global map is next_config.

    Each row's image goes into the n tables as it is made, and no row is
    kept; the budget of n tables of q^n rows is checked before any row.
    """
    tables: list[list[int]] = [[] for _ in range(n)]
    for row in table_rows(q, n, tables=n):
        for table, s in zip(tables, next_config(row)):
            table.append(s)
    return make_network(q, [(range(n), t) for t in tables])


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
    high digits, with step_batch in the network's lanes. The c low
    digit planes are the same in every chunk and are built once by
    repeating lanes; the high digits are constant in a chunk.
    Successors are encoded as y_0 + y_1*q + ..., which needs q^n < 2^32
    and so 32-bit lanes: in 32-bit lanes the code is summed in place,
    and in byte lanes `wide_index` builds it, as for a wide table.
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
    width = net.lane_bytes
    lane = [s.to_bytes(width, sys.byteorder) for s in range(q)]
    low = [
        int.from_bytes(b"".join(a * q**v for a in lane) * q ** (c - v - 1), sys.byteorder)
        for v in range(c)
    ]
    ones = int.from_bytes((1).to_bytes(width, sys.byteorder) * b, sys.byteorder)
    succ = array("I")
    for hi in range(q ** (n - c)):
        xs = low + [s * ones for s in index_config(hi, q, n - c)]
        ys = step_batch(net, xs, b)
        if width == 1:
            code = wide_index(ys, range(n), q, b, byte_digits(q))
        else:
            code = sum(y * q**v for v, y in enumerate(ys))
        succ.extend(unpack_lanes(code, b, LANE_BYTES))
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
    # comp[s]: -1 new, -2 on the current path, else the id of s's cycle
    comp = [-1] * len(succ)
    cycles: list[list[int]] = []
    for s in range(len(succ)):
        if comp[s] != -1:
            continue
        path = []
        u = s
        while comp[u] == -1:
            comp[u] = -2
            path.append(u)
            u = succ[u]
        cid = comp[u]
        if cid == -2:
            cid = len(cycles)
            cycles.append(path[path.index(u) :])
        for w in path:
            comp[w] = cid
    basin = Counter(comp)
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
