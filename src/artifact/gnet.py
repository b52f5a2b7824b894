"""Gate networks: automata networks wired from a finite gate catalog.

A gate network is a set of gate instances whose output slots are the
network's nodes. Every node is produced by exactly one gate output and
consumed by exactly one gate input, and no gate consumes one of its own
outputs. The global map updates every gate simultaneously: the node
sitting on output slot k of gate j takes the k-th result of gate j
applied to the nodes wired to its input ports.

A `GNetwork` is a `core.Tabulated` model: every entry point that takes a
network (the steppers, the orbit walker, exhaustive sweeps,
`verify_simulation` on either side, DOT and network documents) takes it
as it is, through its tabulation `gnetwork_to_network`, built once per
instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, takewhile
from typing import Callable, Iterator, Sequence

from . import docs
from .core import (
    ArtifactError,
    Network,
    Tabulated,
    check_entries,
    config_index,
    make_network,
    table_rows,
    table_size,
)


class InvalidGNetworkError(ArtifactError, ValueError):
    """Malformed gate, or port bijection or self-loop constraint violated."""


@dataclass(frozen=True)
class Gate:
    """Finite gate: n_in inputs to n_out outputs over a shared alphabet.

    table has one row per input combination (first port varying
    fastest), each row an n_out tuple.
    """

    name: str
    alphabet: int
    n_in: int
    n_out: int
    table: tuple[tuple[int, ...], ...]

    def apply(self, args: Sequence[int]) -> tuple[int, ...]:
        return self.table[config_index(args, self.alphabet)]


def make_gate(name: str, alphabet: int, n_in: int, n_out: int, fn: Callable) -> Gate:
    rows = []
    for args in table_rows(alphabet, n_in):
        row = fn(*args)
        if not isinstance(row, tuple):
            row = (row,)
        if len(row) != n_out:
            raise InvalidGNetworkError(f"gate {name}: row arity mismatch")
        rows.append(row)
    return Gate(name, alphabet, n_in, n_out, tuple(rows))


def mon_gate(op: str, n_in: int, n_out: int) -> Gate:
    """The monotone Boolean gate AND or OR of n_in inputs, copied to n_out outputs."""
    fn = min if op == "AND" else max
    return make_gate(f"{op}_{n_in}_{n_out}", 2, n_in, n_out, lambda *a: (fn(a),) * n_out)


AND_2_1 = mon_gate("AND", 2, 1)
AND_2_2 = mon_gate("AND", 2, 2)
OR_2_2 = mon_gate("OR", 2, 2)
COPY_1_2 = make_gate("COPY_1_2", 2, 1, 2, lambda x: (x, x))
ID_1_1 = make_gate("ID_1_1", 2, 1, 1, lambda x: (x,))
NOR_2_2 = make_gate("NOR_2_2", 2, 2, 2, lambda x, y: (1 - max(x, y),) * 2)
NAND_2_2 = make_gate("NAND_2_2", 2, 2, 2, lambda x, y: (1 - min(x, y),) * 2)

# Freezing three-state gates: state 2 spreads through the AND-like gates
# and, once caught in the latch pair, never leaves.
FRZ_AND = make_gate(
    "FRZ_AND", 3, 2, 1, lambda x, y: (2,) if 2 in (x, y) else (min(x, y),)
)
FRZ_HOT_AND = make_gate(
    "FRZ_HOT_AND", 3, 2, 1,
    lambda x, y: (2,) if 2 in (x, y) or (x == 1 and y == 1) else (0,),
)
FRZ_HOLD = make_gate(
    "FRZ_HOLD", 3, 2, 1, lambda x, y: (2,) if 2 in (x, y) else (x,)
)
FRZ_ID = make_gate("FRZ_ID", 3, 1, 1, lambda x: (x,))
FRZ_FORK = make_gate("FRZ_FORK", 3, 1, 2, lambda x: (x, x))

GATE_SETS: dict[str, tuple[Gate, ...]] = {
    "Gmon": tuple(mon_gate(op, i, o) for op in ("AND", "OR") for i in (1, 2) for o in (1, 2)),
    "Gmon2": (AND_2_2, OR_2_2),
    "Gnor": (NOR_2_2,),
    "Gnand": (NAND_2_2,),
    "Gconj": (AND_2_1, COPY_1_2),
    "Gwire": (ID_1_1,),
    "Gt": (FRZ_AND, FRZ_HOT_AND, FRZ_HOLD, FRZ_ID, FRZ_FORK),
}


@dataclass(frozen=True)
class GNetwork(Tabulated):
    """Gate instances plus the two port bijections.

    inputs[j][k] is the node consumed by port k of gate j; outputs[j][k]
    the node produced by its k-th output. Both families partition the
    node set. The tabulation `network`, through which `core` steps,
    walks, verifies and writes a gate network as it is, is built once per
    instance on first use and is not a field, so it takes no part in
    equality, hashing or documents.
    """

    alphabet: int
    gates: tuple[Gate, ...]
    inputs: tuple[tuple[int, ...], ...]
    outputs: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return sum(g.n_out for g in self.gates)

    @cached_property
    def network(self) -> Network:
        return gnetwork_to_network(self)

    def validate(self) -> None:
        n = self.n
        if self.alphabet < 1:
            raise InvalidGNetworkError("alphabet size must be >= 1")
        if not (len(self.gates) == len(self.inputs) == len(self.outputs)):
            raise InvalidGNetworkError("gates, inputs and outputs must align")
        consumed: list[int] = []
        produced: list[int] = []
        for j, g in enumerate(self.gates):
            if g.alphabet != self.alphabet:
                raise InvalidGNetworkError(f"gate {j}: alphabet mismatch")
            if len(self.inputs[j]) != g.n_in or len(self.outputs[j]) != g.n_out:
                raise InvalidGNetworkError(f"gate {j}: port arity mismatch")
            consumed.extend(self.inputs[j])
            produced.extend(self.outputs[j])
            if set(self.inputs[j]) & set(self.outputs[j]):
                raise InvalidGNetworkError(f"gate {j}: consumes its own output")
        if sorted(produced) != list(range(n)):
            raise InvalidGNetworkError("outputs must enumerate every node exactly once")
        if sorted(consumed) != list(range(n)):
            raise InvalidGNetworkError("inputs must enumerate every node exactly once")


class GNetworkBuilder:
    """Two-phase construction: allocate gates, wire ports, build.

    Deferred wiring makes cyclic structures (rings, latches) easy: all
    output nodes exist before any input port is connected.
    """

    def __init__(self, alphabet: int):
        self.alphabet = alphabet
        self._gates: list[Gate] = []
        self._inputs: list[list[int | None]] = []
        self._outputs: list[tuple[int, ...]] = []
        self._n_nodes = 0

    def new_gate(self, gate: Gate) -> tuple[int, tuple[int, ...]]:
        j = len(self._gates)
        self._gates.append(gate)
        self._inputs.append([None] * gate.n_in)
        outs = tuple(range(self._n_nodes, self._n_nodes + gate.n_out))
        self._n_nodes += gate.n_out
        self._outputs.append(outs)
        return j, outs

    def connect_port(self, gate_idx: int, port: int, node: int) -> None:
        if self._inputs[gate_idx][port] is not None:
            raise InvalidGNetworkError(f"gate {gate_idx} port {port} wired twice")
        self._inputs[gate_idx][port] = node

    def connect(self, gate_idx: int, nodes: Sequence[int]) -> None:
        for port, node in enumerate(nodes):
            self.connect_port(gate_idx, port, node)

    def add(self, gate: Gate, input_nodes: Sequence[int]) -> tuple[int, ...]:
        j, outs = self.new_gate(gate)
        self.connect(j, input_nodes)
        return outs

    def build(self) -> GNetwork:
        for j, ports in enumerate(self._inputs):
            if any(p is None for p in ports):
                raise InvalidGNetworkError(f"gate {j} has unwired input ports")
        gn = GNetwork(
            self.alphabet,
            tuple(self._gates),
            tuple(tuple(p) for p in self._inputs),  # type: ignore[arg-type]
            tuple(self._outputs),
        )
        gn.validate()
        return gn


def gnetwork_to_network(gn: GNetwork) -> Network:
    """Same dynamics as an explicit-table network.

    Node deps follow the producing gate's input port order, including
    ports the specific output happens to ignore, so all outputs of one
    gate read the same deps in the same order.
    """
    gn.validate()
    rules: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())] * gn.n
    for j, g in enumerate(gn.gates):
        deps = gn.inputs[j]
        for k, v in enumerate(gn.outputs[j]):
            table = tuple(row[k] for row in g.table)
            rules[v] = (deps, table)
    return make_network(gn.alphabet, rules)


def gate_to_json(g: Gate) -> dict:
    """A gate entry of a document: name, arities and table rows."""
    return {
        "name": g.name,
        "n_in": g.n_in,
        "n_out": g.n_out,
        "table": [list(row) for row in g.table],
    }


def gate_from_json(item, alphabet: int) -> Gate:
    """Read a gate entry over `alphabet`, for gnetwork and certificate documents.

    The name is a string; the alphabet (at least 1), the arities and
    every cell are ints; the table has alphabet^n_in rows, each of
    n_out states in the alphabet. A table past the budget is refused
    with BudgetExceededError.
    """
    name, n_in, n_out, table = item["name"], item["n_in"], item["n_out"], item["table"]
    if not isinstance(name, str):
        raise InvalidGNetworkError(f"gate name must be a string, got {name!r}")
    what = f"gate {name} alphabet, arities and table"
    docs.integers(InvalidGNetworkError, what, (alphabet, n_in, n_out), *table)
    if alphabet < 1 or n_in < 0 or n_out < 0:
        raise InvalidGNetworkError(f"gate {name}: needs a state and arities of at least 0")
    if len(table) != table_size(alphabet, n_in):
        raise InvalidGNetworkError(f"gate {name}: {len(table)} table rows, not {alphabet}^{n_in}")
    if any(len(row) != n_out or not all(0 <= s < alphabet for s in row) for row in table):
        raise InvalidGNetworkError(f"gate {name}: each table row needs {n_out} states < {alphabet}")
    return Gate(name, alphabet, n_in, n_out, tuple(map(tuple, table)))


def gnetwork_to_json(gn: GNetwork) -> dict:
    return docs.envelope(
        "gnetwork",
        alphabet=gn.alphabet,
        gates=[
            {**gate_to_json(g), "inputs": list(gn.inputs[j]), "outputs": list(gn.outputs[j])}
            for j, g in enumerate(gn.gates)
        ],
    )


def gnetwork_from_json(data: dict) -> GNetwork:
    with docs.parsing(data, "gnetwork", InvalidGNetworkError):
        q = data["alphabet"]
        docs.integers(InvalidGNetworkError, "alphabet", (q,))
        gates, inputs, outputs = [], [], []
        for j, item in enumerate(data["gates"]):
            docs.integers(InvalidGNetworkError, f"gate {j} ports", item["inputs"], item["outputs"])
            gates.append(gate_from_json(item, q))
            inputs.append(tuple(item["inputs"]))
            outputs.append(tuple(item["outputs"]))
        gn = GNetwork(q, tuple(gates), tuple(inputs), tuple(outputs))
        gn.validate()
        return gn


def _primes() -> Iterator[int]:
    """2, 3, 5, ...: each number that no smaller prime up to its root divides."""
    found: list[int] = []
    for m in count(2):
        if all(m % p for p in takewhile(lambda p: p * p <= m, found)):
            found.append(m)
            yield m


def _entries(g: Gate) -> int:
    """Table entries of one instance of g: n_out tables of alphabet^n_in rows."""
    return g.n_out * len(g.table)


def _ring_primes(n: int, ring_entries: Callable[[int], int], what: str) -> tuple[list[int], int]:
    """The primes below n, and the table entries of one ring per prime.

    The primes come one at a time and the count is checked after each
    ring, so whatever n is, a network past MAX_TABLE entries is refused
    with BudgetExceededError after at most the budget's worth of primes,
    before any gate is built.
    """
    primes, entries = [], 0
    for p in takewhile(lambda p: p < n, _primes()):
        entries += ring_entries(p)
        check_entries(entries, what)
        primes.append(p)
    return primes, entries


def prime_rotations(n: int) -> tuple[GNetwork, tuple[int, ...]]:
    """Disjoint rotation rings, one per prime below n, plus a marked config.

    The marked configuration has a single 1 per ring; its period is the
    product of the ring lengths.
    """
    primes, _ = _ring_primes(n, lambda p: p * _entries(ID_1_1), f"prime rotations below {n}")
    b = GNetworkBuilder(2)
    ring_starts: list[tuple[int, int]] = []  # (first node, length)
    for p in primes:
        gate_ids = []
        node_ids = []
        for _ in range(p):
            j, (out,) = b.new_gate(ID_1_1)
            gate_ids.append(j)
            node_ids.append(out)
        for i, j in enumerate(gate_ids):
            b.connect_port(j, 0, node_ids[(i - 1) % p])
        ring_starts.append((node_ids[0], p))
    gn = b.build()
    config = [0] * gn.n
    for start, _ in ring_starts:
        config[start] = 1
    return gn, tuple(config)


def _tree_entries(leaves: int) -> tuple[int, int]:
    """(table entries, depth) of `gt_transient_network`'s AND tree over that many taps."""
    if leaves == 1:
        return _entries(FRZ_ID), 1
    half = (leaves + 1) // 2
    (left, ld), (right, rd) = _tree_entries(half), _tree_entries(leaves - half)
    return left + right + abs(ld - rd) * _entries(FRZ_ID) + _entries(FRZ_AND), max(ld, rd) + 1


def gt_transient_network(n: int) -> tuple[GNetwork, tuple[int, ...]]:
    """Freezing network whose transient exceeds the product of primes < n.

    Pulses rotate in one ring per prime; a freezing AND tree watches one
    tap per ring and trips a latch the first time all pulses align,
    which happens after (product of ring lengths) - 1 steps. The latch
    then holds a 2 forever, so the orbit's transient is at least the
    product while the network size only grows like the sum.
    """
    what = f"the freezing network on primes below {n}"
    primes, entries = _ring_primes(
        n, lambda p: _entries(FRZ_FORK) + (p - 1) * _entries(FRZ_ID), what
    )
    if not primes:
        raise InvalidGNetworkError("need n >= 3 for at least one prime ring")
    latch = sum(map(_entries, (FRZ_FORK, FRZ_HOT_AND, FRZ_HOLD, FRZ_ID)))
    check_entries(entries + _tree_entries(len(primes))[0] + latch, what)
    b = GNetworkBuilder(3)
    marked: list[int] = []
    taps: list[int] = []
    for p in primes:
        fork_j, (ring0, tap) = b.new_gate(FRZ_FORK)
        ring_nodes = [ring0]
        gate_ids = [fork_j]
        for _ in range(p - 1):
            j, (out,) = b.new_gate(FRZ_ID)
            gate_ids.append(j)
            ring_nodes.append(out)
        for i, j in enumerate(gate_ids):
            b.connect_port(j, 0, ring_nodes[(i - 1) % p])
        taps.append(tap)
        marked.append(ring_nodes[1])

    def tree(leaves: list[int]) -> tuple[int, int]:
        if len(leaves) == 1:
            (out,) = b.add(FRZ_ID, [leaves[0]])
            return out, 1
        half = (len(leaves) + 1) // 2
        left, ld = tree(leaves[:half])
        right, rd = tree(leaves[half:])
        while ld < rd:
            (left,) = b.add(FRZ_ID, [left])
            ld += 1
        while rd < ld:
            (right,) = b.add(FRZ_ID, [right])
            rd += 1
        (out,) = b.add(FRZ_AND, [left, right])
        return out, ld + 1

    root, _ = tree(taps)
    u1, u2 = b.add(FRZ_FORK, [root])
    (a,) = b.add(FRZ_HOT_AND, [u1, u2])
    hold_j, (hold,) = b.new_gate(FRZ_HOLD)
    relay_j, (relay,) = b.new_gate(FRZ_ID)
    b.connect(hold_j, [a, relay])
    b.connect(relay_j, [hold])
    gn = b.build()
    config = [0] * gn.n
    for node in marked:
        config[node] = 1
    return gn, tuple(config)
