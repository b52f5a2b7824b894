"""Gate networks: automata networks wired from a finite gate catalog.

A gate network is a set of gate instances whose output slots are the
network's nodes. Every node is produced by exactly one gate output and
consumed by exactly one gate input, and no gate consumes one of its own
outputs. The global map updates every gate simultaneously: the node
sitting on output slot k of gate j takes the k-th result of gate j
applied to the nodes wired to its input ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import docs
from .core import (
    ArtifactError,
    Network,
    config_index,
    make_network,
    step,
    table_rows,
    table_size,
)
from .simulate import BlockEmbedding


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
OR_2_1 = mon_gate("OR", 2, 1)
AND_2_2 = mon_gate("AND", 2, 2)
OR_2_2 = mon_gate("OR", 2, 2)
OR_1_2 = mon_gate("OR", 1, 2)
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
class GNetwork:
    """Gate instances plus the two port bijections.

    inputs[j][k] is the node consumed by port k of gate j; outputs[j][k]
    the node produced by its k-th output. Both families partition the
    node set.
    """

    alphabet: int
    gates: tuple[Gate, ...]
    inputs: tuple[tuple[int, ...], ...]
    outputs: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return sum(g.n_out for g in self.gates)

    def validate(self) -> None:
        n = self.n
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

    @property
    def n_nodes(self) -> int:
        return self._n_nodes

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


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n if n > 0 else bytearray()
    out = []
    for p in range(2, n):
        if sieve[p]:
            out.append(p)
            for m in range(p * p, n, p):
                sieve[m] = 0
    return out


def prime_rotations(n: int) -> tuple[GNetwork, tuple[int, ...]]:
    """Disjoint rotation rings, one per prime below n, plus a marked config.

    The marked configuration has a single 1 per ring; its period is the
    product of the ring lengths.
    """
    b = GNetworkBuilder(2)
    ring_starts: list[tuple[int, int]] = []  # (first node, length)
    for p in _primes_below(n):
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


def _is_conjunctive(net: Network) -> bool:
    """Every node ANDs its deps (no deps: constant 1) over {0, 1}."""
    return net.alphabet == 2 and all(
        rule.table == tuple(int(all(row)) for row in table_rows(2, len(rule.deps)))
        for rule in net.rules
    )


class _WaveBuilder:
    """Helper assembling delay chains and trees for conj_to_gconj."""

    def __init__(self, b: GNetworkBuilder):
        self.b = b

    def absorber(self, src: int) -> list[int]:
        """Sink consuming src; output pair latches at 0 from a 0 start."""
        b = self.b
        cj, (f1, f2) = b.new_gate(COPY_1_2)
        b.connect(cj, [src])
        a1, (w1,) = b.new_gate(AND_2_1)
        a2, (w2,) = b.new_gate(AND_2_1)
        b.connect(a1, [f1, w2])
        b.connect(a2, [f2, w1])
        return [f1, f2, w1, w2]

    def chain(self, length: int) -> tuple[int, int, int, list[int]]:
        """Delay chain: (entry gate, entry port, exit node, all nodes).

        Odd lengths place the single fanout-splitting unit at the head;
        its junk branch is absorbed. The exit of any chain of length
        >= 2 is an AND output, so it can serve as a value-carrying cell.
        """
        b = self.b
        nodes: list[int] = []
        entry = None
        prev = None
        rest = length
        if length % 2 == 1:
            cj, (t, j) = b.new_gate(COPY_1_2)
            entry = (cj, 0)
            nodes += [t, j]
            nodes += self.absorber(j)
            prev = t
            rest -= 1
        for _ in range(rest // 2):
            cj, (o1, o2) = b.new_gate(COPY_1_2)
            if entry is None:
                entry = (cj, 0)
            else:
                b.connect_port(cj, 0, prev)
            aj, (t,) = b.new_gate(AND_2_1)
            b.connect(aj, [o1, o2])
            nodes += [o1, o2, t]
            prev = t
        assert entry is not None and prev is not None
        return entry[0], entry[1], prev, nodes

    def and_tree(self, k: int) -> tuple[list[tuple[int, int, int]], int, list[int]]:
        """Balanced AND tree with k leaves: (slots, root, nodes).

        Each slot is (gate, port, depth); depth counts the AND stages
        between the slot and the root inclusive.
        """
        b = self.b
        assert k >= 2
        g, (out,) = b.new_gate(AND_2_1)
        nodes = [out]
        slots: list[tuple[int, int, int]] = []
        for port, part in enumerate([(k + 1) // 2, k - (k + 1) // 2]):
            if part == 1:
                slots.append((g, port, 1))
            else:
                sub_slots, sub_root, sub_nodes = self.and_tree(part)
                b.connect_port(g, port, sub_root)
                nodes += sub_nodes
                slots += [(sg, sp, d + 1) for sg, sp, d in sub_slots]
        return slots, out, nodes

    def copy_tree(self, k: int) -> tuple[int, int, list[tuple[int, int]], list[int]]:
        """Balanced fanout tree: (entry gate, entry port, exits, nodes).

        exits are (node, depth) pairs, depth counting the fork stages
        from the entry.
        """
        b = self.b
        assert k >= 2
        g, (left, right) = b.new_gate(COPY_1_2)
        nodes = [left, right]
        exits: list[tuple[int, int]] = []
        for out, part in ((left, (k + 1) // 2), (right, k - (k + 1) // 2)):
            if part == 1:
                exits.append((out, 1))
            else:
                sub_entry, sub_port, sub_exits, sub_nodes = self.copy_tree(part)
                b.connect_port(sub_entry, sub_port, out)
                nodes += sub_nodes
                exits += [(nd, d + 1) for nd, d in sub_exits]
        return g, 0, exits, nodes


def conj_to_gconj(net: Network) -> tuple[GNetwork, BlockEmbedding]:
    """Compile a conjunctive network into a COPY/AND gate network.

    One value-carrying cell per edge holds the source state of that
    edge; everything else rides a zero-quiescent wave. Fan-in trees
    gather a node's new value in A steps, fanout trees redistribute it
    in B more, so one source step takes T = A + B host steps. Nodes with
    no in-edges (constant 1) are fed by a rotating pulse loop of length
    T; nodes with no out-edges park their value in a drain cell.
    """
    if not _is_conjunctive(net):
        raise InvalidGNetworkError("input is not a conjunctive network")
    n = net.n
    in_edges = [tuple(net.rules[v].deps) for v in range(n)]
    out_edges: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for u in in_edges[v]:
            out_edges[u].append(v)
    for u in range(n):
        out_edges[u].sort()

    def clog2(k):
        return (k - 1).bit_length() if k >= 1 else 0

    big_a = 1 + max((clog2(len(d)) for d in in_edges if d), default=0)
    big_b = 2 + max((clog2(len(o)) for o in out_edges if o), default=0)
    big_t = big_a + big_b

    b = GNetworkBuilder(2)
    wb = _WaveBuilder(b)
    block_nodes: list[list[int]] = [[] for _ in range(n)]
    value_cells: list[list[int]] = [[] for _ in range(n)]  # pattern = state
    edge_cell: dict[tuple[int, int], int] = {}
    pending: list[tuple[int, int, tuple[int, int]]] = []  # gate, port, edge
    pulse_components: list[tuple[int, list[int]]] = []  # (node owner, nodes)

    for v in range(n):
        mine = block_nodes[v]
        d = len(in_edges[v])
        if d == 0:
            # pulse loop: length-T ring of forks; tap 1 drives the node
            loop_gates, loop_nodes, taps = [], [], []
            for _ in range(big_t):
                j, (ln, tn) = b.new_gate(COPY_1_2)
                loop_gates.append(j)
                loop_nodes.append(ln)
                taps.append(tn)
            for i, j in enumerate(loop_gates):
                b.connect_port(j, 0, loop_nodes[(i - 1) % big_t])
            comp = list(loop_nodes) + list(taps)
            for p, tap in enumerate(taps):
                if p != 1:
                    comp += wb.absorber(tap)
            if big_a == 1:
                root = taps[1]
            else:
                cg, cp, root, cn = wb.chain(big_a - 1)
                b.connect_port(cg, cp, taps[1])
                comp += cn
            mine += comp
            pulse_components.append((v, comp))
        elif d == 1:
            cg, cp, root, cn = wb.chain(big_a)
            pending.append((cg, cp, (in_edges[v][0], v)))
            mine += cn
        else:
            slots, root, tn = wb.and_tree(d)
            mine += tn
            for u, (sg, sp, depth) in zip(in_edges[v], slots):
                pad = big_a - depth
                cg, cp, pad_exit, cn = wb.chain(pad)
                b.connect_port(sg, sp, pad_exit)
                pending.append((cg, cp, (u, v)))
                mine += cn

        f = len(out_edges[v])
        if f == 0:
            cg, cp, drain, cn = wb.chain(big_b)
            b.connect_port(cg, cp, root)
            mine += cn
            mine += wb.absorber(drain)
            value_cells[v] = [drain]
        elif f == 1:
            cg, cp, cell, cn = wb.chain(big_b)
            b.connect_port(cg, cp, root)
            mine += cn
            edge_cell[(v, out_edges[v][0])] = cell
            value_cells[v] = [cell]
        else:
            tg, tp, exits, tn = wb.copy_tree(f)
            b.connect_port(tg, tp, root)
            mine += tn
            cells = []
            for w, (exit_node, depth) in zip(out_edges[v], exits):
                cg, cp, cell, cn = wb.chain(big_b - depth)
                b.connect_port(cg, cp, exit_node)
                mine += cn
                edge_cell[(v, w)] = cell
                cells.append(cell)
            value_cells[v] = cells

    for gate_idx, port, edge in pending:
        b.connect_port(gate_idx, port, edge_cell[edge])

    gn = b.build()
    host = gnetwork_to_network(gn)

    # machinery patterns: zero everywhere except inside pulse components,
    # whose steady phase is read off by running them in isolation
    base = [0] * gn.n
    if pulse_components:
        sim = [0] * gn.n
        for v, comp in pulse_components:
            sim[comp[0]] = 1  # pulse parked on the first loop node
        cur = tuple(sim)
        for _ in range(2 * big_t):
            cur = step(host, cur)
        again = cur
        for _ in range(big_t):
            again = step(host, again)
        for v, comp in pulse_components:
            for u in comp:
                if again[u] != cur[u]:
                    raise InvalidGNetworkError("pulse component failed to settle")
                base[u] = cur[u]

    blocks = []
    patterns = []
    for v in range(n):
        cells = set(value_cells[v])
        block = value_cells[v] + [u for u in block_nodes[v] if u not in cells]
        blocks.append(tuple(block))
        pats = []
        for q in range(2):
            pat = [q] * len(value_cells[v])
            pat += [base[u] for u in block_nodes[v] if u not in cells]
            pats.append(tuple(pat))
        patterns.append(tuple(pats))
    emb = BlockEmbedding(big_t, tuple(blocks), tuple(patterns))
    emb.validate(net, host)
    return gn, emb


def gt_transient_network(n: int) -> tuple[GNetwork, tuple[int, ...]]:
    """Freezing network whose transient exceeds the product of primes < n.

    Pulses rotate in one ring per prime; a freezing AND tree watches one
    tap per ring and trips a latch the first time all pulses align,
    which happens after (product of ring lengths) - 1 steps. The latch
    then holds a 2 forever, so the orbit's transient is at least the
    product while the network size only grows like the sum.
    """
    primes = _primes_below(n)
    if not primes:
        raise InvalidGNetworkError("need n >= 3 for at least one prime ring")
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
