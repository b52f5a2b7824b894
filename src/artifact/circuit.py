"""Boolean circuits and circuit-to-gate-network compilers.

Circuits here are DAGs over AND/OR/NOT/ID with fanin at most 2. A
circuit is synchronous when every input-to-output path has the same
length; closing such a circuit (feeding outputs back as next inputs)
yields a finite dynamical system that the compilers in this module
re-express over restricted gate catalogs, with a block embedding as the
correctness witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import docs
from .core import ArtifactError, Network, make_network, table_rows
from .gnet import (
    AND_2_1,
    AND_2_2,
    GATE_SETS,
    GNetwork,
    GNetworkBuilder,
    InvalidGNetworkError,
    OR_2_2,
    mon_gate,
)
from .simulate import BlockEmbedding, block_embedding

OPS = {"AND": 2, "OR": 2, "NOT": 1, "ID": 1}


class InvalidCircuitError(ArtifactError, ValueError):
    """Malformed, open or non-synchronous circuit where one is required."""


@dataclass(frozen=True)
class Circuit:
    """DAG circuit. Node ids: 0..n_inputs-1 are inputs, then one per gate."""

    n_inputs: int
    gates: tuple[tuple[str, tuple[int, ...]], ...]
    outputs: tuple[int, ...]

    @property
    def n_nodes(self) -> int:
        return self.n_inputs + len(self.gates)

    def validate(self) -> None:
        if self.n_inputs < 1:
            raise InvalidCircuitError("need at least one input")
        for g, (op, args) in enumerate(self.gates):
            if op not in OPS:
                raise InvalidCircuitError(f"gate {g}: unknown op {op!r}")
            if len(args) != OPS[op]:
                raise InvalidCircuitError(f"gate {g}: {op} takes {OPS[op]} args")
            if any(not (0 <= a < self.n_inputs + g) for a in args):
                raise InvalidCircuitError(f"gate {g}: args must be earlier nodes")
        if not self.outputs:
            raise InvalidCircuitError("need at least one output")
        if any(not (0 <= o < self.n_nodes) for o in self.outputs):
            raise InvalidCircuitError("output id out of range")

    def levels(self) -> tuple[int, ...]:
        """Longest path from the inputs to each node."""
        lv = [0] * self.n_nodes
        for g, (_, args) in enumerate(self.gates):
            lv[self.n_inputs + g] = 1 + max(lv[a] for a in args)
        return tuple(lv)

    @property
    def depth(self) -> int:
        return max(self.levels()[o] for o in self.outputs)

    def is_synchronous(self) -> bool:
        """True iff every input-to-output path has the same length."""
        sets: list[set[int]] = [{0} for _ in range(self.n_inputs)]
        for _, args in self.gates:
            sets.append({l + 1 for a in args for l in sets[a]})
        out_levels = set()
        for o in self.outputs:
            if len(sets[o]) != 1:
                return False
            out_levels |= sets[o]
        return len(out_levels) == 1


def make_circuit(n_inputs, gates, outputs) -> Circuit:
    c = Circuit(n_inputs, tuple((op, tuple(args)) for op, args in gates), tuple(outputs))
    c.validate()
    return c


def eval_circuit(c: Circuit, bits: Sequence[int]) -> tuple[int, ...]:
    if len(bits) != c.n_inputs or any(b not in (0, 1) for b in bits):
        raise InvalidCircuitError("input bits must match the input count")
    vals = list(bits)
    for op, args in c.gates:
        a = [vals[i] for i in args]
        if op == "AND":
            vals.append(a[0] & a[1])
        elif op == "OR":
            vals.append(a[0] | a[1])
        elif op == "NOT":
            vals.append(1 - a[0])
        else:
            vals.append(a[0])
    return tuple(vals[o] for o in c.outputs)


def synchronize(c: Circuit) -> Circuit:
    """Pad short paths with ID gates until all path lengths agree.

    Each gate argument is lifted to the level just below the gate, and
    every output to the overall depth, so the result is synchronous and
    computes the same function. Padding chains are shared.
    """
    c.validate()
    lv = c.levels()
    gates: list[tuple[str, tuple[int, ...]]] = []
    new_lv: list[int] = [0] * c.n_inputs
    pads: dict[tuple[int, int], int] = {}
    remap = list(range(c.n_nodes))

    def lift(node: int, target: int) -> int:
        cur = new_lv[node]
        while cur < target:
            key = (node, cur + 1)
            if key in pads:
                node = pads[key]
            else:
                gates.append(("ID", (node,)))
                node = c.n_inputs + len(gates) - 1
                new_lv.append(cur + 1)
                pads[key] = node
            cur += 1
        return node

    for g, (op, args) in enumerate(c.gates):
        target = lv[c.n_inputs + g] - 1
        lifted = tuple(lift(remap[a], target) for a in args)
        gates.append((op, lifted))
        new_lv.append(target + 1)
        remap[c.n_inputs + g] = c.n_inputs + len(gates) - 1
    depth = max(lv[o] for o in c.outputs)
    outputs = tuple(lift(remap[o], depth) for o in c.outputs)
    out = Circuit(c.n_inputs, tuple(gates), outputs)
    out.validate()
    if not out.is_synchronous():
        raise InvalidCircuitError("padding failed to synchronize")
    return out


def closed_network(c: Circuit) -> Network:
    """The dynamical system of a closed circuit: next state = outputs."""
    c.validate()
    if len(c.outputs) != c.n_inputs:
        raise InvalidCircuitError("closed circuit needs as many outputs as inputs")
    cones: list[set[int]] = [{j} for j in range(c.n_inputs)]
    for _, args in c.gates:
        cones.append(set().union(*(cones[a] for a in args)))
    rules = []
    for j, o in enumerate(c.outputs):
        deps = tuple(sorted(cones[o]))
        table = []
        for vals in table_rows(2, len(deps)):
            full = [0] * c.n_inputs
            for d, v in zip(deps, vals):
                full[d] = v
            table.append(eval_circuit(c, full)[j])
        rules.append((deps, tuple(table)))
    return make_network(2, rules)


def double_rail(c: Circuit) -> tuple[GNetwork, BlockEmbedding]:
    """Compile a closed synchronous circuit to a monotone gate network.

    Every circuit node becomes a complementary rail pair; AND and OR act
    railwise with the dual gate on the negated rails, NOT swaps rails. A
    buffer layer of fanin-1 ORs closes the pipeline, so one source step
    takes depth+1 host steps and the nonzero content occupies a single
    layer at a time.
    """
    c.validate()
    if len(c.outputs) != c.n_inputs:
        raise InvalidCircuitError("closed circuit needs as many outputs as inputs")
    if not c.is_synchronous():
        raise InvalidCircuitError("circuit must be synchronous; run synchronize first")
    if not c.gates:
        raise InvalidCircuitError("gateless circuits cannot be compiled")
    depth = c.depth

    fanout = [0] * c.n_nodes
    for _, args in c.gates:
        for a in args:
            fanout[a] += 1
    for o in c.outputs:
        fanout[o] += 1
    for v in range(c.n_nodes):
        if fanout[v] == 0:
            raise InvalidCircuitError(f"node {v} is never consumed")
        if fanout[v] > 2:
            raise InvalidCircuitError(f"node {v} has fanout {fanout[v]} > 2")

    b = GNetworkBuilder(2)
    # pos/neg rail cells per circuit node, with one slot per consumer
    slots: list[dict[str, list[int]]] = [dict() for _ in range(c.n_nodes)]
    gate_of: list[dict[str, int]] = [dict() for _ in range(c.n_nodes)]

    for j in range(c.n_inputs):
        for rail in ("pos", "neg"):
            gj, outs = b.new_gate(mon_gate("OR", 1, fanout[j]))
            gate_of[j][rail] = gj
            slots[j][rail] = list(outs)
    for g, (op, args) in enumerate(c.gates):
        v = c.n_inputs + g
        f = fanout[v]
        if op == "AND":
            pos, neg = mon_gate("AND", 2, f), mon_gate("OR", 2, f)
        elif op == "OR":
            pos, neg = mon_gate("OR", 2, f), mon_gate("AND", 2, f)
        else:
            pos, neg = mon_gate("OR", 1, f), mon_gate("OR", 1, f)
        for rail, gate in (("pos", pos), ("neg", neg)):
            gj, outs = b.new_gate(gate)
            gate_of[v][rail] = gj
            slots[v][rail] = list(outs)

    def take(v: int, rail: str) -> int:
        return slots[v][rail].pop()

    for g, (op, args) in enumerate(c.gates):
        v = c.n_inputs + g
        if op == "NOT":
            wiring = [("pos", [(args[0], "neg")]), ("neg", [(args[0], "pos")])]
        else:
            wiring = [("pos", [(a, "pos") for a in args]),
                      ("neg", [(a, "neg") for a in args])]
        for rail, sources in wiring:
            for port, (u, r) in enumerate(sources):
                b.connect_port(gate_of[v][rail], port, take(u, r))
    for j, o in enumerate(c.outputs):
        b.connect_port(gate_of[j]["pos"], 0, take(o, "pos"))
        b.connect_port(gate_of[j]["neg"], 0, take(o, "neg"))

    gn = b.build()
    inputs = range(c.n_inputs)
    cells = [gn.outputs[gate_of[j]["pos"]] + gn.outputs[gate_of[j]["neg"]] for j in inputs]
    patterns = [[(q,) * fanout[j] + (1 - q,) * fanout[j] for q in range(2)] for j in inputs]
    claimed = {u for cell in cells for u in cell}
    machinery = [(u, 0) for u in range(gn.n) if u not in claimed]
    return gn, block_embedding(closed_network(c), gn, depth + 1, cells, patterns, machinery)


def gmon_to_gmon2(gn: GNetwork) -> tuple[GNetwork, BlockEmbedding]:
    """Re-express a monotone gate network with fanin-2/fanout-2 gates only.

    Each node becomes a cell pair holding (x, x); each gate a six-layer
    block: the first layer captures the operation (killing the spare
    signal copies against always-zero cells), a carry chain moves the
    result pair down, and fanout-2 gates duplicate it in the last layer
    by OR-ing with a zero. Fanin-2/fanout-1 blocks produce two spare
    zero cells and fanin-1/fanout-2 blocks consume two; a closed network
    has equally many of each, and the spares are matched first-fit.
    """
    gn.validate()
    if gn.alphabet != 2:
        raise InvalidGNetworkError("expected a Boolean gate network")
    for g in gn.gates:
        if g not in GATE_SETS["Gmon"]:
            raise InvalidGNetworkError(f"gate {g.name} is not in the monotone catalog")

    b = GNetworkBuilder(2)
    pair_slots: dict[int, list[int]] = {}
    pair_cells: dict[int, tuple[int, int]] = {}
    pending: list[tuple[int, int, int]] = []  # (gate, port, source node)
    surplus: list[int] = []
    deficits: list[tuple[int, int]] = []
    internals: list[list[int]] = []

    for j, g in enumerate(gn.gates):
        n_in, n_out = g.n_in, g.n_out
        own: list[int] = []
        if n_in == 2:
            g1, (s1, s2) = b.new_gate(AND_2_2 if g in (AND_2_1, AND_2_2) else OR_2_2)
            pending.append((g1, 0, gn.inputs[j][0]))
            pending.append((g1, 1, gn.inputs[j][1]))
            k1, (c1, c1x) = b.new_gate(AND_2_2)
            k2, (c2, c2x) = b.new_gate(AND_2_2)
            pending.append((k1, 0, gn.inputs[j][0]))
            pending.append((k2, 0, gn.inputs[j][1]))
            b.connect_port(k1, 1, c2)
            b.connect_port(k2, 1, c1)
            own += [s1, s2, c1, c1x, c2, c2x]
            spare = [c1x, c2x]
        else:
            g1, (s1, s2) = b.new_gate(AND_2_2)
            pending.append((g1, 0, gn.inputs[j][0]))
            pending.append((g1, 1, gn.inputs[j][0]))
            own += [s1, s2]
            spare = []
        carry_layers = 4 if n_out == 2 else 5
        prev = (s1, s2)
        for _ in range(carry_layers):
            pj, pair = b.new_gate(AND_2_2)
            b.connect(pj, list(prev))
            own += list(pair)
            prev = pair
        if n_out == 2:
            out_pairs = []
            for half in prev:
                dj, pair = b.new_gate(OR_2_2)
                b.connect_port(dj, 0, half)
                if spare:
                    b.connect_port(dj, 1, spare.pop())
                else:
                    deficits.append((dj, 1))
                out_pairs.append(pair)
                own += list(pair)
            for k, v in enumerate(gn.outputs[j]):
                pair_cells[v] = out_pairs[k]
                pair_slots[v] = list(out_pairs[k])
        else:
            (v,) = gn.outputs[j]
            pair_cells[v] = prev
            pair_slots[v] = list(prev)
            surplus += spare
        internals.append(own)

    if len(surplus) != len(deficits):
        raise InvalidGNetworkError("zero budget unbalanced; network is not closed")
    for (dj, port), cell in zip(deficits, surplus):
        b.connect_port(dj, port, cell)
    for gate_idx, port, src in pending:
        b.connect_port(gate_idx, port, pair_slots[src].pop())
    for v, rest in pair_slots.items():
        if rest:
            raise InvalidGNetworkError(f"node {v}: unconsumed signal cells")

    host_gn = b.build()
    paired = {u for cell in pair_cells.values() for u in cell}
    folded = [(u, 0) for own in internals for u in own if u not in paired]
    cells = [pair_cells[v] for v in range(gn.n)]
    patterns = [[(q, q) for q in range(2)]] * gn.n
    return host_gn, block_embedding(gn, host_gn, 6, cells, patterns, folded)


@dataclass(frozen=True)
class NorCircuit:
    """Small circuit of 2-input NOR gates; node ids follow Circuit's scheme."""

    n_inputs: int
    gates: tuple[tuple[int, int], ...]
    outputs: tuple[int, ...]

    def eval(self, bits: Sequence[int]) -> tuple[int, ...]:
        vals = list(bits)
        for a, bb in self.gates:
            vals.append(1 - (vals[a] | vals[bb]))
        return tuple(vals[o] for o in self.outputs)

    @property
    def depth(self) -> int:
        lv = [0] * self.n_inputs
        for a, bb in self.gates:
            lv.append(1 + max(lv[a], lv[bb]))
        return max(lv[o] for o in self.outputs)


def nor_realizers() -> tuple[NorCircuit, NorCircuit]:
    """Depth-2 NOR circuits turning doubled inputs into quadrupled AND/OR.

    On inputs (x, x, y, y): the first returns four copies of x AND y,
    the second four copies of x OR y. Each second-layer gate is emitted
    twice, matching 2-output NOR gates.
    """
    conj = NorCircuit(4, ((0, 1), (2, 3), (4, 5), (4, 5)), (6, 6, 7, 7))
    disj = NorCircuit(4, ((0, 2), (1, 3), (4, 4), (5, 5)), (6, 6, 7, 7))
    return conj, disj


def circuit_to_json(c: Circuit) -> dict:
    return docs.envelope(
        "circuit",
        n_inputs=c.n_inputs,
        gates=[{"op": op, "args": list(args)} for op, args in c.gates],
        outputs=list(c.outputs),
    )


def circuit_from_json(data: dict) -> Circuit:
    with docs.parsing(data, "circuit", InvalidCircuitError):
        c = Circuit(
            data["n_inputs"],
            tuple((g["op"], tuple(g["args"])) for g in data["gates"]),
            tuple(data["outputs"]),
        )
        args = [a for _, a in c.gates]
        docs.integers(InvalidCircuitError, "circuit node ids", [c.n_inputs], c.outputs, *args)
        c.validate()
        return c
