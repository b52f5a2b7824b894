"""Life-on-graphs gadget kit: wire, clock, NOR gadget, and its compiler.

Every graph here runs the same local rule: a dead node comes alive on
exactly three live neighbors, a live node survives on two or three.
A signal is a pair of live three-node layers crawling along a ladder of
layers; each layer trails a helper node whose extra live neighbor
overcrowds the layer one step after the pair has passed, pushing it
back to rest. Six layers closed into a ring tick with period six; the
same six layers left open form a wire. The NOR gadget joins two
incoming wire stubs, a pacing ring, and two outgoing wire stubs around
a sixteen-neighbor collector node that fires exactly when both inputs
stayed quiet, so the stubs re-emit the negated disjunction.

Each gadget is built from the layout code below, which is its only
source: `build_wire`, `build_clock` and the NOR gadget lay out their
edges, and `build_certificate` records the NOR gadget's 64 exempted
runs by stepping the gadget under the boundary traces, all runs at
once in one lane batch per time step. Nothing is read from disk; a
certificate's `report` verifies what was built, once per object.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Iterable

from .core import InvalidConfigError, pack_lanes, step_batch, unpack_lanes
from .csan import Csan, build_lifelike, make_csan
from .gadget import (
    CoherentCertificate,
    Gadget,
    Interface,
    InvalidGadgetError,
    compile_gnetwork_detailed,
    context_nodes,
    exempt_nodes,
    make_certificate,
    make_gadget,
    make_interface,
)
from .glue import PseudoOrbit, make_pseudo_orbit
from .gnet import NOR_2_2, GNetwork
from .simulate import BlockEmbedding, block_embedding

BIRTH = (3,)
SURVIVE = (2, 3)

# Host steps per simulated gate step; also the pacing ring's period.
SIGNAL_PERIOD = 6

# Interface of every junction: two consecutive signal layers plus the
# helpers whose values are not settled at the hand-over instants. The
# producer side drives the earlier layer, its helper, and the spent
# helper of the layer already behind the junction; the consumer side
# computes the later layer and its helper.
RELAY_NAMES = ("relay0", "relay1", "relay2", "relay_aux")
DRIVE_NAMES = ("drive0", "drive1", "drive2", "spent_aux", "drive_aux")


# ---------------------------------------------------------------------------
# Layouts: the wire, the clock and the NOR gadget


def _band(base: int) -> tuple[int, int, int]:
    return (base, base + 1, base + 2)


def _cross(left: Iterable[int], right: Iterable[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in left for v in right]


def _fan(hub: int, nodes: Iterable[int]) -> list[tuple[int, int]]:
    return [(hub, v) for v in nodes]


def _ladder_edges(layers: int, ring: bool) -> list[tuple[int, int]]:
    # Nodes: layer p is the triple 3p..3p+2, helper of layer p is 3*layers+p.
    edges: list[tuple[int, int]] = []
    for p in range(layers if ring else layers - 1):
        edges += _cross(_band(3 * p), _band(3 * ((p + 1) % layers)))
    for p in range(layers):
        edges += _fan(3 * layers + p, _band(3 * p))
    return edges


def build_wire() -> Csan:
    """Open six-layer signal carrier, one helper node per layer."""
    return build_lifelike(24, _ladder_edges(6, ring=False), BIRTH, SURVIVE)


def build_clock() -> Csan:
    """Same ladder closed into a ring; ticks with period six."""
    return build_lifelike(24, _ladder_edges(6, ring=True), BIRTH, SURVIVE)


def clock_initial() -> tuple[int, ...]:
    """Canonical seed of the ring's period-six orbit.

    Two adjacent live layers with the two helpers trailing them; the
    pair advances one layer per step and wraps, so layer 2 is live
    exactly at steps 2 and 3 of each period.
    """
    x = [0] * 24
    for v in (*_band(15), *_band(0), 22, 23):
        x[v] = 1
    return tuple(x)


# NOR gadget node blocks. Input stub: drive layer, spent helper, drive
# helper, relay layer, relay helper, buffer layer + helper, inlet layer
# + helper. Output stub: outlet layer (its helper doubles as the copy's
# spent helper), then drive/relay blocks mirroring the input copies.
_IN_BASE = (0, 17)
_COLLECTOR = 34
_DAMPER = 35
_OUT_BASE = (36, 48)
_CLOCK_BASE = 60
_NOR_SIZE = 84


def _ring_node(layer: int, i: int) -> int:
    return _CLOCK_BASE + 3 * layer + i


def _ring_helper(layer: int) -> int:
    return _CLOCK_BASE + 18 + layer


def _nor_edges() -> list[tuple[int, int]]:
    edges: list[tuple[int, int]] = []
    for base in _IN_BASE:
        drive, relay = _band(base), _band(base + 5)
        buffer, inlet = _band(base + 9), _band(base + 13)
        edges += _cross(drive, relay)
        edges += _fan(base + 4, drive)
        edges += _fan(base + 8, relay)
        edges += _cross(relay, buffer)
        edges += _fan(base + 12, buffer)
        edges += _cross(buffer, inlet)
        edges += _fan(base + 16, inlet)
        edges += _fan(_COLLECTOR, inlet)
    edges.append((_COLLECTOR, _DAMPER))
    edges += _fan(_COLLECTOR, [_ring_node(2, i) for i in range(3)])
    edges += [(_DAMPER, _ring_node(3, 0)), (_DAMPER, _ring_node(3, 1))]
    for base in _OUT_BASE:
        outlet, drive, relay = _band(base), _band(base + 4), _band(base + 8)
        for i in range(3):
            edges += [(outlet[i], _ring_node(3, i)), (outlet[i], _ring_node(3, (i + 1) % 3))]
        edges += _fan(_COLLECTOR, outlet)
        edges += _fan(base + 3, outlet)
        edges += _cross(outlet, drive)
        edges += _fan(base + 7, drive)
        edges += _cross(drive, relay)
        edges += _fan(base + 11, relay)
    for p in range(6):
        edges += _cross(
            [_ring_node(p, i) for i in range(3)],
            [_ring_node((p + 1) % 6, i) for i in range(3)],
        )
        edges += _fan(_ring_helper(p), [_ring_node(p, i) for i in range(3)])
    return edges


def _copy_block(drive0: int, spent: int, drive_aux: int, relay0: int, relay_aux: int) -> dict[str, int]:
    block = {f"drive{i}": drive0 + i for i in range(3)}
    block |= {f"relay{i}": relay0 + i for i in range(3)}
    block |= {"spent_aux": spent, "drive_aux": drive_aux, "relay_aux": relay_aux}
    return block


def _nor_copies() -> tuple[tuple[dict[str, int], ...], tuple[dict[str, int], ...]]:
    ins = tuple(
        _copy_block(base, base + 3, base + 4, base + 5, base + 8) for base in _IN_BASE
    )
    outs = tuple(
        _copy_block(base + 4, base + 3, base + 7, base + 8, base + 11) for base in _OUT_BASE
    )
    return ins, outs


def nor_interface() -> Interface:
    return make_interface(RELAY_NAMES, DRIVE_NAMES)


def build_nor_gadget() -> Gadget:
    """Two input stubs, a pacing ring, and two output stubs around the
    collector; recorded runs re-emit the negated disjunction."""
    csan = build_lifelike(_NOR_SIZE, _nor_edges(), BIRTH, SURVIVE)
    ins, outs = _nor_copies()
    return make_gadget(nor_interface(), csan, ins, outs)


def nor_center_nodes() -> tuple[int, ...]:
    """Columns of the published center run: both inlet triples, the
    pacing triple, damper, collector, both outlet triples."""
    return (
        *_band(_IN_BASE[0] + 13),
        *_band(_IN_BASE[1] + 13),
        *(_ring_node(2, i) for i in range(3)),
        _DAMPER,
        _COLLECTOR,
        *_band(_OUT_BASE[0]),
        *_band(_OUT_BASE[1]),
    )


# ---------------------------------------------------------------------------
# Boundary traces and recorded runs


def _boundary_rows(old: int, new: int) -> tuple[dict[str, int], ...]:
    # Restriction of two back-to-back signals to one junction block: the
    # old value drains through it during steps 0..2, the new value
    # reaches it at step 5 and has fully entered by step 6.
    drive = (old, 0, 0, 0, 0, new, new)
    relay = (old, old, 0, 0, 0, 0, new)
    relay_aux = (0, old, old, 0, 0, 0, 0)
    rows = []
    for t in range(SIGNAL_PERIOD + 1):
        row = {f"drive{i}": drive[t] for i in range(3)}
        row |= {f"relay{i}": relay[t] for i in range(3)}
        row |= {
            "spent_aux": drive[t],
            "drive_aux": relay[t],
            "relay_aux": relay_aux[t],
        }
        rows.append(row)
    return tuple(rows)


def _nor_context(gd: Gadget) -> dict[int, int]:
    live = {_ring_node(5, i) for i in range(3)}
    live |= {_ring_node(0, i) for i in range(3)}
    live |= {_ring_helper(4), _ring_helper(5)}
    return {v: int(v in live) for v in context_nodes(gd)}


def _driven(
    gd: Gadget,
    traces: dict[tuple[int, int], tuple[dict[str, int], ...]],
    cell: tuple[tuple[int, ...], ...],
    t: int,
) -> Iterable[tuple[int, int]]:
    # (node, state) pairs the boundary imposes at step t on the run of
    # cell (q_i, q_ip, q_o): every copy node at t = 0, afterwards the
    # drive block of input copies and the relay block of output copies.
    q_i, q_ip, q_o = cell
    sides = (
        (gd.in_copies, zip(q_i, q_ip), DRIVE_NAMES),
        (gd.out_copies, zip(q_o, NOR_2_2.apply(q_i)), RELAY_NAMES),
    )
    for copies, pairs, names in sides:
        for copy, pair in zip(copies, pairs):
            row = traces[pair][t]
            for name in row if t == 0 else names:
                yield copy[name], row[name]


def build_certificate() -> CoherentCertificate:
    """Coherence data for the NOR gadget at time constant six.

    Cell (q_i, q_ip, q_o) starts from the frozen context with every
    copy in its state pattern, then steps the gadget while the boundary
    traces overwrite the externally driven nodes. The 64 runs advance
    together, lane i of one `step_batch` per step running cell i.
    """
    gd = build_nor_gadget()
    traces = {(a, b): _boundary_rows(a, b) for a in (0, 1) for b in (0, 1)}
    context = _nor_context(gd)
    cells = list(product(product(range(2), repeat=2), repeat=3))
    xs = []
    for cell in cells:
        x = [0] * gd.n
        for v, s in (*context.items(), *_driven(gd, traces, cell, 0)):
            x[v] = s
        xs.append(x)
    runs = [[tuple(x)] for x in xs]
    b, width = len(cells), gd.dynamics.lane_bytes
    for t in range(1, SIGNAL_PERIOD + 1):
        cols = step_batch(gd.dynamics, [pack_lanes(col, width) for col in zip(*xs)], b)
        xs = [list(x) for x in zip(*(unpack_lanes(col, b, width) for col in cols))]
        for x, run, cell in zip(xs, runs, cells):
            for v, s in _driven(gd, traces, cell, t):
                x[v] = s
            run.append(tuple(x))
    exempt = exempt_nodes(gd)
    return make_certificate(
        nor_interface(),
        {NOR_2_2: gd},
        tuple(traces[(q, q)][0] for q in (0, 1)),
        {NOR_2_2: context},
        SIGNAL_PERIOD,
        traces,
        {NOR_2_2: {cell: make_pseudo_orbit(run, exempt) for cell, run in zip(cells, runs)}},
    )


@cache
def _bundled_certificate() -> CoherentCertificate:
    """One `build_certificate()` per process, so its report is computed once.

    Only `compile_to_gol` reads it; `build_certificate` still returns a
    fresh object, which a caller may edit.
    """
    return build_certificate()


# ---------------------------------------------------------------------------
# Signals on the open wire


def wire_signal(bit: int, steps: int = 5, offset: int = 0) -> PseudoOrbit:
    """Run of one signal entering the wire, entry layer and helper driven.

    Layer p is live at the two steps offset+p and offset+p+1 when the
    bit is set; its helper follows one step behind. The zero signal
    leaves the wire at rest.
    """
    if bit not in (0, 1):
        raise InvalidConfigError(f"signal value must be 0 or 1, got {bit!r}")
    configs = []
    for t in range(steps + 1):
        x = [0] * 24
        if bit:
            for p in range(6):
                if t - offset in (p, p + 1):
                    for v in _band(3 * p):
                        x[v] = 1
                if t - offset in (p + 1, p + 2):
                    x[18 + p] = 1
        configs.append(tuple(x))
    return make_pseudo_orbit(configs, (*_band(0), 18))


# ---------------------------------------------------------------------------
# The compiler


def compile_to_gol(
    gn: GNetwork, certificate: CoherentCertificate | None = None
) -> tuple[Csan, BlockEmbedding]:
    """Compile a closed NOR-gate network into a lifelike member.

    The returned labeled network simulates the gate network with six
    host steps per gate step, witnessed by the block embedding. Without
    a certificate, `build_certificate()` runs and is verified once per process.
    """
    gn.validate()
    for gate in gn.gates:
        if gate != NOR_2_2:
            raise InvalidGadgetError(f"gate {gate.name} is not the two-output NOR")
    if not gn.gates:
        host = make_csan(2, 0, [], [])
        return host, block_embedding(gn, host, SIGNAL_PERIOD, (), ())
    cert = certificate if certificate is not None else _bundled_certificate()
    compiled = compile_gnetwork_detailed(gn, cert)
    if not isinstance(compiled.host, Csan):
        raise InvalidGadgetError("certificate gadgets carry no labeled structure")
    return compiled.host, compiled.embedding
