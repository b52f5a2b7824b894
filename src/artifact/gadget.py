"""Networks with glueing interfaces, coherence certificates, and the compiler.

A gadget is a network carrying marked copies of a fixed interface, each
copy flagged as an input or an output. Its dynamics is held once: the
labeled network (Csan) when there is one, the tabulated Network
otherwise. Either is stepped and checked as it is, a Csan through the
table it derives once, on first use, and gadget documents carry
whichever of the two the gadget holds. Gluing an output copy of one
gadget onto an input copy of another fuses the two copies node by node.
A coherence certificate pins down, for one gate catalog, the exempted
runs and boundary traces that make every such assembly simulate the
corresponding gate network.

`compile_gnetwork_detailed` is the one place that glues gadgets. It
fuses each gate with the gates before it along every wire between them,
builds each step's junction on (gate, node) identities, and numbers and
builds the host once, so it costs time linear in the gates. Its gadgets
are certified: the certificate's `csan_closure_failures` discharges
every labeled-glue guard inside an interface copy, so each junction
only compares edges across its wires. Networks glued outside a
certificate go through `glue.glue_parts`, which runs the full guards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product
from typing import Iterable, Mapping, Sequence

from . import docs
from .core import (
    MAX_TABLE,
    ArtifactError,
    Network,
    capped_power,
    check_entries,
    make_network,
    map_shared,
    network_from_json,
    network_to_json,
)
from .csan import Csan, InvalidCsanError, csan_from_json, csan_to_json
from .glue import (
    InvalidGlueError,
    Junction,
    PseudoOrbit,
    PseudoOrbitReport,
    check_pseudo_orbit_shape,
    check_shaped_runs,
    differing_edges,
    differing_labels,
    glued_csan,
    glued_network,
    glued_numbering,
    leaves_placement,
    pseudo_orbit_from_json,
    pseudo_orbit_to_json,
)
from .gnet import GNetwork, Gate, gate_from_json, gate_to_json
from .simulate import BlockEmbedding, block_embedding


class InvalidGadgetError(ArtifactError, ValueError):
    """Interface, copy map, wiring or certificate constraint violated."""


# ---------------------------------------------------------------------------
# Interfaces and gadgets


@dataclass(frozen=True)
class Interface:
    """Named boundary nodes split into a receiving and an emitting half."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return self.inputs + self.outputs

    def validate(self) -> None:
        names = self.names
        if not names:
            raise InvalidGadgetError("interface must have at least one node")
        if any(not isinstance(c, str) for c in names):
            raise InvalidGadgetError("interface node names must be strings")
        if len(set(names)) != len(names):
            raise InvalidGadgetError("interface halves must be disjoint and duplicate-free")


def make_interface(inputs: Iterable[str], outputs: Iterable[str]) -> Interface:
    iface = Interface(tuple(inputs), tuple(outputs))
    iface.validate()
    return iface


@dataclass
class Gadget:
    """Dynamics plus injective interface copies with disjoint images.

    dynamics is a Csan for a labeled gadget and a Network otherwise;
    either is stepped as it is. in_copies[k] and out_copies[k] send
    every interface name to one of its nodes.
    """

    interface: Interface
    dynamics: Csan | Network
    in_copies: tuple[dict[str, int], ...]
    out_copies: tuple[dict[str, int], ...]

    @property
    def n(self) -> int:
        return self.dynamics.n

    @property
    def alphabet(self) -> int:
        return self.dynamics.alphabet

    @property
    def csan(self) -> Csan | None:
        return self.dynamics if isinstance(self.dynamics, Csan) else None

    def validate(self) -> None:
        self.interface.validate()
        names = set(self.interface.names)
        seen: set[int] = set()
        for kind, copies in (("input", self.in_copies), ("output", self.out_copies)):
            for k, copy in enumerate(copies):
                if set(copy.keys()) != names:
                    raise InvalidGadgetError(
                        f"{kind} copy {k} must map exactly the interface names"
                    )
                vals = list(copy.values())
                if len(set(vals)) != len(vals):
                    raise InvalidGadgetError(f"{kind} copy {k} must be injective")
                for v in vals:
                    if not 0 <= v < self.n:
                        raise InvalidGadgetError(f"{kind} copy {k} maps outside the network")
                    if v in seen:
                        raise InvalidGadgetError("interface copies must have disjoint images")
                    seen.add(v)


def make_gadget(
    interface: Interface,
    dynamics: Csan | Network,
    in_copies: Iterable[Mapping[str, int]],
    out_copies: Iterable[Mapping[str, int]],
) -> Gadget:
    g = Gadget(
        interface,
        dynamics,
        tuple(dict(c) for c in in_copies),
        tuple(dict(c) for c in out_copies),
    )
    g.validate()
    return g


def interface_nodes(g: Gadget) -> frozenset[int]:
    """All nodes owned by some interface copy."""
    nodes: set[int] = set()
    for copy in (*g.in_copies, *g.out_copies):
        nodes.update(copy.values())
    return frozenset(nodes)


def context_nodes(g: Gadget) -> tuple[int, ...]:
    """Nodes outside every interface copy, ascending."""
    owned = interface_nodes(g)
    return tuple(v for v in range(g.n) if v not in owned)


def exempt_nodes(g: Gadget) -> frozenset[int]:
    """Boundary nodes driven from outside the gadget.

    Receiving halves of input copies and emitting stubs of output
    copies are ruled by whatever gets glued there, never by the gadget
    itself, so its recorded runs are exempted exactly there.
    """
    out: set[int] = set()
    for copy in g.in_copies:
        out.update(copy[c] for c in g.interface.outputs)
    for copy in g.out_copies:
        out.update(copy[c] for c in g.interface.inputs)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Gadget glueing
#
# Until the host is numbered, a node of a glued gadget is named by
# (gate, node).


def _copy_crossings(g: Gadget) -> dict[int, list[int]]:
    """Each interface node's neighbours in other copies of g (none in the NOR gadget)."""
    copy_of = {v: k for k, copy in enumerate((*g.in_copies, *g.out_copies)) for v in copy.values()}
    out: dict[int, list[int]] = {}
    for u, v in g.csan.edges:
        ku, kv = copy_of.get(u), copy_of.get(v)
        if ku is not None and kv is not None and ku != kv:
            out.setdefault(u, []).append(v)
            out.setdefault(v, []).append(u)
    return out


def _check_across_wires(
    parts: Sequence[Csan], d: Junction, crossings: Sequence[Mapping[int, list[int]]]
) -> None:
    """`check_dowel_structure` on a junction of certified gadgets, whose copies are wires.

    crossings[j] is `_copy_crossings` of part j. Only names on different
    wires can still differ (see `csan_closure_failures`), and on one side
    such a pair shares an edge only if it joins two copies of one part.
    Those pairs are compared in the full guard's order.
    """
    joined = set()
    for at in (d.at1, d.at2):
        name_at = {node: a for a, node in at.items()}
        for a, (j, u) in at.items():
            ends = (name_at.get((j, w)) for w in crossings[j].get(u, ()))
            joined.update(frozenset((a, b)) for b in ends if b is not None)
    pairs = [p for p in combinations(d.c1 + d.c2, 2) if frozenset(p) in joined]
    for a, b in differing_edges(parts, pairs, d.at1, d.at2):
        raise InvalidGlueError(f"induced dowel subgraphs differ on pair ({a!r}, {b!r})")


# ---------------------------------------------------------------------------
# Coherence certificates


@dataclass
class CoherentCertificate:
    """Everything needed to turn gate diagrams into simulating networks.

    state_configs[q] encodes source state q on one interface copy;
    standard_traces[(q, q')] is the boundary evolution from q to q' in
    `time` steps; for each gate the certificate records one exempted
    run per (input states, next input states, output states) triple,
    the next output states being determined by the gate itself.

    `report` is `verify_certificate` of this object, computed on first
    use (the first compile) and kept; it is not a field, so it takes no
    part in equality or serialization. Do not edit a certificate's
    contents after its first compile: build a variant as a new object,
    with `dataclasses.replace` or by loading it again. A `copy.copy`
    carries the kept report over, so only those two ways give a
    certificate that is verified again.
    """

    interface: Interface
    gadgets: dict[Gate, Gadget]
    state_configs: tuple[dict[str, int], ...]
    context_configs: dict[Gate, dict[int, int]]
    time: int
    standard_traces: dict[tuple[int, int], tuple[dict[str, int], ...]]
    pseudo_orbits: dict[
        Gate,
        dict[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], PseudoOrbit],
    ]

    @property
    def source_alphabet(self) -> int:
        return len(self.state_configs)

    @property
    def host_alphabet(self) -> int:
        for g in self.gadgets.values():
            return g.alphabet
        raise InvalidGadgetError("certificate carries no gadgets")

    @cached_property
    def report(self) -> CertificateReport:
        return verify_certificate(self)


def make_certificate(
    interface: Interface,
    gadgets: Mapping[Gate, Gadget],
    state_configs: Sequence[Mapping[str, int]],
    context_configs: Mapping[Gate, Mapping[int, int]],
    time: int,
    standard_traces: Mapping[tuple[int, int], Sequence[Mapping[str, int]]],
    pseudo_orbits: Mapping[Gate, Mapping[tuple, PseudoOrbit]],
) -> CoherentCertificate:
    if not gadgets:
        raise InvalidGadgetError("certificate needs at least one gate")
    return CoherentCertificate(
        interface,
        dict(gadgets),
        tuple(dict(s) for s in state_configs),
        {g: dict(context_configs.get(g, {})) for g in gadgets},
        time,
        {pair: tuple(dict(p) for p in pats) for pair, pats in standard_traces.items()},
        {
            g: {tuple(map(tuple, key)): po for key, po in table.items()}
            for g, table in pseudo_orbits.items()
        },
    )


# Failures a certificate report lists before one line counts the rest, and
# what stands for a missing cell past them, counted but never formatted.
MAX_FAILURES, _UNLISTED = 100, ["(not listed)"]


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    checked: int
    failures: tuple[str, ...] = ()

    def message(self) -> str:
        if self.ok:
            return f"certificate ok ({self.checked} runs checked)"
        head = "; ".join(self.failures[:4])
        more = len(self.failures) - 4
        tail = f" (+{more} more)" if more > 0 else ""
        return f"certificate rejected: {head}{tail}"


def csan_closure_failures(
    interface: Interface, tagged: Sequence[tuple[str, Gadget]]
) -> tuple[str, ...]:
    """Structural conditions keeping every glueing inside the family.

    Every labeled gadget must be a valid Csan. All interface copies must
    induce the same labeled subgraph as the first, with vertex tables
    that agree with it where both are defined; no edge may leave a copy
    through its receiving half (input copies) or its continuation stub
    (output copies).

    A compiler junction fuses whole copies, wire by wire, each an input
    copy with an output copy, and these checks discharge the
    labeled-glue guards (`glue.check_dowel_structure`) on it but for one
    clause:
    - in one of its two copies each name is a node of the receiving
      half or the continuation stub, and that is the side on which the
      guard asks it to touch only the dowel: its neighbours all lie in
      its copy (`leaves_placement`);
    - its degree there is the name's degree in the shared subgraph, the
      least in any copy, so both of its tables agree with the first
      copy's on every row they share (`differing_labels`);
    - two names of one wire lie in one copy on each side, and both
      copies' edges equal the first copy's (`differing_edges` on
      same-wire pairs).
    Only the edges between names of different wires stay open, so the
    compiler checks just those (`_check_across_wires`).
    """
    names = interface.names
    csans = [g.csan for _, g in tagged]
    fails: list[str] = []
    ref: tuple[str, dict[str, tuple[int, int]]] | None = None
    for j, (tag, g) in enumerate(tagged):
        if g.csan is None:
            fails.append(f"{tag}: no labeled structure attached")
            continue
        try:
            g.csan.validate()
        except InvalidCsanError as exc:
            fails.append(f"{tag}: {exc}")
            continue
        copies = [("input", k, c) for k, c in enumerate(g.in_copies)] + [
            ("output", k, c) for k, c in enumerate(g.out_copies)
        ]
        for kind, k, copy in copies:
            where = f"{tag} {kind} copy {k}"
            at = {c: (j, v) for c, v in copy.items()}
            if ref is None:
                ref = (where, at)
                continue
            ref_where, ref_at = ref
            for a, b in differing_edges(csans, combinations(names, 2), at, ref_at):
                fails.append(
                    f"{where}: induced labeled subgraph differs from"
                    f" {ref_where} on pair ({a!r}, {b!r})"
                )
            for a in differing_labels(csans, names, at, ref_at):
                fails.append(f"{where}: vertex labels differ from {ref_where} at {a!r}")
        sides = (
            ("input", g.in_copies, interface.outputs, "receiving"),
            ("output", g.out_copies, interface.inputs, "continuation"),
        )
        for kind, kind_copies, half, role in sides:
            for k, copy in enumerate(kind_copies):
                if leaves_placement(csans, half, {c: (j, v) for c, v in copy.items()}):
                    fails.append(
                        f"{tag}: {kind} copy {k} {role} nodes have neighbors outside the copy"
                    )
    return tuple(fails)


def _trace_strays(
    runs: Sequence[PseudoOrbit], copies: Sequence[Sequence[int]], wanted: Sequence[Sequence[list]]
) -> list[list[int | None]]:
    """strays[r][k]: the first time at which copies[k] leaves trace wanted[r][k] in runs[r].

    None where the copy follows its trace. A copy is its nodes and a
    trace its rows, both in interface order; traces are as long as the
    runs. One transpose gives every node its states run after run, so a
    copy's rows in all runs are compared with its traces joined, and
    only a copy that differs is searched run by run.
    """
    if not runs:
        return []
    length = len(runs[0].configs)
    lanes = list(zip(*chain.from_iterable(po.configs for po in runs)))
    strays: list[list[int | None]] = [[None] * len(copies) for _ in runs]
    for k, nodes in enumerate(copies):
        got = list(zip(*(lanes[v] for v in nodes)))
        if got == list(chain.from_iterable(per_run[k] for per_run in wanted)):
            continue
        for r, per_run in enumerate(wanted):
            rows = zip(got[r * length : (r + 1) * length], per_run[k])
            strays[r][k] = next((t for t, (a, b) in enumerate(rows) if a != b), None)
    return strays


def _run_failures(
    cell: str,
    po: PseudoOrbit,
    sub: PseudoOrbitReport,
    strays: Iterable[tuple[str, int | None]],
    ctx: Mapping[int, int],
    time: int,
) -> list[str]:
    """A well-shaped cell's failures: its run, then each copy's trace, then its context."""
    failures = []
    if not sub.ok:
        t, v, want, got = sub.failures[0]
        failures.append(
            f"{cell}: not a valid exempted run (t={t}, node {v}, want {want}, got {got})"
        )
    for which, t in strays:
        if t is not None:
            failures.append(f"{cell}: {which} strays from the standard trace at t={t}")
    for t in (0, time):
        if any(po.configs[t][v] != s for v, s in ctx.items()):
            failures.append(f"{cell}: context nodes differ from the recorded context at t={t}")
    return failures


def verify_certificate(cert: CoherentCertificate) -> CertificateReport:
    """Replay every recorded run against every coherence clause.

    A gate's cells are checked in order; the runs of the cells that pass
    the exempt, length, integer and shape checks are stepped together in
    one batch, which does not check their shapes again, their copies are
    held to the standard traces in one pass (`_trace_strays`), and each
    cell's failures keep their place in the report. A gate has q^(2·n_in
    + n_out) cells on q encoded states; a certificate of more than
    MAX_TABLE cells in all is refused with BudgetExceededError before the
    first gate past the budget has a cell made. The report lists the first
    MAX_FAILURES failures in order and then one line that counts the rest;
    a missing cell certain to fall past them is counted, not formatted.
    """
    failures: list[str] = []
    checked = 0
    iface = cert.interface
    try:
        iface.validate()
    except InvalidGadgetError as exc:
        return CertificateReport(False, 0, (f"interface: {exc}",))
    names = iface.names
    nq = cert.source_alphabet
    if nq < 1:
        failures.append("certificate encodes no states")
    if cert.time < 1:
        failures.append("time constant must be >= 1")
    if len({g.alphabet for g in cert.gadgets.values()}) > 1:
        failures.append("gadgets disagree on the alphabet")
    host_q = max((g.alphabet for g in cert.gadgets.values()), default=1)

    def pattern_ok(pat: Mapping[str, int], what: str) -> bool:
        if set(pat.keys()) != set(names):
            failures.append(f"{what} must assign exactly the interface names")
            return False
        docs.integers(InvalidGadgetError, what, pat.values())
        if any(not 0 <= s < host_q for s in pat.values()):
            failures.append(f"{what} uses states outside the alphabet")
            return False
        return True

    states_ok = all(
        pattern_ok(s, f"state pattern {q}") for q, s in enumerate(cert.state_configs)
    )
    if states_ok:
        rows = [tuple(s[c] for c in names) for s in cert.state_configs]
        for q in range(nq):
            for qp in range(q + 1, nq):
                if rows[q] == rows[qp]:
                    failures.append(
                        f"state patterns are not injective (q={q} and q={qp} coincide)"
                    )
    traces_ok = True
    for q in range(nq):
        for qp in range(nq):
            tr = cert.standard_traces.get((q, qp))
            if tr is None:
                failures.append(f"standard trace ({q},{qp}) missing")
                traces_ok = False
                continue
            if len(tr) != cert.time + 1:
                failures.append(f"standard trace ({q},{qp}) has the wrong length")
                traces_ok = False
                continue
            if not all(pattern_ok(p, f"trace ({q},{qp}) step {t}") for t, p in enumerate(tr)):
                traces_ok = False
                continue
            if states_ok and dict(tr[0]) != cert.state_configs[q]:
                failures.append(f"standard trace ({q},{qp}) does not start at pattern {q}")
            if states_ok and dict(tr[-1]) != cert.state_configs[qp]:
                failures.append(f"standard trace ({q},{qp}) does not end at pattern {qp}")

    for gate, gd in cert.gadgets.items():
        prefix = f"gate {gate.name}"
        try:
            gd.validate()
        except InvalidGadgetError as exc:
            failures.append(f"{prefix}: {exc}")
            continue
        if gd.interface != iface:
            failures.append(f"{prefix}: gadget interface differs from the certificate's")
            continue
        if gate.alphabet != nq:
            failures.append(
                f"{prefix}: gate alphabet {gate.alphabet} differs from the"
                f" {nq} encoded states"
            )
            continue
        if len(gd.in_copies) != gate.n_in or len(gd.out_copies) != gate.n_out:
            failures.append(
                f"{prefix}: gadget exposes {len(gd.in_copies)}/{len(gd.out_copies)}"
                f" copies for a {gate.n_in}->{gate.n_out} gate"
            )
            continue
        ctx = cert.context_configs.get(gate, {})
        hat = context_nodes(gd)
        if set(ctx.keys()) != set(hat):
            failures.append(f"{prefix}: context must assign exactly the non-interface nodes")
            continue
        docs.integers(InvalidGadgetError, f"{prefix} context", ctx.values())
        if any(not 0 <= s < gd.alphabet for s in ctx.values()):
            failures.append(f"{prefix}: context uses states outside the alphabet")
            continue
        if not (states_ok and traces_ok):
            continue
        # The gate's cells and those `checked` before it are counted before any is made.
        k = 2 * gate.n_in + gate.n_out
        count = capped_power(nq, k, MAX_TABLE)
        check_entries(checked + count, f"a certificate with {prefix}'s {nq}^{k} cells")
        protected = exempt_nodes(gd)
        table = cert.pseudo_orbits.get(gate, {})
        rows = {
            pair: [tuple(p[c] for c in names) for p in cert.standard_traces[pair]]
            for pair in product(range(nq), repeat=2)
        }
        copies = [[copy[c] for c in names] for copy in (*gd.in_copies, *gd.out_copies)]
        whiches = [f"input copy {k}" for k in range(gate.n_in)]
        whiches += [f"output copy {k}" for k in range(gate.n_out)]
        # Per cell in order: its failures, or its run waiting for the batch;
        # `sure` counts failures certain to come before the next cell.
        cells: list = []
        sure = len(failures)
        for q_i in product(range(nq), repeat=gate.n_in):
            q_op = gate.apply(q_i)
            for q_ip in product(range(nq), repeat=gate.n_in):
                for q_o in product(range(nq), repeat=gate.n_out):
                    checked += 1
                    po = table.get((q_i, q_ip, q_o))
                    if po is None:
                        sure += 1
                        cells.append(
                            [
                                f"{prefix}: missing pseudo-orbit for inputs"
                                f" {q_i}->{q_ip} outputs {q_o}"
                            ]
                            if sure <= MAX_FAILURES
                            else _UNLISTED
                        )
                        continue
                    cell = f"{prefix} cell {q_i}->{q_ip}|{q_o}"
                    if po.exempt != protected:
                        cells.append(
                            [f"{cell}: exempt set differs from the protected interface nodes"]
                        )
                        continue
                    if len(po.configs) != cert.time + 1:
                        cells.append([f"{cell}: run length differs from the time constant"])
                        continue
                    docs.integers(InvalidGadgetError, f"{cell} run", *po.configs)
                    try:
                        check_pseudo_orbit_shape(gd.dynamics, po)
                    except ArtifactError as exc:
                        cells.append([f"{cell}: {exc}"])
                        continue
                    wanted = [rows[pair] for pair in (*zip(q_i, q_ip), *zip(q_o, q_op))]
                    cells.append((cell, po, wanted))
        shaped = [c for c in cells if isinstance(c, tuple)]
        runs = [po for _, po, _ in shaped]
        reports = iter(check_shaped_runs(gd.dynamics, runs))
        strays = iter(_trace_strays(runs, copies, [wanted for *_, wanted in shaped]))
        for c in cells:
            if isinstance(c, tuple):
                cell, po, _ = c
                at = zip(whiches, next(strays))
                c = _run_failures(cell, po, next(reports), at, ctx, cert.time)
            failures.extend(c)

    mirrored = [g.csan is not None for g in cert.gadgets.values()]
    if any(mirrored):
        if not all(mirrored):
            failures.append("mixed labeled and unlabeled gadgets")
        else:
            failures.extend(
                csan_closure_failures(
                    iface, [(f"gate {g.name}", gd) for g, gd in cert.gadgets.items()]
                )
            )
    listed = tuple(failures[:MAX_FAILURES])
    if len(failures) > MAX_FAILURES:
        listed += (f"failures past the first {MAX_FAILURES}: {len(failures) - MAX_FAILURES}",)
    return CertificateReport(not failures, checked, listed)


# ---------------------------------------------------------------------------
# Compiling gate networks


@dataclass
class CompiledGadgets:
    """Assembly artifacts: the host and where everything landed.

    host is a Csan when the gadgets are labeled and a Network otherwise;
    either is stepped and verified as it is. dowels[v] locates the fused
    interface copy carrying source node v; node_maps[j] sends gate j's
    gadget nodes to host nodes; contexts[j] is that gadget's frozen
    surrounding, already in host numbering.
    """

    embedding: BlockEmbedding
    host: Csan | Network
    dowels: tuple[dict[str, int], ...]
    contexts: tuple[dict[int, int], ...]
    node_maps: tuple[dict[int, int], ...]


def compile_gnetwork_detailed(gn: GNetwork, cert: CoherentCertificate) -> CompiledGadgets:
    """Assemble one gadget per gate along the wires and build the host once.

    The gates are walked in order, and step j fuses gate j with the
    gates before it along every wire between them, each wire an input
    copy fused with an output copy; a step with no such wire adds its
    gadget as a disjoint part. A step only builds its junction on (gate,
    node) identities: `glue.glued_numbering` numbers the host once, and
    `glue.glued_csan` (labeled gadgets) or `glue.glued_network` builds
    it, so the compiler costs time linear in the gates.

    The gadgets are certified (`cert.report` holds), so a labeled step
    skips what `csan_closure_failures` has established: its junction
    compares edge labels only between names on different wires
    (`_check_across_wires`), and the host is not validated again. Each
    source node owns its fused interface copy as a block; all frozen
    context nodes ride along in node 0's block.
    """
    gn.validate()
    report = cert.report
    if not report.ok:
        raise InvalidGadgetError(report.message())
    if gn.alphabet != cert.source_alphabet:
        raise InvalidGadgetError(
            f"gate network alphabet {gn.alphabet} differs from the"
            f" {cert.source_alphabet} certified states"
        )
    for gate in gn.gates:
        if gate not in cert.gadgets:
            raise InvalidGadgetError(f"no gadget recorded for gate {gate.name}")
    if not gn.gates:
        host = make_network(cert.host_alphabet, [])
        return CompiledGadgets(block_embedding(gn, host, cert.time, (), ()), host, (), (), ())

    produced_by: dict[int, tuple[int, int]] = {}
    consumed_by: dict[int, tuple[int, int]] = {}
    for j in range(len(gn.gates)):
        for k, v in enumerate(gn.outputs[j]):
            produced_by[v] = (j, k)
        for k, v in enumerate(gn.inputs[j]):
            consumed_by[v] = (j, k)

    iface = cert.interface
    parts = [cert.gadgets[gate] for gate in gn.gates]
    ins = [g.in_copies for g in parts]
    outs = [g.out_copies for g in parts]
    csans = [g.csan for g in parts]
    crossings = map_shared(_copy_crossings, parts) if csans[0] is not None else []
    junctions = []
    for j in range(1, len(parts)):
        # Wire names "a": an earlier input copy on an output copy of gate
        # j; "b": an earlier output copy on an input copy. Each kind comes
        # in (gate, copy) order of the earlier copy. The receiving half
        # keeps the consumer's rules, the emitting half the producer's.
        c1: list[str] = []
        c2: list[str] = []
        at1: dict[str, tuple[int, int]] = {}
        at2: dict[str, tuple[int, int]] = {}
        for tag, half, earlier, ports, copies, own in (
            ("a", iface.inputs, consumed_by, gn.outputs[j], ins, outs[j]),
            ("b", iface.outputs, produced_by, gn.inputs[j], outs, ins[j]),
        ):
            wires = sorted((earlier[v], k) for k, v in enumerate(ports) if earlier[v][0] < j)
            for w, ((i, k), b) in enumerate(wires):
                first, second = copies[i][k], own[b]
                for c in iface.names:
                    name = f"{tag}{w}:{c}"
                    (c1 if c in half else c2).append(name)
                    at1[name], at2[name] = (i, first[c]), (j, second[c])
        junction = Junction(tuple(c1), tuple(c2), at1, at2)
        if any(crossings):
            _check_across_wires(csans, junction, crossings)
        junctions.append(junction)

    node_maps, owner = glued_numbering([g.n for g in parts], junctions)
    if csans[0] is not None:
        host: Csan | Network = glued_csan(csans, node_maps, owner)
    else:
        host = glued_network([g.dynamics for g in parts], node_maps, owner)
    # The fused copy carrying v, numbered through the earlier of its two gates.
    dowels = []
    for v in range(gn.n):
        (pj, pk), (cj, ck) = produced_by[v], consumed_by[v]
        j, copy = (pj, outs[pj][pk]) if pj < cj else (cj, ins[cj][ck])
        dowels.append({c: node_maps[j][u] for c, u in copy.items()})

    contexts: list[dict[int, int]] = []
    for j, gate in enumerate(gn.gates):
        ctx = cert.context_configs[gate]
        contexts.append({node_maps[j][v]: s for v, s in ctx.items()})
    cells, patterns = [], []
    for copy in dowels:
        names = sorted(copy, key=copy.__getitem__)  # by host node
        cells.append([copy[c] for c in names])
        patterns.append([[cert.state_configs[q][c] for c in names] for q in range(gn.alphabet)])
    frozen = sorted((h, s) for m in contexts for h, s in m.items())
    emb = block_embedding(gn, host, cert.time, cells, patterns, frozen)
    return CompiledGadgets(emb, host, tuple(dowels), tuple(contexts), tuple(node_maps))


# ---------------------------------------------------------------------------
# Serialization


def _interface_doc(iface: Interface) -> dict:
    return {"inputs": list(iface.inputs), "outputs": list(iface.outputs)}


def gadget_to_json(g: Gadget) -> dict:
    """Carries the dynamics once: "csan" when labeled, "network" otherwise."""
    if g.csan is None:
        dynamics = {"network": network_to_json(g.dynamics)}
    else:
        dynamics = {"csan": csan_to_json(g.csan)}
    return docs.envelope(
        "gadget",
        interface=_interface_doc(g.interface),
        **dynamics,
        in_copies=[dict(c) for c in g.in_copies],
        out_copies=[dict(c) for c in g.out_copies],
    )


def gadget_from_json(data: dict) -> Gadget:
    with docs.parsing(data, "gadget", InvalidGadgetError):
        iface = make_interface(data["interface"]["inputs"], data["interface"]["outputs"])
        if "csan" in data:
            dynamics: Csan | Network = csan_from_json(data["csan"])
            # Older documents also carry the table, which must match the labels.
            table = data.get("network")
            if table is not None and network_from_json(table) != dynamics.network:
                raise InvalidGadgetError("labeled twin disagrees with the network")
        else:
            dynamics = network_from_json(data["network"])
        copies = [*data["in_copies"], *data["out_copies"]]
        docs.integers(InvalidGadgetError, "interface copy nodes", *(c.values() for c in copies))
        return make_gadget(iface, dynamics, data["in_copies"], data["out_copies"])


def certificate_to_json(cert: CoherentCertificate) -> dict:
    return docs.envelope(
        "certificate",
        interface=_interface_doc(cert.interface),
        time=cert.time,
        state_configs=[dict(s) for s in cert.state_configs],
        standard_traces=[
            {"from": q, "to": qp, "patterns": [dict(p) for p in pats]}
            for (q, qp), pats in sorted(cert.standard_traces.items())
        ],
        gates=[
            {
                "gate": {"alphabet": gate.alphabet, **gate_to_json(gate)},
                "gadget": gadget_to_json(cert.gadgets[gate]),
                "context": {str(v): s for v, s in sorted(cert.context_configs[gate].items())},
                "pseudo_orbits": [
                    {
                        "inputs": list(q_i),
                        "next_inputs": list(q_ip),
                        "outputs": list(q_o),
                        "orbit": pseudo_orbit_to_json(po),
                    }
                    for (q_i, q_ip, q_o), po in sorted(cert.pseudo_orbits[gate].items())
                ],
            }
            for gate in cert.gadgets
        ],
    )


def certificate_from_json(data: dict) -> CoherentCertificate:
    with docs.parsing(data, "certificate", InvalidGadgetError):
        iface = make_interface(data["interface"]["inputs"], data["interface"]["outputs"])
        docs.integers(InvalidGadgetError, "certificate time", (data["time"],))
        gadgets: dict[Gate, Gadget] = {}
        contexts: dict[Gate, Mapping[int, int]] = {}
        orbits: dict[Gate, dict[tuple, PseudoOrbit]] = {}
        for item in data["gates"]:
            gate = gate_from_json(item["gate"], item["gate"]["alphabet"])
            gadgets[gate] = gadget_from_json(item["gadget"])
            contexts[gate] = {int(v): s for v, s in item["context"].items()}
            orbits[gate] = {
                (
                    tuple(cell["inputs"]),
                    tuple(cell["next_inputs"]),
                    tuple(cell["outputs"]),
                ): pseudo_orbit_from_json(cell["orbit"])
                for cell in item["pseudo_orbits"]
            }
        traces = {
            (item["from"], item["to"]): item["patterns"]
            for item in data["standard_traces"]
        }
        return make_certificate(
            iface,
            gadgets,
            data["state_configs"],
            contexts,
            data["time"],
            traces,
            orbits,
        )
