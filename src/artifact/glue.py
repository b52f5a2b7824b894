"""Glueing networks along shared dowels, and pseudo-orbit stitching.

A dowel is an abstract node set C split in two halves, injected into
both networks. The glued network keeps C once: nodes of the first half
run the first network's rule, nodes of the second half the second's,
and every dependency is rerouted through the injections. A junction is
a dowel placed on (part, node) pairs, so any number of parts can be
glued along junctions in one build (`glue_parts`). `glued_numbering`
alone decides where every node of a glued host lands, for pairwise
glueing, stitched pseudo-orbits and the gadget compiler alike.
Sequences that respect each network except on an exempt set can be
stitched into one such sequence for the glued network whenever they
agree on the dowel at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

from . import docs
from .core import (
    LANE_LIMIT,
    ArtifactError,
    InvalidConfigError,
    Network,
    Tabulated,
    make_network,
    pack_lanes,
    step,  # unused here; perfbench/test_perfbench.py reads artifact.glue.step
    step_batch,
    unpack_lanes,
)
from .csan import Csan, InvalidCsanError

Name = str


class InvalidGlueError(ArtifactError, ValueError):
    """Bad dowel, incompatible networks, or unmet glueing hypothesis."""


# ---------------------------------------------------------------------------
# Dowels and the glued node numbering


@dataclass
class Dowel:
    """Shared node set C = c1 + c2 injected into both networks.

    Node names are strings; phi1 and phi2 send every name to a node of
    the first and second network respectively. The two target index
    spaces are separate, so the injections never collide.
    """

    c1: tuple[Name, ...]
    c2: tuple[Name, ...]
    phi1: dict[Name, int]
    phi2: dict[Name, int]

    @property
    def names(self) -> tuple[Name, ...]:
        return self.c1 + self.c2

    def validate(self, n1: int, n2: int) -> None:
        names = self.names
        if any(not isinstance(c, str) for c in names):
            raise InvalidGlueError("dowel node names must be strings")
        if len(set(names)) != len(names):
            raise InvalidGlueError("dowel halves must be disjoint and duplicate-free")
        for phi, n, tag in ((self.phi1, n1, "phi1"), (self.phi2, n2, "phi2")):
            if set(phi.keys()) != set(names):
                raise InvalidGlueError(f"{tag} must be defined exactly on the dowel")
            vals = list(phi.values())
            docs.integers(InvalidGlueError, f"{tag} images", vals)
            if len(set(vals)) != len(vals):
                twice = next(v for v in vals if vals.count(v) > 1)
                raise InvalidGlueError(f"{tag} must be injective: node {twice} is fused twice")
            if any(not 0 <= v < n for v in vals):
                raise InvalidGlueError(f"{tag} image outside the network")


def make_dowel(
    c1: Iterable[Name],
    c2: Iterable[Name],
    phi1: Mapping[Name, int],
    phi2: Mapping[Name, int],
) -> Dowel:
    return Dowel(tuple(c1), tuple(c2), dict(phi1), dict(phi2))


# A placement at[c] = (j, v) puts name c at node v of parts[j].
Placement = Mapping[Name, tuple[int, int]]


@dataclass(frozen=True)
class Junction:
    """Dowel names placed on two sides: each name fuses its two nodes.

    The fused node of a c1 name runs the rule at at1, that of a c2 name
    the rule at at2.
    """

    c1: tuple[Name, ...]
    c2: tuple[Name, ...]
    at1: Placement
    at2: Placement


def dowel_junction(d: Dowel) -> Junction:
    """d placed on parts 0 (phi1) and 1 (phi2); d is not validated here."""
    return Junction(
        d.c1, d.c2, {c: (0, d.phi1[c]) for c in d.names}, {c: (1, d.phi2[c]) for c in d.names}
    )


def glued_numbering(
    sizes: Sequence[int], junctions: Sequence[Junction]
) -> tuple[list[dict[int, int]], list[tuple[int, int]]]:
    """Where each node of parts of the given sizes lands when glued along junctions.

    The glued nodes are: the last junction's names in dowel order (c1
    then c2), back to the first junction's; then each part's unfused
    nodes, part by part, ascending. For one dowel that is the dowel's
    names, then the first network's other nodes, then the second's. A
    node fused by one junction may not be fused again, by it or another:
    InvalidGlueError names the first such node. Glueing along disjoint
    junctions is associative, so chained pairwise glueing numbers its
    host the same way.

    Returns (node_maps, owner): node_maps[j] sends the nodes of part j
    to glued nodes, and owner[h] = (j, v) names the node whose rule
    glued node h runs.
    """
    owner: list[tuple[int, int]] = []
    host_of: dict[tuple[int, int], int] = {}
    for junction in reversed(junctions):
        for names, kept, merged in (
            (junction.c1, junction.at1, junction.at2),
            (junction.c2, junction.at2, junction.at1),
        ):
            for c in names:
                for j, v in (kept[c], merged[c]):
                    if (j, v) in host_of:
                        raise InvalidGlueError(f"node {v} of part {j} is fused twice")
                host_of[kept[c]] = host_of[merged[c]] = len(owner)
                owner.append(kept[c])
    for j, n in enumerate(sizes):
        for v in range(n):
            if (j, v) not in host_of:
                host_of[j, v] = len(owner)
                owner.append((j, v))
    node_maps = [{v: host_of[j, v] for v in range(n)} for j, n in enumerate(sizes)]
    return node_maps, owner


def _shared_alphabet(parts: Sequence[Network | Csan]) -> int:
    alphabets = {p.alphabet for p in parts}
    if len(alphabets) != 1:
        raise InvalidGlueError("glued networks must share an alphabet")
    return alphabets.pop()


def glue_parts(
    parts: Sequence[Network | Csan],
    junctions: Sequence[Junction],
    _certified: bool = False,
) -> tuple[Network | Csan, list[dict[int, int]]]:
    """Glue any number of parts along junctions in one build; returns (host, node_maps).

    Glued node h runs the rule of owner[h] (see `glued_numbering`) with
    its dependencies routed through node_maps. Unless every part is a
    Csan, the host is a Network made from the parts' rules. Labeled parts
    give a Csan host from `glued_csan`: every distinct part is validated
    and every junction must pass `check_dowel_structure` first. Valid
    parts that pass the guards glue into a valid host, so it is not
    validated again. _certified says the caller has discharged both (the
    compiler, whose parts are gadgets of a verified certificate, see
    `gadget._glue`).
    """
    q = _shared_alphabet(parts)
    node_maps, owner = glued_numbering([p.n for p in parts], junctions)
    if not all(isinstance(p, Csan) for p in parts):
        rules = []
        for j, v in owner:
            rule = parts[j].rules[v]
            rules.append((tuple(node_maps[j][u] for u in rule.deps), rule.table))
        return make_network(q, rules), node_maps
    if not _certified:
        for part in {id(p): p for p in parts}.values():
            part.validate()
        for junction in junctions:
            check_dowel_structure(parts, junction)
    return glued_csan(parts, node_maps, owner), node_maps


def glued_csan(
    parts: Sequence[Csan], node_maps: Sequence[Mapping[int, int]], owner: Sequence[tuple[int, int]]
) -> Csan:
    """The glued host of valid parts whose junctions passed the guards, built directly.

    Its edges are the union of every part's edges routed through
    node_maps, sorted once; edges fused from several parts must carry
    one label. Node h keeps the table of owner[h], and every label and
    table object stays shared with the parts. The guards make the host
    valid: a fused node's neighbours on the side whose rule it does not
    run lie in the dowel and match those on its own side, so each node
    keeps its part's degree and its table covers it.
    """
    edges: dict[tuple[int, int], tuple[int, ...]] = {}
    for c, route in zip(parts, node_maps):
        for (u, v), rho in zip(c.edges, c.edge_rho):
            a, b = route[u], route[v]
            if a == b:
                raise InvalidCsanError(f"self-loop at node {a} not allowed")
            key = (a, b) if a < b else (b, a)
            if edges.setdefault(key, rho) != rho:
                raise InvalidGlueError(f"conflicting edge labels meet at glued edge {key}")
    order = sorted(edges)
    lam = tuple(parts[j].lam[v] for j, v in owner)
    return Csan(parts[0].alphabet, tuple(order), tuple(map(edges.__getitem__, order)), lam)


def glue_networks(f1: Network, f2: Network, d: Dowel) -> Network:
    """Glued network: dowel once, every dependency rerouted through it.

    Two Csans glue as in `csan_glue`.
    """
    _shared_alphabet((f1, f2))
    d.validate(f1.n, f2.n)
    return glue_parts((f1, f2), [dowel_junction(d)])[0]


# ---------------------------------------------------------------------------
# Pseudo-orbits


@dataclass
class PseudoOrbit:
    """Sequence of configurations respecting F everywhere but on exempt."""

    configs: tuple[tuple[int, ...], ...]
    exempt: frozenset[int]

    @property
    def horizon(self) -> int:
        return len(self.configs) - 1


def make_pseudo_orbit(
    configs: Iterable[Sequence[int]], exempt: Iterable[int] = ()
) -> PseudoOrbit:
    seq = tuple(tuple(x) for x in configs)
    if not seq:
        raise InvalidGlueError("pseudo-orbit needs at least one configuration")
    if any(len(x) != len(seq[0]) for x in seq):
        raise InvalidGlueError("pseudo-orbit configurations must share a length")
    return PseudoOrbit(seq, frozenset(exempt))


@dataclass(frozen=True)
class PseudoOrbitReport:
    ok: bool
    failures: tuple[tuple[int, int, int, int], ...]

    def message(self) -> str:
        if self.ok:
            return "pseudo-orbit respected"
        t, v, want, got = self.failures[0]
        return (
            f"pseudo-orbit broken at t={t}, node {v}: "
            f"expected {want}, found {got} ({len(self.failures)} total)"
        )


def check_pseudo_orbit_shape(net: Network | Tabulated, p: PseudoOrbit) -> None:
    """Raise InvalidConfigError unless p's configurations and exempt set fit net.

    States are checked against the alphabet once per distinct value.
    Runs are stepped in lanes of at most 32 bits, so an alphabet past
    2^32 is refused too.
    """
    if any(len(x) != net.n for x in p.configs):
        raise InvalidConfigError("pseudo-orbit does not match the network size")
    if any(not 0 <= s < net.alphabet for s in set().union(*p.configs)):
        raise InvalidConfigError("pseudo-orbit state outside the alphabet")
    if any(v < 0 or v >= net.n for v in p.exempt):
        raise InvalidConfigError("exempt set outside the node range")
    if net.alphabet > LANE_LIMIT:
        raise InvalidConfigError("pseudo-orbit states do not fit a 32-bit lane")


def check_pseudo_orbits(
    net: Network | Tabulated, runs: Sequence[PseudoOrbit]
) -> list[PseudoOrbitReport]:
    """`check_pseudo_orbit` on every run, all their time steps in one `step_batch`.

    Lane i steps the i-th (run, t) pair in run order. A node whose
    stepped lanes equal the recorded ones costs no more; a differing
    node is unpacked to find its lanes. Raises InvalidConfigError for
    the first run whose shape does not fit net.
    """
    for p in runs:
        check_pseudo_orbit_shape(net, p)
    return _check_shaped_runs(net, runs)


def _check_shaped_runs(
    net: Network | Tabulated, runs: Sequence[PseudoOrbit]
) -> list[PseudoOrbitReport]:
    """`check_pseudo_orbits` on runs that have passed `check_pseudo_orbit_shape`."""
    sources = [x for p in runs for x in p.configs[:-1]]
    found: list[list[tuple[int, int, int, int]]] = [[] for _ in runs]
    if sources:
        b, width = len(sources), net.lane_bytes
        got = step_batch(net, [pack_lanes(col, width) for col in zip(*sources)], b)
        want = [pack_lanes(col, width) for col in zip(*(x for p in runs for x in p.configs[1:]))]
        owner = [(r, t) for r, p in enumerate(runs) for t in range(p.horizon)]
        for v, (g, w) in enumerate(zip(got, want)):
            if g == w:
                continue
            g_lanes, w_lanes = unpack_lanes(g, b, width), unpack_lanes(w, b, width)
            for lane in range(b):
                r, t = owner[lane]
                if g_lanes[lane] != w_lanes[lane] and v not in runs[r].exempt:
                    found[r].append((t, v, g_lanes[lane], w_lanes[lane]))
    return [PseudoOrbitReport(not f, tuple(sorted(f))) for f in found]


def check_pseudo_orbit(net: Network | Tabulated, p: PseudoOrbit) -> PseudoOrbitReport:
    """Verify the step relation at every non-exempt node and time."""
    return check_pseudo_orbits(net, [p])[0]


def glue_pseudo_orbits(
    f1: Network, f2: Network, d: Dowel, p1: PseudoOrbit, p2: PseudoOrbit
) -> PseudoOrbit:
    """Stitch two compatible pseudo-orbits into one for the glued network.

    The first sequence may be exempt on the second half's image (and
    vice versa) plus private sets X and Y away from the dowel; the
    sequences must agree on the dowel at every step. The result is
    exempt exactly on X union Y, renumbered. Runs that do not fit their
    network raise InvalidConfigError.
    """
    if len(p1.configs) != len(p2.configs):
        raise InvalidGlueError("pseudo-orbits must have equal length")
    d.validate(f1.n, f2.n)
    check_pseudo_orbit_shape(f1, p1)
    check_pseudo_orbit_shape(f2, p2)
    node_maps, owner = glued_numbering((f1.n, f2.n), [dowel_junction(d)])
    img1_c2 = {d.phi1[c] for c in d.c2}
    img2_c1 = {d.phi2[c] for c in d.c1}
    if p1.exempt & {d.phi1[c] for c in d.c1}:
        raise InvalidGlueError("first orbit may not be exempt on the first half")
    if p2.exempt & {d.phi2[c] for c in d.c2}:
        raise InvalidGlueError("second orbit may not be exempt on the second half")
    for t, (x, y) in enumerate(zip(p1.configs, p2.configs)):
        for c in d.names:
            if x[d.phi1[c]] != y[d.phi2[c]]:
                raise InvalidGlueError(
                    f"trace mismatch at t={t}, dowel node {c!r}: "
                    f"{x[d.phi1[c]]} vs {y[d.phi2[c]]}"
                )
    configs = tuple(tuple(xy[j][v] for j, v in owner) for xy in zip(p1.configs, p2.configs))
    exempt = {node_maps[0][v] for v in p1.exempt - img1_c2}
    exempt |= {node_maps[1][v] for v in p2.exempt - img2_c1}
    return PseudoOrbit(configs, frozenset(exempt))


# ---------------------------------------------------------------------------
# Glueing that stays inside a labeled family


# The three guards, shared by `check_dowel_structure` and the certificate's
# closure check. Nodes of different parts share no edge.


def differing_edges(
    parts: Sequence[Csan], pairs: Iterable[tuple[Name, Name]], at1: Placement, at2: Placement
) -> Iterator[tuple[Name, Name]]:
    """The name pairs whose edge label differs between the two placements."""

    def edge_of(at: Placement, a: Name, b: Name):
        (ja, u), (jb, v) = at[a], at[b]
        return parts[ja].edge_label(u, v) if ja == jb else None

    for a, b in pairs:
        if edge_of(at1, a, b) != edge_of(at2, a, b):
            yield a, b


def differing_labels(
    parts: Sequence[Csan], names: Sequence[Name], at1: Placement, at2: Placement
) -> Iterator[Name]:
    """The names whose two vertex tables disagree where both are defined."""
    for a in names:
        (j1, v1), (j2, v2) = at1[a], at2[a]
        lam1 = parts[j1].lam[v1]
        lam2 = parts[j2].lam[v2]
        if any(lam1[k] != lam2[k] for k in lam1.keys() & lam2.keys()):
            yield a


def leaves_placement(parts: Sequence[Csan], half: Iterable[Name], at: Placement) -> bool:
    """Whether a node of `half` has a neighbour outside the placement's image."""
    image = set(at.values())
    for c in half:
        j, v = at[c]
        if any((j, u) not in image for u in parts[j].neighbors(v)):
            return True
    return False


def check_dowel_structure(parts: Sequence[Csan], d: Junction) -> None:
    """The labeled-glue guards on a junction of parts.

    The dowel must induce the same labeled subgraph on both sides, the
    vertex labels must agree where both tables are defined, and on each
    side the image of the other side's half may touch only the dowel.
    The first violation is reported by name.
    """
    names = d.c1 + d.c2
    for a, b in differing_edges(parts, combinations(names, 2), d.at1, d.at2):
        raise InvalidGlueError(f"induced dowel subgraphs differ on pair ({a!r}, {b!r})")
    for a in differing_labels(parts, names, d.at1, d.at2):
        raise InvalidGlueError(f"dowel vertex labels differ at {a!r}")
    if leaves_placement(parts, d.c2, d.at1):
        raise InvalidGlueError("second-half image must touch only the dowel in the first network")
    if leaves_placement(parts, d.c1, d.at2):
        raise InvalidGlueError("first-half image must touch only the dowel in the second network")


def csan_glue(c1: Csan, c2: Csan, d: Dowel) -> Csan:
    """Glue two labeled networks; the result keeps every local label.

    Requires: the dowel induces the same labeled subgraph in both
    inputs; in the first input, the second half's image touches only
    the dowel; symmetrically in the second input. Each violation is
    reported by name. Both inputs are validated on entry, and the host
    is built from them directly (`glued_csan`).
    """
    return glue_networks(c1, c2, d)


# ---------------------------------------------------------------------------
# Serialization


def dowel_to_json(d: Dowel) -> dict:
    return docs.envelope(
        "dowel", C1=list(d.c1), C2=list(d.c2), phi1=dict(d.phi1), phi2=dict(d.phi2)
    )


def dowel_from_json(data: dict) -> Dowel:
    with docs.parsing(data, "dowel", InvalidGlueError):
        docs.integers(InvalidGlueError, "dowel images", data["phi1"].values(), data["phi2"].values())
        return make_dowel(data["C1"], data["C2"], data["phi1"], data["phi2"])


def pseudo_orbit_to_json(p: PseudoOrbit) -> dict:
    return docs.envelope(
        "pseudoorbit", exempt=sorted(p.exempt), configs=[list(x) for x in p.configs]
    )


def pseudo_orbit_from_json(data: dict) -> PseudoOrbit:
    with docs.parsing(data, "pseudoorbit", InvalidGlueError):
        return make_pseudo_orbit(data["configs"], data["exempt"])
