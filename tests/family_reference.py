"""The rule families as written before the family registry: the reference.

Each family used to be written three times: the builders, the
membership predicates with `family_spec`, and `_shorthand_rule` for
JSON documents. They are kept here unchanged, so that tests/test_csan.py
can check the registry in `artifact.csan`, which replaced all three,
against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from artifact.csan import (
    Csan,
    InvalidCsanError,
    LambdaTable,
    make_csan,
    multisets_up_to,
    rho_activity,
    rho_identity,
)


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


def csan_from_shorthand(data: dict) -> Csan:
    """Parse a document whose vertices are all shorthands, as the reader did."""
    q = data["alphabet"]
    n = data["n"]
    raw_edges = [(u, v, rho) for u, v, rho in data["edges"]]
    degs = [0] * n
    for u, v, _ in raw_edges:
        degs[u] += 1
        degs[v] += 1
    lam = []
    for v, entry in enumerate(data["vertices"]):
        rule = _shorthand_rule(q, entry["lambda"])
        lam.append({(s, m): rule(s, m) for s in range(q) for m in multisets_up_to(q, degs[v])})
    return make_csan(q, n, raw_edges, lam)
