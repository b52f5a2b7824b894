"""Decision-problem oracles, instance reductions, and showcase networks.

Desk-scale solvers for four questions about a finite network: whether a
node holds a given state at a given time (time written in unary or in
binary), whether a node ever changes on a fixed sampling grid, and
whether a target configuration is reachable. On top of the solvers sit
instance rewritings: prediction questions can be carried across a block
simulation, folded into reachability questions, and back. The module
also builds the counter networks that pull these questions apart in
difficulty (a formula-gated counter, a pausing scan counter, a
run-length beacon and its products) and a three-speed odometer with
exponentially long cycles, funnels, and many fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import docs
from .core import (
    DEFAULT_MAX_STATES,
    ArtifactError,
    Network,
    Tabulated,
    check_config,
    check_entries,
    config_index,
    global_map_network,
    iterate,
    make_network,
    network_from_json,
    network_to_json,
    orbit_at,
    step,
    table_rows,
    table_size,
    walk_orbit,
)
from .simulate import BlockEmbedding, embed

UNARY_TIME_LIMIT = 1_000_000


class InvalidInstanceError(ArtifactError, ValueError):
    """Instance fields out of range for the attached network."""


class CnfParseError(ArtifactError, ValueError):
    """Malformed clause list or DIMACS text."""


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class PredInstance:
    """Does node v hold state q after t steps from x?

    time_format records how t was written down. "unary" inputs are as
    long as t itself, so their magnitude is capped; "binary" inputs may
    carry astronomically large t and are answered through the orbit's
    eventual cycle instead of by stepping.
    """

    net: Network | Tabulated
    v: int
    x: tuple[int, ...]
    q: int
    t: int
    time_format: str = "unary"


@dataclass(frozen=True)
class PredChgInstance:
    """Is there some t >= 1 with node v differing from x at time k*t?

    Sampling starts at k, not 0: the time-zero sample equals x by
    definition and could never witness a change.
    """

    net: Network | Tabulated
    v: int
    x: tuple[int, ...]
    k: int


@dataclass(frozen=True)
class ReachInstance:
    """Does the orbit of x ever visit y? Time zero counts."""

    net: Network
    x: tuple[int, ...]
    y: tuple[int, ...]


def make_pred_instance(
    net: Network | Tabulated, v: int, x: Sequence[int], q: int, t: int, time_format: str = "unary"
) -> PredInstance:
    x = check_config(net, x)
    if not 0 <= v < net.n:
        raise InvalidInstanceError(f"node {v} out of range")
    if not 0 <= q < net.alphabet:
        raise InvalidInstanceError(f"state {q} out of alphabet range")
    if t < 0:
        raise InvalidInstanceError("time must be non-negative")
    if time_format not in ("unary", "binary"):
        raise InvalidInstanceError(f"unknown time format {time_format!r}")
    if time_format == "unary" and t > UNARY_TIME_LIMIT:
        raise InvalidInstanceError(f"unary time {t} exceeds {UNARY_TIME_LIMIT}")
    return PredInstance(net, v, x, q, t, time_format)


def make_pred_chg_instance(
    net: Network | Tabulated, v: int, x: Sequence[int], k: int
) -> PredChgInstance:
    x = check_config(net, x)
    if not 0 <= v < net.n:
        raise InvalidInstanceError(f"node {v} out of range")
    if k < 1:
        raise InvalidInstanceError("sampling gap must be at least 1")
    return PredChgInstance(net, v, x, k)


def make_reach_instance(net: Network, x: Sequence[int], y: Sequence[int]) -> ReachInstance:
    return ReachInstance(net, check_config(net, x), check_config(net, y))


def instance_to_json(inst) -> dict:
    if not isinstance(inst, (PredInstance, PredChgInstance, ReachInstance)):
        raise TypeError(f"not an instance: {inst!r}")
    doc = docs.envelope("instance", net=network_to_json(inst.net))
    if isinstance(inst, PredInstance):
        doc["problem"] = "u-pred" if inst.time_format == "unary" else "b-pred"
        doc.update(v=inst.v, x=list(inst.x), q=inst.q, t=inst.t)
    elif isinstance(inst, PredChgInstance):
        doc["problem"] = "pred-chg"
        doc.update(v=inst.v, x=list(inst.x), k=inst.k)
    else:
        doc["problem"] = "reach"
        doc.update(x=list(inst.x), y=list(inst.y))
    return doc


def instance_from_json(doc) -> PredInstance | PredChgInstance | ReachInstance:
    with docs.parsing(doc, "instance", InvalidInstanceError):
        net = network_from_json(doc["net"])
        problem = doc["problem"]
        if problem in ("u-pred", "b-pred"):
            fmt = "unary" if problem == "u-pred" else "binary"
            docs.integers(InvalidInstanceError, "v, q and t", (doc["v"], doc["q"], doc["t"]))
            return make_pred_instance(net, doc["v"], doc["x"], doc["q"], doc["t"], fmt)
        if problem == "pred-chg":
            docs.integers(InvalidInstanceError, "v and k", (doc["v"], doc["k"]))
            return make_pred_chg_instance(net, doc["v"], doc["x"], doc["k"])
        if problem == "reach":
            return make_reach_instance(net, doc["x"], doc["y"])
        raise InvalidInstanceError(f"unknown problem kind {problem!r}")


# ---------------------------------------------------------------------------
# Oracles


def u_pred(inst: PredInstance) -> bool:
    """Answer by plain stepping; suited to unary (small) times."""
    return iterate(inst.net, inst.x, inst.t)[inst.v] == inst.q


def b_pred(inst: PredInstance, max_states: int = DEFAULT_MAX_STATES) -> bool:
    """Answer through the orbit's eventual cycle.

    The orbit is walked once up to its first repeat, giving the
    transient tau and period p; any time beyond the walk folds back to
    tau + (t - tau) % p, so t may exceed the orbit length by any
    amount at no extra cost.
    """
    path, tau, p = walk_orbit(inst.net, inst.x, max_states)
    return orbit_at(path, tau, p, inst.t)[inst.v] == inst.q


def pred_chg(inst: PredChgInstance, max_states: int = DEFAULT_MAX_STATES) -> bool:
    """Decide whether the k-step sampling grid ever shows a change.

    Checking t = 1 .. ceil(tau/k) + p is exact: the first ceil(tau/k)
    grid points cover every multiple of k inside the transient, and
    past the transient the folded position tau + (kt - tau) % p is
    periodic in t with period at most p, so p further samples visit
    every grid position that can ever recur.
    """
    path, tau, p = walk_orbit(inst.net, inst.x, max_states)
    horizon = -(-tau // inst.k) + p
    ref = inst.x[inst.v]
    return any(
        orbit_at(path, tau, p, inst.k * t)[inst.v] != ref for t in range(1, horizon + 1)
    )


def reach(inst: ReachInstance, max_states: int = DEFAULT_MAX_STATES) -> bool:
    """Walk the orbit of x once; y is reachable iff it shows up."""
    path, _, _ = walk_orbit(inst.net, inst.x, max_states)
    return inst.y in path


# ---------------------------------------------------------------------------
# Carrying prediction across a block simulation


def reduce_pred_via_simulation(
    host: Network | Tabulated, emb: BlockEmbedding, inst
) -> tuple[list, Callable[[Sequence[bool]], bool]]:
    """Rewrite a source-network question as oracle calls on a host.

    The host runs emb.time steps per source step and stores source
    state q on block emb.blocks[v] as the injective pattern
    emb.patterns[v][q]. State prediction probes single block nodes at
    time t * emb.time; since the patterns are pairwise distinct, fewer
    probes than there are states suffice to tell them all apart, and
    the decoder maps the probe answers back to the unique matching
    state. Change prediction asks every block node with the widened
    gap k * emb.time; injectivity makes a change at any block node
    equivalent to a source change at the sampled instants.

    Returns (instances, decoder); the decoder takes the host oracle's
    answers, in order, and produces the source answer.
    """
    source = inst.net
    emb.validate(source, host)
    y = embed(emb, host.n, inst.x)

    if isinstance(inst, PredChgInstance):
        calls = [
            make_pred_chg_instance(host, u, y, inst.k * emb.time) for u in emb.blocks[inst.v]
        ]

        def decode_chg(answers: Sequence[bool]) -> bool:
            return any(answers)

        return calls, decode_chg

    if not isinstance(inst, PredInstance):
        raise TypeError("expected a PredInstance or PredChgInstance")

    block = emb.blocks[inst.v]
    pats = emb.patterns[inst.v]
    # refine candidate states until the probe answers separate them all
    probes: list[tuple[int, int]] = []
    classes: list[list[int]] = [list(range(source.alphabet))]
    while any(len(c) > 1 for c in classes):
        a, b = next(c for c in classes if len(c) > 1)[:2]
        pos = next(j for j in range(len(block)) if pats[a][j] != pats[b][j])
        probes.append((pos, pats[a][pos]))
        refined: list[list[int]] = []
        for c in classes:
            hit = [s for s in c if pats[s][pos] == pats[a][pos]]
            miss = [s for s in c if pats[s][pos] != pats[a][pos]]
            refined.extend(grp for grp in (hit, miss) if grp)
        classes = refined

    calls = [
        make_pred_instance(host, block[pos], y, qh, inst.t * emb.time, inst.time_format)
        for pos, qh in probes
    ]
    signatures = {
        s: tuple(pats[s][pos] == qh for pos, qh in probes) for s in range(source.alphabet)
    }

    def decode(answers: Sequence[bool]) -> bool:
        got = tuple(bool(a) for a in answers)
        matches = [s for s, sig in signatures.items() if sig == got]
        if len(matches) != 1:
            raise ArtifactError("probe answers match no unique source state")
        return matches[0] == inst.q

    return calls, decode


# ---------------------------------------------------------------------------
# Prediction <-> reachability rewritings


def pred_to_reach(inst: PredInstance) -> ReachInstance:
    """Fold a timed prediction question into plain reachability.

    The built network keeps three tracks on m = max(n, bits of t)
    nodes: a frozen copy of the start configuration, a running copy
    advanced by the original map, and a binary countdown initialised
    to t. While the countdown is positive it decrements as the running
    copy advances; at zero the network freezes, except that it jumps
    to a dedicated all-absorbing configuration exactly when the
    running copy shows the asked state at the asked node. Reaching the
    absorbing configuration is then the same as answering yes. Each of
    the m tables has (2q^2 + 1)^m rows; past the table budget they are
    refused together.
    """
    src = inst.net
    qn = src.alphabet
    n = src.n
    m = max(n, inst.t.bit_length(), 1)
    alpha = 2 * qn * qn
    a_size = alpha + 1

    def enc(frozen: int, running: int, bit: int) -> int:
        return (frozen * qn + running) * 2 + bit

    def next_config(cfg: tuple[int, ...]) -> Sequence[int]:
        if alpha in cfg:
            return cfg
        frozen = [s // (2 * qn) for s in cfg]
        running = [(s // 2) % qn for s in cfg]
        count = sum((s & 1) << i for i, s in enumerate(cfg))
        if count > 0:
            nxt = list(step(src, running[:n])) + running[n:]
            down = count - 1
            return [enc(frozen[u], nxt[u], (down >> u) & 1) for u in range(m)]
        if running[inst.v] == inst.q:
            return (alpha,) * m
        return cfg

    bar = global_map_network(a_size, m, next_config)
    pad = inst.x + (0,) * (m - n)
    start = tuple(enc(pad[u], pad[u], (inst.t >> u) & 1) for u in range(m))
    return make_reach_instance(bar, start, (alpha,) * m)


def reach_to_pred(inst: ReachInstance) -> PredInstance:
    """Fold reachability into a single timed prediction question.

    The built network runs the original map on a working track while a
    base-q countdown long enough to cover every distinct configuration
    ticks away, and a marker node latches whenever the working track
    coincides with the sought configuration. After exactly q^n steps
    every comparison has happened and the countdown has expired, so
    reading the marker there answers the question. The table budget
    bounds the horizon q^n too: each table has q^(3(n+1)) rows.
    """
    src = inst.net
    qn = src.alphabet
    n = src.n
    if qn < 2:
        raise InvalidInstanceError("need at least two states for the marker node")
    horizon = qn**n
    a_size = qn**3

    def enc(running: int, target: int, digit: int) -> int:
        return (running * qn + target) * qn + digit

    run_of = [s // (qn * qn) for s in range(a_size)]
    tgt_of = [(s // qn) % qn for s in range(a_size)]
    dig_of = [s % qn for s in range(a_size)]
    fcache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def next_config(cfg: tuple[int, ...]) -> list[int]:
        running = tuple(run_of[s] for s in cfg[:n])
        target = tuple(tgt_of[s] for s in cfg[:n])
        marker = 1 if running == target else cfg[n]
        count = 0
        for s in reversed(cfg[:n]):
            count = count * qn + dig_of[s]
        if count == 0:
            return [*(enc(target[u], target[u], 0) for u in range(n)), marker]
        nxt = fcache.get(running)
        if nxt is None:
            nxt = step(src, running)
            fcache[running] = nxt
        down = count - 1
        return [*(enc(nxt[u], target[u], (down // qn**u) % qn) for u in range(n)), marker]

    bar = global_map_network(a_size, n + 1, next_config)
    top = horizon - 1
    start = tuple(
        enc(inst.x[u], inst.y[u], (top // qn**u) % qn) for u in range(n)
    ) + (0,)
    return make_pred_instance(bar, n, start, 1, horizon, "binary")


# ---------------------------------------------------------------------------
# Formula counters


def _check_clauses(clauses, n_vars=None):
    cl = tuple(tuple(int(lit) for lit in c) for c in clauses)
    top = 0
    for c in cl:
        for lit in c:
            if lit == 0:
                raise CnfParseError("literal 0 is reserved for clause ends")
            top = max(top, abs(lit))
    if n_vars is None:
        n_vars = top
    if top > n_vars:
        raise CnfParseError(f"literal references variable {top} of {n_vars}")
    return n_vars, cl


def eval_cnf(clauses, assignment: int) -> bool:
    """Truth of a clause list on a valuation packed LSB-first."""
    for c in clauses:
        for lit in c:
            if ((assignment >> (abs(lit) - 1)) & 1) == (lit > 0):
                break
        else:
            return False
    return True


def parse_dimacs(text: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Read DIMACS CNF: a 'p cnf <vars> <clauses>' line, then clauses
    as whitespace-separated literals, each clause terminated by 0."""
    n_vars = None
    expected = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            try:
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError
                n_vars, expected = int(parts[2]), int(parts[3])
            except ValueError:
                raise CnfParseError(f"bad problem line: {line!r}") from None
            continue
        if n_vars is None:
            raise CnfParseError("clause before the problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise CnfParseError(f"bad literal {tok!r}") from None
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if n_vars is None:
        raise CnfParseError("missing problem line")
    if current:
        raise CnfParseError("unterminated clause")
    if expected is not None and len(clauses) != expected:
        raise CnfParseError(f"expected {expected} clauses, found {len(clauses)}")
    n_vars, cl = _check_clauses(clauses, n_vars)
    return n_vars, cl


def sat_pred_network(clauses, n_vars: int | None = None) -> Network:
    """Counter network whose flag tracks a formula over the counter.

    Node 0 is the flag; nodes 1..n hold an n-bit counter, least
    significant bit first, incrementing every step and wrapping. The
    flag is rewritten each step to the formula's truth on the current
    counter value, so starting from all zeros the flag ever changes
    iff some valuation satisfies the formula.
    """
    n_vars, cl = _check_clauses(clauses, n_vars)
    n = n_vars
    # Every table reads the low counter bits (nodes 1, 2, ...) in order, so
    # its row a is counter value a. The flag's 2^n rows and the counter
    # bits' 2^(n+1) - 2 fit the budget of three tables of 2^n rows.
    flag = [int(eval_cnf(cl, a)) for a in range(table_size(2, n, tables=3))]
    rules = [(tuple(range(1, n + 1)), flag)]
    for bit in range(n):
        table = [((a + 1) >> bit) & 1 for a in range(table_size(2, bit + 1))]
        rules.append((tuple(range(1, bit + 2)), table))
    return make_network(2, rules)


def reach_easy_network(clauses, n_vars: int | None = None) -> Network:
    """Counter network that pauses for one step on satisfying values.

    Node 0 is a pause flag; nodes 1..n hold the counter, least
    significant bit first. With the flag down, a satisfying counter
    value raises the flag and holds the counter for one step; in every
    other case the counter advances and the flag drops. The counter
    therefore sweeps all values from any start, so every flag-down
    configuration is reachable, while a flag-up configuration is
    entered only by pausing on its own counter value - reachability
    reduces to one evaluation of the formula (see reach_easy_answer).
    """
    n_vars, cl = _check_clauses(clauses, n_vars)
    n = n_vars

    def next_config(row: tuple[int, ...]) -> list[int]:
        val = config_index(row[1:], 2)
        hold = not row[0] and eval_cnf(cl, val)
        nxt = val if hold else (val + 1) % (1 << n)
        return [int(hold), *((nxt >> bit) & 1 for bit in range(n))]

    return global_map_network(2, n + 1, next_config)


def reach_easy_answer(clauses, x: Sequence[int], y: Sequence[int], n_vars=None) -> bool:
    """Constant-work reachability decision for reach_easy_network.

    The counter sweeps every value from any start, dropping the flag
    as it moves, so any flag-down target is reached; a flag-up target
    is entered exactly by pausing on its counter value, which happens
    iff the formula holds there. The start itself counts at time zero.
    """
    _, cl = _check_clauses(clauses, n_vars)
    x = tuple(x)
    y = tuple(y)
    if y == x or y[0] == 0:
        return True
    return eval_cnf(cl, sum(bit << i for i, bit in enumerate(y[1:])))


# ---------------------------------------------------------------------------
# Run-length beacon and products


def h_counter_network(n: int) -> Network:
    """Run-length beacon: all nodes flash matched runs of zeros and ones.

    Each node holds three bits (mark, sweep bit, width bit), encoded
    mark*4 + sweep*2 + width. The sweep bits across the n nodes form a
    counter i that increments every step and wraps; the width bits
    form a counter k that advances once per full sweep. Every mark is
    rewritten to whether k <= i < 2k, so the sweep at width k shows k
    zeros then k ones (clipped at the sweep end) at every node.
    Sampling any node's mark on a fixed grid of stride below 2^n is
    therefore guaranteed to see both values; stride exactly 2^n can
    resample the same silent spot forever.
    """
    if n < 1:
        raise InvalidInstanceError("need at least one node")
    table_size(8, n, tables=n)  # before 1 << n, which alone would not fit for a huge n
    size = 1 << n

    def next_config(cfg: tuple[int, ...]) -> list[int]:
        i = 0
        k = 0
        for u, s in enumerate(cfg):
            i |= ((s >> 1) & 1) << u
            k |= (s & 1) << u
        mark = 4 if k <= i < 2 * k else 0
        ni = (i + 1) % size
        nk = (k + 1) % size if i == size - 1 else k
        return [mark + ((ni >> u) & 1) * 2 + ((nk >> u) & 1) for u in range(n)]

    return global_map_network(8, n, next_config)


def product_network(f: Network, h: Network) -> Network:
    """Pairwise product, each side stepping by its own rule.

    Node v holds the pair (f-state, h-state) encoded as
    f_state * h.alphabet + h_state; the components never interact.
    """
    if f.n != h.n:
        raise InvalidInstanceError("factor networks must share their node count")
    qf, qh = f.alphabet, h.alphabet
    rules = []
    for v in range(f.n):
        fr, hr = f.rules[v], h.rules[v]
        deps = tuple(sorted(set(fr.deps) | set(hr.deps)))
        pos = {d: j for j, d in enumerate(deps)}
        table = [
            fr.table[config_index([cfg[pos[d]] // qh for d in fr.deps], qf)] * qh
            + hr.table[config_index([cfg[pos[d]] % qh for d in hr.deps], qh)]
            for cfg in table_rows(qf * qh, len(deps))
        ]
        rules.append((deps, table))
    return make_network(qf * qh, rules)


def gated_product_network(f: Network) -> tuple[Network, tuple[int, ...]]:
    """Product with a same-size run-length beacon that meters f's steps.

    The beacon component always advances; the f component advances only
    when the beacon sits at the returned anchor configuration (marks
    up, both counters at the sweep origin), which recurs every 4^n
    steps. Orbits started on the anchor replay f in slow motion: f
    reaches y from x iff the gated product reaches (y, anchor) from
    (x, anchor). States are encoded f_state * 8 + beacon_state.
    """
    n = f.n
    qf = f.alphabet
    table_size(qf * 8, n, tables=n)  # checked before the beacon is built
    beacon = h_counter_network(n)
    anchor = (4,) * n
    hcache: dict[tuple[int, ...], tuple[int, ...]] = {}
    fcache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def next_config(cfg: tuple[int, ...]) -> list[int]:
        fpart = tuple(s // 8 for s in cfg)
        hpart = tuple(s % 8 for s in cfg)
        nh = hcache.get(hpart)
        if nh is None:
            nh = step(beacon, hpart)
            hcache[hpart] = nh
        if hpart == anchor:
            nf = fcache.get(fpart)
            if nf is None:
                nf = step(f, fpart)
                fcache[fpart] = nf
        else:
            nf = fpart
        return [a * 8 + b for a, b in zip(nf, nh)]

    return global_map_network(qf * 8, n, next_config), anchor


# ---------------------------------------------------------------------------
# Three-speed odometer


def _odometer_local(n: int, j: int, left, own, right) -> int:
    # states 0..2 count, 3..4 are collapse seeds, 5..7 are the one-shot
    # counter, 8..9 are inert
    if own in (8, 9):
        return own
    if own in (3, 4):
        if j == 0 or left == 0:
            return 0
        return own
    if own in (5, 6, 7):
        if j == 0:
            if own == 7:
                return 0
            if n == 1 or right == 7:
                return own + 1
            return own
        if left == 0:
            return 0
        if j == n - 1:
            return 5 + (own - 4) % 3
        if right in (5, 6, 7):
            if own == 7:
                return 5
            return own + 1 if right == 7 else own
        return own
    # counting digits
    if j == n - 1:
        return (own + 1) % 3
    if right in (0, 1, 2):
        if own == 2:
            return 0
        return own + 1 if right == 2 else own
    return own


def odometer(n: int) -> Network:
    """Base-3 cascade odometer with collapse seeds and inert states.

    Nodes form a line over ten states; node n-1 is the fast digit.
    States 0..2 count: the fast digit always advances, a slower digit
    advances when its right neighbour shows 2 and clears one step
    after reaching 2 itself, which gives node 0 a run of period
    3 * 2^(n-1). States 3..4 seed a collapse: node 0 clears at once
    and each seed clears when its left neighbour reads 0, so any
    seeded line drains to all zeros in n steps - 2^n configurations
    funnel into the counting cycle. States 5..7 mirror the counting
    digits as a one-shot spare counter, except that node 0 leaving its
    top state clears to 0 and the clearing sweeps right like the
    seeds; a spare-counter start thus runs for more than 3 * 2^(n-1)
    steps before handing the line to the ordinary counter. States
    8..9 are inert, so all 2^n configurations over them are fixed
    points.
    """
    if n < 1:
        raise InvalidInstanceError("need at least one node")
    # One node reads itself; otherwise the two ends read 2 deps and the
    # n - 2 inner nodes 3, and a document writes the shared table per node.
    check_entries(10 if n == 1 else 2 * 10**2 + (n - 2) * 10**3, f"odometer({n})")
    if n == 1:
        table = [_odometer_local(1, 0, None, s, None) for (s,) in table_rows(10, 1)]
        return make_network(10, [((0,), table)])
    # Every inner node runs the same rule, so one table serves them all.
    inner = [_odometer_local(n, 1, le, s, r) for le, s, r in table_rows(10, 3)] if n > 2 else []
    rules = [((0, 1), [_odometer_local(n, 0, None, s, r) for s, r in table_rows(10, 2)])]
    rules += [((j - 1, j, j + 1), inner) for j in range(1, n - 1)]
    last = [_odometer_local(n, n - 1, le, s, None) for le, s in table_rows(10, 2)]
    return make_network(10, rules + [((n - 2, n - 1), last)])
