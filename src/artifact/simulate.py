"""Block simulation of one network by another.

A simulating network G runs T steps per simulated step of F. Each
F-node owns a block of G-nodes; a state q is written on a block as a
fixed pattern, injective per block. The embedding of an F-configuration
is the union of its block patterns, and correctness means

    embed(F(x)) = G^T(embed(x))   for every configuration x.

Every compiler stage (`circuit.double_rail`, `circuit.gmon_to_gmon2`,
`gadget.compile_gnetwork_detailed`, `gol.compile_to_gol`) builds its
embedding with `block_embedding`, which puts the host nodes that encode
no source node in node 0's block and validates the result: an
embedding a stage builds is checked here and nowhere else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, product
from typing import Callable, Sequence

from . import docs
from .core import (
    DEFAULT_MAX_STATES,
    LANE_LIMIT,
    ArtifactError,
    BudgetExceededError,
    Network,
    Tabulated,
    byte_table,
    gather_lanes,
    pack_lanes,
    step,  # unused here; perfbench/test_perfbench.py reads artifact.simulate.step
    step_batch,
)

# Host configurations per verify_simulation batch: 1 or 4 KB of lanes per
# host node, by its lane width.
VERIFY_CHUNK = 1024


class InvalidEmbeddingError(ArtifactError, ValueError):
    """Blocks do not partition the host, patterns are not injective, or the check is unknown."""


@dataclass(frozen=True)
class BlockEmbedding:
    """Assignment of host blocks and per-state patterns to source nodes.

    blocks[v] lists the host nodes owned by source node v; patterns[v][q]
    gives the states written on that block (same order) to encode q.
    time is the host-steps-per-source-step constant T.
    """

    time: int
    blocks: tuple[tuple[int, ...], ...]
    patterns: tuple[tuple[tuple[int, ...], ...], ...]

    def validate(self, source, host) -> None:
        """Check the blocks and patterns; reads only `n` and `alphabet` of either side."""
        if self.time < 1:
            raise InvalidEmbeddingError("time constant must be >= 1")
        if len(self.blocks) != source.n or len(self.patterns) != source.n:
            raise InvalidEmbeddingError("one block and pattern set per source node")
        seen: set[int] = set()
        for v, block in enumerate(self.blocks):
            if not block:
                raise InvalidEmbeddingError(f"source node {v}: empty block")
            for u in block:
                if not 0 <= u < host.n:
                    raise InvalidEmbeddingError(f"block node {u} out of host range")
                if u in seen:
                    raise InvalidEmbeddingError(f"host node {u} in two blocks")
                seen.add(u)
            pats = self.patterns[v]
            if len(pats) != source.alphabet:
                raise InvalidEmbeddingError(f"source node {v}: need one pattern per state")
            for pat in pats:
                if len(pat) != len(block):
                    raise InvalidEmbeddingError(f"source node {v}: pattern/block length mismatch")
                for s in pat:
                    if not 0 <= s < host.alphabet:
                        raise InvalidEmbeddingError(f"pattern state {s} out of host alphabet")
            if len(set(pats)) != len(pats):
                raise InvalidEmbeddingError(f"source node {v}: patterns not injective")
        if len(seen) != host.n:
            raise InvalidEmbeddingError("blocks do not cover the host network")


def block_embedding(source, host, time: int, cells, patterns, rest=()) -> BlockEmbedding:
    """The embedding in which source node v writes state q on cells[v] as patterns[v][q].

    Node 0 also owns every (host node, state) pair of rest, in the order
    given, each held at its state in all of node 0's patterns: the host
    nodes that encode no source node. The embedding is validated against
    source and host, of which only `n` and `alphabet` are read, before it
    is returned.
    """
    nodes, states = tuple(u for u, _ in rest), tuple(s for _, s in rest)
    blocks = tuple(tuple(block) + (nodes if v == 0 else ()) for v, block in enumerate(cells))
    pats = tuple(
        tuple(tuple(pat) + (states if v == 0 else ()) for pat in pats)
        for v, pats in enumerate(patterns)
    )
    emb = BlockEmbedding(time, blocks, pats)
    emb.validate(source, host)
    return emb


def embed(emb: BlockEmbedding, host_n: int, x: Sequence[int]) -> tuple[int, ...]:
    """Host configuration encoding the source configuration x."""
    out = [0] * host_n
    for v, s in enumerate(x):
        block = emb.blocks[v]
        pat = emb.patterns[v][s]
        for u, val in zip(block, pat):
            out[u] = val
    return tuple(out)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a simulation or certificate check."""

    ok: bool
    mode: str
    checked: int
    failures: tuple[str, ...] = ()
    counterexample: tuple[int, ...] | None = None
    seed: int | None = None

    def message(self) -> str:
        status = "pass" if self.ok else "FAIL"
        extra = f", counterexample {self.counterexample}" if self.counterexample else ""
        return f"{status} ({self.mode}, {self.checked} configurations checked{extra})"


def _advance(f: Callable, x, t: int):
    """f^t(x), t folded by the cycle of x under f: G^t on a batch of lanes
    for `verify_simulation`, F^t on a configuration for `simulate`.

    Brent's cycle detection (Brent 1980, BIT 20) keeps one saved value;
    the first repeat, lam steps after it was saved, leaves t mod lam
    steps to go. BudgetExceededError if DEFAULT_MAX_STATES steps pass
    without a repeat and t is larger, which only an embedding's time can be.
    """
    saved, power, lam = x, 1, 0
    for done in range(1, t + 1):
        if done > DEFAULT_MAX_STATES:
            raise BudgetExceededError(
                f"embedding time {t} exceeds the budget of {DEFAULT_MAX_STATES}"
                " host steps, and the batch has not cycled within it"
            )
        x = f(x)
        lam += 1
        if x == saved:
            for _ in range((t - done) % lam):
                x = f(x)
            return x
        if lam == power:
            saved, power, lam = x, 2 * power, 0
    return x


def verify_simulation(
    source: Network | Tabulated,
    host: Network | Tabulated,
    emb: BlockEmbedding,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: int | None = None,
) -> VerificationReport:
    """Check embed(F(x)) == G^T(embed(x)).

    mode "exhaustive" sweeps all |Q|^n source configurations; mode
    "sample" draws `samples` configurations from a recorded RNG seed.
    Both sides run VERIFY_CHUNK configurations at a time through
    step_batch, each in its own lanes (bytes on an alphabet of at most
    256, whatever the tables): the source one step, the host T steps
    folded by each batch's cycle (`_advance`). A failure names the first
    failing configuration in sweep order, and `checked` counts up to and
    including it. Alphabets past 2^32, whose states no lane holds, and
    an unknown mode are refused with InvalidEmbeddingError.
    """
    for role, net in (("source", source), ("host", host)):
        if net.alphabet > LANE_LIMIT:
            raise InvalidEmbeddingError(
                f"{role} alphabet of {net.alphabet} does not fit a 32-bit lane"
            )
    emb.validate(source, host)
    if mode == "exhaustive":
        configs = product(range(source.alphabet), repeat=source.n)
        used_seed = None
    elif mode == "sample":
        used_seed = seed if seed is not None else random.SystemRandom().getrandbits(64)
        rng = random.Random(used_seed)
        configs = (
            tuple(rng.randrange(source.alphabet) for _ in range(source.n))
            for _ in range(samples)
        )
    else:
        raise InvalidEmbeddingError(f"unknown mode {mode!r}")
    # Each side's states take its own lanes; the pattern gathers read
    # source lanes and write host lanes.
    width, src_width = host.lane_bytes, source.lane_bytes
    bits = 8 * width
    # Host node u carries position k of source node v's block: cols[u] is
    # (v, the state written on u for each source state, its byte table).
    # Equal entries are shared, so a wide host leaves few tracked objects.
    cols: list = [None] * host.n
    shared: dict = {}
    for v, block in enumerate(emb.blocks):
        for k, u in enumerate(block):
            col = (v, tuple(pat[k] for pat in emb.patterns[v]))
            if col not in shared:
                shared[col] = (*col, byte_table(col[1], host.alphabet) if width == 1 else None)
            cols[u] = shared[col]
    checked = 0
    while chunk := list(islice(configs, VERIFY_CHUNK)):
        b = len(chunk)
        xs = [pack_lanes(s, src_width) for s in zip(*chunk)]
        ys = step_batch(source, xs, b)
        got = [gather_lanes(col, xs[v], b, width, tr, src_width) for v, col, tr in cols]
        got = _advance(lambda lanes: step_batch(host, lanes, b), got, emb.time)
        want = [gather_lanes(col, ys[v], b, width, tr, src_width) for v, col, tr in cols]
        diff = 0
        for w, g in zip(want, got):
            diff |= w ^ g
        if diff:
            lane = ((diff & -diff).bit_length() - 1) // bits
            at = bits * lane
            bad = [u for u in range(host.n) if (want[u] ^ got[u]) >> at & ((1 << bits) - 1)]
            return VerificationReport(
                False,
                mode,
                checked + lane + 1,
                failures=(f"host nodes {bad} differ after {emb.time} steps",),
                counterexample=chunk[lane],
                seed=used_seed,
            )
        checked += b
    return VerificationReport(True, mode, checked, seed=used_seed)


def embedding_to_json(emb: BlockEmbedding) -> dict:
    return docs.envelope(
        "embedding",
        time=emb.time,
        blocks=[list(b) for b in emb.blocks],
        patterns=[[list(p) for p in pats] for pats in emb.patterns],
    )


def embedding_from_json(data: dict) -> BlockEmbedding:
    with docs.parsing(data, "embedding", InvalidEmbeddingError):
        blocks = tuple(tuple(b) for b in data["blocks"])
        patterns = tuple(tuple(tuple(p) for p in pats) for pats in data["patterns"])
        docs.integers(InvalidEmbeddingError, "embedding time", (data["time"],))
        docs.integers(InvalidEmbeddingError, "blocks", *blocks)
        docs.integers(InvalidEmbeddingError, "patterns", *(p for pats in patterns for p in pats))
        return BlockEmbedding(data["time"], blocks, patterns)
