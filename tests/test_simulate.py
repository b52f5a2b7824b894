"""Block embeddings and simulation verification."""

import functools
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import simulate
from artifact.core import BudgetExceededError, Network, analyze_orbit, iterate, make_network, step
from artifact.simulate import (
    BlockEmbedding,
    InvalidEmbeddingError,
    VerificationReport,
    embed,
    embedding_from_json,
    embedding_to_json,
    verify_simulation,
)
from conftest import rotation, small_networks, xor_ring


def doubled_rotation_host(n):
    """Host: rotation on 2n nodes; every source node owns 2 host nodes.

    Source rotation on n nodes is simulated with T=2: two host shifts
    move a doubled value by one doubled slot.
    """
    host = rotation(2 * n)
    blocks = tuple((2 * i, 2 * i + 1) for i in range(n))
    patterns = tuple(((0, 0), (1, 1)) for _ in range(n))
    return host, BlockEmbedding(2, blocks, patterns)


def test_embed_writes_one_pattern_per_block():
    host, emb = doubled_rotation_host(3)
    seen = set()
    for x in itertools.product(range(2), repeat=3):
        y = embed(emb, host.n, x)
        assert y == tuple(s for s in x for _ in range(2))
        seen.add(y)
    assert len(seen) == 8


def test_verify_simulation_exhaustive_pass():
    src = rotation(3)
    host, emb = doubled_rotation_host(3)
    rep = verify_simulation(src, host, emb)
    assert rep.ok
    assert rep.checked == 8
    assert "pass" in rep.message()


def test_verify_simulation_detects_mismatch():
    src = rotation(3)
    host, emb = doubled_rotation_host(3)
    bad = BlockEmbedding(1, emb.blocks, emb.patterns)  # wrong time constant
    rep = verify_simulation(src, host, bad)
    assert not rep.ok
    assert rep.counterexample is not None
    assert rep.failures


def test_verify_simulation_sample_mode_records_seed():
    src = rotation(4)
    host, emb = doubled_rotation_host(4)
    rep = verify_simulation(src, host, emb, mode="sample", samples=50, seed=1234)
    assert rep.ok
    assert rep.seed == 1234
    rep2 = verify_simulation(src, host, emb, mode="sample", samples=10)
    assert rep2.seed is not None


def test_an_unknown_mode_is_a_typed_refusal():
    src = rotation(3)
    host, emb = doubled_rotation_host(3)
    with pytest.raises(InvalidEmbeddingError, match="unknown mode 'random'"):
        verify_simulation(src, host, emb, mode="random")


def reference_verify_simulation(source, host, emb, mode="exhaustive", samples=1000, seed=None):
    """verify_simulation one configuration at a time, with the scalar stepper."""
    emb.validate(source, host)
    if mode == "exhaustive":
        configs = itertools.product(range(source.alphabet), repeat=source.n)
        used_seed = None
    else:
        used_seed = seed
        rng = random.Random(used_seed)
        configs = (
            tuple(rng.randrange(source.alphabet) for _ in range(source.n))
            for _ in range(samples)
        )
    checked = 0
    for x in configs:
        want = embed(emb, host.n, step(source, x))
        got = iterate(host, embed(emb, host.n, x), emb.time)
        checked += 1
        if want != got:
            bad = [u for u in range(host.n) if want[u] != got[u]]
            return VerificationReport(
                False,
                mode,
                checked,
                failures=(f"host nodes {bad} differ after {emb.time} steps",),
                counterexample=tuple(x),
                seed=used_seed,
            )
    return VerificationReport(True, mode, checked, seed=used_seed)


def copy_host(source, corrupt=None):
    """Host holding each source node twice (nodes 2v, 2v+1), time 1.

    corrupt=(u, row) flips host node u's table entry at row.
    """
    q = source.alphabet
    rules = []
    for rule in source.rules:
        deps = tuple(2 * d for d in rule.deps)
        rules += [(deps, list(rule.table)), (deps, list(rule.table))]
    if corrupt is not None:
        u, row = corrupt
        table = rules[u][1]
        table[row % len(table)] = (table[row % len(table)] + 1) % q
    blocks = tuple((2 * v, 2 * v + 1) for v in range(source.n))
    patterns = tuple(tuple((s, s) for s in range(q)) for _ in range(source.n))
    return make_network(q, rules), BlockEmbedding(1, blocks, patterns)


@st.composite
def simulation_case(draw):
    source = draw(small_networks())
    n = source.n
    corrupt = draw(st.sampled_from(["none", "host", "time", "patterns"]))
    host, emb = copy_host(
        source,
        (draw(st.integers(0, 2 * n - 1)), draw(st.integers(0, 8))) if corrupt == "host" else None,
    )
    if corrupt == "time":
        emb = BlockEmbedding(draw(st.integers(2, 3)), emb.blocks, emb.patterns)
    elif corrupt == "patterns":
        v = draw(st.integers(0, n - 1))
        pats = list(emb.patterns[v])
        pats[0], pats[-1] = pats[-1], pats[0]
        emb = BlockEmbedding(1, emb.blocks, emb.patterns[:v] + (tuple(pats),) + emb.patterns[v + 1 :])
    return source, host, emb


@settings(max_examples=80, deadline=None)
@given(simulation_case(), st.integers(0, 60), st.integers(0, 2**32))
def test_verify_simulation_matches_reference(case, samples, seed):
    source, host, emb = case
    assert verify_simulation(source, host, emb) == reference_verify_simulation(source, host, emb)
    assert verify_simulation(
        source, host, emb, mode="sample", samples=samples, seed=seed
    ) == reference_verify_simulation(source, host, emb, mode="sample", samples=samples, seed=seed)


def test_verify_simulation_reports_first_failure_past_a_chunk():
    # Host node 2 (a copy of node 1 = XOR of nodes 0 and 2) goes wrong only
    # when x0 = x2 = 1, which product order first reaches at 1024 + 256.
    source = xor_ring(11)
    host, emb = copy_host(source, corrupt=(2, 3))
    rep = verify_simulation(source, host, emb)
    assert rep == reference_verify_simulation(source, host, emb)
    assert not rep.ok and rep.checked == 1281
    assert rep.failures == ("host nodes [2] differ after 1 steps",)
    for seed in range(3):
        sampled = verify_simulation(source, host, emb, mode="sample", samples=3000, seed=seed)
        assert sampled == reference_verify_simulation(
            source, host, emb, mode="sample", samples=3000, seed=seed
        )
    good_host, emb = copy_host(source)
    assert verify_simulation(source, good_host, emb) == reference_verify_simulation(
        source, good_host, emb
    )


@pytest.mark.parametrize("corrupt", [False, True])
def test_verify_simulation_on_a_host_past_a_byte(corrupt):
    # Host states 0 and 299 encode 0 and 1: neither the patterns nor the
    # 300-entry tables fit a byte table, so every gather reads lanes.
    source = rotation(3)
    table = list(range(300))
    rules = [(((v - 1) % 3,), list(table)) for v in range(3)]
    if corrupt:
        rules[1][1][299] = 298
    host = make_network(300, rules)
    emb = BlockEmbedding(1, ((0,), (1,), (2,)), (((0,), (299,)),) * 3)
    assert host.byte_tables == (None, None, None)
    rep = verify_simulation(source, host, emb)
    assert rep == reference_verify_simulation(source, host, emb)
    assert rep.ok is not corrupt


def forced_wide(net):
    """A copy of net whose `step_batch` runs in 32-bit lanes with no byte table,
    as on an alphabet past 256."""
    wide = Network(net.alphabet, net.rules)
    wide.__dict__["lane_bytes"] = 4  # the cached_properties' slots
    wide.__dict__["byte_tables"] = (None,) * net.n
    return wide


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 11), st.data())
def test_failures_on_a_narrow_host_match_the_32_bit_path(n, data):
    source = xor_ring(n)
    corrupt = (data.draw(st.integers(0, 2 * n - 1)), data.draw(st.integers(0, 3)))
    host, emb = copy_host(source, corrupt)
    assert host.lane_bytes == 1 and forced_wide(host).lane_bytes == 4
    rep = verify_simulation(source, host, emb)
    assert rep == verify_simulation(source, forced_wide(host), emb)
    assert rep == reference_verify_simulation(source, host, emb)


def test_narrow_host_names_a_failing_lane_off_a_32_bit_boundary():
    # The first failure is lane 2 of the second chunk: a lane located in
    # 32-bit steps would read lane 0 and count 1025.
    source = xor_ring(11)
    host, emb = copy_host(source, corrupt=(20, 3))
    assert host.lane_bytes == 1
    rep = verify_simulation(source, host, emb)
    assert not rep.ok and rep.checked == 1027
    assert rep.failures == ("host nodes [20] differ after 1 steps",)
    assert rep == verify_simulation(source, forced_wide(host), emb)
    assert rep == reference_verify_simulation(source, host, emb)


@pytest.mark.parametrize("corrupt", [False, True])
def test_source_past_a_byte_on_a_narrow_host(corrupt):
    # 300 source states written as two base-20 digits; the source steps
    # its low digit, and each host node reads only itself (20 entries).
    source = make_network(300, [((0,), [(s % 20 + 1) % 20 + s // 20 * 20 for s in range(300)])])
    step_low = [(d + 1) % 20 for d in range(20)]
    if corrupt:
        step_low[19] = 1
    host = make_network(20, [((0,), step_low), ((1,), list(range(20)))])
    emb = BlockEmbedding(1, ((0, 1),), (tuple((s % 20, s // 20) for s in range(300)),))
    assert host.lane_bytes == 1
    rep = verify_simulation(source, host, emb)
    assert rep == reference_verify_simulation(source, host, emb)
    assert rep == verify_simulation(source, forced_wide(host), emb)
    assert rep.ok is not corrupt


@pytest.mark.parametrize("side", ["source", "host"])
def test_alphabets_past_a_lane_are_refused(side):
    wide = make_network(2**33, [((), (2**33 - 1,))])
    narrow = make_network(2, [((), (1,))])
    source, host = (wide, narrow) if side == "source" else (narrow, wide)
    emb = BlockEmbedding(1, ((0,),), (tuple((s,) for s in range(2)),))
    with pytest.raises(InvalidEmbeddingError, match=f"{side} alphabet of 8589934592 does not fit"):
        verify_simulation(source, host, emb)


def test_embedding_validation():
    src = rotation(2)
    host = rotation(4)
    with pytest.raises(InvalidEmbeddingError):
        # overlapping blocks
        BlockEmbedding(1, ((0, 1), (1, 2)), (((0, 0), (1, 1)),) * 2).validate(src, host)
    with pytest.raises(InvalidEmbeddingError):
        # not covering the host
        BlockEmbedding(1, ((0,), (1,)), (((0,), (1,)),) * 2).validate(src, host)
    with pytest.raises(InvalidEmbeddingError):
        # non-injective patterns
        BlockEmbedding(
            2, ((0, 1), (2, 3)), (((0, 0), (0, 0)), ((0, 0), (1, 1)))
        ).validate(src, host)


@settings(max_examples=40, deadline=None)
@given(simulation_case(), st.booleans())
def test_periodicity_transfers_through_a_verified_embedding(case, doubled):
    # The simulation law and injective patterns make x periodic for the
    # source iff embed(x) is periodic for the host: no separate check
    # is needed once verify_simulation passes.
    source, host, emb = case
    if doubled:
        source = rotation(3)
        host, emb = doubled_rotation_host(3)
    if not verify_simulation(source, host, emb).ok:
        return
    for x in itertools.product(range(source.alphabet), repeat=source.n):
        src_periodic = analyze_orbit(source, x).transient == 0
        assert src_periodic == (analyze_orbit(host, embed(emb, host.n, x)).transient == 0)


def test_verify_simulation_catches_a_host_that_clears_a_copy():
    # The host's second node must die out, so embed(F(x)) = (x, x) is
    # never G(embed(x)) = (x, 0) once x = 1.
    src = make_network(2, [((0,), (0, 1))])  # identity, all configs periodic
    host = make_network(2, [((0,), (0, 1)), ((1,), (0, 0))])
    emb = BlockEmbedding(1, ((0, 1),), (((0, 0), (1, 1)),))
    rep = verify_simulation(src, host, emb)
    assert not rep.ok  # embed(F(x)) keeps node 1 at x, host kills it


def replaced(emb, v, block=None, patterns=None, time=None):
    """emb with source node v's block or patterns, or the time, replaced."""
    blocks = list(emb.blocks)
    pats = list(emb.patterns)
    if block is not None:
        blocks[v] = block
    if patterns is not None:
        pats[v] = patterns
    return BlockEmbedding(emb.time if time is None else time, tuple(blocks), tuple(pats))


# Each case edits one clause of the valid doubled-rotation embedding.
EMBEDDING_REFUSALS = {
    "time below 1": (dict(time=0), "time constant must be >= 1"),
    "empty block": (dict(block=()), "source node 1: empty block"),
    "block node outside the host": (dict(block=(2, 6)), "block node 6 out of host range"),
    "pattern count": (dict(patterns=((0, 0),)), "source node 1: need one pattern per state"),
    "pattern state outside the host alphabet": (
        dict(patterns=((0, 0), (1, 2))),
        "pattern state 2 out of host alphabet",
    ),
}


@pytest.mark.parametrize("case", sorted(EMBEDDING_REFUSALS))
def test_embedding_validation_names_the_broken_clause(case):
    host, emb = doubled_rotation_host(3)
    emb.validate(rotation(3), host)
    edit, message = EMBEDDING_REFUSALS[case]
    with pytest.raises(InvalidEmbeddingError, match=f"^{re.escape(message)}$"):
        replaced(emb, 1, **edit).validate(rotation(3), host)


@settings(max_examples=60, deadline=None)
@given(small_networks(), st.integers(1, 40))
def test_folded_time_matches_stepping(net, time):
    # A network simulates itself at time t iff F^t = F on the checked
    # configurations; each batch folds t by its own cycle.
    emb = BlockEmbedding(
        time, tuple((v,) for v in range(net.n)), (tuple((s,) for s in range(net.alphabet)),) * net.n
    )
    assert verify_simulation(net, net, emb) == reference_verify_simulation(net, net, emb)


def test_a_huge_time_folds_into_the_cycle():
    # 2^64 = 1 (mod 3): the 3-rotation simulates itself at that time, not at 2^65.
    emb = BlockEmbedding(2**64, ((0,), (1,), (2,)), (((0,), (1,)),) * 3)
    assert verify_simulation(rotation(3), rotation(3), emb).ok
    emb = BlockEmbedding(2**65, emb.blocks, emb.patterns)
    assert not verify_simulation(rotation(3), rotation(3), emb).ok


@settings(max_examples=80, deadline=None)
@given(small_networks(), st.integers(0, 300), st.data())
def test_advance_on_a_configuration_matches_iterate(net, t, data):
    # `simulate` advances one configuration this way, folded by its orbit.
    x = data.draw(st.tuples(*[st.integers(0, net.alphabet - 1)] * net.n))
    assert simulate._advance(functools.partial(step, net), x, t) == iterate(net, x, t)


def test_a_batch_that_does_not_cycle_within_the_budget_is_refused(monkeypatch):
    # The 8-rotation's batch has period 8, and Brent's search, saving at
    # steps 1, 3 and 7, sees the repeat at step 15. A time within the
    # budget is stepped in full; a longer one folds only when the repeat
    # comes within the budget.
    net = rotation(8)
    blocks, patterns = tuple((v,) for v in range(8)), (((0,), (1,)),) * 8
    monkeypatch.setattr(simulate, "DEFAULT_MAX_STATES", 6)
    assert not verify_simulation(net, net, BlockEmbedding(6, blocks, patterns)).ok
    with pytest.raises(BudgetExceededError, match="embedding time 7 exceeds the budget of 6"):
        verify_simulation(net, net, BlockEmbedding(7, blocks, patterns))
    huge = BlockEmbedding(8 * 10**6 + 1, blocks, patterns)
    monkeypatch.setattr(simulate, "DEFAULT_MAX_STATES", 14)
    with pytest.raises(BudgetExceededError, match="has not cycled within it"):
        verify_simulation(net, net, huge)
    monkeypatch.setattr(simulate, "DEFAULT_MAX_STATES", 15)
    assert verify_simulation(net, net, huge).ok


def test_embedding_json_roundtrip():
    _, emb = doubled_rotation_host(3)
    back = embedding_from_json(embedding_to_json(emb))
    assert back == emb
    with pytest.raises(InvalidEmbeddingError):
        embedding_from_json({"format": "nope"})
