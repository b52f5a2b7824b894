"""The rule-table layout: `core.table_rows` and the builders that write tables with it.

Every builder writes its tables in one pass over `table_rows`, so the
documents they produce are pinned here by sha256 digests taken before
the builders were moved onto it. A changed digest means a builder now
writes another table, or the same table in another order. The
documents of `construct gt-transient` are pinned the same way: no
other test pins the shape of its freezing AND tree and latch.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.circuit import (
    circuit_encode,
    circuit_to_json,
    closed_network,
    double_rail,
    gmon_to_gmon2,
    make_circuit,
    synchronize,
)
from artifact.cli import run
from artifact.core import (
    MAX_TABLE,
    BudgetExceededError,
    capped_power,
    config_index,
    make_network,
    network_to_json,
    step,
    table_rows,
)
from artifact.csan import (
    build_minmax,
    build_reaction_diffusion,
    csan_to_network,
    matrix_to_network,
)
from artifact.gnet import GATE_SETS, gnetwork_to_json
from artifact.problems import (
    gated_product_network,
    h_counter_network,
    instance_to_json,
    make_pred_instance,
    make_reach_instance,
    odometer,
    pred_to_reach,
    product_network,
    reach_easy_network,
    reach_to_pred,
    sat_pred_network,
)

from conftest import rotation


def test_table_rows_enumerate_the_layout():
    assert list(table_rows(3, 0)) == [()]
    assert list(table_rows(3, 1)) == [(0,), (1,), (2,)]
    assert list(table_rows(2, 2)) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    for q, k in ((2, 5), (3, 3), (4, 2)):
        assert [config_index(row, q) for row in table_rows(q, k)] == list(range(q**k))


def test_table_rows_refuse_a_table_past_the_budget_when_called():
    table_rows(2, MAX_TABLE.bit_length() - 1)  # exactly MAX_TABLE rows
    for q, k in ((2, MAX_TABLE.bit_length()), (8, 8), (10**6, 2)):
        with pytest.raises(BudgetExceededError, match=f"a table of {q}\\^{k} rows"):
            table_rows(q, k)


def test_table_rows_refuse_a_pass_past_the_budget_when_called():
    table_rows(2, 20, tables=4)  # exactly MAX_TABLE rows in all
    with pytest.raises(BudgetExceededError, match="a pass of 5 tables of 2\\^20 rows"):
        table_rows(2, 20, tables=5)


@pytest.mark.parametrize("cap", [1, 8, 100, MAX_TABLE])
def test_capped_power_is_exact_to_its_cap_and_past_it_beyond(cap):
    for q in range(5):
        for k in range(3 * cap.bit_length()):
            got = capped_power(q, k, cap)
            assert (got == q**k) if q**k <= cap else (got > cap)
    assert capped_power(2, 10**18, cap) > cap  # 2^(10^18) is never built


# Builders whose every table fits the budget but whose pass does not.
PAST_THE_PASS_BUDGET = {
    "h_counter_network": lambda: h_counter_network(7),  # 7 tables of 8^7 rows
    "gated_product_network": lambda: gated_product_network(rotation(5)),  # 5 of 16^5
    "reach_easy_network": lambda: reach_easy_network([(1,)], 18),  # 19 of 2^19
    "sat_pred_network": lambda: sat_pred_network([(1,)], 21),  # 3 * 2^21 in all
    "pred_to_reach": lambda: pred_to_reach(  # 13 tables of 3^13 rows
        make_pred_instance(make_network(1, [((), (0,))] * 13), 0, (0,) * 13, 0, 5)
    ),
    "reach_to_pred": lambda: reach_to_pred(  # 7 tables of 8^7 rows
        make_reach_instance(rotation(6), (0,) * 6, (1,) + (0,) * 5)
    ),
}


@pytest.mark.parametrize("builder", sorted(PAST_THE_PASS_BUDGET))
def test_builders_refuse_a_pass_past_the_budget_before_any_row(builder):
    with pytest.raises(BudgetExceededError, match="a pass of"):
        PAST_THE_PASS_BUDGET[builder]()


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(1, 4),
    k=st.integers(0, 4),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_tables_written_from_table_rows_step_as_their_row_function(q, k, extra, seed, data):
    def f(v, row):  # a random function of (node, dep values), not of any layout
        return random.Random(f"{seed} {v} {row}").randrange(q)

    n = k + extra
    deps = [data.draw(st.permutations(range(n)))[:k] for _ in range(n)]
    net = make_network(q, [(d, [f(v, row) for row in table_rows(q, k)]) for v, d in enumerate(deps)])
    x = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    assert step(net, x) == tuple(f(v, tuple(x[u] for u in d)) for v, d in enumerate(deps))


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


RING = make_network(
    3,
    [((1, 0), tuple((a + 2 * b) % 3 for b in range(3) for a in range(3))), ((0,), (1, 2, 0))],
)
CLAUSES = [(1, -2), (2, 3), (-1, -3)]
MATRIX = [[0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 0], [0, 0, 0, 0]]
CIRCUIT = make_circuit(2, [("AND", (0, 1)), ("NOT", (0,)), ("OR", (2, 3))], (4, 2))


def _gated(f):
    net, anchor = gated_product_network(f)
    return [network_to_json(net), list(anchor)]


def _construct(kind, n):
    """The document `construct KIND --n N` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["construct", kind, "--n", str(n)]) == 0
    return json.loads(out.getvalue())


def _double_rail():
    sync = synchronize(make_circuit(2, [("AND", (0, 1)), ("NOT", (0,)), ("OR", (2, 1))], (4, 3)))
    return double_rail(sync)[0]


BUILDS = {
    **{f"h_counter_network({n})": lambda n=n: network_to_json(h_counter_network(n)) for n in (1, 2, 3)},
    **{f"odometer({n})": lambda n=n: network_to_json(odometer(n)) for n in (1, 2, 3, 5)},
    "product_network(h_counter_network(2), ring)": lambda: network_to_json(
        product_network(h_counter_network(2), RING)
    ),
    "gated_product_network(rotation(2))": lambda: _gated(rotation(2)),
    "gated_product_network(ring)": lambda: _gated(RING),
    "sat_pred_network(cls)": lambda: network_to_json(sat_pred_network(CLAUSES)),
    "reach_easy_network(cls)": lambda: network_to_json(reach_easy_network(CLAUSES)),
    "pred_to_reach(rotation(2), t=5)": lambda: instance_to_json(
        pred_to_reach(make_pred_instance(rotation(2), 0, (1, 0), 1, 5, "binary"))
    ),
    "pred_to_reach(ring, t=2)": lambda: instance_to_json(
        pred_to_reach(make_pred_instance(RING, 1, (2, 0), 1, 2, "binary"))
    ),
    "reach_to_pred(rotation(2))": lambda: instance_to_json(
        reach_to_pred(make_reach_instance(rotation(2), (1, 0), (0, 1)))
    ),
    "reach_to_pred(ring)": lambda: instance_to_json(
        reach_to_pred(make_reach_instance(make_network(3, [((0,), (1, 2, 0))]), (1,), (0,)))
    ),
    **{
        f"GATE_SETS[{name}]": lambda gates=gates: [
            [g.name, g.alphabet, g.n_in, g.n_out, [list(r) for r in g.table]] for g in gates
        ]
        for name, gates in GATE_SETS.items()
    },
    **{f"construct gt-transient --n {n}": lambda n=n: _construct("gt-transient", n) for n in (4, 6)},
    "csan_to_network(reaction q=3)": lambda: network_to_json(
        csan_to_network(
            build_reaction_diffusion(
                5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)], [1, 2, 1, 1, 2], 2
            )
        )
    ),
    "csan_to_network(minmax q=3)": lambda: network_to_json(
        csan_to_network(
            build_minmax(4, [(0, 1), (1, 2), (2, 3), (0, 2)], ["MIN", "MAX", "MAX", "MIN"], 3)
        )
    ),
    **{
        f"matrix_to_network({kind})": lambda kind=kind: network_to_json(
            matrix_to_network(kind, MATRIX)
        )
        for kind in ("GF2", "BOOLEAN_OR", "BOOLEAN_AND")
    },
    "closed_network(circ)": lambda: network_to_json(closed_network(CIRCUIT)),
    "circuit_encode(ring)": lambda: circuit_to_json(circuit_encode(RING)),
    "double_rail": lambda: gnetwork_to_json(_double_rail()),
    "gmon_to_gmon2(double_rail)": lambda: gnetwork_to_json(gmon_to_gmon2(_double_rail())[0]),
}

PINNED = {
    "GATE_SETS[Gconj]": "1379ca004a9b30d736ac3eab301dc2163ee506e08dc9b3e2513519f023b11839",
    "GATE_SETS[Gmon2]": "1574b7812a874e28f1ef112cbb1db624ae44018ae327448fd9ef7b4756cf001f",
    "GATE_SETS[Gmon]": "febc99571e4c10923d8c1106bf1c88e86ab1540a1a92c00f64d9aee43ef684ba",
    "GATE_SETS[Gnand]": "d92f2bc8a2284e84d0a998ce1becf29e5762b9842b131e02442f97d8cc3b33f1",
    "GATE_SETS[Gnor]": "929f3d510048cbccbaa1e4d417168cabde6305f6e2f6208d7440a6cf38568a56",
    "GATE_SETS[Gt]": "c899a6ed81f784a08e5dd4aa2411c33dc1e043e261ac676bf197b166a88052eb",
    "GATE_SETS[Gwire]": "be33dbfa3943c6ebf39355d30af1544ff7115d5777bf3fa20199e5713de3ae3c",
    "circuit_encode(ring)": "094c266dbc420495e80597e62d8780a1ce0a5148b4ef233183e4d5d7f8ad7988",
    "closed_network(circ)": "2715eefb2cce85f73f5b9578364139ed004e59a5919ebb1df4042f4ea4d86421",
    "construct gt-transient --n 4": "cd88515264ffd1648223d8b668945069585980dc052132525d8445c78b71ea64",
    "construct gt-transient --n 6": "9e306ffb524218f09f89d72dc727ad13c652fafd5d9a35b80418f47500a38265",
    "csan_to_network(minmax q=3)": "8d38a273384b0d76b2dc56532be6e13e095ad22c1cc85a3be957c445dc8b4798",
    "csan_to_network(reaction q=3)": "65a77b122f6e26100c0abeecddaac5cce3f92b3b01bc21c57ada9972801f9969",
    "double_rail": "9f24436a655ae52a6d2e10e79076c9052f994f719c3f165410c68f712e40e469",
    "gated_product_network(ring)": "807e0093f14367eab2519237666aa599246479a94cbfece749be4ca30cef14d8",
    "gated_product_network(rotation(2))": "93856b51849b209652065149d8e9118c4a00de7c72e50421c24c84592e66749b",
    "gmon_to_gmon2(double_rail)": "40f6d5573986c14c664392452b0c3c774ef96a725e29c28b6edb00a0725d0fd3",
    "h_counter_network(1)": "401e552d15cdc739fae0036b290962101f5eb86f9fd6d080fa3fc9c2f00de413",
    "h_counter_network(2)": "47f063fe05dec9a23d3b67cdbcd7fe1d81a149dac83df0538f84c098ae4cba80",
    "h_counter_network(3)": "2b560d4d1f4150873d9ccfdfc3bda6bd7db37758dc2f541f29225d54737117e9",
    "matrix_to_network(BOOLEAN_AND)": "02115c660202819de04fa8ab72539a3a431d6675d606d0015cfb24cd636b680c",
    "matrix_to_network(BOOLEAN_OR)": "c7d3264e0e4fc29dfad05f78c3f5bee67bcb56b9e91129b683b7e9fee42dc1c4",
    "matrix_to_network(GF2)": "0f53be189315e52f388d090824fc2515c140ae086354f1d6577086651e789b94",
    "odometer(1)": "25054e8f5939d50e691c0764c27a4728c587f45b07a60c2ab5f720ef9bfa4f79",
    "odometer(2)": "6ee009750960d6592458de70693735cd9406829f9102157bf9472f6e5148131a",
    "odometer(3)": "2c7046a389f3517a8376b2b46af6f85a7cbc154c8d9206aa3fd2b93eb95c484a",
    "odometer(5)": "2fa20ff7c38918fc98bc562d398eddb81841033f016558ed4d156465a3111d8c",
    "pred_to_reach(ring, t=2)": "e02f08443f6331a63076c6ee69280d82edf0a319b7a0b41bdb269543eab8dd8c",
    "pred_to_reach(rotation(2), t=5)": "97a3f4e541e13cf21b5a485a4559f60abb71aaf554fa0c1da73ab1c91931dfcb",
    "product_network(h_counter_network(2), ring)": "dea22c81e6809410efe8db1a1c4c9272db93b8d472d329b15f00b6fa9012cb9d",
    "reach_easy_network(cls)": "7ab0feb8f60c86968364e1d7ef64acd57d2d99d19612769a9bcd313bc214e54b",
    "reach_to_pred(ring)": "de2867414001c8b65d31b18da515c3ef779a5dbf41f8aa191b5fad064d7c6556",
    "reach_to_pred(rotation(2))": "9eadb062f250e1af9092d8c13969d8f2e491ef598827eeef6efc2dcf03b158ae",
    "sat_pred_network(cls)": "fb49c8f2ccf73188a87f88cdee831babdbe2256ee8238ffcdb1f150279213528",
}


def test_every_build_is_pinned():
    assert BUILDS.keys() == PINNED.keys()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_builders_write_the_pinned_documents(name):
    assert digest(BUILDS[name]()) == PINNED[name]
