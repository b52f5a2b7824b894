"""Fuzz `cli.run` on the orbit walker's commands over mutated documents.

`analyze` and `oracle b-pred|pred-chg|reach` read a network or an
instance document and walk an orbit. Whatever the documents hold, the
command must end in one of its exit codes (0 yes, 1 no, 2 bad input,
3 budget exceeded) and never in an uncaught exception.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.cli import run
from artifact.core import network_to_json
from artifact.problems import (
    instance_to_json,
    make_pred_chg_instance,
    make_pred_instance,
    make_reach_instance,
    odometer,
)

NET = odometer(3)  # from START: transient 18, period 12, inside the budget of 64
START = (5, 5, 5)
BASE = {
    "analyze": {"net": network_to_json(NET), "x": list(START)},
    "b-pred": instance_to_json(make_pred_instance(NET, 1, START, 1, 2**40, "binary")),
    "pred-chg": instance_to_json(make_pred_chg_instance(NET, 2, START, 3)),
    "reach": instance_to_json(make_reach_instance(NET, START, (0, 1, 2))),
}

ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(-3, 2**64),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
    st.lists(st.integers(-2, 5), max_size=5),
    st.lists(st.booleans(), max_size=3),
)


def locations(doc, at=()):
    """Every place in a JSON tree, the root included, as a key path."""
    yield at
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from locations(value, at + (key,))


@st.composite
def mutated(draw, doc):
    """doc with one to three values replaced, lists truncated or keys dropped."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.sampled_from(list(locations(doc))))
        if not at:
            doc = draw(ODD_VALUES)
            continue
        parent = doc
        for key in at[:-1]:
            parent = parent[key]
        key = at[-1]
        edit = draw(st.sampled_from(("replace", "truncate", "drop")))
        if edit == "truncate" and isinstance(parent[key], list):
            del parent[key][draw(st.integers(0, len(parent[key]))) :]
        elif edit == "drop" and isinstance(parent, dict):
            del parent[key]
        else:
            parent[key] = draw(ODD_VALUES)
    return doc


def run_on(command, doc) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        doc_file = Path(tmp) / "doc.json"
        out = str(Path(tmp) / "out.json")
        if command == "analyze":
            net = doc.get("net") if isinstance(doc, dict) else doc
            x = doc.get("x") if isinstance(doc, dict) else None
            doc_file.write_text(json.dumps(net))
            # "=" keeps a config such as -1 from reading as an option
            argv = ["analyze", str(doc_file), f"--config={json.dumps(x)}"]
        else:
            doc_file.write_text(json.dumps(doc))
            argv = ["oracle", command, str(doc_file)]
        return run([*argv, "--max-states", "64", "-o", out])


@pytest.mark.parametrize("command", sorted(BASE))
def test_unmutated_documents_answer(command):
    assert run_on(command, BASE[command]) in (0, 1)


@pytest.mark.parametrize("command", sorted(BASE))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_documents_exit_with_a_code(command, data):
    doc = data.draw(mutated(BASE[command]))
    assert run_on(command, doc) in (0, 1, 2, 3)

