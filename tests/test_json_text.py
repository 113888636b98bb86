"""The one indent-2 JSON writer, ``checker.json_text``, writes the bytes
``json.dumps(value, indent=2)`` writes: on drawn values, on every golden
JSON report and on the dumped state of every case."""

import gzip
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmcheck.cases import CASE_NAMES, case_study
from vmcheck.checker import json_text
from vmcheck.config import StateConfig, dump_config

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"

# any text: non-ASCII, control characters, quotes and backslashes
_TEXT = st.one_of(st.text(), st.sampled_from(
    ["", "\"", "\\", "\x00\x1f\x7f", "é \U0001f600", "\ud800"]))
_VALUES = st.recursive(
    st.one_of(_TEXT, st.integers(), st.integers(-(1 << 80), 1 << 80),
              st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_the_writer_writes_what_json_dumps_writes(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {}, [], {"a": {}}, [[]], [{}, []], {"": None}, [True, False, 0, -1],
    {"k": [1, {"x": "é"}]}, "𐏿", 1 << 64])
def test_the_writer_at_its_edges(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json.gz")),
                         ids=lambda path: path.name)
def test_the_writer_rewrites_every_golden_report(path):
    with gzip.open(path, "rt") as f:
        body = f.read()
    assert json_text(json.loads(body)) + "\n" == body


@pytest.mark.parametrize("name", CASE_NAMES)
def test_a_dumped_case_state_is_what_json_dumps_writes(name):
    case = case_study(name)
    text = dump_config(StateConfig.of(case.state, case.registry,
                                      case.free_list))
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
