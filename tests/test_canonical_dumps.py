"""``canonical_dumps`` against its specification, ``json``'s indent encoder."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toroidalize.scenario_io import canonical_dumps, load_scenario, trace_doc
from toroidalize.verify import run_rounds

from conftest import reference_dumps

FIXTURES = Path(__file__).parent / "fixtures"

# any code point, with control characters and lone surrogates drawn often
chars = (
    st.characters(exclude_categories=())
    | st.characters(max_codepoint=0x1F)
    | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=())
)
texts = st.text(chars, max_size=8)
ints = st.integers() | st.integers(min_value=-(2**80), max_value=2**80)
floats = st.floats() | st.sampled_from([-0.0, 1e16, math.inf, -math.inf, math.nan])
scalars = st.none() | st.booleans() | ints | floats | texts

json_values = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(ints | st.booleans(), max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(texts, children, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=500, deadline=None)
@given(json_values)
@example([1, True, 0])
@example({"a": [], "b": {}, "c": [[], {}], "": ()})
@example([-(2**70), 2**64, -1, 0])
@example({"é\x00\ud800": "\udfff\n\t "})
@example([None, -0.0, 1e16, math.inf, -math.inf, math.nan])
@example({"t": (1, 2.5, {"b": [], "a": ("x",)}), "u": [(), ({},)]})
@example(1.0)
def test_matches_json_dumps(doc):
    assert canonical_dumps(doc) == reference_dumps(doc)


def fixture_trace(path):
    scenario, plans, doc = load_scenario(path)
    return trace_doc(doc, list(run_rounds(scenario, plans, None)))


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_fixture_traces_match_json_dumps(fixture):
    trace = fixture_trace(fixture)
    assert canonical_dumps(trace) == reference_dumps(trace)


def test_five_column_pair_trace_matches_json_dumps(tmp_path):
    scenario = tmp_path / "wide_pair.json"
    scenario.write_text(json.dumps({
        "version": 1, "n": 6,
        "charts": [{"q_in_divisor": True}],
        "presentations": [
            {"chart": 1, "form": "monomial_pair", "u": [9, 4, 3, 4, 8], "v": [0, 6, 8, 6, 1]}
        ],
    }))
    trace = fixture_trace(scenario)
    assert canonical_dumps(trace) == reference_dumps(trace)
