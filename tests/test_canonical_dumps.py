"""``canonical_dumps`` against its specification, ``json``'s indent encoder, and
``write_trace``, which streams it into a file."""

import json
import math
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toroidalize import scenario_io
from toroidalize.scenario_io import SchemaError, canonical_dumps, load_scenario, trace_doc, write_trace
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
@example([[1], {"a": [None, "x"]}, [], [[2, 3], True]])
def test_matches_json_dumps(doc):
    expected = reference_dumps(doc)
    assert canonical_dumps(doc) == expected
    # streamed, with a flush at every list-element boundary the sink can see
    pieces = []
    with mock.patch.object(scenario_io, "FLUSH_CHUNKS", 1):
        assert canonical_dumps(doc, pieces.append) is None
    assert "".join(pieces) == expected


def fixture_trace(path):
    scenario, plans, doc = load_scenario(path)
    return trace_doc(doc, list(run_rounds(scenario, plans, None)))


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_fixture_traces_match_json_dumps(fixture, tmp_path):
    trace = fixture_trace(fixture)
    assert canonical_dumps(trace) == reference_dumps(trace)
    out = tmp_path / "t.json"
    write_trace(trace, out)
    assert out.read_bytes() == reference_dumps(trace).encode()


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


@pytest.fixture(scope="module")
def ladder_trace(tmp_path_factory):
    """u = x^400, v = y on one chart: 400 one-point steps, a 1.4 MB trace."""
    scenario = tmp_path_factory.mktemp("ladder") / "ladder.json"
    scenario.write_text(json.dumps({
        "version": 1, "n": 2,
        "charts": [{"q_in_divisor": True}],
        "presentations": [{"chart": 1, "form": "monomial_free", "u": [400], "v": [0]}],
    }))
    return fixture_trace(scenario)


def test_written_ladder_trace_matches_json_dumps(ladder_trace, tmp_path):
    pieces = []
    canonical_dumps(ladder_trace, pieces.append)
    assert len(pieces) > 3  # the file is written in several pieces
    out = tmp_path / "t.json"
    write_trace(ladder_trace, out)
    expected = reference_dumps(ladder_trace)
    assert len(expected) > 1_000_000
    assert out.read_bytes() == canonical_dumps(ladder_trace).encode() == expected.encode()


def test_write_trace_memory_stays_below_a_quarter_of_the_trace(ladder_trace, tmp_path):
    out = tmp_path / "t.json"
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        write_trace(ladder_trace, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a writer that held the whole text, and then its encoded copy, would
    # peak above three times the trace's size
    assert peak - start < out.stat().st_size / 4


# the interpreter's limit on int <-> decimal string conversion; 0 means none
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(INT_DIGITS == 0, reason="no int-string digit limit")
def test_failed_write_after_flushes_leaves_no_file(ladder_trace, tmp_path):
    # the value past the digit limit sorts last, so several pieces
    # have overwritten the earlier file when it fails
    doc = {**ladder_trace, "zz": 10 ** INT_DIGITS}
    out = tmp_path / "t.json"
    out.write_text("an earlier trace\n")
    with pytest.raises(SchemaError, match="cannot write trace file: Exceeds the limit"):
        write_trace(doc, out)
    assert not out.exists()


def test_any_error_while_writing_removes_the_file(ladder_trace, tmp_path):
    # not an OSError or ValueError, so it is not a SchemaError; it still removes the file
    out = tmp_path / "t.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_trace({**ladder_trace, "zz": object()}, out)
    assert not out.exists()
