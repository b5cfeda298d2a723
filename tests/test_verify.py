"""Adversarial trace mutations: the verifier must reject each with a named
invariant, never crash."""

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toroidalize import scenario_io
from toroidalize.cli import main
from toroidalize.scenario_io import SchemaError, canonical_dumps, check_schema, load_trace
from toroidalize.verify import VerificationError, _check_round, same_json, verify_trace

from conftest import reference_dumps

FIXTURES = Path(__file__).parent / "fixtures"


# euclid's pair on the first of two charts; the second carries nothing
TWO_CHARTS = {
    "version": 1, "n": 3,
    "charts": [{"q_in_divisor": True}, {"q_in_divisor": True}],
    "presentations": [{"chart": 1, "form": "monomial_pair", "u": [2, 0], "v": [0, 3]}],
}

# already principal, so its trace takes 0 steps; 2**60 is past the integers
# a float holds exactly one by one, yet float(2**60) == 2**60
BIG_PAIR = {
    "version": 1, "n": 3,
    "charts": [{"q_in_divisor": True}],
    "presentations": [{"chart": 1, "form": "monomial_pair", "u": [2**60, 0], "v": [2**60, 1]}],
}


@pytest.fixture(scope="module")
def base_traces(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("verify")
    (tmp / "two_charts.json").write_text(json.dumps(TWO_CHARTS))
    (tmp / "big_pair.json").write_text(json.dumps(BIG_PAIR))
    scenarios = {
        "euclid": FIXTURES / "euclid.json",
        "mixed_charts": FIXTURES / "mixed_charts.json",
        "two_charts": tmp / "two_charts.json",
        "big_pair": tmp / "big_pair.json",
    }
    traces = {}
    for name, scenario in scenarios.items():
        out = tmp / f"{name}.trace.json"
        assert main(["run", str(scenario), "-o", str(out)]) == 0
        traces[name] = json.loads(out.read_text())
    return traces


@pytest.fixture(scope="module")
def base_trace(base_traces):
    return base_traces["euclid"]


def _steps(d):
    return d["rounds"][0]["steps"]


def _append_empty_step(d):
    # a step that blows up nothing, after which nothing changed
    last = _steps(d)[-1]
    _steps(d).append({
        **copy.deepcopy(last), "index": len(_steps(d)), "parents": [], "descendants": [],
        "before": dict(last["after"]), "after": dict(last["after"]), "value": 0,
    })
    d["summary"]["steps"] += 1


def _swap_first_leaves(d):
    # euclid's leaves 4 and 5, both principal, each recorded under the other's id
    first, second = d["rounds"][0]["leaves"][:2]
    first["presentation"], second["presentation"] = second["presentation"], first["presentation"]


MUTATIONS = {
    "chart_out_of_range": lambda d: d["rounds"][0]["steps"][0].__setitem__("chart", 99),
    "unknown_parent": lambda d: d["rounds"][0]["steps"][0]["parents"][0].__setitem__("id", 42),
    "duplicated_leaf": lambda d: d["rounds"][0]["leaves"].append(d["rounds"][0]["leaves"][0]),
    "summary_lie": lambda d: d["summary"].__setitem__("steps", 9),
    "descendant_id_reuse": lambda d: d["rounds"][0]["steps"][1]["descendants"][0].__setitem__("id", 1),
    "target_value_lie": lambda d: d["rounds"][0]["steps"][0].__setitem__("value", 5),
    "phase_lie": lambda d: d["rounds"][0]["steps"][0].__setitem__("phase", "one_point"),
    "classification_dropped": lambda d: d["rounds"][0]["classification"].pop(),
    "note_tampered": lambda d: d["rounds"][0]["classification"][0].__setitem__("note", "x"),
    "round_duplicated": lambda d: d["rounds"].append(copy.deepcopy(d["rounds"][0])),
    "exponent_nudged": lambda d: d["rounds"][0]["steps"][2]["descendants"][0]["presentation"]["u"].__setitem__(0, 9),
    "principal_flag_flip": lambda d: d["rounds"][0]["steps"][0]["descendants"][1].__setitem__("principal", False),
    # euclid's pair, initial item 0, recorded as principal
    "initial_principal_flag_flip": lambda d: d["rounds"][0]["initial"][0].__setitem__("principal", True),
    "chart_flags_flipped": lambda d: d["rounds"][0].__setitem__(
        "charts", [not flag for flag in d["rounds"][0]["charts"]]
    ),
    "round_index_lie": lambda d: d["rounds"][0].__setitem__("round", 7),
    "embedded_scenario_version": lambda d: d["scenario"].__setitem__("version", 2),
    "embedded_scenario_unknown_key": lambda d: d["scenario"].__setitem__("colour", "red"),
    "embedded_scenario_name_type": lambda d: d["scenario"].__setitem__("name", 5),
    "chart_order_fell": lambda d: _steps(d)[5].__setitem__("chart", 1),
    "phase_against_chart": lambda d: _steps(d)[0].__setitem__("phase", "transverse"),
    "one_point_after_two_point": lambda d: _steps(d)[1].__setitem__("phase", "one_point"),
    "transverse_locus_kept": lambda d: _steps(d)[3]["after"].__setitem__(
        "center_count", _steps(d)[3]["before"]["center_count"]
    ),
    "principal_parent": lambda d: _steps(d)[1]["parents"][0].__setitem__("id", 2),
    "pair_produced_nested": lambda d: _steps(d)[0]["descendants"][1].__setitem__(
        "presentation", {"form": "nested", "chart": 1, "u": [2, 2], "v": [1, 1]}
    ),
    "leaf_not_principal": lambda d: d["rounds"][0]["leaves"][0].__setitem__(
        "presentation", {"form": "monomial_pair", "chart": 1, "u": [2, 0], "v": [0, 3]}
    ),
    "unused_chart_flag_flipped": lambda d: d["rounds"][0]["charts"].__setitem__(1, False),
    # euclid's u = (2, 0) recorded as (3, 0)
    "initial_exponent_raised": lambda d: d["rounds"][0]["initial"][0]["presentation"]["u"].__setitem__(0, 3),
    "embedded_scenario_longer": lambda d: d["scenario"]["presentations"][0].__setitem__("v", [0, 7]),
    "empty_step_appended": _append_empty_step,
    "descendant_cites_non_parent": lambda d: _steps(d)[0]["descendants"][0].__setitem__("parent", 42),
    "classification_reordered": lambda d: d["rounds"][0]["classification"].reverse(),
    # chart 0 would read the last chart's flag as charts[-1]
    "step_chart_zero": lambda d: _steps(d)[0].__setitem__("chart", 0),
    # the range check comes before the chart-order check
    "step_chart_negative": lambda d: _steps(d)[0].__setitem__("chart", -1),
    # a declared chart, but the parent (euclid's pair) lies in chart 1
    "step_chart_not_parents": lambda d: _steps(d)[0].__setitem__("chart", 2),
    # euclid's first step is a 2-point step
    "two_point_with_one_points_left": lambda d: _steps(d)[0]["before"].__setitem__("one_point_max", 1),
    # the principal power pair born at step 0, recorded in the other declared chart
    "descendant_in_another_chart": lambda d: _steps(d)[0]["descendants"][1]["presentation"].__setitem__(
        "chart", 2
    ),
    "leaves_swapped": _swap_first_leaves,
}

# the trace each mutation edits, when it is not euclid's
BASE = {
    "chart_order_fell": "mixed_charts",
    "transverse_locus_kept": "mixed_charts",
    "unused_chart_flag_flipped": "two_charts",
    "step_chart_not_parents": "two_charts",
    "descendant_in_another_chart": "two_charts",
}


def mutated(base_traces, name):
    doc = copy.deepcopy(base_traces[BASE.get(name, "euclid")])
    MUTATIONS[name](doc)
    return doc


# every mutation but these also exits 5 through the CLI; these fail the
# trace schema (a step needs a parent, a chart is at least 1), which
# ``verify`` reports first
SCHEMA_FIRST = {
    "empty_step_appended": {
        "path": "$.rounds[0].steps[3].parents",
        "message": "[] should be non-empty",
    },
    "step_chart_zero": {
        "path": "$.rounds[0].steps[0].chart",
        "message": "0 is less than the minimum of 1",
    },
    "step_chart_negative": {
        "path": "$.rounds[0].steps[0].chart",
        "message": "-1 is less than the minimum of 1",
    },
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_rejected(base_traces, name, tmp_path, capsys):
    doc = mutated(base_traces, name)
    with pytest.raises(VerificationError):
        verify_trace(doc)
    path = tmp_path / f"{name}.trace.json"
    path.write_text(canonical_dumps(doc))
    capsys.readouterr()
    if name in SCHEMA_FIRST:
        assert main(["verify", str(path)]) == 2
        expected = {"status": "error", "kind": "schema", "exit": 2, "detail": SCHEMA_FIRST[name]}
        assert capsys.readouterr().out == reference_dumps(expected)
    else:
        assert main(["verify", str(path)]) == 5


def test_pristine_trace_verifies(base_trace):
    verify_trace(copy.deepcopy(base_trace))


NAMED = [
    # only the replay's whole-round comparison or the embedded scenario's
    # schema check rejects these; the recorded checks pass on them
    ("round_index_lie", "replay", 0, None, "round document differs"),
    ("embedded_scenario_version", "embedded scenario", 0, None, "$.version"),
    ("embedded_scenario_unknown_key", "embedded scenario", 0, None, "'colour' was unexpected"),
    ("embedded_scenario_name_type", "embedded scenario", 0, None, "$.name"),
    ("unused_chart_flag_flipped", "replay", 0, None, "chart flags differ"),
    ("initial_exponent_raised", "replay", 0, None, "initial presentations differ"),
    ("embedded_scenario_longer", "replay", 0, None, "replay needs more steps than recorded"),
    ("empty_step_appended", "replay", 0, None, "recorded 4 steps, replay took 3"),
    # one row per recorded check that nothing else reaches
    ("chart_order_fell", "chart order", 0, 5, "chart fell from 3 to 1"),
    ("phase_against_chart", "phase", 0, 0, "phase transverse contradicts chart 1's base point"),
    ("one_point_after_two_point", "phase order", 0, 1, "1-point phase resumed after 2-point phase"),
    (
        "two_point_with_one_points_left", "phase order", 0, 0,
        "2-point phase ran with 1-points remaining",
    ),
    ("transverse_locus_kept", "strict descent", 0, 3, "transverse step did not shrink the locus"),
    ("principal_parent", "persistence", 0, 1, "principal presentation 2 blown up again"),
    ("pair_produced_nested", "closure", 0, 0, "monomial_pair produced nested"),
    ("initial_principal_flag_flip", "principality", 0, None, "initial presentation 0 mislabelled"),
    ("leaf_not_principal", "final emptiness", 0, None, "leaf 4 is not principal"),
    ("descendant_cites_non_parent", "identity", 0, 0, "descendant 1 cites a non-parent"),
    ("chart_out_of_range", "step chart", 0, 0, "step chart 99 is not one of charts 1..1"),
    ("step_chart_zero", "step chart", 0, 0, "step chart 0 is not one of charts 1..1"),
    ("step_chart_negative", "step chart", 0, 0, "step chart -1 is not one of charts 1..1"),
    (
        "step_chart_not_parents", "step chart", 0, 0,
        "parent 0 lies in chart 1, not in the step's chart 2",
    ),
    (
        "descendant_in_another_chart", "step chart", 0, 0,
        "descendant 2 lies in chart 2, not in its parent's chart 1",
    ),
    # leaf ids and classification ids are compared in recorded order
    ("duplicated_leaf", "identity", 0, None, "leaf id 4 repeated"),
    ("leaves_swapped", "identity", 0, None, "leaf 4 differs from its recorded presentation"),
    ("classification_reordered", "classification", 0, None, "classification does not cover the leaves"),
]


@pytest.mark.parametrize(
    "name, invariant, round_index, step_index, message",
    NAMED,
    ids=[f"{name}-{invariant}" for name, invariant, *_ in NAMED],
)
def test_replay_side_mutation_names_its_invariant(
    base_traces, name, invariant, round_index, step_index, message
):
    with pytest.raises(VerificationError) as info:
        verify_trace(mutated(base_traces, name))
    assert (info.value.invariant, info.value.round_index, info.value.step_index) == (
        invariant, round_index, step_index,
    )
    assert message in str(info.value)


# The recorded checks alone, without the embedded scenario's schema check or
# the replay: (invariant, round, step) of the first violation, or "passes"
# where only those two reject the row.  Every MUTATIONS row needs an entry.
RECORDED_ALONE = {
    "chart_flags_flipped": ("well-formedness", 0, None),
    "chart_order_fell": ("chart order", 0, 5),
    "chart_out_of_range": ("step chart", 0, 0),
    "classification_dropped": ("classification", 0, None),
    "classification_reordered": ("classification", 0, None),
    "descendant_cites_non_parent": ("identity", 0, 0),
    "descendant_id_reuse": ("identity", 0, 1),
    "descendant_in_another_chart": ("step chart", 0, 0),
    "duplicated_leaf": ("identity", 0, None),
    "embedded_scenario_longer": "passes",
    "embedded_scenario_name_type": "passes",
    "embedded_scenario_unknown_key": "passes",
    "embedded_scenario_version": "passes",
    "empty_step_appended": "passes",
    "exponent_nudged": ("identity", 0, None),
    "initial_exponent_raised": "passes",
    "initial_principal_flag_flip": ("principality", 0, None),
    "leaf_not_principal": ("final emptiness", 0, None),
    "leaves_swapped": ("identity", 0, None),
    "note_tampered": "passes",
    "one_point_after_two_point": ("phase order", 0, 1),
    "pair_produced_nested": ("closure", 0, 0),
    "phase_against_chart": ("phase", 0, 0),
    "phase_lie": ("phase policy", 0, 0),
    "principal_flag_flip": ("principality", 0, 0),
    "principal_parent": ("persistence", 0, 1),
    "round_duplicated": "passes",
    "round_index_lie": "passes",
    "step_chart_negative": ("step chart", 0, 0),
    "step_chart_not_parents": ("step chart", 0, 0),
    "step_chart_zero": ("step chart", 0, 0),
    "summary_lie": "passes",
    "target_value_lie": ("phase policy", 0, 0),
    "transverse_locus_kept": ("strict descent", 0, 3),
    "two_point_with_one_points_left": ("phase order", 0, 0),
    "unknown_parent": ("worklist", 0, 0),
    "unused_chart_flag_flipped": "passes",
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_recorded_checks_alone_verdict(base_traces, name):
    doc = mutated(base_traces, name)
    try:
        for round_index, round_doc in enumerate(doc["rounds"]):
            _check_round(round_doc, round_index)
    except VerificationError as exc:
        got = (exc.invariant, exc.round_index, exc.step_index)
    else:
        got = "passes"
    assert got == RECORDED_ALONE[name]


def test_flipped_chart_flags_fail_well_formedness(base_traces):
    # the recorded presentations no longer fit their charts' flags: the
    # chart check at the input boundary rejects them before any step check
    doc = mutated(base_traces, "chart_flags_flipped")
    with pytest.raises(VerificationError) as info:
        verify_trace(doc)
    assert info.value.invariant == "well-formedness"
    assert info.value.step_index is None


@pytest.mark.parametrize("chart", ["1", 1.5, True, math.inf], ids=repr)
def test_recorded_chart_that_is_no_integer_fails_well_formedness(base_trace, chart):
    # the recorded checks alone read a presentation's chart and a step's
    # chart by the schema's integer rule, before any int() call: no "1"
    # read as 1, no OverflowError on inf, no True taken for chart 1
    for holder, step_index in (
        (lambda d: d["rounds"][0]["initial"][0]["presentation"], None),
        (lambda d: _steps(d)[0], 0),
    ):
        doc = copy.deepcopy(base_trace)
        holder(doc)["chart"] = chart
        with pytest.raises(VerificationError) as info:
            _check_round(doc["rounds"][0], 0)
        assert (info.value.invariant, info.value.round_index, info.value.step_index) == (
            "well-formedness", 0, step_index,
        )
        assert str(info.value).endswith(f"{chart!r} is not of type 'integer'")


def test_replay_template_failure_is_reported_as_classification(tmp_path, capsys):
    # Tamper a nested presentation into u=(2,2), v=(1,1), whose quotient is
    # proportional to v: it is principal but lifts to no toroidal template.
    # verify must name the failure as run does for the same scenario.
    scenario = tmp_path / "nested.json"
    scenario.write_text(json.dumps({
        "version": 1, "n": 3,
        "charts": [{"q_in_divisor": True}],
        "presentations": [{"chart": 1, "form": "nested", "u": [2, 3], "v": [1, 1]}],
    }))
    out = tmp_path / "nested.trace.json"
    assert main(["run", str(scenario), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    round_doc = doc["rounds"][0]
    for presentation in (
        doc["scenario"]["presentations"][0],
        round_doc["initial"][0]["presentation"],
        round_doc["leaves"][0]["presentation"],
    ):
        presentation["u"] = [2, 2]
    out.write_text(canonical_dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 5
    assert json.loads(capsys.readouterr().out)["detail"] == {
        "invariant": "classification",
        "message": "classification violated at round 0: "
        "nested shape with proportional quotient violates dominance",
        "round": 0,
        "step": None,
    }
    scenario.write_text(json.dumps(doc["scenario"]))
    assert main(["run", str(scenario), "-o", str(tmp_path / "t.json")]) == 4
    assert json.loads(capsys.readouterr().out)["kind"] == "classification"


# -- the schema-free acceptance path keeps every verdict ---------------------------

def schema_first_verify(path):
    """Reference for ``verify`` with the full trace schema before any check:
    ``load_trace``, then ``verify_trace``, reported as ``verify`` reports."""
    try:
        trace = load_trace(path)
    except SchemaError as exc:
        detail = {"path": exc.path, "message": exc.reason}
        report = {"status": "error", "kind": "schema", "exit": 2, "detail": detail}
    else:
        try:
            verify_trace(trace)
        except VerificationError as exc:
            detail = {
                "invariant": exc.invariant,
                "round": exc.round_index,
                "step": exc.step_index,
                "message": str(exc),
            }
            report = {"status": "error", "kind": "verification", "exit": 5, "detail": detail}
        else:
            report = {"status": "ok", "summary": trace["summary"]}
    sys.stdout.write(reference_dumps(report))
    return report.get("exit", 0)


def verdict(verify, path):
    """(exit code, stdout) of ``verify(path)``; an escaping exception stands
    in for the exit code."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = verify(path)
    except Exception as exc:  # compared, not swallowed
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def cli_verify(path):
    return main(["verify", str(path)])


def _first_step(d):
    return d["rounds"][0]["steps"][0]


PINNED = {
    # the JSON spelling of a number is the schema's business, not dict equality's
    "initial_id_as_float": (
        lambda d: d["rounds"][0]["initial"][0].__setitem__("id", 0.0), 0, '"status": "ok"'
    ),
    "summary_steps_as_float": (lambda d: d["summary"].__setitem__("steps", 3.0), 0, '"steps": 3.0'),
    "principal_as_int": (
        lambda d: d["rounds"][0]["initial"][0].__setitem__("principal", 0),
        2,
        '"path": "$.rounds[0].initial[0].principal"',
    ),
    "version_true": (lambda d: d.__setitem__("version", True), 2, '"path": "$.version"'),
    "round_extra_key": (lambda d: d["rounds"][0].__setitem__("extra", 1), 2, '"path": "$.rounds[0]"'),
    "step_value_raised": (
        lambda d: _first_step(d).__setitem__("value", _first_step(d)["value"] + 1),
        5,
        '"invariant": "phase policy"',
    ),
    # == takes each of these as unchanged, the sorted-key dumps do not
    "chart_flag_as_int": (
        lambda d: d["rounds"][0]["charts"].__setitem__(0, 1), 2, '"path": "$.rounds[0].charts[0]"'
    ),
    "summary_rounds_as_true": (
        lambda d: d["summary"].__setitem__("rounds", True), 2, '"path": "$.summary.rounds"'
    ),
    # the schema's integer admits -0.0, and its minimum of 0 too
    "step_index_as_negative_zero": (
        lambda d: _first_step(d).__setitem__("index", -0.0), 0, '"status": "ok"'
    ),
    # the parent-chart check compares the int the chart names
    "initial_chart_as_float": (
        lambda d: d["rounds"][0]["initial"][0]["presentation"].__setitem__("chart", 1.0),
        0,
        '"status": "ok"',
    ),
    # a step's chart is read by the same integer rule
    "step_chart_as_float": (lambda d: _first_step(d).__setitem__("chart", 1.0), 0, '"status": "ok"'),
    # the trace schema refuses both first; the recorded checks would too
    "initial_chart_as_string": (
        lambda d: d["rounds"][0]["initial"][0]["presentation"].__setitem__("chart", "1"),
        2,
        '"path": "$.rounds[0].initial[0].presentation.chart"',
    ),
    "initial_chart_as_infinity": (
        lambda d: d["rounds"][0]["initial"][0]["presentation"].__setitem__("chart", math.inf),
        2,
        '"path": "$.rounds[0].initial[0].presentation.chart"',
    ),
    # the row check refuses the float before any comparison
    "big_exponent_as_float": (
        lambda d: d["rounds"][0]["initial"][0]["presentation"]["u"].__setitem__(0, float(2**60)),
        5,
        '"invariant": "well-formedness"',
    ),
}

# the trace each pinned edit starts from, when it is not euclid's
PINNED_BASE = {"big_exponent_as_float": "big_pair"}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_edit_verdict(base_traces, name, tmp_path):
    edit, code, marker = PINNED[name]
    doc = copy.deepcopy(base_traces[PINNED_BASE.get(name, "euclid")])
    edit(doc)
    path = tmp_path / f"{name}.trace.json"
    path.write_text(canonical_dumps(doc))
    got = verdict(cli_verify, path)
    assert got == verdict(schema_first_verify, path)
    assert got[0] == code
    assert marker in got[1]


def _node_paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, value in children:
        yield from _node_paths(value, path + (key,))


def _replacements(value):
    if isinstance(value, bool):
        return [not value, int(value), str(value).lower()]
    if isinstance(value, int):
        return [float(value), bool(value), str(value), value + 1]
    if isinstance(value, str):
        return [value + "x", None]
    return [0]


@st.composite
def one_node_edits(draw, doc):
    """``doc`` with one node changed: a scalar retyped or bumped, a key
    deleted or added, or a list truncated or given a duplicate element."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_node_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else doc
    if isinstance(node, dict):
        if node and draw(st.booleans()):
            del node[draw(st.sampled_from(sorted(node)))]
        else:
            node["extra"] = draw(st.sampled_from([1, "x", None]))
    elif isinstance(node, list):
        if node and draw(st.booleans()):
            node.append(copy.deepcopy(draw(st.sampled_from(node))))
        else:
            del node[-1:]
    else:
        parent[path[-1]] = draw(st.sampled_from(_replacements(node)))
    return doc


@pytest.fixture(scope="module")
def fuzz_traces(base_trace, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "three_point.trace.json"
    assert main(["run", str(FIXTURES / "three_point.json"), "-o", str(out)]) == 0
    return [base_trace, json.loads(out.read_text())], out.parent


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_node_edit_keeps_the_schema_first_verdict(fuzz_traces, data):
    traces, work = fuzz_traces
    doc = data.draw(one_node_edits(data.draw(st.sampled_from(traces))))
    path = work / "edited.trace.json"
    path.write_text(canonical_dumps(doc))
    got = verdict(cli_verify, path)
    assert got == verdict(schema_first_verify, path)
    try:
        check_schema(doc, "trace.schema.json")
    except SchemaError:
        assert got[0] == 2


# each scalar outside the embedded scenario is replaced by each of these in turn
SWEEP_VALUES = ["1", 1.5, math.inf, math.nan, True, None, -1, 10**30, [], {}]
_DROP = object()


def _sweep_edits(doc):
    """(path, value) for every one-node edit of ``doc`` outside its
    ``scenario``: each dict key dropped (value ``_DROP``) and each scalar
    replaced by each of ``SWEEP_VALUES``."""
    for path in _node_paths(doc):
        if not path or path[0] == "scenario":
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict):
            yield path, _DROP
        if not isinstance(parent[path[-1]], (dict, list)):
            for value in SWEEP_VALUES:
                yield path, value


def test_verify_trace_raises_only_verification_errors(base_trace):
    escaped = []
    for path, value in _sweep_edits(base_trace):
        doc = copy.deepcopy(base_trace)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        try:
            verify_trace(doc)
        except VerificationError:
            pass
        except Exception as exc:  # collected, so every escape is named
            escaped.append((path, value, f"{type(exc).__name__}: {exc}"))
    assert escaped == []


# -- same_json against the sorted-key dumps it stands in for -----------------------

def dumps_equal(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


walk_ints = st.integers(-2, 2) | st.integers(-(10**30), 10**30)
walk_floats = st.floats() | st.sampled_from([-0.0, 0.0, 1.0, 1e20, float(2**60)])
walk_texts = st.text("ab1", max_size=2)  # a small alphabet, so keys and strings repeat


def json_trees(scalars):
    return st.recursive(
        scalars,
        lambda children: (
            st.lists(children, max_size=4) | st.dictionaries(walk_texts, children, max_size=4)
        ),
        max_leaves=20,
    )


float_free_trees = json_trees(st.none() | st.booleans() | walk_ints | walk_texts)
any_trees = json_trees(st.none() | st.booleans() | walk_ints | walk_floats | walk_texts)


def _respellings(x):
    """Other scalars that ``==`` takes as ``x``, or nearly."""
    if type(x) is bool:
        return [int(x), float(x)]
    if type(x) is int:
        return [float(x), *([bool(x)] if x in (0, 1) else []), *([-0.0] if x == 0 else [])]
    return []


@st.composite
def respelled(draw, tree):
    """A copy of ``tree`` with some of its scalars respelled."""
    if type(tree) is dict:
        return {key: draw(respelled(value)) for key, value in tree.items()}
    if type(tree) is list:
        return [draw(respelled(value)) for value in tree]
    options = _respellings(tree)
    if options and draw(st.booleans()):
        return draw(st.sampled_from(options))
    return tree


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_same_json_is_sorted_key_dumps_equality(data):
    a = data.draw(float_free_trees, label="a")
    b = data.draw(any_trees | respelled(a), label="b")
    assert same_json(a, b) == dumps_equal(a, b)
    # a subtree both share by identity may hold floats, as the embedded
    # scenario does in verify
    shared = data.draw(any_trees, label="shared")
    assert same_json({"s": shared, "t": a}, {"s": shared, "t": b}) == dumps_equal(a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        (1, True), (0, False), (1, 1.0), (0, -0.0), (10**20, 1e20), (2**60, float(2**60)),
        ("1", 1), (None, 0), ([[]], [{}]), ([1, 2], [1, 2.0]), ([1, 2], [1, 2, 3]),
        ({"a": True}, {"a": 1}), ({"a": 1}, {"a": 1, "b": None}), ({"a": 1}, {"b": 1}),
        ({"a": [1, {"b": [True, None, "x"]}]}, {"a": [1, {"b": [True, None, "x"]}]}),
    ],
)
def test_same_json_examples(a, b):
    assert same_json(a, b) == dumps_equal(a, b)
    assert same_json(b, a) == dumps_equal(a, b)


def test_same_json_takes_a_shared_subtree_as_equal():
    shared = [math.nan, -0.0, 1e20]
    assert same_json({"s": shared, "t": 1}, {"s": shared, "t": 1})
    # an unshared float answers "different": -0.0 == 0.0, yet they dump apart
    assert not same_json([0.0], [-0.0])
    assert not same_json([float("1.5")], [float("1.5")])


# -- verify accepts every trace run writes without the trace schema ----------------

@pytest.fixture
def trace_schema_calls(monkeypatch):
    """The documents ``scenario_io.check_schema`` is asked to check against
    the trace schema from here on."""
    calls = []
    check = scenario_io.check_schema

    def counted(doc, schema_name):
        if schema_name == "trace.schema.json":
            calls.append(doc)
        check(doc, schema_name)

    monkeypatch.setattr(scenario_io, "check_schema", counted)
    return calls


def _float_charts():
    # mixed_charts with every chart index spelled as a float, as in
    # test_cli.py::test_integral_float_chart_runs_as_its_int
    doc = json.loads((FIXTURES / "mixed_charts.json").read_text())
    for p in doc["presentations"]:
        p["chart"] = float(p["chart"])
    return doc


@pytest.mark.parametrize("name", [*sorted(p.stem for p in FIXTURES.glob("*.json")), "float_charts"])
def test_verify_of_a_run_trace_skips_the_trace_schema(name, tmp_path, trace_schema_calls, capsys):
    # the verdicts would hold without the fast path too; only the schema
    # calls show whether same_json accepted run's own trace
    scenario = FIXTURES / f"{name}.json"
    if name == "float_charts":
        scenario = tmp_path / "float_charts.json"
        scenario.write_text(json.dumps(_float_charts()))
    out = tmp_path / f"{name}.trace.json"
    assert main(["run", str(scenario), "-o", str(out)]) == 0
    # the same document re-serialised compactly: other bytes, the same JSON
    compact = tmp_path / f"{name}.compact.json"
    compact.write_text(json.dumps(json.loads(out.read_text())))
    for path in (out, compact):
        capsys.readouterr()
        assert main(["verify", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert trace_schema_calls == []
