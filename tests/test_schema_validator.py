"""The package's own schema validator against jsonschema's Draft 2020-12
validator, which the tests keep as the reference: the same (path, message)
list in the same order, and the same error chosen by ``check_schema``."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toroidalize.cli import main
from toroidalize.scenario_io import SchemaError, _load_schema, _validator, _Validator, check_schema

from conftest import reference_dumps
from test_verify import MUTATIONS, PINNED, PINNED_BASE, base_traces, mutated  # noqa: F401  (base_traces is a fixture)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
SCHEMAS = ("scenario.schema.json", "trace.schema.json")
REFERENCE = {name: jsonschema.Draft202012Validator(_load_schema(name)) for name in SCHEMAS}
FORMS = (
    "monomial_free", "nested", "monomial_unit", "power_unit",
    "monomial_pair", "transverse", "transverse_unit", "transverse_product",
)


def reference_errors(doc, name):
    return [(tuple(e.absolute_path), e.message) for e in REFERENCE[name].iter_errors(doc)]


def our_errors(doc, name):
    return [(tuple(path), message) for path, message in _validator(name).errors(doc)]


def reference_choice(doc, name):
    """``check_schema``'s error as it chose it on jsonschema: the deepest
    path, ordered as ``str(deque)``, and the last of equals."""
    errors = sorted(
        REFERENCE[name].iter_errors(doc), key=lambda e: (len(e.absolute_path), str(e.absolute_path))
    )
    if errors:
        path = "$" + "".join(
            f"[{part}]" if isinstance(part, int) else f".{part}" for part in errors[-1].absolute_path
        )
        return path, errors[-1].message
    return None


def our_choice(doc, name):
    try:
        check_schema(doc, name)
    except SchemaError as exc:
        return exc.path, exc.reason
    return None


def assert_same(doc, name):
    assert our_errors(doc, name) == reference_errors(doc, name)
    assert our_choice(doc, name) == reference_choice(doc, name)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Every fixture scenario and the trace ``run`` writes for it."""
    work = tmp_path_factory.mktemp("schema")
    docs = []
    for fixture in sorted(FIXTURES.glob("*.json")):
        trace = work / f"{fixture.stem}.trace.json"
        assert _run(["run", str(fixture), "-o", str(trace)])[0] == 0
        docs.append((fixture.stem, "scenario.schema.json", json.loads(fixture.read_text())))
        docs.append((fixture.stem, "trace.schema.json", json.loads(trace.read_text())))
    return docs


def test_fixtures_are_valid_under_both(documents):
    assert len(documents) == 2 * len(list(FIXTURES.glob("*.json")))
    for _, name, doc in documents:
        assert our_errors(doc, name) == reference_errors(doc, name) == []


@pytest.fixture(scope="module")
def euclid_trace(documents):
    return next(doc for stem, name, doc in documents if (stem, name) == ("euclid", "trace.schema.json"))


@pytest.mark.parametrize("edit", sorted(MUTATIONS), ids=str)
def test_verify_mutations(base_traces, edit):
    doc = mutated(base_traces, edit)
    assert_same(doc, "trace.schema.json")
    assert_same(doc["scenario"], "scenario.schema.json")


@pytest.mark.parametrize("edit", sorted(PINNED), ids=str)
def test_verify_pinned_edits(base_traces, edit):
    doc = copy.deepcopy(base_traces[PINNED_BASE.get(edit, "euclid")])
    PINNED[edit][0](doc)
    assert_same(doc, "trace.schema.json")


def _pair(u, v):
    return {"version": 1, "n": len(u) + 1, "charts": [{"q_in_divisor": True}],
            "presentations": [{"chart": 1, "form": "monomial_pair", "u": u, "v": v}]}


EDGE_SCENARIOS = {
    # equally deep errors ending in indices 1 and 10: "[..., 10]" sorts
    # before "[..., 1]", so check_schema reports u[1]
    "rows_1_and_10": _pair([0, -1] + [1] * 8 + [-1, 2], [1] * 12),
    # "$" also matches before a final newline
    "override_key_newline": {**_pair([2, 0], [0, 3]), "classification": {"branch_overrides": {"3\n": 5}}},
    "override_value_float": {**_pair([2, 0], [0, 3]), "classification": {"branch_overrides": {"3": 1.0}}},
    "override_value_true": {**_pair([2, 0], [0, 3]), "classification": {"branch_overrides": {"3": True}}},
    "override_value_3": {**_pair([2, 0], [0, 3]), "classification": {"branch_overrides": {"3": 3}}},
    "two_unmatched_keys": {**_pair([2, 0], [0, 3]), "classification": {"branch_overrides": {"b": 1, "a": 1}}},
    "n_as_float": {**_pair([2, 0], [0, 3]), "n": 3.0},
    "n_as_true": {**_pair([2, 0], [0, 3]), "n": True},
    "version_as_float": {**_pair([2, 0], [0, 3]), "version": 1.0},
}


@pytest.mark.parametrize("case", sorted(EDGE_SCENARIOS))
def test_edge_scenarios(case):
    assert_same(EDGE_SCENARIOS[case], "scenario.schema.json")


def test_equal_depth_errors_report_the_last_in_list_order():
    with pytest.raises(SchemaError) as info:
        check_schema(EDGE_SCENARIOS["rows_1_and_10"], "scenario.schema.json")
    assert info.value.path == "$.presentations[0].u[1]"


# -- one to three edits of a fixture document ------------------------------------

RETYPED = [1, 1.0, 0.0, -1, 2.5, True, False, "1", "x", None, [], {}, [1], {"a": 1}]


def _slots(node):
    """(parent, key, value) for every node below ``node``."""
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = list(enumerate(node))
    else:
        return
    for key, value in children:
        yield node, key, value
        yield from _slots(value)


def _pick(draw, doc, keep):
    slots = [slot for slot in _slots(doc) if keep(*slot)]
    return draw(st.sampled_from(slots)) if slots else None


def retype(draw, doc):
    slot = _pick(draw, doc, lambda parent, key, value: True)
    if slot:
        parent, key, _ = slot
        parent[key] = copy.deepcopy(draw(st.sampled_from(RETYPED)))


def drop_key(draw, doc):
    slot = _pick(draw, doc, lambda parent, key, value: isinstance(parent, dict))
    if slot:
        del slot[0][slot[1]]


def extra_key(draw, doc):
    slot = _pick(draw, doc, lambda parent, key, value: isinstance(value, dict))
    target = slot[2] if slot and draw(st.booleans()) else doc
    key = draw(st.sampled_from(["extra", "x", "7", "name", "u", "kind", "base"]))
    target[key] = copy.deepcopy(draw(st.sampled_from(RETYPED)))


def branch_overrides(draw, doc):
    key = draw(st.sampled_from(["0", "12", "x", "1a", "", "3\n", "-1"]))
    value = draw(st.sampled_from([0, 2, -1, 3, 1.0, True, "1", None]))
    doc["classification"] = {"branch_overrides": {key: value}}


def wrong_rows(draw, doc):
    slot = _pick(draw, doc, lambda parent, key, value: isinstance(value, dict) and "form" in value)
    if slot:
        slot[2]["form"] = draw(st.sampled_from(FORMS))


def template(draw, doc):
    slot = _pick(draw, doc, lambda parent, key, value: key == "template")
    if slot:
        slot[0]["template"] = draw(st.sampled_from([1, 1.0, "x", True, [], [None]]))


def out_of_range(draw, doc):
    slot = _pick(draw, doc, lambda parent, key, value: type(value) is int)
    if slot:
        parent, key, value = slot
        parent[key] = draw(st.sampled_from([-1, 0, 3, value - 1, value + 3, -1.0]))


def unknown_name(draw, doc):
    slot = _pick(draw, doc, lambda parent, key, value: isinstance(value, str))
    if slot:
        slot[0][slot[1]] += "_x"


def empty_array(draw, doc):
    slot = _pick(draw, doc, lambda parent, key, value: isinstance(value, list))
    if slot:
        slot[2].clear()


EDITS = [
    retype, drop_key, extra_key, branch_overrides, wrong_rows, template, out_of_range, unknown_name, empty_array
]


def deep(depth, leaf):
    for level in range(depth):
        leaf = [leaf] if level % 2 else {"a": leaf}
    return leaf


@st.composite
def edited_documents(draw, documents):
    _, name, doc = draw(st.sampled_from(documents))
    doc = copy.deepcopy(doc)
    for edit in draw(st.lists(st.sampled_from(EDITS), min_size=1, max_size=3)):
        edit(draw, doc)
    if draw(st.integers(0, 9)) == 0:
        # last, so that no edit walks the nested value
        doc["scenario" if "rounds" in doc else "name"] = deep(draw(st.sampled_from([499, 500])), 1)
    return name, doc


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_edits_give_jsonschemas_errors(documents, data):
    name, doc = data.draw(edited_documents(documents))
    assert_same(doc, name)


@pytest.mark.parametrize("name, key", [("scenario.schema.json", "name"), ("trace.schema.json", "scenario")])
@pytest.mark.parametrize("depth", [500, 501])
def test_deep_nesting_under_free_keys(documents, name, key, depth):
    doc = copy.deepcopy(next(d for stem, n, d in documents if (stem, n) == ("euclid", name)))
    doc[key] = deep(depth, "x")
    assert_same(doc, name)


# -- schema keywords --------------------------------------------------------------

SMALL_SCHEMAS = [
    {"enum": [1, "a", [1, True], {"k": 0}]},
    {"const": [1, {"k": False}]},
    {"type": ["integer", "null"], "minimum": 1, "maximum": 2},
    {"type": "number", "minimum": 0.5},
    {"type": "array", "minItems": 2, "maxItems": 0},
    {"type": "array", "maxItems": 1, "items": {"type": "boolean"}},
    {"oneOf": [{"type": "integer"}, {"minimum": 0}, {"type": "string"}]},
    {"if": {"required": ["a"]}, "then": {"required": ["b"]}, "properties": {"a": {"const": 0}}},
    {"patternProperties": {"^a": {"type": "string"}, "b$": {"type": "integer"}}, "additionalProperties": False},
]
SMALL_INSTANCES = [
    None, True, False, 0, 1, 1.0, 1.5, 2, 3, -1.0, "a", "1", [], [1], [1, True], [1, 1],
    [True, False], [1, {"k": False}], [1, {"k": 0}], {"k": 0}, {"k": False}, {"a": 0},
    {"a": 0, "b": 1}, {"a": "x", "ab": 1, "cb": "y", "z": 0, "y": 1},
]


@pytest.mark.parametrize("schema", SMALL_SCHEMAS, ids=lambda schema: ",".join(schema))
def test_keywords_match_jsonschema_on_small_schemas(schema):
    ours, reference = _Validator(schema), jsonschema.Draft202012Validator(schema)
    for instance in SMALL_INSTANCES:
        expected = [(tuple(e.absolute_path), e.message) for e in reference.iter_errors(instance)]
        assert [(tuple(path), message) for path, message in ours.errors(instance)] == expected, instance


def test_packaged_schemas_compile():
    for name in SCHEMAS:
        _Validator(_load_schema(name))


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "object", "properties": {"n": {"type": "integer", "multipleOf": 2}}},
        {"$defs": {"row": {"type": "array", "uniqueItems": True}}, "$ref": "#/$defs/row"},
        {"if": {"type": "object"}, "then": {"required": ["n"]}, "else": {"type": "null"}},
        {"then": {"required": ["n"]}},
        {"type": "object", "additionalProperties": {"type": "integer"}},
        {"$defs": {"row": {"type": "array"}}, "$ref": "#/$defs/rows"},
    ],
    ids=["multipleOf", "uniqueItems-in-defs", "else", "then-without-if", "additionalProperties-schema", "missing-def"],
)
def test_unknown_keyword_is_refused(schema):
    with pytest.raises(ValueError, match="unsupported"):
        _Validator(schema)


@pytest.mark.parametrize("subschema", [False, 1, []], ids=repr)
def test_a_subschema_that_is_neither_true_nor_an_object_is_refused(subschema):
    with pytest.raises(ValueError) as info:
        _Validator({"properties": {"n": subschema}})
    assert str(info.value) == f"unsupported schema {subschema!r}"


# -- exit-2 reports, byte for byte ---------------------------------------------------

def report(path, message):
    detail = {"path": path, "message": message}
    return reference_dumps({"status": "error", "kind": "schema", "exit": 2, "detail": detail})


def _scenario(**changes):
    doc = json.loads((FIXTURES / "euclid.json").read_text())
    doc.update(changes)
    return doc


# the well-formed JSON among the malformed scenarios of bench/workloads.py
MALFORMED = {
    "negative exponent": '{"version": 1, "n": 3, "charts": [{"q_in_divisor": true}], '
    '"presentations": [{"chart": 1, "form": "monomial_pair", "u": [2, -1], "v": [0, 3]}]}',
    "undeclared chart": '{"version": 1, "n": 3, "charts": [{"q_in_divisor": true}], '
    '"presentations": [{"chart": 2, "form": "monomial_pair", "u": [2, 0], "v": [0, 3]}]}',
    "rank-1 pair": '{"version": 1, "n": 3, "charts": [{"q_in_divisor": true}], '
    '"presentations": [{"chart": 1, "form": "monomial_pair", "u": [1, 1], "v": [2, 2]}]}',
    "missing n": '{"version": 1, "charts": [{"q_in_divisor": true}], '
    '"presentations": [{"chart": 1, "form": "monomial_pair", "u": [2, 0], "v": [0, 3]}]}',
}

# Captured from the CLI while it validated with jsonschema 4.26.0.
SCENARIO_REPORTS = {
    "negative exponent": ("run", report("$.presentations[0].u[1]", "-1 is less than the minimum of 0")),
    "undeclared chart": ("run", report("$.presentations[0].chart", "chart 2 not declared (only 1)")),
    "rank-1 pair": ("run", report("$.presentations[0]", "monomial_pair requires rank [u_row; v_row] = 2")),
    "missing n": ("run", report("$", "'n' is a required property")),
    "branch override x": (
        "run",
        report("$.classification.branch_overrides", "'x' does not match any of the regexes: '^[0-9]+$'"),
    ),
    "no charts": ("oracle", report("$.charts", "[] should be non-empty")),
    "two extra keys": (
        "run",
        report("$", "Additional properties are not allowed ('b', 'colour' were unexpected)"),
    ),
}
SCENARIO_TEXT = {
    **MALFORMED,
    "branch override x": json.dumps(_scenario(classification={"branch_overrides": {"x": 1}})),
    "no charts": json.dumps(_scenario(charts=[])),
    "two extra keys": json.dumps(_scenario(colour="red", b=0)),
}
TRACE_REPORTS = {
    "principal_as_int": report("$.rounds[0].initial[0].principal", "0 is not of type 'boolean'"),
    "version_true": report("$.version", "1 was expected"),
    "round_extra_key": report("$.rounds[0]", "Additional properties are not allowed ('extra' was unexpected)"),
    "template_as_string": report(
        "$.rounds[0].classification[0].template", "'x' is not valid under any of the given schemas"
    ),
}
TRACE_EDITS = {
    **{name: PINNED[name][0] for name in ("principal_as_int", "version_true", "round_extra_key")},
    "template_as_string": lambda d: d["rounds"][0]["classification"][0].__setitem__("template", "x"),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_REPORTS))
def test_scenario_exit_2_report(case, tmp_path):
    verb, expected = SCENARIO_REPORTS[case]
    path = tmp_path / "bad.json"
    path.write_text(SCENARIO_TEXT[case])
    argv = [verb, str(path)] + (["-o", str(tmp_path / "t.json")] if verb == "run" else [])
    assert _run(argv) == (2, expected)


@pytest.mark.parametrize("case", sorted(TRACE_REPORTS))
def test_trace_exit_2_report(euclid_trace, case, tmp_path):
    doc = copy.deepcopy(euclid_trace)
    TRACE_EDITS[case](doc)
    path = tmp_path / "bad.trace.json"
    path.write_text(json.dumps(doc))
    assert _run(["verify", str(path)]) == (2, TRACE_REPORTS[case])


# -- the CLI never needs jsonschema --------------------------------------------------

def _child(code, *args):
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    # -B: nothing is written next to the bench scripts
    return subprocess.run(
        [sys.executable, "-B", "-c", code, *args], capture_output=True, text=True, env=env, cwd=ROOT
    )


BLOCKED_CLI = (
    "import sys\n"
    "sys.modules['jsonschema'] = None\n"
    "from toroidalize.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def test_cli_runs_with_jsonschema_blocked(tmp_path):
    euclid = str(FIXTURES / "euclid.json")
    trace = str(tmp_path / "euclid.trace.json")
    for argv in (["run", euclid, "-o", trace], ["verify", trace], ["oracle", euclid, "--depth", "8"]):
        child = _child(BLOCKED_CLI, *argv)
        assert (child.returncode, child.stderr) == (0, ""), argv
        assert json.loads(child.stdout)["status"] == "ok"
    bad = tmp_path / "bad.json"
    bad.write_text(MALFORMED["missing n"])
    child = _child(BLOCKED_CLI, "run", str(bad), "-o", str(tmp_path / "t.json"))
    assert (child.returncode, child.stdout, child.stderr) == (2, SCENARIO_REPORTS["missing n"][1], "")


def test_ready_state_imports_no_jsonschema():
    child = _child(
        "import sys\n"
        "sys.path.insert(0, 'bench')\n"
        "import setup_ready\n"
        "setup_ready.ready()\n"
        "assert 'toroidalize.scenario_io' in sys.modules\n"
        "assert 'jsonschema' not in sys.modules, 'jsonschema imported'\n"
    )
    assert (child.returncode, child.stderr) == (0, "")
