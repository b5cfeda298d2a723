"""Adversarial trace mutations: the verifier must reject each with a named
invariant, never crash."""

import copy
import json
from pathlib import Path

import pytest

from toroidalize.cli import main
from toroidalize.scenario_io import canonical_dumps
from toroidalize.verify import VerificationError, verify_trace

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def base_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "euclid.trace.json"
    assert main(["run", str(FIXTURES / "euclid.json"), "-o", str(out)]) == 0
    return json.loads(out.read_text())


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
    "chart_flags_flipped": lambda d: d["rounds"][0].__setitem__(
        "charts", [not flag for flag in d["rounds"][0]["charts"]]
    ),
    "round_index_lie": lambda d: d["rounds"][0].__setitem__("round", 7),
    "embedded_scenario_version": lambda d: d["scenario"].__setitem__("version", 2),
    "embedded_scenario_unknown_key": lambda d: d["scenario"].__setitem__("colour", "red"),
    "embedded_scenario_name_type": lambda d: d["scenario"].__setitem__("name", 5),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_rejected(base_trace, name, tmp_path):
    doc = copy.deepcopy(base_trace)
    MUTATIONS[name](doc)
    with pytest.raises(VerificationError):
        verify_trace(doc)
    path = tmp_path / f"{name}.trace.json"
    path.write_text(canonical_dumps(doc))
    assert main(["verify", str(path)]) == 5


def test_pristine_trace_verifies(base_trace):
    verify_trace(copy.deepcopy(base_trace))


@pytest.mark.parametrize(
    "name, invariant",
    [
        ("round_index_lie", "replay"),
        ("embedded_scenario_version", "embedded scenario"),
        ("embedded_scenario_unknown_key", "embedded scenario"),
        ("embedded_scenario_name_type", "embedded scenario"),
    ],
)
def test_replay_side_mutation_names_its_invariant(base_trace, name, invariant):
    # the recorded checks pass on these; only the replay's whole-round
    # comparison or the embedded scenario's schema check rejects them
    doc = copy.deepcopy(base_trace)
    MUTATIONS[name](doc)
    with pytest.raises(VerificationError) as info:
        verify_trace(doc)
    assert (info.value.invariant, info.value.round_index, info.value.step_index) == (invariant, 0, None)


def test_flipped_chart_flags_fail_well_formedness(base_trace):
    # the recorded presentations no longer fit their charts' flags: the
    # chart check at the input boundary rejects them before any step check
    doc = copy.deepcopy(base_trace)
    MUTATIONS["chart_flags_flipped"](doc)
    with pytest.raises(VerificationError) as info:
        verify_trace(doc)
    assert info.value.invariant == "well-formedness"
    assert info.value.step_index is None


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
