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


def test_flipped_chart_flags_fail_well_formedness(base_trace):
    # the recorded presentations no longer fit their charts' flags: the
    # chart check at the input boundary rejects them before any step check
    doc = copy.deepcopy(base_trace)
    MUTATIONS["chart_flags_flipped"](doc)
    with pytest.raises(VerificationError) as info:
        verify_trace(doc)
    assert info.value.invariant == "well-formedness"
    assert info.value.step_index is None
