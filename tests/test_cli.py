import copy
import json
import sys
from pathlib import Path

import pytest

from toroidalize.cli import main
from toroidalize.scenario_io import canonical_dumps, load_trace
from toroidalize.verify import VerificationError, verify_trace

FIXTURES = Path(__file__).parent / "fixtures"
ALL_FIXTURES = sorted(FIXTURES.glob("*.json"))


def run_fixture(name, tmp_path, extra=()):
    out = tmp_path / f"{Path(name).stem}.trace.json"
    code = main(["run", str(FIXTURES / name), "-o", str(out), *extra])
    return code, out


def test_fixture_inventory():
    assert len(ALL_FIXTURES) >= 20


@pytest.mark.parametrize("fixture", [f.name for f in ALL_FIXTURES])
def test_run_and_verify_every_fixture(fixture, tmp_path, capsys):
    code, out = run_fixture(fixture, tmp_path)
    assert code == 0
    assert out.exists()
    assert main(["verify", str(out)]) == 0


def test_run_is_byte_deterministic(tmp_path):
    _, first = run_fixture("euclid.json", tmp_path)
    text1 = first.read_text()
    first.unlink()
    _, second = run_fixture("euclid.json", tmp_path)
    assert text1 == second.read_text()


def test_run_writes_canonical_json(tmp_path):
    _, out = run_fixture("euclid.json", tmp_path)
    doc = json.loads(out.read_text())
    assert out.read_text() == canonical_dumps(doc)


def test_text_format(tmp_path, capsys):
    code, _ = run_fixture("euclid.json", tmp_path, extra=["--format", "text"])
    assert code == 0
    rendered = capsys.readouterr().out
    assert "step 0" in rendered
    assert "two_point" in rendered


def test_malformed_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "version": 1, "n": 3,
        "charts": [{"q_in_divisor": True}],
        "presentations": [{"chart": 1, "form": "monomial_pair", "u": [1, 1], "v": [2, 2]}],
    }))
    assert main(["run", str(bad), "-o", str(tmp_path / "t.json")]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "schema"
    assert "presentations" in report["detail"]["path"]


def test_unparseable_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "-o", str(tmp_path / "t.json")]) == 2


def test_budget_exceeded_exits_3(tmp_path, capsys):
    code, _ = run_fixture("euclid.json", tmp_path, extra=["--max-steps", "1"])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "budget"


def test_unreachable_budget_exits_3_before_the_first_step(tmp_path, capsys):
    # u = x^(10^20) needs 10^20 one-point steps, far past the default budget
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "version": 1, "n": 2,
        "charts": [{"q_in_divisor": True}],
        "presentations": [{"chart": 1, "form": "monomial_free", "u": [10**20], "v": [0]}],
    }))
    assert main(["run", str(big), "-o", str(tmp_path / "t.json")]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "budget"
    assert report["detail"]["steps"] == 0


def test_classification_failure_exits_4(tmp_path, capsys):
    # a nested shape whose quotient is proportional to v cannot come from a
    # dominant morphism; it passes form validation but fails to lift
    bad = tmp_path / "nondominant.json"
    bad.write_text(json.dumps({
        "version": 1, "n": 4,
        "charts": [{"q_in_divisor": True}],
        "presentations": [{"chart": 1, "form": "nested", "u": [2, 2], "v": [1, 1]}],
    }))
    assert main(["run", str(bad), "-o", str(tmp_path / "t.json")]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "classification"


def _one_chart(on_divisor, presentation, **extra):
    return {
        "version": 1, "n": 3,
        "charts": [{"q_in_divisor": on_divisor}],
        "presentations": [presentation],
        **extra,
    }


@pytest.mark.parametrize(
    "scenario, code, kind, detail",
    [
        (
            _one_chart(False, {"chart": 1, "form": "monomial_pair", "u": [2, 0], "v": [0, 3]}),
            2, "schema",
            {
                "path": "$.presentations[0]",
                "message": "monomial_pair requires a chart with the base point on the divisor",
            },
        ),
        (
            _one_chart(True, {"chart": 1, "form": "transverse"}),
            2, "schema",
            {
                "path": "$.presentations[0]",
                "message": "transverse requires a chart with the base point off the divisor",
            },
        ),
        (
            _one_chart(
                True, {"chart": 1, "form": "monomial_pair", "u": [1, 1], "v": [2, 3]},
                classification={"branch_overrides": {"0": 1}},
            ),
            4, "classification",
            {
                "round": 0,
                "message": "the full divisor cannot have fewer branches than the chart divisor",
            },
        ),
    ],
    ids=["pair_off_divisor", "transverse_on_divisor", "override_below_chart_branches"],
)
def test_chart_and_branch_errors_report(scenario, code, kind, detail, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "-o", str(tmp_path / "t.json")]) == code
    expected = {"status": "error", "kind": kind, "exit": code, "detail": detail}
    assert capsys.readouterr().out == canonical_dumps(expected)


def test_oracle_exits(tmp_path, capsys):
    assert main(["oracle", str(FIXTURES / "euclid.json"), "--depth", "32"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_terminate"] is True
    assert report["min_depth"] == 3 and report["max_depth"] == 3
    assert main(["oracle", str(FIXTURES / "euclid.json"), "--depth", "1"]) == 3
    assert main(["oracle", str(FIXTURES / "smooth.json"), "--depth", "2"]) == 0


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_oracle_deeper_than_recursion_limit_exits_3(tmp_path, capsys):
    # The search takes one stack frame per step, so a depth bound beyond the
    # interpreter's recursion limit must end in the documented depth error,
    # not a RecursionError.  A lowered limit keeps the overrun small and fast.
    ladder = tmp_path / "ladder.json"
    ladder.write_text(json.dumps({
        "version": 1, "n": 2,
        "charts": [{"q_in_divisor": True}],
        "presentations": [{"chart": 1, "form": "monomial_free", "u": [600], "v": [0]}],
    }))
    argv = ["oracle", str(ladder), "--depth", "5000", "--max-entry", "600"]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 300)
    try:
        code = main(argv)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "depth"
    assert "recursion limit" in report["detail"]["message"]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: run exits 0 but verify rejects its trace with "
    "'strict descent violated at round 0, step 31: two_point measure went "
    "(1, 400) -> (1, 405)'",
)
def test_verify_accepts_run_trace_of_five_column_pair(tmp_path, capsys):
    scenario = tmp_path / "pair.json"
    scenario.write_text(json.dumps({
        "version": 1, "n": 6,
        "charts": [{"q_in_divisor": True}],
        "presentations": [
            {"chart": 1, "form": "monomial_pair", "u": [4, 5, 0, 4, 0], "v": [0, 0, 8, 8, 3]}
        ],
    }))
    out = tmp_path / "pair.trace.json"
    assert main(["run", str(scenario), "-o", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: run exits 0 but verify rejects its trace with "
    "'strict descent violated at round 1, step 9: two_point measure went "
    "(1, 24) -> (1, 24)'",
)
def test_verify_accepts_run_trace_of_reseeded_free_pair(tmp_path, capsys):
    # found by test_multi_round_traces_always_verify: two free presentations
    # whose round-0 leaves reseed into 3- and 4-column pairs
    scenario = tmp_path / "reseeded.json"
    scenario.write_text(json.dumps({
        "version": 1, "n": 4,
        "charts": [{"q_in_divisor": False}, {"q_in_divisor": True}],
        "presentations": [
            {"chart": 2, "form": "monomial_free", "u": [3, 1], "v": [0, 1]},
            {"chart": 2, "form": "monomial_free", "u": [1, 1, 3], "v": [0, 1, 0]},
        ],
        "followup_points": [{"charts": [{"q_in_divisor": True}, {"q_in_divisor": True}]}],
    }))
    out = tmp_path / "reseeded.trace.json"
    assert main(["run", str(scenario), "-o", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


# -- tamper detection -------------------------------------------------------------

@pytest.fixture
def euclid_trace(tmp_path):
    _, out = run_fixture("euclid.json", tmp_path)
    return json.loads(out.read_text())


def rewrite(tmp_path, doc):
    path = tmp_path / "tampered.trace.json"
    path.write_text(canonical_dumps(doc))
    return path


def test_verify_detects_invariant_increase(euclid_trace, tmp_path, capsys):
    doc = copy.deepcopy(euclid_trace)
    doc["rounds"][0]["steps"][1]["after"]["two_point_max"] = 99
    assert main(["verify", str(rewrite(tmp_path, doc))]) == 5
    report = json.loads(capsys.readouterr().out)
    assert report["detail"]["invariant"] == "strict descent"
    assert report["detail"]["step"] == 1


def test_verify_detects_truncation(euclid_trace, tmp_path, capsys):
    doc = copy.deepcopy(euclid_trace)
    doc["rounds"][0]["steps"] = doc["rounds"][0]["steps"][:-1]
    doc["summary"]["steps"] -= 1
    assert main(["verify", str(rewrite(tmp_path, doc))]) == 5
    report = json.loads(capsys.readouterr().out)
    assert report["detail"]["invariant"] == "final emptiness"


def test_verify_detects_form_flip(euclid_trace, tmp_path, capsys):
    doc = copy.deepcopy(euclid_trace)
    victim = doc["rounds"][0]["steps"][0]["descendants"][0]
    assert victim["presentation"]["form"] == "monomial_pair"
    victim["presentation"]["form"] = "nested"
    assert main(["verify", str(rewrite(tmp_path, doc))]) == 5
    report = json.loads(capsys.readouterr().out)
    assert report["detail"]["invariant"] in {"closure", "well-formedness"}


def test_verify_detects_replay_divergence(euclid_trace, tmp_path):
    doc = copy.deepcopy(euclid_trace)
    # nudge one exponent: still well-formed and descent-plausible, but not
    # what the deterministic engine produces
    leaf = doc["rounds"][0]["leaves"][0]
    leaf["presentation"]["u"][0] += 1
    with pytest.raises(VerificationError):
        verify_trace(json.loads(rewrite(tmp_path, doc).read_text()))


def test_verify_rejects_schema_invalid_trace(tmp_path):
    path = tmp_path / "junk.trace.json"
    path.write_text(json.dumps({"version": 1, "rounds": []}))
    assert main(["verify", str(path)]) == 2


def test_trace_schema_validates_real_traces(euclid_trace, tmp_path):
    # load_trace runs the schema; a second pass through the validator from a
    # re-serialized document must also succeed
    path = rewrite(tmp_path, euclid_trace)
    load_trace(path)


def test_docs_schemas_match_packaged_schemas():
    package = Path(__file__).parent.parent / "src" / "toroidalize" / "schemas"
    docs = Path(__file__).parent.parent / "docs" / "schemas"
    for name in ("scenario.schema.json", "trace.schema.json"):
        assert (docs / name).read_text() == (package / name).read_text()
