import contextlib
import copy
import io
import json
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toroidalize.cli import build_parser, main
from toroidalize.scenario_io import canonical_dumps, load_trace
from toroidalize.verify import VerificationError, verify_trace

from conftest import assert_verifies_as_written, reference_dumps
from test_verify import one_node_edits

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
    trace = out.read_bytes()
    summary = json.loads(trace)["summary"]
    assert_verifies_as_written(json.loads(trace))
    assert main(["verify", str(out)]) == 0
    # the text report writes the same trace and ends with the summary line
    capsys.readouterr()
    code, _ = run_fixture(fixture, tmp_path, extra=["--format", "text"])
    assert code == 0
    assert out.read_bytes() == trace
    done = (
        f"done: {summary['rounds']} round(s), {summary['steps']} step(s), "
        f"{summary['leaves']} leaf/leaves"
    )
    assert capsys.readouterr().out.endswith(f"\n{done}\n")


def test_run_is_byte_deterministic(tmp_path):
    _, first = run_fixture("euclid.json", tmp_path)
    text1 = first.read_text()
    first.unlink()
    _, second = run_fixture("euclid.json", tmp_path)
    assert text1 == second.read_text()


def test_run_writes_canonical_json(tmp_path):
    _, out = run_fixture("euclid.json", tmp_path)
    doc = json.loads(out.read_text())
    assert out.read_text() == reference_dumps(doc)


def test_text_format(tmp_path, capsys):
    code, _ = run_fixture("euclid.json", tmp_path, extra=["--format", "text"])
    assert code == 0
    rendered = capsys.readouterr().out
    assert "step 0" in rendered
    assert "two_point" in rendered


def test_text_format_renders_transverse_charts(tmp_path, capsys):
    code, _ = run_fixture("mixed_charts.json", tmp_path, extra=["--format", "text"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  p1 [active] chart 2: transverse" in lines
    assert "    p1 --b_origin--> p14 [principal] transverse_product" in lines


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


@pytest.mark.parametrize("verb", ["run", "verify", "oracle"])
def test_deeply_nested_json_exits_2(verb, tmp_path, capsys):
    # deeper than json.loads can recurse: a report, not a RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main([verb, str(deep)]) == 2
    expected = {
        "status": "error", "kind": "schema", "exit": 2,
        "detail": {"path": "$", "message": "invalid JSON: nested deeper than the parser allows"},
    }
    assert capsys.readouterr().out == reference_dumps(expected)


@pytest.mark.parametrize("verb, what", [("run", "scenario"), ("verify", "trace"), ("oracle", "scenario")])
def test_missing_input_file_exits_2(verb, what, tmp_path, capsys):
    assert main([verb, str(tmp_path / "missing.json")]) == 2
    out = capsys.readouterr().out
    message = json.loads(out)["detail"]["message"]
    # the rest of the message is the operating system's errno text
    assert message.startswith(f"cannot read {what} file: ")
    detail = {"path": "$", "message": message}
    assert out == reference_dumps({"status": "error", "kind": "schema", "exit": 2, "detail": detail})


# the interpreter's limit on int <-> decimal string conversion; 0 means none
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(INT_DIGITS == 0, reason="no int-string digit limit")


def _schema_report(message):
    detail = {"path": "$", "message": message}
    return reference_dumps({"status": "error", "kind": "schema", "exit": 2, "detail": detail})


@pytest.mark.parametrize("verb", ["run", "verify", "oracle"])
def test_input_that_is_not_utf8_exits_2(verb, tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main([verb, str(path)]) == 2
    assert capsys.readouterr().out == _schema_report(
        "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    )


@needs_digit_limit
@pytest.mark.parametrize("verb", ["run", "verify", "oracle"])
def test_integer_literal_past_the_digit_limit_exits_2(verb, tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"version": 1' + "0" * INT_DIGITS + "}")
    assert main([verb, str(path)]) == 2
    out = capsys.readouterr().out
    message = json.loads(out)["detail"]["message"]
    assert message.startswith("invalid JSON: Exceeds the limit")
    assert out == _schema_report(message)


def _huge_step_scenario(tmp_path):
    # the entries fit the digit limit, but the one step's 2-point value 10^(2e) does not
    e = INT_DIGITS // 2 + 1
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        _one_chart(True, {"chart": 1, "form": "monomial_pair", "u": [10**e, 0], "v": [0, 10**e]})
    ))
    return path


@needs_digit_limit
def test_trace_value_past_the_digit_limit_exits_2(tmp_path, capsys):
    out = tmp_path / "huge.trace.json"
    assert main(["run", str(_huge_step_scenario(tmp_path)), "-o", str(out)]) == 2
    report = capsys.readouterr().out
    message = json.loads(report)["detail"]["message"]
    assert message.startswith("cannot write trace file: Exceeds the limit")
    assert report == _schema_report(message)
    assert not out.exists()


@needs_digit_limit
def test_trace_value_past_the_digit_limit_removes_an_existing_file(tmp_path, capsys):
    # the trace streams into the file it names, so a failed write removes a
    # file that was there before rather than leave it half overwritten
    out = tmp_path / "huge.trace.json"
    out.write_text("an earlier trace\n")
    assert main(["run", str(_huge_step_scenario(tmp_path)), "-o", str(out)]) == 2
    report = capsys.readouterr().out
    assert json.loads(report)["detail"]["message"].startswith("cannot write trace file: Exceeds the limit")
    assert not out.exists()


def test_unwritable_trace_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "t.json"
    assert main(["run", str(FIXTURES / "euclid.json"), "-o", str(out)]) == 2
    report = capsys.readouterr().out
    detail = json.loads(report)["detail"]
    assert detail["message"].startswith("cannot write trace file: ")
    assert str(out) in detail["message"]
    # the report is the error of opening the path the user named, byte for byte
    with pytest.raises(OSError) as opened:
        open(out, "w")
    assert report == _schema_report(f"cannot write trace file: {opened.value}")


@pytest.mark.parametrize(
    "fixture, max_steps, detail",
    [
        # euclid's lower bound is 2 and its run takes 3 steps; after step 1
        # the bound of the state reached is 2, so 1 + 2 > 2 refuses it there
        ("euclid.json", "2", {"message": "locus still nonempty after 1 step", "round": 0, "steps": 1}),
        # round 0 fits in 3 steps; round 1's lower bound already exceeds them
        ("multi_round.json", "3", {"message": "locus still nonempty after 0 steps", "round": 1, "steps": 0}),
        # a budget below the lower bound is refused before the first step
        ("euclid.json", "1", {"message": "locus still nonempty after 0 steps", "round": 0, "steps": 0}),
        # a zero budget allows no step
        ("euclid.json", "0", {"message": "locus still nonempty after 0 steps", "round": 0, "steps": 0}),
    ],
    ids=["euclid", "multi_round", "euclid-below-bound", "euclid-zero"],
)
def test_budget_exceeded_exits_3(fixture, max_steps, detail, tmp_path, capsys):
    code, _ = run_fixture(fixture, tmp_path, extra=["--max-steps", max_steps])
    assert code == 3
    expected = {"status": "error", "kind": "budget", "exit": 3, "detail": detail}
    assert capsys.readouterr().out == reference_dumps(expected)


@pytest.mark.parametrize("max_steps", ["-1", "-7"])
def test_negative_budget_exits_2(max_steps, tmp_path, capsys):
    code, out = run_fixture("euclid.json", tmp_path, extra=[f"--max-steps={max_steps}"])
    assert code == 2 and not out.exists()
    expected = {
        "status": "error", "kind": "bounds", "exit": 2,
        "detail": {"message": "--max-steps must be non-negative"},
    }
    assert capsys.readouterr().out == reference_dumps(expected)


def test_unreachable_budget_exits_3_before_the_first_step(tmp_path, capsys):
    # u = x^(10^20) needs 10^20 one-point steps and u = x_1, v = x_2^(10^12)
    # at least 10^12 two-point steps, both far past the default budget.  On
    # u = x_1 x_3^(10^12), v = x_2^(10^12) the large third column hides that
    # chain from the first bound (2); after one step the bound of the state
    # reached is 10^12, so the run stops there instead of spinning
    for n, presentation, steps, message in (
        (2, {"chart": 1, "form": "monomial_free", "u": [10**20], "v": [0]}, 0, "after 0 steps"),
        (3, {"chart": 1, "form": "monomial_pair", "u": [1, 0], "v": [0, 10**12]}, 0, "after 0 steps"),
        (
            4, {"chart": 1, "form": "monomial_pair", "u": [1, 0, 10**12], "v": [0, 10**12, 0]},
            1, "after 1 step",
        ),
    ):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({
            "version": 1, "n": n,
            "charts": [{"q_in_divisor": True}],
            "presentations": [presentation],
        }))
        assert main(["run", str(big), "-o", str(tmp_path / "t.json")]) == 3
        detail = {"message": f"locus still nonempty {message}", "round": 0, "steps": steps}
        expected = {"status": "error", "kind": "budget", "exit": 3, "detail": detail}
        assert capsys.readouterr().out == reference_dumps(expected)


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
        (
            _one_chart(True, {"chart": 1, "form": "monomial_pair", "u": [2, 0, 1], "v": [0, 3, 1]}, n=2),
            2, "schema",
            {"path": "$.presentations", "message": "presentation 0 needs 3 coordinates but n = 2"},
        ),
        (
            # 2.0 is read as the int 2, as a presentation's chart is
            _one_chart(
                True, {"chart": 1, "form": "monomial_pair", "u": [2, 0], "v": [0, 3]},
                followup_points=[{"charts": [{"q_in_divisor": True}, {"q_in_divisor": True}]}],
            ),
            2, "schema",
            {"path": "$.followup_points[0].charts", "message": "expected 1 charts, got 2"},
        ),
        (
            _one_chart(
                True, {"chart": 1, "form": "monomial_pair", "u": [2, 0], "v": [0, 3]},
                classification={"extra_branch_charts": [5]},
            ),
            2, "schema",
            {"path": "$.classification.extra_branch_charts[0]", "message": "chart 5 not declared (only 1)"},
        ),
        (
            # 2.0 is read as the int 2, as a presentation's chart is
            _one_chart(
                True, {"chart": 1, "form": "monomial_pair", "u": [2, 0], "v": [0, 3]},
                followup_points=[{
                    "charts": [{"q_in_divisor": True}],
                    "classification": {"extra_branch_charts": [1, 2.0]},
                }],
            ),
            2, "schema",
            {
                "path": "$.followup_points[0].classification.extra_branch_charts[1]",
                "message": "chart 2 not declared (only 1)",
            },
        ),
        (
            # the schema's integer rule takes 2.0, but a power is no chart:
            # power_unit refuses it by name
            _one_chart(
                True, {"chart": 1, "form": "power_unit", "base": [1], "power_u": 2.0, "power_v": 3}
            ),
            2, "schema",
            {"path": "$.presentations[0]", "message": "power_unit powers must be integers, got 2.0"},
        ),
    ],
    ids=[
        "pair_off_divisor", "transverse_on_divisor", "override_below_chart_branches",
        "columns_past_n", "followup_chart_count", "extra_branch_chart_undeclared",
        "followup_extra_branch_chart_undeclared", "power_as_float",
    ],
)
def test_chart_and_branch_errors_report(scenario, code, kind, detail, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "-o", str(tmp_path / "t.json")]) == code
    expected = {"status": "error", "kind": kind, "exit": code, "detail": detail}
    assert capsys.readouterr().out == reference_dumps(expected)


def test_integral_float_chart_runs_as_its_int(tmp_path, capsys):
    # The schema counts 1.0 as an integer, so a chart index spelled that way
    # must run, verify and search exactly as the int does.
    doc = json.loads((FIXTURES / "mixed_charts.json").read_text())
    floated = copy.deepcopy(doc)
    for p in floated["presentations"]:
        p["chart"] = float(p["chart"])
    assert any(p["chart"] == 2.0 for p in floated["presentations"])
    traces, reports = [], []
    for name, scenario in (("int", doc), ("float", floated)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / f"{name}.trace.json"
        assert main(["run", str(path), "-o", str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        capsys.readouterr()
        assert main(["oracle", str(path)]) == 0
        reports.append(capsys.readouterr().out)
        traces.append(json.loads(out.read_text()))
    # json.dumps tells 1.0 from 1, which == does not
    assert json.dumps(traces[1]["rounds"]) == json.dumps(traces[0]["rounds"])
    assert reports[1] == reports[0]


def test_integral_float_branch_override_runs_as_its_int(tmp_path, capsys):
    # An override value spelled 2.0 is the int 2, in the trace as elsewhere.
    doc = json.loads((FIXTURES / "euclid.json").read_text())
    rounds = []
    for name, value in (("int", 2), ("float", 2.0)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**doc, "classification": {"branch_overrides": {"5": value}}}))
        out = tmp_path / f"{name}.trace.json"
        assert main(["run", str(path), "-o", str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        rounds.append(json.dumps(json.loads(out.read_text())["rounds"]))
    capsys.readouterr()
    # json.dumps tells 2.0 from 2, which == does not
    assert rounds[1] == rounds[0]


@pytest.fixture(scope="module")
def fuzz_scenarios(tmp_path_factory):
    return [json.loads(f.read_text()) for f in ALL_FIXTURES], tmp_path_factory.mktemp("fuzz")


def _call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_node_scenario_edit_reports_through_run_and_oracle(fuzz_scenarios, data):
    # a trace that run writes is one that verify accepts
    scenarios, work = fuzz_scenarios
    doc = data.draw(one_node_edits(data.draw(st.sampled_from(scenarios))))
    path = work / "edited.json"
    path.write_text(json.dumps(doc))
    trace = str(work / "edited.trace.json")
    for argv in (["run", str(path), "-o", trace], ["oracle", str(path), "--depth", "8"]):
        code, out = _call(argv)
        assert code in (0, 2, 3, 4), (argv[0], code)
        assert isinstance(json.loads(out), dict)
        if argv[0] == "run" and code == 0:
            code, out = _call(["verify", trace])
            assert code == 0
            assert json.loads(out)["status"] == "ok"


def test_oracle_exits(tmp_path, capsys):
    assert main(["oracle", str(FIXTURES / "euclid.json"), "--depth", "32"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_terminate"] is True
    assert report["min_depth"] == 3 and report["max_depth"] == 3
    assert main(["oracle", str(FIXTURES / "euclid.json"), "--depth", "1"]) == 3
    assert main(["oracle", str(FIXTURES / "smooth.json"), "--depth", "2"]) == 0


@pytest.mark.parametrize("flag", ["--depth", "--max-entry", "--max-k"])
def test_oracle_nonpositive_bound_exits_2(flag, capsys):
    assert main(["oracle", str(FIXTURES / "euclid.json"), flag, "0"]) == 2
    expected = {
        "status": "error",
        "kind": "bounds",
        "exit": 2,
        "detail": {"message": "search bounds must be positive"},
    }
    assert capsys.readouterr().out == reference_dumps(expected)


def test_oracle_presentation_past_max_k_exits_2(capsys):
    assert main(["oracle", str(FIXTURES / "euclid.json"), "--max-k", "1"]) == 2
    expected = {
        "status": "error",
        "kind": "bounds",
        "exit": 2,
        "detail": {"message": "presentation exceeds max_k=1"},
    }
    assert capsys.readouterr().out == reference_dumps(expected)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_oracle_deeper_than_recursion_limit_exits_0(tmp_path, capsys):
    # The search keeps its own stack, so a path longer than the interpreter's
    # recursion limit allows is searched to the end.  A lowered limit keeps
    # the ladder short and fast.
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
    assert code == 0
    expected = {
        "status": "ok",
        "all_terminate": True,
        "min_depth": 600,
        "max_depth": 600,
        "states_explored": 600,
    }
    assert capsys.readouterr().out == reference_dumps(expected)


def test_verify_accepts_run_trace_of_five_column_pair(tmp_path, capsys):
    # at step 31, 17 parents at value 1 take the chart-wide (2-point max,
    # achiever count) from (1, 400) to (1, 405); each descendant's own
    # measure still drops
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


# -- usage errors and the shared parser ---------------------------------------------

EUCLID = str(FIXTURES / "euclid.json")
USAGE_ERRORS = [
    [],
    ["frobnicate"],
    ["run"],
    ["verify"],
    ["run", EUCLID, "--max-steps", "x"],
    ["run", EUCLID, "--format", "xml"],
    ["oracle", EUCLID, "--depth", "x"],
]


@pytest.mark.parametrize(
    "argv", USAGE_ERRORS, ids=lambda argv: " ".join(Path(a).name for a in argv) or "no-verb"
)
def test_usage_error_is_argparse_exit_2(argv, monkeypatch, capsys):
    # argparse wraps the usage line to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    stderrs = []
    for parse in (main, main, build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        stderrs.append(captured.err)
    # the shared parser, called twice, writes what a fresh parser writes
    assert stderrs[0].startswith("usage: toroidalize")
    assert stderrs[0] == stderrs[1] == stderrs[2]


def _cli_child(argv):
    src = str(Path(__file__).parent.parent / "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    child = subprocess.run(
        [sys.executable, "-B", "-m", "toroidalize.cli", *argv], capture_output=True, text=True, env=env
    )
    return child.returncode, child.stdout, child.stderr


def test_calls_on_the_shared_parser_match_one_process_per_call(tmp_path, monkeypatch, capsys):
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "80")
    trace = str(tmp_path / "euclid.trace.json")
    sequence = [
        ["run", EUCLID, "-o", trace],
        ["run", EUCLID, "--format", "xml"],
        ["verify", trace],
        ["oracle", EUCLID, "--depth", "32"],
        ["run", str(FIXTURES / "multi_round.json"), "-o", str(tmp_path / "mr.trace.json"), "--max-steps", "1"],
        ["verify", trace],
    ]
    codes = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _cli_child(argv), argv
        codes.append(code)
    assert codes == [0, 2, 0, 0, 3, 0]


def test_module_entry_point_exits_with_mains_code(monkeypatch, capsys):
    # ``python -m toroidalize.cli oracle euclid.json`` in one child process,
    # and the module run as ``__main__`` in this one
    child = _cli_child(["oracle", EUCLID])
    monkeypatch.setattr(sys, "argv", ["toroidalize", "oracle", EUCLID])
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
        # runpy warns that it runs a module this process has already imported
        warnings.simplefilter("ignore", RuntimeWarning)
        runpy.run_module("toroidalize.cli", run_name="__main__")
    captured = capsys.readouterr()
    assert child == (exc.value.code, captured.out, captured.err)
    assert child[0] == 0


# -- tamper detection -------------------------------------------------------------

@pytest.fixture
def euclid_trace(tmp_path):
    _, out = run_fixture("euclid.json", tmp_path)
    return json.loads(out.read_text())


def rewrite(tmp_path, doc):
    path = tmp_path / "tampered.trace.json"
    path.write_text(canonical_dumps(doc))
    return path


def test_verify_echoes_a_float_summary_count(euclid_trace, tmp_path, capsys):
    # the trace schema's "integer" accepts 1.0, so the trace verifies and the
    # float reaches stdout through the echoed summary
    doc = copy.deepcopy(euclid_trace)
    doc["summary"]["rounds"] = 1.0
    path = tmp_path / "float.trace.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == reference_dumps({"status": "ok", "summary": doc["summary"]})
    assert '"rounds": 1.0,' in out


def test_verify_detects_invariant_increase(euclid_trace, tmp_path, capsys):
    doc = copy.deepcopy(euclid_trace)
    doc["rounds"][0]["steps"][1]["after"]["two_point_max"] = 99
    assert main(["verify", str(rewrite(tmp_path, doc))]) == 5
    report = json.loads(capsys.readouterr().out)
    assert report["detail"]["invariant"] == "strict descent"
    assert report["detail"]["step"] == 1


def test_verify_detects_descendant_that_does_not_descend(euclid_trace, tmp_path, capsys):
    doc = copy.deepcopy(euclid_trace)
    round_doc = doc["rounds"][0]
    presentations = {item["id"]: item["presentation"] for item in round_doc["initial"]}
    for s in round_doc["steps"]:
        for desc in s["descendants"]:
            presentations[desc["id"]] = desc["presentation"]
    step, victim = next(
        (step, desc)
        for step in round_doc["steps"]
        for desc in step["descendants"]
        if not desc["principal"]
    )
    victim["presentation"] = copy.deepcopy(presentations[victim["parent"]])
    assert main(["verify", str(rewrite(tmp_path, doc))]) == 5
    report = json.loads(capsys.readouterr().out)
    assert report["detail"]["invariant"] == "strict descent"
    assert report["detail"]["step"] == step["index"]


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
    # the package ships exactly the two schemas, and no copy lives elsewhere
    package = Path(__file__).parent.parent / "src" / "toroidalize" / "schemas"
    names = sorted(p.name for p in package.iterdir())
    assert names == ["scenario.schema.json", "trace.schema.json"]
