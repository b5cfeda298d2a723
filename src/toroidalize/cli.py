"""Command-line front end: run, verify, oracle.

``run`` loads a scenario, drives the blowup sequence to an empty locus,
lifts every leaf through the base-point blowup, classifies the results,
and writes a canonical JSON trace.  ``verify`` re-validates a recorded
trace independently.  ``oracle`` explores every permissible blowup order
by brute force and reports the depth range.

Exit codes: 0 success, 2 schema/input error, 3 step or depth budget
exceeded, 4 classification failure, 5 verification failure.  Every
failure but a usage error writes a JSON report to stdout.  ``main`` alone
maps a raised failure (``SchemaError``, ``RoundError``,
``BoundExceededError``, ``VerificationError``) to its exit code and report;
the verbs write only the two ``"bounds"`` reports themselves.  A usage error
(no or an unknown verb, a missing or ill-typed argument) is argparse's:
``main`` raises ``SystemExit(2)`` with the usage line on stderr and writes
no report.

``main(argv)`` returns the exit code and can be called repeatedly in one
process: every call parses with the one parser that ``build_parser``
builds on the first call.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .oracle import BoundExceededError, SearchBound, exhaustive_search
from .scenario_io import (
    SchemaError,
    canonical_dumps,
    load_scenario,
    load_trace,
    read_trace,
    trace_doc,
    write_trace,
)
from .verify import RoundError, VerificationError, run_rounds, same_json, verify_trace

# Not called here: bench/tracing.py patches these names in this module.
from .descent import classify_scenario, reseed  # noqa: F401
from .principalize import default_budget, make_scenario, run  # noqa: F401
from .scenario_io import round_to_doc  # noqa: F401

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_BUDGET = 3
EXIT_CLASSIFY = 4
EXIT_VERIFY = 5


def render_text(trace: dict) -> str:
    """Step-by-step human-readable account of a trace."""
    lines = []
    for round_doc in trace["rounds"]:
        lines.append(f"== round {round_doc['round']} ==")
        for item in round_doc["initial"]:
            p = item["presentation"]
            tag = "principal" if item["principal"] else "active"
            lines.append(f"  p{item['id']} [{tag}] chart {p['chart']}: {_render_presentation(p)}")
        for step in round_doc["steps"]:
            sig = step["signature"]
            cols = " ".join(f"({a},{b})" for a, b in sig["columns"]) or "-"
            lines.append(
                f"  step {step['index']}: chart {step['chart']} {step['phase']} "
                f"center[{sig['class']} {cols}] value {step['value']} "
                f"(1pt {step['before']['one_point_max']}->{step['after']['one_point_max']}, "
                f"2pt {step['before']['two_point_max']}->{step['after']['two_point_max']})"
            )
            for desc in step["descendants"]:
                status = "principal" if desc["principal"] else "active"
                lines.append(
                    f"    p{desc['parent']} --{desc['point']}--> p{desc['id']} [{status}] "
                    f"{_render_presentation(desc['presentation'])}"
                )
        for leaf in round_doc["classification"]:
            lines.append(
                f"  leaf p{leaf['id']} chart {leaf['chart']}: {leaf['outcome']} "
                f"(image chart {leaf['surface_chart']}, divisor branches {leaf['e_branches']})"
            )
    s = trace["summary"]
    lines.append(f"done: {s['rounds']} round(s), {s['steps']} step(s), {s['leaves']} leaf/leaves")
    return "\n".join(lines) + "\n"


def _render_presentation(p: dict) -> str:
    form = p["form"]
    if form == "power_unit":
        return f"{form} base={p['base']} powers=({p['power_u']},{p['power_v']})"
    if form.startswith("transverse"):
        return form
    return f"{form} u={p['u']} v={p['v']}"


def _emit(doc: dict) -> None:
    sys.stdout.write(canonical_dumps(doc))


def _fail(code: int, kind: str, report: dict) -> int:
    _emit({"status": "error", "kind": kind, "exit": code, "detail": report})
    return code


def cmd_run(args: argparse.Namespace) -> int:
    if args.max_steps is not None and args.max_steps < 0:
        return _fail(EXIT_SCHEMA, "bounds", {"message": "--max-steps must be non-negative"})
    scenario, plans, doc = load_scenario(args.scenario)
    budgets = None if args.max_steps is None else [args.max_steps] * len(plans)
    trace = trace_doc(doc, list(run_rounds(scenario, plans, budgets)))
    out = Path(args.trace_out) if args.trace_out else Path(args.scenario).with_suffix(".trace.json")
    write_trace(trace, out)
    if args.format == "text":
        sys.stdout.write(render_text(trace))
    else:
        outcomes: dict[str, int] = {}
        for round_doc in trace["rounds"]:
            for leaf in round_doc["classification"]:
                outcomes[leaf["outcome"]] = outcomes.get(leaf["outcome"], 0) + 1
        _emit(
            {
                "status": "ok",
                "trace": str(out),
                "summary": trace["summary"],
                "outcomes": outcomes,
            }
        )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Accept a trace when the checks pass and its regeneration is
    ``same_json`` as the trace read (whose docstring says why the trace
    schema may then be skipped).  Only otherwise run the full trace
    schema, whose error is reported ahead of whatever the checks raised.
    """
    trace = read_trace(args.trace)
    try:
        regenerated = verify_trace(trace)
    except Exception:
        load_trace(args.trace)
        raise
    if not same_json(regenerated, trace):
        load_trace(args.trace)
    _emit({"status": "ok", "summary": trace["summary"]})
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    scenario, _, _ = load_scenario(args.scenario)
    presentations = [e.presentation for e in scenario.entries]
    try:
        bound = SearchBound(max_entry=args.max_entry, max_k=args.max_k, max_depth=args.depth)
        result = exhaustive_search(presentations, bound)
    except ValueError as exc:
        return _fail(EXIT_SCHEMA, "bounds", {"message": str(exc)})
    _emit(
        {
            "status": "ok",
            "all_terminate": True,
            "min_depth": result.min_depth,
            "max_depth": result.max_depth,
            "states_explored": result.states_explored,
        }
    )
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for all three verbs, built on the first call and shared
    by every later one; callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="toroidalize",
        description="Exact blowup sequences for monomial morphisms to a surface, with verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="principalize a scenario, lift, classify, emit a trace")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("-o", "--trace-out", help="trace output path (default: <scenario>.trace.json)")
    p_run.add_argument("--max-steps", type=int, default=None, help="per-round step budget")
    p_run.add_argument("--format", choices=["json", "text"], default="json")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="re-validate a recorded trace")
    p_verify.add_argument("trace", help="trace JSON file")
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="exhaustive search over all blowup orders")
    p_oracle.add_argument("scenario", help="scenario JSON file")
    p_oracle.add_argument("--depth", type=int, default=64, help="path length bound")
    p_oracle.add_argument("--max-entry", type=int, default=64, help="largest admissible exponent")
    p_oracle.add_argument("--max-k", type=int, default=16, help="largest admissible column count")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        return _fail(EXIT_SCHEMA, "schema", {"path": exc.path, "message": exc.reason})
    except RoundError as exc:
        detail = {"message": str(exc), "round": exc.round_index}
        if exc.stage == "budget":
            return _fail(EXIT_BUDGET, "budget", {**detail, "steps": exc.__cause__.steps})
        return _fail(EXIT_CLASSIFY, "classification", detail)
    except BoundExceededError as exc:
        return _fail(EXIT_BUDGET, "depth", {"message": str(exc), "path": [str(s) for s in exc.path]})
    except VerificationError as exc:
        return _fail(
            EXIT_VERIFY,
            "verification",
            {
                "invariant": exc.invariant,
                "round": exc.round_index,
                "step": exc.step_index,
                "message": str(exc),
            },
        )


if __name__ == "__main__":
    raise SystemExit(main())
