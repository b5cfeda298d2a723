"""Scenario and trace (de)serialization with canonical JSON.

Scenario files and traces are plain JSON validated against the schemas
packaged in ``toroidalize/schemas``.  Emission is canonical: sorted keys,
two-space indent, trailing newline, no timestamps, so identical runs
produce byte-identical files.  ``canonical_dumps`` writes exactly what
``json.dumps(doc, sort_keys=True, indent=2)`` does, without the pure-Python
encoder that ``json`` falls back to whenever ``indent`` is set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path

import jsonschema

from . import forms
from .descent import TEMPLATES, ClassifiedLeaf, own_branches
from .forms import Form, FormError, MonomialPresentation, check_chart
from .invariants import Snapshot
from .principalize import Scenario, TraceStep, make_scenario
from .transform import Center


class SchemaError(ValueError):
    """Input rejected before construction, with a field path diagnostic."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


@dataclass(frozen=True)
class RoundPlan:
    """Classification data for one base-point round."""

    charts: tuple[bool, ...]
    extra_branch_charts: frozenset[int] = frozenset()
    branch_overrides: tuple[tuple[int, int], ...] = ()


def _load_schema(name: str) -> dict:
    text = resources.files("toroidalize.schemas").joinpath(name).read_text()
    return json.loads(text)


@cache
def _validator(name: str) -> jsonschema.Draft202012Validator:
    return jsonschema.Draft202012Validator(_load_schema(name))


def check_schema(doc, schema_name: str) -> None:
    errors = sorted(
        _validator(schema_name).iter_errors(doc), key=lambda e: (len(e.absolute_path), str(e.absolute_path))
    )
    if errors:
        err = errors[-1]
        path = "$" + "".join(
            f"[{part}]" if isinstance(part, int) else f".{part}" for part in err.absolute_path
        )
        raise SchemaError(path, err.message)


def canonical_dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    ``json`` takes its C encoder only without ``indent``, so dicts, lists,
    strings, ints, bools and None are written here; any other node (a
    float, a tuple) is handed to that ``json.dumps`` call on its own.
    Dict keys must be strings, as in every parsed JSON document.
    """
    chunks: list[str] = []
    append = chunks.append
    # per depth: (newline + indent, {key: '{' head}, {key: ',' head}); a
    # repeated key appends one shared string
    levels: list[tuple[str, dict, dict]] = [("\n", {}, {})]

    def emit(o, depth: int) -> None:
        t = type(o)
        if t is str:
            append(encode_basestring_ascii(o))
        elif t is int:
            append(int.__repr__(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif not (t is dict or t is list):
            append(json.dumps(o, sort_keys=True, indent=2).replace("\n", levels[depth][0]))
        elif not o:
            append("{}" if t is dict else "[]")
        else:
            try:
                inner, firsts, rests = levels[depth + 1]
            except IndexError:
                levels.append(("\n" + "  " * (depth + 1), {}, {}))
                inner, firsts, rests = levels[depth + 1]
            if t is dict:
                heads = firsts
                for key in sorted(o):
                    try:
                        append(heads[key])
                    except KeyError:
                        opener = "{" if heads is firsts else ","
                        append(heads.setdefault(key, opener + inner + encode_basestring_ascii(key) + ": "))
                    emit(o[key], depth + 1)
                    heads = rests
            else:
                for x in o:
                    if type(x) is not int:
                        sep, rest = "[" + inner, "," + inner
                        for item in o:
                            append(sep)
                            emit(item, depth + 1)
                            sep = rest
                        break
                else:  # only plain ints (no bools): one join
                    append("[" + inner + ("," + inner).join(map(int.__repr__, o)))
            append(levels[depth][0] + ("}" if t is dict else "]"))

    emit(doc, 0)
    append("\n")
    return "".join(chunks)


# -- presentations ---------------------------------------------------------------

def presentation_to_doc(p: MonomialPresentation) -> dict:
    doc: dict = {"form": p.form.value, "chart": p.chart_index}
    if p.form is Form.POWER_UNIT:
        doc["base"] = list(p.base)
        doc["power_u"] = p.power_u
        doc["power_v"] = p.power_v
    elif p.form is Form.TRANSVERSE_UNIT:
        doc["alpha_nonzero"] = p.alpha_nonzero
    elif p.form not in (Form.TRANSVERSE, Form.TRANSVERSE_PRODUCT):
        doc["u"] = list(p.u_row)
        doc["v"] = list(p.v_row)
    return doc


# Shapes stored as their two exponent rows.
_ROW_FORMS = {
    Form.MONOMIAL_FREE: forms.monomial_free,
    Form.NESTED: forms.nested,
    Form.MONOMIAL_UNIT: forms.monomial_unit,
    Form.MONOMIAL_PAIR: forms.monomial_pair,
}


def presentation_from_doc(doc: dict, charts: tuple[bool, ...], path: str) -> MonomialPresentation:
    chart = doc["chart"]
    if chart > len(charts):
        raise SchemaError(f"{path}.chart", f"chart {chart} not declared (only {len(charts)})")
    form = Form(doc["form"])
    try:
        if form is Form.POWER_UNIT:
            p = forms.power_unit(doc["base"], doc["power_u"], doc["power_v"], chart)
        elif form is Form.TRANSVERSE:
            p = forms.transverse(chart)
        elif form is Form.TRANSVERSE_UNIT:
            p = forms.transverse_unit(chart, doc.get("alpha_nonzero", False))
        elif form is Form.TRANSVERSE_PRODUCT:
            p = forms.transverse_product(chart)
        else:
            p = _ROW_FORMS[form](tuple(doc["u"]), tuple(doc["v"]), chart)
        # After construction, so a malformed shape is reported first.
        check_chart(form, charts[chart - 1])
    except FormError as exc:
        raise SchemaError(path, str(exc)) from exc
    return p


# -- scenario files ----------------------------------------------------------------

def _charts_from_doc(doc) -> tuple[bool, ...]:
    return tuple(entry["q_in_divisor"] for entry in doc)


def _plan_from_doc(charts: tuple[bool, ...], doc: dict | None) -> RoundPlan:
    doc = doc or {}
    return RoundPlan(
        charts=charts,
        extra_branch_charts=frozenset(doc.get("extra_branch_charts", [])),
        branch_overrides=tuple(
            sorted((int(k), v) for k, v in doc.get("branch_overrides", {}).items())
        ),
    )


def _read_json(path: str | Path, what: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError("$", f"cannot read {what} file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"$ (line {exc.lineno})", f"invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise SchemaError("$", "invalid JSON: nested deeper than the parser allows") from exc


def load_scenario_doc(path: str | Path) -> dict:
    doc = _read_json(path, "scenario")
    check_schema(doc, "scenario.schema.json")
    return doc


def scenario_from_doc(doc: dict) -> tuple[Scenario, list[RoundPlan]]:
    """Build the round-0 scenario plus per-round classification plans."""
    charts = _charts_from_doc(doc["charts"])
    presentations = [
        presentation_from_doc(p, charts, f"$.presentations[{i}]")
        for i, p in enumerate(doc["presentations"])
    ]
    try:
        scenario = make_scenario(doc["n"], charts, presentations)
    except FormError as exc:
        raise SchemaError("$.presentations", str(exc)) from exc
    plans = [_plan_from_doc(charts, doc.get("classification"))]
    for i, followup in enumerate(doc.get("followup_points", [])):
        next_charts = _charts_from_doc(followup["charts"])
        if len(next_charts) != len(charts):
            raise SchemaError(
                f"$.followup_points[{i}].charts",
                f"expected {len(charts)} charts, got {len(next_charts)}",
            )
        plans.append(_plan_from_doc(next_charts, followup.get("classification")))
    return scenario, plans


def load_scenario(path: str | Path) -> tuple[Scenario, list[RoundPlan], dict]:
    doc = load_scenario_doc(path)
    scenario, plans = scenario_from_doc(doc)
    return scenario, plans, doc


# -- traces ------------------------------------------------------------------------

def center_to_doc(c: Center) -> dict:
    return {"kind": "free" if c.j is None else "pair", "i": c.i, "j": c.j}


def signature_to_doc(signature: tuple) -> dict:
    return {"class": signature[1], "columns": [list(col) for col in signature[2]]}


def snapshot_to_doc(s: Snapshot) -> dict:
    return {
        "one_point_max": s.one_point_max,
        "one_point_achievers": s.one_point_achievers,
        "two_point_max": s.two_point_max,
        "two_point_achievers": s.two_point_achievers,
        "center_count": s.center_count,
    }


def step_to_doc(index: int, step: TraceStep) -> dict:
    return {
        "index": index,
        "chart": step.chart_index,
        "phase": step.phase.value,
        "signature": signature_to_doc(step.signature),
        "value": step.value,
        "parents": [{"id": pid, "center": center_to_doc(c)} for pid, c in step.parents],
        "descendants": [
            {
                "id": e.id,
                "parent": e.parent,
                "point": e.point.value,
                "principal": not e.active,
                "presentation": presentation_to_doc(e.presentation),
            }
            for e in step.descendants
        ],
        "before": snapshot_to_doc(step.before),
        "after": snapshot_to_doc(step.after),
    }


def template_to_doc(template: MonomialPresentation | None) -> dict | None:
    if template is None:
        return None
    doc = presentation_to_doc(template)
    del doc["form"], doc["chart"]
    if template.form is Form.MONOMIAL_FREE:
        # v = y, the fresh coordinate, whose row is all zero
        doc = {"row": doc["u"]}
    return {"kind": TEMPLATES[template.form][0], **doc}


def leaf_to_doc(leaf: ClassifiedLeaf) -> dict:
    lifted, template = leaf.lifted, leaf.template
    return {
        "id": leaf.source_id,
        "chart": lifted.presentation.chart_index,
        "outcome": TEMPLATES[template.form][0] if template else "smooth",
        "surface_chart": lifted.surface_chart.value,
        "own_branches": own_branches(lifted.presentation),
        "e_branches": leaf.e_branches,
        "template": template_to_doc(template),
        "note": lifted.note,
    }


def round_to_doc(
    round_index: int,
    initial: Scenario,
    final: Scenario,
    leaves: list[ClassifiedLeaf],
) -> dict:
    return {
        "round": round_index,
        "charts": list(initial.charts),
        "initial": [
            {
                "id": e.id,
                "principal": not e.active,
                "presentation": presentation_to_doc(e.presentation),
            }
            for e in initial.entries
        ],
        "steps": [step_to_doc(i, s) for i, s in enumerate(final.history)],
        "leaves": [
            {"id": e.id, "presentation": presentation_to_doc(e.presentation)}
            for e in final.entries
        ],
        "classification": [leaf_to_doc(leaf) for leaf in leaves],
    }


def trace_doc(scenario_doc: dict, rounds: list[dict]) -> dict:
    return {
        "version": 1,
        "scenario": scenario_doc,
        "rounds": rounds,
        "summary": {
            "rounds": len(rounds),
            "steps": sum(len(r["steps"]) for r in rounds),
            "leaves": sum(len(r["leaves"]) for r in rounds),
        },
    }


def read_trace(path: str | Path) -> dict:
    """Parse a trace file without checking it against the trace schema."""
    return _read_json(path, "trace")


def load_trace(path: str | Path) -> dict:
    doc = read_trace(path)
    check_schema(doc, "trace.schema.json")
    return doc


def write_trace(doc: dict, path: str | Path) -> None:
    Path(path).write_text(canonical_dumps(doc))
