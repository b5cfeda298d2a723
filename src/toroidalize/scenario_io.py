"""Scenario and trace (de)serialization with canonical JSON.

Scenario files and traces are plain JSON validated against the schemas
packaged in ``toroidalize/schemas``, read from the directory next to this
module.  The validator is this module's own: it implements the Draft
2020-12 keywords those two schemas use, refuses any other, and reports the
path and message that jsonschema's ``Draft202012Validator`` would, so the
package has no runtime dependency.

Emission is canonical: sorted keys, two-space indent, trailing newline, no
timestamps, so identical runs produce byte-identical files.
``canonical_dumps`` writes exactly what
``json.dumps(doc, sort_keys=True, indent=2)`` does, without the pure-Python
encoder that ``json`` falls back to whenever ``indent`` is set.
"""

from __future__ import annotations

import json
import os
import re
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple

from . import forms
from .descent import TEMPLATES, ClassifiedLeaf, own_branches
from .forms import Form, FormError, MonomialPresentation, check_chart
from .principalize import Scenario, TraceStep, make_scenario
from .transform import Center


class SchemaError(ValueError):
    """Input rejected before construction, with a field path diagnostic."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


class RoundPlan(NamedTuple):
    """Classification data for one base-point round."""

    charts: tuple[bool, ...]
    extra_branch_charts: frozenset[int] = frozenset()
    branch_overrides: tuple[tuple[int, int], ...] = ()


# -- schema validation -------------------------------------------------------------
#
# Errors are (path, message) pairs in the order, and with the text, of
# jsonschema's ``Draft202012Validator.iter_errors``.

_Errors = list[tuple[tuple, str]]  # or an empty tuple, when there are none

# Keywords that never reject an instance; ``$defs`` is compiled for ``$ref``.
_ANNOTATIONS = frozenset({"$schema", "$id", "title", "$defs"})


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": _is_number,
    # 1.0 is an integer, True is not
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
}


def _equal(a, b) -> bool:
    """JSON equality: a bool equals only itself, not 1 or 0."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return len(a) == len(b) and all(k in b and _equal(x, b[k]) for k, x in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _in_turn(checks: list[Callable[[object], _Errors]]) -> Callable[[object], _Errors]:
    """One check that runs ``checks`` in order and joins their errors."""
    if len(checks) == 1:
        return checks[0]

    def check(instance):
        errors = []
        for each in checks:
            errors += each(instance)
        return errors

    return check


class _Validator:
    """A schema compiled into one check per keyword, run in schema order.

    ``errors(doc)`` lists each error's (path, message).  A keyword outside
    the implemented set raises ``ValueError`` here, so a schema edit cannot
    be skipped silently.  Checks return lists, not generators, which is
    faster on large valid traces, where nearly every check finds nothing.
    """

    def __init__(self, schema: dict) -> None:
        defs = schema.get("$defs", {})
        self._defs: dict[str, Callable[[object], _Errors]] = dict.fromkeys(defs)
        self._defs.update((name, self._compile(sub)) for name, sub in defs.items())
        self.errors = self._compile(schema)

    def _compile(self, schema) -> Callable[[object], _Errors]:
        if schema is True:
            return lambda instance: ()
        if not isinstance(schema, dict):
            raise ValueError(f"unsupported schema {schema!r}")
        checks = []
        for key, value in schema.items():
            if key in _ANNOTATIONS or (key == "then" and "if" in schema):
                continue
            keyword = self._KEYWORDS.get(key)
            if keyword is None:
                raise ValueError(f"unsupported schema keyword {key!r}")
            checks.append(keyword(self, value, schema))
        return _in_turn(checks)

    def _type(self, types, schema):
        names = [types] if isinstance(types, str) else types
        tests = [_TYPES[name] for name in names]
        expected = ", ".join(map(repr, names))

        def check(instance):
            for test in tests:
                if test(instance):
                    return ()
            return [((), f"{instance!r} is not of type {expected}")]

        return check

    def _const(self, const, schema):
        def check(instance):
            if _equal(instance, const):
                return ()
            return [((), f"{const!r} was expected")]

        return check

    def _enum(self, enums, schema):
        def check(instance):
            for each in enums:
                if _equal(each, instance):
                    return ()
            return [((), f"{instance!r} is not one of {enums!r}")]

        return check

    def _minimum(self, minimum, schema):
        def check(instance):
            if _is_number(instance) and instance < minimum:
                return [((), f"{instance!r} is less than the minimum of {minimum!r}")]
            return ()

        return check

    def _maximum(self, maximum, schema):
        def check(instance):
            if _is_number(instance) and instance > maximum:
                return [((), f"{instance!r} is greater than the maximum of {maximum!r}")]
            return ()

        return check

    def _min_items(self, least, schema):
        message = "should be non-empty" if least == 1 else "is too short"

        def check(instance):
            if isinstance(instance, list) and len(instance) < least:
                return [((), f"{instance!r} {message}")]
            return ()

        return check

    def _max_items(self, most, schema):
        message = "is expected to be empty" if most == 0 else "is too long"

        def check(instance):
            if isinstance(instance, list) and len(instance) > most:
                return [((), f"{instance!r} {message}")]
            return ()

        return check

    def _items(self, items, schema):
        item_check = self._compile(items)

        def check(instance):
            if not isinstance(instance, list):
                return ()
            errors = []
            for index, item in enumerate(instance):
                for path, message in item_check(item):
                    errors.append(((index, *path), message))
            return errors

        return check

    def _properties(self, properties, schema):
        checks = [(name, self._compile(sub)) for name, sub in properties.items()]

        def check(instance):
            if not isinstance(instance, dict):
                return ()
            errors = []
            for name, property_check in checks:
                if name in instance:
                    for path, message in property_check(instance[name]):
                        errors.append(((name, *path), message))
            return errors

        return check

    def _pattern_properties(self, patterns, schema):
        checks = [(re.compile(pattern).search, self._compile(sub)) for pattern, sub in patterns.items()]

        def check(instance):
            if not isinstance(instance, dict):
                return ()
            errors = []
            for search, property_check in checks:
                for name, value in instance.items():
                    if search(name):
                        for path, message in property_check(value):
                            errors.append(((name, *path), message))
            return errors

        return check

    def _required(self, required, schema):
        def check(instance):
            if not isinstance(instance, dict):
                return ()
            return [((), f"{name!r} is a required property") for name in required if name not in instance]

        return check

    def _additional_properties(self, allowed, schema):
        if allowed is not False:
            raise ValueError(f"unsupported additionalProperties {allowed!r}, only false")
        known = schema.get("properties", {})
        patterns = "|".join(schema.get("patternProperties", {}))
        search = re.compile(patterns).search if patterns else lambda name: None
        if "patternProperties" in schema:
            regexes = ", ".join(map(repr, sorted(schema["patternProperties"])))

            def report(extras):
                verb = "does" if len(extras) == 1 else "do"
                return f"{', '.join(map(repr, extras))} {verb} not match any of the regexes: {regexes}"
        else:

            def report(extras):
                verb = "was" if len(extras) == 1 else "were"
                return f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)"

        def check(instance):
            if not isinstance(instance, dict):
                return ()
            extras = [name for name in instance if name not in known and not search(name)]
            return [((), report(sorted(extras)))] if extras else ()

        return check

    def _ref(self, ref, schema):
        name = ref.removeprefix("#/$defs/")
        if name == ref or name not in self._defs:
            raise ValueError(f"unsupported $ref {ref!r}")
        defs = self._defs

        def check(instance):
            return defs[name](instance)

        return check

    def _all_of(self, subschemas, schema):
        return _in_turn([self._compile(sub) for sub in subschemas])

    def _if(self, condition, schema):
        test = self._compile(condition)
        then = self._compile(schema.get("then", True))

        def check(instance):
            return () if test(instance) else then(instance)

        return check

    def _one_of(self, subschemas, schema):
        checks = [(sub, self._compile(sub)) for sub in subschemas]

        def check(instance):
            valid = [sub for sub, sub_check in checks if not sub_check(instance)]
            if not valid:
                return [((), f"{instance!r} is not valid under any of the given schemas")]
            if len(valid) > 1:
                # jsonschema names the later matches first, then the first one
                listed = ", ".join(map(repr, valid[1:] + valid[:1]))
                return [((), f"{instance!r} is valid under each of {listed}")]
            return ()

        return check

    _KEYWORDS = {
        "type": _type,
        "const": _const,
        "enum": _enum,
        "minimum": _minimum,
        "maximum": _maximum,
        "minItems": _min_items,
        "maxItems": _max_items,
        "items": _items,
        "properties": _properties,
        "patternProperties": _pattern_properties,
        "required": _required,
        "additionalProperties": _additional_properties,
        "$ref": _ref,
        "allOf": _all_of,
        "if": _if,
        "oneOf": _one_of,
    }


def _load_schema(name: str) -> dict:
    return json.loads((Path(__file__).parent / "schemas" / name).read_text())


@cache
def _validator(name: str) -> _Validator:
    return _Validator(_load_schema(name))


def check_schema(doc, schema_name: str) -> None:
    """Raise ``SchemaError`` for the deepest error in ``doc``; among equally
    deep paths, for the one whose ``str(list(path))`` sorts last (``u[1]``
    beats ``u[10]``), and at one path for the last in iteration order."""
    errors = sorted(
        _validator(schema_name).errors(doc), key=lambda e: (len(e[0]), str(list(e[0])))
    )
    if errors:
        path, message = errors[-1]
        raise SchemaError(
            "$" + "".join(f"[{part}]" if isinstance(part, int) else f".{part}" for part in path),
            message,
        )


# With a sink, ``canonical_dumps`` hands its buffered chunks on once there
# are this many, about 32 KB of trace text.  The chunks, their join and the
# file's encoded copy of it then take about 0.17 MB; 8,192 chunks would take
# 0.64 MB, nearly half of a 1.4 MB trace.
FLUSH_CHUNKS = 2048


def canonical_dumps(doc, write: Callable[[str], object] | None = None) -> str | None:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    ``json`` takes its C encoder only without ``indent``, so dicts, lists,
    strings, ints, bools and None are written here; any other node (a
    float, a tuple) is handed to that ``json.dumps`` call on its own.
    Dict keys must be strings, as in every parsed JSON document.

    Without ``write`` the text is returned.  With it (a text file's
    ``write``, say), the same text is passed to ``write`` in pieces and
    ``None`` is returned: the buffered chunks are joined and handed on
    whenever there are at least ``FLUSH_CHUNKS`` of them at the boundary
    between two elements of a list that holds more than ints, and once
    more at the end.  So memory stays bounded by the largest list element
    rather than by the whole text.  An error (a ``ValueError`` for an int
    past the interpreter's digit limit) may come after some pieces were
    written.
    """
    chunks: list[str] = []
    append = chunks.append
    limit = FLUSH_CHUNKS if write is not None else sys.maxsize
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
                            if len(chunks) >= limit:
                                write("".join(chunks))
                                chunks.clear()
                            append(sep)
                            emit(item, depth + 1)
                            sep = rest
                        break
                else:  # only plain ints (no bools): one join
                    append("[" + inner + ("," + inner).join(map(int.__repr__, o)))
            append(levels[depth][0] + ("}" if t is dict else "]"))

    emit(doc, 0)
    append("\n")
    if write is None:
        return "".join(chunks)
    write("".join(chunks))
    return None


# -- presentations ---------------------------------------------------------------

def presentation_to_doc(p: MonomialPresentation) -> dict:
    form, chart, u_row, v_row, alpha_nonzero = p
    # ``_value_`` is the member's value as a plain attribute; ``.value``
    # goes through a Python-level descriptor.
    doc: dict = {"form": form._value_, "chart": chart}
    if form is Form.POWER_UNIT:
        doc["base"] = list(p.base)
        doc["power_u"] = p.power_u
        doc["power_v"] = p.power_v
    elif form is Form.TRANSVERSE_UNIT:
        doc["alpha_nonzero"] = alpha_nonzero
    elif form not in (Form.TRANSVERSE, Form.TRANSVERSE_PRODUCT):
        doc["u"] = list(u_row)
        doc["v"] = list(v_row)
    return doc


# A dict lookup hashes in C; ``Form(name)`` goes through ``EnumType.__call__``.
_FORMS = {form._value_: form for form in Form}


def _chart_from_doc(value, charts: tuple[bool, ...], path: str) -> int:
    # A plain int passes on one test; any other value takes the schema's rule,
    # which reads an integral float such as 1.0 as the int it names.
    if type(value) is not int:
        if not _TYPES["integer"](value):
            raise SchemaError(path, f"{value!r} is not of type 'integer'")
        value = int(value)
    if value > len(charts):
        raise SchemaError(path, f"chart {value} not declared (only {len(charts)})")
    return value


def presentation_from_doc(doc: dict, charts: tuple[bool, ...], path: str) -> MonomialPresentation:
    chart = _chart_from_doc(doc["chart"], charts, f"{path}.chart")
    try:
        form = _FORMS[doc["form"]]
    except (KeyError, TypeError):  # ``Form`` raises its own ValueError for an unknown name
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
        else:  # a shape stored as its two exponent rows
            p = MonomialPresentation(
                form, chart, tuple(doc["u"]), tuple(doc["v"]), form is Form.MONOMIAL_UNIT
            )
        # After construction, so a malformed shape is reported first.
        check_chart(form, charts[chart - 1])
    except FormError as exc:
        raise SchemaError(path, str(exc)) from exc
    return p


# -- scenario files ----------------------------------------------------------------

def _charts_from_doc(doc) -> tuple[bool, ...]:
    return tuple(entry["q_in_divisor"] for entry in doc)


def _plan_from_doc(charts: tuple[bool, ...], parent: dict, path: str) -> RoundPlan:
    doc = parent.get("classification", {})
    return RoundPlan(
        charts=charts,
        extra_branch_charts=frozenset(
            _chart_from_doc(c, charts, f"{path}.classification.extra_branch_charts[{k}]")
            for k, c in enumerate(doc.get("extra_branch_charts", []))
        ),
        branch_overrides=tuple(
            sorted((int(k), int(v)) for k, v in doc.get("branch_overrides", {}).items())
        ),
    )


def _read_json(path: str | Path, what: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise SchemaError("$", f"cannot read {what} file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"$ (line {exc.lineno})", f"invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, or an int past the interpreter's digit limit
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
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
    plans = [_plan_from_doc(charts, doc, "$")]
    for i, followup in enumerate(doc.get("followup_points", [])):
        next_charts = _charts_from_doc(followup["charts"])
        if len(next_charts) != len(charts):
            raise SchemaError(
                f"$.followup_points[{i}].charts",
                f"expected {len(charts)} charts, got {len(next_charts)}",
            )
        plans.append(_plan_from_doc(next_charts, followup, f"$.followup_points[{i}]"))
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


# The trace's name for the phase of a step, by its signature's class.
_PHASE_NAMES = {"transverse": "transverse", "free": "one_point", "pair": "two_point"}


def step_to_doc(index: int, step: TraceStep) -> dict:
    return {
        "index": index,
        "chart": step.signature[0],
        "phase": _PHASE_NAMES[step.signature[1]],
        "signature": signature_to_doc(step.signature),
        "value": step.value,
        "parents": [{"id": pid, "center": center_to_doc(c)} for pid, c in step.parents],
        "descendants": [
            {
                "id": pid,
                "parent": parent,
                "point": point._value_,
                "principal": not active,
                "presentation": presentation_to_doc(presentation),
            }
            for pid, presentation, active, parent, point in step.descendants
        ],
        "before": step.before._asdict(),
        "after": step.after._asdict(),
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
    """One round's trace document.  ``final`` is ``run``'s result from
    ``initial``, so each of its entries is an initial entry or a step's
    descendant, and its leaf shares that item's presentation document."""
    initial_docs = [
        {
            "id": e.id,
            "principal": not e.active,
            "presentation": presentation_to_doc(e.presentation),
        }
        for e in initial.entries
    ]
    steps = [step_to_doc(i, s) for i, s in enumerate(final.history)]
    presentations = {item["id"]: item["presentation"] for item in initial_docs}
    for step in steps:
        for item in step["descendants"]:
            presentations[item["id"]] = item["presentation"]
    return {
        "round": round_index,
        "charts": list(initial.charts),
        "initial": initial_docs,
        "steps": steps,
        "leaves": [{"id": e.id, "presentation": presentations[e.id]} for e in final.entries],
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
    """Stream ``canonical_dumps(doc)`` into the file at ``path``.

    The text goes straight to ``path``, never whole in memory.  Failure
    rule: if ``open`` fails, nothing is written; on any error after it
    (an int past the digit limit, a full disk, an interrupt) the file is
    closed and removed, even one that existed before the call, so a
    failed write leaves no partial trace unless the directory forbids the
    removal.  The error is raised again; an ``OSError`` or ``ValueError``
    as ``SchemaError`` with the error's own text (which, for a path that
    cannot be opened, names it).
    """
    try:
        f = open(path, "w")
        try:
            with f:
                canonical_dumps(doc, f.write)
        except BaseException:
            try:
                os.unlink(path)
            except OSError:
                pass
            raise
    except (OSError, ValueError) as exc:  # ValueError: an int past the digit limit
        raise SchemaError("$", f"cannot write trace file: {exc}") from exc
