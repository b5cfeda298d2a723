"""The value types are NamedTuples: every way of building a validated one
still validates, none of them (nor ``Scenario``) takes an assignment or a
deletion, and importing the CLI pulls in none of the modules
``dataclasses`` needs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from toroidalize.descent import classify_scenario, lift
from toroidalize.forms import (
    Form,
    FormError,
    MonomialPresentation,
    monomial_free,
    monomial_pair,
)
from toroidalize.invariants import summarize
from toroidalize.oracle import RawPoint, SearchBound, exhaustive_search
from toroidalize.principalize import make_scenario, run
from toroidalize.scenario_io import RoundPlan
from toroidalize.transform import Center, blowup

SRC = Path(__file__).resolve().parent.parent / "src"

# Imported by ``dataclasses`` (and by ``importlib.resources`` for the
# schemas); none of them is needed to run the CLI.
HEAVY = ("dataclasses", "inspect", "ast", "dis", "importlib.resources")


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no_site"])
def test_cli_import_adds_no_heavy_module(flags):
    # Diff the module sets, so whatever ``site`` preloads does not count;
    # without ``site`` (``-S``) nothing is preloaded at all.
    code = (
        "import sys; before = set(sys.modules); import toroidalize.cli; "
        "print(toroidalize.cli.__file__); print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert Path(out[0]).resolve().parent == SRC / "toroidalize"
    added = out[1].split()
    assert "toroidalize.scenario_io" in added
    assert [name for name in HEAVY if name in added] == []


def _error(build):
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


PAIR = monomial_pair((2, 0), (0, 2), 1)

# (the constructor call, the same fields through _make or _replace)
SAME_ERRORS = {
    "replace_u_row": (
        lambda: MonomialPresentation(Form.MONOMIAL_PAIR, 1, (-1, 0), (0, 2)),
        lambda: PAIR._replace(u_row=(-1, 0)),
    ),
    "replace_chart": (
        lambda: MonomialPresentation(Form.MONOMIAL_PAIR, 0, (2, 0), (0, 2)),
        lambda: PAIR._replace(chart_index=0),
    ),
    "replace_form": (
        lambda: MonomialPresentation(Form.NESTED, 1, (2, 0), (0, 2)),
        lambda: PAIR._replace(form=Form.NESTED),
    ),
    "make_presentation": (
        lambda: MonomialPresentation(Form.NESTED, 1, (2, 1), (2, 1), False),
        lambda: MonomialPresentation._make((Form.NESTED, 1, (2, 1), (2, 1), False)),
    ),
    "make_center": (lambda: Center(0), lambda: Center._make((0, None))),
    "replace_center": (lambda: Center(1, 1), lambda: Center(1, 2)._replace(j=1)),
    "make_bound": (lambda: SearchBound(0, 1, 1), lambda: SearchBound._make((0, 1, 1))),
    "replace_bound": (
        lambda: SearchBound(1, 1, 0),
        lambda: SearchBound(1, 1, 1)._replace(max_depth=0),
    ),
}


@pytest.mark.parametrize("name", SAME_ERRORS)
def test_make_and_replace_validate_like_the_constructor(name):
    direct, other = SAME_ERRORS[name]
    assert _error(other) == _error(direct)


def test_validation_messages():
    assert _error(SAME_ERRORS["replace_u_row"][1]) == (
        FormError, "u_row entries must be non-negative integers, got -1"
    )
    assert _error(SAME_ERRORS["make_center"][1]) == (FormError, "center index must be >= 1")
    assert _error(SAME_ERRORS["make_bound"][0]) == (ValueError, "search bounds must be positive")


def test_make_and_replace_build_valid_values():
    assert PAIR._replace(chart_index=2) == monomial_pair((2, 0), (0, 2), 2)
    assert type(PAIR._replace(chart_index=2)) is MonomialPresentation
    assert Center._make((1, 2)) == Center(1, 2)
    assert SearchBound(1, 2, 3)._replace(max_k=5) == SearchBound(1, 5, 3)


def test_a_value_type_is_not_a_row():
    # A Center is a tuple of ints, but not an exponent row.
    with pytest.raises(FormError, match="u_row must be a tuple, got Center"):
        MonomialPresentation(Form.MONOMIAL_PAIR, 1, Center(1, 2), (0, 1))


def _values():
    """One instance of every value type, and a Scenario."""
    p = monomial_free((2,), (0,), 1)
    scenario = make_scenario(2, (True,), [p])
    final = run(scenario, 8)
    leaf = classify_scenario(final)[0]
    record = scenario.locus()[0]
    return {
        "MonomialPresentation": p,
        "Center": record.center,
        "DescendantSet": blowup(p, record.center),
        "CenterRecord": record,
        "Snapshot": summarize(scenario.locus()),
        "Entry": final.entries[0],
        "TraceStep": final.history[0],
        "LiftedPresentation": lift(final.entries[0].presentation),
        "ClassifiedLeaf": leaf,
        "RoundPlan": RoundPlan(charts=(True,)),
        "RawPoint": RawPoint(1, ((2, 0),), True),
        "SearchBound": SearchBound(4, 4, 4),
        "SearchResult": exhaustive_search([p], SearchBound(4, 4, 4)),
        "Scenario": final,
    }


@pytest.mark.parametrize("name", list(_values()))
def test_no_value_type_takes_an_assignment_or_a_deletion(name):
    value = _values()[name]
    assert type(value).__name__ == name
    field = next(iter(getattr(value, "_fields", ["n"])))
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.extra = 0
    with pytest.raises(AttributeError):
        delattr(value, field)
