import itertools
import json

from hypothesis import assume
from hypothesis import strategies as st

from toroidalize.forms import (
    FormError,
    monomial_free,
    monomial_pair,
    monomial_unit,
    nested,
    power_unit_from_rows,
    transverse,
    transverse_product,
    transverse_unit,
)
from toroidalize.scenario_io import check_schema
from toroidalize.verify import same_json, verify_trace


def reference_dumps(doc):
    """The canonical JSON specification: ``json``'s own indent encoder.
    ``scenario_io.canonical_dumps`` must write exactly this, so tests build
    expected output with it and never with the emitter under test."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def column_grid(max_entry, k):
    """All (u_row, v_row) pairs with entries <= max_entry, up to column order."""
    cols = list(itertools.product(range(max_entry + 1), repeat=2))
    for combo in itertools.combinations_with_replacement(cols, k):
        u = tuple(a for a, _ in combo)
        v = tuple(b for _, b in combo)
        yield u, v


def shape_grid(max_entry, max_k):
    """Every constructible presentation of every shape on chart 1: the three
    transverse shapes, then each row shape over ``column_grid`` for k <= max_k."""
    yield from (
        transverse(1), transverse_unit(1, False), transverse_unit(1, True), transverse_product(1)
    )
    for k in range(1, max_k + 1):
        for u, v in column_grid(max_entry, k):
            for make in (monomial_free, nested, monomial_unit, power_unit_from_rows, monomial_pair):
                try:
                    p = make(u, v, 1)
                except FormError:
                    continue
                yield p


def try_pair(u, v, chart=1):
    try:
        return monomial_pair(u, v, chart)
    except FormError:
        return None


def try_free(u, v, chart=1):
    try:
        return monomial_free(u, v, chart)
    except FormError:
        return None


# hypothesis strategies for valid presentations

@st.composite
def pair_presentations(draw, max_entry=6, max_k=4):
    k = draw(st.integers(2, max_k))
    u = tuple(draw(st.integers(0, max_entry)) for _ in range(k))
    v = tuple(draw(st.integers(0, max_entry)) for _ in range(k))
    p = try_pair(u, v)
    assume(p is not None)
    return p


@st.composite
def free_presentations(draw, max_entry=6, max_k=4):
    k = draw(st.integers(1, max_k))
    u = tuple(draw(st.integers(1, max_entry)) for _ in range(k))
    v = tuple(draw(st.integers(0, a)) for a in u)
    return monomial_free(u, v, 1)


def assert_verifies_as_written(trace):
    """``trace``, as the engine wrote it, passes the trace schema and
    ``verify_trace`` regenerates it byte for byte, which ``same_json`` sees.
    ``verify`` accepts a trace without the schema only on such a
    regeneration, so this property is what makes that sound."""
    check_schema(trace, "trace.schema.json")
    regenerated = verify_trace(trace)
    assert json.dumps(regenerated, sort_keys=True) == json.dumps(trace, sort_keys=True)
    assert same_json(regenerated, trace)
