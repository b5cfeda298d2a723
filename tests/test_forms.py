import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toroidalize import descent, forms, transform
from toroidalize.forms import (
    DIVISORIAL_FORMS,
    Form,
    FormError,
    MonomialPresentation,
    check_chart,
    divides,
    is_principal,
    monomial_free,
    monomial_pair,
    monomial_unit,
    nested,
    power_unit,
    power_unit_from_rows,
    row_rank,
    transverse,
    transverse_product,
    transverse_unit,
    validate_row,
)
from toroidalize.oracle import oracle_principal, oracle_rank
from toroidalize.principalize import make_scenario

from conftest import column_grid, shape_grid, try_pair


# -- construction validation ---------------------------------------------------

def test_monomial_free_requires_divisibility():
    with pytest.raises(FormError):
        monomial_free((2, 1), (1, 2), 1)


def test_monomial_free_requires_positive_u():
    with pytest.raises(FormError):
        monomial_free((2, 0), (1, 0), 1)


def test_nested_requires_strictness():
    with pytest.raises(FormError):
        nested((2, 2), (2, 2), 1)
    nested((2, 2), (2, 1), 1)


def test_monomial_unit_requires_vanishing_v():
    with pytest.raises(FormError):
        monomial_unit((2, 1), (0, 0), 1)


def test_power_unit_requires_primitive_base():
    with pytest.raises(FormError):
        power_unit((2, 2), 1, 2, 1)
    p = power_unit((1, 1), 2, 3, 1)
    assert p.u_row == (2, 2) and p.v_row == (3, 3)


def test_power_unit_from_rows_canonicalizes():
    p = power_unit_from_rows((2, 4), (1, 2), 1)
    assert (p.base, p.power_u, p.power_v) == ((1, 2), 2, 1)
    with pytest.raises(FormError):
        power_unit_from_rows((2, 4), (1, 3), 1)


def test_monomial_pair_requires_rank_two():
    with pytest.raises(FormError):
        monomial_pair((1, 1), (2, 2), 1)
    with pytest.raises(FormError):
        monomial_pair((1, 0), (2, 0), 1)


def test_monomial_pair_requires_active_columns():
    with pytest.raises(FormError):
        monomial_pair((1, 0, 0), (0, 1, 0), 1)


def test_transverse_shapes_are_fixed():
    assert transverse(1).columns() == ((1, 0), (0, 1))
    assert transverse_unit(1, True).columns() == ((1, 1),)
    assert transverse_product(1).columns() == ((1, 0), (1, 1))
    with pytest.raises(FormError):
        MonomialPresentation(Form.TRANSVERSE, 1, (1, 0), (0, 2))


def test_chart_flag_must_match_form_family():
    with pytest.raises(FormError):
        make_scenario(3, (False,), [monomial_pair((2, 0), (0, 3), 1)])
    with pytest.raises(FormError):
        check_chart(Form.MONOMIAL_PAIR, False)
    with pytest.raises(FormError):
        make_scenario(3, (True,), [transverse(1)])
    with pytest.raises(FormError):
        check_chart(Form.TRANSVERSE, True)
    check_chart(Form.MONOMIAL_PAIR, True)
    check_chart(Form.TRANSVERSE, False)


def test_negative_entries_rejected():
    with pytest.raises(FormError):
        monomial_pair((-1, 0), (0, 3), 1)


def _shape(form, u_row, v_row, alpha_nonzero=False):
    return lambda: MonomialPresentation(form, 1, u_row, v_row, alpha_nonzero)


# one row per refusal that no other test raises, with its exact message
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: row_rank((1,), (1, 2)), "rows must have equal length"),
        (lambda: forms.primitive_part((0, 0)), "zero row has no primitive part"),
        (_shape(Form.MONOMIAL_FREE, (), ()), "monomial_free needs at least one divisor variable"),
        (
            _shape(Form.MONOMIAL_FREE, (2,), (1,), True),
            "monomial_free carries a bare free coordinate, not a unit shift",
        ),
        (_shape(Form.NESTED, (2, 2), (1, 1), True), "nested carries no unit factor"),
        (_shape(Form.MONOMIAL_UNIT, (), (), True), "monomial_unit needs at least one divisor variable"),
        (_shape(Form.MONOMIAL_UNIT, (2,), (1,)), "monomial_unit requires a nonzero unit shift"),
        (_shape(Form.POWER_UNIT, (2,), (1,)), "power_unit requires a nonzero unit shift"),
        (_shape(Form.MONOMIAL_PAIR, (1, 0), (0, 1), True), "monomial_pair carries no unit factor"),
        (_shape(Form.TRANSVERSE, (1, 0), (0, 1), True), "transverse carries no unit factor"),
        (
            _shape(Form.TRANSVERSE_UNIT, (2,), (1,)),
            "transverse_unit must have u = x_1, v = x_1 * (x_2 + alpha)",
        ),
        (
            _shape(Form.TRANSVERSE_PRODUCT, (1, 0), (0, 1)),
            "transverse_product must have u = x_1 x_2, v = x_2",
        ),
        (_shape(Form.TRANSVERSE_PRODUCT, (1, 1), (0, 1), True), "transverse_product carries no unit factor"),
        (lambda: power_unit((1,), 0, 1, 1), "power_unit powers must be positive"),
    ],
)
def test_refusal_message(make, message):
    with pytest.raises(FormError) as info:
        make()
    assert str(info.value) == message


# -- is_principal -----------------------------------------------------------------

def test_principal_examples():
    assert is_principal(monomial_pair((2, 0), (0, 3), 1)) is False
    assert is_principal(monomial_pair((1, 1), (2, 3), 1)) is True
    # (x^3, x * y): frozen from the divisibility oracle
    assert is_principal(monomial_free((3,), (1,), 1)) is False
    assert is_principal(nested((2, 2), (1, 1), 1)) is True


def test_principal_by_form_family():
    assert is_principal(monomial_free((2, 1), (2, 1), 1)) is True
    assert is_principal(monomial_unit((3,), (1,), 1)) is True
    assert is_principal(power_unit((1, 2), 3, 2, 1)) is True
    assert is_principal(transverse(1)) is False
    assert is_principal(transverse_unit(1, False)) is True
    assert is_principal(transverse_product(1)) is True


def test_principal_matches_oracle_small_grid():
    # full grid lives in the acceptance suite; this is the fast dev check
    seen = set()
    for p in shape_grid(3, 3):
        v_free = p.form is Form.MONOMIAL_FREE
        assert is_principal(p) == oracle_principal(p.u_row, p.v_row, v_free=v_free), p
        seen.add(p.form)
    assert seen == set(Form)


def test_rank_agrees_with_minor_oracle():
    for u, v in column_grid(3, 3):
        assert row_rank(u, v) == oracle_rank(u, v)


# -- property tests -----------------------------------------------------------------

@given(
    k=st.integers(1, 4),
    data=st.data(),
)
def test_random_valid_free_presentations(k, data):
    u = tuple(data.draw(st.integers(1, 6)) for _ in range(k))
    v = tuple(data.draw(st.integers(0, a)) for a in u)
    p = monomial_free(u, v, 1)
    # every column carries a divisor component through the point
    assert len(p.columns()) == k
    assert all(a + b > 0 for a, b in p.columns())
    assert is_principal(p) == (u == v)


@given(
    k=st.integers(2, 4),
    data=st.data(),
)
def test_random_pair_data_validated(k, data):
    u = tuple(data.draw(st.integers(0, 6)) for _ in range(k))
    v = tuple(data.draw(st.integers(0, 6)) for _ in range(k))
    p = try_pair(u, v)
    valid = all(a + b > 0 for a, b in zip(u, v)) and row_rank(u, v) == 2
    assert (p is not None) == valid
    if p is not None:
        assert len(p.columns()) == k
        assert all(a + b > 0 for a, b in p.columns())
        minors = [
            u[i] * v[j] - u[j] * v[i]
            for i, j in itertools.combinations(range(k), 2)
        ]
        assert any(m != 0 for m in minors)


@given(data=st.data())
def test_violated_invariants_rejected(data):
    # corrupt a valid free presentation by pushing one v-entry past u
    k = data.draw(st.integers(1, 4))
    u = tuple(data.draw(st.integers(1, 5)) for _ in range(k))
    i = data.draw(st.integers(0, k - 1))
    v = list(u)
    v[i] = u[i] + data.draw(st.integers(1, 3))
    with pytest.raises(FormError):
        monomial_free(u, tuple(v), 1)


# -- the fast checks agree with their definitions ------------------------------------

_ENTRY = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 10**30))


@st.composite
def rank_rows(draw):
    """Two rows of k <= 8 entries up to 10^30: often proportional (a nudge
    may break that), often with zero columns."""
    k = draw(st.integers(1, 8))
    g = draw(st.lists(_ENTRY, min_size=k, max_size=k))
    if draw(st.booleans()):
        a, b = draw(_ENTRY), draw(_ENTRY)
        u, v = [a * x for x in g], [b * x for x in g]
        if draw(st.booleans()):
            v[draw(st.integers(0, k - 1))] += draw(st.integers(1, 10**30))
    else:
        u, v = g, draw(st.lists(_ENTRY, min_size=k, max_size=k))
    for i in draw(st.sets(st.integers(0, k - 1))):
        u[i] = v[i] = 0
    if draw(st.booleans()):
        u, v = v, u
    return tuple(u), tuple(v)


@settings(max_examples=300)
@given(rows=rank_rows())
def test_row_rank_matches_minor_oracle(rows):
    assert row_rank(*rows) == oracle_rank(*rows)


@given(a=st.lists(_ENTRY, max_size=8), data=st.data())
def test_divides_is_componentwise_le(a, data):
    b = tuple(data.draw(st.one_of(_ENTRY, st.just(x))) for x in a)
    assert divides(tuple(a), b) == all(x <= y for x, y in zip(a, b))
    longer = data.draw(st.lists(_ENTRY, min_size=len(a) + 1, max_size=len(a) + 3))
    with pytest.raises(ValueError):
        divides(tuple(a), tuple(longer))
    with pytest.raises(ValueError):
        divides(tuple(longer), tuple(a))


class _Int(int):
    pass


def _validate_row_by_entry(row, *, what):
    """The per-entry definition of a valid exponent row."""
    if type(row) is not tuple:
        raise FormError(f"{what} must be a tuple, got {type(row).__name__}")
    for e in row:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise FormError(f"{what} entries must be non-negative integers, got {e!r}")


def _outcome(check, row, what):
    try:
        check(row, what=what)
    except FormError as exc:
        return str(exc)
    return None


_ANY_ENTRY = st.one_of(
    st.integers(-3, 10**30),
    st.integers(-3, 10**30).map(_Int),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=2),
    st.none(),
)


@settings(max_examples=300)
@given(
    row=st.one_of(
        st.tuples(),
        st.lists(st.integers(0, 10**30), max_size=6).map(tuple),
        st.lists(_ANY_ENTRY, max_size=6).map(tuple),
        st.lists(_ANY_ENTRY, max_size=3),
    ),
    what=st.sampled_from(["u_row", "v_row", "base"]),
)
def test_validate_row_matches_the_per_entry_check(row, what):
    assert _outcome(validate_row, row, what) == _outcome(_validate_row_by_entry, row, what)


def test_validate_row_accepts_int_subclasses_and_names_the_bad_entry():
    validate_row((_Int(2), 0, _Int(0)))
    for bad in (True, -1, 1.0, "1", None, _Int(-2)):
        with pytest.raises(FormError) as info:
            validate_row((3, bad, -5), what="u_row")
        assert str(info.value) == f"u_row entries must be non-negative integers, got {bad!r}"


# -- Form members hash by identity -------------------------------------------------

def test_form_lookup_by_value_returns_the_member():
    assert Form("monomial_pair") is Form.MONOMIAL_PAIR
    for form in Form:
        assert Form(form.value) is form


@pytest.mark.parametrize("form", list(Form), ids=lambda f: f.value)
def test_copy_and_pickle_return_the_same_member(form):
    assert copy.copy(form) is form
    assert copy.deepcopy(form) is form
    assert pickle.loads(pickle.dumps(form)) is form
    assert hash(pickle.loads(pickle.dumps(form))) == hash(form)


DISPATCH_TABLES = {
    "forms._VALIDATORS": forms._VALIDATORS,
    "forms.DIVISORIAL_FORMS": DIVISORIAL_FORMS,
    "descent.TEMPLATES": descent.TEMPLATES,
    "transform._BLOWUPS": transform._BLOWUPS,
}


@pytest.mark.parametrize("name", DISPATCH_TABLES)
def test_every_dispatch_table_resolves_every_member(name):
    table = DISPATCH_TABLES[name]
    for form in Form:
        same = (Form(form.value), copy.deepcopy(form), pickle.loads(pickle.dumps(form)))
        assert [member in table for member in same] == [form in table] * 3
    assert {form for form in Form if form in table} == set(table)


def test_every_form_has_a_validator():
    assert set(forms._VALIDATORS) == set(Form)
