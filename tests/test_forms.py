import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toroidalize.forms import (
    Form,
    FormError,
    MonomialPresentation,
    NoTemplateMatchError,
    TemplateKind,
    check_chart,
    is_principal,
    match_template,
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
)
from toroidalize.oracle import oracle_principal, oracle_rank
from toroidalize.principalize import make_scenario

from conftest import column_grid, try_free, try_pair


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
    for k in (1, 2, 3):
        for u, v in column_grid(3, k):
            p = try_pair(u, v)
            if p is not None:
                assert is_principal(p) == oracle_principal(u, v), (u, v)
            p = try_free(u, v)
            if p is not None:
                assert is_principal(p) == oracle_principal(u, v, v_free=True), (u, v)


def test_rank_agrees_with_minor_oracle():
    for u, v in column_grid(3, 3):
        assert row_rank(u, v) == oracle_rank(u, v)


# -- match_template ----------------------------------------------------------------

def test_match_template_free_coordinate():
    p = monomial_free((2, 1), (0, 0), 1)
    kind = match_template(p, 1)
    assert kind is TemplateKind.FREE_COORDINATE and p.u_row == (2, 1)


def test_match_template_pair():
    p = monomial_pair((1, 1), (1, 2), 1)
    assert match_template(p, 2) is TemplateKind.MONOMIAL_PAIR
    assert (p.u_row, p.v_row) == ((1, 1), (1, 2))


def test_match_template_power():
    p = power_unit((1, 1), 2, 3, 1)
    assert match_template(p, 2) is TemplateKind.POWER_UNIT
    assert (p.base, p.power_u, p.power_v) == ((1, 1), 2, 3)


def test_match_template_branch_mismatch():
    p = monomial_free((2, 1), (0, 0), 1)
    with pytest.raises(NoTemplateMatchError):
        match_template(p, 2)
    with pytest.raises(NoTemplateMatchError):
        match_template(monomial_pair((1, 1), (1, 2), 1), 1)


def test_match_template_rejects_unlifted_shape():
    with pytest.raises(NoTemplateMatchError):
        match_template(monomial_free((3,), (1,), 1), 1)


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
