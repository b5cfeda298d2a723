import pytest
from hypothesis import given

from toroidalize.forms import (
    Form,
    FormError,
    is_principal,
    monomial_free,
    monomial_pair,
    nested,
    power_unit,
    transverse,
    transverse_unit,
    transverse_product,
)
from toroidalize.invariants import centers
from toroidalize.transform import (
    Center,
    ChartPoint,
    PermissibilityError,
    blowup,
)

from conftest import column_grid, pair_presentations, try_free, try_pair

FREE1 = Center(1)


def by_point(result):
    return dict(zip(ChartPoint, result.descendants, strict=True))


# -- free-coordinate blowups -----------------------------------------------------

def test_blowup_free_ladder_step():
    p = monomial_free((3,), (1,), 1)
    out = by_point(blowup(p, FREE1))
    a0 = out[ChartPoint.A_ORIGIN]
    assert a0.form is Form.MONOMIAL_FREE
    assert (a0.u_row, a0.v_row) == ((3,), (2,))
    ag = out[ChartPoint.A_GENERIC]
    assert ag.form is Form.MONOMIAL_UNIT
    assert (ag.u_row, ag.v_row) == ((3,), (2,))
    b = out[ChartPoint.B_ORIGIN]
    assert b.form is Form.NESTED
    assert (b.u_row, b.v_row) == ((3, 3), (2, 1))


def test_blowup_free_one_step_to_principal():
    # frozen from the search oracle: (2),(1) principalizes in one step
    p = monomial_free((2,), (1,), 1)
    out = by_point(blowup(p, FREE1))
    a0 = out[ChartPoint.A_ORIGIN]
    assert (a0.u_row, a0.v_row) == ((2,), (2,))
    assert is_principal(a0)
    assert all(is_principal(q) for q in out.values())


def test_blowup_free_multicolumn_keeps_others():
    p = monomial_free((3, 1), (1, 1), 1)
    out = by_point(blowup(p, FREE1))
    assert out[ChartPoint.A_ORIGIN].v_row == (2, 1)
    b = out[ChartPoint.B_ORIGIN]
    assert (b.u_row, b.v_row) == ((3, 1, 3), (2, 1, 1))


def test_blowup_free_rejects_equal_column():
    p = monomial_free((3, 1), (1, 1), 1)
    with pytest.raises(PermissibilityError):
        blowup(p, Center(2))


# -- pair blowups -------------------------------------------------------------------

def test_blowup_pair_both_monomial_charts():
    p = monomial_pair((2, 0), (0, 3), 1)
    out = by_point(blowup(p, Center(1, 2)))
    a0 = out[ChartPoint.A_ORIGIN]
    assert (a0.u_row, a0.v_row) == ((2, 2), (0, 3))
    b = out[ChartPoint.B_ORIGIN]
    assert (b.u_row, b.v_row) == ((2, 0), (3, 3))
    assert is_principal(b)


def test_blowup_pair_generic_degenerates_to_power():
    p = monomial_pair((1, 0), (0, 1), 1)
    out = by_point(blowup(p, Center(1, 2)))
    ag = out[ChartPoint.A_GENERIC]
    assert ag.form is Form.POWER_UNIT
    assert (ag.base, ag.power_u, ag.power_v) == ((1,), 1, 1)


def test_blowup_pair_sign_criterion_enforced():
    # columns 1 and 2 are both u-dominant: no center passes through them
    p = monomial_pair((1, 2, 0), (0, 1, 1), 1)
    with pytest.raises(PermissibilityError):
        blowup(p, Center(1, 2))


def test_blowup_pair_orientation_symmetric():
    # the sign criterion is symmetric, so both orientations blow up the same
    # center; the two affine chart labels swap
    p = monomial_pair((2, 0), (0, 3), 1)
    out_ij = by_point(blowup(p, Center(1, 2)))
    out_ji = by_point(blowup(p, Center(2, 1)))
    assert out_ij[ChartPoint.A_ORIGIN] == out_ji[ChartPoint.B_ORIGIN]
    assert out_ij[ChartPoint.B_ORIGIN] == out_ji[ChartPoint.A_ORIGIN]


def test_blowup_pair_three_point_generic():
    p = monomial_pair((1, 2, 0), (0, 1, 1), 1)
    out = by_point(blowup(p, Center(2, 3)))
    ag = out[ChartPoint.A_GENERIC]
    assert ag.form is Form.MONOMIAL_PAIR
    assert (ag.u_row, ag.v_row) == ((1, 2), (0, 2))


def test_blowup_pair_three_point_second_chart():
    # frozen by substitution bookkeeping: column 2 absorbs column 3
    p = monomial_pair((1, 2, 0), (0, 1, 1), 1)
    out = by_point(blowup(p, Center(2, 3)))
    b = out[ChartPoint.B_ORIGIN]
    assert (b.u_row, b.v_row) == ((1, 2, 0), (0, 2, 1))


def test_blowup_pair_three_point_degenerate_collapse():
    # frozen from the minor oracle: collapsed rows (1,2) | (1,2) have rank 1
    p = monomial_pair((1, 1, 1), (1, 0, 2), 1)
    out = by_point(blowup(p, Center(2, 3)))
    ag = out[ChartPoint.A_GENERIC]
    assert ag.form is Form.POWER_UNIT
    assert (ag.base, ag.power_u, ag.power_v) == ((1, 2), 1, 1)


# -- transverse blowups ---------------------------------------------------------------

def test_blowup_transverse_forms():
    out = blowup(transverse(1), FREE1)
    forms = {d.form for d in out.descendants}
    assert forms == {Form.TRANSVERSE_UNIT, Form.TRANSVERSE_PRODUCT}
    assert all(is_principal(d) for d in out.descendants)


def test_principal_transverse_shapes_carry_no_center():
    for p in (transverse_unit(1, True), transverse_product(1)):
        assert list(centers(p)) == []
        with pytest.raises(PermissibilityError):
            blowup(p, FREE1)


def test_terminal_forms_reject_blowup():
    for p in (
        nested((2, 2), (1, 1), 1),
        power_unit((1,), 2, 1, 1),
    ):
        with pytest.raises(PermissibilityError):
            blowup(p, FREE1)


# -- structural properties --------------------------------------------------------------

def test_closure_small_grid():
    allowed = {
        Form.MONOMIAL_FREE: {Form.MONOMIAL_FREE, Form.NESTED, Form.MONOMIAL_UNIT},
        Form.MONOMIAL_PAIR: {Form.MONOMIAL_PAIR, Form.POWER_UNIT},
    }
    nonprincipal = {
        Form.MONOMIAL_FREE: {Form.MONOMIAL_FREE},
        Form.MONOMIAL_PAIR: {Form.MONOMIAL_PAIR},
    }
    for k in (1, 2, 3):
        for u, v in column_grid(4, k):
            for p in (try_pair(u, v), try_free(u, v)):
                if p is None:
                    continue
                for c, _, _ in centers(p):
                    for child in blowup(p, c).descendants:
                        assert child.form in allowed[p.form]
                        if not is_principal(child):
                            assert child.form in nonprincipal[p.form]


@given(pair_presentations(max_entry=5, max_k=4))
def test_second_chart_conserves_center_sum(p):
    for c, _, _ in centers(p):
        out = by_point(blowup(p, c))
        b = out[ChartPoint.B_ORIGIN]
        a_i, b_i = p.column(c.i)
        a_j, b_j = p.column(c.j)
        assert b.column(c.i) == (a_i + a_j, b_i + b_j)
        assert b.column(c.j) == (a_j, b_j)


@given(pair_presentations(max_entry=5, max_k=3))
def test_blowup_is_deterministic(p):
    for c, _, _ in centers(p):
        assert blowup(p, c) == blowup(p, c)


def test_descendant_count_and_labels():
    # the three children come in ChartPoint order
    assert list(ChartPoint) == [ChartPoint.A_ORIGIN, ChartPoint.A_GENERIC, ChartPoint.B_ORIGIN]
    p = monomial_pair((2, 0), (0, 3), 1)
    a_origin, a_generic, b_origin = blowup(p, Center(1, 2)).descendants
    assert (a_origin.u_row, a_origin.v_row) == ((2, 2), (0, 3))
    assert a_generic.form is Form.POWER_UNIT
    assert (b_origin.u_row, b_origin.v_row) == ((2, 0), (3, 3))


# -- centers ----------------------------------------------------------------------------

@pytest.mark.parametrize("indices", [(0,), (1, 0), (2, 2)])
def test_center_rejects_bad_indices(indices):
    with pytest.raises(FormError):
        Center(*indices)


@pytest.mark.parametrize(
    "p, c",
    [
        (monomial_free((3, 1), (1, 0), 1), Center(1, 2)),
        (monomial_pair((2, 0), (0, 3), 1), Center(1)),
        (transverse(1), Center(2)),
        # Center refuses an index below 1; a rule refuses one past the last column
        (monomial_free((3,), (1,), 1), Center(2)),
        (monomial_pair((2, 0), (0, 3), 1), Center(1, 3)),
    ],
    ids=["pair_on_free", "free_on_pair", "free_2_on_transverse", "free_past_k", "pair_past_k"],
)
def test_blowup_rejects_a_center_of_the_wrong_class(p, c):
    with pytest.raises(PermissibilityError):
        blowup(p, c)

