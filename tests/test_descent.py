import pytest
from hypothesis import given
from hypothesis import strategies as st

from toroidalize.descent import (
    COMPARABLE_PAIR_NOTE,
    SurfaceChart,
    classify_global,
    classify_scenario,
    lift,
    reseed,
)
from toroidalize.forms import (
    Form,
    FormError,
    NoTemplateMatchError,
    NotPrincipalError,
    TemplateKind,
    monomial_free,
    monomial_pair,
    monomial_unit,
    nested,
    power_unit,
    transverse,
    transverse_product,
    transverse_unit,
)
from toroidalize.oracle import oracle_rank
from toroidalize.principalize import make_scenario, run

from conftest import pair_presentations


def test_lift_free_equal_rows():
    l = lift(monomial_free((2, 1), (2, 1), 1))
    assert l.kind is TemplateKind.FREE_COORDINATE
    assert l.presentation.u_row == (2, 1)
    assert l.surface_chart is SurfaceChart.U
    assert l.own_branch_count == 1


def test_lift_nested_pair():
    l = lift(nested((3, 1), (1, 1), 1))
    assert l.kind is TemplateKind.MONOMIAL_PAIR
    assert (l.presentation.u_row, l.presentation.v_row) == ((2, 0), (1, 1))
    assert oracle_rank(l.presentation.u_row, l.presentation.v_row) == 2


def test_lift_nested_degenerate_rejected():
    with pytest.raises(NoTemplateMatchError):
        lift(nested((2, 2), (1, 1), 1))


def test_lift_unit_rank_two():
    l = lift(monomial_unit((3, 2), (1, 2), 1))
    assert l.kind is TemplateKind.MONOMIAL_PAIR
    assert (l.presentation.u_row, l.presentation.v_row) == ((2, 0), (1, 2))


def test_lift_unit_proportional_gives_power():
    l = lift(monomial_unit((2, 4), (1, 2), 1))
    assert l.kind is TemplateKind.POWER_UNIT
    assert (l.presentation.base, l.presentation.power_u, l.presentation.power_v) == ((1, 2), 1, 1)


def test_lift_unit_equal_rows_gives_free_coordinate():
    # v = u * (unit): the image sits at an interior exceptional point and the
    # shifted unit becomes the fresh coordinate
    l = lift(monomial_unit((2, 2), (2, 2), 1))
    assert l.kind is TemplateKind.FREE_COORDINATE
    assert l.presentation.u_row == (2, 2)
    assert l.surface_chart is SurfaceChart.INTERIOR


def test_lift_power_smaller_u():
    l = lift(power_unit((1, 1), 2, 3, 1))
    assert l.kind is TemplateKind.POWER_UNIT
    assert (l.presentation.base, l.presentation.power_u, l.presentation.power_v) == ((1, 1), 2, 1)
    assert l.surface_chart is SurfaceChart.U


def test_lift_power_equal_powers():
    l = lift(power_unit((1, 2), 2, 2, 1))
    assert l.kind is TemplateKind.FREE_COORDINATE
    assert l.presentation.u_row == (2, 4)
    assert l.surface_chart is SurfaceChart.INTERIOR


def test_lift_power_larger_u():
    l = lift(power_unit((1,), 4, 3, 1))
    assert l.kind is TemplateKind.POWER_UNIT
    assert (l.presentation.base, l.presentation.power_u, l.presentation.power_v) == ((1,), 1, 3)
    assert l.surface_chart is SurfaceChart.V


def test_lift_comparable_pair_flags_note():
    l = lift(monomial_pair((1, 1), (2, 3), 1))
    assert l.kind is TemplateKind.MONOMIAL_PAIR
    assert (l.presentation.u_row, l.presentation.v_row) == ((1, 1), (1, 2))
    assert l.note == COMPARABLE_PAIR_NOTE
    assert l.surface_chart is SurfaceChart.U

    l2 = lift(monomial_pair((2, 4), (0, 3), 1))
    assert (l2.presentation.u_row, l2.presentation.v_row) == ((2, 1), (0, 3))
    assert l2.surface_chart is SurfaceChart.V


def test_lift_transverse_shapes_are_smooth():
    for p, chart in (
        (transverse_unit(1, False), SurfaceChart.U),
        (transverse_unit(1, True), SurfaceChart.INTERIOR),
        (transverse_product(1), SurfaceChart.V),
    ):
        l = lift(p)
        assert l.smooth
        assert l.surface_chart is chart
        assert l.own_branch_count == 0


def test_lift_requires_principal():
    with pytest.raises(NotPrincipalError):
        lift(monomial_pair((2, 0), (0, 3), 1))
    with pytest.raises(NotPrincipalError):
        lift(transverse(1))


def test_classify_global_identity_cases():
    l = lift(monomial_free((2, 1), (2, 1), 1))
    assert classify_global(l, 1) == (l.kind, l.presentation)
    l2 = lift(nested((3, 1), (1, 1), 1))
    assert classify_global(l2, 2) == (l2.kind, l2.presentation)


def test_classify_global_second_branch_upgrade():
    l = lift(monomial_free((2, 1), (2, 1), 1))
    kind, upgraded = classify_global(l, 2)
    assert kind is TemplateKind.MONOMIAL_PAIR
    assert (upgraded.u_row, upgraded.v_row) == ((2, 1, 0), (0, 0, 1))


def test_classify_global_smooth_cases():
    l = lift(transverse_unit(1, True))
    assert classify_global(l, 0) is None
    kind1, t1 = classify_global(l, 1)
    assert kind1 is TemplateKind.FREE_COORDINATE and t1.u_row == (1,)
    kind3, t3 = classify_global(l, 2)
    assert kind3 is TemplateKind.MONOMIAL_PAIR
    assert (t3.u_row, t3.v_row) == ((1, 0), (0, 1))


def test_classify_global_branch_consistency_enforced():
    l = lift(nested((3, 1), (1, 1), 1))
    with pytest.raises(FormError, match="fewer branches"):
        classify_global(l, 1)
    with pytest.raises(FormError, match="0, 1 or 2"):
        classify_global(l, 3)


def test_classify_scenario_requires_empty_locus():
    scenario = make_scenario(3, (True,), [monomial_pair((2, 0), (0, 3), 1)])
    with pytest.raises(NotPrincipalError):
        classify_scenario(scenario)


def test_classify_scenario_end_to_end():
    scenario = make_scenario(3, (True,), [monomial_pair((2, 0), (0, 3), 1)])
    final, _ = run(scenario, 64)
    leaves = classify_scenario(final)
    assert len(leaves) == len(final.entries)
    assert all(leaf.template is not None for leaf in leaves)
    kinds = {leaf.kind for leaf in leaves}
    assert TemplateKind.MONOMIAL_PAIR in kinds


def test_classify_scenario_extra_branch_upgrades_free_templates():
    scenario = make_scenario(3, (True,), [monomial_free((2,), (0,), 1)])
    final, _ = run(scenario, 16)
    plain = classify_scenario(final)
    upgraded = classify_scenario(final, extra_branch_charts=frozenset({1}))
    for before, after in zip(plain, upgraded):
        if before.kind is TemplateKind.FREE_COORDINATE:
            assert after.kind is TemplateKind.MONOMIAL_PAIR


def test_classify_scenario_branch_override():
    scenario = make_scenario(3, (True,), [monomial_free((2,), (2,), 1)])
    final, _ = run(scenario, 4)
    (leaf,) = classify_scenario(final, branch_overrides={0: 2})
    assert leaf.kind is TemplateKind.MONOMIAL_PAIR


@given(pair_presentations(max_entry=6, max_k=4), st.randoms())
def test_lift_commutes_with_column_permutation(p, rnd):
    from toroidalize.forms import is_principal

    if not is_principal(p):
        return
    perm = list(range(p.k))
    rnd.shuffle(perm)
    q = monomial_pair(
        tuple(p.u_row[i] for i in perm), tuple(p.v_row[i] for i in perm), p.chart_index
    )
    lp, lq = lift(p), lift(q)
    cols_p = sorted(zip(lp.presentation.u_row, lp.presentation.v_row))
    cols_q = sorted(zip(lq.presentation.u_row, lq.presentation.v_row))
    assert cols_p == cols_q


def test_reseed_divisorial_round():
    scenario = make_scenario(3, (True,), [monomial_pair((2, 0), (0, 3), 1)])
    final, _ = run(scenario, 64)
    leaves = classify_scenario(final)
    presentations = reseed(leaves, final, (True,))
    assert len(presentations) == len(leaves)
    assert {p.form for p in presentations} <= {
        Form.MONOMIAL_FREE,
        Form.POWER_UNIT,
        Form.MONOMIAL_PAIR,
    }
    next_scenario = make_scenario(3, (True,), presentations)
    run(next_scenario, 256)


def test_reseed_transverse_round_and_smooth_exclusion():
    charts = (True, False)
    scenario = make_scenario(
        3,
        charts,
        [
            monomial_pair((1, 0), (0, 1), 1),
            transverse(2),
        ],
    )
    final, _ = run(scenario, 64)
    leaves = classify_scenario(final)
    flipped = reseed(leaves, final, (False, True))
    # chart-1 leaves become transverse pairs; chart-2 smooth leaves vanish
    assert all(p.form is Form.TRANSVERSE for p in flipped)
    assert {p.chart_index for p in flipped} == {1}
