from dataclasses import dataclass
from enum import Enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toroidalize.descent import (
    COMPARABLE_PAIR_NOTE,
    TEMPLATES,
    SurfaceChart,
    classify_global,
    classify_scenario,
    lift,
    own_branches,
    reseed,
)
from toroidalize.forms import (
    DIVISORIAL_FORMS,
    Form,
    FormError,
    NoTemplateMatchError,
    NotPrincipalError,
    is_principal,
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
from toroidalize.scenario_io import leaf_to_doc, presentation_to_doc

from conftest import pair_presentations, shape_grid


def test_lift_free_equal_rows():
    l = lift(monomial_free((2, 1), (2, 1), 1))
    assert l.presentation.form is Form.MONOMIAL_FREE
    assert (l.presentation.u_row, l.presentation.v_row) == ((2, 1), (0, 0))
    assert l.surface_chart is SurfaceChart.U
    assert own_branches(l.presentation) == 1


def test_lift_nested_pair():
    l = lift(nested((3, 1), (1, 1), 1))
    assert l.presentation.form is Form.MONOMIAL_PAIR
    assert (l.presentation.u_row, l.presentation.v_row) == ((2, 0), (1, 1))
    assert oracle_rank(l.presentation.u_row, l.presentation.v_row) == 2


def test_lift_nested_degenerate_rejected():
    with pytest.raises(NoTemplateMatchError):
        lift(nested((2, 2), (1, 1), 1))


def test_lift_unit_rank_two():
    l = lift(monomial_unit((3, 2), (1, 2), 1))
    assert l.presentation.form is Form.MONOMIAL_PAIR
    assert (l.presentation.u_row, l.presentation.v_row) == ((2, 0), (1, 2))


def test_lift_unit_proportional_gives_power():
    l = lift(monomial_unit((2, 4), (1, 2), 1))
    assert l.presentation.form is Form.POWER_UNIT
    assert (l.presentation.base, l.presentation.power_u, l.presentation.power_v) == ((1, 2), 1, 1)


def test_lift_unit_equal_rows_gives_free_coordinate():
    # v = u * (unit): the image sits at an interior exceptional point and the
    # shifted unit becomes the fresh coordinate
    l = lift(monomial_unit((2, 2), (2, 2), 1))
    assert l.presentation.form is Form.MONOMIAL_FREE
    assert l.presentation.u_row == (2, 2)
    assert l.surface_chart is SurfaceChart.INTERIOR


def test_lift_power_smaller_u():
    l = lift(power_unit((1, 1), 2, 3, 1))
    assert l.presentation.form is Form.POWER_UNIT
    assert (l.presentation.base, l.presentation.power_u, l.presentation.power_v) == ((1, 1), 2, 1)
    assert l.surface_chart is SurfaceChart.U


def test_lift_power_equal_powers():
    l = lift(power_unit((1, 2), 2, 2, 1))
    assert l.presentation.form is Form.MONOMIAL_FREE
    assert l.presentation.u_row == (2, 4)
    assert l.surface_chart is SurfaceChart.INTERIOR


def test_lift_power_larger_u():
    l = lift(power_unit((1,), 4, 3, 1))
    assert l.presentation.form is Form.POWER_UNIT
    assert (l.presentation.base, l.presentation.power_u, l.presentation.power_v) == ((1,), 1, 3)
    assert l.surface_chart is SurfaceChart.V


def test_lift_comparable_pair_flags_note():
    l = lift(monomial_pair((1, 1), (2, 3), 1))
    assert l.presentation.form is Form.MONOMIAL_PAIR
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
        assert l.presentation == transverse(1)
        assert l.surface_chart is chart
        assert own_branches(l.presentation) == 0


def test_lift_rows_multiply_back():
    # u = u1, v = u1 v1 at U and u = u1 v1, v = v1 at V; equal parts keep u
    seen = set()
    for p in shape_grid(4, 3):
        if p.form not in DIVISORIAL_FORMS or not is_principal(p):
            continue
        try:
            l = lift(p)
        except NoTemplateMatchError:
            assert p.form is Form.NESTED
            continue
        seen.add(p.form)
        u1, v1 = l.presentation.u_row, l.presentation.v_row
        product = tuple(a + b for a, b in zip(u1, v1))
        if p.u_row == p.v_row:
            assert l.presentation.form is Form.MONOMIAL_FREE and u1 == p.u_row, p
        elif l.surface_chart is SurfaceChart.U:
            assert (u1, product) == (p.u_row, p.v_row), p
        else:
            assert l.surface_chart is SurfaceChart.V
            assert (product, v1) == (p.u_row, p.v_row), p
    assert seen == DIVISORIAL_FORMS


def test_lift_requires_principal():
    with pytest.raises(NotPrincipalError):
        lift(monomial_pair((2, 0), (0, 3), 1))
    with pytest.raises(NotPrincipalError):
        lift(transverse(1))


def test_classify_global_identity_cases():
    l = lift(monomial_free((2, 1), (2, 1), 1))
    assert classify_global(l, 1) == l.presentation
    l2 = lift(nested((3, 1), (1, 1), 1))
    assert classify_global(l2, 2) == l2.presentation


def test_classify_global_second_branch_upgrade():
    l = lift(monomial_free((2, 1), (2, 1), 1))
    upgraded = classify_global(l, 2)
    assert upgraded.form is Form.MONOMIAL_PAIR
    assert (upgraded.u_row, upgraded.v_row) == ((2, 1, 0), (0, 0, 1))


def test_classify_global_smooth_cases():
    l = lift(transverse_unit(1, True))
    assert classify_global(l, 0) is None
    t1 = classify_global(l, 1)
    assert t1.form is Form.MONOMIAL_FREE and t1.u_row == (1,)
    t3 = classify_global(l, 2)
    assert t3.form is Form.MONOMIAL_PAIR
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
    final = run(scenario, 64)
    leaves = classify_scenario(final)
    assert len(leaves) == len(final.entries)
    assert all(leaf.template is not None for leaf in leaves)
    forms = {leaf.template.form for leaf in leaves}
    assert Form.MONOMIAL_PAIR in forms


def test_classify_scenario_extra_branch_upgrades_free_templates():
    scenario = make_scenario(3, (True,), [monomial_free((2,), (0,), 1)])
    final = run(scenario, 16)
    plain = classify_scenario(final)
    upgraded = classify_scenario(final, extra_branch_charts=frozenset({1}))
    for before, after in zip(plain, upgraded):
        if before.template.form is Form.MONOMIAL_FREE:
            assert after.template.form is Form.MONOMIAL_PAIR


def test_classify_scenario_branch_override():
    scenario = make_scenario(3, (True,), [monomial_free((2,), (2,), 1)])
    final = run(scenario, 4)
    (leaf,) = classify_scenario(final, branch_overrides={0: 2})
    assert leaf.template.form is Form.MONOMIAL_PAIR


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
    final = run(scenario, 64)
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
    final = run(scenario, 64)
    leaves = classify_scenario(final)
    flipped = reseed(leaves, final, (False, True))
    # chart-1 leaves become transverse pairs; chart-2 smooth leaves vanish
    assert all(p.form is Form.TRANSVERSE for p in flipped)
    assert {p.chart_index for p in flipped} == {1}


# -- one template table -----------------------------------------------------------
# Test-local copies of the classification as it was before ``TEMPLATES``:
# a template kind matched against each lifted presentation and stored
# beside it with the chart's own branch count, then carried by the leaf.

class _Kind(Enum):
    FREE_COORDINATE = "free_coordinate"
    POWER_UNIT = "power_unit"
    MONOMIAL_PAIR = "monomial_pair"


def _match_template(p, branches):
    if branches not in (1, 2):
        raise FormError(f"branch_count must be 1 or 2, got {branches}")
    if p.form is Form.MONOMIAL_FREE and not any(p.v_row):
        if branches != 1:
            raise NoTemplateMatchError(
                "free-coordinate shape needs a single divisor branch at the image"
            )
        return _Kind.FREE_COORDINATE
    if p.form is Form.POWER_UNIT:
        if branches != 2:
            raise NoTemplateMatchError("power-pair shape needs two divisor branches at the image")
        return _Kind.POWER_UNIT
    if p.form is Form.MONOMIAL_PAIR:
        if branches != 2:
            raise NoTemplateMatchError("monomial-pair shape needs two divisor branches at the image")
        return _Kind.MONOMIAL_PAIR
    raise NoTemplateMatchError(f"form {p.form.value} matches no toroidal template")


@dataclass(frozen=True)
class _OldLifted:
    presentation: object
    surface_chart: SurfaceChart
    own_branch_count: int
    kind: _Kind | None
    note: str | None = None


def _lifted(presentation, chart, own_branches, note=None):
    kind = _match_template(presentation, own_branches)
    return _OldLifted(presentation, chart, own_branches, kind, note)


def _old_lift(p):
    # The quotient rows and image chart are ``lift``'s; the tags are rebuilt
    # from the branch count the old ``lift`` passed at each of its returns.
    l = lift(p)
    if p.form not in DIVISORIAL_FORMS:
        return _OldLifted(l.presentation, l.surface_chart, 0, None)
    return _lifted(l.presentation, l.surface_chart, 1 if p.u_row == p.v_row else 2, l.note)


def _old_classify_global(l, branches):
    if branches not in (0, 1, 2):
        raise FormError("branch_count must be 0, 1 or 2")
    if branches < l.own_branch_count:
        raise FormError("the full divisor cannot have fewer branches than the chart divisor")
    c = l.presentation.chart_index
    if l.kind is None:
        if branches == 0:
            return None
        if branches == 1:
            return _Kind.FREE_COORDINATE, monomial_free((1,), (0,), c)
        return _Kind.MONOMIAL_PAIR, monomial_pair((1, 0), (0, 1), c)
    if branches == l.own_branch_count:
        return l.kind, l.presentation
    if l.kind is _Kind.FREE_COORDINATE and branches == 2:
        row = l.presentation.u_row
        return _Kind.MONOMIAL_PAIR, monomial_pair(row + (0,), (0,) * len(row) + (1,), c)
    raise NoTemplateMatchError(f"{l.kind.value} template cannot meet {branches} divisor branches")


def _old_default_branch_count(l, scenario, extra):
    own = l.own_branch_count
    if own == 2:
        return 2
    if own == 1:
        return 2 if extra else 1
    base = 1 if any(scenario.charts) else 0
    if base == 1 and extra:
        return 2
    return base


def _old_template_to_doc(kind, template):
    if kind is None:
        return None
    doc = presentation_to_doc(template)
    del doc["form"], doc["chart"]
    if kind is _Kind.FREE_COORDINATE:
        doc = {"row": doc["u"]}
    return {"kind": kind.value, **doc}


def _old_leaf_doc(scenario, extra, overrides):
    (entry,) = scenario.entries
    l = _old_lift(entry.presentation)
    count = overrides.get(entry.id, _old_default_branch_count(l, scenario, extra))
    kind, template = _old_classify_global(l, count) or (None, None)
    return {
        "id": entry.id,
        "chart": entry.presentation.chart_index,
        "outcome": kind.value if kind else "smooth",
        "surface_chart": l.surface_chart.value,
        "own_branches": l.own_branch_count,
        "e_branches": count,
        "template": _old_template_to_doc(kind, template),
        "note": l.note,
    }


def _leaf_doc(scenario, extra, overrides):
    extra_charts = frozenset({1}) if extra else frozenset()
    (leaf,) = classify_scenario(scenario, extra_charts, overrides)
    return leaf_to_doc(leaf)


def _result(classify, *args):
    try:
        return classify(*args)
    except (FormError, NoTemplateMatchError) as exc:
        return type(exc), str(exc)


def _assert_same_classification(p, branches):
    """One leaf ``p`` on chart 1, classified at ``branches`` (None: the
    default count) with the extra branch on and off, gives the old leaf
    document or the old error.  A transverse leaf is tried both with and
    without a divisor chart beside it."""
    chart_sets = [(True,)] if p.form in DIVISORIAL_FORMS else [(False,), (False, True)]
    overrides = {} if branches is None else {0: branches}
    results = []
    for charts in chart_sets:
        scenario = make_scenario(p.k + 2, charts, [p])
        for extra in (False, True):
            new = _result(_leaf_doc, scenario, extra, overrides)
            assert new == _result(_old_leaf_doc, scenario, extra, overrides), (p, charts, extra)
            results.append(new)
    return results


def test_template_table_lists_the_template_forms():
    assert {form: name for form, (name, _) in TEMPLATES.items()} == {
        Form.MONOMIAL_FREE: "free_coordinate",
        Form.POWER_UNIT: "power_unit",
        Form.MONOMIAL_PAIR: "monomial_pair",
    }
    assert {form: own for form, (_, own) in TEMPLATES.items()} == {
        Form.MONOMIAL_FREE: 1,
        Form.POWER_UNIT: 2,
        Form.MONOMIAL_PAIR: 2,
    }


@pytest.mark.parametrize(
    ("p", "branches", "expected"),
    [
        # a free-coordinate template at two branches upgrades to a pair
        (monomial_free((2, 1), (2, 1), 1), 2, "monomial_pair"),
        # pair and power templates at one branch have too few
        (monomial_pair((1, 1), (2, 3), 1), 1, FormError),
        (power_unit((1, 1), 2, 3, 1), 1, FormError),
        # a template at no branch, or at three
        (monomial_free((2, 1), (2, 1), 1), 0, FormError),
        (monomial_pair((1, 1), (2, 3), 1), 3, FormError),
        # a smooth leaf at 0, 1 and 2 branches
        (transverse_unit(1, True), 0, "smooth"),
        (transverse_unit(1, True), 1, "free_coordinate"),
        (transverse_product(1), 2, "monomial_pair"),
    ],
    ids=[
        "free_at_two", "pair_at_one", "power_at_one", "free_at_zero", "pair_at_three",
        "smooth_at_zero", "smooth_at_one", "smooth_at_two",
    ],
)
def test_branch_count_rows_match_old_classification(p, branches, expected):
    for result in _assert_same_classification(p, branches):
        if isinstance(expected, str):
            assert result["outcome"] == expected
        else:
            assert result[0] is expected


def test_template_table_matches_old_classification_on_grid():
    seen = set()
    for p in shape_grid(4, 3):
        if not is_principal(p):
            continue
        try:
            lift(p)
        except NoTemplateMatchError:
            continue
        for branches in (None, 0, 1, 2, 3):
            _assert_same_classification(p, branches)
        seen.add(p.form)
    assert seen == set(Form) - {Form.TRANSVERSE}
