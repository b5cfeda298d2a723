import pytest
from hypothesis import given
from hypothesis import strategies as st

from toroidalize.forms import (
    FormError,
    is_principal,
    monomial_free,
    monomial_pair,
    nested,
    transverse,
)
from toroidalize.invariants import (
    center_value,
    enumerate_centers,
    locus_report,
    summarize,
)
from toroidalize.transform import Center, CenterKind

from conftest import column_grid, pair_presentations, try_free, try_pair


def test_enumerate_centers_free():
    p = monomial_free((3, 1), (1, 1), 1)
    assert enumerate_centers(p) == [Center(CenterKind.FREE, 1)]


def test_enumerate_centers_pair_oriented():
    p = monomial_pair((2, 0), (0, 3), 1)
    assert enumerate_centers(p) == [Center(CenterKind.PAIR, 1, 2)]


def test_enumerate_centers_principal_pair_empty():
    assert enumerate_centers(monomial_pair((1, 1), (2, 3), 1)) == []


def test_enumerate_centers_terminal_forms_empty():
    assert enumerate_centers(nested((2, 2), (1, 1), 1)) == []


def test_enumerate_centers_transverse():
    assert enumerate_centers(transverse(1)) == [Center(CenterKind.FREE, 1)]


def test_one_point_invariant_values():
    # a free-coordinate center carries a - b, the 1-point invariant
    for u, v, value in (((3,), (1,), 2), ((5,), (0,), 5), ((4,), (3,), 1)):
        p = monomial_free(u, v, 1)
        assert [center_value(p, c) for c in enumerate_centers(p)] == [value]


def test_one_point_invariant_domain_errors():
    # a principal 1-point presentation carries no center at all
    assert enumerate_centers(monomial_free((3,), (3,), 1)) == []
    # a pair center does not belong to a free-coordinate presentation
    with pytest.raises(FormError):
        center_value(monomial_free((3, 1), (1, 1), 1), Center(CenterKind.PAIR, 1, 2))


def test_two_point_invariant_values():
    # (a_1 - b_1)(b_2 - a_2) on the one pair center of a two-column pair
    def value(u, v):
        p = monomial_pair(u, v, 1)
        (c,) = enumerate_centers(p)
        return center_value(p, c)

    assert value((2, 0), (0, 3)) == 6
    assert value((3, 1), (1, 2)) == 2
    # orientation must not matter
    assert value((0, 2), (3, 0)) == 6


def test_center_value_uses_only_center_columns():
    p = monomial_pair((1, 2, 0), (0, 1, 1), 1)
    assert center_value(p, Center(CenterKind.PAIR, 1, 3)) == 1
    assert center_value(p, Center(CenterKind.PAIR, 2, 3)) == 1
    q = monomial_pair((5, 2, 0), (0, 1, 1), 1)
    assert center_value(q, Center(CenterKind.PAIR, 1, 3)) == 5


def test_locus_report_examples():
    snap = summarize(locus_report([(0, monomial_pair((2, 0), (0, 3), 1))]))
    assert (snap.one_point_max, snap.two_point_max) == (0, 6)

    snap = summarize(
        locus_report(
            [
                (0, monomial_free((3,), (1,), 1)),
                (1, monomial_pair((1, 0), (0, 1), 1)),
            ]
        )
    )
    assert (snap.one_point_max, snap.two_point_max) == (2, 1)

    records = locus_report([])
    assert not records
    snap = summarize(records)
    assert (snap.one_point_max, snap.two_point_max) == (0, 0)


def test_locus_report_per_chart():
    other = monomial_free((4,), (1,), 2)
    records = locus_report([(0, monomial_pair((2, 0), (0, 3), 1)), (1, other)])
    chart1 = summarize([r for r in records if r.signature[0] == 1])
    chart2 = summarize([r for r in records if r.signature[0] == 2])
    assert (chart1.one_point_max, chart1.two_point_max) == (0, 6)
    assert (chart2.one_point_max, chart2.two_point_max) == (3, 0)


def test_transverse_center_carries_zero():
    records = locus_report([(0, transverse(1))])
    snap = summarize(records)
    assert (snap.one_point_max, snap.two_point_max) == (0, 0)
    assert len(records) == 1


def test_centers_empty_iff_principal_small_grid():
    for k in (1, 2, 3):
        for u, v in column_grid(4, k):
            for p in (try_pair(u, v), try_free(u, v)):
                if p is None:
                    continue
                assert (enumerate_centers(p) == []) == is_principal(p), (p.form, u, v)


@given(pair_presentations(max_entry=6, max_k=4), st.randoms())
def test_locus_values_invariant_under_column_permutation(p, rnd):
    perm = list(range(p.k))
    rnd.shuffle(perm)
    shuffled = monomial_pair(
        tuple(p.u_row[i] for i in perm), tuple(p.v_row[i] for i in perm), p.chart_index
    )
    original = sorted(center_value(p, c) for c in enumerate_centers(p))
    permuted = sorted(center_value(shuffled, c) for c in enumerate_centers(shuffled))
    assert original == permuted
