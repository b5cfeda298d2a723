from hypothesis import assume, given
from hypothesis import strategies as st

from toroidalize.forms import (
    Form,
    FormError,
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
from toroidalize.invariants import (
    centers,
    locus_report,
    summarize,
)
from toroidalize.transform import Center

from conftest import column_grid, pair_presentations, shape_grid, try_free, try_pair


def found(p):
    return [c for c, _, _ in centers(p)]


def values(p):
    return [value for _, _, value in centers(p)]


def test_enumerate_centers_free():
    p = monomial_free((3, 1), (1, 1), 1)
    assert list(centers(p)) == [(Center(1), (1, "free", ((3, 1),)), 2)]


def test_enumerate_centers_pair_oriented():
    p = monomial_pair((2, 0), (0, 3), 1)
    assert list(centers(p)) == [(Center(1, 2), (1, "pair", ((2, 0), (0, 3))), 6)]


def test_enumerate_centers_principal_pair_empty():
    assert found(monomial_pair((1, 1), (2, 3), 1)) == []


def test_enumerate_centers_terminal_forms_empty():
    assert found(nested((2, 2), (1, 1), 1)) == []


def test_enumerate_centers_transverse():
    assert list(centers(transverse(2))) == [(Center(1), (2, "transverse", ()), 0)]


def test_one_point_invariant_values():
    # a free-coordinate center carries a - b, the 1-point invariant
    for u, v, value in (((3,), (1,), 2), ((5,), (0,), 5), ((4,), (3,), 1)):
        assert values(monomial_free(u, v, 1)) == [value]


def test_one_point_invariant_domain_errors():
    # a principal 1-point presentation carries no center at all
    assert found(monomial_free((3,), (3,), 1)) == []


def test_two_point_invariant_values():
    # (a_1 - b_1)(b_2 - a_2) on the one pair center of a two-column pair
    def value(u, v):
        (only,) = values(monomial_pair(u, v, 1))
        return only

    assert value((2, 0), (0, 3)) == 6
    assert value((3, 1), (1, 2)) == 2
    # orientation must not matter
    assert value((0, 2), (3, 0)) == 6


def test_center_value_uses_only_center_columns():
    p = monomial_pair((1, 2, 0), (0, 1, 1), 1)
    assert dict(zip(found(p), values(p))) == {
        Center(1, 3): 1,
        Center(2, 3): 1,
    }
    q = monomial_pair((5, 2, 0), (0, 1, 1), 1)
    assert values(q)[0] == 5


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
                assert (found(p) == []) == is_principal(p), (p.form, u, v)


@given(pair_presentations(max_entry=6, max_k=4), st.randoms())
def test_locus_values_invariant_under_column_permutation(p, rnd):
    perm = list(range(p.k))
    rnd.shuffle(perm)
    shuffled = monomial_pair(
        tuple(p.u_row[i] for i in perm), tuple(p.v_row[i] for i in perm), p.chart_index
    )
    original = sorted(values(p))
    permuted = sorted(values(shuffled))
    assert original == permuted


# -- the merge: `centers` against the functions it replaced ---------------------------

def reference_enumerate_centers(p):
    if p.form is Form.MONOMIAL_FREE:
        return [
            Center(i)
            for i in range(1, p.k + 1)
            if p.v_row[i - 1] < p.u_row[i - 1]
        ]
    if p.form is Form.MONOMIAL_PAIR:
        found = []
        for i in range(1, p.k + 1):
            if p.u_row[i - 1] - p.v_row[i - 1] <= 0:
                continue
            for j in range(1, p.k + 1):
                if p.v_row[j - 1] - p.u_row[j - 1] > 0:
                    found.append(Center(i, j))
        return found
    if p.form is Form.TRANSVERSE:
        return [Center(1)]
    return []


def reference_center_value(p, c):
    if p.form is Form.MONOMIAL_FREE and c.j is None:
        a_i, b_i = p.column(c.i)
        return a_i - b_i
    if p.form is Form.MONOMIAL_PAIR and c.j is not None:
        a_i, b_i = p.column(c.i)
        a_j, b_j = p.column(c.j)
        return (a_i - b_i) * (b_j - a_j)
    if p.form is Form.TRANSVERSE and c.j is None:
        return 0
    raise FormError(f"center {c} does not belong to a {p.form.value} presentation")


def reference_center_signature(p, c):
    chart = p.chart_index
    if p.form is Form.TRANSVERSE:
        return (chart, "transverse", ())
    if c.j is None:
        return (chart, "free", p.column(c.i))
    return (chart, "pair", (p.column(c.i), p.column(c.j)))


def wrapped(signature):
    """The reference signature with a free center's one column wrapped in a tuple."""
    chart, cls, columns = signature
    return (chart, cls, (columns,)) if cls == "free" else signature


ROW_SHAPES = {
    Form.MONOMIAL_FREE: monomial_free,
    Form.NESTED: nested,
    Form.MONOMIAL_UNIT: monomial_unit,
    Form.MONOMIAL_PAIR: monomial_pair,
}


@st.composite
def any_presentations(draw, max_entry=4, max_k=5):
    """A presentation of any of the eight shapes, with at most ``max_k`` columns."""
    form = draw(st.sampled_from(Form))
    chart = draw(st.integers(1, 3))
    if form is Form.TRANSVERSE:
        return transverse(chart)
    if form is Form.TRANSVERSE_UNIT:
        return transverse_unit(chart, draw(st.booleans()))
    if form is Form.TRANSVERSE_PRODUCT:
        return transverse_product(chart)
    k = draw(st.integers(1, max_k))
    if form is Form.POWER_UNIT:
        base = tuple(draw(st.integers(1, max_entry)) for _ in range(k))
        make, args = power_unit, (base, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    elif form is Form.MONOMIAL_PAIR:
        u = tuple(draw(st.integers(0, max_entry)) for _ in range(k))
        v = tuple(draw(st.integers(0, max_entry)) for _ in range(k))
        make, args = monomial_pair, (u, v)
    else:
        u = tuple(draw(st.integers(1, max_entry)) for _ in range(k))
        v = tuple(draw(st.integers(0, a)) for a in u)
        make, args = ROW_SHAPES[form], (u, v)
    try:
        return make(*args, chart)
    except FormError:
        assume(False)


def assert_centers_match_the_reference(p):
    got = list(centers(p))
    assert [c for c, _, _ in got] == reference_enumerate_centers(p)
    for c, signature, value in got:
        assert value == reference_center_value(p, c)
        assert signature == wrapped(reference_center_signature(p, c))


def test_centers_match_the_functions_they_replaced_small_grid():
    for p in shape_grid(2, 5):
        assert_centers_match_the_reference(p)


@given(st.lists(any_presentations(), max_size=4), st.randoms())
def test_centers_match_the_functions_they_replaced(ps, rnd):
    for p in ps:
        assert_centers_match_the_reference(p)

    # records keep the order the presentations are given in, not their ids
    entries = list(zip(rnd.sample(range(100), len(ps)), ps))
    expected = [
        (pid, p, c, wrapped(reference_center_signature(p, c)), reference_center_value(p, c))
        for pid, p in entries
        for c in reference_enumerate_centers(p)
    ]
    records = locus_report(entries)
    assert [tuple(r) for r in records] == expected
