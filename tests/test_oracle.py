"""The brute-force verifiers themselves, pinned first: every derived value
elsewhere in the suite was computed by these."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toroidalize import oracle
from toroidalize.cli import main
from toroidalize.forms import Form, is_principal, monomial_free, monomial_pair, transverse
from toroidalize.oracle import (
    BoundExceededError,
    RawPoint,
    SearchBound,
    SearchResult,
    exhaustive_search,
    oracle_principal,
    oracle_rank,
    raw_centers,
    raw_measure,
)
from toroidalize.scenario_io import SchemaError, presentation_from_doc

from conftest import free_presentations, pair_presentations

FIXTURES = Path(__file__).parent / "fixtures"


def test_oracle_principal_incomparable():
    assert oracle_principal((2, 0), (0, 3)) is False


def test_oracle_principal_componentwise():
    assert oracle_principal((1, 1), (2, 3)) is True


def test_oracle_principal_free_factor_blocks():
    # (x^3, x * y): neither generator divides the other
    assert oracle_principal((3,), (1,), v_free=True) is False
    # but (x^1, x^3 * y) is generated by x
    assert oracle_principal((1,), (3,), v_free=True) is True


@pytest.mark.parametrize("oracle_fn", [oracle_principal, oracle_rank])
def test_oracles_refuse_rows_of_unequal_length(oracle_fn):
    with pytest.raises(ValueError, match="rows must have equal length"):
        oracle_fn((1, 2), (1,))


def test_oracle_rank():
    assert oracle_rank((2, 0), (0, 3)) == 2
    assert oracle_rank((2, 4), (1, 2)) == 1
    assert oracle_rank((0, 0), (0, 0)) == 0
    assert oracle_rank((0, 0), (1, 0)) == 1


def test_search_bound_validation():
    with pytest.raises(ValueError):
        SearchBound(0, 1, 1)


def test_search_euclid_all_paths():
    p = monomial_pair((2, 0), (0, 3), 1)
    result = exhaustive_search([p], SearchBound(max_entry=8, max_k=4, max_depth=32))
    assert (result.min_depth, result.max_depth) == (3, 3)


def test_search_transverse_single_step():
    result = exhaustive_search([transverse(1)], SearchBound(4, 4, 2))
    assert (result.min_depth, result.max_depth) == (1, 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_search_free_ladder_exact_steps(k):
    # u = x^k, v = y: the single path raises the v-exponent once per step
    p = monomial_free((k,), (0,), 1)
    result = exhaustive_search([p], SearchBound(max_entry=8, max_k=4, max_depth=k + 1))
    assert (result.min_depth, result.max_depth) == (k, k)


def test_search_depth_exceeded():
    p = monomial_pair((2, 0), (0, 3), 1)
    with pytest.raises(BoundExceededError):
        exhaustive_search([p], SearchBound(8, 4, 1))


def test_search_depth_boundary_is_inclusive():
    # paths of length exactly max_depth are admissible
    p = monomial_pair((2, 0), (0, 3), 1)
    result = exhaustive_search([p], SearchBound(8, 4, 3))
    assert (result.min_depth, result.max_depth) == (3, 3)
    with pytest.raises(BoundExceededError):
        exhaustive_search([p], SearchBound(8, 4, 2))


def test_search_principal_scenario_is_trivial():
    p = monomial_pair((1, 1), (2, 3), 1)
    result = exhaustive_search([p], SearchBound(8, 4, 4))
    assert (result.min_depth, result.max_depth) == (0, 0)


def test_free_center_order_can_wander_forever():
    # With three or more divisor variables, non-maximal center choices can
    # cycle on the difference vector while exponents grow without bound, so
    # the exhaustive tree is infinite and the bound always trips.  The
    # maximal-value policy is what forces termination.
    from toroidalize.principalize import make_scenario, run

    p = monomial_pair((0, 0, 0, 3), (3, 3, 2, 0), 1)
    scenario = make_scenario(5, (True,), [p])
    final = run(scenario, 64)
    assert [s.value for s in final.history] == [9, 9, 6, 2, 1]
    assert not final.locus()
    with pytest.raises(BoundExceededError):
        exhaustive_search([p], SearchBound(max_entry=8, max_k=5, max_depth=64))


def test_search_rejects_out_of_bound_input():
    p = monomial_pair((9, 0), (0, 3), 1)
    with pytest.raises(ValueError):
        exhaustive_search([p], SearchBound(max_entry=8, max_k=4, max_depth=8))


# -- the column model against the two models it replaced ---------------------------
#
# Test-local copies of the oracle's former center list and child rule, and of
# verify's former descent measure, kept as the specification the shared column
# model must reproduce.

def _spec_centers(pt):
    out = []
    if pt.v_free:
        for a, b in pt.cols:
            if b < a:
                out.append((pt.chart, "free", (a, b)))
    else:
        for a_i, b_i in pt.cols:
            if a_i - b_i <= 0:
                continue
            for a_j, b_j in pt.cols:
                if b_j - a_j > 0:
                    out.append((pt.chart, "pair", ((a_i, b_i), (a_j, b_j))))
    return sorted(set(out))


def _spec_children(pt, signature):
    chart, kind, data = signature
    if chart != pt.chart:
        return None
    children = []
    if kind == "free":
        if not pt.v_free or data not in pt.cols or data[1] >= data[0]:
            return None
        a_i, b_i = data
        idx = pt.cols.index(data)
        rest = pt.cols[:idx] + pt.cols[idx + 1 :]
        bumped = tuple(sorted(rest + ((a_i, b_i + 1),)))
        children.append(RawPoint(chart, bumped, True))
        children.append(RawPoint(chart, bumped, False))
        children.append(RawPoint(chart, tuple(sorted(rest + ((a_i, b_i + 1), (a_i, b_i)))), False))
    else:
        if pt.v_free:
            return None
        col_i, col_j = data
        if col_i not in pt.cols or col_j not in pt.cols:
            return None
        if col_i == col_j and pt.cols.count(col_i) < 2:
            return None
        a_i, b_i = col_i
        a_j, b_j = col_j
        if (a_i - b_i) * (b_j - a_j) <= 0:
            return None
        rest = list(pt.cols)
        rest.remove(col_i)
        rest.remove(col_j)
        rest = tuple(rest)
        summed = (a_i + a_j, b_i + b_j)
        children.append(RawPoint(chart, tuple(sorted(rest + (col_i, summed))), False))
        children.append(RawPoint(chart, tuple(sorted(rest + (summed,))), False))
        children.append(RawPoint(chart, tuple(sorted(rest + (summed, col_j))), False))
    return [child for child in children if not oracle._raw_principal(child)]


def _spec_apply(state, signature):
    out = []
    for pt in state:
        children = _spec_children(pt, signature)
        out.extend([pt] if children is None else children)
    return tuple(sorted(set(out)))


def _spec_measure(doc):
    columns = list(zip(doc.get("u", ()), doc.get("v", ())))
    d = [a - b for a, b in columns if b < a]
    if doc["form"] == "monomial_pair":
        values = [d_i * (b - a) for d_i in d for a, b in columns if a < b]
    else:
        values = d if doc["form"] == "monomial_free" else []
    top = max(values, default=0)
    return (top, values.count(top))


def _tables_apply(tables, state, signature):
    # The search's id rewrite, read back as points.
    ids = tables.apply(tables.state(state), tables.signature(signature))
    return tuple(sorted(tables.points[i] for i in ids))


@st.composite
def raw_points(draw, chart=None, sort=False):
    k = draw(st.integers(1, 5))
    cols = tuple(draw(st.tuples(st.integers(0, 6), st.integers(0, 6))) for _ in range(k))
    return RawPoint(
        draw(st.integers(1, 2)) if chart is None else chart,
        tuple(sorted(cols)) if sort else cols,
        draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(
    pt=raw_points(),
    state=st.lists(raw_points(chart=1, sort=True), min_size=1, max_size=3),
    form=st.sampled_from(["monomial_free", "monomial_pair", "nested", "monomial_unit"]),
)
def test_column_model_matches_the_models_it_replaced(pt, state, form):
    assert sorted(set(raw_centers(pt))) == _spec_centers(pt)

    state = tuple(sorted(set(state)))
    shared = oracle._Tables()
    for sig in sorted({sig for p in state for sig in raw_centers(p)}):
        for applied in (state, (pt,)):
            assert _tables_apply(oracle._Tables(), applied, sig) == _spec_apply(applied, sig)
            assert _tables_apply(shared, applied, sig) == _spec_apply(applied, sig)

    # verify's strict descent measures an active item once it is parsed
    u, v = [a for a, _ in pt.cols], [b for _, b in pt.cols]
    free_doc = {"form": "monomial_free" if pt.v_free else "monomial_pair", "chart": 1, "u": u, "v": v}
    for doc in (free_doc, {**free_doc, "form": form}):
        try:
            p = presentation_from_doc(doc, (True,), "trace")
        except SchemaError:
            continue
        if not is_principal(p):
            measured = raw_measure(RawPoint(p.chart_index, p.columns(), p.form is Form.MONOMIAL_FREE))
            assert measured == _spec_measure(doc)


# -- the search against the recursion it replaced ------------------------------------
#
# A test-local copy of the former recursive search, reading the specification
# functions above: the explicit-stack search must visit the same states in the
# same order, so results, state counts and overrun paths all agree.  Its
# recursion-limit branch is left out; the depths drawn here never reach it.

def _recursive_search(presentations, bound):
    converted = tuple(sorted({
        RawPoint(p.chart_index, tuple(sorted(p.columns())), p.form is Form.MONOMIAL_FREE)
        for p in presentations
    }))
    root = tuple(pt for pt in converted if not oracle._raw_principal(pt))
    memo = {}
    explored = 0

    def search(state, depth, path):
        nonlocal explored
        signatures = sorted({sig for pt in state for sig in _spec_centers(pt)})
        if not signatures:
            return (0, 0)
        cached = memo.get(state)
        if cached is not None:
            if depth + cached[1] > bound.max_depth:
                raise BoundExceededError(path + (f"... +{cached[1]} more steps",))
            return cached
        if depth >= bound.max_depth:
            raise BoundExceededError(path + (signatures[0],))
        explored += 1
        lo, hi = None, None
        for sig in signatures:
            child_lo, child_hi = search(_spec_apply(state, sig), depth + 1, path + (sig,))
            lo = child_lo if lo is None else min(lo, child_lo)
            hi = child_hi if hi is None else max(hi, child_hi)
        memo[state] = (1 + lo, 1 + hi)
        return memo[state]

    lo, hi = search(root, 0, ())
    return SearchResult(min_depth=lo, max_depth=hi, states_explored=explored)


def _outcome(search, presentations, bound):
    try:
        return search(presentations, bound)
    except BoundExceededError as exc:
        return (exc.path, str(exc))


@settings(max_examples=200, deadline=None)
@given(
    presentations=st.lists(
        st.one_of(free_presentations(max_entry=3, max_k=3), pair_presentations(max_entry=3, max_k=3)),
        min_size=1,
        max_size=3,
    ),
    depth=st.integers(1, 20),
)
def test_search_matches_the_recursion_it_replaced(presentations, depth):
    bound = SearchBound(max_entry=8, max_k=4, max_depth=depth)
    assert _outcome(exhaustive_search, presentations, bound) == _outcome(
        _recursive_search, presentations, bound
    )


def test_search_overrun_through_a_memoised_state():
    # The fourth step reaches a state already searched, whose longest path
    # needs one more step than the bound leaves.
    p = monomial_pair((1, 1, 1), (0, 3, 0), 1)
    bound = SearchBound(8, 4, 4)
    expected = (
        (1, "pair", ((1, 0), (1, 3))),
        (1, "pair", ((1, 0), (2, 3))),
        (1, "pair", ((1, 0), (2, 3))),
        (1, "pair", ((1, 0), (1, 3))),
        "... +1 more steps",
    )
    for search in (exhaustive_search, _recursive_search):
        with pytest.raises(BoundExceededError) as exc:
            search([p], bound)
        assert exc.value.path == expected
        assert str(exc.value) == "search path of length 5 exceeds the depth bound"


# (min_depth, max_depth, states_explored) of every fixture at --depth 32, or
# None where some center order overruns the bound (exit 3).
DEPTH_32 = {
    "all_forms.json": (3, 3, 7),
    "case_two_a.json": (3, 3, 5),
    "comparable_pair.json": (0, 0, 0),
    "euclid.json": (3, 3, 3),
    "free_k2.json": (2, 2, 2),
    "knee.json": (1, 1, 1),
    "matched_pair.json": (3, 3, 3),
    "mixed_charts.json": (6, 6, 23),
    "multi_round.json": (3, 3, 3),
    "multi_round_mixed.json": (5, 5, 23),
    "nested_seed.json": (0, 0, 0),
    "omega_big.json": (7, 7, 7),
    "omega_ladder.json": (4, 4, 4),
    "omega_omega_mixed.json": (6, 6, 15),
    "policy_essential.json": None,
    "power_equal.json": (0, 0, 0),
    "power_seed.json": (0, 0, 0),
    "seed_free.json": (3, 3, 5),
    "smooth.json": (1, 1, 1),
    "three_point.json": (2, 2, 3),
    "three_point_degenerate.json": (1, 1, 1),
    "transverse_multi.json": (2, 2, 3),
    "two_pairs.json": (6, 6, 15),
    "unit_equal.json": (0, 0, 0),
    "unit_power.json": (0, 0, 0),
    "unit_seed.json": (0, 0, 0),
}


def test_depth_pins_cover_every_fixture():
    assert sorted(DEPTH_32) == sorted(f.name for f in FIXTURES.glob("*.json"))


@pytest.mark.parametrize("fixture", sorted(DEPTH_32))
def test_oracle_depth_32_pin(fixture, capsys):
    code = main(["oracle", str(FIXTURES / fixture), "--depth", "32"])
    report = json.loads(capsys.readouterr().out)
    if DEPTH_32[fixture] is None:
        assert (code, report["kind"]) == (3, "depth")
    else:
        assert code == 0
        assert (report["min_depth"], report["max_depth"], report["states_explored"]) == DEPTH_32[fixture]


# -- pins at the scale the benchmark runs --------------------------------------------
#
# Captured from the search before it ran on interned ids.  The Hypothesis
# property above stops at depth 20; these hold the search to its output on
# inputs that reach 15119 states and a 401-step overrun path.

def _scenario_file(tmp_path, n, presentations):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "version": 1, "n": n,
        "charts": [{"q_in_divisor": True}],
        "presentations": [{"chart": 1, **p} for p in presentations],
    }))
    return path


def test_oracle_pin_on_two_free_presentations(tmp_path, capsys):
    path = _scenario_file(tmp_path, 4, [
        {"form": "monomial_free", "u": [8, 7, 6], "v": [0, 0, 0]},
        {"form": "monomial_free", "u": [5, 4], "v": [0, 0]},
    ])
    assert main(["oracle", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["min_depth"], report["max_depth"], report["states_explored"]) == (30, 30, 15119)


# sha256 of the whole exit-3 report of `oracle --depth 400` on the deep pair
DEEP_PAIR_400_SHA256 = "4f34f55179728f4b0903b59c57a5101111740494a0eaf2839f80882c790a382a"


def test_oracle_overrun_report_on_the_deep_pair(tmp_path, capsys):
    path = _scenario_file(tmp_path, 4, [{"form": "monomial_pair", "u": [0, 0, 0, 3], "v": [3, 3, 2, 0]}])
    assert main(["oracle", str(path), "--depth", "400"]) == 3
    out = capsys.readouterr().out
    detail = json.loads(out)["detail"]
    assert detail["message"] == "search path of length 401 exceeds the depth bound"
    assert detail["path"][:2] == ["(1, 'pair', ((3, 0), (0, 2)))", "(1, 'pair', ((3, 0), (0, 3)))"]
    assert detail["path"][-1] == "(1, 'pair', ((582, 581), (585, 586)))"
    assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == (17922, DEEP_PAIR_400_SHA256)
