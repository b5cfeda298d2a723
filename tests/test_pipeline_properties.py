"""Randomized end-to-end properties: driver vs brute-force oracle, and the
run -> trace -> verify round trip, on arbitrary mixed scenarios."""

import itertools
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toroidalize.descent import classify_scenario, reseed
from toroidalize.forms import (
    FormError,
    is_principal,
    monomial_free,
    monomial_pair,
    transverse,
)
from toroidalize.invariants import summarize
from toroidalize.oracle import SearchBound, exhaustive_search
from toroidalize.principalize import (
    Scenario,
    _select_target,
    default_budget,
    make_scenario,
    run,
    step,
    step_lower_bound,
)
from toroidalize.scenario_io import RoundPlan, load_scenario, presentation_to_doc, trace_doc
from toroidalize.transform import ChartPoint
from toroidalize.verify import run_rounds

from conftest import assert_verifies_as_written, free_presentations, pair_presentations, try_pair
from test_acceptance import grid_frees, grid_pairs


@st.composite
def scenarios(draw, max_entry=3, max_presentations=3, max_pair_k=3):
    chart_flags = draw(st.lists(st.booleans(), min_size=1, max_size=2))
    presentations = []
    budget = draw(st.integers(1, max_presentations))
    for index, on_divisor in enumerate(chart_flags, start=1):
        for _ in range(draw(st.integers(0, budget))):
            if not on_divisor:
                presentations.append(transverse(index))
            elif draw(st.booleans()):
                k = draw(st.integers(1, 3))
                u = tuple(draw(st.integers(1, max_entry)) for _ in range(k))
                v = tuple(draw(st.integers(0, a)) for a in u)
                presentations.append(monomial_free(u, v, index))
            else:
                k = draw(st.integers(2, max_pair_k))
                u = tuple(draw(st.integers(0, max_entry)) for _ in range(k))
                v = tuple(draw(st.integers(0, max_entry)) for _ in range(k))
                p = try_pair(u, v, index)
                assume(p is not None)
                presentations.append(p)
    assume(presentations)
    return make_scenario(4, tuple(chart_flags), presentations)


def scenario_to_doc(scenario):
    """Schema-shaped document for an in-memory scenario (single round)."""
    return {
        "version": 1,
        "n": scenario.n,
        "charts": [{"q_in_divisor": flag} for flag in scenario.charts],
        "presentations": [presentation_to_doc(e.presentation) for e in scenario.entries],
    }


@settings(max_examples=40, deadline=None)
@given(scenarios(max_pair_k=2))
def test_policy_run_within_oracle_bounds(scenario):
    # pairs are capped at two columns here: with three or more, some center
    # orders wander forever and the exhaustive tree is not finite
    presentations = [e.presentation for e in scenario.entries]
    result = exhaustive_search(
        presentations, SearchBound(max_entry=16, max_k=4, max_depth=64)
    )
    final = run(scenario, 256)
    assert result.min_depth <= len(final.history) <= result.max_depth
    assert not final.locus()
    assert all(is_principal(e.presentation) for e in final.entries)


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_policy_run_always_terminates(scenario):
    # any column count: the max-first policy terminates even where free
    # center choice need not
    final = run(scenario, 512)
    assert not final.locus()
    assert all(is_principal(e.presentation) for e in final.entries)


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_final_state_passes_full_validation(scenario):
    # step() checks only the descendants it creates; the state it ends in
    # must still pass every check the constructor runs on input.
    final = run(scenario, 512)
    rebuilt = Scenario(
        n=final.n, charts=final.charts, entries=final.entries, next_id=final.next_id
    )
    assert rebuilt.entries == final.entries
    assert rebuilt.locus() == final.locus()


@settings(max_examples=40, deadline=None)
@given(scenarios(max_pair_k=2))
def test_step_lower_bound_never_exceeds_a_real_run(scenario):
    result = exhaustive_search(
        [e.presentation for e in scenario.entries],
        SearchBound(max_entry=16, max_k=4, max_depth=64),
    )
    final = run(scenario, 256)
    assert step_lower_bound(scenario) <= result.min_depth
    # run re-checks the bound on the states it reaches, so it must hold from
    # every one of them: no more than the steps the run still takes
    states = [scenario]
    for _ in final.history:
        states.append(step(states[-1]))
    assert states[-1] == final
    for taken, state in enumerate(states):
        assert step_lower_bound(state) <= len(final.history) - taken


@settings(max_examples=40, deadline=None)
@given(free_presentations())
def test_step_lower_bound_is_exact_for_one_free_presentation(p):
    scenario = make_scenario(p.k + 1, (True,), [p])
    final = run(scenario, 256)
    assert step_lower_bound(scenario) == len(final.history) == sum(a - b for a, b in p.columns())


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_incremental_centers_match_a_full_rebuild(scenario):
    # step() keeps each chart's center records and enumerates centers only
    # for new descendants; every state it passes through must hold the
    # records a from-scratch enumeration of its active entries gives.  The
    # states are read only after the run ends, so a later step must leave
    # every earlier state's views alone.
    final = run(scenario, 512)
    states = [scenario]
    while states[-1].locus():
        states.append(step(states[-1]))
    assert len(states) == len(final.history) + 1
    roots = len(scenario.entries)
    for i, s in enumerate(states):
        prefix = final.history[:i]
        assert s.history == prefix
        grown = sum(len(t.descendants) - len(t.parents) for t in prefix)
        assert len(s.entries) == roots + grown
        rebuilt = Scenario(n=s.n, charts=s.charts, entries=s.entries, next_id=s.next_id)
        assert s.locus() == rebuilt.locus()


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_pipeline_traces_always_verify(scenario):
    plan = RoundPlan(charts=scenario.charts)
    trace = trace_doc(scenario_to_doc(scenario), list(run_rounds(scenario, [plan])))
    assert_verifies_as_written(trace)


@settings(max_examples=40, deadline=None)
@given(pair_presentations(max_entry=9, max_k=5))
def test_monomial_pair_traces_always_verify(p):
    # with three or more columns the chart-wide (maximum, achiever count)
    # can stay level or rise; each descendant's own measure still drops
    scenario = make_scenario(p.k + 1, (True,), [p])
    plan = RoundPlan(charts=scenario.charts)
    assert_verifies_as_written(trace_doc(scenario_to_doc(scenario), list(run_rounds(scenario, [plan]))))


@settings(max_examples=25, deadline=None)
@given(scenarios(), st.integers(1, 2))
def test_multi_round_traces_always_verify(scenario, extra_chart):
    flags = scenario.charts
    flipped = tuple(not f if i + 1 == extra_chart else f for i, f in enumerate(flags))
    assume(len(flags) >= extra_chart)
    plans = [RoundPlan(charts=flags), RoundPlan(charts=flipped)]
    doc = scenario_to_doc(scenario)
    doc["followup_points"] = [
        {"charts": [{"q_in_divisor": f} for f in flipped]}
    ]
    trace = trace_doc(doc, list(run_rounds(scenario, plans)))
    assert_verifies_as_written(trace)


def _smallest_n(charts, presentations):
    for n in range(2, 16):
        try:
            make_scenario(n, charts, presentations)
        except FormError:
            continue
        return n
    raise AssertionError("no ambient dimension below 16 fits")


def assert_every_reseed_is_accepted(scenario, rounds):
    """Run, classify and reseed under every next-round chart pattern, for
    ``rounds`` further rounds; ``make_scenario`` must accept every reseed
    at ``scenario.n``.  Classification options are left out: ``reseed``
    reads only the lifted presentations."""
    final = run(scenario, default_budget(scenario))
    leaves = classify_scenario(final)
    for pattern in itertools.product((False, True), repeat=len(scenario.charts)):
        following = make_scenario(scenario.n, pattern, reseed(leaves, final, pattern))
        if rounds > 1:
            assert_every_reseed_is_accepted(following, rounds - 1)


def _alone(p):
    return make_scenario(p.k + 1, (True,), [p])


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        scenarios(),
        pair_presentations().map(_alone),
        free_presentations().map(_alone),
    )
)
def test_make_scenario_accepts_every_reseed(scenario):
    # verify.run_rounds and the CLI have no failure path for a reseed that
    # make_scenario rejects; this is the property that makes that sound.
    presentations = [e.presentation for e in scenario.entries]
    n = _smallest_n(scenario.charts, presentations)
    assert_every_reseed_is_accepted(make_scenario(n, scenario.charts, presentations), 2)


FIXTURES = Path(__file__).parent / "fixtures"


def assert_descendants_name_their_parents(scenario):
    final = run(scenario, default_budget(scenario))
    assert all(e.parent is None and e.point is None for e in scenario.entries)
    recorded = []
    for s in final.history:
        parent_ids = [pid for pid, _ in s.parents]
        by_parent = {}
        for e in s.descendants:
            assert e.parent in parent_ids
            by_parent.setdefault(e.parent, []).append(e)
        assert list(by_parent) == parent_ids
        for kids in by_parent.values():
            assert [e.point for e in kids] == list(ChartPoint)
            assert [e.id for e in kids] == list(range(kids[0].id, kids[0].id + len(kids)))
        recorded.extend(s.descendants)
    blown_up = {pid for s in final.history for pid, _ in s.parents}
    expected = [e for e in (*scenario.entries, *recorded) if e.id not in blown_up]
    leaves = sorted(final.entries, key=lambda e: e.id)
    assert leaves == expected
    # the leaves are the recorded entries themselves, not rebuilt copies
    assert all(a is b for a, b in zip(leaves, expected))


@pytest.mark.parametrize("name", ["euclid", "three_point", "multi_round"])
def test_fixture_descendants_name_their_parents(name):
    scenario, _, _ = load_scenario(FIXTURES / f"{name}.json")
    assert_descendants_name_their_parents(scenario)


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_descendants_name_their_parents(scenario):
    assert_descendants_name_their_parents(scenario)


def _max_taking_target(records):
    """The target rule as it was before it read its maxima off the chart's
    snapshot: the largest value among the free records, or among all when
    none is free, then the lowest presentation id and its first center."""
    pool = [r for r in records if r.signature[1] == "free"] or records
    best = max(r.value for r in pool)
    return min((r for r in pool if r.value == best), key=attrgetter("presentation_id"))


def assert_steps_follow_the_max_taking_rule(scenario):
    state = scenario
    while locus := state.locus():
        # the chart about to be stepped is the lowest one with centers
        records = tuple(r for r in locus if r.signature[0] == locus[0].signature[0])
        target = _max_taking_target(records)
        assert _select_target(records, summarize(records)) is target
        state = step(state)
        s = state.history[-1]
        assert (s.signature, s.value) == (target.signature, target.value)
        # parents come in blowup-tree order, so the target's need not be first
        assert dict(s.parents)[target.presentation_id] == target.center


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_target_rule_matches_the_max_taking_rule_it_replaced(scenario):
    assert_steps_follow_the_max_taking_rule(scenario)


def test_target_rule_matches_the_max_taking_rule_on_the_acceptance_grids():
    # each pair twice, around a free presentation: ties between ids, and a
    # switch from the 1-point to the 2-point phase
    free = monomial_free((2, 1), (0, 1), 1)
    for k in (2, 3):
        for u, v in grid_pairs(4, k):
            p = monomial_pair(u, v, 1)
            assert_steps_follow_the_max_taking_rule(make_scenario(5, (True,), [p, free, p]))
    for k in (1, 2, 3):
        for u, v in grid_frees(4, k):
            assert_steps_follow_the_max_taking_rule(make_scenario(5, (True,), [monomial_free(u, v, 1)]))
