"""Randomized end-to-end properties: driver vs brute-force oracle, and the
run -> trace -> verify round trip, on arbitrary mixed scenarios."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toroidalize.cli import run_pipeline
from toroidalize.forms import (
    is_principal,
    monomial_free,
    transverse,
)
from toroidalize.oracle import SearchBound, exhaustive_search
from toroidalize.principalize import Scenario, make_scenario, run, step, step_lower_bound
from toroidalize.scenario_io import RoundPlan, scenario_to_doc
from toroidalize.verify import verify_trace

from conftest import free_presentations, try_pair


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


@settings(max_examples=40, deadline=None)
@given(scenarios(max_pair_k=2))
def test_policy_run_within_oracle_bounds(scenario):
    # pairs are capped at two columns here: with three or more, some center
    # orders wander forever and the exhaustive tree is not finite
    presentations = [e.presentation for e in scenario.entries]
    result = exhaustive_search(
        presentations, SearchBound(max_entry=16, max_k=4, max_depth=64)
    )
    final, trace = run(scenario, 256)
    assert result.min_depth <= len(trace.steps) <= result.max_depth
    assert not final.locus()
    assert all(is_principal(e.presentation) for e in final.entries)


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_policy_run_always_terminates(scenario):
    # any column count: the max-first policy terminates even where free
    # center choice need not
    final, trace = run(scenario, 512)
    assert not final.locus()
    assert all(is_principal(e.presentation) for e in final.entries)


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_final_state_passes_full_validation(scenario):
    # step() checks only the descendants it creates; the state it ends in
    # must still pass every check the constructor runs on input.
    final, _ = run(scenario, 512)
    rebuilt = Scenario(
        n=final.n, charts=final.charts, entries=final.entries, next_id=final.next_id
    )
    assert rebuilt.entries == final.entries
    assert rebuilt.locus() == final.locus()


@settings(max_examples=40, deadline=None)
@given(scenarios(max_pair_k=2))
def test_step_lower_bound_never_exceeds_a_real_run(scenario):
    bound = step_lower_bound(scenario)
    result = exhaustive_search(
        [e.presentation for e in scenario.entries],
        SearchBound(max_entry=16, max_k=4, max_depth=64),
    )
    _, trace = run(scenario, 256)
    assert bound <= result.min_depth
    assert bound <= len(trace.steps)


@settings(max_examples=40, deadline=None)
@given(free_presentations())
def test_step_lower_bound_is_exact_for_one_free_presentation(p):
    scenario = make_scenario(p.k + 1, (True,), [p])
    _, trace = run(scenario, 256)
    assert step_lower_bound(scenario) == len(trace.steps) == sum(a - b for a, b in p.columns())


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_incremental_centers_match_a_full_rebuild(scenario):
    # step() keeps each chart's center records and enumerates centers only
    # for new descendants; every state it passes through must hold the
    # records a from-scratch enumeration of its active entries gives.  The
    # states are read only after the run ends, so a later step must leave
    # every earlier state's views alone.
    _, trace = run(scenario, 512)
    states = [scenario]
    while states[-1].locus():
        states.append(step(states[-1]))
    assert len(states) == len(trace.steps) + 1
    roots = len(scenario.entries)
    for i, s in enumerate(states):
        prefix = trace.steps[:i]
        assert s.history.steps == prefix
        grown = sum(len(t.descendants) - len(t.parents) for t in prefix)
        assert len(s.entries) == roots + grown
        rebuilt = Scenario(n=s.n, charts=s.charts, entries=s.entries, next_id=s.next_id)
        assert s.locus() == rebuilt.locus()


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_pipeline_traces_always_verify(scenario):
    plan = RoundPlan(charts=scenario.charts)
    trace = run_pipeline(scenario, [plan], scenario_to_doc(scenario))
    verify_trace(trace)


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
    trace = run_pipeline(scenario, plans, doc)
    verify_trace(trace)
