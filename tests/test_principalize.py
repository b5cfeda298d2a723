from collections import Counter

import pytest

from toroidalize import principalize
from toroidalize.forms import (
    Form,
    FormError,
    is_principal,
    monomial_free,
    monomial_pair,
    transverse,
)
from toroidalize.oracle import SearchBound, exhaustive_search
from toroidalize.principalize import (
    Entry,
    NoCenterError,
    Phase,
    Scenario,
    StepBudgetExceededError,
    default_budget,
    make_scenario,
    run,
    step,
)



def euclid_scenario():
    return make_scenario(3, (True,), [monomial_pair((2, 0), (0, 3), 1)])


def test_step_replaces_parent_with_descendants():
    after = step(euclid_scenario())
    active = [(e.presentation.u_row, e.presentation.v_row) for e in after.entries if e.active]
    assert active == [((2, 2), (0, 3))]
    logged = [
        (e.presentation.form, e.presentation.u_row, e.presentation.v_row)
        for e in after.entries
        if not e.active
    ]
    # the second-chart image (2,0),(3,3) comes out principal and leaves the
    # worklist immediately, as does the power-pair collapse
    assert (Form.MONOMIAL_PAIR, (2, 0), (3, 3)) in logged
    assert any(form is Form.POWER_UNIT for form, _, _ in logged)
    assert all(e.id != 0 for e in after.entries)


def test_step_records_invariants():
    after = step(euclid_scenario())
    (trace_step,) = after.history.steps
    assert trace_step.phase is Phase.TWO_POINT
    assert trace_step.value == 6
    assert trace_step.before.two_point_max == 6
    assert trace_step.after.two_point_max == 2


def test_step_is_pure():
    scenario = make_scenario(
        4,
        (True,),
        [monomial_pair((2, 0), (0, 3), 1), monomial_free((3,), (1,), 1)],
    )
    entries, next_id = scenario.entries, scenario.next_id
    first = step(scenario)
    second = step(scenario)
    assert first == second
    assert first is not second
    # stepping on from one successor leaves its sibling and the origin alone
    third = step(first)
    assert len(third.history.steps) == 2
    assert first.history == second.history
    assert len(first.history.steps) == 1
    assert step(second) == third
    assert scenario.entries == entries
    assert scenario.next_id == next_id
    assert scenario.history.steps == ()


def _counted_ladder(monkeypatch, n):
    calls = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    scenario = make_scenario(2, (True,), [monomial_free((n,), (0,), 1)])
    with monkeypatch.context() as m:
        for name in ("is_principal", "locus_report"):
            m.setattr(principalize, name, counting(name, getattr(principalize, name)))
        final, trace = run(scenario, n + 1)
    descendants = sum(len(s.descendants) for s in trace.steps)
    return calls, len(trace.steps), descendants


def test_step_work_does_not_grow_with_leaf_count(monkeypatch):
    # A 1-point ladder u = x^N adds two principal leaves per step; the work
    # of one step must not depend on how many leaves exist already.
    per_descendant = []
    for n in (50, 400):
        calls, steps, descendants = _counted_ladder(monkeypatch, n)
        assert steps == n
        assert calls["locus_report"] <= steps + 1
        per_descendant.append(calls["is_principal"] / descendants)
    assert per_descendant[0] == per_descendant[1] == 1


def test_step_requires_a_center():
    scenario = make_scenario(3, (True,), [monomial_pair((1, 1), (2, 3), 1)])
    with pytest.raises(NoCenterError):
        step(scenario)


def test_run_euclid_terminates_within_oracle_depth():
    scenario = euclid_scenario()
    result = exhaustive_search(
        [e.presentation for e in scenario.entries], SearchBound(8, 4, 32)
    )
    final, trace = run(scenario, 64)
    assert result.min_depth <= len(trace.steps) <= result.max_depth
    assert not final.locus()
    assert all(is_principal(e.presentation) for e in final.entries)
    values = [s.value for s in trace.steps]
    assert values == [6, 2, 1]


def test_run_single_unit_drop():
    scenario = make_scenario(3, (True,), [monomial_free((1,), (0,), 1)])
    final, trace = run(scenario, 4)
    assert len(trace.steps) == 1
    assert trace.steps[0].before.one_point_max == 1
    assert trace.steps[0].after.one_point_max == 0


def test_run_already_principal():
    scenario = make_scenario(3, (True,), [monomial_pair((1, 1), (2, 3), 1)])
    final, trace = run(scenario, 4)
    assert trace.steps == ()
    assert final is scenario


def test_run_budget_exceeded():
    with pytest.raises(StepBudgetExceededError) as info:
        run(euclid_scenario(), 1)
    # the error carries the complete state reached, and it is immutable
    reached = info.value.scenario
    assert len(reached.history.steps) == info.value.steps == 1
    assert reached == step(euclid_scenario())
    assert reached.locus()
    with pytest.raises(AttributeError):
        reached.next_id = 0


def test_ladder_drops_by_exactly_one():
    scenario = make_scenario(3, (True,), [monomial_free((5,), (2,), 1)])
    final, trace = run(scenario, 16)
    assert [s.value for s in trace.steps] == [3, 2, 1]
    for s in trace.steps:
        assert s.phase is Phase.ONE_POINT
        assert s.after.one_point_max == s.before.one_point_max - 1


def test_phase_order_one_point_before_two_point():
    scenario = make_scenario(
        4,
        (True,),
        [
            monomial_pair((2, 0), (0, 3), 1),
            monomial_free((4,), (1,), 1),
        ],
    )
    final, trace = run(scenario, 64)
    phases = [s.phase for s in trace.steps]
    switch = phases.index(Phase.TWO_POINT)
    assert all(p is Phase.ONE_POINT for p in phases[:switch])
    assert all(p is Phase.TWO_POINT for p in phases[switch:])


def test_charts_processed_in_index_order():
    charts = (True, False)
    scenario = make_scenario(
        4,
        charts,
        [
            transverse(2),
            monomial_pair((2, 0), (0, 3), 1),
        ],
    )
    final, trace = run(scenario, 64)
    chart_sequence = [s.chart_index for s in trace.steps]
    assert chart_sequence == sorted(chart_sequence)
    assert chart_sequence[-1] == 2
    assert trace.steps[-1].phase is Phase.TRANSVERSE


def test_identical_presentations_share_a_step():
    p = monomial_pair((2, 0), (0, 3), 1)
    scenario = make_scenario(3, (True,), [p, p])
    after = step(scenario)
    assert len(after.history.steps[0].parents) == 2
    final, trace = run(scenario, 64)
    assert len(trace.steps) == 3  # same as a single copy: steps are shared


def test_run_is_deterministic():
    final1, trace1 = run(euclid_scenario(), 64)
    final2, trace2 = run(euclid_scenario(), 64)
    assert trace1 == trace2
    assert final1.entries == final2.entries


def test_principality_is_persistent():
    scenario = make_scenario(
        4,
        (True,),
        [monomial_pair((1, 2, 0), (0, 1, 1), 1), monomial_free((3,), (0,), 1)],
    )
    final, trace = run(scenario, 64)
    principal_seen: set[int] = set()
    for s in trace.steps:
        for pid, _ in s.parents:
            assert pid not in principal_seen
        for d in s.descendants:
            if d.principal:
                principal_seen.add(d.id)
    leaf_ids = {e.id for e in final.entries}
    assert principal_seen <= leaf_ids


def test_policy_depth_within_oracle_bounds():
    cases = [
        [monomial_pair((3, 0), (0, 2), 1)],
        [monomial_free((4,), (1,), 1)],
        [monomial_pair((1, 2, 0), (0, 1, 1), 1)],
        [monomial_pair((2, 1), (1, 2), 1)],
    ]
    for presentations in cases:
        scenario = make_scenario(4, (True,), list(presentations))
        result = exhaustive_search(presentations, SearchBound(12, 4, 32))
        final, trace = run(scenario, 128)
        assert result.min_depth <= len(trace.steps) <= result.max_depth


def test_scenario_validation():
    with pytest.raises(FormError):
        make_scenario(3, (False,), [monomial_pair((2, 0), (0, 3), 1)])
    with pytest.raises(FormError):
        make_scenario(2, (True,), [monomial_pair((1, 2, 0), (0, 1, 1), 1)])
    with pytest.raises(FormError):
        Scenario(
            n=3,
            charts=(True,),
            entries=(Entry(0, monomial_pair((2, 0), (0, 3), 1), active=False),),
            next_id=1,
        )


def test_default_budget_positive_and_sufficient():
    scenario = euclid_scenario()
    budget = default_budget(scenario)
    assert budget >= 3
    final, trace = run(scenario, budget)
    assert not final.locus()
