import re
from collections import Counter

import pytest

from toroidalize import principalize
from toroidalize.descent import reseed
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
    Scenario,
    StepBudgetExceededError,
    default_budget,
    make_scenario,
    run,
    step,
    step_lower_bound,
)

from conftest import column_grid, try_free, try_pair


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
    (trace_step,) = after.history
    assert trace_step.signature[1] == "pair"
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
    assert len(third.history) == 2
    assert first.history == second.history
    assert len(first.history) == 1
    assert step(second) == third
    assert scenario.entries == entries
    assert scenario.next_id == next_id
    assert scenario.history == ()


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
        final = run(scenario, n + 1)
    descendants = sum(len(s.descendants) for s in final.history)
    return calls, len(final.history), descendants


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
    final = run(scenario, 64)
    assert result.min_depth <= len(final.history) <= result.max_depth
    assert not final.locus()
    assert all(is_principal(e.presentation) for e in final.entries)
    values = [s.value for s in final.history]
    assert values == [6, 2, 1]


def test_run_single_unit_drop():
    scenario = make_scenario(3, (True,), [monomial_free((1,), (0,), 1)])
    final = run(scenario, 4)
    assert len(final.history) == 1
    assert final.history[0].before.one_point_max == 1
    assert final.history[0].after.one_point_max == 0


def test_run_already_principal():
    scenario = make_scenario(3, (True,), [monomial_pair((1, 1), (2, 3), 1)])
    final = run(scenario, 4)
    assert final.history == ()
    assert final is scenario
    # a zero budget allows no step, which a principal scenario needs
    assert run(scenario, 0) is scenario
    with pytest.raises(ValueError):
        run(scenario, -1)


def test_run_budget_exceeded():
    with pytest.raises(StepBudgetExceededError) as info:
        run(euclid_scenario(), 2)
    # euclid takes 3 steps; after its first, the lower bound of the state
    # reached (2) proves the budget short.  The error carries the complete
    # state reached, and it is immutable
    reached = info.value.scenario
    assert len(reached.history) == info.value.steps == 1
    assert reached == step(euclid_scenario())
    assert reached.locus()
    with pytest.raises(AttributeError):
        reached.next_id = 0


def test_ladder_drops_by_exactly_one():
    scenario = make_scenario(3, (True,), [monomial_free((5,), (2,), 1)])
    final = run(scenario, 16)
    assert [s.value for s in final.history] == [3, 2, 1]
    for s in final.history:
        assert s.signature[1] == "free"
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
    final = run(scenario, 64)
    classes = [s.signature[1] for s in final.history]
    switch = classes.index("pair")
    assert all(c == "free" for c in classes[:switch])
    assert all(c == "pair" for c in classes[switch:])


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
    final = run(scenario, 64)
    chart_sequence = [s.signature[0] for s in final.history]
    assert chart_sequence == sorted(chart_sequence)
    assert chart_sequence[-1] == 2
    assert final.history[-1].signature[1] == "transverse"


def test_identical_presentations_share_a_step():
    p = monomial_pair((2, 0), (0, 3), 1)
    scenario = make_scenario(3, (True,), [p, p])
    after = step(scenario)
    assert len(after.history[0].parents) == 2
    final = run(scenario, 64)
    assert len(final.history) == 3  # same as a single copy: steps are shared


def test_run_is_deterministic():
    final1 = run(euclid_scenario(), 64)
    final2 = run(euclid_scenario(), 64)
    assert final1.history == final2.history
    assert final1.entries == final2.entries


def test_principality_is_persistent():
    scenario = make_scenario(
        4,
        (True,),
        [monomial_pair((1, 2, 0), (0, 1, 1), 1), monomial_free((3,), (0,), 1)],
    )
    final = run(scenario, 64)
    principal_seen: set[int] = set()
    for s in final.history:
        for pid, _ in s.parents:
            assert pid not in principal_seen
        for d in s.descendants:
            if not d.active:
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
        final = run(scenario, 128)
        assert result.min_depth <= len(final.history) <= result.max_depth


def test_scenario_validation():
    with pytest.raises(FormError):
        make_scenario(3, (False,), [monomial_pair((2, 0), (0, 3), 1)])
    # a chart mismatch names the presentation it was found in
    with pytest.raises(FormError, match="^presentation 1: transverse requires a chart with"):
        make_scenario(3, (True,), [monomial_pair((2, 0), (0, 3), 1), transverse(1)])
    with pytest.raises(FormError):
        make_scenario(2, (True,), [monomial_pair((1, 2, 0), (0, 1, 1), 1)])
    with pytest.raises(FormError):
        Scenario(
            n=3,
            charts=(True,),
            entries=(Entry(0, monomial_pair((2, 0), (0, 3), 1), active=False),),
            next_id=1,
        )


EUCLID_PAIR = monomial_pair((2, 0), (0, 3), 1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Scenario(1, (True,), (Entry(0, EUCLID_PAIR, True),), 1),
         "ambient dimension must be >= 2, got 1"),
        (lambda: Scenario(3, (), (Entry(0, EUCLID_PAIR, True),), 1),
         "scenario needs at least one chart"),
        (lambda: Scenario(3, (True,), (Entry(0, EUCLID_PAIR, True), Entry(0, EUCLID_PAIR, True)), 2),
         "duplicate presentation id 0"),
        (lambda: Scenario(3, (True,), (Entry(1, EUCLID_PAIR, True),), 1),
         "next_id must exceed every existing id"),
        (lambda: Scenario(3, (True,), (Entry(0, monomial_pair((2, 0), (0, 3), 2), True),), 1),
         "presentation 0 references missing chart 2"),
        (lambda: reseed([], euclid_scenario(), (True, True)),
         "next round must describe the same charts"),
    ],
    ids=["n_below_2", "no_charts", "duplicate_id", "id_past_next_id", "missing_chart", "reseed_chart_count"],
)
def test_input_checks_name_what_they_refuse(build, message):
    with pytest.raises(FormError, match=f"^{re.escape(message)}$"):
        build()


def test_history_of_roots_out_of_id_order():
    # Roots listed out of id order.  Ties between target values go to the
    # lowest id although the records keep blowup-tree order: 1 and 3 are
    # blown up before 9, and 16 and 19 before 24, though 9 and 24 come
    # first in the tree.
    roots = (
        Entry(9, monomial_pair((3, 0), (0, 2), 1), True),
        Entry(4, monomial_free((3,), (1,), 1), True),
        Entry(1, monomial_pair((2, 0), (0, 3), 1), True),
        Entry(6, transverse(2), True),
        Entry(3, monomial_pair((2, 0), (0, 3), 1), True),
    )
    final = run(Scenario(4, (True, False), roots, 10), 200)
    A, G, B = "A_ORIGIN", "A_GENERIC", "B_ORIGIN"
    expected = [
        ((1, "free", ((3, 1),)), 2, [(4, (1, None))], [(10, 4, A), (11, 4, G), (12, 4, B)]),
        ((1, "free", ((3, 2),)), 1, [(10, (1, None))], [(13, 10, A), (14, 10, G), (15, 10, B)]),
        ((1, "pair", ((2, 0), (0, 3))), 6, [(1, (1, 2)), (3, (1, 2))],
         [(16, 1, A), (17, 1, G), (18, 1, B), (19, 3, A), (20, 3, G), (21, 3, B)]),
        ((1, "pair", ((3, 0), (0, 2))), 6, [(9, (1, 2))], [(22, 9, A), (23, 9, G), (24, 9, B)]),
        ((1, "pair", ((2, 0), (2, 3))), 2, [(16, (1, 2)), (19, (1, 2))],
         [(25, 16, A), (26, 16, G), (27, 16, B), (28, 19, A), (29, 19, G), (30, 19, B)]),
        ((1, "pair", ((3, 2), (0, 2))), 2, [(24, (1, 2))], [(31, 24, A), (32, 24, G), (33, 24, B)]),
        ((1, "pair", ((4, 3), (2, 3))), 1, [(27, (1, 2)), (30, (1, 2))],
         [(34, 27, A), (35, 27, G), (36, 27, B), (37, 30, A), (38, 30, G), (39, 30, B)]),
        ((1, "pair", ((3, 2), (3, 4))), 1, [(31, (1, 2))], [(40, 31, A), (41, 31, G), (42, 31, B)]),
        ((2, "transverse", ()), 0, [(6, (1, None))], [(43, 6, A), (44, 6, G), (45, 6, B)]),
    ]
    assert [
        (
            s.signature, s.value, [(pid, tuple(c)) for pid, c in s.parents],
            [(e.id, e.parent, e.point.name) for e in s.descendants],
        )
        for s in final.history
    ] == expected
    assert final.next_id == 46


def test_default_budget_positive_and_sufficient():
    scenario = euclid_scenario()
    budget = default_budget(scenario)
    assert budget >= 3
    final = run(scenario, budget)
    assert not final.locus()


def test_step_lower_bound_exact_values():
    assert step_lower_bound(euclid_scenario()) == 2
    for n in (1, 7, 10**12):
        pair = make_scenario(3, (True,), [monomial_pair((1, 0), (0, n), 1)])
        assert step_lower_bound(pair) == n


def test_step_lower_bound_never_exceeds_a_run_small_grid():
    checked = 0
    for k in (1, 2, 3):
        for u, v in column_grid(3, k):
            for p in (try_pair(u, v), try_free(u, v)):
                if p is None or is_principal(p):
                    continue
                scenario = make_scenario(p.k + 1, (True,), [p])
                assert step_lower_bound(scenario) <= len(run(scenario, 512).history), (p.form, u, v)
                checked += 1
    assert checked > 100
