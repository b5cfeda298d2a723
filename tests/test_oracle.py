"""The brute-force verifiers themselves, pinned first: every derived value
elsewhere in the suite was computed by these."""

import pytest

from toroidalize.forms import monomial_free, monomial_pair, transverse
from toroidalize.oracle import (
    BoundExceededError,
    SearchBound,
    exhaustive_search,
    oracle_principal,
    oracle_rank,
)



def test_oracle_principal_incomparable():
    assert oracle_principal((2, 0), (0, 3)) is False


def test_oracle_principal_componentwise():
    assert oracle_principal((1, 1), (2, 3)) is True


def test_oracle_principal_free_factor_blocks():
    # (x^3, x * y): neither generator divides the other
    assert oracle_principal((3,), (1,), v_free=True) is False
    # but (x^1, x^3 * y) is generated by x
    assert oracle_principal((1,), (3,), v_free=True) is True


def test_oracle_principal_free_on_both_sides():
    assert oracle_principal((1, 0), (0, 1), u_free=True, v_free=True) is False


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
    assert result.all_terminate
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
    final, trace = run(scenario, 64)
    assert [s.value for s in trace.steps] == [9, 9, 6, 2, 1]
    assert not final.locus()
    with pytest.raises(BoundExceededError):
        exhaustive_search([p], SearchBound(max_entry=8, max_k=5, max_depth=64))


def test_search_rejects_out_of_bound_input():
    p = monomial_pair((9, 0), (0, 3), 1)
    with pytest.raises(ValueError):
        exhaustive_search([p], SearchBound(max_entry=8, max_k=4, max_depth=8))
