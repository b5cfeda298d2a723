"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  Exhaustive grids enumerate exponent data up to column
permutation (both principality routes and the blowup rules are
column-permutation invariant, which the property suite checks separately);
every tolerance is exact integer comparison.
"""

import copy
import itertools
import json
from functools import lru_cache
from pathlib import Path

from toroidalize.cli import main
from toroidalize.forms import (
    Form,
    FormError,
    is_principal,
    monomial_free,
    monomial_pair,
)
from toroidalize.invariants import centers
from toroidalize.oracle import SearchBound, exhaustive_search, oracle_principal, oracle_rank
from toroidalize.principalize import make_scenario, run
from toroidalize.scenario_io import canonical_dumps
from toroidalize.transform import blowup

FIXTURES = Path(__file__).parent / "fixtures"
TEMPLATES = {"free_coordinate", "power_unit", "monomial_pair"}


def report(criterion, description):
    print(f"ACCEPTANCE {criterion} ({description}): PASS")


@lru_cache(maxsize=None)
def grid_pairs(max_entry, k):
    """Valid rank-2 monomial pairs with entries <= max_entry, one per column multiset."""
    cols = list(itertools.product(range(max_entry + 1), repeat=2))
    out = []
    for combo in itertools.combinations_with_replacement(cols, k):
        u = tuple(a for a, _ in combo)
        v = tuple(b for _, b in combo)
        try:
            monomial_pair(u, v, 1)
        except FormError:
            continue
        out.append((u, v))
    return out


@lru_cache(maxsize=None)
def grid_frees(max_entry, k):
    """Valid free-coordinate shapes with entries <= max_entry, one per column multiset."""
    cols = [
        (a, b)
        for a in range(1, max_entry + 1)
        for b in range(a + 1)
    ]
    out = []
    for combo in itertools.combinations_with_replacement(cols, k):
        u = tuple(a for a, _ in combo)
        v = tuple(b for _, b in combo)
        out.append((u, v))
    return out


def test_criterion_1_one_point_exact_drop():
    for a in range(2, 9):
        for b in range(1, a):
            scenario = make_scenario(3, (True,), [monomial_free((a,), (b,), 1)])
            final = run(scenario, 64)
            assert len(final.history) == a - b, (a, b)
            assert [s.value for s in final.history] == list(range(a - b, 0, -1))
            for s in final.history:
                assert s.signature[1] == "free"
                assert s.after.one_point_max == s.before.one_point_max - 1
            assert not final.locus()
    report(1, "1-point invariant drops by exactly 1 per step, zero in a-b steps")


def test_criterion_2_two_point_strict_descent():
    bound = SearchBound(max_entry=64, max_k=4, max_depth=64)
    checked = 0
    for data in itertools.product(range(6), repeat=4):
        a1, b1, a2, b2 = data
        try:
            p = monomial_pair((a1, a2), (b1, b2), 1)
        except FormError:
            continue
        if is_principal(p):
            continue
        checked += 1
        search = exhaustive_search([p], bound)
        scenario = make_scenario(3, (True,), [p])
        final = run(scenario, search.max_depth)
        assert len(final.history) <= search.max_depth
        for index, s in enumerate(final.history):
            assert s.signature[1] == "pair"
            for d in s.descendants:
                if not d.active:
                    continue
                child_max = max(value for _, _, value in centers(d.presentation))
                assert child_max < s.before.two_point_max, (data, index)
        assert not final.locus()
    assert checked > 100
    report(2, f"2-point invariant strictly descends on {checked} exhaustive scenarios")


def test_criterion_3_oracle_equivalence():
    cases = 0
    for k in (2, 3, 4):
        for u, v in grid_pairs(6, k):
            p = monomial_pair(u, v, 1)
            assert is_principal(p) == oracle_principal(u, v), (u, v)
            cases += 1
    for k in (1, 2, 3, 4):
        for u, v in grid_frees(6, k):
            p = monomial_free(u, v, 1)
            assert is_principal(p) == oracle_principal(u, v, v_free=True), (u, v)
            cases += 1
    assert cases >= 100_000
    report(3, f"engine principality equals divisibility oracle on {cases} grid cases")


def test_criterion_4_closure_of_form_families():
    allowed = {
        Form.MONOMIAL_FREE: {Form.MONOMIAL_FREE, Form.NESTED, Form.MONOMIAL_UNIT},
        Form.MONOMIAL_PAIR: {Form.MONOMIAL_PAIR, Form.POWER_UNIT},
    }
    descendants_checked = 0
    for k in (2, 3, 4):
        for u, v in grid_pairs(6, k):
            p = monomial_pair(u, v, 1)
            for c, _, _ in centers(p):
                for child in blowup(p, c).descendants:
                    assert child.form in allowed[Form.MONOMIAL_PAIR]
                    if not is_principal(child):
                        assert child.form is Form.MONOMIAL_PAIR
                    descendants_checked += 1
    for k in (1, 2, 3, 4):
        for u, v in grid_frees(6, k):
            p = monomial_free(u, v, 1)
            for c, _, _ in centers(p):
                for child in blowup(p, c).descendants:
                    assert child.form in allowed[Form.MONOMIAL_FREE]
                    if not is_principal(child):
                        assert child.form is Form.MONOMIAL_FREE
                    descendants_checked += 1
    report(4, f"non-principal descendants stay in their form family ({descendants_checked} blowup images)")


@lru_cache(maxsize=None)
def _fixture_traces(tmp_root=str(Path("/tmp/toroidalize-acceptance"))):
    root = Path(tmp_root)
    root.mkdir(exist_ok=True)
    traces = {}
    for fixture in sorted(FIXTURES.glob("*.json")):
        out = root / f"{fixture.stem}.trace.json"
        code = main(["run", str(fixture), "-o", str(out)])
        assert code == 0, f"{fixture.name} exited {code}"
        traces[fixture.name] = json.loads(out.read_text())
    return traces


def test_criterion_5_end_to_end_toroidality():
    traces = _fixture_traces()
    assert len(traces) >= 20
    # required coverage
    assert "three_point.json" in traces and "three_point_degenerate.json" in traces
    assert "mixed_charts.json" in traces and "power_seed.json" in traces
    for name, trace in traces.items():
        for round_doc in trace["rounds"]:
            charts = round_doc["charts"]
            for leaf in round_doc["classification"]:
                outcome = leaf["outcome"]
                if charts[leaf["chart"] - 1]:
                    assert outcome in TEMPLATES, (name, leaf)
                else:
                    assert outcome in TEMPLATES | {"smooth"}, (name, leaf)
                if outcome == "smooth":
                    assert leaf["e_branches"] == 0, (name, leaf)
                    continue
                t = leaf["template"]
                if outcome == "free_coordinate":
                    assert t["row"] and all(e > 0 for e in t["row"])
                elif outcome == "power_unit":
                    assert t["base"] and all(g > 0 for g in t["base"])
                    assert t["power_u"] > 0 and t["power_v"] > 0
                else:
                    assert oracle_rank(t["u"], t["v"]) == 2
                    assert all(a + b > 0 for a, b in zip(t["u"], t["v"]))
    report(5, f"{len(traces)} scenarios classify every leaf toroidally")


def test_criterion_6_principality_persistence():
    traces = _fixture_traces()
    for name, trace in traces.items():
        for round_doc in trace["rounds"]:
            principal = {
                item["id"] for item in round_doc["initial"] if item["principal"]
            }
            for step in round_doc["steps"]:
                for parent in step["parents"]:
                    assert parent["id"] not in principal, (name, step["index"])
                for desc in step["descendants"]:
                    if desc["principal"]:
                        principal.add(desc["id"])
            leaf_ids = {leaf["id"] for leaf in round_doc["leaves"]}
            assert principal == leaf_ids, name
    report(6, "presentations marked principal never re-enter the worklist")


def test_criterion_7_determinism_and_round_trip(tmp_path):
    for fixture in sorted(FIXTURES.glob("*.json")):
        first = tmp_path / f"{fixture.stem}.1.json"
        second = tmp_path / f"{fixture.stem}.2.json"
        assert main(["run", str(fixture), "-o", str(first)]) == 0
        assert main(["run", str(fixture), "-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), fixture.name
        assert main(["verify", str(first)]) == 0, fixture.name

    base = json.loads((tmp_path / "euclid.1.json").read_text())
    corruptions = []
    doc = copy.deepcopy(base)
    doc["rounds"][0]["steps"][1]["after"]["two_point_max"] = 7
    corruptions.append(doc)
    doc = copy.deepcopy(base)
    doc["rounds"][0]["steps"] = doc["rounds"][0]["steps"][:-1]
    doc["summary"]["steps"] -= 1
    corruptions.append(doc)
    doc = copy.deepcopy(base)
    doc["rounds"][0]["steps"][0]["descendants"][0]["presentation"]["form"] = "nested"
    corruptions.append(doc)
    for i, doc in enumerate(corruptions):
        path = tmp_path / f"corrupt.{i}.json"
        path.write_text(canonical_dumps(doc))
        assert main(["verify", str(path)]) != 0, i
    report(7, "byte-identical reruns, verified round trips, tampering detected")
