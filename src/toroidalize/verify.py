"""Independent re-validation of recorded traces.

A trace is accepted only if (a) its recorded data satisfies the descent
invariants on its own terms -- strictly decreasing (max, achiever-count)
per phase, closed form families, persistent principality, empty terminal
locus, well-formed templates -- and (b) a deterministic replay from the
embedded scenario reproduces it byte-for-byte.  The first violated
invariant is reported with its round and step index.
"""

from __future__ import annotations

from .descent import NotPrincipalError, classify_scenario, reseed
from .forms import FormError, is_principal
from .principalize import StepBudgetExceededError, make_scenario, run
from .scenario_io import (
    SchemaError,
    presentation_from_doc,
    round_to_doc,
    scenario_from_doc,
    trace_doc,
)


class VerificationError(ValueError):
    def __init__(self, round_index: int, step_index: int | None, invariant: str, message: str) -> None:
        where = f"round {round_index}" + ("" if step_index is None else f", step {step_index}")
        super().__init__(f"{invariant} violated at {where}: {message}")
        self.round_index = round_index
        self.step_index = step_index
        self.invariant = invariant


_CLOSURE = {
    "monomial_free": {"monomial_free", "nested", "monomial_unit"},
    "monomial_pair": {"monomial_pair", "power_unit"},
    "transverse": {"transverse_unit", "transverse_product"},
}

_PHASE_FIELDS = {
    "one_point": ("one_point_max", "one_point_achievers"),
    "two_point": ("two_point_max", "two_point_achievers"),
}


def _presentation(doc: dict, charts: tuple[bool, ...], round_index: int, step_index: int | None):
    try:
        return presentation_from_doc(doc, charts, "trace")
    except SchemaError as exc:
        raise VerificationError(
            round_index, step_index, "well-formedness", exc.reason
        ) from exc


def _check_recorded_round(round_doc: dict, round_index: int) -> None:
    charts = tuple(round_doc["charts"])
    principal_ids: set[int] = set()
    active_ids: set[int] = set()
    seen_ids: set[int] = set()

    for item in round_doc["initial"]:
        pid = item["id"]
        seen_ids.add(pid)
        p = _presentation(item["presentation"], charts, round_index, None)
        if is_principal(p) != item["principal"]:
            raise VerificationError(
                round_index, None, "principality", f"initial presentation {pid} mislabelled"
            )
        (principal_ids if item["principal"] else active_ids).add(pid)

    last_chart = 0
    chart_phase_rank: dict[int, int] = {}
    phase_rank = {"transverse": 1, "one_point": 1, "two_point": 2}

    for step_doc in round_doc["steps"]:
        idx = step_doc["index"]
        chart = step_doc["chart"]
        phase = step_doc["phase"]

        if chart < last_chart:
            raise VerificationError(
                round_index, idx, "chart order", f"chart fell from {last_chart} to {chart}"
            )
        last_chart = chart
        if charts[chart - 1] == (phase == "transverse"):
            raise VerificationError(
                round_index, idx, "phase", f"phase {phase} contradicts chart {chart}'s base point"
            )
        rank = phase_rank[phase]
        if rank < chart_phase_rank.get(chart, 1):
            raise VerificationError(
                round_index, idx, "phase order", "1-point phase resumed after 2-point phase"
            )
        chart_phase_rank[chart] = rank

        before, after = step_doc["before"], step_doc["after"]
        if phase in _PHASE_FIELDS:
            max_key, ach_key = _PHASE_FIELDS[phase]
            b = (before[max_key], before[ach_key])
            a = (after[max_key], after[ach_key])
            if not a < b:
                raise VerificationError(
                    round_index,
                    idx,
                    "strict descent",
                    f"{phase} measure went {b} -> {a}",
                )
            if step_doc["value"] != before[max_key]:
                raise VerificationError(
                    round_index, idx, "phase policy", "target does not achieve the phase maximum"
                )
            if phase == "two_point" and (before["one_point_max"] or after["one_point_max"]):
                raise VerificationError(
                    round_index, idx, "phase order", "2-point phase ran with 1-points remaining"
                )
        else:
            if not after["center_count"] < before["center_count"]:
                raise VerificationError(
                    round_index, idx, "strict descent", "transverse step did not shrink the locus"
                )

        for parent in step_doc["parents"]:
            pid = parent["id"]
            if pid in principal_ids:
                raise VerificationError(
                    round_index, idx, "persistence", f"principal presentation {pid} blown up again"
                )
            if pid not in active_ids:
                raise VerificationError(
                    round_index, idx, "worklist", f"parent {pid} is not an active presentation"
                )
        parent_ids = {parent["id"] for parent in step_doc["parents"]}
        for desc in step_doc["descendants"]:
            did = desc["id"]
            if did in seen_ids:
                raise VerificationError(
                    round_index, idx, "identity", f"descendant id {did} reused"
                )
            seen_ids.add(did)
            if desc["parent"] not in parent_ids:
                raise VerificationError(
                    round_index, idx, "identity", f"descendant {did} cites a non-parent"
                )
            p = _presentation(desc["presentation"], charts, round_index, idx)
            if is_principal(p) != desc["principal"]:
                raise VerificationError(
                    round_index, idx, "principality", f"descendant {did} mislabelled"
                )
            if desc["principal"]:
                principal_ids.add(did)
            else:
                active_ids.add(did)
        active_ids -= parent_ids

    leaf_ids = set()
    for leaf in round_doc["leaves"]:
        leaf_ids.add(leaf["id"])
        p = _presentation(leaf["presentation"], charts, round_index, None)
        if not is_principal(p):
            raise VerificationError(
                round_index, None, "final emptiness", f"leaf {leaf['id']} is not principal"
            )
    if active_ids:
        raise VerificationError(
            round_index, None, "final emptiness", f"active presentations remain: {sorted(active_ids)}"
        )
    if leaf_ids != principal_ids:
        raise VerificationError(
            round_index, None, "identity", "leaf ids disagree with accumulated principal ids"
        )

    classified = {c["id"] for c in round_doc["classification"]}
    if classified != leaf_ids:
        raise VerificationError(
            round_index, None, "classification", "classification does not cover the leaves"
        )


def _check_closure(round_doc: dict, round_index: int, forms_by_id: dict[int, str]) -> None:
    for step_doc in round_doc["steps"]:
        for desc in step_doc["descendants"]:
            parent_form = forms_by_id[desc["parent"]]
            child_form = desc["presentation"]["form"]
            allowed = _CLOSURE.get(parent_form, set())
            if child_form not in allowed:
                raise VerificationError(
                    round_index,
                    step_doc["index"],
                    "closure",
                    f"{parent_form} produced {child_form}",
                )
            forms_by_id[desc["id"]] = child_form


def _replay(trace: dict) -> None:
    try:
        scenario, plans = scenario_from_doc(trace["scenario"])
    except SchemaError as exc:
        raise VerificationError(0, None, "embedded scenario", str(exc)) from exc

    rounds = trace["rounds"]
    if len(rounds) != len(plans):
        raise VerificationError(
            0, None, "rounds", f"trace has {len(rounds)} rounds, scenario plans {len(plans)}"
        )
    current = scenario
    for round_index, (round_doc, plan) in enumerate(zip(rounds, plans)):
        budget = max(len(round_doc["steps"]), 1)
        try:
            final, _ = run(current, budget)
        except StepBudgetExceededError as exc:
            raise VerificationError(
                round_index, None, "replay", f"replay needs more steps than recorded: {exc}"
            ) from exc
        try:
            leaves = classify_scenario(
                final, plan.extra_branch_charts, plan.overrides_dict()
            )
        except (FormError, NotPrincipalError) as exc:
            raise VerificationError(round_index, None, "classification", str(exc)) from exc
        expected = round_to_doc(round_index, current, final, leaves)
        if expected["charts"] != round_doc["charts"]:
            raise VerificationError(round_index, None, "replay", "chart flags differ")
        if expected["initial"] != round_doc["initial"]:
            raise VerificationError(round_index, None, "replay", "initial presentations differ")
        for i, (want, got) in enumerate(zip(expected["steps"], round_doc["steps"])):
            if want != got:
                raise VerificationError(round_index, i, "replay", "step differs from deterministic replay")
        if len(expected["steps"]) != len(round_doc["steps"]):
            raise VerificationError(
                round_index,
                None,
                "replay",
                f"recorded {len(round_doc['steps'])} steps, replay took {len(expected['steps'])}",
            )
        if expected["leaves"] != round_doc["leaves"]:
            raise VerificationError(round_index, None, "replay", "leaves differ")
        if expected["classification"] != round_doc["classification"]:
            raise VerificationError(round_index, None, "replay", "classification differs")
        if round_index + 1 < len(plans):
            next_plan = plans[round_index + 1]
            presentations = reseed(leaves, final, next_plan.charts)
            try:
                current = make_scenario(current.n, next_plan.charts, presentations)
            except FormError as exc:
                raise VerificationError(round_index + 1, None, "reseed", str(exc)) from exc

    if trace["summary"] != trace_doc(trace["scenario"], rounds)["summary"]:
        raise VerificationError(0, None, "summary", "summary totals disagree with rounds")


def verify_trace(trace: dict) -> None:
    """Raise :class:`VerificationError` on the first violated invariant."""
    try:
        for round_index, round_doc in enumerate(trace["rounds"]):
            _check_recorded_round(round_doc, round_index)
            forms_by_id = {
                item["id"]: item["presentation"]["form"] for item in round_doc["initial"]
            }
            _check_closure(round_doc, round_index, forms_by_id)
        _replay(trace)
    except VerificationError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # Schema validation bounds the shape but not cross-references (chart
        # indices, ids); treat dangling references as a verification failure.
        raise VerificationError(0, None, "structure", f"{type(exc).__name__}: {exc}") from exc
