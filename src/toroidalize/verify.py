"""Independent re-validation of recorded traces, and the round loop that
both ``run`` and the replay go through.

A trace is accepted only if (a) its recorded data satisfies the descent
invariants on its own terms -- every non-principal descendant's (largest
center value, number of centers at it) strictly below its parent's, read
off its parsed columns by the engine-independent column model that the
oracle's search also runs on; phase maxima that never rise; closed form
families; persistent principality; empty terminal locus; well-formed
templates -- and (b) the embedded scenario passes the scenario-file
schema and :func:`run_rounds`, replayed from it with each round's recorded
step count as its budget, reproduces every round document whole.  The
first violated invariant is reported with its round and step index.
Each recorded presentation is parsed once, on admission, and every check
reads its ``(principal, presentation)`` ledger entry; the checks leave the
presentation document's layout to ``scenario_io``'s parser (``cli`` reads
its fields too, but only to render the text report).

``toroidalize verify`` runs these checks before the trace schema, and
accepts a trace only when the trace :func:`verify_trace` regenerates is
:func:`same_json` as the one it read; only otherwise does the full trace
schema run.  :func:`same_json` says why that keeps every verdict.
"""

from __future__ import annotations

from typing import Iterator

from .descent import classify_scenario, reseed
from .forms import Form, FormError, NoTemplateMatchError, is_principal
from .oracle import RawPoint, raw_measure
from .principalize import (
    Scenario,
    StepBudgetExceededError,
    default_budget,
    make_scenario,
    run,
)
from .scenario_io import (
    _TYPES,
    RoundPlan,
    SchemaError,
    check_schema,
    presentation_from_doc,
    round_to_doc,
    scenario_from_doc,
    trace_doc,
)


class RoundError(RuntimeError):
    """Round ``round_index`` of :func:`run_rounds` failed at ``stage``
    (``budget`` or ``classification``).  The engine error is the
    ``__cause__`` and lends its message."""

    def __init__(self, round_index: int, stage: str, cause: Exception) -> None:
        super().__init__(str(cause))
        self.round_index = round_index
        self.stage = stage


def run_rounds(
    scenario: Scenario,
    plans: list[RoundPlan],
    budgets: list[int] | None = None,
) -> Iterator[dict]:
    """Principalize, lift and classify each planned round; yield its trace
    document in order.

    Round i may take ``budgets[i]`` steps, or :func:`default_budget` of its
    scenario when ``budgets`` is None.  Its leaves reseed round i + 1 only
    when the next document is asked for; ``make_scenario`` accepts every
    reseed, whose templates need no more coordinates than their leaves.
    """
    current = scenario
    for round_index, plan in enumerate(plans):
        if round_index:
            current = make_scenario(current.n, plan.charts, reseed(leaves, final, plan.charts))
        budget = default_budget(current) if budgets is None else budgets[round_index]
        try:
            final = run(current, budget)
        except StepBudgetExceededError as exc:
            raise RoundError(round_index, "budget", exc) from exc
        try:
            leaves = classify_scenario(final, plan.extra_branch_charts, dict(plan.branch_overrides))
        except (NoTemplateMatchError, FormError) as exc:
            raise RoundError(round_index, "classification", exc) from exc
        yield round_to_doc(round_index, current, final, leaves)


class VerificationError(ValueError):
    def __init__(self, round_index: int, step_index: int | None, invariant: str, message: str) -> None:
        where = f"round {round_index}" + ("" if step_index is None else f", step {step_index}")
        super().__init__(f"{invariant} violated at {where}: {message}")
        self.round_index = round_index
        self.step_index = step_index
        self.invariant = invariant


_CLOSURE = {
    Form.MONOMIAL_FREE: {Form.MONOMIAL_FREE, Form.NESTED, Form.MONOMIAL_UNIT},
    Form.MONOMIAL_PAIR: {Form.MONOMIAL_PAIR, Form.POWER_UNIT},
    Form.TRANSVERSE: {Form.TRANSVERSE_UNIT, Form.TRANSVERSE_PRODUCT},
}

# Each trace phase's rank in a chart's phase order and the ``before`` and
# ``after`` key of its maximum; a transverse step shrinks the locus instead.
_PHASES = {
    "transverse": (1, None),
    "one_point": (1, "one_point_max"),
    "two_point": (2, "two_point_max"),
}


def _check_round(round_doc: dict, round_index: int) -> None:
    """Read a recorded round once: initial items, then steps, then leaves.

    Every initial item and every descendant is admitted on one path: its
    presentation is parsed once (``well-formedness``), its ``principal``
    label checked, and ``(principal, presentation)`` kept in ``ledger``
    under its id; an active item also enters ``active``, the map from each
    id still on the worklist to its (largest center value, count) measure.
    Persistence, the step chart (each parent lies in it, each descendant in
    its parent's chart), closure and strict descent all read these entries,
    and each leaf must repeat the presentation recorded under its id.
    A round passes only if every active item becomes a parent, so each
    measure is taken once and used.  An active transverse item's measure is
    never compared: closure and principality reject any non-principal child
    of a transverse parent first.
    """
    charts = tuple(round_doc["charts"])
    ledger: dict[int, tuple] = {}  # id -> (principal, presentation)
    active: dict[int, tuple[int, int]] = {}

    def parse(doc: dict, step_index: int | None):
        try:
            return presentation_from_doc(doc, charts, "trace")
        except SchemaError as exc:
            raise VerificationError(round_index, step_index, "well-formedness", exc.reason) from exc

    def admit(item: dict, step_index: int | None, what: str):
        pid = item["id"]
        p = parse(item["presentation"], step_index)
        principal = item["principal"]
        if is_principal(p) != principal:
            raise VerificationError(round_index, step_index, "principality", f"{what} {pid} mislabelled")
        ledger[pid] = (principal, p)
        if not principal:
            active[pid] = raw_measure(RawPoint(p.chart_index, p.columns(), p.form is Form.MONOMIAL_FREE))
        return p

    for item in round_doc["initial"]:
        admit(item, None, "initial presentation")

    last_chart = 0
    floor = 1  # the lowest phase rank the current chart may still take

    for step_doc in round_doc["steps"]:
        idx = step_doc["index"]
        chart = step_doc["chart"]
        phase = step_doc["phase"]

        # the schema's integer rule, as a presentation's chart is read
        if type(chart) is not int:
            if not _TYPES["integer"](chart):
                raise VerificationError(
                    round_index, idx, "well-formedness", f"{chart!r} is not of type 'integer'"
                )
            chart = int(chart)
        if not 1 <= chart <= len(charts):
            raise VerificationError(
                round_index, idx, "step chart",
                f"step chart {chart} is not one of charts 1..{len(charts)}",
            )
        if chart < last_chart:
            raise VerificationError(
                round_index, idx, "chart order", f"chart fell from {last_chart} to {chart}"
            )
        if chart != last_chart:
            last_chart, floor = chart, 1
        if charts[chart - 1] == (phase == "transverse"):
            raise VerificationError(
                round_index, idx, "phase", f"phase {phase} contradicts chart {chart}'s base point"
            )
        rank, max_key = _PHASES[phase]
        if rank < floor:
            raise VerificationError(
                round_index, idx, "phase order", "1-point phase resumed after 2-point phase"
            )
        floor = rank

        before, after = step_doc["before"], step_doc["after"]
        if max_key is not None:
            if after[max_key] > before[max_key]:
                raise VerificationError(
                    round_index, idx, "strict descent",
                    f"{phase} maximum rose from {before[max_key]} to {after[max_key]}",
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

        parent_ids = {parent["id"] for parent in step_doc["parents"]}
        for parent in step_doc["parents"]:
            pid = parent["id"]
            if pid in ledger and ledger[pid][0]:
                raise VerificationError(
                    round_index, idx, "persistence", f"principal presentation {pid} blown up again"
                )
            if pid not in active:
                raise VerificationError(
                    round_index, idx, "worklist", f"parent {pid} is not an active presentation"
                )
            parent_chart = ledger[pid][1].chart_index
            if parent_chart != chart:
                raise VerificationError(
                    round_index, idx, "step chart",
                    f"parent {pid} lies in chart {parent_chart}, not in the step's chart {chart}",
                )
        for desc in step_doc["descendants"]:
            did = desc["id"]
            if did in ledger:
                raise VerificationError(
                    round_index, idx, "identity", f"descendant id {did} reused"
                )
            parent_id = desc["parent"]
            if parent_id not in parent_ids:
                raise VerificationError(
                    round_index, idx, "identity", f"descendant {did} cites a non-parent"
                )
            child = admit(desc, idx, "descendant")
            parent = ledger[parent_id][1]
            if child.chart_index != parent.chart_index:
                raise VerificationError(
                    round_index, idx, "step chart",
                    f"descendant {did} lies in chart {child.chart_index}, "
                    f"not in its parent's chart {parent.chart_index}",
                )
            if child.form not in _CLOSURE.get(parent.form, ()):
                raise VerificationError(
                    round_index, idx, "closure", f"{parent.form.value} produced {child.form.value}"
                )
            if did in active and not active[did] < active[parent_id]:
                raise VerificationError(
                    round_index, idx, "strict descent",
                    f"descendant {did} measure {active[did]} not below its parent's {active[parent_id]}",
                )
        for pid in parent_ids:
            del active[pid]

    leaf_ids: dict[int, None] = {}  # in recorded order
    for leaf in round_doc["leaves"]:
        lid = leaf["id"]
        if lid in leaf_ids:
            raise VerificationError(round_index, None, "identity", f"leaf id {lid} repeated")
        leaf_ids[lid] = None
        p = parse(leaf["presentation"], None)
        if not is_principal(p):
            raise VerificationError(round_index, None, "final emptiness", f"leaf {lid} is not principal")
        # an id the ledger lacks fails the leaf-id comparison below
        if lid in ledger and ledger[lid][1] != p:
            raise VerificationError(
                round_index, None, "identity", f"leaf {lid} differs from its recorded presentation"
            )
    if active:
        raise VerificationError(
            round_index, None, "final emptiness", f"active presentations remain: {sorted(active)}"
        )
    if leaf_ids.keys() != {pid for pid, (principal, _) in ledger.items() if principal}:
        raise VerificationError(
            round_index, None, "identity", "leaf ids disagree with accumulated principal ids"
        )
    if [c["id"] for c in round_doc["classification"]] != list(leaf_ids):
        raise VerificationError(
            round_index, None, "classification", "classification does not cover the leaves"
        )


def _replay(trace: dict) -> dict:
    try:
        check_schema(trace["scenario"], "scenario.schema.json")
        scenario, plans = scenario_from_doc(trace["scenario"])
    except SchemaError as exc:
        raise VerificationError(0, None, "embedded scenario", str(exc)) from exc

    rounds = trace["rounds"]
    if len(rounds) != len(plans):
        raise VerificationError(
            0, None, "rounds", f"trace has {len(rounds)} rounds, scenario plans {len(plans)}"
        )
    replayed = run_rounds(scenario, plans, [len(round_doc["steps"]) for round_doc in rounds])
    expected_rounds = []
    try:
        for round_index, (round_doc, expected) in enumerate(zip(rounds, replayed)):
            _compare_round(expected, round_doc, round_index)
            expected_rounds.append(expected)
    except RoundError as exc:
        if exc.stage == "budget":
            invariant, message = "replay", f"replay needs more steps than recorded: {exc}"
        else:
            invariant, message = exc.stage, str(exc)
        raise VerificationError(exc.round_index, None, invariant, message) from exc.__cause__

    regenerated = trace_doc(trace["scenario"], expected_rounds)
    if trace["summary"] != regenerated["summary"]:
        raise VerificationError(0, None, "summary", "summary totals disagree with rounds")
    return regenerated


def _compare_round(expected: dict, round_doc: dict, round_index: int) -> None:
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
    if expected != round_doc:
        raise VerificationError(round_index, None, "replay", "round document differs")


def verify_trace(trace: dict) -> dict:
    """Raise :class:`VerificationError` on the first violated invariant.

    Otherwise return the trace its embedded scenario regenerates: that
    scenario document, the replayed round documents and their summary.
    ``trace`` need not have passed the trace schema: a dangling reference,
    or a node no check can read, is reported as a violation too.  But an
    int written as ``true`` or ``1.0`` passes wherever ``==`` equates the
    two, as with a step's ``value`` or a parent id; only ``cmd_verify``'s
    :func:`same_json` check sends such a trace to the trace schema.
    """
    try:
        for round_index, round_doc in enumerate(trace["rounds"]):
            _check_round(round_doc, round_index)
        return _replay(trace)
    except VerificationError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # Schema validation bounds the shape but not cross-references (chart
        # indices, ids); treat dangling references as a verification failure.
        raise VerificationError(0, None, "structure", f"{type(exc).__name__}: {exc}") from exc


def same_json(a, b) -> bool:
    """Whether ``a`` and ``b`` are the same JSON document: at every node the
    same ``type``, the same dict keys, the same list length and equal
    scalars.  Subtrees the two share (``x is y``) count as equal at once,
    and the answer comes at the first node that differs.

    ``a == b`` compares keys, lengths and values in C but takes ``1``,
    ``1.0`` and ``true`` as equal; a walk then requires ``type(x) is
    type(y)`` at every node it reaches, and answers "different" at a float
    that the two do not share (``-0.0 == 0.0``, yet the two dump apart).

    Why this stands in for comparing ``json.dumps(a, sort_keys=True)`` with
    ``json.dumps(b, sort_keys=True)``, for JSON trees (dicts with str keys,
    lists, str, int, float, bool, None):

    - "equal" implies equal dumps: same types and equal values at every
      node, and every float node shared.
    - Where ``a`` holds no float outside what it shares with ``b``, equal
      dumps imply "equal": json spells an int, a float, a bool, None and a
      str apart (``1``, ``1.0``, ``true``, ``null``, ``"1"``), so equal
      dumps match types node for node.  ``-0.0`` against ``0`` and
      ``1e20`` against ``10**20`` differ in type.
    - :func:`verify_trace`'s regenerated trace is such an ``a``: its own
      nodes hold only dicts, lists, str, int, bool and None, and its
      ``scenario`` is the read trace's own object.
    - So a trace that ``verify`` finds ``same_json`` as its regeneration is,
      up to whitespace, one that ``run`` writes, and every such trace
      passes the trace schema: skipping the schema there changes no
      verdict.  Were the walk ever to say "different" where the dumps
      agree, ``verify`` would only run the trace schema.

    It recurses as deep as ``a`` nests.
    """
    if a is b:
        return True
    t = type(a)
    if t is not type(b) or t is float or a != b:
        return False
    return (t is not dict and t is not list) or _same_types(a, b)


def _same_types(a, b) -> bool:
    # a == b holds: same keys and lengths, values equal up to 1 == 1.0 == True
    for x, y in zip(a.values(), map(b.__getitem__, a)) if type(a) is dict else zip(a, b):
        if x is y:
            continue
        t = type(x)
        if t is not type(y) or t is float:
            return False
        if (t is dict or t is list) and not _same_types(x, y):
            return False
    return True
