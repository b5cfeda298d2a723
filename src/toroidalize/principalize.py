"""The blowup driver: permissible sequences that empty the non-principal locus.

The driver walks the base charts in increasing index order and, inside the
current chart, follows a two-phase policy when the base point lies on that
chart's divisor: first it repeatedly blows up a center achieving the
maximal 1-point invariant until no free-coordinate centers remain, then it
does the same with the 2-point invariant.  Charts whose base point misses
the divisor need no policy; any center works and one blowup per
presentation principalizes it.

A step targets one center *signature* (chart, center class, the exponent
columns of the center): every active presentation in that chart carrying a
center with the same signature lies on the same codimension-2 subvariety,
so all of them are transformed together.  Descendants that come out
principal leave the worklist immediately but stay in the scenario as
leaves; the trace records every step with before/after invariant data so
the run can be re-verified independently.

The cost of a step depends on the targeted chart's active presentations,
never on the leaves.  A :class:`Scenario` keeps its active entries and
their centers per chart; a step updates the targeted chart alone and
enumerates centers only for the descendants it creates.  Each state holds
its history as an immutable chain of steps that its successor extends in
constant time; descendants are stored once, in the steps that created
them, and the flat entry list is built from the chain only when someone
asks for it.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from functools import cached_property

from .forms import (
    DIVISORIAL_FORMS,
    Form,
    FormError,
    MonomialPresentation,
    is_principal,
)
from .invariants import CenterRecord, Snapshot, locus_report, summarize
from .transform import Center, CenterKind, ChartPoint, blowup


class NoCenterError(RuntimeError):
    """step() was called on a scenario whose locus is already empty."""


class StepBudgetExceededError(RuntimeError):
    """The run did not empty the locus within its step budget."""

    def __init__(self, steps: int, scenario: "Scenario") -> None:
        super().__init__(f"locus still nonempty after {steps} steps")
        self.steps = steps
        self.scenario = scenario


class Phase(Enum):
    TRANSVERSE = "transverse"
    ONE_POINT = "one_point"
    TWO_POINT = "two_point"


@dataclass(frozen=True, slots=True)
class Entry:
    id: int
    presentation: MonomialPresentation
    active: bool


@dataclass(frozen=True, slots=True)
class DescendantRecord:
    id: int
    parent_id: int
    point: ChartPoint
    presentation: MonomialPresentation
    principal: bool


@dataclass(frozen=True, slots=True)
class TraceStep:
    index: int
    chart_index: int
    phase: Phase
    signature: tuple
    value: int
    parents: tuple[tuple[int, Center], ...]
    descendants: tuple[DescendantRecord, ...]
    before: Snapshot
    after: Snapshot


@dataclass(frozen=True)
class Trace:
    steps: tuple[TraceStep, ...] = ()


class Scenario:
    """The full symbolic state: chart flags, identified presentations, history.

    ``charts[i-1]`` records whether the base point lies on chart i's piece
    of the target divisor.  Entries keep stable ids; ``active`` mirrors
    non-principality and only active entries feed the locus.

    Validation happens once, when input enters the system: constructing a
    ``Scenario`` checks every entry (unique ids below ``next_id``, chart
    flags, dimension, and that active means non-principal) and starts with
    an empty history.  :func:`step` trusts its own output and checks only
    the descendants it creates.

    A scenario is immutable and shares nothing mutable with another one.
    Its history is a chain ``(parent_chain, step)`` ending in ``()``, so a
    successor extends its parent's chain without copying it.  ``history``
    and ``entries`` are built from that chain on first access; ``entries``
    lists the presentations in pre-order over the blowup tree, descendants
    at their parent's position.
    """

    def __init__(
        self,
        n: int,
        charts: tuple[bool, ...],
        entries: tuple[Entry, ...],
        next_id: int,
    ) -> None:
        roots, charts = tuple(entries), tuple(charts)
        _validate(n, charts, roots, next_id)
        active = [e for e in roots if e.active]
        vars(self).update(
            n=n, charts=charts, next_id=next_id, _roots=roots, _chain=(),
            _active=_by_chart(active, lambda e: e.presentation.chart_index),
            _centers=_by_chart(
                locus_report((e.id, e.presentation) for e in active), lambda r: r.chart_index
            ),
        )

    @classmethod
    def _successor(
        cls,
        parent: "Scenario",
        next_id: int,
        trace_step: TraceStep,
        active: dict[int, tuple[Entry, ...]],
        centers: dict[int, tuple[CenterRecord, ...]],
    ) -> "Scenario":
        """The state after one step: trusted, so no entry is re-checked."""
        new = object.__new__(cls)
        vars(new).update(
            n=parent.n, charts=parent.charts, next_id=next_id, _roots=parent._roots,
            _chain=(parent._chain, trace_step), _active=active, _centers=centers,
        )
        return new

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @cached_property
    def history(self) -> Trace:
        steps = []
        link = self._chain
        while link:
            link, trace_step = link
            steps.append(trace_step)
        return Trace(tuple(reversed(steps)))

    @cached_property
    def entries(self) -> tuple[Entry, ...]:
        return _flatten(self._roots, self.history.steps)

    def _key(self) -> tuple:
        return (self.n, self.charts, self.entries, self.next_id, self.history)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return (
            f"Scenario(n={self.n!r}, charts={self.charts!r}, entries={self.entries!r}, "
            f"next_id={self.next_id!r}, history={self.history!r})"
        )

    def locus(self) -> tuple[CenterRecord, ...]:
        """Every center through the active presentations, chart by chart."""
        return tuple(r for chart in sorted(self._centers) for r in self._centers[chart])


def _flatten(roots: tuple[Entry, ...], steps: tuple[TraceStep, ...]) -> tuple[Entry, ...]:
    """Pre-order over the blowup tree: each parent replaced by its descendants."""
    children: dict[int, list[Entry]] = {}
    for s in steps:
        for d in s.descendants:
            children.setdefault(d.parent_id, []).append(
                Entry(d.id, d.presentation, active=not d.principal)
            )
    out: list[Entry] = []
    pending = list(reversed(roots))
    while pending:
        entry = pending.pop()
        kids = children.get(entry.id)
        if kids is None:
            out.append(entry)
        else:
            pending.extend(reversed(kids))
    return tuple(out)


def _by_chart(items, chart_of) -> dict[int, tuple]:
    grouped: dict[int, list] = {}
    for item in items:
        grouped.setdefault(chart_of(item), []).append(item)
    return {chart: tuple(group) for chart, group in grouped.items()}


def _validate(n: int, charts: tuple[bool, ...], roots: tuple[Entry, ...], next_id: int) -> None:
    if n < 2:
        raise FormError(f"ambient dimension must be >= 2, got {n}")
    if not charts:
        raise FormError("scenario needs at least one chart")
    seen: set[int] = set()
    for entry in roots:
        if entry.id in seen:
            raise FormError(f"duplicate presentation id {entry.id}")
        seen.add(entry.id)
        if entry.id >= next_id:
            raise FormError("next_id must exceed every existing id")
        _check_entry(entry, is_principal(entry.presentation), n, charts)


def _check_entry(entry: Entry, principal: bool, n: int, charts: tuple[bool, ...]) -> None:
    p = entry.presentation
    idx = p.chart_index
    if idx > len(charts):
        raise FormError(f"presentation {entry.id} references missing chart {idx}")
    if (p.form in DIVISORIAL_FORMS) != charts[idx - 1]:
        raise FormError(
            f"presentation {entry.id} disagrees with chart {idx} about the base point"
        )
    _check_dimension(p, n, entry.id)
    if entry.active == principal:
        raise FormError(
            f"presentation {entry.id} has active={entry.active} but principality says otherwise"
        )


def _check_dimension(p: MonomialPresentation, n: int, pid: int) -> None:
    # Shapes with a trailing coordinate need one slot beyond the divisor columns.
    extra = 1 if p.form in (Form.MONOMIAL_FREE, Form.MONOMIAL_UNIT, Form.POWER_UNIT) else 0
    need = p.k + extra if p.form in DIVISORIAL_FORMS else 2
    if need > n:
        raise FormError(f"presentation {pid} needs {need} coordinates but n = {n}")


def make_scenario(
    n: int,
    charts: tuple[bool, ...] | list[bool],
    presentations: list[MonomialPresentation],
) -> Scenario:
    entries = tuple(
        Entry(i, p, active=not is_principal(p)) for i, p in enumerate(presentations)
    )
    return Scenario(n=n, charts=tuple(charts), entries=entries, next_id=len(entries))


# -- center signatures ---------------------------------------------------------

def center_signature(p: MonomialPresentation, c: Center) -> tuple:
    """Chart-level identity of a center: presentations carrying equal
    signatures are treated as lying on one subvariety."""
    chart = p.chart_index
    if p.form is Form.TRANSVERSE:
        return (chart, "transverse", ())
    if c.kind is CenterKind.FREE:
        return (chart, "free", p.column(c.i))
    return (chart, "pair", (p.column(c.i), p.column(c.j)))


def _select_target(
    on_divisor: bool, records: tuple[CenterRecord, ...], before: Snapshot
) -> tuple[Phase, CenterRecord]:
    if not on_divisor:
        return Phase.TRANSVERSE, min(records, key=CenterRecord.sort_key)
    # On the divisor every center is a free-coordinate or a pair center.
    if before.one_point_achievers:
        phase, best = Phase.ONE_POINT, before.one_point_max
        records = tuple(r for r in records if r.form is Form.MONOMIAL_FREE)
    else:
        phase, best = Phase.TWO_POINT, before.two_point_max
    return phase, min((r for r in records if r.value == best), key=CenterRecord.sort_key)


def step(scenario: Scenario) -> Scenario:
    """Blow up the phase policy's target center and replace every
    presentation through it by its descendants.

    Works on the lowest chart that still has centers and touches nothing
    else.  The input was validated when it entered the system, so only the
    new descendants are checked.  ``scenario`` is left unchanged; calling
    this twice on it gives equal results.
    """
    centers = scenario._centers
    if not centers:
        raise NoCenterError("every presentation is already principal")
    chart = min(centers)
    records = centers[chart]
    active = scenario._active[chart]
    by_id = {e.id: e.presentation for e in active}
    before = summarize(records)
    phase, target = _select_target(scenario.charts[chart - 1], records, before)
    signature = center_signature(by_id[target.presentation_id], target.center)

    # Records run in (id, center) order, so the first hit per id is the
    # lowest matching center of that presentation.  A signature fixes the
    # value, so only records carrying the target's value can match.
    matched: dict[int, Center] = {}
    for r in records:
        pid = r.presentation_id
        if (
            r.value == target.value
            and pid not in matched
            and center_signature(by_id[pid], r.center) == signature
        ):
            matched[pid] = r.center

    n, charts = scenario.n, scenario.charts
    next_id = scenario.next_id
    parents: list[tuple[int, Center]] = []
    descendants: list[DescendantRecord] = []
    still_active: list[Entry] = []
    born_active: list[tuple[int, MonomialPresentation]] = []
    for entry in active:
        center = matched.get(entry.id)
        if center is None:
            still_active.append(entry)
            continue
        parents.append((entry.id, center))
        for desc in blowup(entry.presentation, center).descendants:
            principal = is_principal(desc.presentation)
            new_entry = Entry(next_id, desc.presentation, active=not principal)
            _check_entry(new_entry, principal, n, charts)
            descendants.append(
                DescendantRecord(
                    id=next_id,
                    parent_id=entry.id,
                    point=desc.point,
                    presentation=desc.presentation,
                    principal=principal,
                )
            )
            if not principal:
                still_active.append(new_entry)
                born_active.append((next_id, desc.presentation))
            next_id += 1

    # Untouched presentations keep their centers.  New ids exceed every
    # old one, so the new records sort after the kept ones.
    kept = tuple(r for r in records if r.presentation_id not in matched)
    new_records = kept + locus_report(born_active)
    chain = scenario._chain
    trace_step = TraceStep(
        index=chain[1].index + 1 if chain else 0,
        chart_index=chart,
        phase=phase,
        signature=signature,
        value=target.value,
        parents=tuple(parents),
        descendants=tuple(descendants),
        before=before,
        after=summarize(new_records),
    )
    new_active = dict(scenario._active)
    new_centers = dict(centers)
    _put(new_active, chart, tuple(still_active))
    _put(new_centers, chart, new_records)
    return Scenario._successor(scenario, next_id, trace_step, new_active, new_centers)


def _put(by_chart: dict, chart: int, items: tuple) -> None:
    if items:
        by_chart[chart] = items
    else:
        by_chart.pop(chart, None)


# Runs that need more steps than this are refused rather than attempted.
BUDGET_CEILING = 10**6


def default_budget(scenario: Scenario) -> int:
    """Generous multiple of the observed descent bounds, capped at
    :data:`BUDGET_CEILING`."""
    snap = summarize(scenario.locus())
    budget = 16 * (snap.two_point_max + snap.one_point_max + 1) * (len(scenario.entries) + 1)
    return min(budget, BUDGET_CEILING)


def step_lower_bound(scenario: Scenario) -> int:
    """The fewest steps :func:`run` can take: the largest sum of a_i - b_i
    over one active free presentation u = x^a, v = x^b y.

    A free blowup raises one b_i by 1 and leaves only its ``A_ORIGIN``
    child in that shape, and a step blows up each presentation at most
    once, so no step lowers a presentation's sum by more than 1.
    """
    sums: dict[int, int] = {}
    for r in scenario.locus():
        if r.form is Form.MONOMIAL_FREE:
            sums[r.presentation_id] = sums.get(r.presentation_id, 0) + r.value
    return max(sums.values(), default=0)


def run(scenario: Scenario, max_steps: int) -> tuple[Scenario, Trace]:
    """Iterate :func:`step` until the locus is empty.

    The policy sequence always terminates (each step strictly lowers the
    pair (phase maximum, number of centers achieving it) in the current
    chart), so a large enough budget always succeeds; when the budget runs
    out first this raises :class:`StepBudgetExceededError`.  A run whose
    :func:`step_lower_bound` already exceeds the budget fails before its
    first step.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    if step_lower_bound(scenario) > max_steps:
        raise StepBudgetExceededError(0, scenario)
    current = scenario
    steps = 0
    while current._centers:
        if steps >= max_steps:
            raise StepBudgetExceededError(steps, current)
        current = step(current)
        steps += 1
    return current, current.history
