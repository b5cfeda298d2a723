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
enumerates centers only for the descendants it creates.  Descendants are
stored once, in the append-only step log, and the flat entry list is
built from that log only when someone asks for it.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from enum import Enum

from .forms import (
    DIVISORIAL_FORMS,
    Form,
    FormError,
    MonomialPresentation,
    is_principal,
)
from .invariants import CenterRecord, LocusReport, locus_report
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
class Snapshot:
    """Chart-scoped invariant state around a step, for descent verification."""

    one_point_max: int
    one_point_achievers: int
    two_point_max: int
    two_point_achievers: int
    center_count: int


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
    flags, dimension, and that active means non-principal).  :func:`step`
    trusts its own output and checks only the descendants it creates.

    A scenario is immutable.  ``entries`` lists the presentations in
    pre-order over the blowup tree: descendants sit at their parent's
    position.  After a step it is built from the step log on first access.
    """

    __slots__ = (
        "n", "charts", "next_id",
        "_roots", "_log", "_size", "_base",
        "_entries", "_history", "_locus", "_active", "_centers", "_by_id",
    )

    def __init__(
        self,
        n: int,
        charts: tuple[bool, ...],
        entries: tuple[Entry, ...],
        next_id: int,
        history: Trace = Trace(),
    ) -> None:
        entries = tuple(entries)
        _assign(
            self, n=n, charts=charts, next_id=next_id,
            _roots=entries, _log=list(history.steps), _size=len(history.steps),
            _base=len(history.steps), _entries=entries, _history=history,
        )
        self._validate()

    @classmethod
    def _successor(
        cls,
        parent: "Scenario",
        next_id: int,
        log: list[TraceStep],
        size: int,
        active: dict[int, tuple[Entry, ...]],
        centers: dict[int, tuple[CenterRecord, ...]],
    ) -> "Scenario":
        """The state after one step: trusted, so no entry is re-checked."""
        new = object.__new__(cls)
        _assign(
            new, n=parent.n, charts=parent.charts, next_id=next_id,
            _roots=parent._roots, _log=log, _size=size, _base=parent._base,
            _active=active, _centers=centers,
        )
        return new

    def _validate(self) -> None:
        if self.n < 2:
            raise FormError(f"ambient dimension must be >= 2, got {self.n}")
        if not self.charts:
            raise FormError("scenario needs at least one chart")
        seen: set[int] = set()
        for entry in self._roots:
            if entry.id in seen:
                raise FormError(f"duplicate presentation id {entry.id}")
            seen.add(entry.id)
            if entry.id >= self.next_id:
                raise FormError("next_id must exceed every existing id")
            _check_entry(entry, is_principal(entry.presentation), self.n, self.charts)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __getattr__(self, name: str):
        # Only reached for a slot not filled yet: a lazily derived view.
        if name not in _LAZY:
            raise AttributeError(name)
        value = _LAZY[name](self)
        object.__setattr__(self, name, value)
        return value

    @property
    def entries(self) -> tuple[Entry, ...]:
        return self._entries

    @property
    def history(self) -> Trace:
        return self._history

    def _key(self) -> tuple:
        return (self.n, tuple(self.charts), self.entries, self.next_id, self.history)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        # Copies and pickles go back through the validating constructor.
        return Scenario, (self.n, self.charts, self.entries, self.next_id, self.history)

    def __repr__(self) -> str:
        return (
            f"Scenario(n={self.n!r}, charts={self.charts!r}, entries={self.entries!r}, "
            f"next_id={self.next_id!r}, history={self.history!r})"
        )

    def active_entries(self) -> tuple[Entry, ...]:
        return tuple(e for e in self.entries if e.active)

    def active_pairs(self) -> tuple[tuple[int, MonomialPresentation], ...]:
        return tuple((e.id, e.presentation) for e in self.entries if e.active)

    def entry(self, pid: int) -> Entry:
        return self._by_id[pid]

    def locus(self) -> LocusReport:
        return self._locus


def _assign(obj: Scenario, **fields) -> None:
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


def _flatten(scenario: Scenario) -> tuple[Entry, ...]:
    """Pre-order over the blowup tree: each parent replaced by its descendants."""
    children: dict[int, list[Entry]] = {}
    for s in scenario._log[scenario._base : scenario._size]:
        for d in s.descendants:
            children.setdefault(d.parent_id, []).append(
                Entry(d.id, d.presentation, active=not d.principal)
            )
    out: list[Entry] = []
    pending = list(reversed(scenario._roots))
    while pending:
        entry = pending.pop()
        kids = children.get(entry.id)
        if kids is None:
            out.append(entry)
        else:
            pending.extend(reversed(kids))
    return tuple(out)


def _active_by_chart(scenario: Scenario) -> dict[int, tuple[Entry, ...]]:
    grouped: dict[int, list[Entry]] = {}
    for e in scenario.active_entries():
        grouped.setdefault(e.presentation.context.chart_index, []).append(e)
    return {chart: tuple(entries) for chart, entries in grouped.items()}


def _centers_by_chart(scenario: Scenario) -> dict[int, tuple[CenterRecord, ...]]:
    grouped: dict[int, list[CenterRecord]] = {}
    for r in scenario.locus().centers:
        grouped.setdefault(r.chart_index, []).append(r)
    return {chart: tuple(records) for chart, records in grouped.items()}


_LAZY = {
    "_entries": _flatten,
    "_history": lambda s: Trace(tuple(s._log[: s._size])),
    "_locus": lambda s: locus_report(s.active_pairs()),
    "_active": _active_by_chart,
    "_centers": _centers_by_chart,
    "_by_id": lambda s: {e.id: e for e in s.entries},
}


def _check_entry(entry: Entry, principal: bool, n: int, charts: tuple[bool, ...]) -> None:
    p = entry.presentation
    idx = p.context.chart_index
    if idx > len(charts):
        raise FormError(f"presentation {entry.id} references missing chart {idx}")
    if p.context.q_in_divisor != charts[idx - 1]:
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
    chart = p.context.chart_index
    if p.form is Form.TRANSVERSE:
        return (chart, "transverse", ())
    if c.kind is CenterKind.FREE:
        return (chart, "free", p.column(c.i))
    return (chart, "pair", (p.column(c.i), p.column(c.j)))


def _snapshot(records: tuple[CenterRecord, ...]) -> Snapshot:
    free = [r.value for r in records if r.form is Form.MONOMIAL_FREE]
    pair = [r.value for r in records if r.center.kind is CenterKind.PAIR]
    one_max = max(free, default=0)
    two_max = max(pair, default=0)
    return Snapshot(
        one_point_max=one_max,
        one_point_achievers=free.count(one_max) if free else 0,
        two_point_max=two_max,
        two_point_achievers=pair.count(two_max) if pair else 0,
        center_count=len(records),
    )


def _select_target(
    on_divisor: bool, records: tuple[CenterRecord, ...]
) -> tuple[Phase, CenterRecord]:
    if not on_divisor:
        return Phase.TRANSVERSE, min(records, key=CenterRecord.sort_key)
    free = [r for r in records if r.form is Form.MONOMIAL_FREE]
    if free:
        best = max(r.value for r in free)
        candidates = [r for r in free if r.value == best]
        return Phase.ONE_POINT, min(candidates, key=CenterRecord.sort_key)
    best = max(r.value for r in records)
    candidates = [r for r in records if r.value == best]
    return Phase.TWO_POINT, min(candidates, key=CenterRecord.sort_key)


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
    phase, target = _select_target(scenario.charts[chart - 1], records)
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
    new_records = kept + locus_report(born_active).centers
    size = scenario._size
    trace_step = TraceStep(
        index=size,
        chart_index=chart,
        phase=phase,
        signature=signature,
        value=target.value,
        parents=tuple(parents),
        descendants=tuple(descendants),
        before=_snapshot(records),
        after=_snapshot(new_records),
    )

    # Successors share one log while they grow in a line.  A state reads
    # only its first ``_size`` steps, and slot ``_size`` is written once, so
    # whoever lands there owns it; a second step from the same state (even
    # a racing one) forks a copy instead.
    log = scenario._log
    log.append(trace_step)
    if log[size] is not trace_step:
        log = log[:size]
        log.append(trace_step)

    new_active = dict(scenario._active)
    new_centers = dict(centers)
    _put(new_active, chart, tuple(still_active))
    _put(new_centers, chart, new_records)
    return Scenario._successor(scenario, next_id, log, size + 1, new_active, new_centers)


def _put(by_chart: dict, chart: int, items: tuple) -> None:
    if items:
        by_chart[chart] = items
    else:
        by_chart.pop(chart, None)


def default_budget(scenario: Scenario) -> int:
    """Generous multiple of the observed descent bounds, still finite for CI."""
    report = scenario.locus()
    return 16 * (report.two_point_max + report.one_point_max + 1) * (len(scenario.entries) + 1)


def run(scenario: Scenario, max_steps: int) -> tuple[Scenario, Trace]:
    """Iterate :func:`step` until the locus is empty.

    The policy sequence always terminates (each step strictly lowers the
    pair (phase maximum, number of centers achieving it) in the current
    chart), so a large enough budget always succeeds; when the budget runs
    out first this raises :class:`StepBudgetExceededError`.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    current = scenario
    steps = 0
    while current._centers:
        if steps >= max_steps:
            raise StepBudgetExceededError(steps, current)
        current = step(current)
        steps += 1
    return current, current.history
