"""The blowup driver: permissible sequences that empty the non-principal locus.

The driver walks the base charts in increasing index order and, inside the
current chart, follows a two-phase policy when the base point lies on that
chart's divisor: first it repeatedly blows up a center achieving the
maximal 1-point invariant until no free-coordinate centers remain, then it
does the same with the 2-point invariant.  Charts whose base point misses
the divisor need no policy; any center works and one blowup per
presentation principalizes it.

A step targets one center *signature* (chart, center class, the exponent
columns of the center, as :mod:`~toroidalize.invariants` records it): every
active presentation in that chart carrying a center with the same signature
lies on the same codimension-2 subvariety, so all of them are transformed
together: the signature's first field is the step's chart, its class the
phase, and the target value comes from the chart's snapshot.  Principal
descendants leave the worklist at once but stay in the scenario as
leaves; the trace records every step with before/after invariant data so
the run can be re-verified independently.

The cost of a step depends on the targeted chart's centers, never on the
leaves.  A :class:`Scenario` keeps one store per chart: the center records
of its active presentations, in blowup-tree order (the roots as given, each
blown-up presentation's records replaced in place by those of its active
descendants).  Every active presentation carries a center, so the records
name the worklist too.  A step updates the targeted chart alone, enumerates
centers only for the descendants it creates, and breaks a tie between
target values by the lowest presentation id.  Each state holds
its history as an immutable chain of steps that its successor extends in
constant time; descendants are stored once, in the steps that created
them, and the flat entry list is built from the chain only when someone
asks for it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

from .forms import (
    DIVISORIAL_FORMS,
    Form,
    FormError,
    MonomialPresentation,
    check_chart,
    is_principal,
)
from .invariants import CenterRecord, Snapshot, locus_report, summarize
from .transform import Center, ChartPoint, blowup


class NoCenterError(RuntimeError):
    """step() was called on a scenario whose locus is already empty."""


class StepBudgetExceededError(RuntimeError):
    """The run did not, or provably cannot, empty the locus within its step budget."""

    def __init__(self, steps: int, scenario: "Scenario") -> None:
        super().__init__(f"locus still nonempty after {steps} step{'' if steps == 1 else 's'}")
        self.steps = steps
        self.scenario = scenario


class Entry(NamedTuple):
    """One presentation of a scenario, under its stable id.

    ``active`` means non-principal.  A descendant names its parent and
    the chart point it was born at; both are ``None`` on a root.
    """

    id: int
    presentation: MonomialPresentation
    active: bool
    parent: int | None = None
    point: ChartPoint | None = None


class TraceStep(NamedTuple):
    """One step: the signature it targeted (chart, class, columns), at
    its value, the parents blown up through it, the entries they became
    (each parent's three in :class:`ChartPoint` order) and the chart's
    snapshot around it.  Its index is its position in ``Scenario.history``."""

    signature: tuple
    value: int
    parents: tuple[tuple[int, Center], ...]
    descendants: tuple[Entry, ...]
    before: Snapshot
    after: Snapshot


class Scenario:
    """The full symbolic state: chart flags, identified presentations, history.

    ``charts[i-1]`` records whether the base point lies on chart i's piece
    of the target divisor.  Entries keep stable ids; ``active`` mirrors
    non-principality and only active entries feed the locus, which is kept
    per chart as center records in blowup-tree order (see :meth:`locus`).

    Validation happens once, when input enters the system: constructing a
    ``Scenario`` checks every entry (unique ids below ``next_id``, chart
    flags, dimension, and that active means non-principal) and starts with
    an empty history.  :func:`step` trusts its own output and checks only
    the descendants it creates.

    A scenario is immutable (assigning or deleting an attribute raises
    ``AttributeError``) and shares nothing mutable with another one.
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
        centers: dict[int, list[CenterRecord]] = {}
        for r in locus_report((e.id, e.presentation) for e in roots if e.active):
            centers.setdefault(r.signature[0], []).append(r)
        vars(self).update(
            n=n, charts=charts, next_id=next_id, _roots=roots, _chain=(),
            _centers={chart: tuple(records) for chart, records in centers.items()},
        )

    @classmethod
    def _successor(
        cls,
        parent: "Scenario",
        next_id: int,
        trace_step: TraceStep,
        centers: dict[int, tuple[CenterRecord, ...]],
    ) -> "Scenario":
        """The state after one step: trusted, so no entry is re-checked."""
        new = object.__new__(cls)
        vars(new).update(
            n=parent.n, charts=parent.charts, next_id=next_id, _roots=parent._roots,
            _chain=(parent._chain, trace_step), _centers=centers,
        )
        return new

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def history(self) -> tuple[TraceStep, ...]:
        steps = []
        link = self._chain
        while link:
            link, trace_step = link
            steps.append(trace_step)
        return tuple(reversed(steps))

    @cached_property
    def entries(self) -> tuple[Entry, ...]:
        return _flatten(self._roots, self.history)

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
        """Every center through the active presentations, chart by chart,
        each chart's in blowup-tree order."""
        return tuple(r for chart in sorted(self._centers) for r in self._centers[chart])


def _flatten(roots: tuple[Entry, ...], steps: tuple[TraceStep, ...]) -> tuple[Entry, ...]:
    """Pre-order over the blowup tree: each parent replaced by its descendants."""
    children: dict[int, list[Entry]] = {}
    for s in steps:
        for e in s.descendants:
            children.setdefault(e.parent, []).append(e)
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
    try:
        check_chart(p.form, charts[idx - 1])
    except FormError as exc:
        raise FormError(f"presentation {entry.id}: {exc}") from exc
    _check_dimension(p, n, entry.id)
    if entry.active == principal:
        raise FormError(
            f"presentation {entry.id} has active={entry.active} but principality says otherwise"
        )


def _check_dimension(p: MonomialPresentation, n: int, pid: int) -> None:
    form = p.form
    # Shapes with a trailing coordinate need one slot beyond the divisor columns.
    extra = 1 if form in (Form.MONOMIAL_FREE, Form.MONOMIAL_UNIT, Form.POWER_UNIT) else 0
    need = len(p.u_row) + extra if form in DIVISORIAL_FORMS else 2
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


# ChartPoint in member order, without iterating the enum class on every blowup.
_POINTS = tuple(ChartPoint)


def _select_target(records: tuple[CenterRecord, ...], before: Snapshot) -> CenterRecord:
    """The first free record at the 1-point maximum of ``before``, the
    chart's snapshot, while that is positive (free values are), else the
    first at its 2-point maximum (0 off the divisor, where all are
    transverse).  First: the lowest presentation id, then its first center."""
    if before.one_point_max:
        records = [r for r in records if r.signature[1] == "free"]
    best = before.one_point_max or before.two_point_max
    return min((r for r in records if r.value == best), key=attrgetter("presentation_id"))


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
    before = summarize(records)
    target = _select_target(records, before)
    signature = target.signature

    n, charts = scenario.n, scenario.charts
    next_id = scenario.next_id
    parents: list[tuple[int, Center]] = []
    descendants: list[Entry] = []
    new_records: list[CenterRecord] = []
    for pid, group in groupby(records, attrgetter("presentation_id")):
        group = tuple(group)
        # A presentation is blown up at the first of its centers that carries
        # the target's signature; one without such a center keeps its records.
        for r in group:
            if r.signature == signature:
                break
        else:
            new_records.extend(group)
            continue
        parents.append((pid, r.center))
        born_active: list[tuple[int, MonomialPresentation]] = []
        children = blowup(r.presentation, r.center).descendants
        for point, child in zip(_POINTS, children, strict=True):
            principal = is_principal(child)
            new_entry = Entry(next_id, child, not principal, pid, point)
            _check_entry(new_entry, principal, n, charts)
            descendants.append(new_entry)
            if not principal:
                born_active.append((next_id, child))
            next_id += 1
        new_records.extend(locus_report(born_active))

    trace_step = TraceStep(
        signature=signature,
        value=target.value,
        parents=tuple(parents),
        descendants=tuple(descendants),
        before=before,
        after=summarize(new_records),
    )
    new_centers = dict(centers)
    if new_records:
        new_centers[chart] = tuple(new_records)
    else:
        del new_centers[chart]
    return Scenario._successor(scenario, next_id, trace_step, new_centers)


# Runs that need more steps than this are refused rather than attempted.
BUDGET_CEILING = 10**6


def default_budget(scenario: Scenario) -> int:
    """Generous multiple of the observed descent bounds, capped at
    :data:`BUDGET_CEILING`."""
    snap = summarize(scenario.locus())
    budget = 16 * (snap.two_point_max + snap.one_point_max + 1) * (len(scenario.entries) + 1)
    return min(budget, BUDGET_CEILING)


def step_lower_bound(scenario: Scenario) -> int:
    """The fewest steps :func:`run` can take.  A step blows up each
    presentation at most once, so no run is shorter than the largest of
    these bounds over the active presentations:

    * free u = x^a, v = x^b y: the sum of a_i - b_i, since a blowup raises
      one b_i by 1 and leaves only its ``A_ORIGIN`` child in that shape;
    * pair u = x^a, v = x^b with u-excesses d_i = a_i - b_i > 0 and
      v-excesses e_j = b_j - a_j > 0: ceil(sum e / max d), since the
      ``A_ORIGIN`` child of x_i = x_j = 0 adds column i to column j, so its
      sum e is lower by at most max d, its max d is no larger, and it stays
      non-principal while an e_j is left; ``B_ORIGIN`` mirrors this with
      ceil(sum d / max e).
    """
    presentations = {r.presentation_id: r.presentation for r in scenario.locus()}
    bound = 0
    for p in presentations.values():
        d = [a - b for a, b in p.columns() if a > b]
        if p.form is Form.MONOMIAL_FREE:
            bound = max(bound, sum(d))
        elif p.form is Form.MONOMIAL_PAIR:
            e = [b - a for a, b in p.columns() if b > a]
            bound = max(bound, -(-sum(e) // max(d)), -(-sum(d) // max(e)))
    return bound


def run(scenario: Scenario, max_steps: int) -> Scenario:
    """Iterate :func:`step` until the locus is empty and return the final
    state; its ``history`` holds the steps taken.

    On a two-column monomial pair, every non-principal descendant of a
    step has a largest center value below the maximum the step targeted
    (acceptance criterion 2 checks every pair with entries up to 5).  At
    any column count each one's (largest center value, number of centers
    at it) is lexicographically below its parent's, as ``verify`` checks,
    so the multiset of these measures drops in the multiset order and the
    run terminates; the chart-wide (phase maximum, achiever count) need
    not drop.  It raises :class:`StepBudgetExceededError` when the budget
    runs out or, checked at steps 0, 1, 2, 4, ..., when the steps taken plus
    the :func:`step_lower_bound` of the state reached exceed it.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    current = scenario
    steps = 0
    while current._centers:
        due = not steps & (steps - 1)  # at 0, 1, 2, 4, ...; the bound holds from any state
        if steps >= max_steps or due and steps + step_lower_bound(current) > max_steps:
            raise StepBudgetExceededError(steps, current)
        current = step(current)
        steps += 1
    return current
