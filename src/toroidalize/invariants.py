"""The non-principal locus and the integer invariants that drive descent.

The locus where the pulled-back base-point ideal fails to be principal is
a union of codimension-2 subvarieties; on each presentation it is cut out
by finitely many coordinate pairs.  This module enumerates those pairs as
:class:`~toroidalize.transform.Center` values and attaches an integer to
each one, read off at the generic point of the center:

* a free-coordinate center ``x_i = y = 0`` on u = x^a, v = x^b y carries
  ``a_i - b_i`` (the 1-point invariant),
* a pair center ``x_i = x_j = 0`` on u = x^a, v = x^b carries
  ``(a_i - b_i)(b_j - a_j)`` (the 2-point invariant),
* the transverse center carries 0 (no divisor through the point).

Both values are positive exactly on the locus, and the driver makes them
drop strictly.

Each :class:`CenterRecord` also carries its center's *signature*, the one
identity under which the driver blows up presentations together; the
signature's class (``transverse``, ``free``, ``pair``) fixes the phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .forms import Form, FormError, MonomialPresentation
from .forms import is_principal  # noqa: F401  (bench/tracing.py counts calls through this name)
from .transform import Center, CenterKind


def enumerate_centers(p: MonomialPresentation) -> list[Center]:
    """All permissible codimension-2 centers through this presentation.

    Pair centers are oriented with the u-dominant index first, so each
    qualifying unordered pair appears exactly once.  Forms that are
    principal by construction contribute nothing.
    """
    if p.form is Form.MONOMIAL_FREE:
        return [
            Center(CenterKind.FREE, i)
            for i in range(1, p.k + 1)
            if p.v_row[i - 1] < p.u_row[i - 1]
        ]
    if p.form is Form.MONOMIAL_PAIR:
        found = []
        for i in range(1, p.k + 1):
            d_i = p.u_row[i - 1] - p.v_row[i - 1]
            if d_i <= 0:
                continue
            for j in range(1, p.k + 1):
                e_j = p.v_row[j - 1] - p.u_row[j - 1]
                if e_j > 0:
                    found.append(Center(CenterKind.PAIR, i, j))
        return found
    if p.form is Form.TRANSVERSE:
        return [Center(CenterKind.FREE, 1)]
    return []


def center_value(p: MonomialPresentation, c: Center) -> int:
    """The invariant carried by one center, computed from its columns only.

    A center with no 1-point (pair centers) carries the 2-point value of
    its generic point, where every other variable is a unit; transverse
    centers carry 0.
    """
    if p.form is Form.MONOMIAL_FREE and c.kind is CenterKind.FREE:
        a_i, b_i = p.column(c.i)
        return a_i - b_i
    if p.form is Form.MONOMIAL_PAIR and c.kind is CenterKind.PAIR:
        a_i, b_i = p.column(c.i)
        a_j, b_j = p.column(c.j)
        return (a_i - b_i) * (b_j - a_j)
    if p.form is Form.TRANSVERSE and c.kind is CenterKind.FREE:
        return 0
    raise FormError(f"center {c} does not belong to a {p.form.value} presentation")


def center_signature(p: MonomialPresentation, c: Center) -> tuple:
    """(chart, class, exponent columns): centers with equal signatures lie
    on one subvariety and carry one value."""
    chart = p.chart_index
    if p.form is Form.TRANSVERSE:
        return (chart, "transverse", ())
    if c.kind is CenterKind.FREE:
        return (chart, "free", p.column(c.i))
    return (chart, "pair", (p.column(c.i), p.column(c.j)))


@dataclass(frozen=True)
class CenterRecord:
    presentation_id: int
    center: Center
    signature: tuple
    value: int

    def sort_key(self) -> tuple:
        return (self.presentation_id, *self.center.sort_key())


@dataclass(frozen=True, slots=True)
class Snapshot:
    """Phase maxima of a set of centers, how many centers reach each, and
    the center count.  A maximum over an empty class is 0; transverse
    centers count towards ``center_count`` only.
    """

    one_point_max: int
    one_point_achievers: int
    two_point_max: int
    two_point_achievers: int
    center_count: int


def summarize(records: Sequence[CenterRecord]) -> Snapshot:
    """The one place that takes maxima over center values."""
    one = [r.value for r in records if r.signature[1] == "free"]
    two = [r.value for r in records if r.signature[1] == "pair"]
    one_max = max(one, default=0)
    two_max = max(two, default=0)
    return Snapshot(
        one_point_max=one_max,
        one_point_achievers=one.count(one_max) if one else 0,
        two_point_max=two_max,
        two_point_achievers=two.count(two_max) if two else 0,
        center_count=len(records),
    )


def locus_report(
    entries: Iterable[tuple[int, MonomialPresentation]],
) -> tuple[CenterRecord, ...]:
    """Every center through the given (id, presentation) pairs.

    Ordering is deterministic: records sort by (presentation id, center
    kind, indices).
    """
    records: list[CenterRecord] = []
    for pid, p in entries:
        for c in enumerate_centers(p):
            records.append(CenterRecord(pid, c, center_signature(p, c), center_value(p, c)))
    records.sort(key=CenterRecord.sort_key)
    return tuple(records)
