"""The non-principal locus and the integer invariants that drive descent.

The locus where the pulled-back base-point ideal fails to be principal is
a union of codimension-2 subvarieties; on each presentation it is cut out
by finitely many coordinate pairs.  :func:`centers` enumerates them in one
pass per presentation, as :class:`~toroidalize.transform.Center` values,
and attaches an integer to each, read off at the generic point of the
center:

* a free-coordinate center ``x_i = y = 0`` on u = x^a, v = x^b y carries
  ``a_i - b_i`` (the 1-point invariant),
* a pair center ``x_i = x_j = 0`` on u = x^a, v = x^b carries
  ``(a_i - b_i)(b_j - a_j)`` (the 2-point invariant),
* the transverse center carries 0 (no divisor through the point).

Both values are positive exactly on the locus, and the driver makes them
drop strictly.

Each :class:`CenterRecord` also carries its center's *signature*, the one
identity under which the driver blows up presentations together; the
signature's class (``transverse``, ``free``, ``pair``) is the phase.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .forms import Form, MonomialPresentation
from .forms import is_principal  # noqa: F401  (bench/tracing.py counts calls through this name)
from .transform import Center


def centers(p: MonomialPresentation) -> Iterator[tuple[Center, tuple, int]]:
    """Every permissible codimension-2 center through this presentation,
    with its signature and value, in (i, j) order.

    The signature ``(chart, class, columns)`` names the subvariety the
    center lies on, ``columns`` being the (u, v) exponent columns of its
    divisor variables (one free, two pair, none transverse): centers with
    equal signatures carry one value.  Pair centers are oriented with the
    u-dominant index first, so each qualifying unordered pair appears
    exactly once.  Forms that are principal by construction yield nothing.
    """
    form, chart, u_row, v_row, _ = p
    if form is Form.TRANSVERSE:
        yield Center(1), (chart, "transverse", ()), 0
    elif form is Form.MONOMIAL_FREE:
        for i, (a, b) in enumerate(zip(u_row, v_row), start=1):
            if b < a:
                yield Center(i), (chart, "free", ((a, b),)), a - b
    elif form is Form.MONOMIAL_PAIR:
        columns = tuple(zip(u_row, v_row))
        for i, col_i in enumerate(columns, start=1):
            d_i = col_i[0] - col_i[1]
            if d_i <= 0:
                continue
            for j, col_j in enumerate(columns, start=1):
                e_j = col_j[1] - col_j[0]
                if e_j > 0:
                    yield Center(i, j), (chart, "pair", (col_i, col_j)), d_i * e_j


class CenterRecord(NamedTuple):
    """One center through one presentation, with the presentation itself,
    so a chart's records also name the presentations still to blow up."""

    presentation_id: int
    presentation: MonomialPresentation
    center: Center
    signature: tuple
    value: int


class Snapshot(NamedTuple):
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
    """The one place that takes maxima over center values, a step's target value included."""
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
    """Every center through the given (id, presentation) pairs: the
    presentations in the order given, and each one's centers in the (i, j)
    order :func:`centers` yields them."""
    return tuple(CenterRecord(pid, p, *center) for pid, p in entries for center in centers(p))
