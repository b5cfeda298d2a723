"""Chart-level substitution rules for permissible codimension-2 blowups.

Blowing up a smooth codimension-2 center inside the non-principal locus
replaces a presentation by finitely many combinatorial point types on the
exceptional divisor:

* ``A_ORIGIN``  -- the origin of the first affine chart (translation
  parameter alpha = 0),
* ``A_GENERIC`` -- a generic point of that chart (alpha != 0, kept only
  as a flag),
* ``B_ORIGIN``  -- the origin of the second affine chart.

Individual closed points with distinct nonzero alpha are never
distinguished: every rule depends only on this trichotomy, and returns its
three children in that order, the order of :class:`ChartPoint`.  The
functions here are pure; descendants that are already principal are still
returned (so a driver can log them) and it is the caller's job to drop
them from any active worklist.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .forms import (
    Form,
    FormError,
    MonomialPresentation,
    monomial_free,
    monomial_pair,
    monomial_unit,
    nested,
    power_unit_from_rows,
    row_rank,
    transverse_product,
    transverse_unit,
)


class PermissibilityError(ValueError):
    """The requested center is not contained in the non-principal locus."""


class Center(NamedTuple("_Center", [("i", int), ("j", "int | None")])):
    """A permissible codimension-2 center, named by its two local coordinates.

    Indices are 1-based positions into the presentation's divisor columns.
    ``Center(i)`` is the free center x_i = y = 0, y the extra coordinate
    (on a transverse presentation ``Center(1)`` is x_1 = x_2 = 0).
    ``Center(i, j)`` is the pair center x_i = x_j = 0, oriented so that u
    dominates v at ``i`` and v dominates u at ``j``.  Calling the class,
    ``_make`` and ``_replace`` all check the indices.
    """

    __slots__ = ()

    def __new__(cls, i, j=None):
        if i < 1:
            raise FormError("center index must be >= 1")
        if j is not None and (j < 1 or j == i):
            raise FormError("pair center needs two distinct indices")
        return tuple.__new__(cls, (i, j))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class ChartPoint(Enum):
    A_ORIGIN = "a_origin"
    A_GENERIC = "a_generic"
    B_ORIGIN = "b_origin"


class DescendantSet(NamedTuple):
    """A blowup's three children, in :class:`ChartPoint` order."""

    descendants: tuple[MonomialPresentation, MonomialPresentation, MonomialPresentation]


def _bump(row: tuple[int, ...], i: int, by: int = 1) -> tuple[int, ...]:
    return row[: i - 1] + (row[i - 1] + by,) + row[i:]


def blowup_monomial_free(p: MonomialPresentation, c: Center) -> DescendantSet:
    """Blow up x_i = y = 0 on u = x^a, v = x^b * y (requires b_i < a_i).

    The first chart substitutes y = x_i (y' + alpha): v gains one power of
    x_i and keeps a trailing factor, giving the same shape again when
    alpha = 0 and a unit-shifted one when alpha != 0.  The second chart
    substitutes x_i = x_i' y: both coordinates now cut the divisor, with
    columns (a_i, b_i + 1) and (a_i, b_i), and v divides u strictly.
    """
    if p.form is not Form.MONOMIAL_FREE:
        raise PermissibilityError(f"free-coordinate blowup applies to monomial_free, not {p.form.value}")
    if c.j is not None or not (1 <= c.i <= p.k):
        raise PermissibilityError(f"center {c} is not a free-coordinate center of this presentation")
    i = c.i
    a_i, b_i = p.column(i)
    if b_i >= a_i:
        raise PermissibilityError(f"column {i} has b_i = a_i = {a_i}: center misses the locus")
    v_up = _bump(p.v_row, i)
    a_origin = monomial_free(p.u_row, v_up, p.chart_index)
    a_generic = monomial_unit(p.u_row, v_up, p.chart_index)
    b_origin = nested(p.u_row + (a_i,), v_up + (b_i,), p.chart_index)
    return DescendantSet((a_origin, a_generic, b_origin))


def blowup_monomial_pair(p: MonomialPresentation, c: Center) -> DescendantSet:
    """Blow up x_i = x_j = 0 on u = x^a, v = x^b (requires (a_i-b_i)(b_j-a_j) > 0).

    Both monomial charts add the center columns together: the first chart
    replaces column j with (a_i + a_j, b_i + b_j), the second replaces
    column i with the same sum.  At a generic point of the first chart the
    coordinate x_i turns into a unit, so its column drops out; the result
    is again a rank-2 pair, or degenerates to a power pair when the
    surviving matrix has rank < 2.
    """
    if p.form is not Form.MONOMIAL_PAIR:
        raise PermissibilityError(f"pair blowup applies to monomial_pair, not {p.form.value}")
    if c.j is None or not (1 <= c.i <= p.k) or not (1 <= c.j <= p.k):
        raise PermissibilityError(f"center {c} is not a pair center of this presentation")
    i, j = c.i, c.j
    a_i, b_i = p.column(i)
    a_j, b_j = p.column(j)
    if (a_i - b_i) * (b_j - a_j) <= 0:
        raise PermissibilityError(
            f"columns {i},{j} fail the sign criterion: ({a_i}-{b_i})({b_j}-{a_j}) <= 0"
        )
    u_a, v_a = _bump(p.u_row, j, a_i), _bump(p.v_row, j, b_i)
    a_origin = monomial_pair(u_a, v_a, p.chart_index)
    b_origin = monomial_pair(_bump(p.u_row, i, a_j), _bump(p.v_row, i, b_j), p.chart_index)

    u_g = u_a[: i - 1] + u_a[i:]
    v_g = v_a[: i - 1] + v_a[i:]
    if row_rank(u_g, v_g) == 2:
        a_generic = monomial_pair(u_g, v_g, p.chart_index)
    else:
        a_generic = power_unit_from_rows(u_g, v_g, p.chart_index)

    return DescendantSet((a_origin, a_generic, b_origin))


def blowup_transverse(p: MonomialPresentation, c: Center) -> DescendantSet:
    """Blow up x_1 = x_2 = 0 on a transverse pair u = x_1, v = x_2.

    Every descendant is principal: the first chart gives v = u (x_2 + alpha)
    for some alpha (zero at the origin, nonzero generically), the second
    gives u = x_1 x_2, v = x_2.
    """
    if p.form is not Form.TRANSVERSE:
        raise PermissibilityError(f"transverse blowup applies to transverse, not {p.form.value}")
    if c.j is not None or c.i != 1:
        raise PermissibilityError(f"center {c} is not the transverse center x_1 = x_2 = 0")
    return DescendantSet(
        (
            transverse_unit(p.chart_index, alpha_nonzero=False),
            transverse_unit(p.chart_index, alpha_nonzero=True),
            transverse_product(p.chart_index),
        )
    )


_BLOWUPS = {
    Form.MONOMIAL_FREE: blowup_monomial_free,
    Form.MONOMIAL_PAIR: blowup_monomial_pair,
    Form.TRANSVERSE: blowup_transverse,
}


def blowup(p: MonomialPresentation, c: Center) -> DescendantSet:
    """Apply the blowup rule for p's form, or fail if no center can pass through it."""
    rule = _BLOWUPS.get(p.form)
    if rule is None:
        raise PermissibilityError(
            f"{p.form.value} presentations never meet the non-principal locus"
        )
    return rule(p, c)
