"""Lifting principal presentations through the blowup of the base point.

Once every presentation is principal, one of u, v divides the other and
the morphism factors through the blowup of the base point on the surface.
This module rewrites each leaf in terms of regular parameters at its new
image point (``lift``, one rule on exponent rows: divide the larger
monomial by the smaller), classifies the rewritten form against the
toroidal templates for its own chart's divisor, and then settles the
global picture (``classify_global``): when the image lies on a second
branch of the full target divisor that the chart's own divisor does not
see, the free-coordinate template upgrades to a rank-2 pair by adjoining
the second branch's equation as a fresh coordinate.

Leaves in transverse charts lift to a smooth pair; they match a template
too once a branch of the target divisor passes through their image
(the exceptional curve itself provides one whenever some chart's divisor
contains the base point).

The three toroidal templates are three of the presentation shapes, so a
template is a presentation: a lifted leaf's presentation is its chart
template, and the next round starts from it unchanged (``reseed``).
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .forms import (
    DIVISORIAL_FORMS,
    Form,
    FormError,
    MonomialPresentation,
    NoTemplateMatchError,
    NotPrincipalError,
    divides,
    is_principal,
    monomial_free,
    monomial_pair,
    power_unit_from_rows,
    row_rank,
    transverse,
)
from .principalize import Scenario

#: The toroidal templates by form: each one's name in a trace and the
#: divisor branches it meets.  The free coordinate is ``monomial_free``
#: with v = y (a zero v row).  A smooth lift (``transverse``) is none of
#: them and meets no branch.
TEMPLATES: dict[Form, tuple[str, int]] = {
    Form.MONOMIAL_FREE: ("free_coordinate", 1),
    Form.POWER_UNIT: ("power_unit", 2),
    Form.MONOMIAL_PAIR: ("monomial_pair", 2),
}

#: Note attached when a comparable monomial pair lifts to a rank-2 pair model.
COMPARABLE_PAIR_NOTE = (
    "comparable monomial pair rewrites to two independent monomials; "
    "classified structurally as the rank-2 pair template"
)


def own_branches(p: MonomialPresentation) -> int:
    """Divisor branches that a lifted presentation meets in its own chart."""
    return TEMPLATES[p.form][1] if p.form in TEMPLATES else 0


class SurfaceChart(Enum):
    """Where on the blown-up surface the image point sits.

    ``U``: origin of the chart with coordinates (u, v/u); ``V``: origin of
    the chart with coordinates (u/v, v); ``INTERIOR``: a point of the
    exceptional curve away from both origins (the unit-shift cases).
    """

    U = "u"
    V = "v"
    INTERIOR = "interior"


class LiftedPresentation(NamedTuple):
    """A leaf rewritten at its image point on the blown-up surface.

    ``presentation`` is the chart template, or ``transverse`` for a
    smooth leaf.
    """

    presentation: MonomialPresentation
    surface_chart: SurfaceChart
    note: str | None = None


def lift(p: MonomialPresentation) -> LiftedPresentation:
    """Rewrite a principal presentation in parameters at its lifted image.

    The smaller monomial divides the larger: the quotient rows are
    (u, v - u) at the U origin (u = u1, v = u1*v1) when u divides v, and
    (u - v, v) at the V origin (u = u1*v1, v = v1) when not.  They form a
    rank-2 pair, or a power pair when proportional.  Equal monomial parts
    leave the unit (or the free coordinate) as the new parameter: a free
    coordinate lifts to the U origin, a unit to an interior point.
    """
    if not is_principal(p):
        raise NotPrincipalError("lift is undefined before principalization completes")
    form, c, u, v, alpha_nonzero = p
    if form not in DIVISORIAL_FORMS:
        # The smooth pair: v/u = x_2 (+ alpha) at U or inside, u/v = x_1 at V.
        chart = SurfaceChart.V if form is Form.TRANSVERSE_PRODUCT else SurfaceChart.U
        if alpha_nonzero:
            chart = SurfaceChart.INTERIOR
        return LiftedPresentation(transverse(c), chart)
    if u == v:
        chart = SurfaceChart.U if form is Form.MONOMIAL_FREE else SurfaceChart.INTERIOR
        return LiftedPresentation(monomial_free(u, (0,) * len(u), c), chart)

    if divides(u, v):
        rows, chart = (u, tuple(b - a for a, b in zip(u, v))), SurfaceChart.U
    else:
        rows, chart = (tuple(a - b for a, b in zip(u, v)), v), SurfaceChart.V
    if row_rank(*rows) == 2:
        lifted = monomial_pair(*rows, c)
    elif form is Form.NESTED:
        raise NoTemplateMatchError("nested shape with proportional quotient violates dominance")
    else:
        lifted = power_unit_from_rows(*rows, c)
    note = COMPARABLE_PAIR_NOTE if form is Form.MONOMIAL_PAIR else None
    return LiftedPresentation(lifted, chart, note)


def classify_global(l: LiftedPresentation, branches: int) -> MonomialPresentation | None:
    """Classify a lifted leaf against the full divisor on the blown-up surface.

    ``branches`` counts the full divisor's branches at the image (0 only
    when the image misses it entirely, possible for smooth leaves).  When
    it equals the chart's own count the chart template stands.  A smooth
    leaf's first branch pulls back to a single coordinate.  When the image
    is a 2-point of the full divisor but a 1-point of the chart divisor,
    the second branch's equation extends the parameter system and the
    free-coordinate template becomes a rank-2 pair.  Returns the template,
    or None only for a smooth leaf whose image misses the divisor entirely.
    """
    if branches not in (0, 1, 2):
        raise FormError("branch_count must be 0, 1 or 2")
    p = l.presentation
    own = own_branches(p)
    if branches < own:
        raise FormError("the full divisor cannot have fewer branches than the chart divisor")
    if branches == own:
        return p if own else None
    if own == 0:
        p = monomial_free((1,), (0,), p.chart_index)
        if branches == 1:
            return p
    return monomial_pair(p.u_row + (0,), (0,) * p.k + (1,), p.chart_index)


class ClassifiedLeaf(NamedTuple):
    """A lifted leaf with its global template (None when smooth and off
    the divisor)."""

    source_id: int
    lifted: LiftedPresentation
    e_branches: int
    template: MonomialPresentation | None


def default_branch_count(l: LiftedPresentation, scenario: Scenario, extra: bool) -> int:
    """Branch count of the full divisor at a leaf's image, absent overrides.

    A lifted template already meets its own chart's branches.  A smooth
    leaf still meets the exceptional curve whenever some chart's divisor
    passes through the base point (the curve is then part of the full
    divisor).  The ``extra`` flag adds the one further branch that another
    chart's transformed divisor may contribute to an image the divisor
    meets.
    """
    met = own_branches(l.presentation) or int(any(scenario.charts))
    return min(2, met + extra) if met else 0


def classify_scenario(
    scenario: Scenario,
    extra_branch_charts: frozenset[int] = frozenset(),
    branch_overrides: dict[int, int] | None = None,
) -> list[ClassifiedLeaf]:
    """Lift and globally classify every leaf of a principalized scenario
    (:func:`lift` refuses a non-principal one)."""
    overrides = branch_overrides or {}
    leaves: list[ClassifiedLeaf] = []
    for entry in scenario.entries:
        lifted = lift(entry.presentation)
        extra = entry.presentation.chart_index in extra_branch_charts
        count = overrides.get(entry.id, default_branch_count(lifted, scenario, extra))
        leaves.append(ClassifiedLeaf(entry.id, lifted, count, classify_global(lifted, count)))
    return leaves


def reseed(
    leaves: list[ClassifiedLeaf],
    scenario: Scenario,
    next_charts: tuple[bool, ...],
) -> list[MonomialPresentation]:
    """Initial presentations for the next base-point blowup round.

    The next point either lies on a chart's transformed divisor or not.
    If it does, exactly the leaves sitting on that divisor can meet its
    fiber, and their lifted presentations (the chart templates) are the new
    initial forms; if not, the morphism is smooth over it and each leaf
    contributes a transverse pair.
    """
    if len(next_charts) != len(scenario.charts):
        raise FormError("next round must describe the same charts")
    out: list[MonomialPresentation] = []
    for leaf in leaves:
        p = leaf.lifted.presentation
        if not next_charts[p.chart_index - 1]:
            out.append(transverse(p.chart_index))
        elif p.form is not Form.TRANSVERSE:
            # A smooth leaf's image avoids this chart's divisor.
            out.append(p)
    return out
