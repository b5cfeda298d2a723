"""Lifting principal presentations through the blowup of the base point.

Once every presentation is principal, one of u, v divides the other and
the morphism factors through the blowup of the base point on the surface.
This module rewrites each leaf in terms of regular parameters at its new
image point (``lift``), classifies the rewritten form against the toroidal
templates for its own chart's divisor, and then settles the global picture
(``classify_global``): when the image lies on a second branch of the full
target divisor that the chart's own divisor does not see, the
free-coordinate template upgrades to a rank-2 pair by adjoining the second
branch's equation as a fresh coordinate.

Leaves in transverse charts lift to a smooth pair; they match a template
too once a branch of the target divisor passes through their image
(the exceptional curve itself provides one whenever some chart's divisor
contains the base point).

The three toroidal templates are three of the presentation shapes, so a
template is a presentation: a lifted leaf's presentation is its chart
template, and the next round starts from it unchanged (``reseed``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .forms import (
    Form,
    FormError,
    MonomialPresentation,
    NoTemplateMatchError,
    NotPrincipalError,
    TemplateKind,
    divides,
    is_principal,
    match_template,
    monomial_free,
    monomial_pair,
    power_unit,
    power_unit_from_rows,
    row_rank,
    transverse,
)
from .principalize import Scenario

#: Note attached when a comparable monomial pair lifts to a rank-2 pair model.
COMPARABLE_PAIR_NOTE = (
    "comparable monomial pair rewrites to two independent monomials; "
    "classified structurally as the rank-2 pair template"
)


class SurfaceChart(Enum):
    """Where on the blown-up surface the image point sits.

    ``U``: origin of the chart with coordinates (u, v/u); ``V``: origin of
    the chart with coordinates (u/v, v); ``INTERIOR``: a point of the
    exceptional curve away from both origins (the unit-shift cases).
    """

    U = "u"
    V = "v"
    INTERIOR = "interior"


@dataclass(frozen=True)
class LiftedPresentation:
    """A leaf rewritten at its image point on the blown-up surface.

    ``kind`` names the template that ``presentation`` matches against its
    own chart's ``own_branch_count`` divisor branches, and is None for a
    smooth leaf; the presentation itself is the chart template.
    """

    presentation: MonomialPresentation
    surface_chart: SurfaceChart
    own_branch_count: int
    kind: TemplateKind | None
    note: str | None = None

    @property
    def smooth(self) -> bool:
        return self.kind is None


def lift(p: MonomialPresentation) -> LiftedPresentation:
    """Rewrite a principal presentation in parameters at its lifted image.

    The choice between u = u1, v = u1*v1 and u = u1*v1, v = v1 follows
    which side divides which; when both divide (equal monomial parts) the
    image sits at an interior exceptional point and the first choice
    applies after shifting the unit.
    """
    if not is_principal(p):
        raise NotPrincipalError("lift is undefined before principalization completes")
    c = p.chart_index
    form = p.form
    diff = tuple(a - b for a, b in p.columns())  # exponents of u / v

    if form is Form.MONOMIAL_FREE:
        # u = x^a, v = x^a * y: u1 = x^a, v1 = y.
        lifted = monomial_free(p.u_row, (0,) * p.k, c)
        return _lifted(lifted, SurfaceChart.U, own_branches=1)

    if form is Form.NESTED:
        if row_rank(diff, p.v_row) != 2:
            raise NoTemplateMatchError(
                "nested shape with proportional quotient violates dominance"
            )
        lifted = monomial_pair(diff, p.v_row, c)
        return _lifted(lifted, SurfaceChart.V, own_branches=2)

    if form is Form.MONOMIAL_UNIT:
        if p.u_row == p.v_row:
            # v = u * unit: interior image point, the shifted unit becomes the
            # fresh coordinate.
            lifted = monomial_free(p.u_row, (0,) * p.k, c)
            return _lifted(lifted, SurfaceChart.INTERIOR, own_branches=1)
        if row_rank(diff, p.v_row) == 2:
            lifted = monomial_pair(diff, p.v_row, c)
        else:
            lifted = power_unit_from_rows(diff, p.v_row, c)
        return _lifted(lifted, SurfaceChart.V, own_branches=2)

    if form is Form.POWER_UNIT:
        if p.power_u < p.power_v:
            lifted = power_unit(p.base, p.power_u, p.power_v - p.power_u, c)
            return _lifted(lifted, SurfaceChart.U, own_branches=2)
        if p.power_u == p.power_v:
            lifted = monomial_free(p.u_row, (0,) * p.k, c)
            return _lifted(lifted, SurfaceChart.INTERIOR, own_branches=1)
        lifted = power_unit(p.base, p.power_u - p.power_v, p.power_v, c)
        return _lifted(lifted, SurfaceChart.V, own_branches=2)

    if form is Form.MONOMIAL_PAIR:
        if divides(p.u_row, p.v_row):
            rows = (p.u_row, tuple(b - a for a, b in p.columns()))
            chart = SurfaceChart.U
        else:
            rows = (diff, p.v_row)
            chart = SurfaceChart.V
        lifted = monomial_pair(rows[0], rows[1], c)
        return _lifted(lifted, chart, own_branches=2, note=COMPARABLE_PAIR_NOTE)

    if form in (Form.TRANSVERSE_UNIT, Form.TRANSVERSE_PRODUCT):
        chart = SurfaceChart.INTERIOR if form is Form.TRANSVERSE_UNIT else SurfaceChart.V
        if form is Form.TRANSVERSE_UNIT and not p.alpha_nonzero:
            chart = SurfaceChart.U
        return LiftedPresentation(
            presentation=transverse(c), surface_chart=chart, own_branch_count=0, kind=None
        )

    raise NotPrincipalError(f"form {form.value} does not lift")


def _lifted(
    presentation: MonomialPresentation,
    chart: SurfaceChart,
    own_branches: int,
    note: str | None = None,
) -> LiftedPresentation:
    return LiftedPresentation(
        presentation=presentation,
        surface_chart=chart,
        own_branch_count=own_branches,
        kind=match_template(presentation, own_branches),
        note=note,
    )


def classify_global(
    l: LiftedPresentation, branches: int
) -> tuple[TemplateKind, MonomialPresentation] | None:
    """Classify a lifted leaf against the full divisor on the blown-up surface.

    ``branches`` counts the full divisor's branches at the image (0 only
    when the image misses it entirely, possible for smooth leaves).  When
    it equals the chart's own count the chart template stands.  When the
    image is a 2-point of the full divisor but a 1-point of the chart
    divisor, the second branch's equation extends the parameter system and
    the free-coordinate template becomes a rank-2 pair.  Returns the
    template's kind and presentation, or None only for a smooth leaf whose
    image misses the divisor entirely.
    """
    if branches not in (0, 1, 2):
        raise FormError("branch_count must be 0, 1 or 2")
    if branches < l.own_branch_count:
        raise FormError("the full divisor cannot have fewer branches than the chart divisor")
    c = l.presentation.chart_index
    if l.kind is None:
        if branches == 0:
            return None
        if branches == 1:
            # Smooth pair with one divisor branch through the image: the branch
            # pulls back to a single coordinate.
            return TemplateKind.FREE_COORDINATE, monomial_free((1,), (0,), c)
        return TemplateKind.MONOMIAL_PAIR, monomial_pair((1, 0), (0, 1), c)

    if branches == l.own_branch_count:
        return l.kind, l.presentation
    if l.kind is TemplateKind.FREE_COORDINATE and branches == 2:
        row = l.presentation.u_row
        return TemplateKind.MONOMIAL_PAIR, monomial_pair(row + (0,), (0,) * len(row) + (1,), c)
    raise NoTemplateMatchError(
        f"{l.kind.value} template cannot meet {branches} divisor branches"
    )


@dataclass(frozen=True)
class ClassifiedLeaf:
    """A lifted leaf with its global template (``kind`` None when smooth)."""

    source_id: int
    chart_index: int
    lifted: LiftedPresentation
    e_branches: int
    kind: TemplateKind | None
    template: MonomialPresentation | None

    @property
    def outcome(self) -> str:
        return self.kind.value if self.kind else "smooth"


def default_branch_count(l: LiftedPresentation, scenario: Scenario, extra: bool) -> int:
    """Branch count of the full divisor at a leaf's image, absent overrides.

    A lifted template already meets its own chart's branches.  A smooth
    leaf still meets the exceptional curve whenever some chart's divisor
    passes through the base point (the curve is then part of the full
    divisor).  The ``extra`` flag adds the one further branch that another
    chart's transformed divisor may contribute.
    """
    own = l.own_branch_count
    if own == 2:
        return 2
    if own == 1:
        return 2 if extra else 1
    base = 1 if any(scenario.charts) else 0
    if base == 1 and extra:
        return 2
    return base


def classify_scenario(
    scenario: Scenario,
    extra_branch_charts: frozenset[int] = frozenset(),
    branch_overrides: dict[int, int] | None = None,
) -> list[ClassifiedLeaf]:
    """Lift and globally classify every leaf of a principalized scenario."""
    if scenario.locus():
        raise NotPrincipalError("scenario still has non-principal presentations")
    overrides = branch_overrides or {}
    leaves: list[ClassifiedLeaf] = []
    for entry in scenario.entries:
        lifted = lift(entry.presentation)
        chart = entry.presentation.chart_index
        extra = chart in extra_branch_charts
        count = overrides.get(entry.id, default_branch_count(lifted, scenario, extra))
        kind, template = classify_global(lifted, count) or (None, None)
        leaves.append(ClassifiedLeaf(entry.id, chart, lifted, count, kind, template))
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
        if not next_charts[leaf.chart_index - 1]:
            out.append(transverse(leaf.chart_index))
        elif not leaf.lifted.smooth:
            # A smooth leaf's image avoids this chart's divisor.
            out.append(leaf.lifted.presentation)
    return out
