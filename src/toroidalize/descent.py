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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .forms import (
    ChartContext,
    Form,
    FormError,
    MonomialPresentation,
    NoTemplateMatchError,
    NotPrincipalError,
    TemplateKind,
    ToroidalTemplate,
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
class EBranchData:
    """How the target divisor meets the image point after the blowup.

    ``branch_count`` counts branches of the full divisor on the blown-up
    surface (0 only when the image misses it entirely, possible for smooth
    leaves); ``chart_branch_count`` counts branches of the presentation's
    own chart divisor and must match what the lift computed.
    """

    branch_count: int
    chart_branch_count: int

    def __post_init__(self) -> None:
        if self.branch_count not in (0, 1, 2):
            raise FormError("branch_count must be 0, 1 or 2")
        if self.chart_branch_count not in (0, 1, 2):
            raise FormError("chart_branch_count must be 0, 1 or 2")
        if self.branch_count < self.chart_branch_count:
            raise FormError("the full divisor cannot have fewer branches than the chart divisor")


@dataclass(frozen=True)
class LiftedPresentation:
    """A leaf rewritten at its image point on the blown-up surface."""

    source_id: int
    presentation: MonomialPresentation
    surface_chart: SurfaceChart
    own_branch_count: int
    template: ToroidalTemplate | None
    note: str | None = None

    @property
    def smooth(self) -> bool:
        return self.template is None


def lift(p: MonomialPresentation, source_id: int = -1) -> LiftedPresentation:
    """Rewrite a principal presentation in parameters at its lifted image.

    The choice between u = u1, v = u1*v1 and u = u1*v1, v = v1 follows
    which side divides which; when both divide (equal monomial parts) the
    image sits at an interior exceptional point and the first choice
    applies after shifting the unit.
    """
    if not is_principal(p):
        raise NotPrincipalError("lift is undefined before principalization completes")
    ctx = p.context
    form = p.form
    diff = tuple(a - b for a, b in p.columns())  # exponents of u / v

    if form is Form.MONOMIAL_FREE:
        # u = x^a, v = x^a * y: u1 = x^a, v1 = y.
        lifted = monomial_free(p.u_row, (0,) * p.k, ctx)
        return _lifted(source_id, lifted, SurfaceChart.U, own_branches=1)

    if form is Form.NESTED:
        if row_rank(diff, p.v_row) != 2:
            raise NoTemplateMatchError(
                "nested shape with proportional quotient violates dominance"
            )
        lifted = monomial_pair(diff, p.v_row, ctx)
        return _lifted(source_id, lifted, SurfaceChart.V, own_branches=2)

    if form is Form.MONOMIAL_UNIT:
        if p.u_row == p.v_row:
            # v = u * unit: interior image point, the shifted unit becomes the
            # fresh coordinate.
            lifted = monomial_free(p.u_row, (0,) * p.k, ctx)
            return _lifted(source_id, lifted, SurfaceChart.INTERIOR, own_branches=1)
        if row_rank(diff, p.v_row) == 2:
            lifted = monomial_pair(diff, p.v_row, ctx)
        else:
            lifted = power_unit_from_rows(diff, p.v_row, ctx)
        return _lifted(source_id, lifted, SurfaceChart.V, own_branches=2)

    if form is Form.POWER_UNIT:
        if p.power_u < p.power_v:
            lifted = power_unit(p.base, p.power_u, p.power_v - p.power_u, ctx)
            return _lifted(source_id, lifted, SurfaceChart.U, own_branches=2)
        if p.power_u == p.power_v:
            lifted = monomial_free(p.u_row, (0,) * p.k, ctx)
            return _lifted(source_id, lifted, SurfaceChart.INTERIOR, own_branches=1)
        lifted = power_unit(p.base, p.power_u - p.power_v, p.power_v, ctx)
        return _lifted(source_id, lifted, SurfaceChart.V, own_branches=2)

    if form is Form.MONOMIAL_PAIR:
        if divides(p.u_row, p.v_row):
            rows = (p.u_row, tuple(b - a for a, b in p.columns()))
            chart = SurfaceChart.U
        else:
            rows = (diff, p.v_row)
            chart = SurfaceChart.V
        lifted = monomial_pair(rows[0], rows[1], ctx)
        return _lifted(
            source_id, lifted, chart, own_branches=2, note=COMPARABLE_PAIR_NOTE
        )

    if form in (Form.TRANSVERSE_UNIT, Form.TRANSVERSE_PRODUCT):
        chart = SurfaceChart.INTERIOR if form is Form.TRANSVERSE_UNIT else SurfaceChart.V
        if form is Form.TRANSVERSE_UNIT and not p.alpha_nonzero:
            chart = SurfaceChart.U
        return LiftedPresentation(
            source_id=source_id,
            presentation=transverse(ctx),
            surface_chart=chart,
            own_branch_count=0,
            template=None,
        )

    raise NotPrincipalError(f"form {form.value} does not lift")


def _lifted(
    source_id: int,
    presentation: MonomialPresentation,
    chart: SurfaceChart,
    own_branches: int,
    note: str | None = None,
) -> LiftedPresentation:
    template = match_template(presentation, EBranchData(own_branches, own_branches))
    return LiftedPresentation(
        source_id=source_id,
        presentation=presentation,
        surface_chart=chart,
        own_branch_count=own_branches,
        template=template,
        note=note,
    )


def classify_global(l: LiftedPresentation, e: EBranchData) -> ToroidalTemplate | None:
    """Classify a lifted leaf against the full divisor on the blown-up surface.

    When the branch counts agree the chart template stands.  When the image
    is a 2-point of the full divisor but a 1-point of the chart divisor,
    the second branch's equation extends the parameter system and the
    free-coordinate template becomes a rank-2 pair.  Returns None only for
    a smooth leaf whose image misses the divisor entirely.
    """
    if e.chart_branch_count != l.own_branch_count:
        raise FormError(
            f"branch data says {e.chart_branch_count} chart branches, lift computed {l.own_branch_count}"
        )
    if l.template is None:
        if e.branch_count == 0:
            return None
        if e.branch_count == 1:
            # Smooth pair with one divisor branch through the image: the branch
            # pulls back to a single coordinate.
            return ToroidalTemplate(TemplateKind.FREE_COORDINATE, row=(1,))
        return ToroidalTemplate(
            TemplateKind.MONOMIAL_PAIR, u_row=(1, 0), v_row=(0, 1)
        )

    if e.branch_count == l.own_branch_count:
        return l.template
    if l.template.kind is TemplateKind.FREE_COORDINATE and e.branch_count == 2:
        row = l.template.row
        return ToroidalTemplate(
            TemplateKind.MONOMIAL_PAIR,
            u_row=row + (0,),
            v_row=(0,) * len(row) + (1,),
        )
    raise NoTemplateMatchError(
        f"{l.template.kind.value} template cannot meet {e.branch_count} divisor branches"
    )


@dataclass(frozen=True)
class ClassifiedLeaf:
    source_id: int
    chart_index: int
    lifted: LiftedPresentation
    e_branches: EBranchData
    template: ToroidalTemplate | None

    @property
    def outcome(self) -> str:
        return self.template.kind.value if self.template else "smooth"


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
        lifted = lift(entry.presentation, source_id=entry.id)
        chart = entry.presentation.context.chart_index
        extra = chart in extra_branch_charts
        count = overrides.get(entry.id, default_branch_count(lifted, scenario, extra))
        branch_data = EBranchData(count, lifted.own_branch_count)
        template = classify_global(lifted, branch_data)
        leaves.append(
            ClassifiedLeaf(
                source_id=entry.id,
                chart_index=chart,
                lifted=lifted,
                e_branches=branch_data,
                template=template,
            )
        )
    return leaves


def reseed(
    leaves: list[ClassifiedLeaf],
    scenario: Scenario,
    next_charts: tuple[bool, ...],
) -> list[MonomialPresentation]:
    """Initial presentations for the next base-point blowup round.

    The next point either lies on a chart's transformed divisor or not.
    If it does, exactly the leaves sitting on that divisor can meet its
    fiber, and their chart templates are the new initial forms; if not,
    the morphism is smooth over it and each leaf contributes a transverse
    pair.
    """
    if len(next_charts) != len(scenario.charts):
        raise FormError("next round must describe the same charts")
    out: list[MonomialPresentation] = []
    for leaf in leaves:
        on_divisor = next_charts[leaf.chart_index - 1]
        ctx = ChartContext(leaf.chart_index, q_in_divisor=on_divisor)
        if not on_divisor:
            out.append(transverse(ctx))
            continue
        lifted = leaf.lifted
        if lifted.template is None:
            continue  # smooth leaf: its image avoids this chart's divisor
        t = lifted.template
        if t.kind is TemplateKind.FREE_COORDINATE:
            out.append(monomial_free(t.row, (0,) * len(t.row), ctx))
        elif t.kind is TemplateKind.POWER_UNIT:
            out.append(power_unit(t.base, t.power_u, t.power_v, ctx))
        else:
            out.append(monomial_pair(t.u_row, t.v_row, ctx))
    return out
