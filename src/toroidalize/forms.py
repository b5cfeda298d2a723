"""Local shapes of a dominant morphism to a surface near a base point.

Every state handled by this package is a finite list of *local monomial
presentations*: exact descriptions of the two base-surface parameters
``u, v`` pulled back to a point of the source, written in terms of local
coordinates ``x_1, ..., x_k`` (the variables cutting the relevant normal
crossing divisor) plus at most one extra coordinate.  Eight shapes occur:

==================  =========================================================
``MONOMIAL_FREE``   u = x^a,        v = x^b * y          (y a fresh coordinate)
``NESTED``          u = x^a,        v = x^b               with b <= a, b != a
``MONOMIAL_UNIT``   u = x^a,        v = x^b * (y + alpha) with alpha != 0
``POWER_UNIT``      u = (x^g)^m,    v = (x^g)^t * (y + alpha), alpha != 0
``MONOMIAL_PAIR``   u = x^a,        v = x^b               with rank [a; b] = 2
``TRANSVERSE``          u = x_1,    v = x_2
``TRANSVERSE_UNIT``     u = x_1,    v = x_1 * (x_2 + alpha)
``TRANSVERSE_PRODUCT``  u = x_1 x_2, v = x_2
==================  =========================================================

The first five shapes occur at points whose base chart carries the target
divisor through the base point; the last three occur where it does not.
A presentation records only its chart's index: whether the base point lies
on that chart's divisor is stored once, in ``Scenario.charts``, and
:func:`check_chart` matches a shape's family against that flag.
Exponents are arbitrary-precision non-negative integers, and field constants
are never stored: the only fact any rule consumes is whether the shift
``alpha`` is zero, so it is kept as a boolean flag.

All types are immutable value objects and safe to share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from math import gcd

ExponentRow = tuple[int, ...]


class FormError(ValueError):
    """Presentation data violates the invariants of its declared shape."""


class NoTemplateMatchError(ValueError):
    """A local form fits none of the toroidal target templates."""


class NotPrincipalError(ValueError):
    """An operation requiring a principal pair was given a non-principal one."""


class Form(Enum):
    MONOMIAL_FREE = "monomial_free"
    NESTED = "nested"
    MONOMIAL_UNIT = "monomial_unit"
    POWER_UNIT = "power_unit"
    MONOMIAL_PAIR = "monomial_pair"
    TRANSVERSE = "transverse"
    TRANSVERSE_UNIT = "transverse_unit"
    TRANSVERSE_PRODUCT = "transverse_product"


#: Shapes that occur in charts whose base point lies on the target divisor.
DIVISORIAL_FORMS = frozenset(
    {
        Form.MONOMIAL_FREE,
        Form.NESTED,
        Form.MONOMIAL_UNIT,
        Form.POWER_UNIT,
        Form.MONOMIAL_PAIR,
    }
)

#: Shapes that occur in charts whose base point misses the target divisor.
TRANSVERSE_FORMS = frozenset(
    {Form.TRANSVERSE, Form.TRANSVERSE_UNIT, Form.TRANSVERSE_PRODUCT}
)


def check_chart(form: Form, on_divisor: bool) -> None:
    """A divisorial shape sits on a divisor chart, a transverse one off it."""
    if form in DIVISORIAL_FORMS and not on_divisor:
        raise FormError(f"{form.value} requires a chart with the base point on the divisor")
    if form in TRANSVERSE_FORMS and on_divisor:
        raise FormError(f"{form.value} requires a chart with the base point off the divisor")


def validate_row(row: ExponentRow, *, what: str = "exponent row") -> None:
    if not isinstance(row, tuple):
        raise FormError(f"{what} must be a tuple, got {type(row).__name__}")
    for e in row:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise FormError(f"{what} entries must be non-negative integers, got {e!r}")


def row_rank(u_row: ExponentRow, v_row: ExponentRow) -> int:
    """Rank of the 2 x k integer matrix [u_row; v_row], by exact 2x2 minors."""
    if len(u_row) != len(v_row):
        raise FormError("rows must have equal length")
    if any(u_row) or any(v_row):
        for i, j in itertools.combinations(range(len(u_row)), 2):
            if u_row[i] * v_row[j] - u_row[j] * v_row[i] != 0:
                return 2
        return 1
    return 0


def primitive_part(row: ExponentRow) -> tuple[ExponentRow, int]:
    """Split a nonzero row into (primitive direction, content)."""
    content = 0
    for e in row:
        content = gcd(content, e)
    if content == 0:
        raise FormError("zero row has no primitive part")
    return tuple(e // content for e in row), content


def divides(a: ExponentRow, b: ExponentRow) -> bool:
    """Componentwise a <= b, i.e. the monomial x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b, strict=True))


@dataclass(frozen=True)
class MonomialPresentation:
    """One local chart presentation of the morphism at a point.

    ``u_row`` and ``v_row`` hold the exponents of the divisor variables in
    u and v; any trailing free coordinate or unit factor is implied by the
    form tag.  For ``POWER_UNIT`` the canonical data is the primitive
    ``base`` row with the two powers, and ``u_row``/``v_row`` are the
    expanded products (kept explicit so column access is uniform).
    ``chart_index`` is 1-based and stable under every blowup of a run; the
    chart's divisor flag lives in ``Scenario.charts``.
    """

    form: Form
    chart_index: int
    u_row: ExponentRow = ()
    v_row: ExponentRow = ()
    base: ExponentRow | None = None
    power_u: int = 0
    power_v: int = 0
    alpha_nonzero: bool = False

    def __post_init__(self) -> None:
        if self.chart_index < 1:
            raise FormError(f"chart_index must be >= 1, got {self.chart_index}")
        validate_row(self.u_row, what="u_row")
        validate_row(self.v_row, what="v_row")
        if len(self.u_row) != len(self.v_row):
            raise FormError("u_row and v_row must have equal length")
        validator = _VALIDATORS[self.form]
        validator(self)

    @property
    def k(self) -> int:
        """Number of stored divisor-variable columns."""
        return len(self.u_row)

    def column(self, i: int) -> tuple[int, int]:
        """The (u, v) exponent pair of 1-based variable index i."""
        return self.u_row[i - 1], self.v_row[i - 1]

    def columns(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.u_row, self.v_row))


def _validate_monomial_free(p: MonomialPresentation) -> None:
    # u = x^a, v = x^b * y: u cuts the whole divisor, so every a_i > 0.
    if p.k < 1:
        raise FormError("monomial_free needs at least one divisor variable")
    _check_u_positive_v_divides(p)
    if p.alpha_nonzero:
        raise FormError("monomial_free carries a bare free coordinate, not a unit shift")
    _no_power_data(p)


def _validate_nested(p: MonomialPresentation) -> None:
    if p.k < 2:
        raise FormError("nested needs at least two divisor variables")
    _check_u_positive_v_divides(p)
    if p.v_row == p.u_row:
        raise FormError("nested requires v to divide u strictly")
    if p.alpha_nonzero:
        raise FormError("nested carries no unit factor")
    _no_power_data(p)


def _validate_monomial_unit(p: MonomialPresentation) -> None:
    if p.k < 1:
        raise FormError("monomial_unit needs at least one divisor variable")
    _check_u_positive_v_divides(p)
    if not any(p.v_row):
        raise FormError("monomial_unit requires v to vanish at the point (some b_i > 0)")
    if not p.alpha_nonzero:
        raise FormError("monomial_unit requires a nonzero unit shift")
    _no_power_data(p)


def _validate_power_unit(p: MonomialPresentation) -> None:
    if p.base is None:
        raise FormError("power_unit requires a base row")
    validate_row(p.base, what="base")
    if not p.base or not all(g > 0 for g in p.base):
        raise FormError("power_unit base entries must all be positive")
    if primitive_part(p.base)[1] != 1:
        raise FormError("power_unit base must be primitive")
    if p.power_u < 1 or p.power_v < 1:
        raise FormError("power_unit powers must be positive")
    if not p.alpha_nonzero:
        raise FormError("power_unit requires a nonzero unit shift")
    if p.u_row != tuple(p.power_u * g for g in p.base):
        raise FormError("power_unit u_row must equal power_u * base")
    if p.v_row != tuple(p.power_v * g for g in p.base):
        raise FormError("power_unit v_row must equal power_v * base")


def _validate_monomial_pair(p: MonomialPresentation) -> None:
    if p.k < 2:
        raise FormError("monomial_pair needs at least two divisor variables")
    if not all(a + b > 0 for a, b in p.columns()):
        raise FormError("monomial_pair requires a_i + b_i > 0 in every column")
    if row_rank(p.u_row, p.v_row) != 2:
        raise FormError("monomial_pair requires rank [u_row; v_row] = 2")
    if p.alpha_nonzero:
        raise FormError("monomial_pair carries no unit factor")
    _no_power_data(p)


def _validate_transverse(p: MonomialPresentation) -> None:
    if p.columns() != ((1, 0), (0, 1)):
        raise FormError("transverse must have u = x_1, v = x_2")
    if p.alpha_nonzero:
        raise FormError("transverse carries no unit factor")
    _no_power_data(p)


def _validate_transverse_unit(p: MonomialPresentation) -> None:
    # u = x_1, v = x_1 (x_2 + alpha); here alpha may vanish.
    if p.columns() != ((1, 1),):
        raise FormError("transverse_unit must have u = x_1, v = x_1 * (x_2 + alpha)")
    _no_power_data(p)


def _validate_transverse_product(p: MonomialPresentation) -> None:
    if p.columns() != ((1, 0), (1, 1)):
        raise FormError("transverse_product must have u = x_1 x_2, v = x_2")
    if p.alpha_nonzero:
        raise FormError("transverse_product carries no unit factor")
    _no_power_data(p)


def _check_u_positive_v_divides(p: MonomialPresentation) -> None:
    if not all(a > 0 for a in p.u_row):
        raise FormError(f"{p.form.value} requires every u-exponent positive")
    if not divides(p.v_row, p.u_row):
        raise FormError(f"{p.form.value} requires v-exponents <= u-exponents")


def _no_power_data(p: MonomialPresentation) -> None:
    if p.base is not None or p.power_u or p.power_v:
        raise FormError(f"{p.form.value} does not take power data")


_VALIDATORS = {
    Form.MONOMIAL_FREE: _validate_monomial_free,
    Form.NESTED: _validate_nested,
    Form.MONOMIAL_UNIT: _validate_monomial_unit,
    Form.POWER_UNIT: _validate_power_unit,
    Form.MONOMIAL_PAIR: _validate_monomial_pair,
    Form.TRANSVERSE: _validate_transverse,
    Form.TRANSVERSE_UNIT: _validate_transverse_unit,
    Form.TRANSVERSE_PRODUCT: _validate_transverse_product,
}


# -- convenience constructors -------------------------------------------------

def monomial_free(u_row, v_row, chart_index: int) -> MonomialPresentation:
    return MonomialPresentation(Form.MONOMIAL_FREE, chart_index, tuple(u_row), tuple(v_row))


def nested(u_row, v_row, chart_index: int) -> MonomialPresentation:
    return MonomialPresentation(Form.NESTED, chart_index, tuple(u_row), tuple(v_row))


def monomial_unit(u_row, v_row, chart_index: int) -> MonomialPresentation:
    return MonomialPresentation(
        Form.MONOMIAL_UNIT, chart_index, tuple(u_row), tuple(v_row), alpha_nonzero=True
    )


def power_unit(base, power_u: int, power_v: int, chart_index: int) -> MonomialPresentation:
    base = tuple(base)
    return MonomialPresentation(
        Form.POWER_UNIT,
        chart_index,
        tuple(power_u * g for g in base),
        tuple(power_v * g for g in base),
        base=base,
        power_u=power_u,
        power_v=power_v,
        alpha_nonzero=True,
    )


def power_unit_from_rows(u_row, v_row, chart_index: int) -> MonomialPresentation:
    """Canonical power-pair shape for two proportional nonzero rows."""
    gu, mu = primitive_part(tuple(u_row))
    gv, mv = primitive_part(tuple(v_row))
    if gu != gv:
        raise FormError("rows are not proportional, no common primitive base")
    return power_unit(gu, mu, mv, chart_index)


def monomial_pair(u_row, v_row, chart_index: int) -> MonomialPresentation:
    return MonomialPresentation(Form.MONOMIAL_PAIR, chart_index, tuple(u_row), tuple(v_row))


def transverse(chart_index: int) -> MonomialPresentation:
    return MonomialPresentation(Form.TRANSVERSE, chart_index, (1, 0), (0, 1))


def transverse_unit(chart_index: int, alpha_nonzero: bool) -> MonomialPresentation:
    return MonomialPresentation(
        Form.TRANSVERSE_UNIT, chart_index, (1,), (1,), alpha_nonzero=alpha_nonzero
    )


def transverse_product(chart_index: int) -> MonomialPresentation:
    return MonomialPresentation(Form.TRANSVERSE_PRODUCT, chart_index, (1, 1), (0, 1))


# -- principality ---------------------------------------------------------------

def is_principal(p: MonomialPresentation) -> bool:
    """Whether the pulled-back pair (u, v) generates a principal ideal at p.

    Unit factors are invertible and free coordinates divide nothing, so the
    decision reduces to componentwise divisibility between the monomial
    parts, with the fresh coordinate of ``MONOMIAL_FREE`` blocking v from
    dividing u.
    """
    form = p.form
    if form is Form.MONOMIAL_FREE:
        # (x^a, x^b * y) is principal iff x^a divides x^b.
        return divides(p.u_row, p.v_row)
    if form in (Form.NESTED, Form.TRANSVERSE_UNIT, Form.TRANSVERSE_PRODUCT):
        return True
    if form in (Form.MONOMIAL_UNIT, Form.POWER_UNIT, Form.MONOMIAL_PAIR):
        return divides(p.u_row, p.v_row) or divides(p.v_row, p.u_row)
    if form is Form.TRANSVERSE:
        return False
    raise FormError(f"unknown form {form!r}")


# -- toroidal target templates -------------------------------------------------

class TemplateKind(Enum):
    FREE_COORDINATE = "free_coordinate"   # u = x^a (a_i > 0), v = fresh coordinate
    POWER_UNIT = "power_unit"             # u = (x^g)^m, v = (x^g)^t * (unit)
    MONOMIAL_PAIR = "monomial_pair"       # u = x^a, v = x^b, rank 2


def match_template(p: MonomialPresentation, branches: int) -> TemplateKind:
    """Match a lifted local form against the toroidal templates.

    ``branches`` counts the target divisor's branches at the image point:
    1 when a single branch passes through (cut by u alone) and 2 when two
    branches do (cut by u and v together).  The three templates are three
    of the shapes above, so a match only certifies the shape and the branch
    count; the presentation itself is the template.  A mismatch raises
    ``NoTemplateMatchError``.
    """
    if branches not in (1, 2):
        raise FormError(f"branch_count must be 1 or 2, got {branches}")
    if p.form is Form.MONOMIAL_FREE and not any(p.v_row):
        if branches != 1:
            raise NoTemplateMatchError(
                "free-coordinate shape needs a single divisor branch at the image"
            )
        return TemplateKind.FREE_COORDINATE
    if p.form is Form.POWER_UNIT:
        if branches != 2:
            raise NoTemplateMatchError("power-pair shape needs two divisor branches at the image")
        return TemplateKind.POWER_UNIT
    if p.form is Form.MONOMIAL_PAIR:
        if branches != 2:
            raise NoTemplateMatchError("monomial-pair shape needs two divisor branches at the image")
        return TemplateKind.MONOMIAL_PAIR
    raise NoTemplateMatchError(f"form {p.form.value} matches no toroidal template")
