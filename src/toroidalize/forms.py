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
A presentation is its form, its chart's index, its two exponent rows and
the ``alpha`` flag, nothing more: a power pair's base and powers are read
off its rows.  Whether the base point lies on the chart's divisor is
stored once, in ``Scenario.charts``, and :func:`check_chart` matches a
shape's family against that flag.  Principality is one divisibility test
on the rows (:func:`is_principal`).  Exponents are arbitrary-precision
non-negative integers, and field constants are never stored: the only
fact any rule consumes is whether the shift ``alpha`` is zero, so it is
kept as a boolean flag.

All types are immutable value objects and safe to share across threads.
A presentation is a ``NamedTuple`` whose every constructor validates:
calling the class, ``_make`` and ``_replace`` all run the shape checks.

Every presentation the engine builds is checked, so the checks are kept
cheap.  Divisibility (:func:`divides`), positivity and the zero-column
test are one ``all`` call each, over a row or a ``map``, so they loop in
C builtins.  A row entry passes on one type-identity test (a
non-negative plain ``int``); the full per-entry test runs only on an
entry that fails it, to accept an ``int`` subclass or to name the first
bad entry.  :func:`row_rank` compares every column with the first
nonzero one, in O(k).  ``Form`` members hash by identity, so the
dispatch tables on a form hash in C.
"""

from __future__ import annotations

from enum import Enum
from math import gcd
from operator import add, le
from typing import NamedTuple

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

    # Members are singletons compared by identity, so identity hashing
    # agrees with equality and lets dict and set lookups hash in C.
    __hash__ = object.__hash__


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


def check_chart(form: Form, on_divisor: bool) -> None:
    """A divisorial shape sits on a divisor chart, a transverse one off it."""
    if (form in DIVISORIAL_FORMS) != on_divisor:
        side = "off" if on_divisor else "on"
        raise FormError(f"{form.value} requires a chart with the base point {side} the divisor")


def validate_row(row: ExponentRow, *, what: str = "exponent row") -> None:
    # A plain tuple only: the value types are tuples too and never rows.
    if type(row) is not tuple:
        raise FormError(f"{what} must be a tuple, got {type(row).__name__}")
    for e in row:
        # A non-negative plain int passes the first test alone; anything else
        # (an int subclass, a bool, a negative or a non-int) takes the full one.
        if (type(e) is not int or e < 0) and (
            not isinstance(e, int) or isinstance(e, bool) or e < 0
        ):
            raise FormError(f"{what} entries must be non-negative integers, got {e!r}")


def row_rank(u_row: ExponentRow, v_row: ExponentRow) -> int:
    """Rank of the 2 x k integer matrix [u_row; v_row], by exact 2x2 minors.

    The rank is 2 exactly when some column is not a multiple of the first
    nonzero column f, i.e. some minor u_f v_j - u_j v_f is nonzero.
    """
    if len(u_row) != len(v_row):
        raise FormError("rows must have equal length")
    for u_f, v_f in zip(u_row, v_row):
        if u_f or v_f:
            break
    else:
        return 0
    for u_j, v_j in zip(u_row, v_row):
        if u_f * v_j != u_j * v_f:
            return 2
    return 1


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
    if len(a) != len(b):
        raise ValueError("rows must have equal length")
    return all(map(le, a, b))


class _PresentationFields(NamedTuple):
    form: Form
    chart_index: int
    u_row: ExponentRow
    v_row: ExponentRow
    alpha_nonzero: bool


class MonomialPresentation(_PresentationFields):
    """One local chart presentation of the morphism at a point.

    ``u_row`` and ``v_row`` hold the exponents of the divisor variables in
    u and v; any trailing free coordinate or unit factor is implied by the
    form tag.  A ``POWER_UNIT`` pair stores only its rows; its ``base``,
    ``power_u`` and ``power_v`` are read off them.
    ``chart_index`` is 1-based and stable under every blowup of a run; the
    chart's divisor flag lives in ``Scenario.charts``.
    """

    __slots__ = ()

    def __new__(cls, form, chart_index, u_row=(), v_row=(), alpha_nonzero=False):
        if chart_index < 1:
            raise FormError(f"chart_index must be >= 1, got {chart_index}")
        validate_row(u_row, what="u_row")
        validate_row(v_row, what="v_row")
        if len(u_row) != len(v_row):
            raise FormError("u_row and v_row must have equal length")
        _VALIDATORS[form](u_row, v_row, alpha_nonzero)
        return tuple.__new__(cls, (form, chart_index, u_row, v_row, alpha_nonzero))

    @classmethod
    def _make(cls, fields):  # ``_replace`` builds its result here too
        return cls(*fields)

    @property
    def k(self) -> int:
        """Number of stored divisor-variable columns."""
        return len(self.u_row)

    def column(self, i: int) -> tuple[int, int]:
        """The (u, v) exponent pair of 1-based variable index i."""
        return self.u_row[i - 1], self.v_row[i - 1]

    def columns(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.u_row, self.v_row))

    @property
    def base(self) -> ExponentRow:
        """A power pair's primitive base g, with u_row = power_u * g."""
        return primitive_part(self.u_row)[0]

    @property
    def power_u(self) -> int:
        return primitive_part(self.u_row)[1]

    @property
    def power_v(self) -> int:
        return primitive_part(self.v_row)[1]


# Each validator takes the fields of a presentation whose rows are already
# known to be equal-length tuples of non-negative ints.

def _validate_monomial_free(u_row: ExponentRow, v_row: ExponentRow, alpha_nonzero: bool) -> None:
    # u = x^a, v = x^b * y: u cuts the whole divisor, so every a_i > 0.
    if not u_row:
        raise FormError("monomial_free needs at least one divisor variable")
    _check_u_positive_v_divides("monomial_free", u_row, v_row)
    if alpha_nonzero:
        raise FormError("monomial_free carries a bare free coordinate, not a unit shift")


def _validate_nested(u_row: ExponentRow, v_row: ExponentRow, alpha_nonzero: bool) -> None:
    if len(u_row) < 2:
        raise FormError("nested needs at least two divisor variables")
    _check_u_positive_v_divides("nested", u_row, v_row)
    if v_row == u_row:
        raise FormError("nested requires v to divide u strictly")
    if alpha_nonzero:
        raise FormError("nested carries no unit factor")


def _validate_monomial_unit(u_row: ExponentRow, v_row: ExponentRow, alpha_nonzero: bool) -> None:
    if not u_row:
        raise FormError("monomial_unit needs at least one divisor variable")
    _check_u_positive_v_divides("monomial_unit", u_row, v_row)
    if not any(v_row):
        raise FormError("monomial_unit requires v to vanish at the point (some b_i > 0)")
    if not alpha_nonzero:
        raise FormError("monomial_unit requires a nonzero unit shift")


def _validate_power_unit(u_row: ExponentRow, v_row: ExponentRow, alpha_nonzero: bool) -> None:
    # u = (x^g)^m, v = (x^g)^t: proportional rows over a positive base g.
    if not (
        u_row and all(u_row) and all(v_row)
        and primitive_part(u_row)[0] == primitive_part(v_row)[0]
    ):
        raise FormError("power_unit needs two proportional rows with positive entries")
    if not alpha_nonzero:
        raise FormError("power_unit requires a nonzero unit shift")


def _validate_monomial_pair(u_row: ExponentRow, v_row: ExponentRow, alpha_nonzero: bool) -> None:
    if len(u_row) < 2:
        raise FormError("monomial_pair needs at least two divisor variables")
    # Entries are non-negative, so a column sum is zero only on a zero column.
    if not all(map(add, u_row, v_row)):
        raise FormError("monomial_pair requires a_i + b_i > 0 in every column")
    if row_rank(u_row, v_row) != 2:
        raise FormError("monomial_pair requires rank [u_row; v_row] = 2")
    if alpha_nonzero:
        raise FormError("monomial_pair carries no unit factor")


def _validate_transverse(u_row: ExponentRow, v_row: ExponentRow, alpha_nonzero: bool) -> None:
    if u_row != (1, 0) or v_row != (0, 1):
        raise FormError("transverse must have u = x_1, v = x_2")
    if alpha_nonzero:
        raise FormError("transverse carries no unit factor")


def _validate_transverse_unit(u_row: ExponentRow, v_row: ExponentRow, alpha_nonzero: bool) -> None:
    # u = x_1, v = x_1 (x_2 + alpha); here alpha may vanish.
    if u_row != (1,) or v_row != (1,):
        raise FormError("transverse_unit must have u = x_1, v = x_1 * (x_2 + alpha)")


def _validate_transverse_product(
    u_row: ExponentRow, v_row: ExponentRow, alpha_nonzero: bool
) -> None:
    if u_row != (1, 1) or v_row != (0, 1):
        raise FormError("transverse_product must have u = x_1 x_2, v = x_2")
    if alpha_nonzero:
        raise FormError("transverse_product carries no unit factor")


def _check_u_positive_v_divides(name: str, u_row: ExponentRow, v_row: ExponentRow) -> None:
    if not all(u_row):
        raise FormError(f"{name} requires every u-exponent positive")
    if not divides(v_row, u_row):
        raise FormError(f"{name} requires v-exponents <= u-exponents")


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
    """The power pair (x^base)^power_u, (x^base)^power_v * (y + alpha)."""
    base = tuple(base)
    validate_row(base, what="base")
    if not base or not all(base):
        raise FormError("power_unit base entries must all be positive")
    if primitive_part(base)[1] != 1:
        raise FormError("power_unit base must be primitive")
    if power_u < 1 or power_v < 1:
        raise FormError("power_unit powers must be positive")
    return power_unit_from_rows(
        tuple(power_u * g for g in base), tuple(power_v * g for g in base), chart_index
    )


def power_unit_from_rows(u_row, v_row, chart_index: int) -> MonomialPresentation:
    """The power pair with two proportional rows of positive entries."""
    return MonomialPresentation(
        Form.POWER_UNIT, chart_index, tuple(u_row), tuple(v_row), alpha_nonzero=True
    )


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
    dividing u.  The transverse shapes' rows are their coordinate
    exponents, so the same test decides them.
    """
    form, _, u_row, v_row, _ = p
    return divides(u_row, v_row) or (form is not Form.MONOMIAL_FREE and divides(v_row, u_row))

