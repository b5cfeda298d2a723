"""Independent brute-force verifiers for cross-checking the main engine.

Everything here is deliberately re-derived from first principles on raw
exponent tuples: principality by direct divisibility of the two ideal
generators, rank by enumerating 2x2 minors, and an exhaustive search over
*all* permissible center choices (not just the driver's phase policy) that
reports whether every maximal blowup path reaches an empty locus and how
long the shortest and longest paths are.

The module shares only the plain data types with the engine; none of the
engine's classification, center-enumeration or substitution code is
imported.  That independence is the point: agreement between the two
implementations is evidence, shared code would be tautology.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .forms import Form, MonomialPresentation


class BoundExceededError(RuntimeError):
    """Some search path outran the depth bound; carries the offending path."""

    def __init__(self, path: tuple, message: str | None = None) -> None:
        super().__init__(message or f"search path of length {len(path)} exceeds the depth bound")
        self.path = path


def oracle_principal(
    u_row: Iterable[int], v_row: Iterable[int], u_free: bool = False, v_free: bool = False
) -> bool:
    """Principality of (x^u [* y], x^v [* z]) by direct divisibility.

    Appends one extra column per free factor and checks whether either
    extended generator divides the other componentwise.  A two-generator
    monomial ideal is principal exactly in that case.
    """
    u_ext = tuple(u_row) + (1 if u_free else 0, 0)
    v_ext = tuple(v_row) + (0, 1 if v_free else 0)
    if len(u_ext) != len(v_ext):
        raise ValueError("rows must have equal length")
    return all(a <= b for a, b in zip(u_ext, v_ext)) or all(
        b <= a for a, b in zip(u_ext, v_ext)
    )


def oracle_rank(u_row: Iterable[int], v_row: Iterable[int]) -> int:
    """Rank of the stacked 2 x k integer matrix via all 2x2 minors."""
    u, v = tuple(u_row), tuple(v_row)
    if len(u) != len(v):
        raise ValueError("rows must have equal length")
    rank = 0
    if any(u) or any(v):
        rank = 1
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if u[i] * v[j] - u[j] * v[i] != 0:
                return 2
    return rank


@dataclass(frozen=True)
class SearchBound:
    max_entry: int
    max_k: int
    max_depth: int

    def __post_init__(self) -> None:
        if min(self.max_entry, self.max_k, self.max_depth) < 1:
            raise ValueError("search bounds must be positive")


class RawPoint(NamedTuple):
    """Minimal state of one presentation: sorted (u, v) exponent columns
    plus whether v still carries a bare free coordinate."""

    chart: int
    cols: tuple[tuple[int, int], ...]
    v_free: bool


def _raw_centers(pt: RawPoint) -> list[tuple]:
    """Center choices as signatures shared by matching points.

    Free-coordinate centers are named by their column's exponent pair,
    pair centers by the oriented pair of column pairs.
    """
    out = []
    if pt.v_free:
        for a, b in pt.cols:
            if b < a:
                out.append((pt.chart, "free", (a, b)))
    else:
        for a_i, b_i in pt.cols:
            if a_i - b_i <= 0:
                continue
            for a_j, b_j in pt.cols:
                if b_j - a_j > 0:
                    out.append((pt.chart, "pair", ((a_i, b_i), (a_j, b_j))))
    return sorted(set(out))


def _raw_principal(pt: RawPoint) -> bool:
    u = tuple(a for a, _ in pt.cols)
    v = tuple(b for _, b in pt.cols)
    return oracle_principal(u, v, v_free=pt.v_free)


def _raw_children(pt: RawPoint, signature: tuple) -> list[RawPoint] | None:
    """Apply the blowup for the first center of ``pt`` matching ``signature``.

    Returns the non-principal children (columns re-sorted so permuted
    states coincide), or None when the point carries no matching center.
    """
    chart, kind, data = signature
    if chart != pt.chart:
        return None
    children: list[RawPoint] = []
    if kind == "free":
        if not pt.v_free or data not in pt.cols or data[1] >= data[0]:
            return None
        a_i, b_i = data
        idx = pt.cols.index(data)
        rest = pt.cols[:idx] + pt.cols[idx + 1 :]
        bumped = tuple(sorted(rest + ((a_i, b_i + 1),)))
        children.append(RawPoint(chart, bumped, True))                      # alpha = 0
        children.append(RawPoint(chart, bumped, False))                    # alpha != 0, unit dropped
        children.append(RawPoint(chart, tuple(sorted(rest + ((a_i, b_i + 1), (a_i, b_i)))), False))
    else:
        if pt.v_free:
            return None
        (col_i, col_j) = data
        if col_i not in pt.cols or col_j not in pt.cols:
            return None
        if col_i == col_j and pt.cols.count(col_i) < 2:
            return None
        a_i, b_i = col_i
        a_j, b_j = col_j
        if (a_i - b_i) * (b_j - a_j) <= 0:
            return None
        rest = list(pt.cols)
        rest.remove(col_i)
        rest.remove(col_j)
        rest = tuple(rest)
        summed = (a_i + a_j, b_i + b_j)
        children.append(RawPoint(chart, tuple(sorted(rest + (col_i, summed))), False))   # chart a, alpha 0
        children.append(RawPoint(chart, tuple(sorted(rest + (summed,))), False))         # chart a, generic
        children.append(RawPoint(chart, tuple(sorted(rest + (summed, col_j))), False))   # chart b
    return [child for child in children if not _raw_principal(child)]


State = tuple[RawPoint, ...]


def _canonical(points: Iterable[RawPoint]) -> State:
    # Duplicate points share every center signature, so they always get blown
    # up together and evolve identically; a set of points loses nothing.
    return tuple(sorted(set(points)))


def _apply(state: State, signature: tuple) -> State:
    out: list[RawPoint] = []
    for pt in state:
        children = _raw_children(pt, signature)
        if children is None:
            out.append(pt)
        else:
            out.extend(children)
    return _canonical(out)


@dataclass(frozen=True)
class SearchResult:
    all_terminate: bool
    min_depth: int
    max_depth: int
    states_explored: int


def raw_state(presentations: Iterable[MonomialPresentation]) -> State:
    """Convert engine presentations to the oracle's raw model.

    Unit factors are invertible and never consulted, so they are dropped;
    power pairs flatten back to their expanded rows.
    """
    points = []
    for p in presentations:
        cols = tuple(sorted(p.columns()))
        points.append(RawPoint(p.chart_index, cols, p.form is Form.MONOMIAL_FREE))
    return _canonical(points)


def exhaustive_search(
    presentations: Iterable[MonomialPresentation], bound: SearchBound
) -> SearchResult:
    """Explore every permissible center choice up to the depth bound.

    Each step picks one center signature and blows up every point carrying
    it, exactly as the driver does, but with a free choice of target.
    Reports the minimum and maximum path length to an empty locus over all
    choice sequences; raises :class:`BoundExceededError` with the offending
    path if any sequence is still busy at the bound, and with an empty path
    if the search runs out of interpreter stack before it gets there.
    """
    converted = raw_state(presentations)
    for pt in converted:
        if len(pt.cols) > bound.max_k:
            raise ValueError(f"presentation exceeds max_k={bound.max_k}")
        if any(e > bound.max_entry for col in pt.cols for e in col):
            raise ValueError(f"presentation exceeds max_entry={bound.max_entry}")
    root = _canonical(pt for pt in converted if not _raw_principal(pt))

    memo: dict[State, tuple[int, int]] = {}
    explored = 0

    def search(state: State, depth: int, path: tuple) -> tuple[int, int]:
        nonlocal explored
        signatures = sorted({sig for pt in state for sig in _raw_centers(pt)})
        if not signatures:
            return (0, 0)
        cached = memo.get(state)
        if cached is not None:
            if depth + cached[1] > bound.max_depth:
                raise BoundExceededError(path + (f"... +{cached[1]} more steps",))
            return cached
        if depth >= bound.max_depth:
            raise BoundExceededError(path + (signatures[0],))
        explored += 1
        lo, hi = None, None
        for sig in signatures:
            child_lo, child_hi = search(_apply(state, sig), depth + 1, path + (sig,))
            lo = child_lo if lo is None else min(lo, child_lo)
            hi = child_hi if hi is None else max(hi, child_hi)
        result = (1 + lo, 1 + hi)
        memo[state] = result
        return result

    try:
        lo, hi = search(root, 0, ())
    except RecursionError:
        # One stack frame per step: a depth bound near the interpreter's
        # recursion limit runs out of stack before it runs out of depth.
        raise BoundExceededError(
            (),
            f"search went deeper than the interpreter's recursion limit "
            f"({sys.getrecursionlimit()}) allows before reaching the depth bound "
            f"{bound.max_depth}",
        ) from None
    return SearchResult(
        all_terminate=True, min_depth=lo, max_depth=hi, states_explored=explored
    )
