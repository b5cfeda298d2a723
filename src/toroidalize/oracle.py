"""Independent brute-force verifiers for cross-checking the main engine,
and the one column model that both independent checkers read.

Everything here is re-derived from first principles on raw exponent
tuples: principality by direct divisibility, rank by 2x2 minors, and an
exhaustive search over *all* permissible center choices (not just the
driver's phase policy) that reports how long the shortest and longest
paths to an empty locus are.  The search and ``verify``'s descent measure
both read centers from the column model: :class:`RawPoint`,
:func:`raw_centers`, :func:`raw_measure` and :func:`raw_blowup`.  The same
points recur across many search states, so one search interns each distinct
point and center signature as a small int the first time it sees it, with a
point's signature ids and, once it is blown up, its children's ids per
signature.  A state is the sorted tuple of its point ids, and a step
rewrites ids.  These tables are local to one call, so no search starts warm.

Nothing is imported from the engine beyond the two data types ``Form``
and ``MonomialPresentation``.  That independence is the point: agreement
between the two implementations is evidence, shared code would be
tautology.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .forms import Form, MonomialPresentation


class BoundExceededError(RuntimeError):
    """Some search path outran the depth bound; carries the offending path."""

    def __init__(self, path: tuple) -> None:
        super().__init__(f"search path of length {len(path)} exceeds the depth bound")
        self.path = path


def oracle_principal(u_row: Iterable[int], v_row: Iterable[int], v_free: bool = False) -> bool:
    """Principality of (x^u, x^v [* y]) by direct divisibility.

    Appends one extra column for the free factor y and checks whether
    either extended generator divides the other componentwise.  A
    two-generator monomial ideal is principal exactly in that case.
    """
    u_ext = tuple(u_row) + (0,)
    v_ext = tuple(v_row) + (1 if v_free else 0,)
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


class SearchBound(NamedTuple("_SearchBound", [("max_entry", int), ("max_k", int), ("max_depth", int)])):
    """The search's limits; calling the class, ``_make`` and ``_replace``
    all refuse a bound below 1."""

    __slots__ = ()

    def __new__(cls, max_entry, max_k, max_depth):
        if min(max_entry, max_k, max_depth) < 1:
            raise ValueError("search bounds must be positive")
        return tuple.__new__(cls, (max_entry, max_k, max_depth))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class RawPoint(NamedTuple):
    """Minimal state of one presentation: its (u, v) exponent columns
    (sorted within a search state) plus whether v still carries a bare free
    coordinate."""

    chart: int
    cols: tuple[tuple[int, int], ...]
    v_free: bool


def raw_centers(pt: RawPoint) -> list[tuple]:
    """Every center through ``pt``, with multiplicity: a free center
    (b_i < a_i) named by its column, a pair center (b_i < a_i, a_j < b_j)
    by its oriented pair of columns."""
    if pt.v_free:
        return [(pt.chart, "free", col) for col in pt.cols if col[1] < col[0]]
    return [
        (pt.chart, "pair", (col_i, col_j))
        for col_i in pt.cols
        if col_i[1] < col_i[0]
        for col_j in pt.cols
        if col_j[0] < col_j[1]
    ]


def raw_measure(pt: RawPoint) -> tuple[int, int]:
    """(largest center value, number of centers at it), where a free
    center's value is a_i - b_i and a pair's (a_i - b_i)(b_j - a_j)."""
    values = [
        data[0] - data[1] if kind == "free"
        else (data[0][0] - data[0][1]) * (data[1][1] - data[1][0])
        for _, kind, data in raw_centers(pt)
    ]
    top = max(values, default=0)
    return (top, values.count(top))


def raw_blowup(pt: RawPoint, positions: tuple[int, ...]) -> tuple[RawPoint, RawPoint, RawPoint]:
    """The a_origin, a_generic and b_origin points of the center on column
    ``positions`` ``(i,)`` (free) or ``(i, j)`` (pair) of ``pt``, other
    columns in place: ``transform``'s three chart points, on columns."""
    chart, cols = pt.chart, pt.cols
    if len(positions) == 1:
        (i,) = positions
        a_i, b_i = cols[i]
        bumped = cols[:i] + ((a_i, b_i + 1),) + cols[i + 1 :]
        return (
            RawPoint(chart, bumped, True),
            RawPoint(chart, bumped, False),
            RawPoint(chart, bumped + (cols[i],), False),
        )
    i, j = positions
    summed = (cols[i][0] + cols[j][0], cols[i][1] + cols[j][1])
    a_origin = cols[:j] + (summed,) + cols[j + 1 :]
    return (
        RawPoint(chart, a_origin, False),
        RawPoint(chart, a_origin[:i] + a_origin[i + 1 :], False),
        RawPoint(chart, cols[:i] + (summed,) + cols[i + 1 :], False),
    )


def _raw_principal(pt: RawPoint) -> bool:
    # oracle_principal on the point's rows: x^u divides x^v [* y] columnwise,
    # or x^v divides x^u when v carries no free factor.
    u_divides = v_divides = True
    for a, b in pt.cols:
        if a > b:
            u_divides = False
        elif b > a:
            v_divides = False
    return u_divides or (v_divides and not pt.v_free)


class _Tables:
    """The interning tables of one search.  Each distinct point and center
    signature gets a small int id the first time it is seen, so states,
    memo keys and per-edge center tests work on ints, not on nested tuples
    whose hash is recomputed at every lookup.  Per point id: the point, the
    ids of the signatures it carries, and its non-principal children's ids
    under each signature it has been blown up at."""

    __slots__ = ("points", "point_ids", "carried", "children", "signatures", "signature_ids")

    def __init__(self) -> None:
        self.points: list[RawPoint] = []
        self.point_ids: dict[RawPoint, int] = {}
        self.carried: list[tuple[int, ...]] = []
        self.children: list[dict[int, tuple[int, ...]]] = []
        self.signatures: list[tuple] = []
        self.signature_ids: dict[tuple, int] = {}

    def signature(self, signature: tuple) -> int:
        found = self.signature_ids.get(signature)
        if found is None:
            found = self.signature_ids[signature] = len(self.signatures)
            self.signatures.append(signature)
        return found

    def point(self, pt: RawPoint) -> int:
        found = self.point_ids.get(pt)
        if found is None:
            found = self.point_ids[pt] = len(self.points)
            self.points.append(pt)
            self.carried.append(tuple([self.signature(sig) for sig in raw_centers(pt)]))
            self.children.append({})
        return found

    def state(self, points: Iterable[RawPoint]) -> tuple[int, ...]:
        # Duplicate points share every center signature, so they always get
        # blown up together and evolve identically; a set of points loses
        # nothing.
        return tuple(sorted(set(map(self.point, points))))

    def apply(self, state: tuple[int, ...], signature: int) -> tuple[int, ...]:
        """Blow up every point of ``state`` that carries ``signature``, at
        its first columns equal to the signature's; keep the others as they
        are.  A blown-up point's non-principal children, with sorted columns,
        are cached under the signature."""
        out: list[int] = []
        for point in state:
            if signature not in self.carried[point]:
                out.append(point)
                continue
            kept = self.children[point].get(signature)
            if kept is None:
                pt = self.points[point]
                chart, kind, data = self.signatures[signature]
                positions = tuple(map(pt.cols.index, (data,) if kind == "free" else data))
                kept = self.children[point][signature] = tuple([
                    self.point(RawPoint(chart, tuple(sorted(child.cols)), child.v_free))
                    for child in raw_blowup(pt, positions)
                    if not _raw_principal(child)
                ])
            out.extend(kept)
        return tuple(sorted(set(out)))


class SearchResult(NamedTuple):
    min_depth: int
    max_depth: int
    states_explored: int


class _Frame:
    """A state whose children are being searched, with the path that led to
    it and the (min, max) path lengths of the children searched so far."""

    __slots__ = ("state", "depth", "path", "signatures", "lo", "hi")

    def __init__(self, state, depth, path, signatures) -> None:
        self.state, self.depth, self.path, self.signatures = state, depth, path, signatures
        self.lo = self.hi = None


def _steps(path: tuple | None, signatures: list[tuple]) -> tuple:
    # A path is a chain of (signature id, parent path) links, newest first.
    steps = []
    while path is not None:
        sig, path = path
        steps.append(signatures[sig])
    return tuple(reversed(steps))


def exhaustive_search(
    presentations: Iterable[MonomialPresentation], bound: SearchBound
) -> SearchResult:
    """Explore every permissible center choice up to the depth bound.

    Each step picks one center signature and blows up every point carrying
    it, exactly as the driver does, but with a free choice of target.
    Reports the minimum and maximum path length to an empty locus over all
    choice sequences; raises :class:`BoundExceededError` with the offending
    path if any sequence is still busy at the bound.  The search keeps its
    own stack, so its depth is not limited by the interpreter's.  It runs on
    interned point and signature ids; its tables and its memo of searched
    states live for this one call.
    """
    # Unit factors are invertible and never consulted, so they are dropped;
    # power pairs flatten back to their expanded rows.
    converted = sorted({
        RawPoint(p.chart_index, tuple(sorted(p.columns())), p.form is Form.MONOMIAL_FREE)
        for p in presentations
    })
    for pt in converted:
        if len(pt.cols) > bound.max_k:
            raise ValueError(f"presentation exceeds max_k={bound.max_k}")
        if any(e > bound.max_entry for col in pt.cols for e in col):
            raise ValueError(f"presentation exceeds max_entry={bound.max_entry}")
    tables = _Tables()
    root = tables.state(pt for pt in converted if not _raw_principal(pt))
    carried, signature_of, apply = tables.carried, tables.signatures, tables.apply
    max_depth = bound.max_depth

    memo: dict[tuple[int, ...], tuple[int, int]] = {}
    explored = 0
    stack: list[_Frame] = []
    state, depth, path = root, 0, None
    while True:
        # The memo only holds states with centers, so it is read first.
        found = memo.get(state)
        if found is not None:
            if depth + found[1] > max_depth:
                raise BoundExceededError(_steps(path, signature_of) + (f"... +{found[1]} more steps",))
        else:
            signatures: set[int] = set()
            for point in state:
                signatures.update(carried[point])
            if not signatures:
                found = (0, 0)
            else:
                # Ordered by the signature tuples, not their ids, so the
                # search visits states in an order independent of interning.
                ordered = sorted(signatures, key=signature_of.__getitem__)
                if depth >= max_depth:
                    raise BoundExceededError(_steps(path, signature_of) + (signature_of[ordered[0]],))
                explored += 1
                stack.append(_Frame(state, depth, path, iter(ordered)))
        # Fold each finished state into its parent until some state on the
        # stack has a center left to try.
        while stack:
            frame = stack[-1]
            if found is not None:
                if frame.lo is None or found[0] < frame.lo:
                    frame.lo = found[0]
                if frame.hi is None or found[1] > frame.hi:
                    frame.hi = found[1]
            sig = next(frame.signatures, None)
            if sig is not None:
                break
            found = memo[frame.state] = (1 + frame.lo, 1 + frame.hi)
            stack.pop()
        else:
            return SearchResult(min_depth=found[0], max_depth=found[1], states_explored=explored)
        state, depth, path = apply(frame.state, sig), frame.depth + 1, (sig, frame.path)
