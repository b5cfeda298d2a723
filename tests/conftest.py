import itertools

from hypothesis import assume
from hypothesis import strategies as st

from toroidalize.forms import (
    FormError,
    monomial_free,
    monomial_pair,
)


def column_grid(max_entry, k):
    """All (u_row, v_row) pairs with entries <= max_entry, up to column order."""
    cols = list(itertools.product(range(max_entry + 1), repeat=2))
    for combo in itertools.combinations_with_replacement(cols, k):
        u = tuple(a for a, _ in combo)
        v = tuple(b for _, b in combo)
        yield u, v


def try_pair(u, v, chart=1):
    try:
        return monomial_pair(u, v, chart)
    except FormError:
        return None


def try_free(u, v, chart=1):
    try:
        return monomial_free(u, v, chart)
    except FormError:
        return None


# hypothesis strategies for valid presentations

@st.composite
def pair_presentations(draw, max_entry=6, max_k=4):
    k = draw(st.integers(2, max_k))
    u = tuple(draw(st.integers(0, max_entry)) for _ in range(k))
    v = tuple(draw(st.integers(0, max_entry)) for _ in range(k))
    p = try_pair(u, v)
    assume(p is not None)
    return p


@st.composite
def free_presentations(draw, max_entry=6, max_k=4):
    k = draw(st.integers(1, max_k))
    u = tuple(draw(st.integers(1, max_entry)) for _ in range(k))
    v = tuple(draw(st.integers(0, a)) for a in u)
    return monomial_free(u, v, 1)
