"""A fixed pure-Python workload that gauges how fast the machine is right now.

On a shared machine the speed of a vCPU drifts by 20-30 % over tens of
seconds as neighbours come and go, far more than the regressions the
benchmark must catch.  Every timed interval is therefore bracketed by
:func:`reference` runs and reported in reference-normalised seconds:
``wall * REFERENCE_S / mean(reference before, reference after)``.  The
reference is a memoised search over small tuples, the engine's own style
of work (it tracked the CLI verbs' speed better than a JSON or a plain
arithmetic loop did), but it shares no code with the package, so no
change to the package can move it.
"""

from __future__ import annotations

from time import perf_counter_ns

# Median time of reference() on a 2-vCPU Intel Xeon (2.1 GHz) VM under Python 3.11;
# it only sets the scale, so normalised times read as seconds on that machine.
REFERENCE_S = 0.025
START = ((9, 0), (8, 0), (7, 1), (6, 0))  # a search of about 0.7 MB, freed on return
ROUNDS = 5


def reference() -> float:
    """Median wall time in seconds of ROUNDS runs of the fixed workload."""
    times = []
    for _ in range(ROUNDS):
        start = perf_counter_ns()
        _longest_path(START, {})
        times.append((perf_counter_ns() - start) * 1e-9)
    return sorted(times)[ROUNDS // 2]


def _longest_path(start: tuple, memo: dict) -> int:
    def longest(state: tuple) -> int:
        if not state:
            return 0
        known = memo.get(state)
        if known is not None:
            return known
        best = 0
        for i, (a, b) in enumerate(state):
            rest = state[:i] + state[i + 1 :]
            child = tuple(sorted(rest + ((a, b + 1),))) if b + 1 < a else rest
            best = max(best, 1 + longest(child))
        memo[state] = best
        return best

    return longest(start)


def scale(before: float, after: float) -> float:
    """Factor turning wall seconds measured between two reference runs into normalised seconds."""
    return REFERENCE_S / ((before + after) / 2)
