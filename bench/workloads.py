"""Benchmark workloads: scenario files drawn from a seed, and the CLI calls made on them.

Seed 0 reproduces the documented inputs exactly (see ``workloads.json``).
Any other seed draws an input of the same shape and size class: the same
step and leaf counts, and for the oracle the same search, reached through
a different file (permuted columns, shifted exponents, shuffled order,
another malformed scenario or tampered step).  That keeps run-to-run spread across seeds down to the
machine's own noise while the program still sees inputs it has never
been pinned on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The corpus is fixed by name so that adding a test fixture does not change it.
CORPUS_FIXTURES = (
    "all_forms.json",
    "case_two_a.json",
    "comparable_pair.json",
    "euclid.json",
    "free_k2.json",
    "knee.json",
    "matched_pair.json",
    "mixed_charts.json",
    "multi_round.json",
    "multi_round_mixed.json",
    "nested_seed.json",
    "omega_big.json",
    "omega_ladder.json",
    "omega_omega_mixed.json",
    "policy_essential.json",
    "power_equal.json",
    "power_seed.json",
    "seed_free.json",
    "smooth.json",
    "three_point.json",
    "three_point_degenerate.json",
    "transverse_multi.json",
    "two_pairs.json",
    "unit_equal.json",
    "unit_power.json",
    "unit_seed.json",
)

LADDER_STEPS = 400
WIDE_U, WIDE_V = (9, 4, 3, 4, 8), (0, 6, 8, 6, 1)
# All 120 column orders of the wide pair take the driver 49 steps to 1185
# leaves, and verify accepts every one of their traces.
WIDE_STEPS = 49
ORACLE_FREE = ((8, 7, 6), (5, 4))
DEEP_PAIR_U, DEEP_PAIR_V = (0, 0, 0, 3), (3, 3, 2, 0)

# Each malformed scenario must be rejected with exit 2; seed 0 uses the first.
MALFORMED = (
    ("negative exponent", '{"version": 1, "n": 3, "charts": [{"q_in_divisor": true}], '
     '"presentations": [{"chart": 1, "form": "monomial_pair", "u": [2, -1], "v": [0, 3]}]}'),
    ("undeclared chart", '{"version": 1, "n": 3, "charts": [{"q_in_divisor": true}], '
     '"presentations": [{"chart": 2, "form": "monomial_pair", "u": [2, 0], "v": [0, 3]}]}'),
    ("rank-1 pair", '{"version": 1, "n": 3, "charts": [{"q_in_divisor": true}], '
     '"presentations": [{"chart": 1, "form": "monomial_pair", "u": [1, 1], "v": [2, 2]}]}'),
    ("missing n", '{"version": 1, "charts": [{"q_in_divisor": true}], '
     '"presentations": [{"chart": 1, "form": "monomial_pair", "u": [2, 0], "v": [0, 3]}]}'),
    ("truncated JSON", '{"version": 1, "n": 3, "charts": ['),
)


@dataclass
class Op:
    """One CLI invocation and what a correct result looks like.

    ``key`` names the invocation independently of the seed; pins are
    stored under it.  ``prepare`` runs untimed before the call.  For an
    oracle call, ``range_of`` names the run whose step count must lie in
    the oracle's [min_depth, max_depth].
    """

    key: str
    verb: str
    argv: list[str]
    expect_exit: int
    trace: Path | None = None
    prepare: Callable[[], None] | None = None
    range_of: str | None = None


def _scenario(n: int, presentations: list[dict]) -> dict:
    return {
        "version": 1,
        "n": n,
        "charts": [{"q_in_divisor": True}],
        "presentations": [{"chart": 1, **p} for p in presentations],
    }


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _run_verify(label: str, scenario: Path, work: Path) -> list[Op]:
    trace = work / f"{scenario.stem}.out.json"
    return [
        Op(f"run {label}", "run", ["run", str(scenario), "-o", str(trace)], 0, trace),
        Op(f"verify {label}", "verify", ["verify", str(trace)], 0, trace),
    ]


def ladder(seed: int, work: Path, root: Path) -> list[Op]:
    """u = x^(400+b), v = x^b * y: always 400 one-point steps and 801 leaves."""
    b = 0 if seed == 0 else random.Random(f"ladder/{seed}").randint(1, 20)
    doc = _scenario(2, [{"form": "monomial_free", "u": [LADDER_STEPS + b], "v": [b]}])
    path = _write(work / "ladder.json", doc)
    oracle = ["oracle", str(path), "--depth", str(LADDER_STEPS + 1), "--max-entry", str(LADDER_STEPS + 64)]
    return _run_verify("ladder", path, work) + [
        Op("oracle ladder", "oracle", oracle, 0, range_of="run ladder"),
    ]


def wide_pair(seed: int, work: Path, root: Path) -> list[Op]:
    """One 5-column monomial pair; other seeds permute its columns."""
    u, v = list(WIDE_U), list(WIDE_V)
    if seed != 0:
        rng = random.Random(f"wide_pair/{seed}")
        order = list(range(len(u)))
        rng.shuffle(order)
        u, v = [u[i] for i in order], [v[i] for i in order]
    path = _write(work / "wide_pair.json", _scenario(6, [{"form": "monomial_pair", "u": u, "v": v}]))
    # With five columns some center orders never end, so the oracle overruns a
    # depth bound equal to the driver's own step count: the README's caveat.
    oracle = ["oracle", str(path), "--depth", str(WIDE_STEPS)]
    return _run_verify("wide_pair", path, work) + [Op("oracle wide_pair", "oracle", oracle, 3)]


def oracle(seed: int, work: Path, root: Path) -> list[Op]:
    """Two free presentations in one chart; the oracle's search dominates."""
    rows = [list(u) for u in ORACLE_FREE]
    if seed != 0:
        rng = random.Random(f"oracle/{seed}")
        for row in rows:
            rng.shuffle(row)
        rng.shuffle(rows)
    doc = _scenario(4, [{"form": "monomial_free", "u": u, "v": [0] * len(u)} for u in rows])
    path = _write(work / "oracle.json", doc)
    return [Op("oracle oracle", "oracle", ["oracle", str(path)], 0, range_of="run oracle")] + _run_verify(
        "oracle", path, work
    )


def corpus(seed: int, work: Path, root: Path) -> list[Op]:
    """Every fixture once with run and verify, plus four calls that must fail."""
    fixtures = root / "tests" / "fixtures"
    names = list(CORPUS_FIXTURES)
    rng = random.Random(f"corpus/{seed}")
    if seed != 0:
        rng.shuffle(names)
    ops: list[Op] = []
    for name in names:
        ops += _run_verify(name, fixtures / name, work)

    _, text = MALFORMED[0 if seed == 0 else rng.randrange(len(MALFORMED))]
    malformed = work / "malformed.json"
    malformed.write_text(text)
    ops.append(Op("run malformed", "run", ["run", str(malformed), "-o", str(work / "malformed.out.json")], 2))

    ops.append(
        Op(
            "run multi_round.json --max-steps 1",
            "run",
            ["run", str(fixtures / "multi_round.json"), "-o", str(work / "budget.out.json"), "--max-steps", "1"],
            3,
        )
    )

    source = work / "multi_round_mixed.out.json"
    tampered = work / "tampered.out.json"
    pick = 0 if seed == 0 else rng.randrange(1 << 30)

    def tamper() -> None:
        tamper_step(source, tampered, pick)

    ops.append(Op("verify tampered", "verify", ["verify", str(tampered)], 5, tampered, prepare=tamper))

    order = list(range(len(DEEP_PAIR_U)))
    if seed != 0:
        rng.shuffle(order)
    deep = _scenario(4, [{"form": "monomial_pair", "u": [DEEP_PAIR_U[i] for i in order],
                          "v": [DEEP_PAIR_V[i] for i in order]}])
    deep_path = _write(work / "deep_pair.json", deep)
    ops.append(Op("oracle deep_pair --depth 8", "oracle", ["oracle", str(deep_path), "--depth", "8"], 3))
    return ops


def tamper_step(source: Path, dest: Path, pick: int) -> None:
    """Copy a trace, raising the recorded value of one step (the ``pick``-th, cyclically) by one."""
    doc = json.loads(source.read_text())
    steps = [s for r in doc["rounds"] for s in r["steps"]]
    steps[pick % len(steps)]["value"] += 1
    dest.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


BUILDERS: dict[str, Callable[[int, Path, Path], list[Op]]] = {
    "ladder": ladder,
    "wide_pair": wide_pair,
    "corpus": corpus,
    "oracle": oracle,
}


WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, work: Path, root: Path) -> list[Op]:
    return BUILDERS[name](seed, work, root)
