"""Benchmark of the ``toroidalize`` CLI verbs ``run``, ``verify`` and ``oracle``.

Usage, from the root of a source checkout (the package is imported from
``src/``, nothing is installed)::

    python3 bench/run.py --workload ladder --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

Each workload runs in a fresh worker process (``worker.py``), one at a
time, single-threaded; a closed loop makes the workload's calls back to
back, in process, for ``--seconds``.  ``setup_s`` is timed separately:
fresh interpreters that only import the CLI and build its two validators.
Times are reported in reference-normalised seconds (see ``reference.py``);
the report lines also give the plain wall-clock median.

With ``--trace 0`` the report gives the end-to-end metrics; with
``--trace 1`` the per-layer metrics from spans recorded around each
layer's public functions, plus the tracing overhead.  Every call's exit
code and output is checked (pins for seed 0, see ``pins.json``); the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from reference import reference, scale  # noqa: E402
from tracing import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
# A run must end within 180 s; leave room for set-up and reporting.
WORKER_DEADLINE_S = 170.0


def percentile_beyond_ten(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it, and its value."""
    n = len(values)
    if n <= 10:
        return None
    rank = n - 10  # nearest-rank: the rank-th smallest sample leaves ten beyond it
    return math.floor(100 * rank / n), sorted(values)[rank - 1]


def setup_seconds(repeats: int) -> tuple[list[float], list[float]]:
    """Normalised and wall seconds of ``repeats`` fresh interpreters reaching a ready CLI."""
    normalised, wall = [], []
    before = reference()
    for _ in range(repeats):
        start = time.perf_counter_ns()
        subprocess.run(
            [sys.executable, str(BENCH / "setup_ready.py")], cwd=ROOT, check=True, timeout=60
        )
        wall.append((time.perf_counter_ns() - start) * 1e-9)
        after = reference()
        normalised.append(wall[-1] * scale(before, after))
        before = after
    return normalised, wall


def run_worker(workload: str, seed: int, seconds: float, trace: int, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def line(name: str, values: list[float], unit: str, wall: list[float] | None = None) -> str:
    text = f"  {name:<42} {statistics.median(values):>14.6g} {unit:<6} median of n={len(values)}"
    tail = percentile_beyond_ten(values)
    if tail is not None:
        text += f", p{tail[0]}={tail[1]:.6g}"
    if wall is not None:
        text += f"; wall-clock median {statistics.median(wall):.6g}"
    return text


def measure_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Run one workload; print its report lines and return its result object."""
    metrics: dict[str, dict] = {}
    print(f"{workload} (seed {seed}, {seconds:g} s, trace {trace})")
    if not trace:
        setup, wall = setup_seconds(SETUP_REPEATS)
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        print(line("setup_s", setup, "s", wall))
    report = run_worker(workload, seed, seconds, trace, deadline - time.monotonic())
    if trace:
        for name, unit in PER_LAYER_UNITS.items():
            if name.startswith("tracing."):
                continue
            values = report["layers"][name]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(line(name, values, unit))
        untraced = statistics.median(report["wall"]["run_s"])
        overhead = statistics.median(report["traced_run_s"]) - untraced
        metrics["tracing.overhead_run_s"] = {"value": overhead, "unit": "s"}
        metrics["tracing.overhead_share"] = {"value": overhead / untraced, "unit": "ratio"}
        print(f"  {'tracing.overhead_run_s':<42} {overhead:>14.6g} s      traced minus untraced run_s")
        print(f"  spans written to {report['spans_file']}")
    else:
        for verb in ("run_s", "verify_s", "oracle_s"):
            values = report["samples"][verb]
            metrics[verb] = {"value": statistics.median(values), "unit": "s"}
            print(line(verb, values, "s", report["wall"][verb]))
        metrics["peak_rss_mb"] = {"value": report["peak_rss_mb"], "unit": "MB"}
        print(f"  {'peak_rss_mb':<42} {report['peak_rss_mb']:>14.6g} MB     worker ru_maxrss")
    share = report["failed"] / report["attempted"]
    print(f"  {'failed_share':<42} {share:>14.6g} ratio  {report['failed']}/{report['attempted']} "
          f"calls over {report['passes']} passes")
    for failure in report["failures"]:
        print(f"    FAILED {failure}")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/toroidalize/cli.py", "tests/fixtures") if not (ROOT / p).exists()]
    if missing:
        print(f"not a toroidalize source checkout: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + WORKER_DEADLINE_S
        try:
            results[name] = measure_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"benchmark failed on {name}: {exc}", file=sys.stderr)
            return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
