"""Self-test of the benchmark: metric names and units, and that bad outputs are counted.

Run from the root of the checkout with ``python3 -m pytest bench/test_bench.py``.
It takes about half a minute; the package's own test suite does not collect it.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def corpus_pass(pins: dict | None, tamper: str | None = None) -> worker.PassResult:
    """One seed-0 corpus pass; ``tamper`` names a fixture whose trace is altered before verify."""
    modules = worker.load_package(worker.ROOT)
    with worker.workdir(worker.ROOT) as work:
        ops = workloads.build("corpus", 0, work, worker.ROOT)
        if tamper is not None:
            op = next(op for op in ops if op.key == f"verify {tamper}")
            op.prepare = lambda: workloads.tamper_step(op.trace, op.trace, 0)
        return worker.Runner(modules, ops, pins).run_pass()


def failed_share(result: worker.PassResult) -> float:
    return len(result.failures) / result.attempted


def test_declared_metric_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric
        assert metric["unit"], metric
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS


def test_reported_metrics_match_declaration():
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "corpus", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=170, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        assert reported == {m["name"]: m["unit"] for m in declared}
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name)
            assert isinstance(metric["value"], (int, float))


def test_pinned_pass_is_clean():
    result = corpus_pass(worker.load_pins("corpus", 0))
    assert result.failures == []


def test_corrupted_pin_counts_as_failure():
    pins = copy.deepcopy(worker.load_pins("corpus", 0))
    pins["run smooth.json"]["sha256"] = "0" * 64
    pins["verify two_pairs.json"]["summary"]["leaves"] += 1
    pins["run malformed"]["exit"] = 0
    result = corpus_pass(pins)
    assert failed_share(result) == 3 / result.attempted


def test_tampered_trace_counts_as_failure():
    result = corpus_pass(worker.load_pins("corpus", 0), tamper="two_pairs.json")
    assert failed_share(result) > 0
    assert any(f.startswith("verify two_pairs.json: exit 5") for f in result.failures)


if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q"]))
