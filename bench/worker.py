"""Run one workload's passes in this process and print the samples as JSON.

Started by ``run.py`` as a fresh interpreter per workload.  A pass makes
every CLI call of the workload once, in process, through
``toroidalize.cli.main``; each call's wall time is taken with
``perf_counter_ns`` and every result is checked.  Calls are timed in
segments of at least SEGMENT_S; a reference run (``reference.py``)
brackets each segment and turns its wall times into normalised seconds.
With tracing, untraced and traced passes alternate so the tracing
overhead can be reported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import reference, scale  # noqa: E402

MIN_PASSES = 2
SEGMENT_S = 0.5
VERBS = ("run", "verify", "oracle")
PINS = BENCH / "pins.json"
# The parent index counts within the same pass.
SPAN_FIELDS = ["pass", "name", "start_ns", "end_ns", "parent", "op"]


def load_package(root: Path) -> dict:
    """Import the package from ``root/src`` (never an installed copy) and make the CLI ready."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import toroidalize
    from toroidalize import cli, descent, forms, invariants, principalize, scenario_io, verify

    if Path(toroidalize.__file__).resolve().parent != (src / "toroidalize").resolve():
        raise ImportError(f"toroidalize imported from {toroidalize.__file__}, not from {src}")
    import setup_ready

    setup_ready.ready()
    return {
        "cli": cli,
        "descent": descent,
        "forms": forms,
        "invariants": invariants,
        "principalize": principalize,
        "scenario_io": scenario_io,
        "verify": verify,
    }


def invoke(cli, argv: list[str]) -> tuple[int, float, str]:
    """Call ``cli.main(argv)`` in process; return its exit code, wall seconds and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        end = time.perf_counter_ns()
    return rc, (end - start) * 1e-9, out.getvalue()


@dataclass
class PassResult:
    seconds: dict[str, float] = field(default_factory=lambda: dict.fromkeys(VERBS, 0.0))  # normalised
    wall: dict[str, float] = field(default_factory=lambda: dict.fromkeys(VERBS, 0.0))
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    trace_bytes: int = 0


class Runner:
    """Makes the calls of one workload and checks each against pins and its own earlier passes."""

    def __init__(self, modules: dict, ops: list[workloads.Op], pins: dict | None) -> None:
        self.cli = modules["cli"]
        self.ops = ops
        self.pins = pins
        self.first_sha: dict[str, str] = {}

    def run_pass(self, tracer: tracing.Tracer | None = None) -> PassResult:
        result = PassResult()
        summaries: dict[str, dict] = {}
        oracles: list[tuple[workloads.Op, dict]] = []
        segment: list[tuple[str, float]] = []
        before = reference()
        for index, op in enumerate(self.ops, 1):
            result.attempted += 1
            try:
                if op.prepare is not None:
                    op.prepare()
                gc.collect()
                if tracer is not None:
                    tracer.op = op.key
                rc, elapsed, out = invoke(self.cli, op.argv)
                result.wall[op.verb] += elapsed
                segment.append((op.verb, elapsed))
                doc = json.loads(out) if rc == 0 else {}
                error = self._check(op, rc, doc, result)
            except Exception as exc:  # a raising call is a failed operation, not a crash of the benchmark
                error = f"raised {type(exc).__name__}: {exc}"
            if error:
                result.failures.append(f"{op.key}: {error}")
            elif op.verb == "run" and rc == 0:
                summaries[op.key] = doc["summary"]
            elif op.verb == "oracle" and op.range_of and rc == 0:
                oracles.append((op, doc))
            if segment and (index == len(self.ops) or sum(e for _, e in segment) >= SEGMENT_S):
                after = reference()
                factor = scale(before, after)
                for verb, elapsed in segment:
                    result.seconds[verb] += elapsed * factor
                segment.clear()
                before = after
        for op, doc in oracles:
            steps = summaries.get(op.range_of, {}).get("steps")
            if steps is None or not doc["min_depth"] <= steps <= doc["max_depth"]:
                result.failures.append(
                    f"{op.key}: driver steps {steps} outside oracle range "
                    f"[{doc['min_depth']}, {doc['max_depth']}]"
                )
        return result

    def _check(self, op: workloads.Op, rc: int, doc: dict, result: PassResult) -> str | None:
        pin = None
        if self.pins is not None:
            pin = self.pins.get(op.key)
            if pin is None:
                return "no pin for this call"
            if pin["exit"] != rc:
                return f"exit {rc}, pinned {pin['exit']}"
        if rc != op.expect_exit:
            return f"exit {rc}, expected {op.expect_exit}"
        if rc != 0:
            return None
        if op.verb == "run":
            data = op.trace.read_bytes()
            result.trace_bytes += len(data)
            sha = hashlib.sha256(data).hexdigest()
            if self.first_sha.setdefault(op.key, sha) != sha:
                return "trace differs from the first run of this call"
            if pin is not None and (pin["sha256"] != sha or pin["summary"] != doc["summary"]):
                return f"trace sha256 {sha[:12]} or summary {doc['summary']} differs from pin"
        elif op.verb == "verify":
            if pin is not None and pin["summary"] != doc["summary"]:
                return f"summary {doc['summary']} differs from pin"
        elif op.verb == "oracle":
            got = [doc["min_depth"], doc["max_depth"], doc["states_explored"]]
            if pin is not None and pin["oracle"] != got:
                return f"oracle (min, max, states) {got} differs from pin {pin['oracle']}"
        return None


def measure(runner: Runner, seconds: float, tracer: tracing.Tracer | None) -> dict:
    """Repeat passes until the next one would end after ``seconds``; at least MIN_PASSES.

    With a tracer, odd passes are traced and even ones are not; the spans
    of every traced pass are returned under ``spans``.
    """
    deadline = time.perf_counter() + seconds
    samples: dict[str, list[float]] = {f"{verb}_s": [] for verb in VERBS}
    wall: dict[str, list[float]] = {f"{verb}_s": [] for verb in VERBS}
    traced_run_s: list[float] = []
    layers: dict[str, list[float]] = {}
    spans: list[tuple] = []
    attempted, failures, durations = 0, [], []
    while True:
        traced = tracer is not None and len(durations) % 2 == 1
        start = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
            try:
                result = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced_run_s.append(result.wall["run"])
            spans += [(len(durations), *span) for span in tracer.spans]
            metrics = tracing.layer_metrics(tracer.spans, tracer.counts, result.trace_bytes)
            for name, value in metrics.items():
                layers.setdefault(name, []).append(value)
        else:
            result = runner.run_pass()
            for verb in VERBS:
                samples[f"{verb}_s"].append(result.seconds[verb])
                wall[f"{verb}_s"].append(result.wall[verb])
        durations.append(time.perf_counter() - start)
        attempted += result.attempted
        failures += result.failures
        if len(durations) >= MIN_PASSES and time.perf_counter() + statistics.median(durations) > deadline:
            break
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "passes": len(durations),
        "samples": samples,
        "wall": wall,
        "traced_run_s": traced_run_s,
        "layers": layers,
        "spans": spans,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def load_pins(workload: str, seed: int) -> dict | None:
    """Seed 0 is checked against the committed pins; other seeds only against themselves."""
    if seed != 0:
        return None
    return json.loads(PINS.read_text())[workload]


@contextlib.contextmanager
def workdir(root: Path):
    parent = root / ".bench_work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def write_spans(workload: str, seed: int, spans: list[tuple]) -> Path:
    """Write the traced passes' spans, once, when the run is over."""
    out = ROOT / ".bench_spans" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": seed, "fields": SPAN_FIELDS, "spans": spans}
    out.write_text(json.dumps(doc))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    modules = load_package(ROOT)
    with workdir(ROOT) as work:
        ops = workloads.build(args.workload, args.seed, work, ROOT)
        runner = Runner(modules, ops, load_pins(args.workload, args.seed))
        tracer = tracing.Tracer(modules) if args.trace else None
        report = measure(runner, args.seconds, tracer)
    spans = report.pop("spans")
    if tracer is not None:
        report["spans_file"] = str(write_spans(args.workload, args.seed, spans))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
