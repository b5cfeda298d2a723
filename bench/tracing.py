"""Per-layer spans taken from outside the package.

While a :class:`Tracer` is installed, the public functions each layer calls
across a module boundary are replaced, in the importing module's namespace,
by wrappers that record a span (name, start, end, parent span, operation)
in memory.  Hot predicates are only counted.  Nothing under ``src/``
changes; :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter_ns

NS = 1e-9

# (module, attribute, span name): the attribute is looked up at call time
# inside ``module``, so replacing it there catches every call through it.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_scenario", "scenario_io.load_scenario"),
    ("cli", "load_trace", "scenario_io.load_trace"),
    ("cli", "round_to_doc", "scenario_io.to_doc"),
    ("cli", "trace_doc", "scenario_io.to_doc"),
    ("cli", "write_trace", "scenario_io.write_trace"),
    ("cli", "canonical_dumps", "scenario_io.dumps"),
    ("scenario_io", "canonical_dumps", "scenario_io.dumps"),
    ("cli", "run", "principalize.run"),
    ("cli", "default_budget", "principalize.default_budget"),
    ("cli", "make_scenario", "principalize.make_scenario"),
    ("cli", "classify_scenario", "descent.classify_scenario"),
    ("cli", "reseed", "descent.reseed"),
    ("cli", "verify_trace", "verify.verify_trace"),
    ("cli", "exhaustive_search", "oracle.exhaustive_search"),
    ("verify", "run", "principalize.run"),
    ("verify", "classify_scenario", "descent.classify_scenario"),
    ("verify", "round_to_doc", "scenario_io.to_doc"),
    ("verify", "reseed", "descent.reseed"),
    ("verify", "make_scenario", "principalize.make_scenario"),
    ("principalize", "step", "principalize.step"),
    ("principalize", "locus_report", "invariants.locus_report"),
    ("principalize", "blowup", "transform.blowup"),
)

COUNTED = (
    ("forms", "is_principal"),
    ("principalize", "is_principal"),
    ("invariants", "is_principal"),
    ("descent", "is_principal"),
    ("verify", "is_principal"),
)

# verify._replay reaches the engine only through these names.
REPLAY = ("principalize.run", "descent.classify_scenario", "scenario_io.to_doc")

PER_LAYER_UNITS = {
    "principalize.step.calls": "count",
    "principalize.step.s": "s",
    "principalize.step.self_s": "s",
    "principalize.step_cost_growth": "ratio",
    "forms.is_principal.calls": "count",
    "forms.is_principal.calls_per_descendant": "ratio",
    "invariants.locus_report.calls": "count",
    "invariants.locus_report.s": "s",
    "invariants.locus_report.calls_per_step": "ratio",
    "transform.blowup.calls": "count",
    "transform.blowup.s": "s",
    "descent.classify_scenario.s": "s",
    "descent.reseed.s": "s",
    "descent.leaves": "count",
    "scenario_io.load_scenario.s": "s",
    "scenario_io.to_doc.s": "s",
    "scenario_io.dumps.s": "s",
    "scenario_io.trace_bytes": "bytes",
    "scenario_io.load_trace.s": "s",
    "verify.verify_trace.s": "s",
    "verify.replay.s": "s",
    "verify.recorded_checks.s": "s",
    "oracle.exhaustive_search.s": "s",
    "oracle.states_explored": "count",
    "oracle.us_per_state": "us",
    "cli.self_s": "s",
    "tracing.overhead_run_s": "s",
    "tracing.overhead_share": "ratio",
}


class Tracer:
    """Spans and counters for one process; install, run operations, uninstall."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent index, op id)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = ""
        self._saved: list[tuple] = []

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            self._count(name, result, end - start)
            return result

        return wrapper

    def _count(self, name: str, result, elapsed_ns: int) -> None:
        if name == "transform.blowup":
            self.counts["descendants"] += len(result.descendants)
        elif name == "descent.classify_scenario":
            self.counts["leaves"] += len(result)
        elif name == "oracle.exhaustive_search":
            # Only completed searches report a state count; overruns raise.
            self.counts["states"] += result.states_explored
            self.counts["states_ns"] += elapsed_ns

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._replace(module, attr, self.span(name, getattr(self.modules[module], attr)))
        for module, attr in COUNTED:
            self._replace(module, attr, self.counter("is_principal", getattr(self.modules[module], attr)))

    def _replace(self, module: str, attr: str, value) -> None:
        mod = self.modules[module]
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()


def layer_metrics(spans: list[tuple], counts: Counter, trace_bytes: int) -> dict[str, float]:
    """Per-layer totals for one pass, from its spans and counters."""
    total: Counter = Counter()
    calls: Counter = Counter()
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        self_ns[name] += end - start - child_ns[i]

    replay_ns = sum(
        end - start
        for name, start, end, parent, _ in spans
        if name in REPLAY and parent >= 0 and spans[parent][0] == "verify.verify_trace"
    )
    steps = calls["principalize.step"]
    return {
        "principalize.step.calls": steps,
        "principalize.step.s": total["principalize.step"] * NS,
        "principalize.step.self_s": self_ns["principalize.step"] * NS,
        "principalize.step_cost_growth": step_cost_growth(spans),
        "forms.is_principal.calls": counts["is_principal"],
        "forms.is_principal.calls_per_descendant": _ratio(counts["is_principal"], counts["descendants"]),
        "invariants.locus_report.calls": calls["invariants.locus_report"],
        "invariants.locus_report.s": total["invariants.locus_report"] * NS,
        "invariants.locus_report.calls_per_step": _ratio(calls["invariants.locus_report"], steps),
        "transform.blowup.calls": calls["transform.blowup"],
        "transform.blowup.s": total["transform.blowup"] * NS,
        "descent.classify_scenario.s": total["descent.classify_scenario"] * NS,
        "descent.reseed.s": total["descent.reseed"] * NS,
        "descent.leaves": counts["leaves"],
        "scenario_io.load_scenario.s": total["scenario_io.load_scenario"] * NS,
        "scenario_io.to_doc.s": total["scenario_io.to_doc"] * NS,
        "scenario_io.dumps.s": total["scenario_io.dumps"] * NS,
        "scenario_io.trace_bytes": trace_bytes,
        "scenario_io.load_trace.s": total["scenario_io.load_trace"] * NS,
        "verify.verify_trace.s": total["verify.verify_trace"] * NS,
        "verify.replay.s": replay_ns * NS,
        "verify.recorded_checks.s": (total["verify.verify_trace"] - replay_ns) * NS,
        "oracle.exhaustive_search.s": total["oracle.exhaustive_search"] * NS,
        "oracle.states_explored": counts["states"],
        "oracle.us_per_state": _ratio(counts["states_ns"] / 1000, counts["states"]),
        "cli.self_s": self_ns["cli.main"] * NS,
    }


def step_cost_growth(spans: list[tuple]) -> float:
    """Mean step time over the last quarter of a ``run`` verb's steps over the first quarter.

    Taken per ``run`` invocation with at least eight steps and reported as
    the median over them; 0 when no invocation has that many steps.
    """
    steps_by_run: dict[int, list[int]] = {}
    for name, start, end, parent, _ in spans:
        if name != "principalize.step" or parent < 0:
            continue
        run = spans[parent]
        if run[0] == "principalize.run" and run[3] >= 0 and spans[run[3]][0] == "cli.main":
            steps_by_run.setdefault(parent, []).append(end - start)
    ratios = []
    for durations in steps_by_run.values():
        quarter = len(durations) // 4
        if quarter >= 2:
            ratios.append(sum(durations[-quarter:]) / sum(durations[:quarter]))
    return statistics.median(ratios) if ratios else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
