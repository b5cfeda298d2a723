"""The bench tracer (``bench/tracing.py``) replaces package functions by
module and attribute name.  A rename or removal under ``src/`` breaks it
without failing any engine test, so check every name it patches."""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module() -> types.ModuleType:
    # exec instead of an import, so nothing (not even bytecode) is written
    # next to the bench scripts
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing_module()
    names = [(m, a) for m, a, _ in tracing.SPANS] + list(tracing.COUNTED)
    assert names
    missing = [
        f"toroidalize.{m}.{a}"
        for m, a in names
        if not callable(getattr(importlib.import_module(f"toroidalize.{m}"), a, None))
    ]
    assert missing == []


def test_tracer_reads_every_result_it_counts(tmp_path, capsys):
    # The tracer also reads attributes of what the traced calls return
    # (``descendants``, ``states_explored``, the leaf list); run one small
    # fixture through every verb with it installed.
    tracing = _tracing_module()
    names = ("cli", "descent", "forms", "invariants", "principalize", "scenario_io", "verify")
    modules = {name: importlib.import_module(f"toroidalize.{name}") for name in names}
    fixture = Path(__file__).resolve().parent / "fixtures" / "euclid.json"
    trace = tmp_path / "euclid.trace.json"
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        cli = modules["cli"]
        assert cli.main(["run", str(fixture), "-o", str(trace)]) == 0
        assert cli.main(["verify", str(trace)]) == 0
        assert cli.main(["oracle", str(fixture), "--depth", "32"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for name in ("descendants", "leaves", "states", "is_principal"):
        assert tracer.counts[name] > 0, name
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, trace.stat().st_size)
    assert metrics["principalize.step.calls"] > 0
    assert metrics["verify.replay.s"] > 0
