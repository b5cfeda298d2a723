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
