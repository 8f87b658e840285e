"""The benchmark's tracer wraps functions by name; each must still exist."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path


def test_trace_bindings_exist(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    names = [
        (layer, name)
        for table in (tracing.SPANNED, tracing.COUNTED)
        for layer, names in table.items()
        for name in names
    ]
    assert ("scenario", "restrict") in names
    for layer, name in names:
        assert callable(getattr(tracing._MODULES[layer], name, None)), f"{layer}.{name}"
