"""The benchmark's tracer wraps functions by name; each must still exist, and be seen."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from solvereval.cli import main


@pytest.fixture
def tracing(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_trace_bindings_exist(tracing):
    names = [
        (layer, name)
        for table in (tracing.SPANNED, tracing.COUNTED)
        for layer, names in table.items()
        for name in names
    ]
    assert ("scenario", "restrict") in names
    for layer, name in names:
        assert callable(getattr(tracing._MODULES[layer], name, None)), f"{layer}.{name}"


def test_commands_call_through_the_traced_bindings(tracing, tmp_path, capsys):
    # Names a command imports when it runs, or that a module reads from another on first
    # use, are still the wrapped ones while the tracer is installed.
    runs = str(tmp_path / "runs.csv")
    tracer = tracing.Tracer()
    with tracer:
        for argv in (["gen", "--instances", "12", "--opt-fraction", "0.5", "-o", runs],
                     ["score", runs, "--timeout", "100", "--folds", "3", "--format", "json"],
                     ["sweep-delta", runs, "--timeout", "100", "--flip", "thorough,fast"]):
            assert main(argv) == 0, capsys.readouterr().err
    seen = {span.name for span in tracer.spans}
    assert {"io.emit_scenario", "io.parse_runs", "io.build_report", "io.emit_report",
            "harness.evaluate", "harness.make_fold_plan", "harness.rank",
            "harness.delta_sweep", "harness.find_flip_delta"} <= seen
    assert tracer.counts["io.emit_scenario.rows"] == 24
