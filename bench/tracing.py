"""Spans and counts around solvereval's public functions, from outside the package.

``Tracer.install`` replaces each traced function in every module that binds
it by name (``harness.restrict`` and ``baselines.restrict`` are both the
wrapped ``scenario.restrict``), so calls between modules are seen without
any change under ``src/``. Spans are kept in memory; ``layer_metrics``
turns them into the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter
from dataclasses import dataclass

import solvereval.baselines
import solvereval.cli
import solvereval.harness
import solvereval.io
import solvereval.metrics
import solvereval.scenario
import solvereval.synthkit

# Modules whose name bindings are patched. The package namespace and the
# oracle are left alone: nothing calls through the former and the latter is
# the benchmark's own correctness reference.
_MODULES = {
    "cli": solvereval.cli,
    "io": solvereval.io,
    "scenario": solvereval.scenario,
    "synthkit": solvereval.synthkit,
    "harness": solvereval.harness,
    "metrics": solvereval.metrics,
    "baselines": solvereval.baselines,
}

SPANNED = {
    "io": ("parse_runs", "emit_scenario", "build_report", "emit_report"),
    "scenario": ("validate_scenario", "restrict"),
    "synthkit": ("generate",),
    "harness": ("evaluate", "score_scenario", "make_fold_plan", "rank", "delta_sweep",
                "find_flip_delta", "head_to_head", "runtime_distribution"),
    "metrics": ("base_instance_values", "mznc_score"),
    "baselines": ("baseline_report", "select_sbs"),
}
# Called about two million times on the pairwise workload: counted, not
# spanned, to keep the tracing overhead small.
COUNTED = {"metrics": ("mznc_pair",)}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def _spanned(self, name: str, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.run(name, fn, *args, **kwargs)
            if note is not None:
                note(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for layer, names in table.items():
                for fname in names:
                    original = getattr(_MODULES[layer], fname)
                    wrapper = make(f"{layer}.{fname}", original)
                    for module in _MODULES.values():
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._undo.append((module, attr, value))
                                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _note_rows(key: str):
    def note(counts, args, kwargs, result):
        counts[key] += len(result.outcomes)
    return note


def _note_emit_scenario(counts, args, kwargs, result):
    counts["io.emit_scenario.rows"] += len(_arg(args, kwargs, 0, "scenario").outcomes)


def _note_emit_report(counts, args, kwargs, result):
    counts["io.emit_report.bytes"] += len(result)


def _note_score(counts, args, kwargs, result):
    if _arg(args, kwargs, 1, "metric_id") == "closed-gap":
        counts["closed_gap_cells"] += 1


_NOTES = {
    "io.parse_runs": _note_rows("io.parse_runs.rows"),
    "scenario.restrict": _note_rows("scenario.restrict.rows_copied"),
    "io.emit_scenario": _note_emit_scenario,
    "io.emit_report": _note_emit_report,
    "harness.score_scenario": _note_score,
}


def layer_metrics(tracer: Tracer, startup_s: list[float], overhead_s: float) -> dict[str, float]:
    """Per-layer figures of one traced set-up plus one traced pass."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_time[sp.parent] += sp.end - sp.start
    total: Counter[str] = Counter()
    self_time: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for idx, sp in enumerate(spans):
        total[sp.name] += sp.end - sp.start
        self_time[sp.name] += sp.end - sp.start - child_time[idx]
        calls[sp.name] += 1
    flip_scores = sum(
        1 for sp in spans
        if sp.name == "metrics.mznc_score"
        and sp.parent >= 0 and spans[sp.parent].name == "harness.find_flip_delta"
    )
    counts = tracer.counts
    cells = calls["harness.score_scenario"]
    gap_cells = counts["closed_gap_cells"]
    return {
        "cli.startup_s": statistics.median(startup_s),
        "cli.main.self_s": self_time["cli.main"],
        "io.parse_runs.self_s": self_time["io.parse_runs"],
        "io.parse_runs.rows": counts["io.parse_runs.rows"],
        "scenario.validate_scenario.s": total["scenario.validate_scenario"],
        "io.emit_scenario.s": total["io.emit_scenario"],
        "io.emit_scenario.rows": counts["io.emit_scenario.rows"],
        "synthkit.generate.s": total["synthkit.generate"],
        "harness.evaluate.s": total["harness.evaluate"],
        "harness.score_scenario.calls": cells,
        "harness.score_scenario.self_s": self_time["harness.score_scenario"],
        "harness.make_fold_plan.s": total["harness.make_fold_plan"],
        "scenario.restrict.calls": calls["scenario.restrict"],
        "scenario.restrict.rows_copied": counts["scenario.restrict.rows_copied"],
        "harness.restrict_per_cell": calls["scenario.restrict"] / cells if cells else 0.0,
        "metrics.base_instance_values.calls": calls["metrics.base_instance_values"],
        "baselines.base_values_per_cell": (
            calls["metrics.base_instance_values"] / gap_cells if gap_cells else 0.0
        ),
        "baselines.baseline_report.s": total["baselines.baseline_report"],
        "baselines.select_sbs.s": total["baselines.select_sbs"],
        "metrics.mznc_pair.calls": counts["metrics.mznc_pair"],
        "metrics.mznc_score.calls": calls["metrics.mznc_score"],
        "metrics.mznc_score.s": total["metrics.mznc_score"],
        "harness.delta_sweep.s": total["harness.delta_sweep"],
        "harness.find_flip_delta.self_s": self_time["harness.find_flip_delta"],
        # each breakpoint the scan visits scores both solvers once
        "harness.flip_candidates": flip_scores // 2,
        "harness.head_to_head.s": total["harness.head_to_head"],
        "harness.head_to_head.calls": calls["harness.head_to_head"],
        "harness.runtime_distribution.s": total["harness.runtime_distribution"],
        "io.build_report.s": total["io.build_report"],
        "io.emit_report.s": total["io.emit_report"],
        "io.emit_report.bytes": counts["io.emit_report.bytes"],
        "harness.rank.s": total["harness.rank"],
        "trace.overhead_s": overhead_s,
    }
