"""Evaluation of solvers and solver portfolios over benchmark run data.

The package models a scenario (instances, solvers, a shared timeout, and the
recorded run outcomes), scores it under a family of metrics, compares solvers
against virtual-best and single-best baselines with optional cross-validation,
and ships a small generator for synthetic scenarios plus CSV ingestion and
report emission. The ``solvereval`` command exposes the same functionality
from the shell.

The names below are imported from their submodule on first access (PEP 562),
so ``import solvereval.cli`` loads only what a command uses.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Each public name, under the submodule that defines it.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "scenario": (
        "Direction", "HeadToHead", "Instance", "InstanceKind", "RunOutcome", "RunStatus",
        "Scenario", "ScoreTable", "Trajectory", "build_scenario", "head_to_head", "quantize_ms",
        "restrict", "runtime_distribution", "validate_scenario",
    ),
    "metrics": (
        "METRICS", "MetricInfo", "MetricParams", "SbsPolicy", "base_instance_values",
        "closed_gap", "delta_sweep", "find_flip_delta", "metric_info", "mznc_pair", "mznc_score",
        "normalized_runtime_score", "par_score",
    ),
    "baselines": (
        "LOW_RESOLUTION_THRESHOLD", "BaselineReport", "baseline_report", "select_sbs",
    ),
    "harness": (
        "DEFAULT_MERGE", "Aggregation", "EvaluationResult", "FoldCell", "FoldPlan", "RankEntry",
        "aggregate", "evaluate", "make_fold_plan", "rank", "score_scenario",
    ),
    "synthkit": (
        "ArchetypeSpec", "DrawSpec", "SolverSpec", "constant", "generate",
        "thorough_vs_fast_spec", "uniform",
    ),
    "oracle": ("oracle_score",),
    "io": (
        "build_report", "emit_report", "emit_scenario",
        "parse_aslib_runs", "parse_runs", "trajectories_path_for",
    ),
    "rng": ("SplitMix64",),
    "errors": (
        "BadAlphaBeta", "BadK", "BadLambda", "BadSpec", "CliUsageError",
        "DegenerateGap", "EmptyInput", "EmptyRestriction", "MissingFoldContext",
        "MissingTrajectory", "NonDecomposableMetric", "NonPositiveForGeomean",
        "NonPositiveObjective", "RowError", "SameSolver", "SchemaError", "SingleSolverScenario",
        "SolverEvalError", "TooLarge", "UnknownInstance", "UnknownSolver",
        "UnsupportedAttribute", "ValidationError", "Violation",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str) -> object:
    # Nothing is cached here: a name always reads its submodule's current binding.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
