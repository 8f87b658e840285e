"""Evaluation of solvers and solver portfolios over benchmark run data.

The package models a scenario (instances, solvers, a shared timeout, and the
recorded run outcomes), scores it under a family of metrics, compares solvers
against virtual-best and single-best baselines with optional cross-validation,
and ships a small generator for synthetic scenarios plus CSV ingestion and
report emission. The ``solvereval`` command exposes the same functionality
from the shell.

The names below are imported from their submodule on first access (PEP 562)
and bound here, so ``import solvereval.cli`` loads only what a command uses.
"""

from __future__ import annotations

__version__ = "0.1.0"

# Each public name, under the submodule that defines it.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "scenario": (
        "Direction", "HeadToHead", "Instance", "InstanceKind", "RunOutcome", "RunStatus",
        "Scenario", "ScoreTable", "Trajectory", "head_to_head", "quantize_ms",
        "runtime_distribution",
    ),
    "validation": ("build_scenario", "restrict", "validate_scenario"),
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
    "io": ("parse_runs", "trajectories_path_for"),
    "writer": ("emit_scenario",),
    "report": ("build_report", "emit_report"),
    "aslib": ("parse_aslib_runs",),
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


def _forwarder(namespace: dict[str, object], module_of: dict[str, str]):
    """The __getattr__ (PEP 562) of the module whose globals are namespace: each name of
    module_of is read from the module it maps to, imported as an import statement imports
    (which -X importtime lists), and bound in namespace, so it reads the same until rebound."""

    def __getattr__(name: str) -> object:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        imported = __import__(module, namespace, level=1, fromlist=[name])
        value = namespace[name] = getattr(imported, name)
        return value

    return __getattr__


__getattr__ = _forwarder(globals(), _MODULE_OF)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
