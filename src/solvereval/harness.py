"""Evaluation harness: cross-validation, aggregation, ranking, diagnostics."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .errors import (
    BadK,
    EmptyInput,
    EmptyRestriction,
    MissingFoldContext,
    NonPositiveForGeomean,
)
from .metrics import (
    Columns,
    MetricParams,
    SbsPolicy,
    Split,
    closed_gap,
    delta_sweep,
    find_flip_delta,
    metric_info,
    read_split,
)
from .scenario import (
    Direction,
    HeadToHead,
    InstanceValues,
    Scenario,
    ScoreTable,
    head_to_head,
    runtime_distribution,
)

if TYPE_CHECKING:  # only a closed gap loads baselines, when its cell is scored
    from .baselines import BaselineReport

__all__ = [
    "Aggregation",
    "EvaluationResult",
    "FoldCell",
    "FoldPlan",
    "HeadToHead",
    "RankEntry",
    "aggregate",
    "delta_sweep",
    "evaluate",
    "find_flip_delta",
    "head_to_head",
    "make_fold_plan",
    "rank",
    "runtime_distribution",
    "score_scenario",
]


class Aggregation(str, Enum):
    SUM = "sum"
    ARITHMETIC_MEAN = "arithmetic_mean"
    GEOMETRIC_MEAN = "geometric_mean"
    MEDIAN = "median"


def aggregate(values: Sequence[float], method: Aggregation | str) -> float:
    """Combine a list of scores with the chosen method."""
    method = Aggregation(method)
    vals = list(values)
    if not vals:
        raise EmptyInput("nothing to aggregate")
    if method is Aggregation.SUM:
        return math.fsum(vals)
    if method is Aggregation.ARITHMETIC_MEAN:
        return math.fsum(vals) / len(vals)
    import statistics

    if method is Aggregation.GEOMETRIC_MEAN:
        if any(v <= 0 for v in vals):
            raise NonPositiveForGeomean("geometric mean needs strictly positive values")
        return statistics.geometric_mean(vals)
    return statistics.median(vals)


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic k-fold assignments, one partition per repeat.

    make_fold_plan's membership is a function of (seed, k, repeats, instance
    id set) only, not of the order instances were listed in. k and repeats
    are read off the assignment.
    """

    seed: int
    assignment: tuple[tuple[tuple[str, ...], ...], ...]

    @property
    def k(self) -> int:
        return len(self.assignment[0]) if self.assignment else 0

    @property
    def repeats(self) -> int:
        return len(self.assignment)


def make_fold_plan(
    instances: Sequence[str], k: int, repeats: int = 1, seed: int = 0
) -> FoldPlan:
    ids = sorted(str(i) for i in instances)
    if len(set(ids)) != len(ids):
        raise ValueError("instance ids must be unique")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if k < 2 or k > len(ids):
        raise BadK(f"k must satisfy 2 <= k <= number of instances, got k={k} for {len(ids)}")
    from .rng import SplitMix64

    rng = SplitMix64(seed)
    n = len(ids)
    base, extra = divmod(n, k)
    repeats_out = []
    for _ in range(repeats):
        order = list(ids)
        rng.shuffle(order)
        folds = []
        start = 0
        for f in range(k):
            size = base + (1 if f < extra else 0)
            folds.append(tuple(order[start : start + size]))
            start += size
        repeats_out.append(tuple(folds))
    return FoldPlan(seed=seed, assignment=tuple(repeats_out))


DEFAULT_MERGE = Aggregation.ARITHMETIC_MEAN


def check_fold_merge(metric_id: str, aggregation: Aggregation | str) -> None:
    """Reject merging a metric's fold scores with an aggregation that must fail.

    A closed-gap cell scores its own single best solver at exactly 0, so a
    geometric mean over cells always meets a non-positive value.
    """
    geometric = Aggregation(aggregation) is Aggregation.GEOMETRIC_MEAN
    if geometric and metric_info(metric_id).baselines:
        raise NonPositiveForGeomean(
            f"{metric_id} cannot merge folds with a geometric mean: "
            "every fold scores its single best solver at 0"
        )


def check_partition(scenario: Scenario, fold_plan: FoldPlan) -> None:
    """Reject a fold plan unless each repeat splits the instances into k >= 2 non-empty folds."""
    if not fold_plan.assignment:
        raise ValueError("fold plan has no repeat")
    ids, k = set(scenario.instance_ids), fold_plan.k
    for r, folds in enumerate(fold_plan.assignment):
        if len(folds) < 2:
            raise BadK(f"fold plan repeat {r} has {len(folds)} fold(s); k must be at least 2")
        if len(folds) != k:
            raise ValueError(f"fold plan repeat {r} has {len(folds)} folds, repeat 0 has {k}")
        listed = [i for fold in folds for i in fold]
        if len(listed) != len(ids) or set(listed) != ids:
            if r == 0 and set(listed) != ids:
                raise ValueError("fold plan does not cover exactly the scenario's instances")
            counts = Counter(listed)
            unknown = [i for i in counts if i not in ids]
            if unknown:
                raise ValueError(f"fold plan repeat {r} lists instance {unknown[0]!r}, "
                                 "which the scenario does not have")
            i = next(i for i in scenario.instance_ids if counts[i] != 1)
            raise ValueError(f"fold plan repeat {r} puts instance {i!r} in {counts[i]} folds; "
                             "each instance must be in exactly one")
        if not all(folds):
            f = next(f for f, fold in enumerate(folds) if not fold)
            raise EmptyRestriction(f"fold plan repeat {r} has an empty fold, fold {f}")


def score_scenario(
    scenario: Scenario,
    metric_id: str,
    params: MetricParams | None = None,
    sbs_policy: SbsPolicy | str | None = None,
    *,
    columns: Columns | None = None,
    split: Split | None = None,
    selection: Sequence[Split] | None = None,
) -> tuple[ScoreTable, BaselineReport | None]:
    """Score every solver under one metric: on one cell, or on every instance.

    Returns the score table and, for the closed gap, the baseline report
    used. Without a split this is evaluate without a fold plan: its one
    cell's table and baseline. evaluate scores each cell here, passing the
    metric's per-instance columns over the whole scenario (instance_columns,
    or base_columns for the closed gap), the cell's test split read off them
    (read_split) and its selection splits, which only the closed gap reads.
    A solver's score is the exact sum of its split values, divided by their
    number for a mean; the table's per_instance is a view of the columns.
    """
    if split is None:
        result = evaluate(scenario, metric_id, params, sbs_policy=sbs_policy)
        return result.merged, result.cells[0].baseline
    params = params or MetricParams()
    info = metric_info(metric_id)
    if columns is None or info.baselines and selection is None:
        raise TypeError("a split needs the columns it was read off, and a closed gap its selection")
    policy = SbsPolicy(sbs_policy) if sbs_policy is not None else SbsPolicy.FULL_DATASET
    table_params = info.report_params(params, policy.value)
    solvers = scenario.solvers

    if info.baselines:
        from .baselines import cell_baselines

        # An empty test split has no gap to close, and an empty selection would pick the
        # lexicographically first solver as the single best.
        if not split.at or not any(sp.at for sp in selection):
            raise EmptyInput(f"{metric_id} on {params.base_metric} needs optimization instances")
        report, totals = cell_baselines(
            scenario.instance_ids, params.base_metric, policy, split, selection
        )
        per_solver = {s: closed_gap(totals[s], report.m_sbs, report.m_vbs) for s in solvers}
        return ScoreTable(metric_id, table_params, per_solver, info.direction), report

    if not split.at:
        raise EmptyInput(f"{metric_id} needs optimization instances")
    per_instance = InstanceValues(columns, scenario.instance_ids, split.at)
    how, n = (Aggregation.SUM, 1) if info.summed else (Aggregation.ARITHMETIC_MEAN, len(split.at))
    per_solver = {s: math.fsum(split.values[s]) / n for s in solvers}
    return ScoreTable(
        metric_id, table_params, per_solver, info.direction, per_instance, how.value
    ), None


@dataclass(frozen=True)
class FoldCell:
    repeat: int
    fold: int
    test_instances: tuple[str, ...]
    table: ScoreTable
    baseline: BaselineReport | None


@dataclass(frozen=True)
class EvaluationResult:
    cells: tuple[FoldCell, ...]
    merged: ScoreTable
    fold_plan: FoldPlan | None
    sbs_policy: SbsPolicy
    aggregation: Aggregation


def evaluate(
    scenario: Scenario,
    metric_id: str,
    params: MetricParams | None = None,
    fold_plan: FoldPlan | None = None,
    sbs_policy: SbsPolicy | str | None = None,
    aggregation: Aggregation | str | None = None,
) -> EvaluationResult:
    """Run one metric over a scenario, optionally per cross-validation cell.

    Each test fold of each repeat is scored (score_scenario), and the cell
    scores are merged with the chosen aggregation, arithmetic mean by default.
    Without a fold plan one fold holds every instance: its table is the merged
    one. The fold loop is the one place that turns sbs_policy into a cell's
    selection splits: the other folds (train_split), the test fold (test_split)
    or every fold (full_dataset, the default without a plan). A split policy
    without a plan (MissingFoldContext), a merge that must fail
    (check_fold_merge) and a plan that does not split the instances into the
    same k >= 2 folds in every repeat (check_partition) are rejected before
    any column is built. Each repeat reads every fold's split once, up front.
    """
    params = params or MetricParams()
    info = metric_info(metric_id)
    merge = Aggregation(aggregation) if aggregation is not None else DEFAULT_MERGE
    if fold_plan is None:
        policy = SbsPolicy(sbs_policy) if sbs_policy is not None else SbsPolicy.FULL_DATASET
        if info.baselines and policy is not SbsPolicy.FULL_DATASET:
            raise MissingFoldContext(
                f"policy {policy.value} picks the single best solver on a cell's folds: "
                "score it with evaluate and a fold plan"
            )
        assignment = ((scenario.instance_ids,),)
    else:
        check_fold_merge(metric_id, merge)
        check_partition(scenario, fold_plan)
        policy = SbsPolicy(sbs_policy) if sbs_policy is not None else SbsPolicy.TRAIN_SPLIT
        assignment = fold_plan.assignment
    columns = info.columns(scenario, params)

    cells, index = [], scenario.position_map
    for r, folds in enumerate(assignment):
        splits = [read_split(columns, sorted(map(index.__getitem__, fold))) for fold in folds]
        for f, (test, split) in enumerate(zip(folds, splits)):
            selection = (
                splits[:f] + splits[f + 1 :] if policy is SbsPolicy.TRAIN_SPLIT
                else [split] if policy is SbsPolicy.TEST_SPLIT else splits
            )
            table, report = score_scenario(
                scenario, metric_id, params, policy,
                columns=columns, split=split, selection=selection,
            )
            cells.append(FoldCell(r, f, test, table, report))

    merged = cells[0].table if fold_plan is None else ScoreTable(
        metric_id, cells[0].table.params,
        {s: _merge_cells(cells, metric_id, s, merge) for s in scenario.solvers},
        cells[0].table.direction,
    )
    return EvaluationResult(tuple(cells), merged, fold_plan, policy, merge)


def _merge_cells(cells: list[FoldCell], metric_id: str, solver: str, merge: Aggregation) -> float:
    """One solver's cell scores merged; a refused geometric mean names the first bad cell."""
    try:
        return aggregate([c.table.per_solver[solver] for c in cells], merge)
    except NonPositiveForGeomean as e:
        bad = next(c for c in cells if c.table.per_solver[solver] <= 0)
        raise NonPositiveForGeomean(
            f"{metric_id}: {e}: solver {solver} scores {bad.table.per_solver[solver]!r}"
            f" in repeat {bad.repeat}, fold {bad.fold}"
        ) from None


@dataclass(frozen=True)
class RankEntry:
    solver_id: str
    score: float
    position: int
    tied: bool


def rank(tables: Sequence[ScoreTable]) -> list[RankEntry]:
    """Order the solvers of the one table in tables by score; ties go by solver id, flagged."""
    if not tables:
        raise EmptyInput("nothing to rank")
    if len(tables) > 1:
        raise ValueError(f"rank takes one score table, got {len(tables)}")
    (table,) = tables
    reverse = table.direction is Direction.HIGHER
    ordered = sorted(table.per_solver.items(),
                     key=lambda kv: ((-kv[1] if reverse else kv[1]), kv[0]))
    counts: dict[float, int] = {}
    for _, v in ordered:
        counts[v] = counts.get(v, 0) + 1
    return [
        RankEntry(s, v, pos + 1, counts[v] > 1)
        for pos, (s, v) in enumerate(ordered)
    ]
