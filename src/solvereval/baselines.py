"""Virtual best and single best solver baselines.

The virtual best solver (VBS) takes the per-instance minimum of a base metric
over all solvers; the single best solver (SBS) is the one solver minimizing
the base metric total over a selection set. The selection set depends on the
policy: the training split, the test split, or the whole dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Mapping, Sequence

from .errors import MissingFoldContext
from .metrics import Columns, Split, base_columns, read_split
from .scenario import Scenario, positions

__all__ = [
    "BaselineReport",
    "FoldContext",
    "SbsPolicy",
    "baseline_report",
    "cell_baselines",
    "select_sbs",
]

LOW_RESOLUTION_THRESHOLD = 0.01


class SbsPolicy(str, Enum):
    TRAIN_SPLIT = "train_split"
    TEST_SPLIT = "test_split"
    FULL_DATASET = "full_dataset"


@dataclass(frozen=True)
class FoldContext:
    """Train/test instance ids of one cross-validation cell."""

    train: tuple[str, ...]
    test: tuple[str, ...]


@dataclass(frozen=True)
class BaselineReport:
    base_metric_id: str
    sbs_id: str
    sbs_policy: SbsPolicy
    vbs_per_instance: Mapping[str, float]
    m_vbs: float
    m_sbs: float
    gap_ratio: float
    warnings: tuple[str, ...] = ()


def _selection(
    scenario: Scenario, policy: SbsPolicy, fold_context: FoldContext | None
) -> Sequence[int]:
    if policy is SbsPolicy.FULL_DATASET:
        return range(len(scenario.instances))
    if fold_context is None:
        raise MissingFoldContext(
            f"policy {policy.value} needs a fold context with train/test splits"
        )
    split = fold_context.train if policy is SbsPolicy.TRAIN_SPLIT else fold_context.test
    return positions(scenario, split)


def _sbs(selection: Sequence[Split]) -> str:
    """The solver with the least total over the splits; ties go lexicographically.

    math.fsum rounds the exact sum once, so a total does not depend on how
    its values are split or ordered.
    """
    solvers = selection[0].values
    totals = {s: math.fsum(chain.from_iterable(sp.values[s] for sp in selection))
              for s in solvers}
    return min(solvers, key=lambda s: (totals[s], s))


def cell_baselines(
    scenario: Scenario,
    columns: Columns,
    base_metric: str,
    policy: SbsPolicy,
    fold_context: FoldContext | None,
    test: Split,
    selection: Sequence[Split] | None = None,
) -> tuple[BaselineReport, dict[str, float]]:
    """Both baselines of one cell, read off the base metric's columns (base_columns).

    The SBS is picked on the policy's selection set, given as the splits
    that make it up (evaluate passes the other folds, the test fold or every
    fold), or else read at the fold context's split. Both m_vbs and m_sbs
    are then measured on the test split. Also returns every solver's base
    total there, which is what its closed gap compares.
    """
    if selection is None:
        selection = [read_split(columns, _selection(scenario, policy, fold_context))]
    sbs = _sbs(selection)
    totals = {s: math.fsum(values) for s, values in test.values.items()}
    ids = scenario.instance_ids
    per_instance = {ids[p]: min(row) for p, row in zip(test.at, zip(*test.values.values()))}
    m_vbs = math.fsum(per_instance.values())
    m_sbs = totals[sbs]
    gap_ratio = 0.0 if m_sbs == 0.0 else (m_sbs - m_vbs) / m_sbs
    warnings = []
    if gap_ratio < LOW_RESOLUTION_THRESHOLD:
        warnings.append(
            f"low resolution: the single best solver is within "
            f"{gap_ratio:.4%} of the virtual best on the evaluation set; "
            "closed-gap values will be noisy"
        )
    report = BaselineReport(
        base_metric_id=base_metric,
        sbs_id=sbs,
        sbs_policy=policy,
        vbs_per_instance=per_instance,
        m_vbs=m_vbs,
        m_sbs=m_sbs,
        gap_ratio=gap_ratio,
        warnings=tuple(warnings),
    )
    return report, totals


def select_sbs(
    scenario: Scenario,
    base_metric: str = "par",
    lam: float = 10.0,
    policy: SbsPolicy = SbsPolicy.FULL_DATASET,
    fold_context: FoldContext | None = None,
) -> str:
    """Pick the single best solver on the policy's selection set; ties go lexicographically."""
    selection = _selection(scenario, SbsPolicy(policy), fold_context)
    return _sbs([read_split(base_columns(scenario, base_metric, lam), selection)])


def baseline_report(
    scenario: Scenario,
    base_metric: str = "par",
    lam: float = 10.0,
    policy: SbsPolicy = SbsPolicy.FULL_DATASET,
    fold_context: FoldContext | None = None,
) -> BaselineReport:
    """Resolve both baselines and evaluate them on the evaluation instance set.

    The SBS is picked on the policy's selection set; both m_vbs and m_sbs are
    then measured on the evaluation set (the test split when a fold context is
    given, the whole scenario otherwise).
    """
    evaluation = (
        positions(scenario, fold_context.test) if fold_context is not None
        else range(len(scenario.instances))
    )
    columns = base_columns(scenario, base_metric, lam)
    report, _ = cell_baselines(
        scenario, columns, base_metric, SbsPolicy(policy), fold_context,
        read_split(columns, evaluation),
    )
    return report
