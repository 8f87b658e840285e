"""Virtual best and single best solver baselines.

The virtual best solver (VBS) takes the per-instance minimum of a base metric
over all solvers; the single best solver (SBS) is the one solver minimizing
the base metric total over a selection set. The selection set depends on the
policy: the training split, the test split, or the whole dataset.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Mapping, Sequence

from .errors import _Value
from .metrics import SbsPolicy, Split, base_columns, read_split
from .scenario import Scenario

__all__ = [
    "BaselineReport",
    "SbsPolicy",
    "baseline_report",
    "cell_baselines",
    "select_sbs",
]

LOW_RESOLUTION_THRESHOLD = 0.01


class BaselineReport(_Value):
    base_metric_id: str
    sbs_id: str
    sbs_policy: SbsPolicy
    vbs_per_instance: Mapping[str, float]
    m_vbs: float
    m_sbs: float
    gap_ratio: float
    warnings: tuple[str, ...] = ()


def _candidates(selection: Sequence[Split]) -> list[str]:
    """The solvers whose total over the splits may be the least, found from float sums.

    A solver's rough total adds its splits' float sums (Split.sums). Base
    values are >= 0, so it is within gamma_{n-1} times the exact total for n
    values in all (Higham 2002, ch. 4); the slack below is over four times
    that, which also covers the rounding of the exact total and of the slack
    products. A solver whose least possible exact total lies above the
    leader's greatest possible rounded one rounds to a strictly greater
    total, so it is not picked. A rough total that overflowed rules nothing.
    """
    solvers = selection[0].values
    rough = {s: sum(sp.sums[s] for sp in selection) for s in solvers}
    slack = (sum(len(sp.at) for sp in selection) + 2) * 2.0**-51
    cap = min(rough.values()) * (1.0 + slack)
    return [s for s in solvers if not cap < rough[s] * (1.0 - slack) < math.inf]


def _sbs(selection: Sequence[Split]) -> str:
    """The solver with the least total over the splits; ties go lexicographically.

    Totals are math.fsum, which rounds the exact sum once, so a total does
    not depend on how its values are split or ordered. Only the _candidates
    are summed so.
    """
    return min(_candidates(selection), key=lambda s: (
        math.fsum(chain.from_iterable(sp.values[s] for sp in selection)), s))


def cell_baselines(
    instance_ids: Sequence[str], base_metric: str, policy: SbsPolicy, test: Split,
    selection: Sequence[Split],
) -> tuple[BaselineReport, dict[str, float]]:
    """Both baselines of one cell, read off splits of the base metric's columns (base_columns).

    The SBS is picked on the policy's selection set, given as the splits that
    make it up (evaluate passes the other folds, the test fold or every fold).
    Both m_vbs and m_sbs are then measured on the test split. Also returns
    every solver's base total there, which is what its closed gap compares.
    """
    sbs = _sbs(selection)
    totals = {s: math.fsum(values) for s, values in test.values.items()}
    rows = zip(test.at, zip(*test.values.values()))
    per_instance = {instance_ids[p]: min(row) for p, row in rows}
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


def select_sbs(scenario: Scenario, base_metric: str = "par", lam: float = 10.0) -> str:
    """Pick the single best solver over the whole scenario; ties go lexicographically."""
    return baseline_report(scenario, base_metric, lam).sbs_id


def baseline_report(
    scenario: Scenario, base_metric: str = "par", lam: float = 10.0
) -> BaselineReport:
    """Both baselines over the whole scenario, the full_dataset policy without folds.

    The SBS is picked and measured on every instance. A cell of a fold plan
    is scored by evaluate, which passes cell_baselines the cell's own test
    and selection splits.
    """
    columns = base_columns(scenario, base_metric, lam)
    split = read_split(columns, range(len(scenario.instances)))
    report, _ = cell_baselines(
        scenario.instance_ids, base_metric, SbsPolicy.FULL_DATASET, split, [split]
    )
    return report
