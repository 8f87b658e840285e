"""Performance metrics for solver runs.

Implements the penalized-average-runtime family (PAR), the MiniZinc-challenge
style pairwise Borda score (here "mznc") with a configurable time-equivalence
threshold delta, closed gap relative to the virtual/single best solver,
speedup over the virtual best solver, normalized runtime, and three
optimization-quality scores (ratio, area, bounded reward).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    BadAlphaBeta,
    BadBounds,
    BadLambda,
    DegenerateGap,
    MissingTrajectory,
    NonDecomposableMetric,
    NonPositiveObjective,
    SameSolver,
    SingleSolverScenario,
    UnknownSolver,
)
from .scenario import (
    Direction,
    Instance,
    InstanceKind,
    RunOutcome,
    RunStatus,
    Scenario,
    Trajectory,
    obj_pool,
    resolve_best_known,
    time_to_ms,
)

__all__ = [
    "Columns",
    "MetricInfo",
    "MetricParams",
    "METRICS",
    "area_instance_values",
    "area_score",
    "base_columns",
    "base_instance_values",
    "bounded_reward_score",
    "closed_gap",
    "instance_columns",
    "metric_info",
    "mznc_pair",
    "mznc_score",
    "normalized_runtime_score",
    "par_instance",
    "par_score",
    "ratio_score",
    "solved_ranking",
    "speedup_score",
    "valued",
]


@dataclass(frozen=True)
class MetricParams:
    """Named parameters a metric may take; unused fields are ignored."""

    lam: float = 10.0
    delta: float = 0.0
    alpha: float = 0.25
    beta: float = 0.75
    base_metric: str = "par"


@dataclass(frozen=True)
class MetricInfo:
    metric_id: str
    direction: Direction
    decomposable_base: bool
    optimization_only: bool


METRICS: dict[str, MetricInfo] = {
    m.metric_id: m
    for m in (
        MetricInfo("par", Direction.LOWER, True, False),
        MetricInfo("runtime", Direction.LOWER, True, False),
        MetricInfo("solved-count", Direction.HIGHER, False, False),
        MetricInfo("mznc", Direction.HIGHER, False, False),
        MetricInfo("normalized-runtime", Direction.HIGHER, False, False),
        MetricInfo("speedup", Direction.HIGHER, False, False),
        MetricInfo("closed-gap", Direction.HIGHER, False, False),
        MetricInfo("ratio", Direction.HIGHER, False, True),
        MetricInfo("area", Direction.LOWER, True, True),
        MetricInfo("bounded-reward", Direction.HIGHER, False, True),
    )
}


def metric_info(metric_id: str) -> MetricInfo:
    try:
        return METRICS[metric_id]
    except KeyError:
        raise ValueError(f"unknown metric {metric_id!r}") from None


def _check_solver(scenario: Scenario, solver: str) -> None:
    if solver not in scenario.solvers:
        raise UnknownSolver(f"solver {solver!r} is not part of scenario {scenario.id!r}")


def par_instance(outcome: RunOutcome, lam: float, timeout_s: float) -> float:
    """Penalized runtime of one run: the time if it beat the timeout, else lam * timeout."""
    if not lam >= 1.0:
        raise BadLambda(f"penalty factor must be >= 1, got {lam}")
    if outcome.time_s < timeout_s:
        return outcome.time_s
    return lam * timeout_s


def par_score(scenario: Scenario, solver: str, lam: float) -> float:
    """Mean penalized runtime of one solver over all instances."""
    _check_solver(scenario, solver)
    total = math.fsum(
        par_instance(scenario.outcome(i, solver), lam, scenario.timeout_s)
        for i in scenario.instance_ids
    )
    return total / len(scenario.instance_ids)


@dataclass(frozen=True)
class SolvedRank:
    solver_id: str
    solved: int
    par1: float


def solved_ranking(scenario: Scenario) -> list[SolvedRank]:
    """Solvers ordered by solved count, then mean runtime, then id."""
    entries = [
        SolvedRank(
            s,
            sum(1 for i in scenario.instance_ids if scenario.outcome(i, s).status is RunStatus.SOLVED),
            par_score(scenario, s, 1.0),
        )
        for s in scenario.solvers
    ]
    entries.sort(key=lambda e: (-e.solved, e.par1, e.solver_id))
    return entries


def threshold_ms(delta: float) -> int:
    """The tie threshold on the millisecond grid; rejects negative and non-finite values."""
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be a finite number >= 0, got {delta}")
    return round(delta * 1000.0)


def _pair_entries(
    decision: bool,
    timeout_s: float,
    t: float,
    obj: float,
    opponents: Sequence[tuple[float, float]],
) -> list[tuple[float, int | None]]:
    """Pairwise entries of run (t, obj) against each opponent run (t2, obj2).

    An entry is the value outside the tie branch plus, for a tie-eligible
    pair (past the first two branches, objectives equal), the absolute time
    difference in milliseconds; otherwise None.
    """
    # A solver knows nothing about a decision instance it timed out on, or an
    # optimization instance it found no solution for.
    if (t >= timeout_s) if decision else math.isinf(obj):
        return [(0.0, None)] * len(opponents)
    t_ms = time_to_ms(t)
    entries: list[tuple[float, int | None]] = []
    for t2, obj2 in opponents:
        # Strictly better: finished while the other side hit the timeout, or
        # found a strictly better objective value.
        if (t2 < t and t == timeout_s) or obj2 < obj:
            entries.append((0.0, None))
        elif (t < t2 and t2 == timeout_s) or obj < obj2:
            entries.append((1.0, None))
        else:
            denom = t + t2
            value = 0.5 if denom == 0.0 else t2 / denom
            entries.append((value, abs(t_ms - time_to_ms(t2)) if obj == obj2 else None))
    return entries


def _run_table(scenario: Scenario) -> list[tuple[bool, list[tuple[float, float]]]]:
    """Per instance: whether it is a decision instance, and each solver's (time, objective)."""
    order = scenario.solvers
    return [
        (
            inst.kind is InstanceKind.DECISION,
            [(r.time_s, r.obj) for r in (scenario.outcomes[(inst.id, s)] for s in order)],
        )
        for inst in scenario.instances
    ]


def _pair_rows(
    scenario: Scenario, table: list[tuple[bool, list[tuple[float, float]]]], solver: str
) -> Iterator[list[tuple[float, int | None]]]:
    """The solver's pair entries, one list per instance, made one at a time.

    Rows follow the scenario's instance order, and entries its solver order
    without the solver itself. Only the tie branch depends on delta, so the
    rows serve every threshold; see _pair_entries for what an entry holds.
    """
    tau = scenario.timeout_s
    k = scenario.solvers.index(solver)
    for decision, runs in table:
        yield _pair_entries(decision, tau, *runs[k], runs[:k] + runs[k + 1 :])


def _pair_values(entries: Sequence[tuple[float, int | None]], delta_ms: int) -> list[float]:
    """Entry values at a tie threshold given in integer milliseconds."""
    return [0.5 if d is not None and d <= delta_ms else v for v, d in entries]


# Every finite double is an integer multiple of 2**-1074, so sums kept as ints
# in that unit are exact, and int true division rounds them correctly: the
# same float math.fsum returns for the same values.
_EXACT_UNIT = 1 << 1074


def _exact(x: float) -> int:
    n, d = x.as_integer_ratio()  # d is a power of two
    return n << (1075 - d.bit_length())


def mznc_pair(
    scenario: Scenario,
    instance_id: str,
    solver: str,
    opponent: str,
    delta: float = 0.0,
) -> float:
    """Pairwise score of solver against opponent on one instance.

    Branch order: 0 when the solver knows nothing or the opponent is strictly
    better; 1 when the solver is strictly better; 0.5 when run times agree
    within delta and objectives are equal; otherwise the opponent's share of
    the summed runtimes. delta is interpreted on the millisecond grid, and
    delta = 0 demands exact time equality for the tie branch.
    """
    if solver == opponent:
        raise SameSolver("a solver cannot be scored against itself")
    _check_solver(scenario, solver)
    _check_solver(scenario, opponent)
    delta_ms = threshold_ms(delta)
    decision = scenario.instance(instance_id).kind is InstanceKind.DECISION
    run, other = scenario.outcome(instance_id, solver), scenario.outcome(instance_id, opponent)
    entries = _pair_entries(
        decision, scenario.timeout_s, run.time_s, run.obj, [(other.time_s, other.obj)]
    )
    return _pair_values(entries, delta_ms)[0]


def mznc_score(scenario: Scenario, solver: str, delta: float = 0.0) -> float:
    """Total pairwise score of a solver against every opponent on every instance."""
    if len(scenario.solvers) < 2:
        raise SingleSolverScenario("pairwise scoring needs at least two solvers")
    _check_solver(scenario, solver)
    delta_ms = threshold_ms(delta)
    rows = _pair_rows(scenario, _run_table(scenario), solver)
    return math.fsum(v for row in rows for v in _pair_values(row, delta_ms))


def mznc_scores(
    scenario: Scenario, solvers: Sequence[str], deltas: Sequence[float]
) -> dict[str, list[float]]:
    """mznc_score of each solver at each threshold of deltas, bit for bit.

    One pass per solver: every tie-eligible pair starts in the tie branch,
    and walking the thresholds downward, a pair leaves it once its time
    difference exceeds the threshold. The total is kept exact (see
    _EXACT_UNIT) and rounded once per threshold.
    """
    deltas_ms = [threshold_ms(d) for d in deltas]
    descending = sorted(range(len(deltas_ms)), key=deltas_ms.__getitem__, reverse=True)
    half = _exact(0.5)
    table = _run_table(scenario)
    scores: dict[str, list[float]] = {}
    for s in solvers:
        total = 0
        leaving = []  # (time difference, value outside the tie)
        for row in _pair_rows(scenario, table, s):
            for value, diff in row:
                if diff is None:
                    total += _exact(value)
                else:
                    total += half
                    leaving.append((diff, value))
        leaving.sort(reverse=True)
        at = [0.0] * len(deltas_ms)
        pos = 0
        for n in descending:
            while pos < len(leaving) and leaving[pos][0] > deltas_ms[n]:
                total += _exact(leaving[pos][1]) - half
                pos += 1
            at[n] = total / _EXACT_UNIT
        scores[s] = at
    return scores


def normalized_runtime_score(scenario: Scenario, solver: str) -> float:
    """One minus the mean fraction of the timeout the solver consumed."""
    _check_solver(scenario, solver)
    used = math.fsum(
        scenario.time(i, solver) / scenario.timeout_s for i in scenario.instance_ids
    )
    return 1.0 - used / len(scenario.instance_ids)


def speedup_score(
    scenario: Scenario,
    solver_times: Mapping[str, float],
    vbs_times: Mapping[str, float],
) -> float:
    """Mean per-instance ratio of the reference (virtual best) time to the solver's time.

    A 0/0 ratio counts as 1 (both finished instantly); a positive reference
    time against a zero solver time yields +inf.
    """
    ratios = []
    for i in scenario.instance_ids:
        v, t = vbs_times[i], solver_times[i]
        if t == 0.0:
            ratios.append(1.0 if v == 0.0 else math.inf)
        else:
            ratios.append(v / t)
    return math.fsum(ratios) / len(ratios)


def closed_gap(m_solver: float, m_sbs: float, m_vbs: float) -> float:
    """Fraction of the single-best-to-virtual-best gap the solver closes.

    1 means performing like the virtual best, 0 like the single best;
    negative values mean worse than the single best.
    """
    if not m_sbs > m_vbs:
        raise DegenerateGap(
            f"single best ({m_sbs}) must be strictly worse than virtual best ({m_vbs})"
        )
    return (m_sbs - m_solver) / (m_sbs - m_vbs)


def ratio_score(instance: Instance, outcome: RunOutcome) -> float:
    """Best known objective divided by the objective the solver reached.

    0 when the solver found no solution. Requires strictly positive
    objectives and a resolved best_known_obj on the instance.
    """
    if instance.kind is not InstanceKind.OPTIMIZATION:
        raise ValueError("ratio_score applies to optimization instances only")
    if instance.best_known_obj is None:
        raise ValueError("ratio_score needs a resolved best_known_obj")
    if math.isinf(outcome.obj):
        return 0.0
    if instance.best_known_obj <= 0 or outcome.obj <= 0:
        raise NonPositiveObjective(
            "ratio_score needs strictly positive objectives; shift the objective scale"
        )
    return min(1.0, instance.best_known_obj / outcome.obj)


def _norm_obj(v: float, best: float, worst: float) -> float:
    if worst == best:
        return 0.0 if v <= best else 1.0
    return min(1.0, max(0.0, (v - best) / (worst - best)))


def area_score(
    instance: Instance,
    trajectory: Trajectory,
    bounds: tuple[float, float],
    timeout_s: float,
) -> float:
    """Normalized area under the solution-quality step function; lower is better.

    Quality is 1 before the first solution, the incumbent objective scaled
    into [0, 1] by the given (best, worst) bounds afterwards, and 0 from the
    moment optimality was proven.
    """
    if instance.kind is not InstanceKind.OPTIMIZATION:
        raise ValueError("area_score applies to optimization instances only")
    best, worst = bounds
    if not (math.isfinite(best) and math.isfinite(worst) and best <= worst):
        raise BadBounds(f"bounds must be finite with best <= worst, got {bounds!r}")
    if not trajectory.events:
        return 1.0
    pieces = []
    first_t = trajectory.events[0][0]
    pieces.append(first_t * 1.0)
    end = trajectory.proved_optimal_at if trajectory.proved_optimal_at is not None else timeout_s
    for idx, (t, v) in enumerate(trajectory.events):
        nxt = trajectory.events[idx + 1][0] if idx + 1 < len(trajectory.events) else end
        pieces.append((nxt - t) * _norm_obj(v, best, worst))
    # The proven-optimal stretch contributes zero area.
    return math.fsum(pieces) / timeout_s


def bounded_reward_score(
    instance: Instance,
    outcome: RunOutcome,
    pool_best: float,
    pool_worst: float,
    alpha: float,
    beta: float,
) -> float:
    """Reward in {0} | [alpha, beta] | {1}.

    0 without a solution, 1 when solved to proven optimality, otherwise a
    linear interpolation between alpha (pool-worst objective) and beta
    (pool-best objective).
    """
    if not (0.0 <= alpha <= beta <= 1.0):
        raise BadAlphaBeta(f"need 0 <= alpha <= beta <= 1, got alpha={alpha}, beta={beta}")
    if instance.kind is not InstanceKind.OPTIMIZATION:
        raise ValueError("bounded_reward_score applies to optimization instances only")
    if not pool_best <= pool_worst:
        raise ValueError("pool_best must not exceed pool_worst")
    if math.isinf(outcome.obj):
        return 0.0
    if outcome.status is RunStatus.SOLVED:
        return 1.0
    if pool_best == pool_worst:
        return beta
    frac = (pool_worst - outcome.obj) / (pool_worst - pool_best)
    return alpha + (beta - alpha) * min(1.0, max(0.0, frac))


def _area_row(
    scenario: Scenario, inst: Instance, runs: list[RunOutcome], params: MetricParams
) -> list[float]:
    # No objective scale to integrate against when nobody found a solution.
    best = resolve_best_known(scenario, inst.id)
    pool = obj_pool(scenario, inst.id)
    if best is None or pool is None:
        return [0.0] * len(runs)
    bounds = (min(best, pool[0]), pool[1])
    row = []
    for s, out in zip(scenario.solvers, runs):
        traj = scenario.trajectory(inst.id, s)
        if traj is None:
            if not math.isinf(out.obj):
                raise MissingTrajectory(
                    f"area needs a trajectory for ({inst.id}, {s}); none was recorded"
                )
            traj = Trajectory()
        row.append(area_score(inst, traj, bounds, scenario.timeout_s))
    return row


def _ratio_row(
    scenario: Scenario, inst: Instance, runs: list[RunOutcome], params: MetricParams
) -> list[float]:
    best = resolve_best_known(scenario, inst.id)
    if best is None:
        return [0.0] * len(runs)
    resolved = replace(inst, best_known_obj=best)
    return [ratio_score(resolved, out) for out in runs]


def _reward_row(
    scenario: Scenario, inst: Instance, runs: list[RunOutcome], params: MetricParams
) -> list[float]:
    pool = obj_pool(scenario, inst.id)
    if pool is None:
        return [0.0] * len(runs)
    return [
        bounded_reward_score(inst, out, pool[0], pool[1], params.alpha, params.beta)
        for out in runs
    ]


def _mznc_row(
    scenario: Scenario, inst: Instance, runs: list[RunOutcome], params: MetricParams
) -> list[float]:
    # Each solver's pairwise score on the instance: its sum over the opponents.
    delta_ms = threshold_ms(params.delta)
    decision = inst.kind is InstanceKind.DECISION
    pairs = [(out.time_s, out.obj) for out in runs]
    rows = (
        _pair_entries(decision, scenario.timeout_s, *pairs[k], pairs[:k] + pairs[k + 1 :])
        for k in range(len(pairs))
    )
    return [math.fsum(_pair_values(row, delta_ms)) for row in rows]


def _speedup_row(
    scenario: Scenario, inst: Instance, runs: list[RunOutcome], params: MetricParams
) -> list[float]:
    vbs = min(out.time_s for out in runs)
    return [1.0 if out.time_s == 0.0 else vbs / out.time_s for out in runs]


# Per-instance value of every solver, from that instance's runs alone.
_ROWS = {
    "par": lambda sc, inst, runs, p: [par_instance(out, p.lam, sc.timeout_s) for out in runs],
    "runtime": lambda sc, inst, runs, p: [out.time_s for out in runs],
    "solved-count": lambda sc, inst, runs, p: [
        1.0 if out.status is RunStatus.SOLVED else 0.0 for out in runs
    ],
    "normalized-runtime": lambda sc, inst, runs, p: [
        1.0 - out.time_s / sc.timeout_s for out in runs
    ],
    "speedup": _speedup_row,
    "mznc": _mznc_row,
    "ratio": _ratio_row,
    "area": _area_row,
    "bounded-reward": _reward_row,
}


# One column per solver, indexed by instance position; see instance_columns.
Columns = dict[str, tuple[float | None, ...]]


def instance_columns(
    scenario: Scenario, metric_id: str, params: MetricParams | None = None
) -> Columns:
    """Per-instance values of a metric, one column per solver.

    Entry p of a column is the solver's value on the instance at position p
    of the scenario's instance order; metrics that need optimization data
    hold None at decision instances. Every value depends on its own
    instance's runs only, so the values of any subset of instances (a fold)
    are the ones a copy of the scenario restricted to it would give. Closed
    gap has no per-instance values; its baselines read base_columns.
    """
    params = params or MetricParams()
    info = metric_info(metric_id)
    if metric_id == "closed-gap":
        raise NonDecomposableMetric("closed gap is scored from its base metric's columns")
    if metric_id == "mznc" and len(scenario.solvers) < 2:
        raise SingleSolverScenario("pairwise scoring needs at least two solvers")
    row = _ROWS[metric_id]
    solvers, outcomes = scenario.solvers, scenario.outcomes
    skip = (None,) * len(solvers)
    rows = [
        skip
        if info.optimization_only and inst.kind is InstanceKind.DECISION
        else row(scenario, inst, [outcomes[(inst.id, s)] for s in solvers], params)
        for inst in scenario.instances
    ]
    return dict(zip(solvers, zip(*rows)))


def valued(columns: Columns, at: Iterable[int]) -> list[int]:
    """The positions of at where the columns hold a value."""
    first = next(iter(columns.values()))
    return [p for p in at if first[p] is not None]


def base_columns(scenario: Scenario, base_metric: str, lam: float = 10.0) -> Columns:
    """instance_columns of a metric that can anchor virtual/single best baselines.

    Only per-instance, lower-is-better metrics can: par, raw runtime, and area.
    """
    info = METRICS.get(base_metric)
    if info is None or not info.decomposable_base:
        raise NonDecomposableMetric(
            f"{base_metric!r} cannot anchor baselines; it has no per-instance, "
            "lower-is-better decomposition"
        )
    return instance_columns(scenario, base_metric, MetricParams(lam=lam))


def area_instance_values(scenario: Scenario) -> dict[tuple[str, str], float]:
    """Area score per (solver, optimization instance).

    Instances where no solver found any solution score 0 for everyone, since
    there is no objective scale to integrate against.
    """
    columns = instance_columns(scenario, "area")
    return {
        (s, iid): columns[s][scenario.position_map[iid]]
        for iid in scenario.optimization_ids
        for s in scenario.solvers
    }


def base_instance_values(
    scenario: Scenario, base_metric: str, lam: float = 10.0
) -> dict[tuple[str, str], float]:
    """Per-(solver, instance) values of a metric that can anchor baselines (base_columns)."""
    return {
        (s, iid): v
        for s, column in base_columns(scenario, base_metric, lam).items()
        for iid, v in zip(scenario.instance_ids, column)
        if v is not None
    }
