"""Performance metrics for solver runs.

Implements the penalized-average-runtime family (PAR), the MiniZinc-challenge
style pairwise Borda score (here "mznc") with a configurable time-equivalence
threshold delta, closed gap relative to the virtual/single best solver,
speedup over the virtual best solver, normalized runtime, and three
optimization-quality scores (ratio, area, bounded reward).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    BadAlphaBeta,
    BadLambda,
    DegenerateGap,
    MissingTrajectory,
    NonDecomposableMetric,
    NonPositiveObjective,
    SingleSolverScenario,
)
from .scenario import (
    Direction, InstanceKind, RunStatus, Scenario, _require_pair, require_solvers,
)

__all__ = [
    "Columns",
    "MetricInfo",
    "MetricParams",
    "METRICS",
    "SbsPolicy",
    "Split",
    "base_columns",
    "base_instance_values",
    "closed_gap",
    "delta_sweep",
    "find_flip_delta",
    "instance_columns",
    "metric_info",
    "mznc_pair",
    "mznc_score",
    "normalized_runtime_score",
    "par_score",
    "read_split",
]


@dataclass(frozen=True)
class MetricParams:
    """Named parameters a metric may take; unused fields are ignored."""

    lam: float = 10.0
    delta: float = 0.0
    alpha: float = 0.25
    beta: float = 0.75
    base_metric: str = "par"


class SbsPolicy(str, Enum):
    """Which instances pick a closed gap's single best solver (see harness.evaluate)."""

    TRAIN_SPLIT = "train_split"
    TEST_SPLIT = "test_split"
    FULL_DATASET = "full_dataset"


# One column per solver, indexed by instance position; see instance_columns.
Columns = dict[str, Sequence[float | None]]

# Reading an enum member off its class is slow, so the column builders read it here.
_SOLVED = RunStatus.SOLVED


@dataclass(frozen=True)
class MetricInfo:
    """One metric: everything scoring, ranking and reporting it needs (see METRICS).

    columns builds the per-instance columns (instance_columns); a solver's
    score is their sum when summed, else their mean. report_params gives the
    parameters a score table carries, from the metric parameters and the SBS
    policy's value. A baselines metric is scored against the virtual and
    single best of its base metric, whose columns it builds instead.
    """

    metric_id: str
    direction: Direction
    columns: Callable[[Scenario, MetricParams], Columns]
    summed: bool = False
    report_params: Callable[[MetricParams, str], dict[str, object]] = lambda p, _: {}
    baselines: bool = False

    @property
    def decomposable_base(self) -> bool:  # can anchor baselines: par, runtime and area
        return self.direction is Direction.LOWER and not self.baselines


def metric_info(metric_id: str) -> MetricInfo:
    try:
        return METRICS[metric_id]
    except KeyError:
        raise ValueError(f"unknown metric {metric_id!r}") from None


def _par_column(times: Sequence[float], lam: float, timeout_s: float) -> list[float]:
    """Penalized runtimes: each time that beat the timeout, else lam * timeout.

    Refuses a lam whose penalty is not finite, or whose penalties on all n
    instances would sum past the largest float: then no total of the column
    can overflow halfway through scoring.
    """
    if not lam >= 1.0:
        raise BadLambda(f"penalty factor must be >= 1, got {lam}")
    penalty = lam * timeout_s
    if not math.isfinite(penalty):
        raise BadLambda(f"penalty lambda * timeout_s must be finite, got lambda={lam} "
                        f"and timeout_s={timeout_s}")
    n = len(times)
    if not math.isfinite(penalty * n):
        raise BadLambda(f"penalty lambda * timeout_s on all n instances must sum to a finite "
                        f"number, got lambda={lam}, timeout_s={timeout_s} and n={n}")
    return [t if t < timeout_s else penalty for t in times]


def par_score(scenario: Scenario, solver: str, lam: float) -> float:
    """Mean penalized runtime of one solver over all instances."""
    require_solvers(scenario, (solver,))
    total = math.fsum(_par_column(scenario.outcomes.times[solver], lam, scenario.timeout_s))
    return total / len(scenario.instance_ids)


def threshold_ms(delta: float) -> int:
    """The tie threshold on the millisecond grid; rejects a delta < 0 or with no finite ms count."""
    if not 0.0 <= delta * 1000.0 < math.inf:
        raise ValueError(f"delta must be a finite number >= 0, got {delta}")
    return round(delta * 1000.0)


def _pair_entries(
    decision: bool,
    timeout_s: float,
    run: tuple[float, int, float],
    opponents: Sequence[tuple[float, int, float]],
) -> list[tuple[float, int | None]]:
    """Pairwise entries of a run (time, ms, obj) against each opponent run.

    An entry is the value outside the tie branch plus, for a tie-eligible
    pair (past the first two branches, objectives equal), the absolute time
    difference in milliseconds; otherwise None.
    """
    t, t_ms, obj = run
    # A solver knows nothing about a decision instance it timed out on, or an
    # optimization instance it found no solution for.
    if (t >= timeout_s) if decision else math.isinf(obj):
        return [(0.0, None)] * len(opponents)
    entries: list[tuple[float, int | None]] = []
    for t2, ms2, obj2 in opponents:
        # Strictly better: finished while the other side hit the timeout, or
        # found a strictly better objective value.
        if (t2 < t and t == timeout_s) or obj2 < obj:
            entries.append((0.0, None))
        elif (t < t2 and t2 == timeout_s) or obj < obj2:
            entries.append((1.0, None))
        else:
            denom = t + t2
            value = 0.5 if denom == 0.0 else t2 / denom
            entries.append((value, abs(t_ms - ms2) if obj == obj2 else None))
    return entries


def _require_opponents(scenario: Scenario) -> None:
    if len(scenario.solvers) < 2:
        raise SingleSolverScenario("pairwise scoring needs at least two solvers")


def _pair_rows(scenario: Scenario, solver: str) -> Iterator[list[tuple[float, int | None]]]:
    """The solver's pair entries, one list per instance, made one at a time.

    Rows follow the scenario's instance order, and entries its solver order
    without the solver itself; each run is read off the store's times, ms
    and objs columns. Only the tie branch depends on delta, so the rows
    serve every threshold; see _pair_entries for what an entry holds.
    """
    runs, decision = scenario.outcomes, InstanceKind.DECISION
    columns = {s: zip(runs.times[s], runs.ms[s], runs.objs[s]) for s in scenario.solvers}
    own = columns.pop(solver)
    kinds = (inst.kind is decision for inst in scenario.instances)
    return map(_pair_entries, kinds, repeat(scenario.timeout_s), own, zip(*columns.values()))


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
    _require_pair(scenario, solver, opponent)
    delta_ms = threshold_ms(delta)
    p, runs = scenario.position(instance_id), scenario.outcomes
    run, other = ((runs.times[s][p], runs.ms[s][p], runs.objs[s][p]) for s in (solver, opponent))
    decision = scenario.instances[p].kind is InstanceKind.DECISION
    return _pair_values(_pair_entries(decision, scenario.timeout_s, run, [other]), delta_ms)[0]


def mznc_score(scenario: Scenario, solver: str, delta: float = 0.0) -> float:
    """Total pairwise score of a solver against every opponent on every instance."""
    return mznc_scores(scenario, (solver,), (delta,))[solver][0]


def _terms(scenario: Scenario, solver: str) -> tuple[list[int], list[tuple[int, int, float]]]:
    """A solver's pairwise terms: its exact sum over the opponents per instance (see
    _EXACT_UNIT), with every tie-eligible pair counted as a tie, and those pairs as
    (time difference, instance position, value outside the tie), largest difference first."""
    half, sums, ties = _exact(0.5), [], []
    for p, row in enumerate(_pair_rows(scenario, solver)):
        exact = 0
        for value, diff in row:
            if diff is None:
                exact += _exact(value)
            else:
                exact += half
                ties.append((diff, p, value))
        sums.append(exact)
    ties.sort(reverse=True)
    return sums, ties


def _totals(
    sums: list[int], ties: list[tuple[int, int, float]], deltas_ms: list[int]
) -> list[float]:
    """A solver's total pairwise score at each threshold of deltas_ms, from its _terms.

    Walking the thresholds downward, a tie pair leaves the tie branch once
    its time difference exceeds the threshold. Each instance's exact sum is
    rounded, which is its mznc column value: at a threshold, once for every
    instance a pair left from, after all its pairs that leave there. The
    total is the exact sum of those rounded values, rounded once per
    threshold. So it is the math.fsum of the column, the float that scoring
    mznc gives.
    """
    sums, half = list(sums), _exact(0.5)
    rounded = [_exact(e / _EXACT_UNIT) for e in sums]
    total, pos, at = sum(rounded), 0, [0.0] * len(deltas_ms)
    for n in sorted(range(len(deltas_ms)), key=deltas_ms.__getitem__, reverse=True):
        touched = set()
        while pos < len(ties) and ties[pos][0] > deltas_ms[n]:
            _, p, value = ties[pos]
            sums[p] += _exact(value) - half
            touched.add(p)
            pos += 1
        for p in touched:
            now = _exact(sums[p] / _EXACT_UNIT)
            total += now - rounded[p]
            rounded[p] = now
        at[n] = total / _EXACT_UNIT
    return at


def mznc_scores(
    scenario: Scenario, solvers: Sequence[str], deltas: Sequence[float]
) -> dict[str, list[float]]:
    """Total pairwise score of each solver at each threshold of deltas (_totals)."""
    _require_opponents(scenario)
    require_solvers(scenario, solvers)
    deltas_ms = [threshold_ms(d) for d in deltas]
    return {s: _totals(*_terms(scenario, s), deltas_ms) for s in solvers}


def delta_sweep(
    scenario: Scenario,
    deltas: Sequence[float],
    solvers: Sequence[str] | None = None,
) -> dict[float, dict[str, float]]:
    """Pairwise scores of the chosen solvers at each time-equivalence threshold."""
    if list(deltas) != sorted(deltas):
        raise ValueError("deltas must be sorted ascending")
    chosen = tuple(dict.fromkeys(solvers)) if solvers is not None else scenario.solvers
    scores = mznc_scores(scenario, chosen, deltas)
    return {float(d): {s: scores[s][n] for s in chosen} for n, d in enumerate(deltas)}


def find_flip_delta(scenario: Scenario, solver_a: str, solver_b: str) -> float | None:
    """Smallest threshold from which solver_a outscores solver_b for every larger one.

    A total only changes at a threshold equal to the time difference of one
    of its solver's tie pairs, so scanning 0 and those differences is
    exhaustive. Returns None if solver_a never stays ahead.
    """
    _require_pair(scenario, solver_a, solver_b)
    terms = [_terms(scenario, s) for s in (solver_a, solver_b)]
    candidates = sorted({0, *(d for _, ties in terms for d, _, _ in ties)})
    flip: float | None = None
    for d, a, b in reversed(list(zip(candidates, *[_totals(*t, candidates) for t in terms]))):
        if not a > b:
            break
        flip = d / 1000.0
    return flip


def normalized_runtime_score(scenario: Scenario, solver: str) -> float:
    """Mean over instances of one minus the fraction of the timeout the solver consumed."""
    require_solvers(scenario, (solver,))
    column = _normalized_columns(scenario, MetricParams())[solver]
    return math.fsum(column) / len(column)


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


def _par_columns(scenario: Scenario, params: MetricParams) -> Columns:
    times = scenario.outcomes.times
    return {s: _par_column(col, params.lam, scenario.timeout_s) for s, col in times.items()}


def _solved_columns(scenario: Scenario, params: MetricParams) -> Columns:
    return {s: [1.0 if st is _SOLVED else 0.0 for st in col]
            for s, col in scenario.outcomes.statuses.items()}


def _normalized_columns(scenario: Scenario, params: MetricParams) -> Columns:
    tau = scenario.timeout_s
    return {s: [1.0 - t / tau for t in col] for s, col in scenario.outcomes.times.items()}


def _speedup_columns(scenario: Scenario, params: MetricParams) -> Columns:
    """Per instance, the virtual best time over the solver's time; 0/0 counts as 1."""
    times = scenario.outcomes.times
    vbs = [min(row) for row in zip(*times.values())]
    return {s: [1.0 if t == 0.0 else v / t for v, t in zip(vbs, col)] for s, col in times.items()}


def _mznc_columns(scenario: Scenario, params: MetricParams) -> Columns:
    """Each solver's pairwise score on an instance: its sum over the opponents."""
    _require_opponents(scenario)
    delta_ms = threshold_ms(params.delta)
    return {
        s: [math.fsum(_pair_values(row, delta_ms)) for row in _pair_rows(scenario, s)]
        for s in scenario.solvers
    }


def _optimization(scenario: Scenario) -> list[bool]:
    optimization = InstanceKind.OPTIMIZATION
    return [inst.kind is optimization for inst in scenario.instances]


def _ratio_columns(scenario: Scenario, params: MetricParams) -> Columns:
    """Best known objective over the solver's, at most 1.

    0 where the solver found no solution or no best is known. Wherever
    both are known, both must be strictly positive.
    """
    opt, (pools, bests) = _optimization(scenario), scenario.objective_columns
    # An instance where some solver found a solution has a best known value.
    if any(o and pool and (b <= 0 or pool[0] <= 0) for o, pool, b in zip(opt, pools, bests)):
        raise NonPositiveObjective(
            "ratio needs strictly positive objectives; shift the objective scale"
        )
    isinf = math.isinf
    return {
        s: [
            None if not o else 0.0 if b is None or isinf(v) else min(1.0, b / v)
            for o, v, b in zip(opt, col, bests)
        ]
        for s, col in scenario.outcomes.objs.items()
    }


def _reward_columns(scenario: Scenario, params: MetricParams) -> Columns:
    """Reward in {0} | [alpha, beta] | {1}.

    0 without a solution, 1 when solved to proven optimality, otherwise a
    linear interpolation between alpha (the pool's worst objective) and
    beta (its best). The pool is the instance's final objectives over all
    solvers.
    """
    statuses, objs = scenario.outcomes.statuses, scenario.outcomes.objs
    opt, pools = _optimization(scenario), scenario.objective_columns[0]
    alpha, beta, isinf = params.alpha, params.beta, math.isinf
    if not 0.0 <= alpha <= beta <= 1.0 and any(o and pool for o, pool in zip(opt, pools)):
        raise BadAlphaBeta(f"need 0 <= alpha <= beta <= 1, got alpha={alpha}, beta={beta}")
    return {
        s: [
            None if not o else 0.0 if pool is None or isinf(v) else 1.0 if st is _SOLVED
            else beta if pool[0] == pool[1]
            else alpha + (beta - alpha) * min(1.0, max(0.0, (pool[1] - v) / (pool[1] - pool[0])))
            for o, v, st, pool in zip(opt, col, statuses[s], pools)
        ]
        for s, col in objs.items()
    }


def _area_columns(scenario: Scenario, params: MetricParams) -> Columns:
    """Normalized area under each run's solution-quality step function; lower is better.

    Quality is 1 before the first solution, the incumbent objective scaled
    into [0, 1] by the instance's bounds (best, worst) until the run ends,
    and 0 after a solved run's time, when optimality was proven. A run without
    a solution has quality 1 throughout; one with a solution needs its trajectory.
    """
    # No objective scale to integrate against when nobody found a solution.
    opt, (pools, bests) = _optimization(scenario), scenario.objective_columns
    bounded = [(p, min(b, pool[0]), pool[1])
               for p, (o, pool, b) in enumerate(zip(opt, pools, bests)) if o and pool]
    runs, tr, tau, columns = scenario.outcomes, scenario.trajectories, scenario.timeout_s, {}
    for s, col in runs.objs.items():
        times, objs, offsets, ends = tr.times[s], tr.objs[s], tr.offsets[s], runs.times[s]
        column = columns[s] = [None if not o else 0.0 for o in opt]
        for p, best, worst in bounded:
            a, b = offsets[p], offsets[p + 1]
            if a == b:
                if not math.isinf(col[p]):
                    raise MissingTrajectory(f"area needs a trajectory for "
                                            f"({scenario.instance_ids[p]}, {s}); none was recorded")
                column[p] = 1.0
                continue
            # Quality 1 up to the first event: the area's first piece is that event's time.
            t, e = times[a], a
            pieces = None if b - a == 1 else [t]
            while True:
                # The incumbent, scaled into [0, 1] by the bounds, up to the next event.
                v = objs[e]
                if worst == best:
                    quality = 0.0 if v <= best else 1.0
                else:
                    x = (v - best) / (worst - best)
                    quality = 1.0 if x > 1.0 else x if x > 0.0 else 0.0
                e += 1
                if e == b:
                    break
                nxt = times[e]
                pieces.append((nxt - t) * quality)
                t = nxt
            # The last incumbent holds until the run ends; the proven-optimal stretch after
            # a solved run's time adds no area.
            piece = (ends[p] - t) * quality
            if pieces is None:  # fsum([t, piece]) is t + piece: both round the exact sum once
                column[p] = (t + piece) / tau
            else:
                pieces.append(piece)
                column[p] = math.fsum(pieces) / tau
    return columns


def _gap_params(params: MetricParams, sbs_policy: str) -> dict[str, object]:
    base = METRICS[params.base_metric].report_params(params, sbs_policy)
    return {"base_metric": params.base_metric, "sbs_policy": sbs_policy, **base}


# The metrics, each defined by its entry alone.
METRICS: dict[str, MetricInfo] = {
    m.metric_id: m
    for m in (
        MetricInfo("par", Direction.LOWER, _par_columns,
                   report_params=lambda p, _: {"lambda": p.lam}),
        MetricInfo("runtime", Direction.LOWER, lambda sc, _: dict(sc.outcomes.times)),
        MetricInfo("solved-count", Direction.HIGHER, _solved_columns, summed=True),
        MetricInfo("mznc", Direction.HIGHER, _mznc_columns, summed=True,
                   report_params=lambda p, _: {"delta": p.delta}),
        MetricInfo("normalized-runtime", Direction.HIGHER, _normalized_columns),
        MetricInfo("speedup", Direction.HIGHER, _speedup_columns),
        MetricInfo("closed-gap", Direction.HIGHER,
                   lambda sc, p: base_columns(sc, p.base_metric, p.lam),
                   report_params=_gap_params, baselines=True),
        MetricInfo("ratio", Direction.HIGHER, _ratio_columns),
        MetricInfo("area", Direction.LOWER, _area_columns),
        MetricInfo("bounded-reward", Direction.HIGHER, _reward_columns,
                   report_params=lambda p, _: {"alpha": p.alpha, "beta": p.beta}),
    )
}


def instance_columns(
    scenario: Scenario, metric_id: str, params: MetricParams | None = None
) -> Columns:
    """Per-instance values of a metric, one column per solver.

    Entry p of a column is the solver's value on the instance at position p
    of the scenario's instance order; metrics that need optimization data
    hold None at decision instances. Each column is one pass over the
    scenario's run store, outcomes (and objective_columns, which the
    optimization metrics share); an mznc column zips its solver's times, ms
    and objs with every opponent's, one instance at a time. Every value
    depends on its own instance's runs only, so the values of any subset of
    instances (a fold) are the ones a copy of the scenario restricted to it
    would give. Closed gap has no per-instance values; its baselines read
    base_columns.
    """
    params = params or MetricParams()
    info = metric_info(metric_id)
    if info.baselines:
        raise NonDecomposableMetric(f"{metric_id} is scored from its base metric's columns")
    return info.columns(scenario, params)


@dataclass
class Split:
    """A split of a metric's columns, read once: the positions where they hold a value, in
    the order given, and each solver's values there (read_split)."""

    at: list[int]
    values: dict[str, list[float]]

    @cached_property
    def sums(self) -> dict[str, float]:
        """Each solver's values summed in floats, not exactly: taken on first read, once per
        split, for the closed gap's filtered single-best pick (baselines._sbs)."""
        return {s: sum(values) for s, values in self.values.items()}


def read_split(columns: Columns, at: Iterable[int]) -> Split:
    """The split of columns at the positions of at, skipping those without a value."""
    first = next(iter(columns.values()))
    at = [p for p in at if first[p] is not None]
    return Split(at, {s: list(map(column.__getitem__, at)) for s, column in columns.items()})


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
