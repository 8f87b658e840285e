"""Naive reference scoring, kept deliberately independent.

Everything here re-derives metric values from first principles with plain
loops over small scenarios. It intentionally shares no code with the metrics
module so the two can check each other; do not import from metrics, baselines,
or harness in this file.
"""

from __future__ import annotations

import math

from .errors import DegenerateGap, MissingTrajectory, TooLarge
from .scenario import InstanceKind, RunStatus, Scenario

__all__ = ["oracle_score"]

MAX_INSTANCES = 50
MAX_SOLVERS = 6


def _time(sc: Scenario, i: str, s: str) -> float:
    return sc.outcomes[(i, s)].time_s


def _obj(sc: Scenario, i: str, s: str) -> float:
    return sc.outcomes[(i, s)].obj


def _is_decision(sc: Scenario, i: str) -> bool:
    return sc.instance(i).kind is InstanceKind.DECISION


def _unknown(sc: Scenario, i: str, s: str) -> bool:
    if _is_decision(sc, i):
        return _time(sc, i, s) == sc.timeout_s
    return _obj(sc, i, s) == math.inf


def _better(sc: Scenario, i: str, s: str, s2: str) -> bool:
    if _time(sc, i, s) < _time(sc, i, s2) and _time(sc, i, s2) == sc.timeout_s:
        return True
    return _obj(sc, i, s) < _obj(sc, i, s2)


def _pair(sc: Scenario, i: str, s: str, s2: str, delta: float) -> float:
    if _unknown(sc, i, s) or _better(sc, i, s2, s):
        return 0.0
    if _better(sc, i, s, s2):
        return 1.0
    t, t2 = _time(sc, i, s), _time(sc, i, s2)
    within = abs(round(t * 1000) - round(t2 * 1000)) <= round(delta * 1000)
    if within and _obj(sc, i, s) == _obj(sc, i, s2):
        return 0.5
    return t2 / (t + t2)


def _par(sc: Scenario, i: str, s: str, lam: float) -> float:
    t = _time(sc, i, s)
    return t if t < sc.timeout_s else lam * sc.timeout_s


def _best_known(sc: Scenario, i: str) -> float | None:
    recorded = sc.instance(i).best_known_obj
    if recorded is not None:
        return recorded
    objs = [_obj(sc, i, s) for s in sc.solvers if _obj(sc, i, s) != math.inf]
    return min(objs) if objs else None


def _area_one(sc: Scenario, i: str, s: str, best: float, worst: float) -> float:
    traj = sc.trajectories.get((i, s))
    if traj is None:
        if _obj(sc, i, s) == math.inf:
            return 1.0
        raise MissingTrajectory(f"area needs a trajectory for ({i}, {s}); none was recorded")
    # The incumbent holds until the run ends: a solved run's is proven optimal from then on.
    end = _time(sc, i, s)
    marks = sorted({0.0, end, sc.timeout_s} | {t for t, _ in traj.events})
    total = 0.0
    for lo, hi in zip(marks, marks[1:]):
        mid = (lo + hi) / 2.0
        if mid >= end:
            u = 0.0
        else:
            incumbent = None
            for t, v in traj.events:
                if t <= mid:
                    incumbent = v
            if incumbent is None:
                u = 1.0
            elif worst == best:
                u = 0.0 if incumbent <= best else 1.0
            else:
                u = (incumbent - best) / (worst - best)
                u = max(0.0, min(1.0, u))
        total += (hi - lo) * u
    return total / sc.timeout_s


def _base_values(sc: Scenario, base: str, lam: float) -> dict[tuple[str, str], float]:
    vals: dict[tuple[str, str], float] = {}
    if base in ("par", "runtime"):
        for s in sc.solvers:
            for i in sc.instance_ids:
                vals[(s, i)] = _par(sc, i, s, lam) if base == "par" else _time(sc, i, s)
        return vals
    if base == "area":
        for i in sc.instance_ids:
            if _is_decision(sc, i):
                continue
            best = _best_known(sc, i)
            finite = [_obj(sc, i, s) for s in sc.solvers if _obj(sc, i, s) != math.inf]
            if best is None or not finite:
                for s in sc.solvers:
                    vals[(s, i)] = 0.0
                continue
            worst = max(finite)
            lo = min(best, min(finite))
            for s in sc.solvers:
                vals[(s, i)] = _area_one(sc, i, s, lo, worst)
        return vals
    raise ValueError(f"unsupported base metric {base!r}")


def oracle_score(
    scenario: Scenario,
    metric_id: str,
    solver: str,
    lam: float = 10.0,
    delta: float = 0.0,
    alpha: float = 0.25,
    beta: float = 0.75,
    base_metric: str = "par",
) -> float:
    """Reference score of one solver under one metric, by brute force."""
    if len(scenario.instance_ids) > MAX_INSTANCES or len(scenario.solvers) > MAX_SOLVERS:
        raise TooLarge(
            f"oracle handles at most {MAX_INSTANCES} instances and {MAX_SOLVERS} solvers"
        )
    sc = scenario
    ids = sc.instance_ids
    n = len(ids)

    if metric_id == "par":
        return sum(_par(sc, i, solver, lam) for i in ids) / n

    if metric_id == "runtime":
        return sum(_time(sc, i, solver) for i in ids) / n

    if metric_id == "solved-count":
        return float(sum(1 for i in ids if _time(sc, i, solver) < sc.timeout_s))

    if metric_id == "normalized-runtime":
        return 1.0 - sum(_time(sc, i, solver) / sc.timeout_s for i in ids) / n

    if metric_id == "mznc":
        total = 0.0
        for i in ids:
            for other in sc.solvers:
                if other != solver:
                    total += _pair(sc, i, solver, other, delta)
        return total

    if metric_id == "speedup":
        total = 0.0
        for i in ids:
            v = min(_time(sc, i, s) for s in sc.solvers)
            t = _time(sc, i, solver)
            total += 1.0 if (t == 0 and v == 0) else (math.inf if t == 0 else v / t)
        return total / n

    if metric_id == "closed-gap":
        vals = _base_values(sc, base_metric, lam)
        cols = sorted({i for (_, i) in vals})
        m_vbs = sum(min(vals[(s, i)] for s in sc.solvers) for i in cols)
        totals = {s: sum(vals[(s, i)] for i in cols) for s in sc.solvers}
        sbs = min(sc.solvers, key=lambda s: (totals[s], s))
        if not totals[sbs] > m_vbs:
            raise DegenerateGap("single best equals virtual best")
        return (totals[sbs] - totals[solver]) / (totals[sbs] - m_vbs)

    opt_ids = [i for i in ids if not _is_decision(sc, i)]
    if not opt_ids:
        raise ValueError(f"{metric_id} needs optimization instances")

    if metric_id == "ratio":
        total = 0.0
        for i in opt_ids:
            best = _best_known(sc, i)
            o = _obj(sc, i, solver)
            if best is None or o == math.inf:
                continue
            total += min(1.0, best / o)
        return total / len(opt_ids)

    if metric_id == "area":
        vals = _base_values(sc, "area", lam)
        return sum(vals[(solver, i)] for i in opt_ids) / len(opt_ids)

    if metric_id == "bounded-reward":
        total = 0.0
        for i in opt_ids:
            o = _obj(sc, i, solver)
            if o == math.inf:
                continue
            if sc.outcomes[(i, solver)].status is RunStatus.SOLVED:
                total += 1.0
                continue
            finite = [_obj(sc, i, s) for s in sc.solvers if _obj(sc, i, s) != math.inf]
            pool_best, pool_worst = min(finite), max(finite)
            if pool_best == pool_worst:
                total += beta
            else:
                frac = (pool_worst - o) / (pool_worst - pool_best)
                total += alpha + (beta - alpha) * max(0.0, min(1.0, frac))
        return total / len(opt_ids)

    raise ValueError(f"unknown metric {metric_id!r}")
