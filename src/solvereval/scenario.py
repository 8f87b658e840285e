"""Benchmark scenario data model.

A scenario is a set of instances, a set of solvers, a single timeout, and one
recorded run outcome per (instance, solver) pair. Optimization instances may
additionally carry objective trajectories (the incumbent values a solver found
over time). All run times are kept at millisecond resolution; an unsolved run
is stored with time equal to the timeout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import EmptyRestriction, UnknownInstance, ValidationError, Violation

__all__ = [
    "Direction",
    "Instance",
    "InstanceKind",
    "RunOutcome",
    "RunStatus",
    "Scenario",
    "ScoreTable",
    "Trajectory",
    "build_scenario",
    "obj_pool",
    "positions",
    "quantize_ms",
    "resolve_best_known",
    "restrict",
    "time_to_ms",
    "validate_scenario",
    "with_best_known",
]


class InstanceKind(str, Enum):
    DECISION = "decision"
    OPTIMIZATION = "optimization"


class RunStatus(str, Enum):
    SOLVED = "solved"
    TIMEOUT = "timeout"
    ERROR = "error"


class Direction(str, Enum):
    HIGHER = "higher_better"
    LOWER = "lower_better"


def quantize_ms(t: float) -> float:
    """Snap a time in seconds to the millisecond grid."""
    return round(t * 1000.0) / 1000.0


def time_to_ms(t: float) -> int:
    """Time in seconds to integer milliseconds (assumes a quantized input)."""
    return round(t * 1000.0)


@dataclass(frozen=True)
class Instance:
    id: str
    kind: InstanceKind = InstanceKind.DECISION
    best_known_obj: float | None = None


@dataclass(frozen=True)
class RunOutcome:
    """One recorded run. obj is +inf when no solution was found.

    For decision instances obj is always +inf. For optimization instances,
    status SOLVED means optimality was proven before the timeout.
    """

    time_s: float
    status: RunStatus
    obj: float = math.inf


@dataclass(frozen=True)
class Trajectory:
    """Incumbent objective values over time, as (time_s, obj) events.

    Events are strictly increasing in time and strictly decreasing in
    objective. proved_optimal_at, when present, marks the instant from which
    the incumbent is known optimal.
    """

    events: tuple[tuple[float, float], ...] = ()
    proved_optimal_at: float | None = None


@dataclass(frozen=True)
class ScoreTable:
    """Scores of one metric over one instance set.

    per_instance, when present, is keyed by (solver_id, instance_id) and
    per_solver is its declared aggregation over instances.
    """

    metric_id: str
    params: Mapping[str, object]
    per_solver: Mapping[str, float]
    direction: Direction
    per_instance: Mapping[tuple[str, str], float] | None = None
    aggregation: str | None = None


@dataclass(frozen=True)
class Scenario:
    id: str
    instances: tuple[Instance, ...]
    solvers: tuple[str, ...]
    timeout_s: float
    outcomes: Mapping[tuple[str, str], RunOutcome]
    trajectories: Mapping[tuple[str, str], Trajectory] = field(default_factory=dict)

    @cached_property
    def instance_map(self) -> dict[str, Instance]:
        return {inst.id: inst for inst in self.instances}

    @cached_property
    def position_map(self) -> dict[str, int]:
        return {inst.id: p for p, inst in enumerate(self.instances)}

    @cached_property
    def instance_ids(self) -> tuple[str, ...]:
        return tuple(inst.id for inst in self.instances)

    @cached_property
    def optimization_ids(self) -> tuple[str, ...]:
        return tuple(i.id for i in self.instances if i.kind is InstanceKind.OPTIMIZATION)

    def instance(self, instance_id: str) -> Instance:
        try:
            return self.instance_map[instance_id]
        except KeyError:
            raise UnknownInstance(f"unknown instance {instance_id!r}") from None

    def outcome(self, instance_id: str, solver_id: str) -> RunOutcome:
        return self.outcomes[(instance_id, solver_id)]

    def time(self, instance_id: str, solver_id: str) -> float:
        return self.outcomes[(instance_id, solver_id)].time_s

    def obj(self, instance_id: str, solver_id: str) -> float:
        return self.outcomes[(instance_id, solver_id)].obj

    def trajectory(self, instance_id: str, solver_id: str) -> Trajectory | None:
        return self.trajectories.get((instance_id, solver_id))


def resolve_best_known(scenario: Scenario, instance_id: str) -> float | None:
    """Best known objective for an instance.

    Uses the instance's recorded value when present, otherwise the minimum
    final objective any solver reached. None when no solver found a solution
    and no value is recorded.
    """
    inst = scenario.instance(instance_id)
    if inst.best_known_obj is not None:
        return inst.best_known_obj
    finite = [
        scenario.obj(instance_id, s)
        for s in scenario.solvers
        if math.isfinite(scenario.obj(instance_id, s))
    ]
    return min(finite) if finite else None


def obj_pool(scenario: Scenario, instance_id: str) -> tuple[float, float] | None:
    """(best, worst) final objective over the scenario's solvers, or None."""
    finite = [
        scenario.obj(instance_id, s)
        for s in scenario.solvers
        if math.isfinite(scenario.obj(instance_id, s))
    ]
    if not finite:
        return None
    return min(finite), max(finite)


def _coerce_instance(item: object) -> Instance:
    if isinstance(item, Instance):
        kind = InstanceKind(item.kind)
        best = None if item.best_known_obj is None else float(item.best_known_obj)
        return Instance(str(item.id), kind, best)
    return Instance(str(item))


def validate_scenario(raw: Scenario) -> Scenario:
    """Check every model invariant and return a normalized scenario.

    Normalization: ids to str, statuses and kinds to enums, solved run times
    and trajectory times snapped to the millisecond grid, containers to
    tuples/dicts. Raises ValidationError carrying all violations found.
    """
    violations: list[Violation] = []

    def flag(code: str, message: str, where: str | None = None) -> None:
        violations.append(Violation(code, message, where))

    timeout = raw.timeout_s
    timeout_ok = isinstance(timeout, (int, float)) and math.isfinite(timeout) and timeout > 0
    if not timeout_ok:
        flag("BadTimeout", f"timeout_s must be a finite positive number, got {timeout!r}")
        timeout = float("nan")
    timeout = float(timeout)

    instances: list[Instance] = []
    for item in raw.instances:
        try:
            inst = _coerce_instance(item)
        except (TypeError, ValueError) as exc:
            flag("BadInstance", str(exc), where=repr(item))
            continue
        if inst.best_known_obj is not None:
            if inst.kind is InstanceKind.DECISION:
                flag("BadInstance", "decision instance cannot carry best_known_obj", inst.id)
            elif not math.isfinite(inst.best_known_obj):
                flag("BadInstance", "best_known_obj must be finite", inst.id)
        instances.append(inst)

    instance_ids = [inst.id for inst in instances]
    if not instance_ids:
        flag("EmptyScenario", "scenario has no instances")
    seen: set[str] = set()
    for iid in instance_ids:
        if iid in seen:
            flag("DuplicateId", f"duplicate instance id {iid!r}")
        seen.add(iid)

    solvers = [str(s) for s in raw.solvers]
    if not solvers:
        flag("EmptyScenario", "scenario has no solvers")
    seen = set()
    for sid in solvers:
        if sid in seen:
            flag("DuplicateId", f"duplicate solver id {sid!r}")
        seen.add(sid)

    kind_of = {inst.id: inst.kind for inst in instances}
    known_pairs = {(i, s) for i in instance_ids for s in solvers}

    outcomes: dict[tuple[str, str], RunOutcome] = {}
    for key, out in raw.outcomes.items():
        i, s = str(key[0]), str(key[1])
        where = f"({i}, {s})"
        if (i, s) not in known_pairs:
            flag("UnknownId", "outcome recorded for a pair outside the scenario", where)
            continue
        try:
            status = RunStatus(out.status)
        except ValueError:
            flag("BadOutcome", f"unknown status {out.status!r}", where)
            continue
        t = out.time_s
        if not isinstance(t, (int, float)) or math.isnan(t):
            flag("BadOutcome", f"time_s must be a number, got {t!r}", where)
            continue
        t = float(t)
        obj = math.inf if out.obj is None else float(out.obj)
        if math.isnan(obj) or obj == -math.inf:
            flag("BadOutcome", f"obj must be finite or +inf, got {obj!r}", where)
            continue
        if timeout_ok:
            if status is RunStatus.SOLVED:
                t = quantize_ms(t)
                if not 0.0 <= t < timeout:
                    flag("BadOutcome", f"solved run needs 0 <= time_s < timeout, got {t}", where)
            else:
                if t != timeout:
                    flag("BadOutcome", f"{status.value} run must record time_s == timeout, got {t}", where)
        kind = kind_of.get(i)
        if kind is InstanceKind.DECISION and obj != math.inf:
            flag("BadOutcome", "decision instance outcomes must have obj = +inf", where)
        if kind is InstanceKind.OPTIMIZATION and status is RunStatus.SOLVED and not math.isfinite(obj):
            flag("BadOutcome", "solved optimization run must have a finite obj", where)
        outcomes[(i, s)] = RunOutcome(t, status, obj)

    for i in instance_ids:
        for s in solvers:
            if (i, s) not in outcomes:
                flag("MissingOutcome", "no recorded run for this pair", f"({i}, {s})")

    trajectories: dict[tuple[str, str], Trajectory] = {}
    raw_trajectories = raw.trajectories or {}
    for key, traj in raw_trajectories.items():
        i, s = str(key[0]), str(key[1])
        where = f"({i}, {s})"
        if (i, s) not in known_pairs:
            flag("UnknownId", "trajectory recorded for a pair outside the scenario", where)
            continue
        if kind_of.get(i) is not InstanceKind.OPTIMIZATION:
            flag("InconsistentTrajectory", "trajectory recorded for a decision instance", where)
            continue
        events = []
        ok = True
        for t, v in traj.events:
            t = quantize_ms(float(t))
            v = float(v)
            if not (timeout_ok and 0.0 <= t < timeout):
                flag("InconsistentTrajectory", f"event time {t} outside [0, timeout)", where)
                ok = False
            if not math.isfinite(v):
                flag("InconsistentTrajectory", "event objectives must be finite", where)
                ok = False
            events.append((t, v))
        for (t1, v1), (t2, v2) in zip(events, events[1:]):
            if not t1 < t2:
                flag("InconsistentTrajectory", "event times must be strictly increasing", where)
                ok = False
            if not v1 > v2:
                flag("InconsistentTrajectory", "event objectives must be strictly decreasing", where)
                ok = False
        proved = traj.proved_optimal_at
        if proved is not None:
            proved = quantize_ms(float(proved))
            if not (timeout_ok and 0.0 <= proved < timeout):
                flag("InconsistentTrajectory", "proved_optimal_at outside [0, timeout)", where)
                ok = False
            if events and proved < events[-1][0]:
                flag("InconsistentTrajectory", "proved_optimal_at precedes the last event", where)
                ok = False
        out = outcomes.get((i, s))
        if out is not None:
            if events and events[-1][1] != out.obj:
                flag("InconsistentTrajectory", "last event objective differs from the run outcome", where)
                ok = False
            if not events and math.isfinite(out.obj):
                flag("InconsistentTrajectory", "run found a solution but the trajectory is empty", where)
                ok = False
            if proved is not None and out.status is not RunStatus.SOLVED:
                flag("InconsistentTrajectory", "optimality proof recorded on an unsolved run", where)
                ok = False
        if ok:
            trajectories[(i, s)] = Trajectory(tuple(events), proved)

    if violations:
        raise ValidationError(violations)

    return Scenario(
        id=str(raw.id),
        instances=tuple(instances),
        solvers=tuple(solvers),
        timeout_s=timeout,
        outcomes=outcomes,
        trajectories=trajectories,
    )


def build_scenario(
    scenario_id: str,
    instances: Iterable[Instance | str],
    solvers: Iterable[str],
    timeout_s: float,
    outcomes: Mapping[tuple[str, str], RunOutcome],
    trajectories: Mapping[tuple[str, str], Trajectory] | None = None,
) -> Scenario:
    """Assemble and validate a scenario in one step."""
    return validate_scenario(
        Scenario(
            id=scenario_id,
            instances=tuple(instances),
            solvers=tuple(solvers),
            timeout_s=timeout_s,
            outcomes=dict(outcomes),
            trajectories=dict(trajectories or {}),
        )
    )


def positions(scenario: Scenario, instance_ids: Iterable[str]) -> tuple[int, ...]:
    """Positions of a subset of the scenario's instances, in the scenario's order.

    A cross-validation fold is such a subset: scoring reads per-instance
    values at these positions, where restrict copies the runs.
    """
    wanted = set(instance_ids)
    if not wanted:
        raise EmptyRestriction("restriction needs at least one instance")
    index = scenario.position_map
    missing = sorted(wanted.difference(index))
    if missing:
        raise UnknownInstance(f"unknown instances: {', '.join(missing)}")
    return tuple(sorted(index[i] for i in wanted))


def restrict(scenario: Scenario, instance_ids: Sequence[str]) -> Scenario:
    """Project a scenario onto a subset of its instances.

    Keeps the scenario's instance order; solvers and timeout are unchanged.
    """
    kept = tuple(scenario.instances[p] for p in positions(scenario, instance_ids))
    kept_ids = {inst.id for inst in kept}
    outcomes = {k: v for k, v in scenario.outcomes.items() if k[0] in kept_ids}
    trajectories = {k: v for k, v in scenario.trajectories.items() if k[0] in kept_ids}
    return Scenario(
        id=scenario.id,
        instances=kept,
        solvers=scenario.solvers,
        timeout_s=scenario.timeout_s,
        outcomes=outcomes,
        trajectories=trajectories,
    )


def with_best_known(instance: Instance, value: float) -> Instance:
    return replace(instance, best_known_obj=value)
