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
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import EmptyRestriction, UnknownInstance, ValidationError, Violation

__all__ = [
    "Direction",
    "Instance",
    "InstanceKind",
    "InstanceValues",
    "RunOutcome",
    "RunStatus",
    "Scenario",
    "ScoreTable",
    "Trajectory",
    "assemble_scenario",
    "build_scenario",
    "check_run",
    "check_timeout",
    "positions",
    "quantize_ms",
    "restrict",
    "time_to_ms",
    "validate_scenario",
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
    """Snap a time in seconds to the millisecond grid.

    A time with no finite millisecond count (not finite, or too large for
    the grid) comes back unchanged, for the range checks to reject.
    """
    ms = t * 1000.0
    return round(ms) / 1000.0 if math.isfinite(ms) else t


def time_to_ms(t: float) -> int:
    """Time in seconds to integer milliseconds (assumes a quantized input)."""
    return round(t * 1000.0)


@dataclass(frozen=True, slots=True)
class Instance:
    id: str
    kind: InstanceKind = InstanceKind.DECISION
    best_known_obj: float | None = None


@dataclass(frozen=True, slots=True)
class RunOutcome:
    """One recorded run. obj is +inf when no solution was found.

    For decision instances obj is always +inf. For optimization instances,
    status SOLVED means optimality was proven before the timeout.
    """

    time_s: float
    status: RunStatus
    obj: float = math.inf


@dataclass(frozen=True, slots=True)
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
    per_solver is its declared aggregation over instances. Scoring sets it
    to an InstanceValues view of the metric's columns, not a copy.
    """

    metric_id: str
    params: Mapping[str, object]
    per_solver: Mapping[str, float]
    direction: Direction
    per_instance: Mapping[tuple[str, str], float] | None = None
    aggregation: str | None = None


class InstanceValues(Mapping):
    """Read-only (solver_id, instance_id) -> value view of per-solver columns.

    Covers every solver of columns at the positions at; keys run solver by
    solver, or instance by instance when instance_major. A lookup reads
    the column; nothing is copied.
    """

    __slots__ = ("_columns", "_ids", "_at", "_instance_major", "_where")

    def __init__(self, columns: Mapping[str, Sequence[float]], instance_ids: Sequence[str],
                 at: Sequence[int], instance_major: bool = False):
        self._columns, self._ids, self._at = columns, instance_ids, at
        self._instance_major, self._where = instance_major, None

    def __getitem__(self, key: tuple[str, str]) -> float:
        if self._where is None:
            self._where = {self._ids[p]: p for p in self._at}
        solver, instance_id = key
        return self._columns[solver][self._where[instance_id]]

    def __iter__(self) -> Iterator[tuple[str, str]]:
        ids, at = self._ids, self._at
        if self._instance_major:
            return ((s, ids[p]) for p in at for s in self._columns)
        return ((s, ids[p]) for s in self._columns for p in at)

    def __len__(self) -> int:
        return len(self._columns) * len(self._at)


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
    def time_columns(self) -> dict[str, tuple[int, ...]]:
        """Each solver's run times in integer milliseconds, in instance order."""
        ids, outcomes = self.instance_ids, self.outcomes
        return {s: tuple([time_to_ms(outcomes[(i, s)].time_s) for i in ids]) for s in self.solvers}

    @cached_property
    def run_columns(self) -> tuple[dict[str, tuple], dict[str, tuple], dict[str, tuple]]:
        """Each solver's run times in seconds, solved flags and objectives, in instance order.

        The times are the stored ones: an unsolved run is at the timeout
        exactly, which need not be on the millisecond grid.
        """
        ids, outcomes, solved = self.instance_ids, self.outcomes, RunStatus.SOLVED
        times, flags, objs = {}, {}, {}
        for s in self.solvers:
            runs = [outcomes[(i, s)] for i in ids]
            times[s] = tuple([r.time_s for r in runs])
            flags[s] = tuple([r.status is solved for r in runs])
            objs[s] = tuple([r.obj for r in runs])
        return times, flags, objs

    @cached_property
    def objective_columns(self) -> tuple[tuple, tuple]:
        """Per instance, in instance order: the objective pool and the best known objective.

        The pool is the (best, worst) final objective over the solvers, or
        None when no solver found a solution. The best known objective is
        the instance's recorded value when present, else the pool's best,
        else None.
        """
        isfinite, pools, bests = math.isfinite, [], []
        for inst, row in zip(self.instances, zip(*self.run_columns[2].values())):
            finite = [v for v in row if isfinite(v)]
            pool = (min(finite), max(finite)) if finite else None
            pools.append(pool)
            recorded = inst.best_known_obj
            bests.append(recorded if recorded is not None else pool[0] if pool else None)
        return tuple(pools), tuple(bests)

    @cached_property
    def instance_ids(self) -> tuple[str, ...]:
        return tuple(inst.id for inst in self.instances)

    @cached_property
    def optimization_ids(self) -> tuple[str, ...]:
        return tuple(i.id for i in self.instances if i.kind is InstanceKind.OPTIMIZATION)

    def position(self, instance_id: str) -> int:
        try:
            return self.position_map[instance_id]
        except KeyError:
            raise UnknownInstance(f"unknown instance {instance_id!r}") from None

    def instance(self, instance_id: str) -> Instance:
        return self.instances[self.position(instance_id)]

    def outcome(self, instance_id: str, solver_id: str) -> RunOutcome:
        return self.outcomes[(instance_id, solver_id)]

    def time(self, instance_id: str, solver_id: str) -> float:
        return self.outcomes[(instance_id, solver_id)].time_s

    def obj(self, instance_id: str, solver_id: str) -> float:
        return self.outcomes[(instance_id, solver_id)].obj

    def trajectory(self, instance_id: str, solver_id: str) -> Trajectory | None:
        return self.trajectories.get((instance_id, solver_id))


def _coerce_instance(item: object) -> Instance:
    if isinstance(item, Instance):
        kind = InstanceKind(item.kind)
        best = None if item.best_known_obj is None else float(item.best_known_obj)
        return Instance(str(item.id), kind, best)
    return Instance(str(item))


def check_timeout(timeout_s: object) -> float:
    """The timeout as a float; a ValidationError naming it unless finite and positive."""
    if isinstance(timeout_s, (int, float)) and math.isfinite(timeout_s) and timeout_s > 0:
        return float(timeout_s)
    message = f"timeout_s must be a finite positive number, got {timeout_s!r}"
    raise ValidationError([Violation("BadTimeout", message)])


# Each status by its value and by the member itself.
_STATUS = {k: st for st in RunStatus for k in (st.value, st)}


def check_run(status: object, time_s: object, obj: object, timeout_s: float,
              unsolved_at_timeout: bool = False) -> RunOutcome:
    """The per-run invariants, shared by validate_scenario, the file readers and generate.

    A known status; a finite time_s >= 0; a solved run strictly before the
    timeout once snapped to the millisecond grid (stored snapped); an
    unsolved run at the timeout, stored there. With unsolved_at_timeout an
    unsolved run may record any time up to the timeout once snapped, or the
    timeout as emit_scenario writes it (7.001 for 7.0009). obj a number or
    +inf (None reads as +inf). Returns the normalized run; raises
    ValueError naming what is broken.
    """
    try:
        member = _STATUS[status]
    except (KeyError, TypeError):
        raise ValueError(f"unknown status {status!r}") from None
    if not isinstance(time_s, (int, float)) or not math.isfinite(time_s):
        raise ValueError(f"time_s must be a finite number, got {time_s!r}")
    if time_s < 0:
        raise ValueError(f"time_s must be >= 0, got {time_s}")
    # quantize_ms inline; a time too large for the grid is past any timeout.
    t = round(ms) / 1000.0 if (ms := time_s * 1000.0) < math.inf else time_s
    if member is RunStatus.SOLVED:
        if t > timeout_s:
            raise ValueError(f"time_s {time_s} exceeds the timeout {timeout_s}")
        if t >= timeout_s:
            raise ValueError(f"a solved run must finish strictly before the timeout, got {t}")
    elif time_s == timeout_s or unsolved_at_timeout and (
            t <= timeout_s or time_s == float(f"{timeout_s:.3f}")):
        t = timeout_s
    elif t > timeout_s:
        raise ValueError(f"time_s {time_s} exceeds the timeout {timeout_s}")
    else:
        raise ValueError(f"{member.value} run must record time_s == timeout, got {time_s}")
    if obj.__class__ is not float:
        obj = math.inf if obj is None else float(obj)
    if obj != obj or obj == -math.inf:
        raise ValueError(f"obj must be finite or +inf, got {obj!r}")
    return RunOutcome(t, member, obj)


def validate_scenario(raw: Scenario) -> Scenario:
    """Check every model invariant and return a normalized scenario.

    Normalization: ids to str, statuses and kinds to enums, solved run times
    and trajectory times snapped to the millisecond grid, containers to
    tuples/dicts. Raises ValidationError carrying all violations found; a
    bad timeout skips the run and trajectory checks, which need it.
    """
    violations: list[Violation] = []

    def flag(code: str, message: str, where: str | None = None) -> None:
        violations.append(Violation(code, message, where))

    timeout, timeout_ok = math.nan, False
    try:
        timeout, timeout_ok = check_timeout(raw.timeout_s), True
    except ValidationError as exc:
        violations += exc.violations

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

    solvers = [str(s) for s in raw.solvers]
    for what, ids in (("instance", [inst.id for inst in instances]), ("solver", solvers)):
        seen: set[str] = set()
        for x in ids:
            if x in seen:
                flag("DuplicateId", f"duplicate {what} id {x!r}")
            seen.add(x)

    instance_set, solver_set = {inst.id for inst in instances}, set(solvers)
    outcomes: dict[tuple[str, str], RunOutcome] = {}
    rejected: set[tuple[str, str]] = set()
    for key, out in raw.outcomes.items():
        i, s = str(key[0]), str(key[1])
        if i not in instance_set or s not in solver_set:
            flag("UnknownId", "outcome recorded for a pair outside the scenario", f"({i}, {s})")
            continue
        if timeout_ok:  # with a bad timeout no run can be checked, so every run is rejected
            try:
                outcomes[(i, s)] = check_run(out.status, out.time_s, out.obj, timeout)
                continue
            except ValueError as exc:
                flag("BadOutcome", str(exc), f"({i}, {s})")
        rejected.add((i, s))

    return assemble_scenario(
        str(raw.id), tuple(instances), tuple(solvers), timeout, outcomes,
        (raw.trajectories or {}) if timeout_ok else {}, violations, rejected,
    )


def assemble_scenario(
    scenario_id: str, instances: tuple[Instance, ...], solvers: tuple[str, ...],
    timeout_s: float, outcomes: dict[tuple[str, str], RunOutcome],
    trajectories: Mapping[tuple[str, str], Trajectory], violations: list[Violation],
    rejected: Collection[tuple[str, str]] = (),
    events: Iterable[tuple[tuple[str, str], float, float]] = (),
) -> Scenario:
    """Check checked runs against their instances and each other, and build the scenario.

    First the run-kind rules, run by run in the order of outcomes: a
    decision run has obj +inf, and a solved optimization run a finite obj.
    Then the scenario needs an instance and a solver, and every (instance,
    solver) pair needs a run; a pair whose run was rejected is not reported
    missing as well. Trajectories come as Trajectory objects, or as events
    ((instance_id, solver_id), t, obj) read from a file, each pair's in
    recorded order; a pair read from a file is proved optimal when its run
    is solved. One pass over the events snaps each to the millisecond grid
    and checks it against the pair's previous event. A pair is closed once
    all its events are in (a given Trajectory at once, a file's pairs after
    its last row): its end checks run and its Trajectory is built once.
    Raises ValidationError with the given violations followed by these,
    pair by pair in the order the pairs first appear.
    """

    def flag(code: str, message: str, where: str | None = None) -> None:
        violations.append(Violation(code, message, where))

    kind_of = {inst.id: inst.kind for inst in instances}
    decision, inf, solved = InstanceKind.DECISION, math.inf, RunStatus.SOLVED
    for (i, s), run in outcomes.items():
        if kind_of[i] is decision:
            if run.obj != inf:
                flag("BadOutcome", "decision instance outcomes must have obj = +inf", f"({i}, {s})")
        elif run.obj == inf and run.status is solved:
            flag("BadOutcome", "solved optimization run must have a finite obj", f"({i}, {s})")
    if not instances:
        flag("EmptyScenario", "scenario has no instances")
    if not solvers:
        flag("EmptyScenario", "scenario has no solvers")
    if len(outcomes) + len(rejected) != len(instances) * len(solvers):
        for inst in instances:
            for s in solvers:
                if (inst.id, s) not in outcomes and (inst.id, s) not in rejected:
                    flag("MissingOutcome", "no recorded run for this pair", f"({inst.id}, {s})")

    solver_set, isfinite = set(solvers), math.isfinite
    # Each open pair's checked events, in the order the pairs first appear
    # (None when the pair can have no trajectory, with the reason in refused),
    # and the problems found of single events and between consecutive ones.
    pairs: dict[tuple[str, str], list[tuple[float, float]] | None] = {}
    refused: dict[tuple[str, str], tuple[str, str]] = {}
    problems: dict[tuple[str, str], tuple[list[str], list[str]]] = {}
    built: dict[tuple[str, str], Trajectory] = {}

    def open_pair(key: tuple[str, str]) -> list | None:
        kind = kind_of.get(key[0])
        if kind is None or key[1] not in solver_set:
            refused[key] = ("UnknownId", "trajectory recorded for a pair outside the scenario")
        elif kind is not InstanceKind.OPTIMIZATION:
            refused[key] = ("InconsistentTrajectory", "trajectory recorded for a decision instance")
        else:
            return []
        return None

    def take(stream: Iterable[tuple[tuple[str, str], float, float]]) -> None:
        """The one pass over events: snap each and check it against its pair's previous one."""
        for key, t, v in stream:
            seen = pairs.get(key)
            if seen is None:
                if key in pairs:
                    continue
                seen = pairs[key] = open_pair(key)
                if seen is None:
                    continue
            t = (round(ms) / 1000.0 if t.__class__ is float and isfinite(ms := t * 1000.0)
                 else quantize_ms(float(t)))
            v = float(v)
            if not 0.0 <= t < timeout_s:
                problems.setdefault(key, ([], []))[0].append(f"event time {t} outside [0, timeout)")
            if not isfinite(v):
                problems.setdefault(key, ([], []))[0].append("event objectives must be finite")
            if seen:
                t1, v1 = seen[-1]
                if not t1 < t:
                    problems.setdefault(key, ([], []))[1].append(
                        "event times must be strictly increasing")
                if not v1 > v:
                    problems.setdefault(key, ([], []))[1].append(
                        "event objectives must be strictly decreasing")
            seen.append((t, v))

    def close(key: tuple[str, str], seen: list | None, proved: object) -> None:
        """Flag the pair's problems, its own and those against its run, or build its Trajectory."""
        if seen is None:
            flag(*refused[key], f"({key[0]}, {key[1]})")
            return
        single, between = problems.pop(key, ((), ()))
        found = [*single, *between]
        if proved is not None:
            proved = quantize_ms(float(proved))
            if not 0.0 <= proved < timeout_s:
                found.append("proved_optimal_at outside [0, timeout)")
            if seen and proved < seen[-1][0]:
                found.append("proved_optimal_at precedes the last event")
        out = outcomes.get(key)
        if out is not None:
            if seen and seen[-1][1] != out.obj:
                found.append("last event objective differs from the run outcome")
            if not seen and isfinite(out.obj):
                found.append("run found a solution but the trajectory is empty")
            if proved is not None and out.status is not solved:
                found.append("optimality proof recorded on an unsolved run")
        if found:
            for message in found:
                flag("InconsistentTrajectory", message, f"({key[0]}, {key[1]})")
        else:
            built[key] = Trajectory(tuple(seen), proved)

    # A given Trajectory is complete, so it is closed as soon as it is read.
    for key, traj in trajectories.items():
        key = (str(key[0]), str(key[1]))
        pairs[key] = open_pair(key)
        take((key, t, v) for t, v in traj.events)
        close(key, pairs.pop(key), traj.proved_optimal_at)
    # A file's pairs are closed after its last row; each is proved optimal when its run is solved.
    take(events)
    for key, seen in pairs.items():
        out = outcomes.get(key)
        close(key, seen, out.time_s if out is not None and out.status is solved else None)

    if violations:
        raise ValidationError(violations)

    return Scenario(
        id=scenario_id,
        instances=instances,
        solvers=solvers,
        timeout_s=timeout_s,
        outcomes=outcomes,
        trajectories=built,
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

    A cross-validation fold is such a subset: scoring reads the metric's
    per-instance columns at these positions and copies no runs.
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
    return replace(
        scenario, instances=kept,
        outcomes={k: v for k, v in scenario.outcomes.items() if k[0] in kept_ids},
        trajectories={k: v for k, v in scenario.trajectories.items() if k[0] in kept_ids},
    )

