"""Benchmark scenario data model.

A scenario is a set of instances, a set of solvers, a single timeout, and one
recorded run outcome per (instance, solver) pair. Optimization instances may
additionally carry objective trajectories (the incumbent values a solver found
over time). All run times are kept at millisecond resolution; an unsolved run
is stored with time equal to the timeout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import accumulate, repeat
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .errors import EmptyRestriction, UnknownInstance, ValidationError, Violation

__all__ = [
    "Direction",
    "Instance",
    "InstanceKind",
    "InstanceValues",
    "RunOutcome",
    "RunStatus",
    "Runs",
    "Scenario",
    "ScoreTable",
    "Trajectories",
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


class _Store(Mapping):
    """Per-solver columns in instance order, and a read-only (instance_id, solver_id) view."""

    __slots__ = ("instance_ids", "_at")

    def __init__(self, instance_ids: tuple[str, ...]):
        self.instance_ids, self._at = instance_ids, {i: p for p, i in enumerate(instance_ids)}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class Runs(_Store):
    """Per solver, the runs' stored times (an unsolved run's is the timeout), the same in
    integer ms, statuses, solved flags and objectives, from the checked (time_s, status,
    obj) by solver and instance id in runs. Only a lookup builds a RunOutcome."""

    __slots__ = ("times", "ms", "statuses", "solved", "objs")

    def __init__(self, instance_ids: tuple[str, ...], solvers: Iterable[str],
                 runs: Mapping[str, Mapping[str, tuple[float, RunStatus, float]]]):
        super().__init__(instance_ids)
        self.times, self.ms, self.statuses, self.solved, self.objs = {}, {}, {}, {}, {}
        for s in solvers:
            times, statuses, _ = self.times[s], self.statuses[s], self.objs[s] = tuple(zip(
                *map(runs[s].__getitem__, instance_ids)))
            self.ms[s] = tuple(map(round, map(operator.mul, times, repeat(1000.0))))
            self.solved[s] = tuple(map(operator.is_, statuses, repeat(RunStatus.SOLVED)))

    def __getitem__(self, key: tuple[str, str]) -> RunOutcome:
        i, s = key
        p = self._at[i]
        return RunOutcome(self.times[s][p], self.statuses[s][p], self.objs[s][p])

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return ((i, s) for i in self.instance_ids for s in self.times)

    def __len__(self) -> int:
        return len(self.instance_ids) * len(self.times)


class Trajectories(_Store):
    """Per solver, flat event times (on the ms grid) and objectives, those of position p at
    offsets[p]:offsets[p + 1], proofs[p] (a proof time or None) and the traced positions
    (a trajectory may have no event), from pairs: per solver, position to (events,
    proof). Only a lookup builds a Trajectory."""

    __slots__ = ("times", "objs", "offsets", "proofs", "traced")

    def __init__(self, instance_ids: tuple[str, ...], solvers: Iterable[str],
                 pairs: Mapping[str, Mapping[int, tuple[list[tuple[float, float]], float | None]]]):
        super().__init__(instance_ids)
        self.times, self.objs, self.offsets, self.proofs, self.traced = {}, {}, {}, {}, {}
        for s in solvers:
            got = pairs.get(s, {})
            counts, proofs, events = [0] * len(instance_ids), [None] * len(instance_ids), []
            for p in sorted(got):
                seen, proofs[p] = got[p]
                counts[p] = len(seen)
                events += seen
            self.times[s], self.objs[s] = tuple(zip(*events)) or ((), ())
            self.offsets[s] = tuple(accumulate(counts, initial=0))
            self.proofs[s], self.traced[s] = tuple(proofs), frozenset(got)

    def __getitem__(self, key: tuple[str, str]) -> Trajectory:
        i, s = key
        p = self._at[i]
        if p not in self.traced[s]:
            raise KeyError(key)
        a, b = self.offsets[s][p], self.offsets[s][p + 1]
        return Trajectory(tuple(zip(self.times[s][a:b], self.objs[s][a:b])), self.proofs[s][p])

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return ((i, s) for p, i in enumerate(self.instance_ids)
                for s, got in self.traced.items() if p in got)

    def __len__(self) -> int:
        return sum(map(len, self.traced.values()))


@dataclass(frozen=True)
class Scenario:
    """Validated, it holds its runs and trajectories in the stores the kernels read, Runs
    and Trajectories; raw, as validate_scenario takes it, any mappings, dicts among them."""

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

    @property
    def time_columns(self) -> dict[str, tuple[int, ...]]:
        """Each solver's run times in integer milliseconds, in instance order."""
        return self.outcomes.ms

    @property
    def run_columns(self) -> tuple[dict[str, tuple], dict[str, tuple], dict[str, tuple]]:
        """Each solver's run times in seconds as stored, solved flags and objectives."""
        runs = self.outcomes
        return runs.times, runs.solved, runs.objs

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


# Each status by its value. Reading an enum member off its class is slow, so
# hot code reads it from a module constant.
_STATUS, _SOLVED = {st.value: st for st in RunStatus}, RunStatus.SOLVED


def check_run(status: object, time_s: object, obj: object, timeout_s: float,
              unsolved_at_timeout: bool = False) -> RunOutcome:
    """The normalized run of check_run_values, as a RunOutcome."""
    return RunOutcome(*check_run_values(status, time_s, obj, timeout_s, unsolved_at_timeout))


def check_run_values(status: object, time_s: object, obj: object, timeout_s: float,
                     unsolved_at_timeout: bool = False) -> tuple[float, RunStatus, float]:
    """The per-run invariants, shared by validate_scenario, the file readers and generate.

    A known status; a finite time_s >= 0; a solved run strictly before the
    timeout once snapped to the millisecond grid (stored snapped); an
    unsolved run at the timeout, stored there. With unsolved_at_timeout an
    unsolved run may record any time up to the timeout once snapped, or the
    timeout as emit_scenario writes it (7.001 for 7.0009). obj a number or
    +inf (None reads as +inf). Returns the normalized (time_s, status, obj);
    raises ValueError naming what is broken.
    """
    try:
        member = status if status.__class__ is RunStatus else _STATUS[status]
    except (KeyError, TypeError):
        raise ValueError(f"unknown status {status!r}") from None
    if not isinstance(time_s, (int, float)) or not math.isfinite(time_s):
        raise ValueError(f"time_s must be a finite number, got {time_s!r}")
    if time_s < 0:
        raise ValueError(f"time_s must be >= 0, got {time_s}")
    # quantize_ms inline; a time too large for the grid is past any timeout.
    t = round(ms) / 1000.0 if (ms := time_s * 1000.0) < math.inf else time_s
    if member is _SOLVED:
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
    return t, member, obj


def validate_scenario(raw: Scenario) -> Scenario:
    """Check every model invariant and return a normalized scenario.

    Normalization: ids to str, statuses and kinds to enums, solved run times
    and trajectory times snapped to the millisecond grid, containers to
    tuples and column stores. Raises ValidationError carrying all violations
    found; a bad timeout skips the run and trajectory checks, which need it.
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

    # Each solver's checked runs by instance; () marks a rejected run.
    instance_set, runs = {inst.id for inst in instances}, {s: {} for s in solvers}
    for key, out in raw.outcomes.items():
        i, s = str(key[0]), str(key[1])
        if i not in instance_set or s not in runs:
            flag("UnknownId", "outcome recorded for a pair outside the scenario", f"({i}, {s})")
            continue
        run = ()  # with a bad timeout no run can be checked, so every run is rejected
        if timeout_ok:
            try:
                run = check_run_values(out.status, out.time_s, out.obj, timeout)
            except ValueError as exc:
                flag("BadOutcome", str(exc), f"({i}, {s})")
        runs[s][i] = run

    return assemble_scenario(
        str(raw.id), tuple(instances), tuple(solvers), timeout, runs,
        (raw.trajectories or {}) if timeout_ok else {}, violations,
        ((str(i), str(s)) for i, s in raw.outcomes),
    )


def assemble_scenario(
    scenario_id: str, instances: tuple[Instance, ...], solvers: tuple[str, ...],
    timeout_s: float, runs: Mapping[str, Mapping[str, tuple]],
    trajectories: Mapping[tuple[str, str], Trajectory], violations: list[Violation],
    order: Iterable[tuple[str, str]] | None = None,
    events: Iterable[tuple[tuple[str, str], float, float]] = (),
) -> Scenario:
    """Check checked runs against their instances and each other, and build the scenario.

    runs maps each solver to its checked (time_s, status, obj) runs by
    instance id, () where a run was rejected. First the run-kind rules (a
    decision run has obj +inf, a solved optimization run a finite obj),
    reported in order (the runs that may break them, as the source recorded
    them) or else instance by instance; then every pair needs a run, unless
    rejected. Trajectories come as Trajectory objects, or as a file's events
    ((instance_id, solver_id), t, obj), each pair's in order and proved
    optimal when its run is solved. One pass snaps each event to the
    millisecond grid and checks it against the pair's previous one; a pair
    is checked once closed (a Trajectory at once, a file's pairs after its
    last row). Raises ValidationError with the given violations followed by
    these, pair by pair in order of first appearance.
    """

    def flag(code: str, message: str, where: str | None = None) -> None:
        violations.append(Violation(code, message, where))

    at = {inst.id: p for p, inst in enumerate(instances)}
    kind_of = {inst.id: inst.kind for inst in instances}
    decision, optimization, inf, solved = (InstanceKind.DECISION, InstanceKind.OPTIMIZATION,
                                           math.inf, RunStatus.SOLVED)
    breached = {(i, s) for s, col in runs.items() for i, run in col.items()
                if run and (run[2] != inf if kind_of[i] is decision
                            else run[1] is solved and run[2] == inf)}
    if breached:
        for i, s in order if order is not None else ((i.id, s) for i in instances for s in runs):
            if (i, s) in breached:
                flag("BadOutcome", "decision instance outcomes must have obj = +inf" if kind_of[i]
                     is decision else "solved optimization run must have a finite obj",
                     f"({i}, {s})")
    if not instances:
        flag("EmptyScenario", "scenario has no instances")
    if not solvers:
        flag("EmptyScenario", "scenario has no solvers")
    if sum(map(len, runs.values())) != len(instances) * len(solvers):
        for inst in instances:
            for s in solvers:
                if inst.id not in runs[s]:
                    flag("MissingOutcome", "no recorded run for this pair", f"({inst.id}, {s})")

    solver_set, isfinite = set(solvers), math.isfinite
    # Each open pair's checked events, in the order the pairs first appear
    # (None when the pair can have no trajectory, with the reason in refused),
    # and the problems found of single events and between consecutive ones.
    pairs: dict[tuple[str, str], list[tuple[float, float]] | None] = {}
    refused: dict[tuple[str, str], tuple[str, str]] = {}
    problems: dict[tuple[str, str], tuple[list[str], list[str]]] = {}
    built: dict[str, dict[int, tuple[list[tuple[float, float]], float | None]]] = {}

    def open_pair(key: tuple[str, str]) -> list | None:
        kind = kind_of.get(key[0])
        if kind is None or key[1] not in solver_set:
            refused[key] = ("UnknownId", "trajectory recorded for a pair outside the scenario")
        elif kind is not optimization:
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
        """Flag the pair's problems, its own and those against its run, or keep its events."""
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
        run = runs[key[1]].get(key[0])
        if run:
            if seen and seen[-1][1] != run[2]:
                found.append("last event objective differs from the run outcome")
            if not seen and isfinite(run[2]):
                found.append("run found a solution but the trajectory is empty")
            if proved is not None and run[1] is not solved:
                found.append("optimality proof recorded on an unsolved run")
        if found:
            for message in found:
                flag("InconsistentTrajectory", message, f"({key[0]}, {key[1]})")
        else:
            built.setdefault(key[1], {})[at[key[0]]] = (seen, proved)

    # A given Trajectory is complete, so it is closed as soon as it is read.
    for key, traj in trajectories.items():
        key = (str(key[0]), str(key[1]))
        pairs[key] = open_pair(key)
        take((key, t, v) for t, v in traj.events)
        close(key, pairs.pop(key), traj.proved_optimal_at)
    # A file's pairs are closed after its last row; each is proved optimal when its run is solved.
    take(events)
    for key, seen in pairs.items():
        run = runs[key[1]][key[0]]
        close(key, seen, run[0] if run and run[1] is solved else None)

    if violations:
        raise ValidationError(violations)

    ids = tuple(at)
    return Scenario(scenario_id, instances, solvers, timeout_s,
                    Runs(ids, solvers, runs), Trajectories(ids, solvers, built))


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
    kept = {scenario.instance_ids[p] for p in positions(scenario, instance_ids)}
    return validate_scenario(replace(
        scenario, instances=tuple(inst for inst in scenario.instances if inst.id in kept),
        outcomes={k: v for k, v in scenario.outcomes.items() if k[0] in kept},
        trajectories={k: v for k, v in scenario.trajectories.items() if k[0] in kept},
    ))
