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
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate, count, islice, repeat
from types import MappingProxyType
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence

from . import _forwarder
from .errors import SameSolver, UnknownInstance, UnknownSolver, ValidationError, Violation

__all__ = [
    "Direction",
    "HeadToHead",
    "Instance",
    "InstanceKind",
    "InstanceValues",
    "RunOutcome",
    "RunStatus",
    "Runs",
    "Scenario",
    "ScenarioBuilder",
    "ScoreTable",
    "Trajectories",
    "Trajectory",
    "build_scenario",
    "check_timeout",
    "head_to_head",
    "quantize_ms",
    "require_solvers",
    "restrict",
    "runtime_distribution",
    "validate_scenario",
]

# The library-only route from raw mappings to a scenario, which no command
# takes, lives in validation; each name is read from there on first use.
__getattr__ = _forwarder(globals(), dict.fromkeys(
    ("build_scenario", "restrict", "validate_scenario"), "validation"))


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
    objective. The last incumbent holds until its run ends: a solved run's
    time is when optimality was proven, so no event may come after it.
    """

    events: tuple[tuple[float, float], ...] = ()


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
    solver. A lookup reads the column; nothing is copied.
    """

    __slots__ = ("_columns", "_ids", "_at", "_where")

    def __init__(self, columns: Mapping[str, Sequence[float]], instance_ids: Sequence[str],
                 at: Sequence[int]):
        self._columns, self._ids, self._at, self._where = columns, instance_ids, at, None

    def __getitem__(self, key: tuple[str, str]) -> float:
        if self._where is None:
            self._where = {self._ids[p]: p for p in self._at}
        solver, instance_id = key
        return self._columns[solver][self._where[instance_id]]

    def __iter__(self) -> Iterator[tuple[str, str]]:
        ids, at = self._ids, self._at
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
    integer ms, statuses and objectives, each family a read-only mapping of tuples. The ms
    family is built on its first read; only a lookup builds a RunOutcome."""

    __slots__ = ("times", "_ms", "statuses", "objs")

    def __init__(self, instance_ids: tuple[str, ...], times: dict[str, tuple[float, ...]],
                 statuses: dict[str, tuple[RunStatus, ...]], objs: dict[str, tuple[float, ...]]):
        super().__init__(instance_ids)
        self.times, self.statuses, self.objs = map(MappingProxyType, (times, statuses, objs))
        self._ms = None

    @property
    def ms(self) -> Mapping[str, tuple[int, ...]]:
        if self._ms is None:  # read by pairwise scoring, head2head and runtime-dist only
            self._ms = MappingProxyType({
                s: tuple(map(round, map(operator.mul, col, repeat(1000.0))))
                for s, col in self.times.items()})
        return self._ms

    def __reduce__(self):
        return Runs, (self.instance_ids, *map(dict, (self.times, self.statuses, self.objs)))

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
    offsets[p]:offsets[p + 1], each family a read-only mapping. A pair has a trajectory when
    it has an event; only a lookup builds a Trajectory."""

    __slots__ = ("times", "objs", "offsets")

    def __init__(self, instance_ids: tuple[str, ...], *columns: dict[str, tuple]):
        super().__init__(instance_ids)
        self.times, self.objs, self.offsets = map(MappingProxyType, columns)

    def __reduce__(self):
        return Trajectories, (self.instance_ids, *map(dict, (self.times, self.objs, self.offsets)))

    def __getitem__(self, key: tuple[str, str]) -> Trajectory:
        i, s = key
        p = self._at[i]
        a, b = self.offsets[s][p:p + 2]
        if a == b:
            raise KeyError(key)
        return Trajectory(tuple(zip(self.times[s][a:b], self.objs[s][a:b])))

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return ((i, s) for p, i in enumerate(self.instance_ids)
                for s, offsets in self.offsets.items() if offsets[p] != offsets[p + 1])

    def __len__(self) -> int:
        # Offsets rise from 0 by one step per pair with events: count the distinct values.
        return sum(len(set(offsets)) - 1 for offsets in self.offsets.values())


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
    def position_map(self) -> dict[str, int]:
        return {inst.id: p for p, inst in enumerate(self.instances)}

    @cached_property
    def objective_columns(self) -> tuple[tuple, tuple]:
        """Per instance, in instance order: the objective pool and the best known objective.

        The pool is the (best, worst) final objective over the solvers, or
        None when no solver found a solution. The best known objective is
        the instance's recorded value when present, else the pool's best,
        else None.
        """
        isfinite, pools, bests = math.isfinite, [], []
        for inst, row in zip(self.instances, zip(*self.outcomes.objs.values())):
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
        return tuple(i.id for i in self.instances if i.kind is _OPTIMIZATION)

    def position(self, instance_id: str) -> int:
        try:
            return self.position_map[instance_id]
        except KeyError:
            raise UnknownInstance(f"unknown instance {instance_id!r}") from None

    def instance(self, instance_id: str) -> Instance:
        return self.instances[self.position(instance_id)]

    def outcome(self, instance_id: str, solver_id: str) -> RunOutcome:
        return self.outcomes[(instance_id, solver_id)]


def check_timeout(timeout_s: object) -> float:
    """The timeout as a float; a ValidationError naming it unless > 0 with a finite ms count."""
    try:
        if isinstance(timeout_s, (int, float)) and 0 < timeout_s * 1000.0 < math.inf:
            return float(timeout_s)
    except OverflowError:  # an int too large for a float
        pass
    message = f"timeout_s must be a finite positive number, got {timeout_s!r}"
    raise ValidationError([Violation("BadTimeout", message)])


_SOLVED, _TIMEOUT, _ERROR = RunStatus.SOLVED, RunStatus.TIMEOUT, RunStatus.ERROR
SECOND_RUN = "a second run of its pair"  # why ScenarioBuilder.runs does not place a run


_DECISION, _OPTIMIZATION, _INF = InstanceKind.DECISION, InstanceKind.OPTIMIZATION, math.inf
_REJECTED = object()  # the status of a held pair: its run was recorded but refused
_REFUSED, _EMPTY = -1, -2  # before a first event: a pair refused a trajectory, or one opened


def _refusal(status: RunStatus, t: float, tau: float) -> str:
    """Why ScenarioBuilder.runs refused a run of a known status: the first time rule it breaks."""
    if not 0.0 <= t < _INF:
        return (f"time_s must be >= 0, got {t}" if -_INF < t < 0.0
                else f"time_s must be a finite number, got {t!r}")
    if (snapped := quantize_ms(t)) > tau:
        return f"time_s {t} exceeds the timeout {tau}"
    if status is _SOLVED:
        return f"a solved run must finish strictly before the timeout, got {snapped}"
    return f"{status.value} run must record time_s == timeout, got {t}"


class _Solver:
    """One solver's columns in the making: runs at their instance positions (status None
    where none is recorded), per position the index of the pair's last event or its state
    before one, and events flat in arrival order."""

    __slots__ = ("id", "times", "statuses", "objs", "last", "ev_t", "ev_v", "ev_p")

    def __init__(self, sid: str, size: int):
        self.id, self.ev_t, self.ev_v, self.ev_p = sid, [], [], []
        self.times, self.statuses, self.objs, self.last = ([None] * size for _ in range(4))


class ScenarioBuilder:
    """A scenario's column stores, filled a block of runs, then of events, at a time.

    The one judge of runs and events: the readers, validate_scenario and
    generate only word its verdicts. Instances and solvers take positions in
    order of first appearance unless given; a given id that repeats is a
    DuplicateId and keeps its first place. runs() checks and places runs.
    close_runs() follows the last run: the run-kind rules (a decision run has
    obj +inf, a solved optimization run a finite obj) in recorded order, a
    non-empty scenario, every pair present. events() takes events, and
    trajectory() a Trajectory's, checking the pair at once. scenario() checks
    a file's pairs against their runs (a solved run ends no earlier than its
    last event), then raises every violation, pair by pair in order of first
    appearance, or builds the stores.
    """

    def __init__(self, timeout_s: float, instances: tuple[Instance, ...] = (),
                 solvers: Iterable[str] = (), violations: list[Violation] | None = None):
        self.timeout_s, self.instances, self.size = timeout_s, instances, 0
        self.violations = [] if violations is None else violations
        self.at: dict[str, int] = {}
        self.kinds: list[InstanceKind | None] = []  # None: decision unless the reader says so
        self.cols: dict[str, _Solver] = {}
        self.loose: list = []  # (position, solver) of the runs that may break a run-kind rule
        self.opened: list = []  # position, solver, ... of the file's pairs, as they first appear
        self.problems: dict[tuple[int, _Solver], tuple[list[str], list[str]]] = {}
        for inst in instances:
            if inst.id in self.at:
                self._flag("DuplicateId", f"duplicate instance id {inst.id!r}")
            p = self.at[inst.id] if inst.id in self.at else self.instance(inst.id)
            self.kinds[p] = inst.kind
        self.solvers = tuple(solvers)
        for s in self.solvers:
            if s in self.cols:
                self._flag("DuplicateId", f"duplicate solver id {s!r}")
            self.cols.setdefault(s, _Solver(s, self.size))

    def _flag(self, code: str, message: str, where: str | None = None) -> None:
        self.violations.append(Violation(code, message, where))

    def instance(self, iid: str, kind: InstanceKind | None = None) -> int:
        p = self.at[iid] = len(self.kinds)
        self.kinds.append(kind)
        if p == self.size:  # every solver's columns double in length
            grow, self.size = p or 8, p + (p or 8)
            for col in self.cols.values():
                for column in (col.times, col.statuses, col.objs, col.last):
                    column += repeat(None, grow)
        return p

    def runs(self, iids: Iterable[str], sids: Iterable[str], times: Iterable[float],
             statuses: Iterable[RunStatus], objs: Iterable[float],
             unsolved_at_timeout: bool = False) -> tuple[int, str | None]:
        """Check and place runs in order; the number placed, and None, or why the next is not.

        The rules, first rule first: a RunStatus member; a finite time_s >= 0;
        a solved run strictly before the timeout once snapped to the millisecond
        grid (stored snapped); an unsolved run at the timeout (stored there), or,
        with unsolved_at_timeout, at most the timeout once snapped or the timeout
        as emit_scenario writes it (7.001 for 7.0009); obj finite or +inf; last,
        not a pair's second run (SECOND_RUN). A refused run leaves no trace.
        """
        tau, inf, ninf = self.timeout_s, _INF, -_INF
        written = float(f"{tau:.3f}") if unsolved_at_timeout else tau  # the timeout as written
        at, cols, kinds, loose, k = self.at, self.cols, self.kinds, self.loose, -1
        for k, iid, sid, t, status, obj in zip(count(), iids, sids, times, statuses, objs):
            if status is _SOLVED:
                try:
                    stored = round(t * 1000.0) / 1000.0
                except (OverflowError, ValueError):  # no millisecond count: inf, NaN or too large
                    stored = t
                if not (0.0 <= t and stored < tau):
                    return k, _refusal(status, t, tau)
            elif status is _TIMEOUT or status is _ERROR:
                if not (t == tau or unsolved_at_timeout and 0.0 <= t
                        and (quantize_ms(t) <= tau or t == written)):
                    return k, _refusal(status, t, tau)
                stored = tau
            else:
                return k, f"unknown status {status!r}"
            if not obj > ninf:  # NaN is not either
                return k, f"obj must be finite or +inf, got {obj!r}"
            p = at.get(iid)
            if p is None:
                p = self.instance(iid)
            col = cols.get(sid) or cols.setdefault(sid, _Solver(sid, self.size))
            column = col.statuses
            if column[p] is not None:
                return k, SECOND_RUN
            col.times[p], column[p], col.objs[p] = stored, status, obj
            if (status is _SOLVED and kinds[p] is not _DECISION if obj == inf
                    else kinds[p] is _DECISION):
                loose.append((p, col))
        return k + 1, None

    def hold(self, iid: str, sid: str) -> bool:
        """Hold a known pair's place for a refused run, so that it is not also missing; False,
        holding nothing, when the pair has a run."""
        statuses, p = self.cols[sid].statuses, self.at[iid]
        if statuses[p] is not None:
            return False
        statuses[p] = _REJECTED
        return True

    def has_run(self, iid: str, sid: str) -> bool:  # a run, placed or held
        p, col = self.at.get(iid), self.cols.get(sid)
        return p is not None and col is not None and col.statuses[p] is not None

    def close_runs(self, optimization: Iterable[str] = ()) -> None:
        """The checks that span runs; the instances named in optimization are optimization ones."""
        at, optimization = self.at, set(optimization)
        kinds = self.kinds = [k or (_OPTIMIZATION if i in optimization else _DECISION)
                              for i, k in zip(at, self.kinds)]
        self.ids = tuple(at)
        self.instances = self.instances or tuple(map(Instance, self.ids, kinds))
        self.solvers = self.solvers or tuple(self.cols)
        loose, self.loose = self.loose, []
        for p, col in loose:
            decision, obj = kinds[p] is _DECISION, col.objs[p]
            if obj != _INF if decision else col.statuses[p] is _SOLVED and obj == _INF:
                self._flag("BadOutcome", "decision instance outcomes must have obj = +inf"
                           if decision else "solved optimization run must have a finite obj",
                           f"({self.ids[p]}, {col.id})")
        for what, ids in (("instances", self.instances), ("solvers", self.solvers)):
            if not ids:
                self._flag("EmptyScenario", f"scenario has no {what}")
        if any(col.statuses.count(None) > self.size - len(at) for col in self.cols.values()):
            # Each pair once, in instance then solver order: a repeated given id has one place.
            for p, iid in enumerate(self.ids):
                for col in self.cols.values():
                    if col.statuses[p] is None:
                        self._flag("MissingOutcome", "no recorded run for this pair",
                                   f"({iid}, {col.id})")

    def events(self, iids: Iterable[str], sids: Iterable[str], ts: Iterable[float],
               vs: Iterable[float]) -> int:
        """Append events in order, each to its pair's; the number taken, short of the block's
        length only at the first event whose pair has no run.

        Each time is snapped to the millisecond grid. An event that breaks a rule
        (a time in [0, timeout), a finite objective, within a pair strictly
        increasing times and strictly decreasing objectives) is taken, the breach
        added to its pair's problems. A decision instance's pair takes no event.
        """
        at, cols, kinds, tau = self.at, self.cols, self.kinds, self.timeout_s
        k, p = -1, None
        col = last = times = objs = pos = iid_was = sid_was = None
        for k, iid, sid, t, v in zip(count(), iids, sids, ts, vs):
            if iid != iid_was or sid != sid_was:  # another pair's event
                iid_was, sid_was = iid, sid
                p, col = at.get(iid), cols.get(sid)
                if p is None or col is None:
                    return k
                last = col.last[p]
                if last is None:  # a file's pair, at its first event
                    if col.statuses[p] is None:
                        return k
                    self.opened += p, col
                    last = col.last[p] = _EMPTY if kinds[p] is _OPTIMIZATION else _REFUSED
                times, objs, pos = col.ev_t, col.ev_v, col.ev_p
            if last == _REFUSED:
                continue
            try:
                t = round(t * 1000.0) / 1000.0
            except (OverflowError, ValueError):  # no millisecond count: left for the time rule
                pass
            if not 0.0 <= t < tau:
                self._problems(p, col)[0].append(f"event time {t} outside [0, timeout)")
            if v - v:  # NaN, so true, unless v is finite
                self._problems(p, col)[0].append("event objectives must be finite")
            if last >= 0:
                if not times[last] < t:
                    self._problems(p, col)[1].append("event times must be strictly increasing")
                if not objs[last] > v:
                    self._problems(p, col)[1].append(
                        "event objectives must be strictly decreasing")
            last = col.last[p] = len(times)
            times.append(t)
            objs.append(v)
            pos.append(p)
        return k + 1

    def _problems(self, p: int, col: _Solver) -> tuple[list[str], list[str]]:
        """The pair's problems so far: of single events, and between consecutive ones."""
        return self.problems.setdefault((p, col), ([], []))

    def trajectory(self, iid: str, sid: str, traj: Trajectory) -> None:
        """Take a complete Trajectory's events and check the pair at once. An event that is
        not two numbers is taken as a problem of the pair, and the rest are still checked."""
        p, col = self.at.get(iid), self.cols.get(sid)
        if p is None or col is None:
            self._flag("UnknownId", "trajectory recorded for a pair outside the scenario",
                       f"({iid}, {sid})")
        elif col.last[p] is not None:
            self._flag("DuplicateId", "trajectory recorded twice for this pair", f"({iid}, {sid})")
        else:
            col.last[p] = _EMPTY if self.kinds[p] is _OPTIMIZATION else _REFUSED
            ts, vs = [], []
            for event in traj.events:
                try:
                    t, v = map(float, event)
                except (TypeError, ValueError):
                    self._problems(p, col)[0].append(f"event {event!r} is not two numbers")
                    continue
                ts.append(t)
                vs.append(v)
            self.events(repeat(iid), repeat(sid), ts, vs)
            self._close(p, col)

    def _close(self, p: int, col: _Solver) -> None:
        """Flag the pair's problems, its own and those against its run."""
        last = col.last[p]
        if last == _REFUSED:
            found = ["trajectory recorded for a decision instance"]
        else:
            single, between = self.problems.pop((p, col), ((), ())) if self.problems else ((), ())
            found = [*single, *between]
            status = col.statuses[p]
            if status is _SOLVED and last >= 0 and col.times[p] < col.ev_t[last]:
                found.append("solved run ends before the last event")
            if status is not None and status is not _REJECTED:
                if last >= 0 and col.ev_v[last] != col.objs[p]:
                    found.append("last event objective differs from the run outcome")
                if last < 0 and math.isfinite(col.objs[p]):
                    found.append("run found a solution but the trajectory is empty")
        for message in found:
            self._flag("InconsistentTrajectory", message, f"({self.ids[p]}, {col.id})")

    def scenario(self, scenario_id: str) -> Scenario:
        """Check the file's pairs, then raise the violations or build the scenario."""
        for p, col in zip(self.opened[::2], self.opened[1::2]):
            last = col.last[p]
            if (self.problems or last < 0 or col.ev_v[last] != col.objs[p]
                    or col.statuses[p] is _SOLVED and col.times[p] < col.ev_t[last]):
                self._close(p, col)  # else a pair _close finds nothing wrong with
        self.opened.clear()  # so each solver's lists go once its columns are made
        if self.violations:
            raise ValidationError(self.violations)
        ids, n = self.ids, len(self.ids)
        runs, trajs = ({}, {}, {}), ({}, {}, {})
        for s in self.solvers:
            col = self.cols.pop(s)
            for store, column in zip(runs, (col.times, col.statuses, col.objs)):
                store[s] = tuple(islice(column, n))
            pos = col.ev_p
            if any(map(operator.gt, pos, islice(pos, 1, None))):  # not in instance order
                order = sorted(range(len(pos)), key=pos.__getitem__)
                col.ev_t, col.ev_v, pos = ([c[k] for k in order] for c in (col.ev_t, col.ev_v, pos))
            trajs[0][s], trajs[1][s] = tuple(col.ev_t), tuple(col.ev_v)
            trajs[2][s] = tuple(accumulate(map(Counter(pos).get, range(n), repeat(0)), initial=0))
        return Scenario(scenario_id, self.instances, self.solvers, self.timeout_s,
                        Runs(ids, *runs), Trajectories(ids, *trajs))


# Comparisons read off the recorded runs alone: head2head and runtime-dist load
# no scoring module. harness and metrics import them from here.

def require_solvers(scenario: Scenario, solvers: Iterable[str]) -> None:
    """Raise UnknownSolver for the first of solvers the scenario does not have."""
    for s in solvers:
        if s not in scenario.solvers:
            raise UnknownSolver(f"solver {s!r} is not part of scenario {scenario.id!r}")


def _require_pair(scenario: Scenario, solver_a: str, solver_b: str) -> None:
    """SameSolver for a solver named twice, else UnknownSolver for one not in the scenario."""
    if solver_a == solver_b:
        raise SameSolver(f"cannot compare solver {solver_a!r} with itself")
    require_solvers(scenario, (solver_a, solver_b))


@dataclass(frozen=True)
class HeadToHead:
    solver_a: str
    solver_b: str
    a_faster: int
    b_faster: int
    ties: int


def head_to_head(scenario: Scenario, solver_a: str, solver_b: str) -> HeadToHead:
    """Count instances each solver finished strictly faster; equal times tie."""
    _require_pair(scenario, solver_a, solver_b)
    ta, tb = scenario.outcomes.ms[solver_a], scenario.outcomes.ms[solver_b]
    a, b = sum(map(operator.lt, ta, tb)), sum(map(operator.lt, tb, ta))
    return HeadToHead(solver_a, solver_b, a, b, len(ta) - a - b)


def runtime_distribution(scenario: Scenario, solver: str) -> list[float]:
    """Ascending runtimes of the instances the solver actually solved."""
    require_solvers(scenario, (solver,))
    runs = scenario.outcomes
    times = sorted(ms for ms, st in zip(runs.ms[solver], runs.statuses[solver]) if st is _SOLVED)
    return [ms / 1000.0 for ms in times]
