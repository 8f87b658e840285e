"""The library route from hand-built mappings to a checked scenario.

validate_scenario checks a raw Scenario, whose runs and trajectories may be
any mappings, and builds its column stores through ScenarioBuilder, the one
judge of runs and events. build_scenario and restrict go through it. No
command calls them: the readers and the generator fill a ScenarioBuilder
directly. solvereval.scenario reads these names from here on first use.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable, Mapping, Sequence

from .errors import EmptyRestriction, UnknownInstance, ValidationError, Violation
from .scenario import (SECOND_RUN, Instance, InstanceKind, RunOutcome, RunStatus, Scenario,
                       ScenarioBuilder, Trajectory, check_timeout)

__all__ = ["build_scenario", "restrict", "validate_scenario"]


def _coerce_instance(item: object) -> Instance:
    if isinstance(item, Instance):
        kind = InstanceKind(item.kind)
        best = None if item.best_known_obj is None else float(item.best_known_obj)
        return Instance(str(item.id), kind, best)
    return Instance(str(item))


class _NoNumber(float):
    """A time_s or obj of no number type: NaN to the builder, shown by the value's repr."""

    def __new__(cls, value: object):
        self = super().__new__(cls, math.nan)
        self.value = value
        return self

    def __repr__(self) -> str:
        return repr(self.value)


def _coerce_run(out: RunOutcome) -> tuple[object, object, object]:
    """A recorded run's (time_s, status, obj) for ScenarioBuilder.runs: the status by its
    value, obj None as +inf, a time_s or obj of no number type as a _NoNumber."""
    t, obj = out.time_s, out.obj
    try:
        status = RunStatus(out.status)
    except ValueError:
        status = out.status
    try:
        obj = math.inf if obj is None else float(obj)
    except (TypeError, ValueError):
        obj = _NoNumber(obj)
    return t if isinstance(t, (int, float)) else _NoNumber(t), status, obj


def validate_scenario(raw: Scenario) -> Scenario:
    """Check every model invariant and return a normalized scenario.

    Normalization: ids to str, statuses and kinds to enums, solved run times
    and trajectory times snapped to the millisecond grid, containers to
    tuples and column stores. Raises ValidationError carrying all violations
    found; a bad timeout skips the run and trajectory checks, which need it.
    ScenarioBuilder judges repeated instance and solver ids, runs and trajectories.
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

    builder = ScenarioBuilder(timeout, tuple(instances), map(str, raw.solvers), violations)
    for key, out in raw.outcomes.items():
        i, s = str(key[0]), str(key[1])
        where = f"({i}, {s})"
        if i not in builder.at or s not in builder.cols:
            flag("UnknownId", "outcome recorded for a pair outside the scenario", where)
            continue
        # With a bad timeout no run can be judged, and each only holds its pair's place.
        why = builder.runs((i,), (s,), *zip(_coerce_run(out)))[1] if timeout_ok else ""
        if why and why != SECOND_RUN:
            flag("BadOutcome", why, where)
        if why == SECOND_RUN or why is not None and not builder.hold(i, s):
            flag("DuplicateId", "outcome recorded twice for this pair", where)
    builder.close_runs()
    for key, traj in (raw.trajectories or {}).items() if timeout_ok else ():
        builder.trajectory(str(key[0]), str(key[1]), traj)
    return builder.scenario(str(raw.id))


def build_scenario(
    scenario_id: str,
    instances: Iterable[Instance | str],
    solvers: Iterable[str],
    timeout_s: float,
    outcomes: Mapping[tuple[str, str], RunOutcome],
    trajectories: Mapping[tuple[str, str], Trajectory] | None = None,
) -> Scenario:
    """Assemble and validate a scenario in one step."""
    return validate_scenario(Scenario(scenario_id, tuple(instances), tuple(solvers), timeout_s,
                                      dict(outcomes), dict(trajectories or {})))


def restrict(scenario: Scenario, instance_ids: Sequence[str]) -> Scenario:
    """Project a scenario onto a subset of its instances.

    Keeps the scenario's instance order; solvers and timeout are unchanged.
    Cross-validation copies no fold: evaluate reads each off the metric's columns.
    """
    kept = set(instance_ids)
    if not kept:
        raise EmptyRestriction("restriction needs at least one instance")
    missing = sorted(kept.difference(scenario.position_map))
    if missing:
        raise UnknownInstance(f"unknown instances: {', '.join(missing)}")
    return validate_scenario(replace(
        scenario, instances=tuple(inst for inst in scenario.instances if inst.id in kept),
        outcomes={k: v for k, v in scenario.outcomes.items() if k[0] in kept},
        trajectories={k: v for k, v in scenario.trajectories.items() if k[0] in kept},
    ))
