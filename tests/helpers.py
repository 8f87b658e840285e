"""Hand-rolled scenario builders shared by the test modules."""

from __future__ import annotations

import math

from solvereval import (
    Instance,
    InstanceKind,
    RunOutcome,
    RunStatus,
    Scenario,
    build_scenario,
)
from solvereval.io import _STATUS_OUT

TIMEOUT = 100.0


def solved(time_s: float, obj: float = math.inf) -> RunOutcome:
    return RunOutcome(time_s, RunStatus.SOLVED, obj)


def timed_out(timeout_s: float = TIMEOUT, obj: float = math.inf) -> RunOutcome:
    return RunOutcome(timeout_s, RunStatus.TIMEOUT, obj)


def errored(timeout_s: float = TIMEOUT) -> RunOutcome:
    return RunOutcome(timeout_s, RunStatus.ERROR)


def decision_scenario(
    times: dict[str, dict[str, float | None]],
    timeout_s: float = TIMEOUT,
    scenario_id: str = "dec",
) -> Scenario:
    """times[instance][solver] = seconds, or None for an unsolved run."""
    instance_ids = list(times)
    solver_ids = list(times[instance_ids[0]])
    outcomes = {}
    for i, row in times.items():
        for s, t in row.items():
            if t is None or t >= timeout_s:
                outcomes[(i, s)] = RunOutcome(timeout_s, RunStatus.TIMEOUT)
            else:
                outcomes[(i, s)] = RunOutcome(t, RunStatus.SOLVED)
    return build_scenario(scenario_id, instance_ids, solver_ids, timeout_s, outcomes)


def scenario_from(
    cells: dict[tuple[str, str], RunOutcome],
    timeout_s: float = TIMEOUT,
    kinds: dict[str, str] | None = None,
    best_known: dict[str, float] | None = None,
    trajectories: dict | None = None,
    scenario_id: str = "sc",
) -> Scenario:
    """Build a scenario from explicit outcomes, in cell discovery order."""
    instance_ids: list[str] = []
    solver_ids: list[str] = []
    for i, s in cells:
        if i not in instance_ids:
            instance_ids.append(i)
        if s not in solver_ids:
            solver_ids.append(s)
    kinds = kinds or {}
    best_known = best_known or {}
    instances = [
        Instance(i, InstanceKind(kinds.get(i, "decision")), best_known.get(i))
        for i in instance_ids
    ]
    return build_scenario(scenario_id, instances, solver_ids, timeout_s, cells, trajectories)


ARFF_HEADER = (
    "@relation runs\n"
    "@attribute instance_id string\n"
    "@attribute repetition numeric\n"
    "@attribute algorithm string\n"
    "@attribute runtime numeric\n"
    "@attribute runstatus {ok,timeout,memout,crash}\n"
    "@data\n"
)
# Lines that carry no run of repetition 1: each reader skips them ({} is the run's ids).
_NO_RUN_LINES = ("% a comment", "", "   ", "\t", "@relation again", "@data", "@DATA",
                 "{},2,{},junk,ok", "{},3,{},1.0,timeout")


def aslib_runs_text(scenario: Scenario, rng=None) -> tuple[str, int]:
    """A scenario's runs as an attribute-relation table (ASlib's algorithm_runs.arff), in
    instance then solver order, and the number of rows of another repetition in it.

    Each run is repetition 1, its runtime written with three decimals. With a
    random.Random, lines that carry no run of repetition 1 go between the runs
    about one time in three (_NO_RUN_LINES).
    """
    lines, others = [ARFF_HEADER.rstrip("\n")], 0
    for iid in scenario.instance_ids:
        for s in scenario.solvers:
            run = scenario.outcome(iid, s)
            lines.append(f"{iid},1,{s},{run.time_s:.3f},{_STATUS_OUT[run.status]}")
            if rng is not None and rng.random() < 1 / 3:
                line = rng.choice(_NO_RUN_LINES)
                others += line.startswith("{}")
                lines.append(line.format(iid, s))
    return "\n".join(lines) + "\n", others
