"""Writing a scenario as the runs CSV, and trajectory CSV, that io.parse_runs reads.

Of the commands, only gen writes a scenario; solvereval.io.emit_scenario loads
this module on first use, so the commands that only read run data do not
compile it.
"""

from __future__ import annotations

import csv
from io import StringIO
from pathlib import Path
from typing import Sequence

from .errors import SchemaError
from .io import _RUN_FIELDS, _STATUS_OUT, _TRAJ_FIELDS, _open, trajectories_path_for
from .scenario import InstanceKind, Scenario

__all__ = ["emit_scenario"]


def emit_scenario(
    scenario: Scenario,
    runs_path: str | Path,
    trajectories_path: str | Path | None = None,
) -> list[Path]:
    """Write a scenario as runs CSV, and a trajectory CSV when it has trajectories.

    Inverse of parse_runs: parsing the written files with the same timeout
    reproduces the scenario field for field. So a scenario the files cannot
    hold is refused with a SchemaError naming the first instance that records
    a best_known_obj (a runs file has no place for one), or the first
    instance or solver id that is empty or has space around it (the reader
    strips it), before any file is opened. A trajectory file already at the
    target is overwritten, header only when there is none, so that no older
    scenario's events are read back beside these runs.
    """
    for inst in scenario.instances:
        _check_id("instance", inst.id)
        if inst.best_known_obj is not None:
            raise SchemaError(f"instance {inst.id!r} records best_known_obj "
                              f"{inst.best_known_obj!r}, which a runs file has no place for")
    for s in scenario.solvers:
        _check_id("solver", s)
    runs_path = Path(runs_path)
    icells, scells = _cells(scenario.instance_ids), _cells(scenario.solvers)
    with _open(runs_path, "w") as fh:
        _write_runs(fh, scenario, icells, scells)
    tpath = Path(trajectories_path) if trajectories_path else trajectories_path_for(runs_path)
    if not any(scenario.trajectories.times.values()) and not tpath.exists():
        return [runs_path]
    with _open(tpath, "w") as fh:
        _write_trajectories(fh, scenario, icells, scells)
    return [runs_path, tpath]


def _check_id(what: str, iid: str) -> None:
    """A SchemaError unless the id reads back as itself: the reader strips its cells and
    refuses an empty id."""
    if not iid or iid != iid.strip():
        raise SchemaError(f"{what} id {iid!r} would not read back as itself: a runs file"
                          " strips the space around an id and has no empty one")


def _cells(values: Sequence[str]) -> list[str]:
    """Each value as csv.writer writes it as a cell of a row, quoted where it must be.

    The writer's line terminator is "\r\n", so that a value with a lone
    carriage return is quoted too: the reader ends a row at one.
    """
    buf, cells = StringIO(), []
    writer = csv.writer(buf, lineterminator="\r\n")
    for v in values:
        writer.writerow((v, ""))  # the empty last cell is written as nothing: "<cell>,\r\n"
        cell = buf.getvalue()[:-3]
        cells.append(v if cell == v else cell)  # an id as it is when it needs no quotes
        buf.seek(0)
        buf.truncate()
    return cells


def _write_runs(fh, scenario: Scenario, icells: list[str], scells: list[str]) -> None:
    """The runs rows, one formatted string each, an instance's rows written at once.

    A float obj cell is the float's repr, as csv writes it: +inf reads back as inf.
    """
    decision = InstanceKind.DECISION
    has_opt = any(i.kind is not decision for i in scenario.instances)
    fh.write(",".join((*_RUN_FIELDS, "obj") if has_opt else _RUN_FIELDS) + "\n")
    runs, status = scenario.outcomes, _STATUS_OUT
    cols = [(sc, runs.statuses[s], runs.times[s], runs.objs[s])
            for s, sc in zip(scenario.solvers, scells)]
    end = ",\n" if has_opt else "\n"  # a decision instance's empty obj cell
    for p, (icell, inst) in enumerate(zip(icells, scenario.instances)):
        if inst.kind is decision:
            rows = [f"{icell},{sc},{status[st[p]]},{ts[p]:.3f}{end}" for sc, st, ts, _ in cols]
        else:
            rows = [f"{icell},{sc},{status[st[p]]},{ts[p]:.3f},{os[p]}\n"
                    for sc, st, ts, os in cols]
        fh.write("".join(rows))


def _write_trajectories(fh, scenario: Scenario, icells: list[str], scells: list[str]) -> None:
    """The trajectory rows, pair by pair in instance then solver order, an instance's at once."""
    fh.write(",".join(_TRAJ_FIELDS) + "\n")
    tr = scenario.trajectories
    cols = [(sc, tr.times[s], tr.objs[s], tr.offsets[s]) for s, sc in zip(scenario.solvers, scells)]
    for p, icell in enumerate(icells):
        fh.write("".join([f"{icell},{sc},{ts[e]:.3f},{vs[e]}\n" for sc, ts, vs, offsets in cols
                          for e in range(offsets[p], offsets[p + 1])]))
