"""Reading run data, and the package's JSON encoding.

The canonical runs file is a CSV with columns
``instance_id,solver_id,status,time_s[,obj]``; objective trajectories live in
a sibling ``<stem>_trajectories.csv`` with columns
``instance_id,solver_id,t_s,obj``. Both are read a block of rows at a time
(_blocks), by columns up to its first bad cell (_Cut), into ScenarioBuilder.

Every command reads through this module, so it holds only that path. The
rest of the module's names live where only their users load them, and are
read through here on first use (PEP 562), each then bound here: the scenario
writer (emit_scenario) in writer, used by gen; the report (build_report,
emit_report) in report, used by score; and the attribute-relation reader
(parse_aslib_runs, for ASlib's ``algorithm_runs.arff``) in aslib.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from contextlib import contextmanager
from itertools import accumulate, compress, count, islice
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import _forwarder
from .errors import RowError, SchemaError
from .scenario import SECOND_RUN, RunStatus, Scenario, ScenarioBuilder, check_timeout

if TYPE_CHECKING:  # reading runs loads no scoring module
    from .harness import RankEntry

__all__ = [
    "build_report",
    "emit_report",
    "emit_scenario",
    "parse_aslib_runs",
    "parse_runs",
    "trajectories_path_for",
]

# The names defined off the reading path, under the module that defines each.
__getattr__ = _forwarder(globals(), {"emit_scenario": "writer", "build_report": "report",
                                     "emit_report": "report", "parse_aslib_runs": "aslib"})


_STATUS_IN = {"ok": RunStatus.SOLVED, "timeout": RunStatus.TIMEOUT,
              "memout": RunStatus.ERROR, "crash": RunStatus.ERROR}
_STATUS_OUT = {RunStatus.SOLVED: "ok", RunStatus.TIMEOUT: "timeout", RunStatus.ERROR: "crash"}

_RUN_FIELDS = ("instance_id", "solver_id", "status", "time_s")
_TRAJ_FIELDS = ("instance_id", "solver_id", "t_s", "obj")


def trajectories_path_for(runs_path: str | Path) -> Path:
    p = Path(runs_path)
    return p.with_name(p.stem + "_trajectories" + p.suffix)


@contextmanager
def _open(path: str | Path, mode: str = "r"):
    """The file as UTF-8 whatever the locale, past any leading BOM; a SchemaError if not UTF-8."""
    with open(path, mode, encoding="utf-8-sig" if mode == "r" else "utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None


def parse_runs(
    path: str | Path,
    timeout_s: float,
    trajectories_path: str | Path | None = None,
    scenario_id: str | None = None,
) -> Scenario:
    """Load a runs CSV (plus optional trajectory sibling) into a scenario.

    Instances appear in file order, solvers in order of first appearance;
    an instance counts as optimization when any of its rows carries a
    non-empty obj cell. Unsolved rows have their recorded time replaced by
    the timeout. Rows with other than the header's number of cells, time_s
    beyond the timeout, unknown statuses, or duplicate (instance, solver)
    pairs are rejected with their line number; the checks that span rows
    follow the last row.

    Rows are read a block at a time (_blocks), their cells converted column by
    column up to the block's first bad cell (_Cut). ScenarioBuilder.runs judges
    and places the runs before it; a run it refuses is a RowError naming its
    line, with the builder's reason, and then comes the bad cell's RowError.
    So the first failing line and its message are those of a row-by-row read.
    The trajectory file goes the same way, through ScenarioBuilder.events.
    """
    path = Path(path)
    timeout_s = check_timeout(timeout_s)
    with _open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file, expected a runs CSV header")
        fields = _header(path, header)
        missing = set(_RUN_FIELDS) - set(fields)
        extra = set(fields) - set(_RUN_FIELDS) - {"obj"}
        if missing or extra:
            raise SchemaError(
                f"{path}: header must be instance_id,solver_id,status,time_s[,obj];"
                f" missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        cells = (*(fields.index(f) for f in _RUN_FIELDS),
                 fields.index("obj") if "obj" in fields else None)
        builder, opt, width = ScenarioBuilder(timeout_s), set(), len(fields)
        for rows, lines in _blocks(reader):
            _take_runs(builder, opt, width, cells, rows, lines)
            del rows, lines  # freed before _blocks reads the next block

    builder.close_runs(opt)
    _read_trajectories(builder, path, trajectories_path)
    return builder.scenario(scenario_id or path.stem)


_BLOCK = 256  # rows read, checked and placed at a time


def _blocks(reader):
    """The reader's rows a block at a time, with the lines they end on. An error in reading
    (csv's, text that is not UTF-8, or a SchemaError from the reader's lines) is raised after
    the rows read before it are taken, as it would be one row at a time."""
    while True:
        first, rows = reader.line_num, []
        try:
            rows.extend(islice(reader, _BLOCK))
        except (csv.Error, SchemaError, UnicodeDecodeError):
            if rows:
                yield rows, _row_lines(rows, first, None)
            raise
        if not rows:
            return
        yield rows, _row_lines(rows, first, reader.line_num)


def _row_lines(rows: list[list[str]], first: int, last: int | None) -> Sequence[int]:
    """The line each row ends on, counted from first; last is the last row's, when known.

    A row spans one line plus one per line break inside its quoted cells,
    as csv's line_num counts them.
    """
    if last is not None and last - first == len(rows):
        return range(first + 1, last + 1)
    spans = (1 + sum(c.count("\n") + c.count("\r") - c.count("\r\n") for c in row)
             for row in rows)
    return list(accumulate(spans, initial=first))[1:]


class _Cut:
    """A block's first bad row so far, and why: the first cell rule that row fails.

    A converter checks one cell rule at a time over a column, in the order a
    row's cells are checked, and each only on the rows before the cut. So the
    row left at the cut is the block's first bad row, and the message names
    the first rule it fails. The rows before it go to the builder first, so
    a refusal among them comes before the cut's RowError (raise_at). A blank
    line has no row, but counts: its empty row goes with its line, at the width check.
    """

    def __init__(self, rows: list[list[str]], lines: Sequence[int], width: int):
        self.at, self.why, self.lines = len(rows), None, lines
        self.columns = list(zip(*rows))  # of the rows before the cut
        if len(self.columns) != width or sum(map(len, rows)) != width * len(rows):
            rows, self.lines = list(filter(None, rows)), list(compress(lines, rows))
            self.at = len(rows)
            widths = list(map(len, rows))
            self.first(list(map(width.__eq__, widths)), False,
                       f"expected {width} fields, got {{}}", widths)
            self.columns = list(zip(*rows[:self.at])) or [()] * width

    def to(self, j: int, why: str, cells: Sequence[str], at: Sequence[int] | None = None) -> None:
        """Cut at the row of cells[j] (at[j], or j) if it is before the cut, why naming it."""
        k = j if at is None else at[j]
        if k < self.at:
            self.at, self.why = k, why.format(cells[j])

    def first(self, values: list, bad: object, why: str, cells: Sequence[str],
              at: Sequence[int] | None = None) -> None:
        """Cut at the row of the first value that is bad, if it is before the cut."""
        if bad in values:
            self.to(values.index(bad), why, cells, at)

    def floats(self, cells: Sequence[str], why: str, at: Sequence[int] | None = None,
               infinite: str | None = None) -> list[float]:
        """The cells as floats, at least those of the rows before the cut; at[j] is the row of
        cells[j] (j by default). The cut moves to the first that is no float, why naming it,
        and then, with infinite, to the first that is not finite."""
        values: list[float] = []
        try:
            values.extend(map(float, cells if self.why is None else islice(cells, self.at)))
        except ValueError:
            self.to(len(values), why, cells, at)
        if infinite and not math.isfinite(sum(values)):  # each is finite, short of an overflow
            self.first(list(map(math.isfinite, values)), False, infinite, cells, at)
        return values

    def raise_at(self) -> None:
        if self.why is not None:
            raise RowError(self.lines[self.at], self.why)


def _take_runs(builder: ScenarioBuilder, opt: set[str], width: int, cells: tuple,
               rows: list[list[str]], lines: Sequence[int]) -> None:
    """Place a block of runs rows by columns up to its first bad cell, then raise that cell's
    RowError. An instance with an obj cell goes to opt."""
    c_inst, c_solver, c_status, c_time, c_obj = cells
    cut = _Cut(rows, lines, width)
    columns = cut.columns
    iids = list(map(str.strip, columns[c_inst]))
    sids = list(map(str.strip, columns[c_solver]))
    for ids in (iids, sids):
        cut.first(ids, "", "instance_id and solver_id must be non-empty", ids)
    status_cells = columns[c_status]  # a block holds few distinct ones: each is read once
    status_of = {c: _STATUS_IN.get(c.strip().lower()) for c in set(status_cells)}
    statuses = list(map(status_of.__getitem__, status_cells))
    if None in status_of.values():
        read = list(map(str.lower, map(str.strip, status_cells)))  # as the message names it
        cut.first(statuses, None, f"unknown status {{!r}}; expected one of {sorted(_STATUS_IN)}",
                  read)
    times = cut.floats(columns[c_time], "unparseable time_s {!r}")
    obj_cells = list(map(str.strip, columns[c_obj])) if c_obj is not None else ()
    objs = [math.inf] * len(iids)  # an empty obj cell reads as +inf, the one object
    filled = list(compress(count(), obj_cells))
    deque(map(objs.__setitem__, filled, cut.floats(
        list(filter(None, obj_cells)), "unparseable obj {!r}", filled)), maxlen=0)
    _place_runs(builder, cut.lines, iids[:cut.at], sids, times, statuses, objs)
    cut.raise_at()
    opt.update(compress(iids, obj_cells))


def _place_runs(builder: ScenarioBuilder, lines: Sequence[int], iids: list[str], sids: list[str],
                times, statuses, objs) -> None:
    """Hand the runs of iids to the builder; a RowError naming the first it refuses, and why."""
    k, why = builder.runs(iids, sids, times, statuses, objs, True)  # unsolved_at_timeout
    if why is not None:
        raise RowError(lines[k], f"duplicate row for ({iids[k]}, {sids[k]})"
                       if why == SECOND_RUN else why)


def _header(path: str | Path, header: list[str]) -> list[str]:
    """The header's column names, each of which must appear once."""
    fields = [f.strip() for f in header]
    for name in fields:
        if fields.count(name) > 1:
            raise SchemaError(f"{path}: column {name!r} appears more than once in the header")
    return fields


def _read_trajectories(builder: ScenarioBuilder, runs_path: Path,
                       trajectories_path: str | Path | None) -> None:
    """Hand the trajectory file's events to builder in file order, a block of rows at a time."""
    if trajectories_path is None:
        candidate = trajectories_path_for(runs_path)
        if not candidate.exists():
            return
        trajectories_path = candidate
    with _open(trajectories_path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return
        fields = _header(trajectories_path, header)
        if set(fields) != set(_TRAJ_FIELDS):
            raise SchemaError(
                f"{trajectories_path}: header must be instance_id,solver_id,t_s,obj"
            )
        cells, width = tuple(fields.index(f) for f in _TRAJ_FIELDS), len(fields)
        for rows, lines in _blocks(reader):
            _take_events(builder, width, cells, rows, lines)
            del rows, lines  # freed before _blocks reads the next block


def _take_events(builder: ScenarioBuilder, width: int, cells: tuple, rows: list[list[str]],
                 lines: Sequence[int]) -> None:
    """Hand a block of trajectory rows to the builder by columns up to its first bad cell, then
    raise that cell's RowError. A row's cells are judged only when its pair has a run: a row
    of no run is named as such, before its cells."""
    cut = _Cut(rows, lines, width)
    iids, sids, ts, vs = (cut.columns[c] for c in cells)
    iids = list(map(str.strip, iids))
    sids = list(map(str.strip, sids))
    ts = cut.floats(ts, "unparseable time_s {!r}", infinite="time_s must be finite, got {!r}")
    vs = cut.floats(vs, "unparseable obj {!r}")
    k = builder.events(islice(iids, cut.at), sids, ts, vs)
    # The builder stops at a row of no run; the cut's row may be one too.
    if k < len(iids) and (k < cut.at or not builder.has_run(iids[k], sids[k])):
        raise RowError(cut.lines[k], f"trajectory row for unknown pair {(iids[k], sids[k])!r}")
    cut.raise_at()


def json_text(payload: object) -> str:
    """The package's one JSON encoding: keys sorted, two-space indent, a final newline."""
    import json  # only JSON output loads it

    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def ranking_json(ranking: Sequence[RankEntry]) -> list[dict]:
    return [{"solver": e.solver_id, "score": e.score, "position": e.position, "tied": e.tied}
            for e in ranking]
