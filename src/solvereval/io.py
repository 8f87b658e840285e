"""Reading run data and writing scenarios and reports.

The canonical runs file is a CSV with columns
``instance_id,solver_id,status,time_s[,obj]``; objective trajectories live in
a sibling ``<stem>_trajectories.csv`` with columns
``instance_id,solver_id,t_s,obj``. Attribute-relation run tables (ASlib's
``algorithm_runs.arff``) are read too, the same way: a block of rows at a time
(_blocks), by columns up to its first bad cell (_Cut), into ScenarioBuilder.
"""

from __future__ import annotations

import csv
import json
import math
import warnings as _warnings
from collections import deque
from contextlib import contextmanager
from io import StringIO
from itertools import accumulate, compress, count, islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from . import __version__
from .errors import RowError, SchemaError, UnsupportedAttribute
from .scenario import (SECOND_RUN, InstanceKind, RunStatus, Scenario, ScenarioBuilder,
                       check_timeout, quantize_ms)

if TYPE_CHECKING:  # reading and writing scenarios loads no scoring module
    from .harness import EvaluationResult, RankEntry

__all__ = [
    "build_report",
    "emit_report",
    "emit_scenario",
    "parse_aslib_runs",
    "parse_runs",
    "trajectories_path_for",
]

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
    read = list(map(str.lower, map(str.strip, columns[c_status])))  # stripped and lowered
    statuses = list(map(_STATUS_IN.get, read))
    cut.first(statuses, None, f"unknown status {{!r}}; expected one of {sorted(_STATUS_IN)}", read)
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


def parse_aslib_runs(
    path: str | Path,
    timeout_s: float,
    scenario_id: str | None = None,
) -> Scenario:
    """Best-effort reader for attribute-relation run tables.

    Requires the attributes instance_id, repetition, algorithm, runtime, and
    runstatus, checked at the @data line; an attribute after it, or a line
    before it that is not blank, a % comment, @relation or @attribute, is a
    SchemaError. Only repetition 1 is kept (others are ignored with a
    warning). runstatus ok maps to solved, memout and crash to error,
    anything else to timeout. An unsolved run, and an ok run not before the
    timeout once snapped, is scored at the timeout; a negative runtime is a
    RowError. The data lines, each read by csv on its own, then go the way
    of a runs CSV's rows.
    """
    path = Path(path)
    timeout_s = check_timeout(timeout_s)
    builder, skipped_repetitions = ScenarioBuilder(timeout_s), 0
    with _open(path) as fh:
        col, header_lines = _aslib_header(path, fh)
        for rows, lines in _blocks(csv.reader(_aslib_data(path, fh, header_lines))):
            skipped_repetitions += _take_aslib(builder, col, rows, lines)
            del rows, lines  # freed before _blocks reads the next block

    if skipped_repetitions:
        _warnings.warn(
            f"{path}: ignored {skipped_repetitions} row(s) with repetition != 1",
            UserWarning,
            stacklevel=2,
        )
    builder.close_runs()
    return builder.scenario(scenario_id or path.stem)


_ASLIB_REQUIRED = ("instance_id", "repetition", "algorithm", "runtime", "runstatus")


def _aslib_header(path: Path, fh) -> tuple[dict[str, int], int]:
    """Each required attribute's position, from the lines up to the @data line (or the end);
    and the number of lines read. No attribute may repeat, be missing or be another."""
    attrs: list[str] = []
    line_no = 0
    for line_no, raw in enumerate(fh, start=1):
        line = raw.strip()
        low = line.lower()
        if not line or line.startswith("%") or low.startswith("@relation"):
            continue
        if low.startswith("@data"):
            break
        if not low.startswith("@attribute"):
            raise SchemaError(f"{path}: line {line_no} comes before @data and is not "
                              "blank, a comment, @relation or @attribute")
        parts = line.split(None, 2)
        if len(parts) < 2:
            raise SchemaError(f"{path}: malformed attribute on line {line_no}")
        attrs.append(parts[1].strip().strip("'\"").lower())
    _header(path, attrs)
    missing = [a for a in _ASLIB_REQUIRED if a not in attrs]
    if missing:
        raise SchemaError(f"{path}: missing attributes {missing}")
    extra = [a for a in attrs if a not in _ASLIB_REQUIRED]
    if extra:
        raise UnsupportedAttribute(f"{path}: unsupported attributes {extra}")
    return {a: attrs.index(a) for a in _ASLIB_REQUIRED}, line_no


def _aslib_data(path: Path, fh, line_no: int):
    """The file's lines, stripped, as csv is to read them: the line_no lines read already and
    each line with no row (blank, a % comment, @relation or @data) as empty ones, and a line
    with a quote re-quoted, so that an open quote is read within its line and not into the
    next. An @attribute line is a SchemaError."""
    yield from repeat("", line_no)
    for line_no, raw in enumerate(fh, start=line_no + 1):
        line = raw.strip()
        if line.startswith(("%", "@")):
            low = line.lower()
            if low.startswith("@attribute"):
                raise SchemaError(f"{path}: attribute on line {line_no} follows @data")
            if line[0] == "%" or low.startswith(("@relation", "@data")):
                line = ""
        if '"' in line:
            line = ",".join(['"' + c.replace('"', '""') + '"' for c in next(csv.reader((line,)))])
        yield line


def _take_aslib(builder: ScenarioBuilder, col: dict[str, int], rows: list[list[str]],
                lines: Sequence[int]) -> int:
    """Place a block's data rows of repetition 1 by columns up to its first bad cell, then
    raise that cell's RowError; the number of rows of another repetition. A cell is read
    stripped, of space and then of quotes."""
    cut = _Cut(rows, lines, len(col))
    cells = {a: list(map(str.strip, map(str.strip, cut.columns[c]), repeat("'\"")))
             for a, c in col.items()}
    why = "unparseable repetition {!r}"
    reps = cut.floats(cells["repetition"], why, infinite=why)
    keep = list(map((1).__eq__, map(int, reps[:cut.at])))
    kept = list(compress(count(), keep))  # the rows of repetition 1: their runtimes are read
    times = cut.floats(list(compress(cells["runtime"], keep)), "unparseable time_s {!r}", kept,
                       infinite="time_s must be finite, got {!r}")
    keep = keep[:cut.at]
    tau, solved, timeout = builder.timeout_s, RunStatus.SOLVED, RunStatus.TIMEOUT
    statuses = map(_STATUS_IN.get, map(str.lower, cells["runstatus"]), repeat(timeout))
    # An ok run not before the timeout once snapped is a timeout. An unsolved run is scored at
    # the timeout; a negative runtime goes as it is, for the builder to refuse.
    statuses = [timeout if s is solved and t >= 0.0 and not quantize_ms(t) < tau else s
                for s, t in zip(compress(statuses, keep), times)]
    times = [t if s is solved or t < 0.0 else tau for s, t in zip(statuses, times)]
    _place_runs(builder, list(compress(cut.lines, keep)),
                list(compress(cells["instance_id"], keep)),
                list(compress(cells["algorithm"], keep)), times, statuses, repeat(math.inf))
    cut.raise_at()
    return keep.count(False)


def build_report(
    scenario: Scenario,
    evaluations: Sequence[EvaluationResult],
    source: str | None = None,
) -> dict:
    """The report of one or more evaluations of the same scenario, as its JSON document.

    It holds only JSON types: score --format json prints it as it is, and
    emit_report renders the table and the CSV from it. With folds, the
    provenance names the fold plan's seed.
    """
    from .harness import rank

    baselines, collected = [], []
    for ev in evaluations:
        for cell in ev.cells:
            b = cell.baseline
            if b is None:
                continue
            baselines.append({
                "repeat": cell.repeat,
                "fold": cell.fold,
                "base_metric": b.base_metric_id,
                "sbs_policy": b.sbs_policy.value,
                "sbs": b.sbs_id,
                "m_vbs": b.m_vbs,
                "m_sbs": b.m_sbs,
                "gap_ratio": b.gap_ratio,
                "vbs_per_instance": dict(b.vbs_per_instance),
                "warnings": list(b.warnings),
            })
            tag = f"[{ev.merged.metric_id} r{cell.repeat} f{cell.fold}] " if ev.fold_plan else ""
            collected.extend(tag + w for w in b.warnings)
    first = evaluations[0] if evaluations else None
    plan = first.fold_plan if first is not None else None
    provenance: dict[str, object] = {
        "tool": "solvereval",
        "version": __version__,
        "timeout_s": scenario.timeout_s,
        "fold_plan": None if plan is None else {
            "k": plan.k, "repeats": plan.repeats, "seed": plan.seed,
        },
        "sbs_policy": first.sbs_policy.value if first is not None else None,
        "aggregation": first.aggregation.value if first is not None else None,
    }
    if source is not None:
        provenance["source"] = source
    if plan is not None:
        provenance["seed"] = plan.seed
    return {
        "scenario": {
            "id": scenario.id,
            "n_instances": len(scenario.instances),
            "solvers": list(scenario.solvers),
            "timeout_s": scenario.timeout_s,
        },
        "metric": [ev.merged.metric_id for ev in evaluations],
        "params": [dict(ev.merged.params) for ev in evaluations],
        "scores": [dict(ev.merged.per_solver) for ev in evaluations],
        "ranking": [ranking_json(rank([ev.merged])) for ev in evaluations],
        "baselines": baselines,
        "warnings": collected,
        "provenance": provenance,
    }


def _param_str(params: Mapping[str, object]) -> str:
    return ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in sorted(params.items()))


def json_text(payload: object) -> str:
    """The package's one JSON encoding: keys sorted, two-space indent, a final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def ranking_json(ranking: Sequence[RankEntry]) -> list[dict]:
    return [{"solver": e.solver_id, "score": e.score, "position": e.position, "tied": e.tied}
            for e in ranking]


def emit_report(report: dict, fmt: str = "table") -> bytes:
    """Render a report (build_report's document) as json, csv (long form), or a text table."""
    if fmt == "json":
        return json_text(report).encode()

    scenario = report["scenario"]
    if fmt == "csv":
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["scenario", "metric", "params", "solver", "score", "rank", "tied"])
        writer.writerows(
            [scenario["id"], m, _param_str(params), e["solver"], repr(e["score"]), e["position"],
             str(e["tied"]).lower()]
            for m, params, ranking in zip(report["metric"], report["params"], report["ranking"])
            for e in ranking
        )
        return buf.getvalue().encode()

    if fmt == "table":
        solvers = scenario["solvers"]
        lines = [
            f"scenario {scenario['id']}: {scenario['n_instances']} instances x "
            f"{len(solvers)} solvers, timeout {scenario['timeout_s']:g} s",
            "",
        ]
        headers = ["solver"]
        columns = []
        for m, params, scores, ranking in zip(
                report["metric"], report["params"], report["scores"], report["ranking"]):
            p = _param_str(params)
            headers.append(f"{m}[{p}]" if p else m)
            values = [scores[sv] for sv in solvers]
            peak = ranking[0]["score"]  # rank has ordered the scores by the metric's direction
            columns.append([f"{v:.4f}{'*' if v == peak else ''}" for v in values])
        rows = list(zip(solvers, *columns))
        widths = [max(len(h), *(len(r[c]) for r in rows)) for c, h in enumerate(headers)]
        lines.append("  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)).rstrip())
        lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        for r in rows:
            cells = [r[0].ljust(widths[0])] + [
                r[c].rjust(widths[c]) for c in range(1, len(headers))
            ]
            lines.append("  ".join(cells).rstrip())
        if report["baselines"]:
            lines.append("")
            lines.append("baselines:")
            for b in report["baselines"]:
                lines.append(
                    f"  repeat {b['repeat']} fold {b['fold']}: base={b['base_metric']} "
                    f"policy={b['sbs_policy']} sbs={b['sbs']} "
                    f"m_sbs={b['m_sbs']:.4f} m_vbs={b['m_vbs']:.4f} gap_ratio={b['gap_ratio']:.4f}"
                )
        if report["warnings"]:
            lines.append("")
            lines.append("warnings:")
            for w in report["warnings"]:
                lines.append(f"  - {w}")
        return ("\n".join(lines) + "\n").encode()

    raise ValueError(f"unknown report format {fmt!r}; use table, json, or csv")
