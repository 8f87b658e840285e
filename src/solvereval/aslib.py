"""Reading attribute-relation run tables (ASlib's ``algorithm_runs.arff``).

The data lines are read as a runs CSV's rows are (io._blocks, io._Cut,
ScenarioBuilder.runs). Only .arff input (or --input-format aslib) reads one;
solvereval.io.parse_aslib_runs loads this module on first use.
"""

from __future__ import annotations

import csv
import math
import warnings as _warnings
from itertools import compress, count, repeat
from pathlib import Path
from typing import Sequence

from .errors import SchemaError, UnsupportedAttribute
from .io import _STATUS_IN, _blocks, _Cut, _header, _open, _place_runs
from .scenario import RunStatus, ScenarioBuilder, check_timeout, quantize_ms

__all__ = ["parse_aslib_runs"]


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
    # Only the rows of repetition 1 have their ids and runtimes read, ids first, as in a runs CSV.
    kept = list(compress(count(), keep))
    ids = [list(compress(cells[a], keep)) for a in ("instance_id", "algorithm")]
    for column in ids:
        cut.first(column, "", "instance_id and solver_id must be non-empty", column, kept)
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
    _place_runs(builder, list(compress(cut.lines, keep)), *ids, times, statuses, repeat(math.inf))
    cut.raise_at()
    return keep.count(False)
