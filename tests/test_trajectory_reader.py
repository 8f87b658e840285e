"""The one-pass trajectory reader, against the two-pass reader it replaced.

ref_read_trajectories is the old reader: it collected each pair's raw
(t, obj) events from the file, checking only the cells. ref_assemble is the
old event loop of assemble_scenario, which snapped, checked and built each
trajectory from those lists, or from Trajectory objects. Both are kept here
as they were, but that the proof time is now a solved run's time for either
source, and a pair without events has no trajectory. Files are drawn with faults injected, and the two readers
must raise the same exception type at the same line, or the same
violations in the same order, or build the same scenario.
"""

from __future__ import annotations

import csv
import math
import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from solvereval import (
    InstanceKind,
    RowError,
    RunStatus,
    Trajectory,
    ValidationError,
    Violation,
    parse_runs,
    validate_scenario,
)
from solvereval.scenario import quantize_ms

TRAJ_FIELDS = ("instance_id", "solver_id", "t_s", "obj")


def _parse_float(cell, what, line_no):
    try:
        return float(cell)
    except (TypeError, ValueError):
        raise RowError(line_no, f"unparseable {what} {cell!r}") from None


def ref_read_trajectories(path, outcomes):
    events = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return {}
        fields = [f.strip() for f in header]
        c_inst, c_solver, c_time, c_obj = (fields.index(f) for f in TRAJ_FIELDS)
        width = len(fields)
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise RowError(reader.line_num, f"expected {width} fields, got {len(row)}")
            key = (row[c_inst].strip(), row[c_solver].strip())
            if key not in outcomes:
                raise RowError(reader.line_num, f"trajectory row for unknown pair {key!r}")
            t = _parse_float(row[c_time], "time_s", reader.line_num)
            if math.isnan(t) or math.isinf(t):
                raise RowError(reader.line_num, f"time_s must be finite, got {row[c_time]!r}")
            events.setdefault(key, []).append((t, _parse_float(row[c_obj], "obj", reader.line_num)))
    return events


def ref_assemble(sc, raw_trajectories):
    """sc with the checked trajectories, or the ValidationError the old loop raised."""
    violations = []

    def flag(code, message, where=None):
        violations.append(Violation(code, message, where))

    timeout_s, outcomes = sc.timeout_s, sc.outcomes
    kind_of = {inst.id: inst.kind for inst in sc.instances}
    solver_set = set(sc.solvers)
    trajectories = {}
    for key, traj in raw_trajectories.items():
        i, s = str(key[0]), str(key[1])
        kind = kind_of.get(i)
        if kind is None or s not in solver_set:
            flag("UnknownId", "trajectory recorded for a pair outside the scenario", f"({i}, {s})")
            continue
        if kind is not InstanceKind.OPTIMIZATION:
            flag("InconsistentTrajectory", "trajectory recorded for a decision instance",
                 f"({i}, {s})")
            continue
        key = (i, s)
        out = outcomes.get(key)
        raw_events = traj.events if isinstance(traj, Trajectory) else traj
        problems, events = [], []
        for t, v in raw_events:
            t = quantize_ms(float(t))
            v = float(v)
            if not 0.0 <= t < timeout_s:
                problems.append(f"event time {t} outside [0, timeout)")
            if not math.isfinite(v):
                problems.append("event objectives must be finite")
            events.append((t, v))
        for (t1, v1), (t2, v2) in zip(events, events[1:]):
            if not t1 < t2:
                problems.append("event times must be strictly increasing")
            if not v1 > v2:
                problems.append("event objectives must be strictly decreasing")
        if out is not None:
            # A solved run proved its incumbent optimal when it ended.
            if out.status is RunStatus.SOLVED and events and out.time_s < events[-1][0]:
                problems.append("solved run ends before the last event")
            if events and events[-1][1] != out.obj:
                problems.append("last event objective differs from the run outcome")
            if not events and math.isfinite(out.obj):
                problems.append("run found a solution but the trajectory is empty")
        for message in problems:
            flag("InconsistentTrajectory", message, f"({i}, {s})")
        if not problems and events:
            trajectories[key] = Trajectory(tuple(events))
    if violations:
        raise ValidationError(violations)
    return replace(sc, trajectories=trajectories)


def outcome(fn):
    """What fn gives: its value, or its error with the line or the violations in order."""
    try:
        return ("value", fn())
    except RowError as e:
        return ("RowError", e.line_no, str(e))
    except ValidationError as e:
        return ("ValidationError", [(v.code, v.message, v.where) for v in e.violations])


# --- drawn files ------------------------------------------------------------

INSTANCES = (("o1", True), ("o2", True), ("d1", False))
SOLVERS = ("a", "b")
OBJS = (3.0, 4.0, 5.0)
TIMEOUTS = (10.0, 7.0009)

# Cells that give a violation: times on the grid, off it (1.0004 snaps
# down, 2.0006 up), at the edges of [0, timeout) and outside it, 1e306 (no
# grid point); objectives that break the descent, NaN and infinities.
TIME_CELLS = ("0", "0.5", "1", "1.0004", "2.0006", "2", "6.9995")
RANGE_CELLS = ("9.999", "10", "7.0009", "-0.001", "1e306")
OBJ_CELLS = ("3", "4", "5", "5.0", "6", "2.5", "nan", "inf", "-inf")
# Cells that give a RowError.
BAD_TIME_CELLS = ("abc", "nan", "inf", "-inf", "")
BAD_OBJ_CELLS = ("x", "")

# Faults, repeated to weight them: those giving violations are drawn more
# often than those giving a RowError, which ends the read.
FAULTS = ("time", "range", "obj", "obj", "swap", "repeat", "drop", "decision") * 2 + (
    "unknown", "bad time", "bad obj", "blank", "short", "long")


@st.composite
def run_rows(draw):
    rows = []
    for iid, opt in INSTANCES:
        for sid in SOLVERS:
            solved = draw(st.booleans())
            time = draw(st.sampled_from(("1.5", "3", "6.25"))) if solved else "1"
            with_obj = opt and (solved or draw(st.booleans()))
            obj = repr(draw(st.sampled_from(OBJS))) if with_obj else ""
            rows.append((iid, sid, "ok" if solved else "timeout", time, obj))
    return rows


@st.composite
def files(draw):
    """A runs file and trajectory rows: consistent staircases, then faults injected."""
    runs = draw(run_rows())
    rows = []
    for iid, sid, _, _, obj in runs:
        if obj and draw(st.sampled_from((True, True, False))):
            final = float(obj)
            if draw(st.booleans()):
                rows.append([iid, sid, "0.5", repr(final + 1.0)])
            rows.append([iid, sid, "1", obj])
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        inserted = fault in ("decision", "unknown", "blank")
        at = draw(st.integers(0, len(rows) if inserted else max(len(rows) - 1, 0)))
        row = rows[at] if at < len(rows) else None
        if fault == "decision":
            rows.insert(at, ["d1", draw(st.sampled_from(SOLVERS)), "0.5", "1"])
        elif fault == "unknown":
            rows.insert(at, draw(st.sampled_from((["ghost", "a"], ["o1", "zz"]))) + ["0.5", "1"])
        elif fault == "blank":
            rows.insert(at, [])
        elif row is None or len(row) != 4:
            continue
        elif fault in ("time", "range", "bad time"):
            row[2] = draw(st.sampled_from(
                {"time": TIME_CELLS, "range": RANGE_CELLS, "bad time": BAD_TIME_CELLS}[fault]))
        elif fault in ("obj", "bad obj"):
            row[3] = draw(st.sampled_from(OBJ_CELLS if fault == "obj" else BAD_OBJ_CELLS))
        elif fault == "swap" and at + 1 < len(rows):
            rows[at], rows[at + 1] = rows[at + 1], row
        elif fault == "repeat":
            rows.insert(at, list(row))
        elif fault == "drop":
            del rows[at]
        elif fault == "short":
            del row[3]
        elif fault == "long":
            row.append("extra")
    return runs, rows


def _write(directory, runs, traj_rows, order):
    runs_path = Path(directory) / "r.csv"
    with open(runs_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("instance_id", "solver_id", "status", "time_s", "obj"))
        w.writerows(runs)
    traj_path = Path(directory) / "t.csv"
    with open(traj_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([TRAJ_FIELDS[c] for c in order])
        w.writerows([[row[c] for c in order] if len(row) == 4 else row for row in traj_rows])
    return runs_path, traj_path


def _reference(runs_path, traj_path, timeout):
    empty = Path(traj_path).with_name("none.csv")
    empty.write_text("")
    base = parse_runs(runs_path, timeout, trajectories_path=empty)
    return ref_assemble(base, ref_read_trajectories(traj_path, base.outcomes))


@settings(max_examples=300, deadline=None)
@given(drawn=files(), timeout=st.sampled_from(TIMEOUTS), order=st.permutations(range(4)))
def test_file_reader_matches_the_two_pass_reader(drawn, timeout, order):
    runs, traj_rows = drawn
    with tempfile.TemporaryDirectory() as d:
        runs_path, traj_path = _write(d, runs, traj_rows, order)
        got = outcome(lambda: parse_runs(runs_path, timeout, trajectories_path=traj_path))
        want = outcome(lambda: _reference(runs_path, traj_path, timeout))
    assert got == want


@st.composite
def given_trajectories(draw):
    """Trajectory objects as validate_scenario receives them, faults included."""
    keys = [(i, s) for i, _ in INSTANCES for s in SOLVERS] + [("ghost", "a")]
    times = st.sampled_from((0.0, 0.5, 1.0004, 2.0006, 3.0, 6.9995, 9.999, 10.0, 7.0009, -0.001,
                             1e306, math.nan))
    objs = st.sampled_from(OBJS + (6.0, math.nan, math.inf))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=5))
    return {key: Trajectory(tuple(draw(st.lists(st.tuples(times, objs), max_size=3))))
            for key in chosen}


@settings(max_examples=300, deadline=None)
@given(runs=run_rows(), trajectories=given_trajectories(), timeout=st.sampled_from(TIMEOUTS))
def test_validate_scenario_matches_the_old_loop(runs, trajectories, timeout):
    with tempfile.TemporaryDirectory() as d:
        runs_path, traj_path = _write(d, runs, [], range(4))
        base = parse_runs(runs_path, timeout, trajectories_path=traj_path)
    raw = replace(base, trajectories=trajectories)
    want = outcome(lambda: ref_assemble(base, trajectories))
    assert outcome(lambda: validate_scenario(raw)) == want
