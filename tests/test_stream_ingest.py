"""Ingest streams each run and event into the column stores.

ref_parse_runs is the reader the column builder replaced, kept here as it
was, less the branches a runs file cannot reach, and with its own statement
of the run rules (ref_check_run), not the builder's: each run went through a
per-solver dict of (time_s, status, obj) tuples, each event through a
per-pair list, and assemble_scenario checked them and copied them into
columns. Files that are not instance-major (run
rows shuffled, trajectory rows interleaved across pairs) are drawn with
duplicate rows, missing pairs and run-kind breaches, and both readers must
raise the same exception type with the same line and message, or the same
violations in the same order, or read the same scenario. A second test
bounds the memory a parse or a generate holds on the way to its result.
"""

from __future__ import annotations

import csv
import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solvereval.io
from solvereval import (
    Instance,
    InstanceKind,
    RowError,
    RunOutcome,
    RunStatus,
    Trajectory,
    ValidationError,
    Violation,
    emit_scenario,
    generate,
    parse_runs,
)
from solvereval.scenario import check_timeout, quantize_ms
from solvereval.synthkit import ArchetypeSpec, SolverSpec, uniform

STATUS_IN = {"ok": RunStatus.SOLVED, "timeout": RunStatus.TIMEOUT,
             "memout": RunStatus.ERROR, "crash": RunStatus.ERROR}
RUN_FIELDS = ("instance_id", "solver_id", "status", "time_s")
TRAJ_FIELDS = ("instance_id", "solver_id", "t_s", "obj")


# --- the reader before the column builder ------------------------------------

def _parse_float(cell, what, line_no):
    try:
        return float(cell)
    except (TypeError, ValueError):
        raise RowError(line_no, f"unparseable {what} {cell!r}") from None


def ref_check_run(status, time_s, obj, timeout_s):
    """A runs row's (time_s, status, obj) as stored, or a ValueError naming the rule it breaks.

    The rules as a runs file has them: a finite time_s >= 0; a solved run
    strictly before the timeout once snapped to the millisecond grid; an
    unsolved run at the timeout, at most the timeout once snapped, or the
    timeout as written with three decimals, stored at the timeout; obj finite
    or +inf.
    """
    if not math.isfinite(time_s):
        raise ValueError(f"time_s must be a finite number, got {time_s!r}")
    if time_s < 0:
        raise ValueError(f"time_s must be >= 0, got {time_s}")
    t = quantize_ms(time_s)
    if status is RunStatus.SOLVED:
        if t > timeout_s:
            raise ValueError(f"time_s {time_s} exceeds the timeout {timeout_s}")
        if t >= timeout_s:
            raise ValueError(f"a solved run must finish strictly before the timeout, got {t}")
    elif time_s == timeout_s or t <= timeout_s or time_s == float(f"{timeout_s:.3f}"):
        t = timeout_s
    else:
        raise ValueError(f"time_s {time_s} exceeds the timeout {timeout_s}")
    if math.isnan(obj) or obj == -math.inf:
        raise ValueError(f"obj must be finite or +inf, got {obj!r}")
    return t, status, obj


def ref_parse_runs(path, timeout_s, trajectories_path):
    """The scenario's (instances, solvers, outcomes, trajectories), as the old reader built it."""
    timeout_s = check_timeout(timeout_s)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        fields = [f.strip() for f in next(reader)]
        c_inst, c_solver, c_status, c_time = (fields.index(f) for f in RUN_FIELDS)
        c_obj = fields.index("obj") if "obj" in fields else None
        width = len(fields)
        instance_ids, runs, opt, loose = {}, {}, set(), []
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise RowError(reader.line_num, f"expected {width} fields, got {len(row)}")
            iid, sid = row[c_inst].strip(), row[c_solver].strip()
            if not iid or not sid:
                raise RowError(reader.line_num, "instance_id and solver_id must be non-empty")
            status_raw = row[c_status].strip().lower()
            status = STATUS_IN.get(status_raw)
            if status is None:
                raise RowError(reader.line_num,
                               f"unknown status {status_raw!r}; expected one of {sorted(STATUS_IN)}")
            obj_cell = row[c_obj].strip() if c_obj is not None else ""
            try:
                t, obj = float(row[c_time]), float(obj_cell) if obj_cell else math.inf
            except ValueError:
                _parse_float(row[c_time], "time_s", reader.line_num)
                raise RowError(reader.line_num, f"unparseable obj {obj_cell!r}") from None
            try:
                run = ref_check_run(status, t, obj, timeout_s)
            except ValueError as exc:
                raise RowError(reader.line_num, str(exc)) from None
            col = runs.get(sid) or runs.setdefault(sid, {})
            if col.setdefault(iid, run) is not run:
                raise RowError(reader.line_num, f"duplicate row for ({iid}, {sid})")
            instance_ids[iid] = None
            if obj_cell:
                opt.add(iid)
            if status is RunStatus.SOLVED and run[2] == math.inf:
                loose.append((iid, sid))
    kinds = {True: InstanceKind.OPTIMIZATION, False: InstanceKind.DECISION}
    instances = tuple(Instance(i, kinds[i in opt]) for i in instance_ids)
    return ref_assemble(instances, tuple(runs), timeout_s, runs, loose,
                        ref_trajectory_events(trajectories_path, runs))


def ref_trajectory_events(path, runs):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        fields = [f.strip() for f in next(reader)]
        c_inst, c_solver, c_time, c_obj = (fields.index(f) for f in TRAJ_FIELDS)
        width = len(fields)
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise RowError(reader.line_num, f"expected {width} fields, got {len(row)}")
            key = (row[c_inst].strip(), row[c_solver].strip())
            if key[0] not in runs.get(key[1], ()):
                raise RowError(reader.line_num, f"trajectory row for unknown pair {key!r}")
            t = _parse_float(row[c_time], "time_s", reader.line_num)
            if math.isnan(t) or math.isinf(t):
                raise RowError(reader.line_num, f"time_s must be finite, got {row[c_time]!r}")
            yield key, t, _parse_float(row[c_obj], "obj", reader.line_num)


def ref_assemble(instances, solvers, timeout_s, runs, order, events):
    violations = []

    def flag(code, message, where=None):
        violations.append(Violation(code, message, where))

    kind_of = {inst.id: inst.kind for inst in instances}
    decision = InstanceKind.DECISION
    breached = {(i, s) for s, col in runs.items() for i, run in col.items()
                if (run[2] != math.inf if kind_of[i] is decision
                    else run[1] is RunStatus.SOLVED and run[2] == math.inf)}
    for i, s in order:
        if (i, s) in breached:
            flag("BadOutcome", "decision instance outcomes must have obj = +inf"
                 if kind_of[i] is decision else "solved optimization run must have a finite obj",
                 f"({i}, {s})")
    if not instances:
        flag("EmptyScenario", "scenario has no instances")
    if not solvers:
        flag("EmptyScenario", "scenario has no solvers")
    for inst in instances:
        for s in solvers:
            if inst.id not in runs[s]:
                flag("MissingOutcome", "no recorded run for this pair", f"({inst.id}, {s})")

    pairs, problems = {}, {}
    for key, t, v in events:
        if key not in pairs:
            pairs[key] = None if kind_of[key[0]] is decision else []
        seen = pairs[key]
        if seen is None:
            continue
        t, v = quantize_ms(float(t)), float(v)
        single, between = problems.setdefault(key, ([], []))
        if not 0.0 <= t < timeout_s:
            single.append(f"event time {t} outside [0, timeout)")
        if not math.isfinite(v):
            single.append("event objectives must be finite")
        if seen and not seen[-1][0] < t:
            between.append("event times must be strictly increasing")
        if seen and not seen[-1][1] > v:
            between.append("event objectives must be strictly decreasing")
        seen.append((t, v))
    trajectories = {}
    for (i, s), seen in pairs.items():
        if seen is None:
            flag("InconsistentTrajectory", "trajectory recorded for a decision instance",
                 f"({i}, {s})")
            continue
        run = runs[s][i]
        single, between = problems[(i, s)]
        found = [*single, *between]
        if run[1] is RunStatus.SOLVED and run[0] < seen[-1][0]:
            found.append("solved run ends before the last event")
        if seen[-1][1] != run[2]:
            found.append("last event objective differs from the run outcome")
        for message in found:
            flag("InconsistentTrajectory", message, f"({i}, {s})")
        trajectories[(i, s)] = Trajectory(tuple(seen))
    if violations:
        raise ValidationError(violations)
    outcomes = {(inst.id, s): RunOutcome(*runs[s][inst.id]) for inst in instances for s in solvers}
    return instances, solvers, outcomes, trajectories


def read(path, timeout_s, trajectories_path):
    sc = parse_runs(path, timeout_s, trajectories_path=trajectories_path)
    return sc.instances, sc.solvers, dict(sc.outcomes.items()), dict(sc.trajectories.items())


def outcome(fn):
    """What fn gives: its value, or its error with the line or the violations in order."""
    try:
        return ("value", fn())
    except RowError as e:
        return ("RowError", e.line_no, str(e))
    except ValidationError as e:
        return ("ValidationError", [(v.code, v.message, v.where) for v in e.violations])


# --- drawn files ---------------------------------------------------------------

INSTANCES = (("o1", True), ("o2", True), ("o3", True), ("d1", False), ("d2", False))
SOLVERS = ("a", "b", "c")
# Faults, repeated to weight them: duplicates, missing pairs and run-kind
# breaches more often than those that end the read at once.
RUN_FAULTS = ("duplicate", "missing", "breach") * 3 + ("bad status", "decision obj")
TRAJ_FAULTS = ("decision", "swap", "last obj", "late", "repeat")


@st.composite
def files(draw):
    """Run rows in shuffled order and trajectory rows interleaved across pairs, faults injected."""
    runs, stairs = [], []
    for iid, opt in INSTANCES:
        for sid in SOLVERS:
            status = draw(st.sampled_from(("ok", "ok", "timeout", "memout")))
            time = draw(st.sampled_from(("1.5", "3", "6.25", "0.0004"))) if status == "ok" else "10"
            obj = ""
            if opt and (status == "ok" or draw(st.booleans())):
                obj = repr(float(draw(st.integers(3, 6))))
            elif opt:
                obj = draw(st.sampled_from(("inf", "")))
            runs.append([iid, sid, status, time, obj])
            if obj not in ("", "inf") and draw(st.sampled_from((True, True, False))):
                stairs.append([[iid, sid, "0.5", repr(float(obj) + 1.0)], [iid, sid, "1", obj]]
                              if draw(st.booleans()) else [[iid, sid, "1", obj]])
    for fault in draw(st.lists(st.sampled_from(RUN_FAULTS), max_size=4)):
        at = draw(st.integers(0, len(runs) - 1))
        row = runs[at]
        if fault == "duplicate":
            runs.insert(draw(st.integers(0, len(runs))),
                        [*row[:2], draw(st.sampled_from(("ok", "timeout"))), "2", row[4]])
        elif fault == "missing" and len(runs) > 1:
            del runs[at]
        elif fault == "breach" and row[4]:
            row[2], row[3], row[4] = "ok", "2", draw(st.sampled_from(("", "inf")))
        elif fault == "bad status":
            row[2] = "weird"
        elif fault == "decision obj" and not row[4]:
            row[4] = "7.0"
    rng = random.Random(draw(st.integers(0, 2**32)))
    rng.shuffle(runs)
    traj = [row for pair in stairs for row in pair]
    for fault in draw(st.lists(st.sampled_from(TRAJ_FAULTS), max_size=2)):
        at = draw(st.integers(0, max(len(traj) - 1, 0)))
        if fault == "decision":
            traj.insert(at, [draw(st.sampled_from(("d1", "d2"))), draw(st.sampled_from(SOLVERS)),
                             "0.5", "9"])
        elif not traj:
            continue
        elif fault == "swap" and at + 1 < len(traj):
            traj[at], traj[at + 1] = traj[at + 1], traj[at]
        elif fault == "last obj":
            traj[at][3] = "2.5"
        elif fault == "late":
            traj[at][2] = "8"
        elif fault == "repeat":
            traj.insert(at, list(traj[at]))
    return runs, _interleave(traj, rng)


def _interleave(rows, rng):
    """The rows with the pairs' blocks interleaved at random, each pair's rows in order."""
    queues = {}
    for row in rows:
        queues.setdefault((row[0], row[1]), []).append(row)
    left, out = list(queues.values()), []
    while left:
        queue = rng.choice(left)
        out.append(queue.pop(0))
        if not queue:
            left.remove(queue)
    return out


def _write(directory, runs, traj):
    paths = Path(directory) / "r.csv", Path(directory) / "t.csv"
    for path, header, rows in ((paths[0], (*RUN_FIELDS, "obj"), runs),
                               (paths[1], TRAJ_FIELDS, traj)):
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return paths


@settings(max_examples=300, deadline=None)
@given(drawn=files())
def test_shuffled_files_read_as_the_old_reader_read_them(drawn):
    with tempfile.TemporaryDirectory() as d:
        runs_path, traj_path = _write(d, *drawn)
        got = outcome(lambda: read(runs_path, 10.0, traj_path))
        want = outcome(lambda: ref_parse_runs(runs_path, 10.0, traj_path))
    assert got == want


@settings(max_examples=100, deadline=None)
@given(drawn=files())
@pytest.mark.parametrize("block", [1, 2, 3])
def test_block_boundaries_anywhere_read_as_the_old_reader_read_them(block, drawn):
    """The same, with the rows checked one, two or three at a time."""
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as d:
        mp.setattr(solvereval.io, "_BLOCK", block)
        runs_path, traj_path = _write(d, *drawn)
        got = outcome(lambda: read(runs_path, 10.0, traj_path))
        want = outcome(lambda: ref_parse_runs(runs_path, 10.0, traj_path))
    assert got == want


# --- memory --------------------------------------------------------------------

def test_ingest_peak_memory_stays_near_its_result(tmp_path):
    """parse_runs and generate hold little beyond their result on the way to it.

    Both peak near 1.1 times the result. The bound, 1.3, fails the reader
    that passed runs and events through dicts of tuples (about 2.2) and a
    builder that keeps its list of opened pairs to the end (about 1.45).
    """
    spec = ArchetypeSpec(
        seed=1, n_instances=400, timeout_s=100.0, opt_fraction=0.5,
        solvers=tuple(SolverSpec(0.5 + 0.08 * (j % 5), uniform(1 + j, 40 + 5 * j), uniform(0, 5))
                      for j in range(10)),
    )
    emit_scenario(generate(spec), tmp_path / "r.csv")
    for make in (lambda: parse_runs(tmp_path / "r.csv", 100.0), lambda: generate(spec)):
        make()  # first-call caches are not the ingest's
        tracemalloc.start()
        try:
            sc = make()
            sc.outcomes.ms  # the whole result: its ms family is built on first read
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sc.trajectories) > 1000
        assert peak <= 1.3 * retained, (peak, retained)


def test_parse_frees_each_block_before_reading_the_next(tmp_path):
    """parse_runs holds one block of rows at a time, with the columns made from it.

    At 400x10 the parse peaks at about 1.42 times its result, its ms family
    not yet built. The bound, 1.45, fails the reader that kept the last
    block's rows, lines and columns alive while the next was read (1.68).
    """
    spec = ArchetypeSpec(
        seed=1, n_instances=400, timeout_s=100.0, opt_fraction=0.5,
        solvers=tuple(SolverSpec(0.5 + 0.08 * (j % 5), uniform(1 + j, 40 + 5 * j), uniform(0, 5))
                      for j in range(10)),
    )
    emit_scenario(generate(spec), tmp_path / "r.csv")
    parse_runs(tmp_path / "r.csv", 100.0)  # first-call caches are not the ingest's
    tracemalloc.start()
    try:
        sc = parse_runs(tmp_path / "r.csv", 100.0)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sc.trajectories) > 1000
    assert peak <= 1.45 * retained, (peak, retained)
