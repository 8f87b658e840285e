"""Ingest judges each run and event once, in ScenarioBuilder; its callers word the verdict.

The readers turn a refused run into a RowError naming its line, and
validate_scenario into a violation naming its pair; a bad cell is the
reader's own RowError. Error parity: every bad input below names the same
line and message (RowError), or the same violations by code, message and
pair (ValidationError), whatever the block size. RUN_RULES runs each run
rule through both validate_scenario and parse_runs, with each one's
message. Against the reader that ran validate_scenario over its own
output, the differences are: a bad timeout is one BadTimeout before any
row is read; a line is the physical line, also after a blank one; a
negative runtime in an attribute-relation table, whatever its runstatus,
and an infinite repetition are RowErrors; a finite time too large for the
millisecond grid (TestHugeTimes) is a RowError or a violation, not an
OverflowError; and an unsolved run at a timeout off the millisecond grid
(TestOffGridTimeout), stored or as written, is accepted.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import pickle
import random
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from helpers import ARFF_HEADER as ARFF, aslib_runs_text
from test_fold_columns import generated
from test_properties import scenarios

import solvereval.io
import solvereval.synthkit
from solvereval import (
    Instance,
    InstanceKind,
    RowError,
    RunOutcome,
    RunStatus,
    Scenario,
    SchemaError,
    Trajectory,
    ValidationError,
    emit_scenario,
    parse_aslib_runs,
    parse_runs,
    validate_scenario,
)
from solvereval.cli import main
from solvereval.rng import SplitMix64
from solvereval.scenario import quantize_ms
from solvereval.synthkit import (
    ArchetypeSpec,
    SolverSpec,
    generate,
    thorough_vs_fast_spec,
    uniform,
)

RUNS = "instance_id,solver_id,status,time_s,obj\n"
TRAJ = "instance_id,solver_id,t_s,obj\n"


def _load(tmp_path, runs, timeout=100.0, traj=None):
    if runs.startswith("@relation"):
        p = tmp_path / "r.arff"
        p.write_text(runs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return parse_aslib_runs(p, timeout)
    p = tmp_path / "r.csv"
    p.write_text(runs)
    if traj is not None:
        (tmp_path / "r_trajectories.csv").write_text(traj)
    return parse_runs(p, timeout)


# (runs text, trajectory text, line of the RowError, its message after the line)
ROW_ERRORS = {
    "unknown status": (RUNS + "i1,a,weird,1.0,\n", None, 2,
                      "unknown status 'weird'; expected one of ['crash', 'memout', 'ok', 'timeout']"),
    "unparseable time": (RUNS + "i1,a,ok,abc,\n", None, 2,
                        "unparseable time_s 'abc'"),
    "negative time": (RUNS + "i1,a,ok,-1.0,\n", None, 2,
                     "time_s must be >= 0, got -1.0"),
    "solved at the timeout": (RUNS + "i1,a,ok,100.0,\n", None, 2,
                             "a solved run must finish strictly before the timeout, got 100.0"),
    "solved beyond the timeout": (RUNS + "i1,a,ok,140.0,\n", None, 2,
                                 "time_s 140.0 exceeds the timeout 100.0"),
    "unsolved beyond the timeout": (RUNS + "i1,a,timeout,140.0,\n", None, 2,
                                   "time_s 140.0 exceeds the timeout 100.0"),
    "negative unsolved time": (RUNS + "i1,a,timeout,-1.0,\n", None, 2,
                              "time_s must be >= 0, got -1.0"),
    "nan time": (RUNS + "i1,a,ok,nan,\n", None, 2,
                "time_s must be a finite number, got nan"),
    "empty id": (RUNS + ",a,ok,1.0,\n", None, 2,
                "instance_id and solver_id must be non-empty"),
    "short row": (RUNS + "i1,a\n", None, 2,
                 "expected 5 fields, got 2"),
    "-inf obj": (RUNS + "o1,a,timeout,100.0,-inf\n", None, 2,
                "obj must be finite or +inf, got -inf"),
    "nan obj": (RUNS + "o1,a,timeout,100.0,nan\n", None, 2,
               "obj must be finite or +inf, got nan"),
    "junk obj": (RUNS + "o1,a,timeout,100.0,junk\n", None, 2,
                "unparseable obj 'junk'"),
    "duplicate pair": (RUNS + "i1,a,ok,1.0,\ni1,b,ok,1.0,\ni1,a,ok,2.0,\n", None, 4,
                      "duplicate row for (i1, a)"),
    "bad row after good ones": (RUNS + "i1,a,ok,1.0,\ni1,b,ok,1.0,\ni2,a,ok,200,\n", None, 4,
                               "time_s 200.0 exceeds the timeout 100.0"),
    "trajectory for an unknown pair": (RUNS + "o1,a,timeout,100,5\n", TRAJ + "ghost,a,1.0,5.0\n", 2,
                                      "trajectory row for unknown pair ('ghost', 'a')"),
    "nan trajectory time": (RUNS + "o1,a,timeout,100,5\n", TRAJ + "o1,a,nan,5.0\n", 2,
                           "time_s must be finite, got 'nan'"),
    "unparseable trajectory obj": (RUNS + "o1,a,timeout,100,5\n", TRAJ + "o1,a,1.0,x\n", 2,
                                  "unparseable obj 'x'"),
    "arff short row": (ARFF + "i1,1,a,1.0,ok\ni1,1,b\n", None, 9,
                      "expected 5 fields, got 3"),
    "arff duplicate": (ARFF + "i1,1,a,1.0,ok\ni1,1,b,2.0,ok\ni1,1,a,3.0,ok\n", None, 10,
                      "duplicate row for (i1, a)"),
    "arff nan runtime": (ARFF + "i1,1,a,nan,ok\n", None, 8,
                        "time_s must be finite, got 'nan'"),
    "arff negative runtime": (ARFF + "i1,1,a,1.0,ok\ni1,1,b,-5.0,timeout\n", None, 9,
                             "time_s must be >= 0, got -5.0"),
    "arff repetition": (ARFF + "i1,x,a,1.0,ok\n", None, 8,
                       "unparseable repetition 'x'"),
    "arff empty instance id": (ARFF + "i1,1,a,1.0,ok\n,1,b,2.0,ok\n", None, 9,
                              "instance_id and solver_id must be non-empty"),
    "arff empty algorithm": (ARFF + "i1,1,a,1.0,ok\ni1,1,,2.0,ok\n", None, 9,
                            "instance_id and solver_id must be non-empty"),
    "arff quoted empty id": (ARFF + "'',1,a,1.0,ok\n", None, 8,
                            "instance_id and solver_id must be non-empty"),
    "arff empty id before a junk runtime": (ARFF + "i1,1,a,1.0,ok\n,1,b,junk,ok\n", None, 9,
                                           "instance_id and solver_id must be non-empty"),
    "arff infinite repetition": (ARFF + "i1,inf,a,1.0,ok\n", None, 8,
                                "unparseable repetition 'inf'"),
}

# (runs text, trajectory text, violations as (code, message, where))
VIOLATIONS = {
    "solved optimization run with an empty obj cell": (
        RUNS + "o1,a,ok,10.0,\no1,b,ok,20.0,5.0\n", None,
        [("BadOutcome", "solved optimization run must have a finite obj", "(o1, a)")],
    ),
    "solved optimization run with an inf obj": (
        RUNS + "o1,a,ok,10.0,inf\no1,b,ok,20.0,5.0\ni1,a,ok,1.0,\ni1,b,ok,1.0,\n", None,
        [("BadOutcome", "solved optimization run must have a finite obj", "(o1, a)")],
    ),
    "missing pair": (
        RUNS + "i1,a,ok,1.0,\ni1,b,ok,2.0,\ni2,a,ok,3.0,\n", None,
        [("MissingOutcome", "no recorded run for this pair", "(i2, b)")],
    ),
    "missing pairs in a diagonal": (
        RUNS + "i1,a,ok,1.0,\ni2,b,ok,2.0,\n", None,
        [("MissingOutcome", "no recorded run for this pair", "(i1, b)"),
         ("MissingOutcome", "no recorded run for this pair", "(i2, a)")],
    ),
    "header only": (
        RUNS, None,
        [("EmptyScenario", "scenario has no instances", None),
         ("EmptyScenario", "scenario has no solvers", None)],
    ),
    "last event differs from the run": (
        RUNS + "o1,a,timeout,100,5.0\n", TRAJ + "o1,a,2.0,6.0\n",
        [("InconsistentTrajectory", "last event objective differs from the run outcome", "(o1, a)")],
    ),
    "events out of order": (
        RUNS + "o1,a,timeout,100,5.0\n", TRAJ + "o1,a,9.0,6.0\no1,a,2.0,5.0\n",
        [("InconsistentTrajectory", "event times must be strictly increasing", "(o1, a)")],
    ),
    "infinite event objective": (
        RUNS + "o1,a,timeout,100,5.0\n", TRAJ + "o1,a,1.0,inf\no1,a,2.0,5.0\n",
        [("InconsistentTrajectory", "event objectives must be finite", "(o1, a)")],
    ),
    "trajectory on a decision instance": (
        RUNS + "i1,a,ok,1.0,\no1,a,ok,1.0,4\n", TRAJ + "i1,a,0.5,3.0\no1,a,0.5,4.0\n",
        [("InconsistentTrajectory", "trajectory recorded for a decision instance", "(i1, a)")],
    ),
    "arff missing pair": (
        ARFF + "i1,1,a,1.0,ok\ni2,1,b,2.0,ok\n", None,
        [("MissingOutcome", "no recorded run for this pair", "(i1, b)"),
         ("MissingOutcome", "no recorded run for this pair", "(i2, a)")],
    ),
    "arff no data": (
        ARFF, None,
        [("EmptyScenario", "scenario has no instances", None),
         ("EmptyScenario", "scenario has no solvers", None)],
    ),
}


class TestErrorParity:
    @pytest.mark.parametrize("name", sorted(ROW_ERRORS))
    def test_row_errors_name_the_line(self, tmp_path, name):
        runs, traj, line, message = ROW_ERRORS[name]
        with pytest.raises(RowError) as e:
            _load(tmp_path, runs, traj=traj)
        assert e.value.line_no == line
        assert str(e.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("name", sorted(VIOLATIONS))
    def test_cross_row_violations_name_the_pair(self, tmp_path, name):
        runs, traj, expected = VIOLATIONS[name]
        with pytest.raises(ValidationError) as e:
            _load(tmp_path, runs, traj=traj)
        assert [(v.code, v.message, v.where) for v in e.value.violations] == expected

    @pytest.mark.parametrize("cells", ["nan,5.0", "1.0,x", "abc,x"])
    def test_unknown_trajectory_pair_is_named_before_its_cells(self, tmp_path, cells):
        with pytest.raises(RowError) as e:
            _load(tmp_path, RUNS + "o1,a,timeout,100,5\no2,b,timeout,100,5\n",
                  traj=TRAJ + f"o1,a,1.0,5.0\no1,b,{cells}\n")
        assert str(e.value) == "line 3: trajectory row for unknown pair ('o1', 'b')"

    def test_line_numbers_count_blank_lines(self, tmp_path):
        with pytest.raises(RowError) as e:
            _load(tmp_path, RUNS + "i1,a,ok,1.0,\n\ni1,b,weird,1.0,\n")
        assert e.value.line_no == 4

    def test_negative_ok_runtime_in_arff_names_the_line(self, tmp_path):
        with pytest.raises(RowError) as e:
            _load(tmp_path, ARFF + "i1,1,a,-1.0,ok\n")
        assert e.value.line_no == 8
        assert ">= 0" in str(e.value)


BAD_TIMEOUTS = [0.0, -1.0, math.nan, math.inf, -math.inf, 1e307]


class TestTimeoutCheckedFirst:
    @pytest.mark.parametrize("timeout", BAD_TIMEOUTS)
    @pytest.mark.parametrize("runs", [
        RUNS + "i1,a,ok,1.0,\ni1,b,timeout,100,\n",
        RUNS + "i1,a,ok,1.0,\ni1,b,weird,1.0,\n",  # a bad row is never reached
        ARFF + "i1,1,a,1.0,ok\ni1,1,b,100,timeout\n",
    ])
    def test_one_bad_timeout_violation(self, tmp_path, runs, timeout):
        with pytest.raises(ValidationError) as e:
            _load(tmp_path, runs, timeout=timeout)
        (violation,) = e.value.violations
        assert violation.code == "BadTimeout"
        assert repr(timeout) in violation.message

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf", "1e307"])
    def test_cli_validate_names_the_timeout(self, tmp_path, capsys, timeout):
        p = tmp_path / "t.csv"
        p.write_text(RUNS + "i1,a,ok,1.0,\n")
        assert main(["validate", str(p), "--timeout", timeout]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid: 1 violation(s)\n")
        assert "BadTimeout" in err and "line" not in err

    @pytest.mark.parametrize("timeout", BAD_TIMEOUTS)
    def test_validate_scenario_reports_only_structure(self, timeout):
        raw = Scenario("x", (Instance("i1"), Instance("i2")), ("a",), timeout,
                       {("i1", "a"): RunOutcome(1.0, RunStatus.SOLVED)})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert [(v.code, v.where) for v in e.value.violations] == [
            ("BadTimeout", None), ("MissingOutcome", "(i2, a)"),
        ]


class TestValidateScenario:
    def test_rejected_run_is_not_also_missing(self):
        raw = Scenario("x", (Instance("i1"),), ("a",), 100.0,
                       {("i1", "a"): RunOutcome(1.0, "weird")})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert [(v.code, v.where) for v in e.value.violations] == [("BadOutcome", "(i1, a)")]

    def test_keys_equal_as_ids_are_one_pair_recorded_twice(self):
        # 1 and "1" name the same instance once ids are strings; neither run nor
        # trajectory may silently replace the other.
        raw = Scenario("x", (Instance("1", InstanceKind.OPTIMIZATION),), ("a",), 100.0,
                       {(1, "a"): RunOutcome(100.0, RunStatus.TIMEOUT, 5.0),
                        ("1", "a"): RunOutcome(2.0, RunStatus.SOLVED, 4.0)},
                       {(1, "a"): Trajectory(((1.0, 5.0),)), ("1", "a"): Trajectory()})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert [(v.code, v.message, v.where) for v in e.value.violations] == [
            ("DuplicateId", "outcome recorded twice for this pair", "(1, a)"),
            ("DuplicateId", "trajectory recorded twice for this pair", "(1, a)"),
        ]

    def test_refused_run_of_a_pair_already_run(self):
        # The second run is refused and cannot hold its pair, which has a run: a duplicate.
        raw = Scenario("x", (Instance("1"),), ("a",), 100.0,
                       {("1", "a"): RunOutcome(1.0, RunStatus.SOLVED),
                        (1, "a"): RunOutcome(-1.0, RunStatus.SOLVED)})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert [(v.code, v.message, v.where) for v in e.value.violations] == [
            ("BadOutcome", "time_s must be >= 0, got -1.0", "(1, a)"),
            ("DuplicateId", "outcome recorded twice for this pair", "(1, a)"),
        ]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_trajectory_times_are_violations(self, bad):
        raw = Scenario("x", (Instance("o1", InstanceKind.OPTIMIZATION),), ("a",), 100.0,
                       {("o1", "a"): RunOutcome(100.0, RunStatus.TIMEOUT, 5.0)},
                       {("o1", "a"): Trajectory(((bad, 5.0),))})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert {(v.code, v.where) for v in e.value.violations} == {
            ("InconsistentTrajectory", "(o1, a)"),
        }

    @pytest.mark.parametrize("bad", [("abc", 5.0), (1.0,), (1.0, 5.0, 7.0), (None, 5.0)])
    def test_malformed_trajectory_events_are_violations(self, bad):
        # Validation goes on past the bad event, and flags the bad run of another pair too.
        raw = Scenario("x", (Instance("o1", InstanceKind.OPTIMIZATION), Instance("i2")), ("a",),
                       100.0, {("o1", "a"): RunOutcome(100.0, RunStatus.TIMEOUT, 5.0),
                               ("i2", "a"): RunOutcome(-1.0, RunStatus.SOLVED)},
                       {("o1", "a"): Trajectory(((1.0, 9.0), bad, (2.0, 5.0)))})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert [(v.code, v.message, v.where) for v in e.value.violations] == [
            ("BadOutcome", "time_s must be >= 0, got -1.0", "(i2, a)"),
            ("InconsistentTrajectory", f"event {bad!r} is not two numbers", "(o1, a)"),
        ]


# 1e306 s is finite, but 1e306 * 1000 ms is not: no millisecond grid point.
HUGE = 1e306


class TestHugeTimes:
    def test_quantize_leaves_it_to_the_range_checks(self):
        assert quantize_ms(HUGE) == HUGE
        assert quantize_ms(-HUGE) == -HUGE
        assert quantize_ms(1e300) == 1e300

    @pytest.mark.parametrize("status", ["ok", "timeout"])
    def test_runs_reader_names_the_line(self, tmp_path, status):
        with pytest.raises(RowError) as e:
            _load(tmp_path, RUNS + f"i1,b,ok,1.0,\ni1,a,{status},{HUGE!r},\n")
        assert e.value.line_no == 3
        assert "exceeds the timeout" in str(e.value)

    @pytest.mark.parametrize("cell", [repr(HUGE), "1e308"])
    def test_trajectory_reader_names_the_pair(self, tmp_path, cell):
        with pytest.raises(ValidationError) as e:
            _load(tmp_path, RUNS + "o1,a,timeout,100,5\n", traj=TRAJ + f"o1,a,{cell},5.0\n")
        assert [(v.code, v.where) for v in e.value.violations] == [
            ("InconsistentTrajectory", "(o1, a)"),
        ]
        assert "outside [0, timeout)" in e.value.violations[0].message

    def test_arff_ok_runtime_reads_as_a_timeout(self, tmp_path):
        sc = _load(tmp_path, ARFF + f"i1,1,a,{HUGE!r},ok\n")
        assert sc.outcome("i1", "a") == RunOutcome(100.0, RunStatus.TIMEOUT)

    def test_validate_scenario_names_the_pair(self):
        raw = Scenario("x", (Instance("i1"), Instance("o1", InstanceKind.OPTIMIZATION)), ("a",),
                       100.0, {("i1", "a"): RunOutcome(HUGE, RunStatus.SOLVED),
                               ("o1", "a"): RunOutcome(1.0, RunStatus.SOLVED, 5.0)},
                       {("o1", "a"): Trajectory(((HUGE, 5.0),))})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert [(v.code, v.where) for v in e.value.violations] == [
            ("BadOutcome", "(i1, a)"),
            ("InconsistentTrajectory", "(o1, a)"),
            ("InconsistentTrajectory", "(o1, a)"),
        ]

    def test_cli_validate_exits_1(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text(RUNS + f"i1,a,ok,{HUGE!r},\n")
        assert main(["validate", str(runs), "--timeout", "100"]) == 1
        assert "line 2: time_s 1e+306 exceeds the timeout" in capsys.readouterr().err
        runs.write_text(RUNS + "o1,a,timeout,100,5\n")
        (tmp_path / "runs_trajectories.csv").write_text(TRAJ + f"o1,a,{HUGE!r},5.0\n")
        assert main(["validate", str(runs), "--timeout", "100"]) == 1
        assert "InconsistentTrajectory [(o1, a)]" in capsys.readouterr().err


class TestOffGridTimeout:
    """An unsolved run at a timeout off the millisecond grid is at the timeout."""

    def test_arff_unsolved_runtime_just_below_it(self, tmp_path):
        # 7.0006 snaps to 7.001, past the timeout: an unsolved ASlib run is scored at it.
        sc = _load(tmp_path, ARFF + "i1,1,a,7.0006,timeout\ni1,1,b,7.0006,ok\n", timeout=7.0009)
        assert sc.outcomes[("i1", "a")] == sc.outcomes[("i1", "b")] == RunOutcome(
            7.0009, RunStatus.TIMEOUT)

    @pytest.mark.parametrize("timeout,cell", [("7.0009", "7.001"), ("100.0004", "100.000")])
    def test_gen_then_validate(self, tmp_path, capsys, timeout, cell):
        runs = tmp_path / "g.csv"
        assert main(["gen", "-o", str(runs), "--timeout", timeout, "--instances", "40",
                     "--opt-fraction", "0.5", "--error-p", "0.3", "--seed", "5"]) == 0
        assert f",timeout,{cell}," in runs.read_text() and f",crash,{cell}," in runs.read_text()
        assert main(["validate", str(runs), "--timeout", timeout]) == 0
        assert capsys.readouterr().err == ""
        spec = dataclasses.replace(thorough_vs_fast_spec(5, 40, float(timeout)), opt_fraction=0.5,
                                   error_probability=0.3, scenario_id="g")
        assert parse_runs(runs, float(timeout)) == generate(spec)


SOLVED, TIMEOUT, ERROR = RunStatus.SOLVED, RunStatus.TIMEOUT, RunStatus.ERROR

# One run, recorded by hand and in a runs file: (status, time_s, obj, timeout, what
# validate_scenario makes of it, what parse_runs makes of it). Each is the stored
# (time_s, status, obj) or the message of the refusal; for parse_runs, ... when it is
# validate_scenario's, and None where a runs file cannot record the run.
RUN_RULES = {
    "solved time snapped": (SOLVED, 1.0004, None, 10.0, (1.0, SOLVED, math.inf), ...),
    "status from its value": ("timeout", 10.0, 5.0, 10.0, (10.0, TIMEOUT, 5.0), ...),
    "unsolved before the timeout": (ERROR, 3.0, None, 10.0,
                                    "error run must record time_s == timeout, got 3.0",
                                    (10.0, ERROR, math.inf)),
    "unknown status": ("weird", 1.0, None, 10.0, "unknown status 'weird'",
                       "unknown status 'weird'; expected one of"
                       " ['crash', 'memout', 'ok', 'timeout']"),
    "time not a number": (SOLVED, "1.0", None, 10.0,
                          "time_s must be a finite number, got '1.0'", None),
    "nan time": (SOLVED, math.nan, None, 10.0, "time_s must be a finite number, got nan", ...),
    "inf time": (SOLVED, math.inf, None, 10.0, "time_s must be a finite number, got inf", ...),
    "negative time": (SOLVED, -0.5, None, 10.0, "time_s must be >= 0, got -0.5", ...),
    "unsolved past the timeout": (TIMEOUT, 12.0, None, 10.0,
                                  "time_s 12.0 exceeds the timeout 10.0", ...),
    "solved at the timeout once snapped": (
        SOLVED, 9.9996, None, 10.0,
        "a solved run must finish strictly before the timeout, got 10.0", ...),
    "nan obj": (SOLVED, 1.0, math.nan, 10.0, "obj must be finite or +inf, got nan", ...),
    "-inf obj": (SOLVED, 1.0, -math.inf, 10.0, "obj must be finite or +inf, got -inf", ...),
    "huge time": (SOLVED, HUGE, None, 10.0, "time_s 1e+306 exceeds the timeout 10.0", ...),
    "unsolved at an off-grid timeout": (TIMEOUT, 7.0009, 5.0, 7.0009,
                                        (7.0009, TIMEOUT, 5.0), ...),
    "unsolved at an off-grid timeout as written": (
        ERROR, 7.001, None, 7.0009, "time_s 7.001 exceeds the timeout 7.0009",
        (7.0009, ERROR, math.inf)),
    "unsolved at a tiny timeout as written": (
        ERROR, 0.001, None, 0.0005, "time_s 0.001 exceeds the timeout 0.0005",
        (0.0005, ERROR, math.inf)),
    "unsolved at a timeout rounding up as written": (
        ERROR, 2.002, None, 2.0015, "time_s 2.002 exceeds the timeout 2.0015",
        (2.0015, ERROR, math.inf)),
    "unsolved past an off-grid timeout as written": (
        TIMEOUT, 7.002, 5.0, 7.0009, "time_s 7.002 exceeds the timeout 7.0009", ...),
    "solved at an off-grid timeout": (SOLVED, 7.0009, 5.0, 7.0009,
                                      "time_s 7.0009 exceeds the timeout 7.0009", ...),
    "solved at an off-grid timeout as written": (
        SOLVED, 7.001, 5.0, 7.0009, "time_s 7.001 exceeds the timeout 7.0009", ...),
    "solved before an off-grid timeout": (SOLVED, 7.0, 5.0, 7.0009, (7.0, SOLVED, 5.0), ...),
    "solved at an on-grid timeout": (
        SOLVED, 7.0, 5.0, 7.0, "a solved run must finish strictly before the timeout, got 7.0",
        ...),
}
STATUS_CELLS = {SOLVED: "ok", TIMEOUT: "timeout", ERROR: "crash"}


class TestRunRules:
    """Each run rule and its message, through validate_scenario and through parse_runs."""

    @pytest.mark.parametrize("name", sorted(RUN_RULES))
    def test_validate_scenario(self, name):
        status, time_s, obj, timeout, expected, _ = RUN_RULES[name]
        kind = InstanceKind.DECISION if obj is None else InstanceKind.OPTIMIZATION
        raw = Scenario("x", (Instance("i1", kind),), ("a",), timeout,
                       {("i1", "a"): RunOutcome(time_s, status, obj)})
        if isinstance(expected, str):
            with pytest.raises(ValidationError) as e:
                validate_scenario(raw)
            assert [(v.code, v.message, v.where) for v in e.value.violations] == [
                ("BadOutcome", expected, "(i1, a)")]
        else:
            assert validate_scenario(raw).outcomes[("i1", "a")] == RunOutcome(*expected)

    @pytest.mark.parametrize("name", sorted(k for k, v in RUN_RULES.items() if v[-1] is not None))
    def test_parse_runs(self, tmp_path, name):
        status, time_s, obj, timeout, in_memory, expected = RUN_RULES[name]
        expected = in_memory if expected is ... else expected
        row = f"i1,a,{STATUS_CELLS.get(status, status)},{time_s!r},{'' if obj is None else obj}\n"
        if isinstance(expected, str):
            with pytest.raises(RowError) as e:
                _load(tmp_path, RUNS + row, timeout=timeout)
            assert str(e.value) == f"line 2: {expected}"
        else:
            sc = _load(tmp_path, RUNS + row, timeout=timeout)
            assert sc.outcomes[("i1", "a")] == RunOutcome(*expected)


def _round_trip(sc):
    recorded = [i.id for i in sc.instances if i.best_known_obj is not None]
    with tempfile.TemporaryDirectory() as d:
        runs = Path(d) / "rt.csv"
        if recorded:  # the files have no place for it: refused before any file is opened
            with pytest.raises(SchemaError, match=f"instance {recorded[0]!r} records"):
                emit_scenario(sc, runs)
            assert not any(Path(d).iterdir())
            return
        emit_scenario(sc, runs)
        parsed = parse_runs(runs, sc.timeout_s, scenario_id=sc.id)
    assert parsed == sc
    assert validate_scenario(parsed) == parsed


class TestRoundTrip:
    @given(generated())
    def test_mixed_kinds_with_trajectories(self, sc):
        _round_trip(sc)

    @given(scenarios(best_known=True))
    def test_property_scenarios(self, sc):
        _round_trip(sc)

    def test_best_known_obj_is_refused(self, tmp_path):
        # Scored in memory with the recorded value, the ratios would change after a round
        # trip (0.5 and 0.4 to 1.0 and 0.8), so the scenario is not written.
        sc = validate_scenario(Scenario(
            "bk", (Instance("o1", InstanceKind.OPTIMIZATION, 20.0),), ("a", "b"), 100.0,
            {("o1", "a"): RunOutcome(100.0, RunStatus.TIMEOUT, 40.0),
             ("o1", "b"): RunOutcome(100.0, RunStatus.TIMEOUT, 50.0)}))
        with pytest.raises(SchemaError) as e:
            emit_scenario(sc, tmp_path / "bk.csv")
        assert str(e.value) == ("instance 'o1' records best_known_obj 20.0, which a runs file"
                                " has no place for")
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("iid", [" i", "b ", "i\n", "\ti", "", " "])
    @pytest.mark.parametrize("where", ["instance", "solver"])
    def test_id_that_would_not_read_back_is_refused(self, tmp_path, iid, where):
        # The reader strips each id and refuses an empty one: " i" would come back as "i",
        # and "" as a RowError on line 2.
        ids = [iid, "x "]  # the first that would not read back is named
        pairs = [(i, "a") for i in ids] if where == "instance" else [("i", s) for s in ids]
        sc = validate_scenario(Scenario(
            "ids", tuple(dict.fromkeys(i for i, _ in pairs)),
            tuple(dict.fromkeys(s for _, s in pairs)), 100.0,
            {pair: RunOutcome(1.0, RunStatus.SOLVED) for pair in pairs}))
        with pytest.raises(SchemaError) as e:
            emit_scenario(sc, tmp_path / "ids.csv")
        assert str(e.value) == (f"{where} id {iid!r} would not read back as itself: a runs file"
                                " strips the space around an id and has no empty one")
        assert list(tmp_path.iterdir()) == []

    def test_instance_ids_are_judged_before_solver_ids(self, tmp_path):
        sc = validate_scenario(Scenario("ids", ("i ",), (" s",), 100.0,
                                        {("i ", " s"): RunOutcome(1.0, RunStatus.SOLVED)}))
        with pytest.raises(SchemaError, match="instance id 'i '"):
            emit_scenario(sc, tmp_path / "ids.csv")


class TestAslibOrder:
    def test_first_appearance_order_with_interleaved_rows(self, tmp_path):
        rows = "".join(
            f"i{i},1,s{s},{1 + i + s}.0,ok\n" for s in (2, 0, 1) for i in (3, 1, 2)
        )
        sc = _load(tmp_path, ARFF + rows)
        assert sc.instance_ids == ("i3", "i1", "i2")
        assert sc.solvers == ("s2", "s0", "s1")


class TestRowWidth:
    """A row must have exactly as many cells as its header; extra cells are not dropped."""

    @pytest.mark.parametrize("runs,traj,width,got", [
        ("instance_id,solver_id,status,time_s\ni1,a,ok,1.0,extra,cells\n", None, 4, 6),
        (RUNS + "i1,a,ok,1.0,,extra\n", None, 5, 6),
        (RUNS + "o1,a,timeout,100,5\n", TRAJ + "o1,a,1.0,5.0,extra\n", 4, 5),
        (RUNS + "o1,a,timeout,100,5\n", TRAJ + "o1,a,1.0\n", 4, 3),
    ], ids=["runs, four columns", "runs, five columns", "trajectories, long", "trajectories, short"])
    def test_wrong_width_names_the_line(self, tmp_path, runs, traj, width, got):
        with pytest.raises(RowError) as e:
            _load(tmp_path, runs, traj=traj)
        assert str(e.value) == f"line 2: expected {width} fields, got {got}"


class TestRepeatedHeaderColumn:
    """A header names each column once: a repeated one would drop its second cells."""

    @pytest.mark.parametrize("runs,traj,path,name", [
        ("instance_id,solver_id,status,time_s,time_s\ni1,a,ok,1.0,2.0\n", None, "r.csv", "time_s"),
        ("instance_id,solver_id,status,time_s,obj,obj\ni1,a,ok,1.0,,\n", None, "r.csv", "obj"),
        (" status,instance_id,solver_id,status ,time_s\nok,i1,a,ok,1.0\n", None, "r.csv", "status"),
        (RUNS + "o1,a,timeout,100,5\n", "instance_id,solver_id,t_s,obj,obj\no1,a,1.0,5.0,6.0\n",
         "r_trajectories.csv", "obj"),
        (ARFF.replace("@data", "@attribute runtime numeric\n@data") + "i1,1,a,1.0,ok,2.0\n",
         None, "r.arff", "runtime"),
    ], ids=["runs time_s", "runs obj", "runs padded status", "trajectories obj", "arff runtime"])
    def test_rejected_before_any_row(self, tmp_path, runs, traj, path, name):
        # Each runs file's row gets an unknown status, so a RowError would show
        # that a row was read before the header was checked.
        with pytest.raises(SchemaError) as e:
            _load(tmp_path, runs.replace("\ni1,a,ok,1.0", "\ni1,a,weird,1.0"), traj=traj)
        assert str(e.value) == (f"{tmp_path / path}: column {name!r} appears more than once in"
                                " the header")

    def test_cli_validate_exits_1(self, tmp_path, capsys):
        runs = tmp_path / "r.csv"
        runs.write_text("instance_id,solver_id,status,time_s,time_s\ni1,a,ok,1.0,2.0\n")
        assert main(["validate", str(runs), "--timeout", "100"]) == 1
        assert "column 'time_s' appears more than once" in capsys.readouterr().err


def _spec(timeout_s=50.0):
    return ArchetypeSpec(
        seed=3, n_instances=30, timeout_s=timeout_s, opt_fraction=0.5,
        solvers=(SolverSpec(0.7, uniform(0.0, 20.0), uniform(0.0, 5.0), name="a"),
                 SolverSpec(0.5, uniform(1.0, 40.0), name="b")),
    )


class TestValueTypes:
    def test_slotted_types_have_no_instance_dict(self):
        for value in (Instance("i1"), RunOutcome(1.0, RunStatus.SOLVED), Trajectory()):
            assert not hasattr(value, "__dict__")

    def test_pickle_and_replace_round_trip(self, tmp_path):
        sc = _load(tmp_path, RUNS + "o1,a,ok,3.0,5.0\no1,b,timeout,100,7.5\n",
                   traj=TRAJ + "o1,a,1.0,6.0\no1,a,2.5,5.0\no1,b,4.0,7.5\n")
        assert sc.trajectories
        values = [sc, *sc.instances, *sc.outcomes.values(), *sc.trajectories.values()]
        for value in values:
            assert pickle.loads(pickle.dumps(value)) == value
            assert dataclasses.replace(value) == value
        assert dataclasses.replace(sc.outcome("o1", "a"), obj=4.0).obj == 4.0


class TestRunReuse:
    def test_raw_statuses_and_times_are_normalized(self):
        raw = Scenario("x", (Instance("i1"),), ("a", "b"), 10,
                       {("i1", "a"): RunOutcome(3, "solved"), ("i1", "b"): RunOutcome(10, "timeout")})
        sc = validate_scenario(raw)
        for key, run in sc.outcomes.items():
            assert run is not raw.outcomes[key]
            assert type(run.status) is RunStatus and type(run.time_s) is float
        assert sc.outcome("i1", "a") == RunOutcome(3.0, RunStatus.SOLVED)
        assert sc.outcome("i1", "b") == RunOutcome(10.0, RunStatus.TIMEOUT)

    @pytest.mark.parametrize("timeout_s", [50.0, 50])
    def test_validation_keeps_the_generated_runs(self, timeout_s):
        sc = generate(_spec(timeout_s))
        again = validate_scenario(sc)
        assert again == sc
        assert all(again.outcomes[k] == run for k, run in sc.outcomes.items())

    def test_unsnapped_or_negative_zero_times_are_rebuilt(self):
        runs = {("i1", "a"): RunOutcome(1.0004, RunStatus.SOLVED),
                ("i1", "b"): RunOutcome(-0.0, RunStatus.SOLVED),
                ("i1", "c"): RunOutcome(2.0, RunStatus.SOLVED)}
        sc = validate_scenario(Scenario("x", (Instance("i1"),), ("a", "b", "c"), 10.0, runs))
        assert sc.outcome("i1", "a").time_s == 1.0
        assert math.copysign(1.0, sc.outcome("i1", "b").time_s) == 1.0
        assert sc.outcome("i1", "c") == runs[("i1", "c")]


@st.composite
def specs(draw):
    """Specs with both kinds, errors, suboptimal runs, and int or off-grid timeouts."""
    timeout = draw(st.sampled_from([50, 50.0, 3, 7.0009, 0.0005, 100.0004]))
    solvers = []
    for j in range(draw(st.integers(1, 4))):
        lo, hi = sorted(draw(st.floats(0.0, 1.0)) * timeout for _ in range(2))
        assume(lo < timeout)
        quality = draw(st.sampled_from([None, uniform(0.0, 5.0), uniform(1.0, 1.0)]))
        solvers.append(SolverSpec(draw(st.floats(0.0, 1.0)), uniform(lo, hi), quality,
                                  draw(st.sampled_from([None, f"n{j}"]))))
    return ArchetypeSpec(
        seed=draw(st.integers(0, 10_000)), n_instances=draw(st.integers(1, 12)),
        timeout_s=timeout, solvers=tuple(solvers),
        opt_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        subopt_probability=draw(st.sampled_from([0.0, 0.5, 1.0])),
        error_probability=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )


class TestGeneratedRunsAreChecked:
    """The builder judges generate's runs as it judges any, so validating its scenario changes
    nothing."""

    @given(specs())
    def test_validation_is_the_identity(self, spec):
        sc = generate(spec)
        assert validate_scenario(sc) == sc


class TestKindRules:
    """The two run-kind rules give the same code, message and pair from every source."""

    def test_decision_run_with_an_obj(self):
        raw = Scenario("x", (Instance("i1"),), ("a",), 10.0,
                       {("i1", "a"): RunOutcome(1.0, RunStatus.SOLVED, 3.0)})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert [(v.code, v.message, v.where) for v in e.value.violations] == [
            ("BadOutcome", "decision instance outcomes must have obj = +inf", "(i1, a)"),
        ]

    def test_solved_optimization_rows_without_an_obj_cell(self, tmp_path):
        # o2 is an optimization instance by its later row; i1 lacks b's run.
        runs = RUNS + "o2,a,ok,10.0,\no1,a,ok,10.0,7.0\no1,b,ok,3.0,\no2,b,ok,20.0,5.0\ni1,a,ok,1.0,\n"
        with pytest.raises(ValidationError) as e:
            _load(tmp_path, runs, traj=TRAJ + "o1,a,2.0,8.0\n")
        assert [(v.code, v.message, v.where) for v in e.value.violations] == [
            ("BadOutcome", "solved optimization run must have a finite obj", "(o2, a)"),
            ("BadOutcome", "solved optimization run must have a finite obj", "(o1, b)"),
            ("MissingOutcome", "no recorded run for this pair", "(i1, b)"),
            ("InconsistentTrajectory", "last event objective differs from the run outcome", "(o1, a)"),
        ]

    def test_kind_rules_follow_the_per_run_checks(self):
        raw = Scenario("x", (Instance("i1"), Instance("o1", InstanceKind.OPTIMIZATION)), ("a", "b"),
                       10.0, {("i1", "a"): RunOutcome(1.0, RunStatus.SOLVED, 3.0),
                              ("i1", "b"): RunOutcome(20.0, RunStatus.SOLVED),
                              ("o1", "a"): RunOutcome(2.0, RunStatus.SOLVED),
                              ("o1", "b"): RunOutcome(10.0, "weird")})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert [(v.code, v.message, v.where) for v in e.value.violations] == [
            ("BadOutcome", "time_s 20.0 exceeds the timeout 10.0", "(i1, b)"),
            ("BadOutcome", "unknown status 'weird'", "(o1, b)"),
            ("BadOutcome", "decision instance outcomes must have obj = +inf", "(i1, a)"),
            ("BadOutcome", "solved optimization run must have a finite obj", "(o1, a)"),
        ]


@pytest.fixture(params=[1, 2, 3])
def small_blocks(request, monkeypatch):
    """The runs and trajectory readers check one, two or three rows at a time."""
    monkeypatch.setattr(solvereval.io, "_BLOCK", request.param)
    return request.param


@pytest.mark.usefixtures("small_blocks")
class TestErrorParityInSmallBlocks(TestErrorParity):
    """The same lines, messages and violations wherever the block boundaries fall."""


@pytest.mark.usefixtures("small_blocks")
class TestRowWidthInSmallBlocks(TestRowWidth):
    pass


def _rows(n, solver="a"):
    """n good runs rows on n decision instances."""
    return "".join(f"i{k},{solver},ok,{k % 90 + 1}.5,\n" for k in range(n))


@pytest.fixture(params=[1, 2, 3, None], ids=["1", "2", "3", "default"])
def block(request, monkeypatch):
    """The readers' block size: small ones, and the default."""
    if request.param is not None:
        monkeypatch.setattr(solvereval.io, "_BLOCK", request.param)
    return solvereval.io._BLOCK


class TestBlockBoundaries:
    def test_fault_on_the_first_row_of_the_second_block(self, tmp_path, block):
        with pytest.raises(RowError) as e:
            _load(tmp_path, RUNS + _rows(block) + "j1,a,weird,1.0,\n" + _rows(3, "b"))
        assert str(e.value) == (f"line {block + 2}: unknown status 'weird'; expected one of"
                                " ['crash', 'memout', 'ok', 'timeout']")

    def test_trajectory_fault_on_the_first_row_of_the_second_block(self, tmp_path, block):
        runs = RUNS + "".join(f"o{k},a,timeout,100,{k + 1}\n" for k in range(block + 1))
        events = "".join(f"o{k},a,1.0,{k + 1}\n" for k in range(block))
        with pytest.raises(RowError) as e:
            _load(tmp_path, runs, traj=TRAJ + events + f"o{block},a,abc,1\n")
        assert str(e.value) == f"line {block + 2}: unparseable time_s 'abc'"

    def test_duplicate_of_a_run_in_an_earlier_block(self, tmp_path, block):
        with pytest.raises(RowError) as e:
            _load(tmp_path, RUNS + _rows(block) + "i0,a,timeout,100,\n")
        assert str(e.value) == f"line {block + 2}: duplicate row for (i0, a)"

    def test_events_of_one_pair_across_a_block_boundary(self, tmp_path, block):
        n = 2 * block
        runs = RUNS + f"o1,a,timeout,100,{1001 - n}\n"
        events = [f"o1,a,0.{k + 1:03d},{1000 - k}\n" for k in range(n)]
        sc = _load(tmp_path, runs, traj=TRAJ + "".join(events))
        assert sc.trajectories.get(("o1", "a")).events == tuple(
            ((k + 1) / 1000, float(1000 - k)) for k in range(n))
        # The first event of the second block is no later than the last of the first.
        events[block] = f"o1,a,0.{block:03d},{1000 - block}\n"
        with pytest.raises(ValidationError) as e:
            _load(tmp_path, runs, traj=TRAJ + "".join(events))
        assert [v.message for v in e.value.violations] == [
            "event times must be strictly increasing"]

    def test_row_count_an_exact_multiple_of_the_block_size(self, tmp_path, block):
        solvers = 2 if block % 2 == 0 else 1
        spec = ArchetypeSpec(
            seed=4, n_instances=2 * block // solvers, timeout_s=50.0, opt_fraction=0.5,
            solvers=tuple(SolverSpec(0.6, uniform(0.0, 40.0), uniform(0.0, 5.0))
                          for _ in range(solvers)))
        sc = generate(spec)
        emit_scenario(sc, tmp_path / "r.csv")
        assert len((tmp_path / "r.csv").read_text().splitlines()) == 2 * block + 1
        assert parse_runs(tmp_path / "r.csv", 50.0, scenario_id=sc.id) == sc

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_bad_row_after_a_cell_that_spans_lines(self, tmp_path, block, newline):
        text = RUNS + f'i1,"x{newline}y",ok,1.0,\n' + _rows(2) + "i3,a,weird,1.0,\n"
        p = tmp_path / "r.csv"
        p.write_bytes(text.encode())
        with open(p, newline="") as fh:
            reader = csv.reader(fh)
            line = next(reader.line_num for row in reader if "weird" in row)
        with pytest.raises(RowError) as e:
            parse_runs(p, 100.0)
        assert e.value.line_no == line == 6

    def test_row_error_before_a_csv_error_later_in_its_block(self, tmp_path, block):
        runs = RUNS + "i1,a,weird,1.0,\n" + "i2,a,ok,1.0," + "x" * 40 + "\n"
        limit = csv.field_size_limit(20)
        try:
            with pytest.raises(RowError) as e:
                _load(tmp_path, runs)
            assert e.value.line_no == 2
            with pytest.raises(csv.Error, match="field larger than field limit"):
                _load(tmp_path, RUNS + _rows(block) + "i9,a,ok,1.0," + "x" * 40 + "\n")
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("head,row,good", [
        (RUNS, "i0,a,weird,1.0,", "i{:04d},a{},ok,1.0,"),
        (ARFF, "i0,1,a,abc,ok", "i{:04d},1,a{},1.0,ok"),
    ], ids=["runs", "arff"])
    def test_row_error_before_text_that_is_not_utf8_later_in_its_block(self, tmp_path, block,
                                                                       head, row, good):
        # The bytes that do not decode come some 9 KB (past a text chunk) after the bad row.
        good = "".join(good.format(k, "_" * 30) + "\n" for k in range(1, 250))
        p = tmp_path / ("r.arff" if head == ARFF else "r.csv")
        read = parse_aslib_runs if head == ARFF else parse_runs
        p.write_bytes((head + row + "\n" + good).encode() + b"\xff\n")
        with pytest.raises(RowError) as e:
            read(p, 100.0)
        assert e.value.line_no == head.count("\n") + 1
        p.write_bytes((head + good).encode() + b"\xff\n")
        with pytest.raises(SchemaError, match="not UTF-8 text"):
            read(p, 100.0)

    def test_padded_cells_read_as_plain_ones(self, tmp_path, block):
        # Ids and statuses are read stripped, statuses lowered too.
        runs = RUNS + "o1,a,ok,3.0,5.0\no1,b,timeout,100,7.5\no2,a,timeout,100,\no2,b,ok,1,\n"
        traj = TRAJ + "o1,a,1.0,6.0\no1,a,2.5,5.0\no1,b,4.0,7.5\n"
        plain = _load(tmp_path, runs, traj=traj)
        padded = _load(tmp_path, runs.replace("o1,a,ok", " o1 , a , OK "),
                       traj=traj.replace("o1,a,2.5", "o1, a ,2.5"))
        assert padded == plain

    def test_padded_trajectory_ids_read_as_plain_ones(self, tmp_path, block):
        # Both trajectory ids are read stripped, also in the message naming a pair of no run.
        runs = RUNS + "o1,a,ok,3.0,5.0\no1,b,timeout,100,7.5\n"
        traj = TRAJ + "o1,a,1.0,6.0\no1,a,2.5,5.0\no1,b,4.0,7.5\n"
        plain = _load(tmp_path, runs, traj=traj)
        assert _load(tmp_path, runs, traj=traj.replace("o1,b", " o1 ,\tb ")) == plain
        with pytest.raises(RowError, match=r"^line 4: trajectory row for unknown pair \('o9', 'b'\)$"):
            _load(tmp_path, runs, traj=traj.replace("o1,b", " o9 , b"))

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_generate_in_small_blocks(self, monkeypatch, size):
        # A block of instances is drawn with one next_floats call, and its runs and events
        # go to the builder by solver: the same stream, and the same scenario, at any size.
        spec = dataclasses.replace(_spec(), error_probability=0.2)
        whole = generate(spec)
        drawn, next_floats = [], SplitMix64.next_floats
        monkeypatch.setattr(SplitMix64, "next_floats",
                            lambda rng, n: drawn.append(next_floats(rng, n)) or drawn[-1])
        monkeypatch.setattr(solvereval.synthkit, "_BLOCK", size)
        again = generate(spec)
        assert again == whole
        assert dict(again.outcomes.times) == dict(whole.outcomes.times)
        assert dict(again.trajectories.offsets) == dict(whole.trajectories.offsets)
        draws, n = 2 + 8 * len(spec.solvers), spec.n_instances  # per instance
        assert [len(u) for u in drawn] == [draws * min(size, n - k) for k in range(0, n, size)]
        stream = SplitMix64(spec.seed)
        assert [x for u in drawn for x in u] == [stream.next_float() for _ in range(draws * n)]


class TestAslibParity:
    """An attribute-relation table reads as the runs CSV of the same runs, past lines that carry
    no run of repetition 1, wherever the block boundaries fall."""

    def test_same_runs_as_the_runs_csv(self, tmp_path, block):
        spec = ArchetypeSpec(
            seed=6, n_instances=80, timeout_s=50.0, error_probability=0.2,
            solvers=tuple(SolverSpec(0.6, uniform(0.0, 45.0), name=f"s{j}") for j in range(4)))
        sc = generate(spec)
        emit_scenario(sc, tmp_path / "r.csv")
        text, others = aslib_runs_text(sc, random.Random(block))
        (tmp_path / "r.arff").write_text(text)
        assert others > 0 and len(sc.instance_ids) * len(sc.solvers) > solvereval.io._BLOCK
        with pytest.warns(UserWarning, match=rf"ignored {others} row\(s\) with repetition != 1"):
            arff = parse_aslib_runs(tmp_path / "r.arff", 50.0)
        runs = parse_runs(tmp_path / "r.csv", 50.0)
        assert arff.instance_ids == runs.instance_ids == sc.instance_ids
        assert arff.solvers == runs.solvers == sc.solvers
        assert dict(arff.outcomes.times) == dict(runs.outcomes.times)
        assert dict(arff.outcomes.statuses) == dict(runs.outcomes.statuses)
        assert {RunStatus.SOLVED, RunStatus.TIMEOUT, RunStatus.ERROR} <= {
            st for column in runs.outcomes.statuses.values() for st in column}

    @pytest.mark.parametrize("row", [("", "b"), ("i2", ""), ("", "")],
                             ids=["instance", "solver", "both"])
    def test_empty_id_refused_as_in_the_runs_csv(self, tmp_path, block, row):
        # The same runs, the last with an empty id, in both formats: the same message, at
        # the row's line (the table's header is 7 lines long, the CSV's 1).
        good = [("i1", "a", "1.0"), ("i1", "b", "2.0"), ("i2", "a", "3.0")]
        rows = [*good, (*row, "4.0")]
        (tmp_path / "r.csv").write_text(
            "instance_id,solver_id,status,time_s\n" + "".join(f"{i},{s},ok,{t}\n" for i, s, t in rows))
        (tmp_path / "r.arff").write_text(ARFF + "".join(f"{i},1,{s},{t},ok\n" for i, s, t in rows))
        with pytest.raises(RowError) as csv_error:
            parse_runs(tmp_path / "r.csv", 100.0)
        with pytest.raises(RowError) as arff_error:
            parse_aslib_runs(tmp_path / "r.arff", 100.0)
        assert (csv_error.value.line_no, arff_error.value.line_no) == (5, 11)
        assert str(csv_error.value).partition(": ")[2] == str(arff_error.value).partition(": ")[2]
        assert str(arff_error.value) == "line 11: instance_id and solver_id must be non-empty"


class TestAslibDataLines:
    """Attribute-relation data lines as the reader takes them, at every block size. ARFF is
    7 lines long, so the first data line is line 8."""

    def test_row_error_before_an_attribute_later_in_its_block(self, tmp_path, block):
        with pytest.raises(RowError) as e:
            _load(tmp_path, ARFF + "i1,1,a,1.0,ok\ni1,1,b,abc,ok\n@attribute x numeric\n")
        assert str(e.value) == "line 9: unparseable time_s 'abc'"

    def test_lines_with_no_row_count(self, tmp_path, block):
        with pytest.raises(RowError) as e:
            _load(tmp_path, ARFF + "i1,1,a,1.0,ok\n   \n% a note\n\t\ni1,1,b,abc,ok\n")
        assert str(e.value) == "line 12: unparseable time_s 'abc'"

    def test_other_repetition_with_a_junk_runtime_is_skipped(self, tmp_path, block):
        p = tmp_path / "r.arff"
        p.write_text(ARFF + "i1,1,a,1.0,ok\ni1,2,a,junk,ok\n")
        with pytest.warns(UserWarning, match=r"ignored 1 row\(s\) with repetition != 1"):
            sc = parse_aslib_runs(p, 100.0)
        assert sc.outcomes == {("i1", "a"): RunOutcome(1.0, RunStatus.SOLVED)}

    def test_other_repetition_with_an_empty_id_is_skipped(self, tmp_path, block):
        p = tmp_path / "r.arff"
        p.write_text(ARFF + "i1,1,a,1.0,ok\n,2,a,1.0,ok\ni1,2,,1.0,ok\n")
        with pytest.warns(UserWarning, match=r"ignored 2 row\(s\) with repetition != 1"):
            sc = parse_aslib_runs(p, 100.0)
        assert sc.outcomes == {("i1", "a"): RunOutcome(1.0, RunStatus.SOLVED)}

    def test_indented_quoted_id(self, tmp_path, block):
        assert _load(tmp_path, ARFF + '  "i,1",1,a,1.0,ok\n').instance_ids == ("i,1",)

    def test_open_quote_is_read_within_its_line(self, tmp_path, block):
        sc = _load(tmp_path, ARFF + 'i1,1,a,1.0,"ok\ni1,1,b,2.0,ok\n')
        assert sc.outcome("i1", "a") == RunOutcome(1.0, RunStatus.SOLVED)
        assert sc.outcome("i1", "b") == RunOutcome(2.0, RunStatus.SOLVED)
        with pytest.raises(RowError) as e:
            _load(tmp_path, ARFF + 'i1,1,a,"1.0,ok\ni1,1,b,2.0,ok\n')
        assert str(e.value) == "line 8: expected 5 fields, got 4"
