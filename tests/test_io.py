"""File ingestion and report emission."""

from __future__ import annotations

import csv
import json
import math

import pytest
from helpers import scenario_from, solved, timed_out
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fold_columns import POLICIES, generated, plans
from test_properties import scenarios

from solvereval import (
    METRICS,
    DegenerateGap,
    Direction,
    EmptyInput,
    FoldPlan,
    InstanceKind,
    MissingTrajectory,
    RowError,
    RunStatus,
    SchemaError,
    ScoreTable,
    Trajectory,
    UnsupportedAttribute,
    ValidationError,
    build_report,
    emit_report,
    emit_scenario,
    evaluate,
    make_fold_plan,
    parse_aslib_runs,
    parse_runs,
    rank,
    trajectories_path_for,
)
from solvereval.io import ranking_json

RUNS_CSV = """instance_id,solver_id,status,time_s,obj
i1,a,ok,10.0,
i1,b,timeout,100.0,
o1,a,timeout,100.0,42.5
o1,b,ok,30.0,40.0
"""

TRAJ_CSV = """instance_id,solver_id,t_s,obj
o1,a,5.0,50.0
o1,a,20.0,42.5
o1,b,10.0,40.0
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParseRuns:
    def test_happy_path(self, tmp_path):
        p = _write(tmp_path, "runs.csv", RUNS_CSV)
        sc = parse_runs(p, 100.0)
        assert sc.id == "runs"
        assert sc.instance_ids == ("i1", "o1")
        assert sc.solvers == ("a", "b")
        assert sc.instance("i1").kind is InstanceKind.DECISION
        assert sc.instance("o1").kind is InstanceKind.OPTIMIZATION
        assert sc.outcome("i1", "a").status is RunStatus.SOLVED
        assert sc.outcomes[("i1", "a")].time_s == 10.0
        assert sc.outcomes[("o1", "a")].obj == 42.5
        assert math.isinf(sc.outcomes[("i1", "b")].obj)

    def test_scenario_id_override(self, tmp_path):
        p = _write(tmp_path, "runs.csv", RUNS_CSV)
        assert parse_runs(p, 100.0, scenario_id="named").id == "named"

    def test_sibling_trajectories_discovered(self, tmp_path):
        p = _write(tmp_path, "runs.csv", RUNS_CSV)
        _write(tmp_path, "runs_trajectories.csv", TRAJ_CSV)
        sc = parse_runs(p, 100.0)
        assert sc.trajectories.get(("o1", "a")) == Trajectory(((5.0, 50.0), (20.0, 42.5)))
        # solved optimization run: proven optimal at its time, which the trajectory ends by
        assert sc.trajectories.get(("o1", "b")) == Trajectory(((10.0, 40.0),))
        assert sc.outcomes[("o1", "b")].time_s == 30.0

    def test_explicit_trajectory_path(self, tmp_path):
        p = _write(tmp_path, "runs.csv", RUNS_CSV)
        t = _write(tmp_path, "elsewhere.csv", TRAJ_CSV)
        sc = parse_runs(p, 100.0, trajectories_path=t)
        assert sc.trajectories.get(("o1", "b")) is not None

    def test_no_trajectory_file_is_fine(self, tmp_path):
        p = _write(tmp_path, "solo.csv", "instance_id,solver_id,status,time_s\ni1,a,ok,1.0\n")
        sc = parse_runs(p, 100.0)
        assert not sc.trajectories
        assert sc.instance("i1").kind is InstanceKind.DECISION

    def test_unsolved_times_snap_to_timeout(self, tmp_path):
        p = _write(tmp_path, "r.csv",
                   "instance_id,solver_id,status,time_s\ni1,a,timeout,87.3\ni1,b,crash,12.0\n")
        sc = parse_runs(p, 100.0)
        assert sc.outcomes[("i1", "a")].time_s == 100.0
        assert sc.outcomes[("i1", "b")].time_s == 100.0
        assert sc.outcome("i1", "b").status is RunStatus.ERROR

    def test_accepts_inf_objective(self, tmp_path):
        p = _write(tmp_path, "r.csv",
                   "instance_id,solver_id,status,time_s,obj\no1,a,timeout,100,inf\no1,b,timeout,100,5.0\n")
        sc = parse_runs(p, 100.0)
        assert sc.instance("o1").kind is InstanceKind.OPTIMIZATION
        assert math.isinf(sc.outcomes[("o1", "a")].obj)

    def test_memout_maps_to_error(self, tmp_path):
        p = _write(tmp_path, "r.csv",
                   "instance_id,solver_id,status,time_s\ni1,a,memout,100.0\n")
        assert parse_runs(p, 100.0).outcome("i1", "a").status is RunStatus.ERROR

    @pytest.mark.parametrize("header", [
        "instance_id,solver_id,status",                    # missing time
        "instance_id,solver_id,status,time_s,obj,extra",   # unexpected column
        "solver_id,status,time_s",                         # missing instance
    ])
    def test_header_schema_errors(self, tmp_path, header):
        p = _write(tmp_path, "r.csv", header + "\n")
        with pytest.raises(SchemaError):
            parse_runs(p, 100.0)

    def test_empty_file(self, tmp_path):
        p = _write(tmp_path, "r.csv", "")
        with pytest.raises(SchemaError):
            parse_runs(p, 100.0)

    @pytest.mark.parametrize("row,fragment", [
        ("i1,a,weird,1.0", "unknown status"),
        ("i1,a,ok,abc", "unparseable time"),
        ("i1,a,ok,-1.0", ">= 0"),
        ("i1,a,ok,100.0", "strictly before"),
        ("i1,a,ok,140.0", "exceeds the timeout"),
        ("i1,a,timeout,140.0", "exceeds the timeout"),
        (",a,ok,1.0", "non-empty"),
    ])
    def test_row_errors(self, tmp_path, row, fragment):
        p = _write(tmp_path, "r.csv", "instance_id,solver_id,status,time_s\n" + row + "\n")
        with pytest.raises(RowError) as e:
            parse_runs(p, 100.0)
        assert "line 2" in str(e.value)
        assert fragment in str(e.value)

    @pytest.mark.parametrize("obj", ["-inf", "nan", "junk"])
    def test_bad_objectives(self, tmp_path, obj):
        p = _write(tmp_path, "r.csv",
                   f"instance_id,solver_id,status,time_s,obj\no1,a,timeout,100.0,{obj}\n")
        with pytest.raises(RowError):
            parse_runs(p, 100.0)

    def test_duplicate_pair(self, tmp_path):
        p = _write(tmp_path, "r.csv",
                   "instance_id,solver_id,status,time_s\ni1,a,ok,1.0\ni1,a,ok,2.0\n")
        with pytest.raises(RowError) as e:
            parse_runs(p, 100.0)
        assert "line 3" in str(e.value)

    def test_missing_pair_fails_validation(self, tmp_path):
        p = _write(tmp_path, "r.csv",
                   "instance_id,solver_id,status,time_s\ni1,a,ok,1.0\ni2,b,ok,2.0\n")
        with pytest.raises(ValidationError):
            parse_runs(p, 100.0)

    def test_trajectory_row_for_unknown_pair(self, tmp_path):
        p = _write(tmp_path, "runs.csv", RUNS_CSV)
        _write(tmp_path, "runs_trajectories.csv",
               "instance_id,solver_id,t_s,obj\nghost,a,1.0,5.0\n")
        with pytest.raises(RowError):
            parse_runs(p, 100.0)

    def test_trajectory_header_checked(self, tmp_path):
        p = _write(tmp_path, "runs.csv", RUNS_CSV)
        _write(tmp_path, "runs_trajectories.csv", "instance_id,solver_id,time\n")
        with pytest.raises(SchemaError):
            parse_runs(p, 100.0)


class TestEmitScenario:
    def _scenario(self):
        return scenario_from(
            {
                ("i1", "a"): solved(10.0),
                ("i1", "b"): timed_out(),
                ("o1", "a"): timed_out(obj=42.5),
                ("o1", "b"): solved(30.0, obj=40.0),
            },
            kinds={"o1": "optimization"},
            trajectories={
                ("o1", "a"): Trajectory(((5.0, 50.0), (20.0, 42.5))),
                ("o1", "b"): Trajectory(((10.0, 40.0),)),
            },
            scenario_id="demo",
        )

    def test_written_files_and_content(self, tmp_path):
        sc = self._scenario()
        runs = tmp_path / "demo.csv"
        written = emit_scenario(sc, runs)
        assert written == [runs, trajectories_path_for(runs)]
        assert runs.read_text() == (
            "instance_id,solver_id,status,time_s,obj\n"
            "i1,a,ok,10.000,\n"
            "i1,b,timeout,100.000,\n"
            "o1,a,timeout,100.000,42.5\n"
            "o1,b,ok,30.000,40.0\n"
        )
        assert trajectories_path_for(runs).read_text() == (
            "instance_id,solver_id,t_s,obj\n"
            "o1,a,5.000,50.0\n"
            "o1,a,20.000,42.5\n"
            "o1,b,10.000,40.0\n"
        )

    def test_round_trip_is_field_identical(self, tmp_path):
        sc = self._scenario()
        runs = tmp_path / "demo.csv"
        emit_scenario(sc, runs)
        assert parse_runs(runs, sc.timeout_s) == sc

    def test_decision_only_omits_obj_column(self, tmp_path):
        sc = scenario_from({("i1", "a"): solved(1.0)}, scenario_id="d")
        runs = tmp_path / "d.csv"
        assert emit_scenario(sc, runs) == [runs]
        assert runs.read_text().splitlines()[0] == "instance_id,solver_id,status,time_s"

    @pytest.mark.parametrize("named", [False, True], ids=["sibling", "named path"])
    def test_rewrite_leaves_no_stale_trajectories(self, tmp_path, named):
        runs, tpath = tmp_path / "demo.csv", tmp_path / "events.csv"
        given = tpath if named else None
        tpath = tpath if named else trajectories_path_for(runs)
        emit_scenario(self._scenario(), runs, given)
        assert len(tpath.read_text().splitlines()) == 4
        sc = scenario_from({("i1", "a"): solved(1.0)}, scenario_id="demo")
        assert emit_scenario(sc, runs, given) == [runs, tpath]
        assert tpath.read_text() == "instance_id,solver_id,t_s,obj\n"
        assert parse_runs(runs, sc.timeout_s, given) == sc

    def test_no_solution_writes_inf(self, tmp_path):
        sc = scenario_from(
            {("o1", "a"): timed_out(), ("o1", "b"): timed_out(obj=5.0)},
            kinds={"o1": "optimization"},
            trajectories={("o1", "b"): Trajectory(((1.0, 5.0),))},
            scenario_id="x",
        )
        runs = tmp_path / "x.csv"
        emit_scenario(sc, runs)
        assert "o1,a,timeout,100.000,inf" in runs.read_text()
        assert parse_runs(runs, 100.0) == sc


def csv_writer_emit(scenario, runs_path, trajectories_path):
    """emit_scenario's files as csv.writer wrote them: a tuple per row through writerows."""
    statuses = {RunStatus.SOLVED: "ok", RunStatus.TIMEOUT: "timeout", RunStatus.ERROR: "crash"}
    decision = InstanceKind.DECISION
    has_opt = any(i.kind is not decision for i in scenario.instances)
    fields = ("instance_id", "solver_id", "status", "time_s")
    runs, tr = scenario.outcomes, scenario.trajectories
    run_rows, event_rows = [(*fields, "obj") if has_opt else fields], [
        ("instance_id", "solver_id", "t_s", "obj")]
    for p, inst in enumerate(scenario.instances):
        for s in scenario.solvers:
            cells = inst.id, s, statuses[runs.statuses[s][p]], f"{runs.times[s][p]:.3f}"
            obj = "" if inst.kind is decision else runs.objs[s][p]
            run_rows.append((*cells, obj) if has_opt else cells)
            for e in range(tr.offsets[s][p], tr.offsets[s][p + 1]):
                event_rows.append((inst.id, s, f"{tr.times[s][e]:.3f}", tr.objs[s][e]))
    written = [(runs_path, run_rows)] + [(trajectories_path, event_rows)] * (len(event_rows) > 1)
    for path, rows in written:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return [path for path, _ in written]


# Ids that must be quoted (a comma, a quote, a line break inside) or are not ASCII; none
# has space around it, which the reader would strip.
ID_TEXT = st.text(st.sampled_from('ab,"\né\t '), min_size=1, max_size=4).filter(
    lambda text: text == text.strip())


@st.composite
def quoted_scenarios(draw, timeout_s=100.0):
    """Decision-only, optimization-only or mixed scenarios under drawn ids, with
    trajectories that end at each run's objective."""
    iids = draw(st.lists(ID_TEXT, min_size=1, max_size=4, unique=True))
    sids = draw(st.lists(ID_TEXT, min_size=1, max_size=3, unique=True))
    kinds = {i: draw(st.sampled_from(["decision", "optimization"])) for i in iids}
    cells, trajectories = {}, {}
    for i in iids:
        opt = kinds[i] == "optimization"
        for s in sids:
            if draw(st.booleans()):
                t = draw(st.integers(0, round(timeout_s * 1000) - 1)) / 1000
                cells[(i, s)] = solved(t, 5.0 if opt else math.inf)
                if opt:
                    events = ((t / 2, 6.5), (t, 5.0)) if t else ((t, 5.0),)
                    trajectories[(i, s)] = Trajectory(events)
            else:
                obj = float(draw(st.integers(5, 9))) if opt and draw(st.booleans()) else math.inf
                cells[(i, s)] = timed_out(timeout_s, obj)
                if obj < math.inf:
                    trajectories[(i, s)] = Trajectory(((1.0, obj),))
    return scenario_from(cells, timeout_s, kinds, trajectories=trajectories, scenario_id="q")


def _emitted(sc, directory):
    """The bytes of the files emit_scenario writes, then of those the csv.writer rows give
    (a trajectory file only when there are events), and the parse of the first."""
    ours = emit_scenario(sc, directory / "ours.csv", directory / "ours_t.csv")
    theirs = csv_writer_emit(sc, directory / "theirs.csv", directory / "theirs_t.csv")
    parsed = parse_runs(ours[0], sc.timeout_s, ours[1] if ours[1:] else None, "q")
    return [p.read_bytes() for p in ours], [p.read_bytes() for p in theirs], parsed


class TestEmitBytes:
    """emit_scenario formats each row as one string; the bytes are csv.writer's."""

    @settings(max_examples=150, deadline=None)
    @given(sc=quoted_scenarios())
    def test_same_bytes_as_csv_writer_rows(self, tmp_path_factory, sc):
        ours, theirs, parsed = _emitted(sc, tmp_path_factory.mktemp("emit"))
        assert ours == theirs
        assert parsed == sc

    @pytest.mark.parametrize("ids", [
        ("a,b", 'say "hi"', "x\ny", "x\r\ny", "café", "日本"),
        ("plain", "ascii"),
    ])
    @pytest.mark.parametrize("kinds", ["decision", "optimization", "mixed"])
    def test_quoted_ids(self, tmp_path, ids, kinds):
        kind = {i: "optimization" if kinds == "optimization" or kinds == "mixed" and n % 2
                else "decision" for n, i in enumerate(ids)}
        opt = [i for i in ids if kind[i] == "optimization"]
        cells = {(i, s): solved(1.5, 3.0) if kind[i] == "optimization" else solved(1.5)
                 for i in ids for s in ("s,1", "s2")}
        trajectories = {(i, s): Trajectory(((0.5, 4.0), (1.5, 3.0))) for i in opt
                        for s in ("s,1", "s2")}
        sc = scenario_from(cells, kinds=kind, trajectories=trajectories, scenario_id="q")
        ours, theirs, parsed = _emitted(sc, tmp_path)
        assert ours == theirs
        assert parsed == sc
        header = ours[0].split(b"\n", 1)[0]
        assert header.endswith(b",obj") == (kinds != "decision")

    def test_off_grid_timeout(self, tmp_path):
        # An unsolved run is stored at the timeout, 7.0009, and written as 7.001, which the
        # reader takes as the timeout.
        sc = scenario_from({("o1", "a"): timed_out(7.0009, 3.0), ("o1", "b"): solved(7.0, 3.0)},
                           7.0009, {"o1": "optimization"}, scenario_id="q",
                           trajectories={("o1", "a"): Trajectory(((7.0, 3.0),)),
                                         ("o1", "b"): Trajectory(((7.0, 3.0),))})
        ours, theirs, parsed = _emitted(sc, tmp_path)
        assert ours == theirs
        assert ours[0] == b"instance_id,solver_id,status,time_s,obj\no1,a,timeout,7.001,3.0\n" \
                          b"o1,b,ok,7.000,3.0\n"
        assert parsed == sc

    def test_lone_carriage_return_is_quoted(self, tmp_path):
        # csv.writer with a "\n" terminator leaves a lone "\r" unquoted, and the reader ends
        # a row there; emit_scenario quotes it, so the id reads back.
        sc = scenario_from({("a\rb", "s"): solved(1.0), ("c", "s\rt"): solved(2.0),
                            ("a\rb", "s\rt"): solved(3.0), ("c", "s"): solved(4.0)},
                           scenario_id="q")
        ours, theirs, parsed = _emitted(sc, tmp_path)
        assert ours[0] == (b'instance_id,solver_id,status,time_s\n"a\rb",s,ok,1.000\n'
                           b'"a\rb","s\rt",ok,3.000\nc,s,ok,4.000\nc,"s\rt",ok,2.000\n')
        assert parsed == sc


ARFF = """% run data
@RELATION algorithm_runs

@ATTRIBUTE instance_id STRING
@ATTRIBUTE repetition NUMERIC
@ATTRIBUTE algorithm STRING
@ATTRIBUTE runtime NUMERIC
@ATTRIBUTE runstatus {ok,timeout,memout,crash}

@DATA
inst-1,1,solverA,12.5,ok
inst-1,1,solverB,3600.0,timeout
inst-2,1,solverA,3600.0,memout
inst-2,1,solverB,40.25,ok
"""


class TestParseAslib:
    def test_happy_path(self, tmp_path):
        p = _write(tmp_path, "runs.arff", ARFF)
        sc = parse_aslib_runs(p, 3600.0)
        assert sc.id == "runs"
        assert sc.instance_ids == ("inst-1", "inst-2")
        assert sc.solvers == ("solverA", "solverB")
        assert sc.outcome("inst-1", "solverA").status is RunStatus.SOLVED
        assert sc.outcomes[("inst-1", "solverA")].time_s == 12.5
        assert sc.outcome("inst-1", "solverB").status is RunStatus.TIMEOUT
        assert sc.outcome("inst-2", "solverA").status is RunStatus.ERROR
        assert all(i.kind is InstanceKind.DECISION for i in sc.instances)

    def test_ok_run_at_the_limit_is_demoted(self, tmp_path):
        text = ARFF.replace("inst-1,1,solverA,12.5,ok", "inst-1,1,solverA,3601.0,ok")
        p = _write(tmp_path, "runs.arff", text)
        sc = parse_aslib_runs(p, 3600.0)
        out = sc.outcome("inst-1", "solverA")
        assert out.status is RunStatus.TIMEOUT
        assert out.time_s == 3600.0

    def test_other_repetitions_skipped_with_warning(self, tmp_path):
        text = ARFF + "inst-1,2,solverA,99.0,ok\n"
        p = _write(tmp_path, "runs.arff", text)
        with pytest.warns(UserWarning, match="repetition"):
            sc = parse_aslib_runs(p, 3600.0)
        assert sc.outcomes[("inst-1", "solverA")].time_s == 12.5

    def test_missing_attribute(self, tmp_path):
        p = _write(tmp_path, "r.arff", ARFF.replace("@ATTRIBUTE repetition NUMERIC\n", ""))
        with pytest.raises(SchemaError):
            parse_aslib_runs(p, 3600.0)

    def test_bare_attribute_line(self, tmp_path):
        p = _write(tmp_path, "r.arff", "@relation r\n@attribute\n")
        with pytest.raises(SchemaError, match=r"r\.arff: malformed attribute on line 2$"):
            parse_aslib_runs(p, 3600.0)

    def test_no_data_line(self, tmp_path):
        p = _write(tmp_path, "r.arff", "@relation r\n@attribute instance_id string\n")
        with pytest.raises(SchemaError) as e:
            parse_aslib_runs(p, 3600.0)
        assert str(e.value) == (
            f"{p}: missing attributes ['repetition', 'algorithm', 'runtime', 'runstatus']")

    def test_extra_attribute_unsupported(self, tmp_path):
        text = ARFF.replace(
            "@ATTRIBUTE runstatus",
            "@ATTRIBUTE memory NUMERIC\n@ATTRIBUTE runstatus",
        ).replace("inst-1,1,solverA,12.5,ok", "inst-1,1,solverA,12.5,100,ok")
        p = _write(tmp_path, "r.arff", text)
        with pytest.raises(UnsupportedAttribute):
            parse_aslib_runs(p, 3600.0)

    def test_attribute_after_data(self, tmp_path):
        p = _write(tmp_path, "r.arff", ARFF + "@ATTRIBUTE memory NUMERIC\ninst-3,1,solverA,1.0,ok\n")
        with pytest.raises(SchemaError, match=r"r\.arff: attribute on line 15 follows @data"):
            parse_aslib_runs(p, 3600.0)

    def test_data_row_before_data_line(self, tmp_path):
        # It used to be dropped silently, and the scenario lost its instance.
        text = ARFF.replace("\n\n@DATA", "\ni1,1,solverA,5,ok\n@DATA")
        p = _write(tmp_path, "r.arff", text)
        with pytest.raises(SchemaError, match=r"r\.arff: line 9 comes before @data"):
            parse_aslib_runs(p, 3600.0)

    def test_misspelled_attribute(self, tmp_path):
        text = ARFF.replace("@ATTRIBUTE runstatus", "@atribute algorithm string\n@ATTRIBUTE runstatus")
        p = _write(tmp_path, "r.arff", text)
        with pytest.raises(SchemaError, match=r"r\.arff: line 8 comes before @data"):
            parse_aslib_runs(p, 3600.0)

    def test_short_row(self, tmp_path):
        p = _write(tmp_path, "r.arff", ARFF + "inst-3,1,solverA\n")
        with pytest.raises(RowError):
            parse_aslib_runs(p, 3600.0)

    def test_quoted_values_and_case(self, tmp_path):
        text = (
            "@relation x\n"
            "@attribute 'instance_id' string\n"
            "@attribute repetition numeric\n"
            "@attribute algorithm string\n"
            "@attribute runtime numeric\n"
            "@attribute runstatus {ok}\n"
            "@data\n"
            "'my instance',1,'my solver',5.0,OK\n"
            "'other',1,'my solver',6.0,ok\n"
        )
        p = _write(tmp_path, "r.arff", text)
        sc = parse_aslib_runs(p, 100.0)
        assert sc.instance_ids == ("my instance", "other")
        assert sc.solvers == ("my solver",)
        assert sc.outcome("my instance", "my solver").status is RunStatus.SOLVED


# Published aggregate results for six portfolio selectors over a 15-scenario
# suite; used as a layout fixture with known column peaks.
BOM = "\ufeff"  # the UTF-8 byte-order mark, as spreadsheet tools write it


class TestByteOrderMark:
    """A file may start with one byte-order mark; it is read past, and never written."""

    @pytest.mark.parametrize("marked", ["runs.csv", "runs_trajectories.csv"])
    def test_csv_with_a_mark_parses_as_without(self, tmp_path, marked):
        plain, bom = tmp_path / "plain", tmp_path / "bom"
        for folder in (plain, bom):
            folder.mkdir()
            for name, text in (("runs.csv", RUNS_CSV), ("runs_trajectories.csv", TRAJ_CSV)):
                prefix = BOM if folder is bom and name == marked else ""
                (folder / name).write_bytes((prefix + text).encode("utf-8"))
        assert (bom / marked).read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_runs(bom / "runs.csv", 100.0) == parse_runs(plain / "runs.csv", 100.0)

    def test_arff_with_a_mark_parses_as_without(self, tmp_path):
        text = ARFF.split("\n", 1)[1]  # line 1 is then @RELATION
        plain = tmp_path / "plain.arff"
        plain.write_bytes(text.encode("utf-8"))
        marked = tmp_path / "marked.arff"
        marked.write_bytes((BOM + text).encode("utf-8"))
        sc = parse_aslib_runs(marked, 3600.0, scenario_id="runs")
        assert sc == parse_aslib_runs(plain, 3600.0, scenario_id="runs")

    def test_emit_writes_no_mark(self, tmp_path):
        (tmp_path / "runs.csv").write_bytes((BOM + RUNS_CSV).encode("utf-8"))
        _write(tmp_path, "runs_trajectories.csv", TRAJ_CSV)
        written = emit_scenario(parse_runs(tmp_path / "runs.csv", 100.0), tmp_path / "out.csv")
        assert len(written) == 2
        assert not any(path.read_bytes().startswith(b"\xef\xbb\xbf") for path in written)

    @pytest.mark.parametrize("prefix", [b"", BOM.encode("utf-8")], ids=["plain", "marked"])
    def test_text_that_is_not_utf8_is_still_refused(self, tmp_path, prefix):
        p = tmp_path / "runs.csv"
        p.write_bytes(prefix + RUNS_CSV.replace("i1,a,", "caf\u00e9,a,").encode("latin-1"))
        with pytest.raises(SchemaError, match=r"runs\.csv: not UTF-8 text"):
            parse_runs(p, 100.0)


SELECTOR_SUMMARY = [
    ("asap", 0.4866, 0.4026, 0.8829),
    ("sunny-as2", 0.4717, 0.4122, 0.8879),
    ("autofolio", 0.4713, 0.4110, 0.8855),
    ("sunny-original", 0.4412, 0.3905, 0.8790),
    ("zilla", 0.3416, 0.3742, 0.8753),
    ("random-forest", -0.1921, 0.3038, 0.8507),
]


def _summary_report() -> dict:
    names = [r[0] for r in SELECTOR_SUMMARY]
    metrics = [("closed-gap", {"base_metric": "par", "lambda": 10.0}),
               ("speedup", {}),
               ("normalized-runtime", {})]
    scores = [{r[0]: r[col] for r in SELECTOR_SUMMARY} for col in range(1, len(metrics) + 1)]
    return {
        "scenario": {"id": "selector-suite", "n_instances": 15, "solvers": names,
                     "timeout_s": 3600.0},
        "metric": [m for m, _ in metrics],
        "params": [params for _, params in metrics],
        "scores": scores,
        "ranking": [ranking_json(rank([ScoreTable(m, params, col, Direction.HIGHER)]))
                    for (m, params), col in zip(metrics, scores)],
        "baselines": [],
        "warnings": [],
        "provenance": {},
    }


class TestEmitReport:
    def test_table_marks_column_peaks(self):
        text = emit_report(_summary_report(), "table").decode()
        assert "0.4866*" in text   # best closed gap
        assert "0.4122*" in text   # best speedup
        assert "0.8879*" in text   # best normalized runtime
        # the closed-gap runner-up carries no mark
        assert "0.4717*" not in text
        assert "0.4026*" not in text
        # solvers appear in report order
        lines = text.splitlines()
        first_data = next(i for i, l in enumerate(lines) if l.startswith("asap"))
        assert lines[first_data + 5].startswith("random-forest")

    def test_table_is_deterministic(self):
        assert emit_report(_summary_report(), "table") == emit_report(_summary_report(), "table")

    def test_csv_long_format(self):
        text = emit_report(_summary_report(), "csv").decode()
        lines = text.splitlines()
        assert lines[0] == "scenario,metric,params,solver,score,rank,tied"
        assert lines[1] == 'selector-suite,closed-gap,"base_metric=par,lambda=10",asap,0.4866,1,false'
        # 3 sections x 6 solvers
        assert len(lines) == 1 + 18

    def test_json_structure(self):
        payload = json.loads(emit_report(_summary_report(), "json"))
        assert payload["scenario"]["id"] == "selector-suite"
        assert payload["metric"] == ["closed-gap", "speedup", "normalized-runtime"]
        assert payload["scores"][0]["asap"] == 0.4866
        assert payload["ranking"][1][0]["solver"] == "sunny-as2"
        assert "provenance" in payload

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(_summary_report(), "xml")


class TestBuildReport:
    def _scenario(self):
        return scenario_from(
            {
                ("i1", "a"): solved(10.0),
                ("i1", "b"): solved(90.0),
                ("i2", "a"): timed_out(),
                ("i2", "b"): solved(5.0),
            },
            scenario_id="mini",
        )

    def test_sections_and_baselines(self):
        sc = self._scenario()
        evaluations = [evaluate(sc, "par"), evaluate(sc, "closed-gap")]
        report = build_report(sc, evaluations, source="mini.csv")
        assert report["scenario"]["id"] == "mini"
        assert report["metric"] == ["par", "closed-gap"]
        assert len(report["baselines"]) == 1
        provenance = report["provenance"]
        assert provenance["tool"] == "solvereval"
        assert provenance["source"] == "mini.csv"
        assert "seed" not in provenance  # no folds were shuffled
        # deterministic output demands no wall-clock fields
        assert not any("time" in str(k).lower() and k != "timeout_s" for k in provenance)

    def test_seed_is_the_fold_plans(self):
        sc = self._scenario()
        plan = make_fold_plan(sc.instance_ids, 2, seed=3)
        provenance = build_report(sc, [evaluate(sc, "par", fold_plan=plan)])["provenance"]
        assert provenance["seed"] == provenance["fold_plan"]["seed"] == 3

    def test_a_hand_built_plan_reports_its_own_shape(self):
        sc = self._scenario()
        plan = FoldPlan(seed=4, assignment=((("i1",), ("i2",)), (("i2",), ("i1",))))
        result = evaluate(sc, "par", fold_plan=plan)
        assert len(result.cells) == 4
        provenance = build_report(sc, [result])["provenance"]
        assert provenance["fold_plan"] == {"k": 2, "repeats": 2, "seed": 4}

    def test_baseline_warnings_are_collected(self):
        sc = scenario_from(
            {
                ("i1", "a"): solved(50.0),
                ("i1", "b"): solved(50.1),
                ("i2", "a"): solved(60.0),
                ("i2", "b"): solved(59.9),
            },
            scenario_id="close",
        )
        report = build_report(sc, [evaluate(sc, "closed-gap")])
        assert any("low resolution" in w for w in report["warnings"])

    def test_report_renders_in_all_formats(self):
        sc = self._scenario()
        report = build_report(sc, [evaluate(sc, "par"), evaluate(sc, "mznc")])
        for fmt in ("table", "json", "csv"):
            out = emit_report(report, fmt)
            assert isinstance(out, bytes) and out


def _json_types_only(value) -> bool:
    if type(value) is dict:
        return all(type(k) is str and _json_types_only(v) for k, v in value.items())
    if type(value) is list:
        return all(_json_types_only(v) for v in value)
    return type(value) in (str, float, int, bool, type(None))


def _reversed_dicts(value):
    """The same document with every dict's keys in reverse order."""
    if isinstance(value, dict):
        return {k: _reversed_dicts(value[k]) for k in reversed(value)}
    if isinstance(value, list):
        return [_reversed_dicts(v) for v in value]
    return value


class TestReportDocument:
    """build_report's document is the report: JSON prints it, table and CSV render it."""

    @given(st.one_of(scenarios(), generated()), st.data())
    def test_json_round_trip_renders_the_same(self, sc, data):
        plan = data.draw(plans(sc))
        policy = data.draw(POLICIES) if plan is not None else None  # a split policy needs folds
        evaluations = []
        for metric_id in sorted(METRICS):
            try:
                evaluations.append(evaluate(sc, metric_id, fold_plan=plan, sbs_policy=policy))
            except (DegenerateGap, EmptyInput, MissingTrajectory):  # area without trajectories
                continue
        report = build_report(sc, evaluations, source="prop.csv")
        assert _json_types_only(report)
        assert report["metric"] == [ev.merged.metric_id for ev in evaluations]
        loaded = json.loads(emit_report(report, "json"))
        assert loaded == report
        # Rendering reads the document's content, not its dicts' key order.
        for fmt in ("table", "csv"):
            for document in (loaded, _reversed_dicts(loaded)):
                assert emit_report(document, fmt) == emit_report(report, fmt)
