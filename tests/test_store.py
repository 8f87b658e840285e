"""The column store: a scenario's runs and trajectories as per-solver columns.

The readers and generate fill the columns; Scenario.outcomes and
Scenario.trajectories are read-only views of them. Each column is checked
here against a reference built by walking the views, as the run, time and
trajectory columns were once derived from the outcome and trajectory dicts.
"""

from __future__ import annotations

import csv
import math
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_column_kernels import edge_scenarios
from test_fold_columns import bench_family_spec, generated
from test_properties import scenarios

from solvereval import (
    Instance,
    InstanceKind,
    RunOutcome,
    RunStatus,
    Trajectory,
    ValidationError,
    Violation,
    build_scenario,
    emit_scenario,
    generate,
    parse_runs,
    restrict,
    trajectories_path_for,
    validate_scenario,
)
from solvereval.scenario import Runs, Trajectories


@st.composite
def with_trajectories(draw):
    """Scenarios of both kinds with trajectories, as emit_scenario can write them.

    A recorded best known objective is not written, so edge scenarios lose it.
    Some optimization runs without a solution are given an empty Trajectory(),
    which, like a file, records no trajectory for them.
    """
    edge = edge_scenarios(drop=False).map(lambda sc: sc.replace(
        instances=tuple(Instance(i.id, i.kind) for i in sc.instances)))
    sc = draw(st.one_of(scenarios(), generated(), edge))
    bare = [(i.id, s) for i in sc.instances if i.kind is InstanceKind.OPTIMIZATION
            for s in sc.solvers if math.isinf(sc.outcomes[(i.id, s)].obj)]
    empty = draw(st.lists(st.sampled_from(bare), unique=True)) if bare else []
    if not empty:
        return sc
    return build_scenario(sc.id, sc.instances, sc.solvers, sc.timeout_s, sc.outcomes,
                          {**sc.trajectories, **dict.fromkeys(empty, Trajectory())})


def ref_run_columns(sc):
    """Each solver's times, integer ms, statuses and objectives, from the view."""
    at = {i: p for p, i in enumerate(sc.instance_ids)}
    cols = {name: {s: [None] * len(at) for s in sc.solvers}
            for name in ("times", "ms", "statuses", "objs")}
    for (i, s), run in sc.outcomes.items():
        p = at[i]
        cols["times"][s][p], cols["statuses"][s][p], cols["objs"][s][p] = (
            run.time_s, run.status, run.obj)
        cols["ms"][s][p] = round(run.time_s * 1000.0)
    return {name: {s: tuple(col) for s, col in by.items()} for name, by in cols.items()}


def ref_trajectory_columns(sc):
    """Each solver's flat event times and objectives, and offsets."""
    cols = {name: {} for name in ("times", "objs", "offsets")}
    for s in sc.solvers:
        times, objs, offsets = [], [], [0]
        for i in sc.instance_ids:
            traj = sc.trajectories.get((i, s))
            if traj is not None:
                assert traj.events  # a pair has a trajectory exactly when it has an event
                times += [t for t, _ in traj.events]
                objs += [v for _, v in traj.events]
            offsets.append(len(times))
        for name, col in zip(cols, (times, objs, offsets)):
            cols[name][s] = tuple(col)
    return cols


def store_columns(sc):
    runs, trajs = sc.outcomes, sc.trajectories
    return (
        {name: getattr(runs, name) for name in ("times", "ms", "statuses", "objs")},
        {name: getattr(trajs, name) for name in Trajectories.__slots__},
    )


def assert_columns_match_views(sc):
    assert isinstance(sc.outcomes, Runs) and isinstance(sc.trajectories, Trajectories)
    runs, trajs = store_columns(sc)
    assert runs == ref_run_columns(sc)
    assert trajs == ref_trajectory_columns(sc)


def _round_trip(sc, directory, shuffle_runs=None, shuffle_events=None):
    runs = Path(directory) / "rt.csv"
    emit_scenario(sc, runs)
    for path, shuffle in ((runs, shuffle_runs), (trajectories_path_for(runs), shuffle_events)):
        if shuffle is not None and path.exists():
            with open(path, newline="") as fh:
                header, *rows = list(csv.reader(fh))
            with open(path, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows([header, *shuffle(rows)])
    return parse_runs(runs, sc.timeout_s, scenario_id=sc.id)


def interleave(rows, rng):
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


class TestRoundTrip:
    @given(with_trajectories())
    def test_parse_of_emit_is_the_scenario(self, sc):
        with tempfile.TemporaryDirectory() as d:
            parsed = _round_trip(sc, d)
        assert parsed == sc
        assert store_columns(parsed) == store_columns(sc)

    @given(with_trajectories())
    def test_columns_equal_the_views(self, sc):
        assert_columns_match_views(sc)
        assert_columns_match_views(validate_scenario(sc))

    @given(with_trajectories(), st.randoms(use_true_random=False))
    def test_shuffled_run_rows(self, sc, rng):
        with tempfile.TemporaryDirectory() as d:
            parsed = _round_trip(sc, d, shuffle_runs=lambda rows: rng.sample(rows, len(rows)))
        # Instances and solvers come in order of first appearance in the shuffled file.
        order = {i: p for p, i in enumerate(parsed.instance_ids)}
        want = build_scenario(sc.id, sorted(sc.instances, key=lambda inst: order[inst.id]),
                              parsed.solvers, sc.timeout_s, sc.outcomes, sc.trajectories)
        assert parsed == want
        assert store_columns(parsed) == store_columns(want)
        assert_columns_match_views(parsed)

    @given(with_trajectories(), st.randoms(use_true_random=False))
    def test_shuffled_trajectory_rows(self, sc, rng):
        with tempfile.TemporaryDirectory() as d:
            parsed = _round_trip(sc, d, shuffle_events=lambda rows: interleave(rows, rng))
        assert parsed == sc
        assert store_columns(parsed) == store_columns(sc)


class TestValueSemantics:
    @given(with_trajectories())
    def test_pickle_equality_replace_and_length(self, sc):
        assert pickle.loads(pickle.dumps(sc)) == sc
        assert sc.replace() == sc
        assert len(sc.outcomes) == len(sc.instance_ids) * len(sc.solvers)
        assert len(sc.trajectories) == len(list(sc.trajectories))
        assert sc.outcomes == dict(sc.outcomes.items())
        assert sc.trajectories == dict(sc.trajectories.items())

    def test_views_are_read_only_and_build_on_lookup(self):
        sc = build_scenario(
            "v", [Instance("o1", "optimization")], ["a", "b"], 10.0,
            {("o1", "a"): RunOutcome(2.0, RunStatus.SOLVED, 4.0),
             ("o1", "b"): RunOutcome(10.0, RunStatus.TIMEOUT)},
            {("o1", "a"): Trajectory(((1.0, 5.0), (2.0, 4.0))), ("o1", "b"): Trajectory()},
        )
        assert sc.outcomes[("o1", "a")] == RunOutcome(2.0, RunStatus.SOLVED, 4.0)
        assert sc.outcomes[("o1", "a")] is not sc.outcomes[("o1", "a")]
        assert sc.trajectories.get(("o1", "b")) is None  # recorded with no event, as no file can
        assert list(sc.trajectories) == [("o1", "a")] and len(sc.trajectories) == 1
        for view in (sc.outcomes, sc.trajectories):
            assert ("o1", "zz") not in view and ("ghost", "a") not in view
            with pytest.raises(TypeError):
                view[("o1", "a")] = None

    @given(with_trajectories())
    def test_repr_shows_the_mapping(self, sc):
        for view in (sc.outcomes, sc.trajectories):
            assert repr(view) == f"{type(view).__name__}({dict(view.items())!r})"

    @given(with_trajectories())
    def test_column_families_are_sealed(self, sc):
        families = [getattr(sc.outcomes, f) for f in ("times", "ms", "statuses", "objs")] + [
            getattr(sc.trajectories, f) for f in Trajectories.__slots__]
        solver = sc.solvers[0]
        copy = pickle.loads(pickle.dumps(sc))
        for family in families:
            with pytest.raises(TypeError):
                family[solver] = ()
            with pytest.raises(TypeError):
                family["new"] = ()
            with pytest.raises(TypeError):
                del family[solver]
        copied = [getattr(copy.outcomes, f) for f in ("times", "ms", "statuses", "objs")] + [
            getattr(copy.trajectories, f) for f in Trajectories.__slots__]
        for family, again in zip(families, copied):
            assert type(again) is type(family) and again == family
        # Equality reads the views, so a store with the same runs compares equal.
        assert copy == sc and copy.outcomes == dict(sc.outcomes.items())
        assert copy.trajectories == dict(sc.trajectories.items())

    def test_restrict_slices_the_store(self):
        sc = generate_mixed()
        kept = restrict(sc, sc.instance_ids[::2])
        assert kept.instance_ids == sc.instance_ids[::2]
        for s in sc.solvers:
            assert kept.outcomes.ms[s] == sc.outcomes.ms[s][::2]
            assert kept.outcomes.objs[s] == sc.outcomes.objs[s][::2]
        assert dict(kept.trajectories.items()) == {
            k: v for k, v in sc.trajectories.items() if k[0] in kept.instance_ids}


def generate_mixed():
    return generate(bench_family_spec(4, 12, 3, 0.5))


def test_raw_dict_scenarios_still_validate():
    raw_runs = {("o1", "a"): RunOutcome(3, "solved", 5), ("i1", "a"): RunOutcome(1.0004, "solved")}
    sc = validate_scenario(generate_mixed().replace(
        id="raw", instances=(Instance("o1", "optimization"), Instance("i1")),
        solvers=("a",), timeout_s=10, outcomes=raw_runs,
        trajectories={("o1", "a"): Trajectory(((1.0004, 5),))}))
    assert sc.outcome("i1", "a") == RunOutcome(1.0, RunStatus.SOLVED, math.inf)
    assert sc.trajectories.get(("o1", "a")) == Trajectory(((1.0, 5.0),))
    assert sc.outcomes.ms == {"a": (3000, 1000)}


def test_run_kind_breaches_in_the_order_recorded(tmp_path):
    # o2's run by a comes before o1's by b in the file, but after it instance by instance.
    runs = tmp_path / "r.csv"
    runs.write_text("instance_id,solver_id,status,time_s,obj\n"
                    "o1,a,ok,10.0,5\no2,a,ok,10.0,\no1,b,ok,3.0,\no2,b,ok,4.0,7\n")
    want = [("BadOutcome", "(o2, a)"), ("BadOutcome", "(o1, b)")]
    with pytest.raises(ValidationError) as e:
        parse_runs(runs, 100.0)
    assert [(v.code, v.where) for v in e.value.violations] == want
    outcomes = {
        ("o2", "a"): RunOutcome(10.0, RunStatus.SOLVED),
        ("o1", "a"): RunOutcome(10.0, RunStatus.SOLVED, 5.0),
        ("o2", "b"): RunOutcome(4.0, RunStatus.SOLVED, 7.0),
        ("o1", "b"): RunOutcome(3.0, RunStatus.SOLVED),
    }
    instances = (Instance("o1", "optimization"), Instance("o2", "optimization"))
    raw = generate_mixed().replace(instances=instances, solvers=("a", "b"), timeout_s=100.0,
                                   outcomes=outcomes, trajectories={})
    with pytest.raises(ValidationError) as e:
        validate_scenario(raw)
    assert [(v.code, v.where) for v in e.value.violations] == want


@pytest.mark.parametrize("late", ["10.001", "99.999"])
def test_a_late_event_is_the_same_violation_by_hand_and_from_files(tmp_path, late):
    # A solved run proves its incumbent optimal when it ends, so no event may follow.
    runs = tmp_path / "late.csv"
    runs.write_text("instance_id,solver_id,status,time_s,obj\no1,a,ok,10.0,5\n")
    trajectories_path_for(runs).write_text(f"instance_id,solver_id,t_s,obj\no1,a,{late},5\n")
    with pytest.raises(ValidationError) as from_files:
        parse_runs(runs, 100.0)
    with pytest.raises(ValidationError) as by_hand:
        build_scenario("late", [Instance("o1", "optimization")], ["a"], 100.0,
                       {("o1", "a"): RunOutcome(10.0, RunStatus.SOLVED, 5.0)},
                       {("o1", "a"): Trajectory(((float(late), 5.0),))})
    assert by_hand.value.violations == from_files.value.violations == (
        Violation("InconsistentTrajectory", "solved run ends before the last event", "(o1, a)"),)
