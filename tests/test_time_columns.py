"""Head-to-head counts and runtime distributions read per-solver time columns.

The reference functions below are the per-instance loops as they were
before both read the run store's millisecond column, ``outcomes.ms``: one
outcome lookup and one
``time_to_ms`` per instance and solver. Every comparison is exact (==).
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest
from helpers import decision_scenario
from hypothesis import given
from hypothesis import strategies as st
from test_fold_columns import bench_family_spec, generated
from test_properties import scenarios

from solvereval import (
    HeadToHead,
    RunOutcome,
    RunStatus,
    SameSolver,
    build_scenario,
    emit_scenario,
    generate,
    head_to_head,
    parse_runs,
    runtime_distribution,
)
from solvereval.scenario import Runs


def time_to_ms(t):  # seconds to integer milliseconds, the reference for the ms grid
    return round(t * 1000.0)


def ref_head_to_head(sc, solver_a, solver_b):
    a = b = ties = 0
    for i in sc.instance_ids:
        ta = time_to_ms(sc.outcomes[(i, solver_a)].time_s)
        tb = time_to_ms(sc.outcomes[(i, solver_b)].time_s)
        if ta < tb:
            a += 1
        elif tb < ta:
            b += 1
        else:
            ties += 1
    return HeadToHead(solver_a, solver_b, a, b, ties)


def ref_runtime_distribution(sc, solver):
    return sorted(
        sc.outcomes[(i, solver)].time_s
        for i in sc.instance_ids
        if sc.outcome(i, solver).status is RunStatus.SOLVED
    )


def snapped(sc, grid_ms):
    """The scenario with every solved time moved onto a coarse grid, zero included.

    Few distinct times make ties frequent, and the grid's first point is 0.
    """
    outcomes = {}
    for key, out in sc.outcomes.items():
        if out.status is RunStatus.SOLVED:
            ms = min(time_to_ms(out.time_s) // grid_ms * grid_ms, time_to_ms(sc.timeout_s) - 1)
            out = replace(out, time_s=ms / 1000.0)
        outcomes[key] = out
    return build_scenario(sc.id, sc.instances, sc.solvers, sc.timeout_s, outcomes, sc.trajectories)


def assert_same_as_reference(sc):
    for a in sc.solvers:
        assert runtime_distribution(sc, a) == ref_runtime_distribution(sc, a)
        for b in sc.solvers:
            if a == b:
                with pytest.raises(SameSolver) as e:
                    head_to_head(sc, a, b)
                assert repr(a) in str(e.value)
            else:
                assert head_to_head(sc, a, b) == ref_head_to_head(sc, a, b)


class TestAgainstReference:
    @given(scenarios())
    def test_property_scenarios(self, sc):
        assert_same_as_reference(sc)

    @given(scenarios(), st.sampled_from([1, 250, 2500, 10_000]))
    def test_ties_and_zero_times(self, sc, grid_ms):
        assert_same_as_reference(snapped(sc, grid_ms))

    @given(generated())
    def test_generated_mixed_kinds(self, sc):
        assert_same_as_reference(sc)

    def test_timeout_off_the_millisecond_grid(self):
        # 10.0004 s rounds to 10000 ms, like a solved 10.000 s run: a tie.
        sc = build_scenario(
            "off-grid", ["i1", "i2"], ["a", "b"], 10.0004,
            {
                ("i1", "a"): RunOutcome(10.0, RunStatus.SOLVED),
                ("i1", "b"): RunOutcome(10.0004, RunStatus.TIMEOUT),
                ("i2", "a"): RunOutcome(0.0, RunStatus.SOLVED),
                ("i2", "b"): RunOutcome(10.0004, RunStatus.ERROR),
            },
        )
        assert head_to_head(sc, "a", "b") == HeadToHead("a", "b", 1, 0, 1)
        assert runtime_distribution(sc, "a") == [0.0, 10.0]
        assert runtime_distribution(sc, "b") == []
        assert_same_as_reference(sc)


class TestTimeColumns:
    def test_columns_in_instance_order(self):
        sc = decision_scenario({"i1": {"a": 1.5, "b": None}, "i2": {"a": 0.0, "b": 2.25}})
        assert sc.outcomes.ms == {"a": (1500, 0), "b": (100_000, 2250)}

    def test_store_fields(self):
        # The millisecond column is stored beside the times, once its first read builds
        # it; nothing derived from the statuses (such as a solved flag) is.
        assert Runs.__slots__ == ("times", "_ms", "statuses", "objs")
        sc = decision_scenario({"i1": {"a": 1.0, "b": None}})
        assert sc.outcomes.statuses == {"a": (RunStatus.SOLVED,), "b": (RunStatus.TIMEOUT,)}

    def test_columns_do_not_enter_equality(self):
        sc = decision_scenario({"i1": {"a": 1.0, "b": 2.0}})
        other = decision_scenario({"i1": {"a": 1.0, "b": 2.0}})
        sc.outcomes.ms
        assert sc == other

    def test_ms_of_a_parsed_file_built_on_first_read(self, tmp_path):
        emit_scenario(generate(bench_family_spec(3, 40, 4, 0.5)), tmp_path / "runs.csv")
        unread, read = (parse_runs(tmp_path / "runs.csv", 100.0) for _ in range(2))
        assert unread.outcomes._ms is None and read.outcomes._ms is None  # a parse builds none
        ms = read.outcomes.ms
        assert read.outcomes.ms is ms  # built once
        assert ms == {s: tuple(round(t * 1000) for t in col)
                      for s, col in read.outcomes.times.items()}
        assert all(type(col) is tuple for col in ms.values())
        with pytest.raises(TypeError):
            ms["s00"] = (0,) * 40
        for store in (unread.outcomes, read.outcomes):  # read or not, a pickle round trips
            copy = pickle.loads(pickle.dumps(store))
            assert copy == store and copy.times == store.times and copy.ms == ms
        # head_to_head and runtime_distribution make the first read of unread's ms.
        for sc in (unread, read):
            assert [head_to_head(sc, "s00", s) for s in sc.solvers[1:]] == [
                ref_head_to_head(sc, "s00", s) for s in sc.solvers[1:]]
            assert [runtime_distribution(sc, s) for s in sc.solvers] == [
                ref_runtime_distribution(sc, s) for s in sc.solvers]
