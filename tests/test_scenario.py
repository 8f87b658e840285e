"""Scenario model: construction, validation, normalization, restriction."""

from __future__ import annotations

import math

import pytest
from helpers import TIMEOUT, decision_scenario, scenario_from, solved, timed_out

from solvereval import (
    EmptyRestriction,
    Instance,
    InstanceKind,
    RunOutcome,
    RunStatus,
    Scenario,
    Trajectory,
    UnknownInstance,
    ValidationError,
    build_scenario,
    quantize_ms,
    restrict,
    validate_scenario,
)


def codes(excinfo) -> set[str]:
    return {v.code for v in excinfo.value.violations}


class TestTimeGrid:
    def test_quantize_snaps_to_milliseconds(self):
        assert quantize_ms(1.0004) == 1.0
        assert quantize_ms(1.0006) == 1.001
        assert quantize_ms(0.0) == 0.0
        assert quantize_ms(99.999) == 99.999

    def test_quantize_idempotent(self):
        for t in (0.0, 0.123, 17.25, 99.999, 100.0):
            assert quantize_ms(quantize_ms(t)) == quantize_ms(t)


class TestValidation:
    def test_minimal_valid_scenario(self):
        sc = decision_scenario({"i1": {"a": 10.0, "b": None}})
        assert sc.instance_ids == ("i1",)
        assert sc.solvers == ("a", "b")
        assert sc.outcomes[("i1", "a")].time_s == 10.0
        assert sc.outcomes[("i1", "b")].time_s == TIMEOUT
        assert sc.outcome("i1", "b").status is RunStatus.TIMEOUT

    def test_solved_times_are_quantized(self):
        sc = scenario_from({("i1", "a"): solved(10.0004)})
        assert sc.outcomes[("i1", "a")].time_s == 10.0

    def test_missing_outcome(self):
        raw = Scenario("x", (Instance("i1"), Instance("i2")), ("a",), TIMEOUT,
                       {("i1", "a"): solved(1.0)})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert "MissingOutcome" in codes(e)

    def test_outcome_for_unknown_pair(self):
        raw = Scenario("x", (Instance("i1"),), ("a",), TIMEOUT,
                       {("i1", "a"): solved(1.0), ("ghost", "a"): solved(1.0)})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert "UnknownId" in codes(e)

    def test_duplicate_ids(self):
        raw = Scenario("x", (Instance("i1"), Instance("i1")), ("a", "a"), TIMEOUT,
                       {("i1", "a"): solved(1.0)})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert "DuplicateId" in codes(e)

    def test_duplicate_ids_named_in_order(self):
        # Each repeat is flagged where it is met: instances first, then solvers.
        outcomes = {(i, s): solved(1.0) for i in ("i1", "i2") for s in ("a", "b")}
        raw = Scenario("x", (Instance("i1"), Instance("i2"), Instance("i1")),
                       ("b", "a", "b", "b"), TIMEOUT, outcomes)
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert [str(v) for v in e.value.violations] == [
            "DuplicateId: duplicate instance id 'i1'",
            "DuplicateId: duplicate solver id 'b'",
            "DuplicateId: duplicate solver id 'b'",
        ]

    def test_repeated_ids_miss_each_pair_once(self):
        # A repeated id keeps its first place, so each distinct pair is missing once.
        raw = Scenario("x", tuple(map(Instance, ("i1", "i1", "i2", "i1"))), ("a", "b", "a", "a"),
                       TIMEOUT, {})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert [str(v) for v in e.value.violations] == [
            "DuplicateId: duplicate instance id 'i1'",
            "DuplicateId: duplicate instance id 'i1'",
            "DuplicateId: duplicate solver id 'a'",
            "DuplicateId: duplicate solver id 'a'",
            "MissingOutcome [(i1, a)]: no recorded run for this pair",
            "MissingOutcome [(i1, b)]: no recorded run for this pair",
            "MissingOutcome [(i2, a)]: no recorded run for this pair",
            "MissingOutcome [(i2, b)]: no recorded run for this pair",
        ]

    def test_obj_of_no_number_type(self):
        with pytest.raises(ValidationError) as e:
            build_scenario("x", ["i1"], ["a"], TIMEOUT,
                           {("i1", "a"): RunOutcome(1.0, RunStatus.SOLVED, "abc")})
        assert [str(v) for v in e.value.violations] == [
            "BadOutcome [(i1, a)]: obj must be finite or +inf, got 'abc'",
        ]

    def test_unknown_instance_kind(self):
        with pytest.raises(ValidationError) as e:
            build_scenario("x", [Instance("i1", "puzzle")], ["a"], TIMEOUT,
                           {("i1", "a"): solved(1.0)})
        assert [(v.code, v.message, v.where) for v in e.value.violations] == [
            ("BadInstance", "'puzzle' is not a valid InstanceKind",
             "Instance(id='i1', kind='puzzle', best_known_obj=None)"),
            ("UnknownId", "outcome recorded for a pair outside the scenario", "(i1, a)"),
            ("EmptyScenario", "scenario has no instances", None),
        ]

    @pytest.mark.parametrize("timeout", [1e307, 1.8e305, pytest.param(10**400, id="10**400")])
    def test_timeout_with_no_finite_millisecond_count(self, timeout):
        with pytest.raises(ValidationError) as e:
            build_scenario("x", ["i1"], ["a"], timeout, {("i1", "a"): solved(1.0)})
        assert [str(v) for v in e.value.violations] == [
            f"BadTimeout: timeout_s must be a finite positive number, got {timeout!r}",
        ]

    def test_largest_timeout_on_the_millisecond_grid(self):
        sc = build_scenario("x", ["i1"], ["a"], 1.7e305, {("i1", "a"): timed_out(1.7e305)})
        assert sc.outcomes.ms["a"] == (round(1.7e305 * 1000.0),)

    def test_empty_scenario(self):
        with pytest.raises(ValidationError) as e:
            validate_scenario(Scenario("x", (), (), TIMEOUT, {}))
        assert "EmptyScenario" in codes(e)

    @pytest.mark.parametrize("bad", [0.0, -5.0, math.inf, math.nan])
    def test_bad_timeout(self, bad):
        raw = Scenario("x", (Instance("i1"),), ("a",), bad, {("i1", "a"): solved(1.0)})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert "BadTimeout" in codes(e)

    def test_solved_run_must_beat_timeout(self):
        raw = Scenario("x", (Instance("i1"),), ("a",), TIMEOUT,
                       {("i1", "a"): RunOutcome(TIMEOUT, RunStatus.SOLVED)})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert "BadOutcome" in codes(e)

    def test_unsolved_run_must_sit_at_timeout(self):
        raw = Scenario("x", (Instance("i1"),), ("a",), TIMEOUT,
                       {("i1", "a"): RunOutcome(42.0, RunStatus.TIMEOUT)})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert "BadOutcome" in codes(e)

    def test_negative_time_rejected(self):
        raw = Scenario("x", (Instance("i1"),), ("a",), TIMEOUT,
                       {("i1", "a"): RunOutcome(-1.0, RunStatus.SOLVED)})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert "BadOutcome" in codes(e)

    def test_decision_outcome_with_finite_obj(self):
        raw = Scenario("x", (Instance("i1"),), ("a",), TIMEOUT,
                       {("i1", "a"): RunOutcome(1.0, RunStatus.SOLVED, 5.0)})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert "BadOutcome" in codes(e)

    def test_solved_optimization_needs_finite_obj(self):
        raw = Scenario("x", (Instance("i1", InstanceKind.OPTIMIZATION),), ("a",), TIMEOUT,
                       {("i1", "a"): RunOutcome(1.0, RunStatus.SOLVED)})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert "BadOutcome" in codes(e)

    def test_negative_infinite_obj_rejected(self):
        raw = Scenario("x", (Instance("i1", InstanceKind.OPTIMIZATION),), ("a",), TIMEOUT,
                       {("i1", "a"): RunOutcome(1.0, RunStatus.SOLVED, -math.inf)})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert "BadOutcome" in codes(e)

    def test_best_known_on_decision_instance(self):
        raw = Scenario("x", (Instance("i1", InstanceKind.DECISION, 5.0),), ("a",), TIMEOUT,
                       {("i1", "a"): solved(1.0)})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert "BadInstance" in codes(e)

    def test_infinite_best_known_on_optimization_instance(self):
        raw = Scenario("x", (Instance("i1", InstanceKind.OPTIMIZATION, math.inf),), ("a",),
                       TIMEOUT, {("i1", "a"): RunOutcome(1.0, RunStatus.SOLVED, 5.0)})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert [(v.code, v.message, v.where) for v in e.value.violations] == [
            ("BadInstance", "best_known_obj must be finite", "i1")]

    def test_all_violations_reported_at_once(self):
        raw = Scenario("x", (Instance("i1"), Instance("i1")), ("a",), -1.0, {})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert {"BadTimeout", "DuplicateId", "MissingOutcome"} <= codes(e)

    def test_string_instances_are_coerced(self):
        sc = build_scenario("x", ["i1"], ["a"], TIMEOUT, {("i1", "a"): solved(1.0)})
        assert sc.instances[0] == Instance("i1", InstanceKind.DECISION, None)


class TestTrajectoryValidation:
    def _raw(self, traj: Trajectory, outcome: RunOutcome | None = None) -> Scenario:
        out = outcome or RunOutcome(TIMEOUT, RunStatus.TIMEOUT, 5.0)
        return Scenario(
            "x",
            (Instance("i1", InstanceKind.OPTIMIZATION),),
            ("a",),
            TIMEOUT,
            {("i1", "a"): out},
            {("i1", "a"): traj},
        )

    def test_valid_trajectory_normalizes(self):
        sc = validate_scenario(self._raw(Trajectory(((10.0004, 9.0), (20.0, 5.0)))))
        assert sc.trajectories.get(("i1", "a")) == Trajectory(((10.0, 9.0), (20.0, 5.0)))

    def test_event_times_must_increase(self):
        with pytest.raises(ValidationError) as e:
            validate_scenario(self._raw(Trajectory(((20.0, 9.0), (10.0, 5.0)))))
        assert "InconsistentTrajectory" in codes(e)

    def test_event_objectives_must_decrease(self):
        with pytest.raises(ValidationError) as e:
            validate_scenario(self._raw(Trajectory(((10.0, 5.0), (20.0, 5.0)))))
        assert "InconsistentTrajectory" in codes(e)

    def test_event_time_outside_window(self):
        with pytest.raises(ValidationError) as e:
            validate_scenario(self._raw(Trajectory(((TIMEOUT, 5.0),))))
        assert "InconsistentTrajectory" in codes(e)

    def test_last_event_must_match_outcome_obj(self):
        with pytest.raises(ValidationError) as e:
            validate_scenario(self._raw(Trajectory(((10.0, 7.0),))))
        assert "InconsistentTrajectory" in codes(e)

    def test_solution_without_events(self):
        with pytest.raises(ValidationError) as e:
            validate_scenario(self._raw(Trajectory(())))
        assert "InconsistentTrajectory" in codes(e)

    def test_proof_cannot_precede_last_event(self):
        # A solved run proves its incumbent optimal when it ends, at its time.
        out = RunOutcome(10.0, RunStatus.SOLVED, 5.0)
        with pytest.raises(ValidationError) as e:
            validate_scenario(self._raw(Trajectory(((20.0, 5.0),)), out))
        assert [(v.code, v.message, v.where) for v in e.value.violations] == [
            ("InconsistentTrajectory", "solved run ends before the last event", "(i1, a)")]

    def test_proof_on_solved_run_accepted(self):
        for end in (20.0, 30.0):  # at the last event, or after it
            out = RunOutcome(end, RunStatus.SOLVED, 5.0)
            sc = validate_scenario(self._raw(Trajectory(((20.0, 5.0),)), out))
            assert sc.trajectories.get(("i1", "a")) == Trajectory(((20.0, 5.0),))

    def test_trajectory_on_decision_instance(self):
        raw = Scenario("x", (Instance("i1"),), ("a",), TIMEOUT,
                       {("i1", "a"): solved(1.0)},
                       {("i1", "a"): Trajectory(((0.5, 3.0),))})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert "InconsistentTrajectory" in codes(e)

    def test_trajectory_for_unknown_pair(self):
        raw = Scenario("x", (Instance("i1", InstanceKind.OPTIMIZATION),), ("a",), TIMEOUT,
                       {("i1", "a"): RunOutcome(TIMEOUT, RunStatus.TIMEOUT)},
                       {("i1", "zzz"): Trajectory(((0.5, 3.0),))})
        with pytest.raises(ValidationError) as e:
            validate_scenario(raw)
        assert "UnknownId" in codes(e)


class TestAccessors:
    def test_unknown_instance_lookup(self):
        sc = decision_scenario({"i1": {"a": 1.0}})
        with pytest.raises(UnknownInstance):
            sc.instance("nope")

    def test_optimization_ids(self):
        sc = scenario_from(
            {("d1", "a"): solved(1.0), ("o1", "a"): timed_out(obj=4.0)},
            kinds={"o1": "optimization"},
        )
        assert sc.optimization_ids == ("o1",)


class TestBestKnown:
    def _sc(self, best_known=None):
        return scenario_from(
            {
                ("o1", "a"): timed_out(obj=8.0),
                ("o1", "b"): timed_out(obj=5.0),
                ("o2", "a"): timed_out(),
                ("o2", "b"): timed_out(),
            },
            kinds={"o1": "optimization", "o2": "optimization"},
            best_known=best_known,
            trajectories={
                ("o1", "a"): Trajectory(((1.0, 8.0),)),
                ("o1", "b"): Trajectory(((1.0, 5.0),)),
            },
        )

    def test_recorded_value_wins(self):
        sc = self._sc(best_known={"o1": 3.0})
        assert sc.objective_columns[1][0] == 3.0

    def test_falls_back_to_min_final_obj(self):
        sc = self._sc()
        assert sc.objective_columns[1][0] == 5.0

    def test_none_when_nothing_known(self):
        sc = self._sc()
        assert sc.objective_columns[1][1] is None

    def test_objective_pool(self):
        sc = self._sc()
        assert sc.objective_columns[0] == ((5.0, 8.0), None)

    def test_recorded_value_without_a_solution(self):
        sc = self._sc(best_known={"o2": 4.0})
        assert sc.objective_columns == (((5.0, 8.0), None), (5.0, 4.0))

    def test_decision_instance_has_no_pool_or_best(self):
        sc = scenario_from({("d1", "a"): solved(3.0), ("d1", "b"): timed_out()})
        assert sc.objective_columns == ((None,), (None,))


class TestRestrict:
    def _sc(self):
        return decision_scenario({
            "i1": {"a": 1.0, "b": 2.0},
            "i2": {"a": 3.0, "b": None},
            "i3": {"a": None, "b": 4.0},
        })

    def test_restrict_keeps_scenario_order(self):
        sc = restrict(self._sc(), ["i3", "i1"])
        assert sc.instance_ids == ("i1", "i3")
        assert sc.solvers == ("a", "b")
        assert sc.timeout_s == TIMEOUT
        assert set(sc.outcomes) == {(i, s) for i in ("i1", "i3") for s in ("a", "b")}

    def test_restrict_to_all_is_identity(self):
        sc = self._sc()
        assert restrict(sc, sc.instance_ids) == sc

    def test_restrict_is_idempotent(self):
        sc = self._sc()
        once = restrict(sc, ["i2", "i1"])
        assert restrict(once, ["i2", "i1"]) == once

    def test_empty_restriction(self):
        with pytest.raises(EmptyRestriction):
            restrict(self._sc(), [])

    def test_unknown_instances(self):
        with pytest.raises(UnknownInstance):
            restrict(self._sc(), ["i1", "ghost"])

    def test_restrict_filters_trajectories(self):
        sc = scenario_from(
            {
                ("o1", "a"): timed_out(obj=4.0),
                ("o2", "a"): timed_out(obj=6.0),
            },
            kinds={"o1": "optimization", "o2": "optimization"},
            trajectories={
                ("o1", "a"): Trajectory(((1.0, 4.0),)),
                ("o2", "a"): Trajectory(((2.0, 6.0),)),
            },
        )
        kept = restrict(sc, ["o2"])
        assert set(kept.trajectories) == {("o2", "a")}
