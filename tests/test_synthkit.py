"""Synthetic scenario generation."""

from __future__ import annotations

import math

import pytest
from helpers import decision_scenario, scenario_from, solved, timed_out

from solvereval import (
    ArchetypeSpec,
    BadSpec,
    InstanceKind,
    MissingTrajectory,
    RunStatus,
    SolverSpec,
    TooLarge,
    constant,
    generate,
    oracle_score,
    par_score,
    score_scenario,
    thorough_vs_fast_spec,
    uniform,
)


def _spec(**overrides) -> ArchetypeSpec:
    base = dict(
        seed=5,
        n_instances=12,
        timeout_s=50.0,
        solvers=(
            SolverSpec(0.9, uniform(1.0, 30.0), name="a"),
            SolverSpec(0.6, uniform(0.5, 10.0), name="b"),
        ),
    )
    base.update(overrides)
    return ArchetypeSpec(**base)


class TestGenerate:
    def test_always_solving_constant_runtime(self):
        spec = _spec(solvers=(SolverSpec(1.0, constant(10.0), name="a"),))
        sc = generate(spec)
        for i in sc.instance_ids:
            out = sc.outcome(i, "a")
            assert out.status is RunStatus.SOLVED
            assert out.time_s == 10.0

    def test_never_solving(self):
        spec = _spec(solvers=(SolverSpec(0.0, constant(10.0), name="a"),))
        sc = generate(spec)
        assert all(
            sc.outcome(i, "a").status is RunStatus.TIMEOUT for i in sc.instance_ids
        )
        assert all(sc.outcomes[(i, "a")].time_s == 50.0 for i in sc.instance_ids)

    def test_same_seed_same_scenario(self):
        assert generate(_spec()) == generate(_spec())

    def test_different_seed_different_scenario(self):
        assert generate(_spec(seed=5)) != generate(_spec(seed=6))

    def test_decision_only_by_default(self):
        sc = generate(_spec())
        assert all(i.kind is InstanceKind.DECISION for i in sc.instances)
        assert not sc.trajectories

    def test_scenario_id_defaults_to_seed(self):
        assert generate(_spec()).id == "synth-5"
        assert generate(_spec(scenario_id="custom")).id == "custom"

    def test_default_solver_names(self):
        spec = _spec(solvers=(
            SolverSpec(1.0, constant(1.0)),
            SolverSpec(1.0, constant(2.0)),
        ))
        assert generate(spec).solvers == ("s01", "s02")

    def test_instance_ids_are_zero_padded(self):
        sc = generate(_spec(n_instances=3))
        assert sc.instance_ids == ("i000", "i001", "i002")

    def test_errors_replace_timeouts(self):
        # the error draw decides how an unsolved run failed, so with
        # solve_probability 0 everything crashes
        spec = _spec(error_probability=1.0,
                     solvers=(SolverSpec(0.0, constant(10.0), name="a"),))
        sc = generate(spec)
        assert all(out.status is RunStatus.ERROR for out in sc.outcomes.values())
        assert all(out.time_s == 50.0 for out in sc.outcomes.values())

    def test_solved_runs_are_untouched_by_error_draw(self):
        spec = _spec(error_probability=1.0,
                     solvers=(SolverSpec(1.0, constant(10.0), name="a"),))
        sc = generate(spec)
        assert all(out.status is RunStatus.SOLVED for out in sc.outcomes.values())

    def test_runtime_that_snaps_to_the_timeout_is_stored_a_millisecond_before(self):
        spec = _spec(timeout_s=10.0, solvers=(SolverSpec(1.0, constant(9.9996), name="a"),))
        sc = generate(spec)
        assert set(sc.outcomes.times["a"]) == {9.999}
        assert set(sc.outcomes.statuses["a"]) == {RunStatus.SOLVED}


class TestOptimizationGeneration:
    def test_solved_runs_carry_proof(self):
        spec = _spec(opt_fraction=1.0, subopt_probability=0.0)
        sc = generate(spec)
        assert all(i.kind is InstanceKind.OPTIMIZATION for i in sc.instances)
        for (i, s), out in sc.outcomes.items():
            if out.status is RunStatus.SOLVED:
                traj = sc.trajectories.get((i, s))
                assert traj is not None
                assert traj.events[-1][0] <= out.time_s  # proven optimal when the run ends
                assert traj.events[-1][1] == out.obj
            else:
                # subopt_probability 0: unsolved runs found nothing
                assert math.isinf(out.obj)
                assert sc.trajectories.get((i, s)) is None

    def test_suboptimal_timeouts_have_unproven_trajectories(self):
        spec = _spec(opt_fraction=1.0, subopt_probability=1.0,
                     solvers=(SolverSpec(0.0, constant(10.0), uniform(1.0, 5.0), name="a"),))
        sc = generate(spec)
        for (i, s), out in sc.outcomes.items():
            assert out.status is RunStatus.TIMEOUT
            assert math.isfinite(out.obj)
            traj = sc.trajectories.get((i, s))
            assert traj is not None
            assert traj.events[-1][0] < out.time_s == sc.timeout_s
            assert traj.events[-1][1] == out.obj

    def test_suboptimal_objective_sits_above_base(self):
        spec = _spec(opt_fraction=1.0, subopt_probability=1.0,
                     solvers=(
                         SolverSpec(1.0, constant(5.0), name="ref"),
                         SolverSpec(0.0, constant(5.0), uniform(1.0, 5.0), name="sub"),
                     ))
        sc = generate(spec)
        for i in sc.instance_ids:
            base = sc.outcomes[(i, "ref")].obj
            assert sc.outcomes[(i, "sub")].obj >= base + 1.0


class TestSpecValidation:
    def test_bad_probability(self):
        with pytest.raises(BadSpec):
            generate(_spec(solvers=(SolverSpec(1.5, constant(1.0), name="a"),)))

    def test_runtime_above_timeout(self):
        with pytest.raises(BadSpec):
            generate(_spec(solvers=(SolverSpec(0.5, uniform(1.0, 60.0), name="a"),)))

    def test_constant_runtime_at_timeout(self):
        with pytest.raises(BadSpec):
            generate(_spec(solvers=(SolverSpec(0.5, constant(50.0), name="a"),)))

    def test_duplicate_names(self):
        with pytest.raises(BadSpec):
            generate(_spec(solvers=(
                SolverSpec(0.5, constant(1.0), name="x"),
                SolverSpec(0.5, constant(2.0), name="x"),
            )))

    def test_name_colliding_with_a_default_name(self, monkeypatch):
        # The second solver's default name is s02, the first's given one. The
        # spec is rejected before any draw: no generator can be made.
        monkeypatch.setattr("solvereval.synthkit.SplitMix64", None)
        with pytest.raises(BadSpec, match="solver name 's02' is given to more than one solver"):
            generate(_spec(solvers=(
                SolverSpec(0.5, constant(1.0), name="s02"),
                SolverSpec(0.5, constant(2.0)),
            )))

    def test_bad_fractions(self):
        with pytest.raises(BadSpec):
            generate(_spec(opt_fraction=1.5))
        with pytest.raises(BadSpec):
            generate(_spec(error_probability=-0.1))

    def test_no_instances(self):
        with pytest.raises(BadSpec):
            generate(_spec(n_instances=0))

    @pytest.mark.parametrize("timeout", [math.nan, math.inf, 0.0, -1.0, 1e307,
                                         pytest.param(10**400, id="10**400")])
    def test_bad_timeout_named(self, timeout):
        with pytest.raises(BadSpec) as e:
            generate(_spec(timeout_s=timeout))
        assert str(e.value).startswith(
            f"timeout_s must be a finite positive number, got {timeout!r}")

    def test_no_solver(self):
        with pytest.raises(BadSpec) as e:
            generate(_spec(solvers=()))
        assert str(e.value) == "at least one solver spec is required"

    def test_negative_quality_offset(self):
        bad = SolverSpec(0.5, constant(1.0), objective_quality=uniform(-1.0, 2.0), name="a")
        with pytest.raises(BadSpec) as e:
            generate(_spec(solvers=(bad,)))
        assert str(e.value) == "a: objective_quality offsets must satisfy 0 <= lo <= hi"

    def test_all_problems_reported_together(self):
        with pytest.raises(BadSpec) as e:
            generate(_spec(n_instances=0, opt_fraction=2.0))
        assert "n_instances" in str(e.value)
        assert "opt_fraction" in str(e.value)


class TestArchetype:
    def test_thorough_vs_fast_profiles(self):
        spec = thorough_vs_fast_spec(seed=1, n_instances=60, timeout_s=100.0)
        sc = generate(spec)
        assert sc.solvers == ("thorough", "fast")
        solved_thorough = sum(
            1 for i in sc.instance_ids
            if sc.outcome(i, "thorough").status is RunStatus.SOLVED
        )
        solved_fast = sum(
            1 for i in sc.instance_ids
            if sc.outcome(i, "fast").status is RunStatus.SOLVED
        )
        assert solved_thorough > solved_fast
        # on its solved instances fast is much quicker
        fast_times = [sc.outcomes[(i, "fast")].time_s for i in sc.instance_ids
                      if sc.outcome(i, "fast").status is RunStatus.SOLVED]
        thorough_times = [sc.outcomes[(i, "thorough")].time_s for i in sc.instance_ids
                          if sc.outcome(i, "thorough").status is RunStatus.SOLVED]
        assert max(fast_times) < min(thorough_times)


class TestOracle:
    def test_par_spot_check(self):
        sc = decision_scenario({"i1": {"a": 50.0, "b": None}, "i2": {"a": None, "b": 30.0}})
        assert oracle_score(sc, "par", "a", lam=2.0) == pytest.approx(125.0)
        assert oracle_score(sc, "par", "a") == pytest.approx(par_score(sc, "a", 10.0))

    def test_solved_count_spot_check(self):
        sc = decision_scenario({"i1": {"a": 50.0, "b": None}, "i2": {"a": None, "b": 30.0}})
        assert oracle_score(sc, "solved-count", "a") == 1.0

    def test_too_large_guard(self):
        big = decision_scenario({f"i{n:03d}": {"a": 1.0} for n in range(51)})
        with pytest.raises(TooLarge):
            oracle_score(big, "par", "a")
        wide = decision_scenario({"i1": {f"s{n}": 1.0 for n in range(7)}})
        with pytest.raises(TooLarge):
            oracle_score(wide, "par", "s0")

    @staticmethod
    def _optimization():
        # A solved run with an objective but no trajectory, as a runs file read without
        # a trajectory file gives.
        return scenario_from(
            {("o1", "a"): solved(3.0, obj=5.0), ("o1", "b"): timed_out()},
            kinds={"o1": "optimization"},
        )

    def test_solution_without_trajectory(self):
        sc = self._optimization()
        with pytest.raises(MissingTrajectory, match=r"\(o1, a\)"):
            oracle_score(sc, "area", "a")
        with pytest.raises(MissingTrajectory):
            score_scenario(sc, "area")

    def test_unsupported_base_metric(self):
        with pytest.raises(ValueError, match="unsupported base metric 'mznc'"):
            oracle_score(self._optimization(), "closed-gap", "a", base_metric="mznc")

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric 'nope'"):
            oracle_score(self._optimization(), "nope", "a")
