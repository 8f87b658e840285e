"""Metric definitions: worked examples and error paths."""

from __future__ import annotations

import math

import pytest
from helpers import decision_scenario, errored, scenario_from, solved, timed_out
from hypothesis import given
from test_fold_columns import bench_family_spec
from test_properties import scenarios

from solvereval import (
    BadAlphaBeta,
    BadLambda,
    DegenerateGap,
    EmptyInput,
    MetricParams,
    MissingTrajectory,
    NonDecomposableMetric,
    NonPositiveObjective,
    RunOutcome,
    RunStatus,
    SameSolver,
    SingleSolverScenario,
    Trajectory,
    UnknownSolver,
    base_instance_values,
    closed_gap,
    generate,
    metric_info,
    mznc_pair,
    mznc_score,
    normalized_runtime_score,
    par_score,
    score_scenario,
)
from solvereval.metrics import instance_columns


def par(run, lam):
    """The par value of one run, the only one of its scenario."""
    sc = scenario_from({("i1", "a"): run})
    return instance_columns(sc, "par", MetricParams(lam=lam))["a"][0]


class TestPar:
    def test_solved_run_counts_its_time(self):
        assert par(solved(50.0), 10.0) == 50.0

    def test_unsolved_run_costs_lambda_timeouts(self):
        assert par(timed_out(), 2.0) == 200.0
        assert par(timed_out(), 10.0) == 1000.0

    def test_error_run_scores_like_a_timeout(self):
        assert par(errored(), 2.0) == 200.0

    def test_mean_over_instances(self):
        sc = decision_scenario({"i1": {"a": 50.0}, "i2": {"a": None}})
        assert par_score(sc, "a", 2.0) == pytest.approx(125.0)

    def test_lambda_one_is_plain_runtime(self):
        sc = decision_scenario({"i1": {"a": 50.0}, "i2": {"a": None}})
        assert par_score(sc, "a", 1.0) == pytest.approx(75.0)

    @pytest.mark.parametrize("lam", [0.999, 0.0, -3.0])
    def test_lambda_below_one_rejected(self, lam):
        with pytest.raises(BadLambda):
            par(solved(1.0), lam)

    @pytest.mark.parametrize("lam,timeout_s", [(math.inf, 100.0), (1e308, 100.0), (1e4, 1e305)])
    def test_infinite_penalty_rejected(self, lam, timeout_s):
        sc = decision_scenario({"i1": {"a": 1.0}}, timeout_s=timeout_s)
        for score in (lambda: par_score(sc, "a", lam),
                      lambda: instance_columns(sc, "par", MetricParams(lam=lam))):
            with pytest.raises(BadLambda) as e:
                score()
            assert f"lambda={lam}" in str(e.value) and f"timeout_s={timeout_s}" in str(e.value)

    def test_penalty_on_every_instance_must_sum_to_a_finite_number(self):
        # lam * timeout_s is 1e308; on both instances it sums past the largest float.
        sc = decision_scenario({"i1": {"a": None}, "i2": {"a": None}})
        for score in (lambda: par_score(sc, "a", 1e306),
                      lambda: instance_columns(sc, "par", MetricParams(lam=1e306))):
            with pytest.raises(BadLambda) as e:
                score()
            assert str(e.value) == (
                "penalty lambda * timeout_s on all n instances must sum to a finite number, "
                "got lambda=1e+306, timeout_s=100.0 and n=2")
        assert par_score(sc, "a", 5e305) == 5e307  # two penalties of 5e307 sum to 1e308

    def test_unknown_solver(self):
        sc = decision_scenario({"i1": {"a": 1.0}})
        with pytest.raises(UnknownSolver):
            par_score(sc, "zzz", 10.0)


class TestPairwise:
    def test_both_solved_splits_by_time_share(self):
        sc = decision_scenario({"i1": {"a": 30.0, "b": 70.0}})
        assert mznc_pair(sc, "i1", "a", "b") == pytest.approx(0.7)
        assert mznc_pair(sc, "i1", "b", "a") == pytest.approx(0.3)

    def test_delta_turns_close_times_into_a_tie(self):
        sc = decision_scenario({"i1": {"a": 30.0, "b": 70.0}})
        assert mznc_pair(sc, "i1", "a", "b", delta=50.0) == 0.5
        assert mznc_pair(sc, "i1", "b", "a", delta=50.0) == 0.5
        # just below the gap: still a time share
        assert mznc_pair(sc, "i1", "a", "b", delta=39.999) == pytest.approx(0.7)

    def test_delta_zero_needs_exact_time_equality(self):
        sc = decision_scenario({"i1": {"a": 30.0, "b": 30.0}})
        assert mznc_pair(sc, "i1", "a", "b", delta=0.0) == 0.5
        sc2 = decision_scenario({"i1": {"a": 30.0, "b": 30.001}})
        assert mznc_pair(sc2, "i1", "a", "b", delta=0.0) == pytest.approx(30.001 / 60.001)

    def test_timeout_side_knows_nothing(self):
        sc = decision_scenario({"i1": {"a": 30.0, "b": None}})
        assert mznc_pair(sc, "i1", "a", "b") == 1.0
        assert mznc_pair(sc, "i1", "b", "a") == 0.0

    def test_both_timeouts_on_decision_score_nothing(self):
        sc = decision_scenario({"i1": {"a": None, "b": None}})
        assert mznc_pair(sc, "i1", "a", "b") == 0.0
        assert mznc_pair(sc, "i1", "b", "a") == 0.0

    def test_optimization_better_objective_wins(self):
        sc = scenario_from(
            {("o1", "a"): timed_out(obj=10.0), ("o1", "b"): timed_out(obj=12.0)},
            kinds={"o1": "optimization"},
            trajectories={
                ("o1", "a"): Trajectory(((20.0, 10.0),)),
                ("o1", "b"): Trajectory(((20.0, 12.0),)),
            },
        )
        assert mznc_pair(sc, "o1", "a", "b") == 1.0
        assert mznc_pair(sc, "o1", "b", "a") == 0.0

    def test_optimization_equal_objectives_at_timeout_tie(self):
        sc = scenario_from(
            {("o1", "a"): timed_out(obj=10.0), ("o1", "b"): timed_out(obj=10.0)},
            kinds={"o1": "optimization"},
            trajectories={
                ("o1", "a"): Trajectory(((20.0, 10.0),)),
                ("o1", "b"): Trajectory(((30.0, 10.0),)),
            },
        )
        assert mznc_pair(sc, "o1", "a", "b") == 0.5
        assert mznc_pair(sc, "o1", "b", "a") == 0.5

    def test_optimization_no_solution_is_unknown(self):
        sc = scenario_from(
            {("o1", "a"): timed_out(), ("o1", "b"): timed_out(obj=10.0)},
            kinds={"o1": "optimization"},
            trajectories={("o1", "b"): Trajectory(((20.0, 10.0),))},
        )
        assert mznc_pair(sc, "o1", "a", "b") == 0.0
        assert mznc_pair(sc, "o1", "b", "a") == 1.0

    def test_solved_optimization_beats_slower_equal_objective(self):
        # finishing (proving optimality) while the opponent sits at the
        # timeout with the same objective value is a strict win
        sc = scenario_from(
            {("o1", "a"): solved(20.0, obj=10.0), ("o1", "b"): timed_out(obj=10.0)},
            kinds={"o1": "optimization"},
            trajectories={
                ("o1", "a"): Trajectory(((20.0, 10.0),)),
                ("o1", "b"): Trajectory(((30.0, 10.0),)),
            },
        )
        assert mznc_pair(sc, "o1", "a", "b") == 1.0
        assert mznc_pair(sc, "o1", "b", "a") == 0.0

    def test_same_solver_rejected(self):
        sc = decision_scenario({"i1": {"a": 1.0, "b": 2.0}})
        with pytest.raises(SameSolver, match="^cannot compare solver 'a' with itself$"):
            mznc_pair(sc, "i1", "a", "a")

    def test_unknown_solver_rejected(self):
        sc = decision_scenario({"i1": {"a": 1.0, "b": 2.0}})
        with pytest.raises(UnknownSolver):
            mznc_pair(sc, "i1", "a", "zzz")

    def test_negative_delta_rejected(self):
        sc = decision_scenario({"i1": {"a": 1.0, "b": 2.0}})
        with pytest.raises(ValueError):
            mznc_pair(sc, "i1", "a", "b", delta=-0.5)

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_non_finite_delta_rejected(self, delta):
        sc = decision_scenario({"i1": {"a": 1.0, "b": 2.0}})
        with pytest.raises(ValueError):
            mznc_pair(sc, "i1", "a", "b", delta=delta)
        with pytest.raises(ValueError):
            mznc_score(sc, "a", delta)
        with pytest.raises(ValueError):
            score_scenario(sc, "mznc", MetricParams(delta=delta))

    def test_score_sums_instances_and_opponents(self):
        sc = decision_scenario({
            "i1": {"a": 30.0, "b": 70.0, "c": None},
            "i2": {"a": None, "b": 10.0, "c": 10.0},
        })
        # a: i1 vs b = 0.7, i1 vs c = 1.0, i2 unknown = 0
        assert mznc_score(sc, "a") == pytest.approx(1.7)
        # b: i1 vs a = 0.3, i1 vs c = 1.0, i2 vs a = 1.0, i2 vs c = 0.5
        assert mznc_score(sc, "b") == pytest.approx(2.8)

    def test_single_solver_scenario_rejected(self):
        sc = decision_scenario({"i1": {"a": 1.0}})
        with pytest.raises(SingleSolverScenario):
            mznc_score(sc, "a")


class TestNormalizedRuntime:
    def test_worked_example(self):
        sc = decision_scenario({"i1": {"a": 50.0}, "i2": {"a": None}})
        assert normalized_runtime_score(sc, "a") == pytest.approx(0.25)

    def test_all_instant_gives_one(self):
        sc = decision_scenario({"i1": {"a": 0.0}})
        assert normalized_runtime_score(sc, "a") == 1.0

    @staticmethod
    def assert_scores_as_the_metric(sc):
        scored = score_scenario(sc, "normalized-runtime")[0].per_solver
        for s in sc.solvers:
            assert normalized_runtime_score(sc, s) == scored[s], s

    def test_equals_the_scored_metric_on_the_bench_family(self):
        self.assert_scores_as_the_metric(generate(bench_family_spec(1, 2000, 20, 0.5)))

    @given(scenarios())
    def test_equals_the_scored_metric(self, sc):
        self.assert_scores_as_the_metric(sc)


class TestSpeedup:
    def test_worked_example(self):
        sc = decision_scenario({"i1": {"a": 20.0, "b": 10.0}, "i2": {"a": None, "b": None}})
        # the virtual best takes 10 s on i1 and times out (100 s) on i2
        assert instance_columns(sc, "speedup")["a"] == [0.5, 1.0]
        assert score_scenario(sc, "speedup")[0].per_solver["a"] == pytest.approx(0.75)

    def test_zero_over_zero_counts_as_one(self):
        sc = decision_scenario({"i1": {"a": 0.0, "b": 0.0}})
        assert instance_columns(sc, "speedup") == {"a": [1.0], "b": [1.0]}


class TestClosedGap:
    def test_virtual_best_closes_everything(self):
        assert closed_gap(50.0, 100.0, 50.0) == 1.0

    def test_single_best_closes_nothing(self):
        assert closed_gap(100.0, 100.0, 50.0) == 0.0

    def test_worse_than_single_best_goes_negative(self):
        assert closed_gap(150.0, 100.0, 50.0) == -1.0

    def test_degenerate_gap_rejected(self):
        with pytest.raises(DegenerateGap):
            closed_gap(50.0, 100.0, 100.0)
        with pytest.raises(DegenerateGap):
            closed_gap(50.0, 90.0, 100.0)


def ratio(obj, best=50.0):
    """The ratio value of a run ending at obj on an instance with a recorded best."""
    sc = scenario_from(
        {("o1", "a"): timed_out(obj=obj)}, kinds={"o1": "optimization"}, best_known={"o1": best}
    )
    return instance_columns(sc, "ratio")["a"][0]


class TestRatio:
    def test_worked_example(self):
        assert ratio(100.0) == 0.5

    def test_matching_best_scores_one(self):
        assert ratio(50.0) == 1.0

    def test_beating_best_known_is_clamped(self):
        assert ratio(40.0) == 1.0

    def test_no_solution_scores_zero(self):
        assert ratio(math.inf) == 0.0

    def test_non_positive_objective_rejected(self):
        with pytest.raises(NonPositiveObjective):
            ratio(-2.0)
        with pytest.raises(NonPositiveObjective):
            ratio(2.0, best=-1.0)

    def test_needs_optimization_instance_and_best(self):
        # No value at a decision instance; 0 where nothing is known to compare with.
        sc = scenario_from(
            {("d1", "a"): solved(1.0), ("o1", "a"): timed_out()}, kinds={"o1": "optimization"}
        )
        assert instance_columns(sc, "ratio") == {"a": [None, 0.0]}
        with pytest.raises(EmptyInput):
            score_scenario(decision_scenario({"d1": {"a": 1.0}}), "ratio")

    def test_mean_over_optimization_instances(self):
        sc = scenario_from(
            {
                ("d1", "a"): solved(1.0),
                ("o1", "a"): timed_out(obj=100.0),
                ("o2", "a"): timed_out(obj=40.0),
            },
            kinds={"o1": "optimization", "o2": "optimization"},
            best_known={"o1": 50.0, "o2": 10.0},
        )
        table, _ = score_scenario(sc, "ratio")
        assert table.per_solver["a"] == pytest.approx((0.5 + 0.25) / 2)


def area(traj, best, worst, solved_at=None):
    """The area of solver a's trajectory on one instance whose scale is (best, worst).

    best is the instance's recorded best known value, and solver w ends at
    worst, the worst objective of the pool; a's final objective lies between.
    """
    final = traj.events[-1][1] if traj.events else math.inf
    run = timed_out(obj=final) if solved_at is None else RunOutcome(
        solved_at, RunStatus.SOLVED, final
    )
    sc = scenario_from(
        {("o1", "a"): run, ("o1", "w"): timed_out(obj=worst)},
        kinds={"o1": "optimization"},
        best_known={"o1": best},
        trajectories={("o1", "a"): traj, ("o1", "w"): Trajectory(((0.0, worst),))},
    )
    return instance_columns(sc, "area")["a"][0]


class TestArea:
    def test_no_solution_integrates_to_one(self):
        assert area(Trajectory(), 0.0, 10.0) == 1.0

    def test_step_function_worked_example(self):
        # quality 1 on [0,10), (10-0)/(10-0)=1 on [10,50), 0.5 on [50,100)
        traj = Trajectory(((10.0, 10.0), (50.0, 5.0)))
        assert area(traj, 0.0, 10.0) == pytest.approx(0.75)

    def test_proof_zeroes_the_tail(self):
        traj = Trajectory(((10.0, 6.0),))
        # 1 on [0,10), (6-4)/6 on [10,60), 0 once the run is solved at 60
        expected = (10.0 + 50.0 * (2.0 / 6.0)) / 100.0
        assert area(traj, 4.0, 10.0, solved_at=60.0) == pytest.approx(expected)

    def test_objective_at_best_bound_scores_zero_after_found(self):
        traj = Trajectory(((10.0, 4.0),))
        assert area(traj, 4.0, 10.0) == pytest.approx(0.1)

    def test_degenerate_bounds(self):
        at_best = Trajectory(((10.0, 4.0),))
        above_first = Trajectory(((10.0, 9.0), (20.0, 4.0)))
        assert area(at_best, 4.0, 4.0) == pytest.approx(0.1)
        # 1 on [0,10), 9 above the scale's single value: 1 on [10,20), 0 afterwards
        assert area(above_first, 4.0, 4.0) == pytest.approx(0.2)

    def test_values_outside_bounds_are_clamped(self):
        # An incumbent is never below the scale, which starts at the pool's best.
        traj = Trajectory(((10.0, 50.0), (20.0, 4.0)))
        # 50 clamps to 1, 4 scales to 0
        assert area(traj, 4.0, 10.0) == pytest.approx(0.2)

    def test_bad_bounds(self):
        # The scale is built from the runs, so it cannot be inverted: a
        # recorded best above every final objective starts it at the pool's best.
        traj = Trajectory(((10.0, 6.0),))
        # 1 on [0,10), (6-6)/(10-6)=0 afterwards
        assert area(traj, 20.0, 10.0) == pytest.approx(0.1)

    def test_decision_instance_rejected(self):
        sc = decision_scenario({"d1": {"a": 1.0}})
        assert instance_columns(sc, "area") == {"a": [None]}
        with pytest.raises(EmptyInput):
            score_scenario(sc, "area")


class TestAreaInstanceValues:
    def test_no_solution_anywhere_scores_zero_for_all(self):
        sc = scenario_from(
            {("o1", "a"): timed_out(), ("o1", "b"): timed_out()},
            kinds={"o1": "optimization"},
        )
        assert instance_columns(sc, "area") == {"a": [0.0], "b": [0.0]}

    def test_missing_trajectory_for_found_solution(self):
        # a solution without a recorded trajectory is valid input, but area cannot score it
        sc = scenario_from(
            {("o1", "a"): timed_out(obj=5.0), ("o1", "b"): timed_out()},
            kinds={"o1": "optimization"},
        )
        with pytest.raises(MissingTrajectory):
            instance_columns(sc, "area")

    def test_recorded_best_known_widens_the_scale(self):
        sc = scenario_from(
            {("o1", "a"): timed_out(obj=8.0), ("o1", "b"): timed_out(obj=10.0)},
            kinds={"o1": "optimization"},
            best_known={"o1": 6.0},
            trajectories={
                ("o1", "a"): Trajectory(((0.0, 8.0),)),
                ("o1", "b"): Trajectory(((0.0, 10.0),)),
            },
        )
        vals = instance_columns(sc, "area")
        # scale is (6, 10): a sits at 0.5 for the whole run, b at 1.0
        assert vals["a"] == [pytest.approx(0.5)]
        assert vals["b"] == [pytest.approx(1.0)]


def reward(run, pool, alpha=0.25, beta=0.75):
    """The bounded reward of run on an instance where the other solvers end at pool."""
    cells = {("o1", "a"): run, **{("o1", f"p{k}"): timed_out(obj=v) for k, v in enumerate(pool)}}
    sc = scenario_from(cells, kinds={"o1": "optimization"})
    return instance_columns(sc, "bounded-reward", MetricParams(alpha=alpha, beta=beta))["a"][0]


class TestBoundedReward:
    def test_no_solution_scores_zero(self):
        assert reward(timed_out(), (10.0, 20.0)) == 0.0

    def test_proven_optimal_scores_one(self):
        assert reward(RunOutcome(5.0, RunStatus.SOLVED, 10.0), (10.0, 20.0)) == 1.0

    def test_linear_interpolation(self):
        assert reward(timed_out(obj=15.0), (10.0, 20.0)) == pytest.approx(0.5)

    def test_pool_extremes_map_to_alpha_and_beta(self):
        assert reward(timed_out(obj=10.0), (10.0, 20.0)) == 0.75
        assert reward(timed_out(obj=20.0), (10.0, 20.0)) == 0.25

    def test_degenerate_pool_scores_beta(self):
        assert reward(timed_out(obj=10.0), (10.0, 10.0)) == 0.75

    def test_instance_without_a_solution_scores_zero(self):
        sc = scenario_from(
            {("o1", "a"): timed_out(), ("o1", "b"): timed_out()}, kinds={"o1": "optimization"}
        )
        assert instance_columns(sc, "bounded-reward") == {"a": [0.0], "b": [0.0]}

    def test_decision_instance_has_no_value(self):
        sc = decision_scenario({"d1": {"a": 1.0}})
        assert instance_columns(sc, "bounded-reward") == {"a": [None]}
        with pytest.raises(EmptyInput):
            score_scenario(sc, "bounded-reward")

    def test_bad_alpha_beta(self):
        out = timed_out(obj=15.0)
        with pytest.raises(BadAlphaBeta):
            reward(out, (10.0, 20.0), 0.8, 0.5)
        with pytest.raises(BadAlphaBeta):
            reward(out, (10.0, 20.0), -0.1, 0.5)
        with pytest.raises(BadAlphaBeta):
            reward(out, (10.0, 20.0), 0.5, 1.2)


class TestBaseInstanceValues:
    def test_only_decomposable_lower_better_metrics(self):
        sc = decision_scenario({"i1": {"a": 1.0}})
        for metric in ("par", "runtime"):
            vals = base_instance_values(sc, metric)
            assert vals[("a", "i1")] == 1.0
        for metric in ("mznc", "solved-count", "speedup", "ratio", "bounded-reward"):
            with pytest.raises(NonDecomposableMetric):
                base_instance_values(sc, metric)


class TestRegistry:
    def test_every_metric_has_info(self):
        for mid in ("par", "runtime", "solved-count", "mznc", "normalized-runtime",
                    "speedup", "closed-gap", "ratio", "area", "bounded-reward"):
            info = metric_info(mid)
            assert info.metric_id == mid

    def test_direction_conventions(self):
        assert metric_info("par").direction.value == "lower_better"
        assert metric_info("area").direction.value == "lower_better"
        assert metric_info("runtime").direction.value == "lower_better"
        for mid in ("solved-count", "mznc", "normalized-runtime", "speedup",
                    "closed-gap", "ratio", "bounded-reward"):
            assert metric_info(mid).direction.value == "higher_better"

    def test_decomposable_base_metrics(self):
        decomposable = {mid for mid in ("par", "runtime", "solved-count", "mznc",
                                        "normalized-runtime", "speedup", "closed-gap",
                                        "ratio", "area", "bounded-reward")
                        if metric_info(mid).decomposable_base}
        assert decomposable == {"par", "runtime", "area"}

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            metric_info("nope")

    def test_closed_gap_has_no_instance_columns(self):
        sc = decision_scenario({"i1": {"a": 1.0, "b": 2.0}})
        with pytest.raises(NonDecomposableMetric, match="closed-gap"):
            instance_columns(sc, "closed-gap")
