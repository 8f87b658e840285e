"""Evaluation harness: folds, aggregation, ranking, comparisons."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from helpers import TIMEOUT, decision_scenario, scenario_from, solved, timed_out
from hypothesis import given
from hypothesis import strategies as st
from test_fold_columns import TrainTest, bench_family_spec, generated, score_cell

from solvereval import (
    Aggregation,
    BadK,
    DEFAULT_MERGE,
    Direction,
    EmptyInput,
    METRICS,
    BadLambda,
    FoldPlan,
    InstanceKind,
    MetricParams,
    MissingFoldContext,
    NonPositiveForGeomean,
    SameSolver,
    SbsPolicy,
    ScoreTable,
    SingleSolverScenario,
    Trajectory,
    UnknownSolver,
    aggregate,
    baseline_report,
    delta_sweep,
    evaluate,
    find_flip_delta,
    generate,
    head_to_head,
    make_fold_plan,
    mznc_score,
    rank,
    runtime_distribution,
    score_scenario,
    thorough_vs_fast_spec,
)
from solvereval.metrics import base_columns, instance_columns, read_split


class TestAggregate:
    def test_methods(self):
        assert aggregate([1.0, 2.0, 3.0], Aggregation.SUM) == 6.0
        assert aggregate([1.0, 2.0, 3.0], Aggregation.ARITHMETIC_MEAN) == 2.0
        assert aggregate([1.0, 4.0], Aggregation.GEOMETRIC_MEAN) == pytest.approx(2.0)
        assert aggregate([1.0, 2.0, 100.0], Aggregation.MEDIAN) == 2.0

    def test_accepts_method_names(self):
        assert aggregate([2.0, 4.0], "arithmetic_mean") == 3.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            aggregate([], Aggregation.SUM)

    @pytest.mark.parametrize("values", [[0.0, 1.0], [-1.0, 2.0]])
    def test_geomean_needs_positive_values(self, values):
        with pytest.raises(NonPositiveForGeomean):
            aggregate(values, Aggregation.GEOMETRIC_MEAN)

    def test_default_merge_is_arithmetic_mean(self):
        assert DEFAULT_MERGE is Aggregation.ARITHMETIC_MEAN


class TestFoldPlan:
    IDS = [f"i{n:02d}" for n in range(10)]

    def test_partition_properties(self):
        plan = make_fold_plan(self.IDS, 3, seed=1)
        folds = plan.assignment[0]
        sizes = sorted(len(f) for f in folds)
        assert sizes == [3, 3, 4]
        assert sorted(i for f in folds for i in f) == sorted(self.IDS)

    def test_deterministic_for_seed(self):
        assert make_fold_plan(self.IDS, 3, seed=7) == make_fold_plan(self.IDS, 3, seed=7)

    def test_input_order_does_not_matter(self):
        shuffled = list(reversed(self.IDS))
        assert make_fold_plan(self.IDS, 3, seed=7) == make_fold_plan(shuffled, 3, seed=7)

    def test_seeds_give_different_partitions(self):
        a = make_fold_plan(self.IDS, 5, seed=0).assignment
        b = make_fold_plan(self.IDS, 5, seed=1).assignment
        assert a != b

    def test_repeats_stack_independent_partitions(self):
        plan = make_fold_plan(self.IDS, 2, repeats=3, seed=0)
        assert len(plan.assignment) == 3
        for folds in plan.assignment:
            assert sorted(i for f in folds for i in f) == sorted(self.IDS)
        assert len({tuple(folds) for folds in plan.assignment}) > 1

    @pytest.mark.parametrize("k", [0, 1, 11])
    def test_bad_k(self, k):
        with pytest.raises(BadK):
            make_fold_plan(self.IDS, k)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            make_fold_plan(["a", "a", "b"], 2)

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError):
            make_fold_plan(self.IDS, 2, repeats=0)

    def test_k_and_repeats_of_a_plan_with_no_repeat(self):
        plan = FoldPlan(0, ())
        assert (plan.k, plan.repeats) == (0, 0)


class TestScoreScenario:
    def test_par_table_shape(self):
        sc = decision_scenario({"i1": {"a": 50.0, "b": None}, "i2": {"a": None, "b": 30.0}})
        table, report = score_scenario(sc, "par")
        assert report is None
        assert table.metric_id == "par"
        assert table.params == {"lambda": 10.0}
        assert table.direction is Direction.LOWER
        assert table.per_solver["a"] == pytest.approx(525.0)
        assert table.per_instance[("a", "i1")] == 50.0
        assert table.aggregation == "arithmetic_mean"

    def test_solved_count_sums(self):
        sc = decision_scenario({"i1": {"a": 50.0, "b": None}, "i2": {"a": 1.0, "b": 30.0}})
        table, _ = score_scenario(sc, "solved-count")
        assert table.per_solver == {"a": 2.0, "b": 1.0}
        assert table.aggregation == "sum"

    def test_closed_gap_reports_its_baseline(self):
        sc = decision_scenario({"i1": {"a": 50.0, "b": None}, "i2": {"a": None, "b": 30.0}})
        table, report = score_scenario(sc, "closed-gap")
        assert report is not None
        assert report.sbs_id == "b"
        assert table.per_solver["b"] == 0.0
        assert table.params["sbs_policy"] == "full_dataset"

    def test_cell_checked_before_columns(self):
        # A penalty below 1 fails the column build, which the policy check comes before.
        sc = generate(thorough_vs_fast_spec(seed=3, n_instances=6))
        with pytest.raises(MissingFoldContext):
            score_scenario(sc, "closed-gap", MetricParams(lam=0.5), "train_split")
        with pytest.raises(BadLambda):
            score_scenario(sc, "closed-gap", MetricParams(lam=0.5), "full_dataset")

    @pytest.mark.parametrize("metric_id", ["par", "closed-gap"])
    def test_a_split_needs_its_columns(self, metric_id):
        sc = generate(thorough_vs_fast_spec(seed=3, n_instances=6))
        build = base_columns if metric_id == "closed-gap" else instance_columns
        columns = build(sc, "par")
        split = read_split(columns, range(6))
        with pytest.raises(TypeError, match="columns it was read off"):
            score_scenario(sc, metric_id, split=split, selection=[split])
        if metric_id == "closed-gap":
            with pytest.raises(TypeError, match="closed gap its selection"):
                score_scenario(sc, metric_id, columns=columns, split=split)
        table, _ = score_scenario(sc, metric_id, columns=columns, split=split, selection=[split])
        assert table == score_scenario(sc, metric_id)[0]

    def test_optimization_metrics_need_optimization_instances(self):
        sc = decision_scenario({"i1": {"a": 1.0, "b": 2.0}})
        for metric in ("ratio", "area", "bounded-reward"):
            with pytest.raises(EmptyInput):
                score_scenario(sc, metric)

    def test_ratio_and_bounded_reward_tables(self):
        sc = scenario_from(
            {
                ("o1", "a"): timed_out(obj=50.0),
                ("o1", "b"): timed_out(obj=100.0),
                ("o2", "a"): timed_out(),
                ("o2", "b"): timed_out(),
            },
            kinds={"o1": "optimization", "o2": "optimization"},
            trajectories={
                ("o1", "a"): Trajectory(((10.0, 50.0),)),
                ("o1", "b"): Trajectory(((10.0, 100.0),)),
            },
        )
        table, _ = score_scenario(sc, "ratio")
        # o1: 1.0 vs 0.5; o2 scores 0 for both since nobody found anything
        assert table.per_solver["a"] == pytest.approx(0.5)
        assert table.per_solver["b"] == pytest.approx(0.25)
        table, _ = score_scenario(sc, "bounded-reward")
        assert table.per_solver["a"] == pytest.approx(0.375)  # (0.75 + 0) / 2
        assert table.per_solver["b"] == pytest.approx(0.125)  # (0.25 + 0) / 2


class TestEvaluate:
    def _sc(self):
        return decision_scenario({
            "i1": {"a": 10.0, "b": 90.0},
            "i2": {"a": 20.0, "b": 80.0},
            "i3": {"a": None, "b": 5.0},
            "i4": {"a": 40.0, "b": None},
        })

    @pytest.mark.parametrize("metric_id", list(METRICS))
    def test_no_folds_single_cell(self, metric_id):
        # An unfolded score is the fold loop's one cell, which holds every instance.
        sc = generate(bench_family_spec(5, 30, 4, 0.5))
        assert {i.kind for i in sc.instances} == set(InstanceKind)
        result = evaluate(sc, metric_id)
        assert result.fold_plan is None
        (cell,) = result.cells
        assert (cell.repeat, cell.fold, cell.test_instances) == (0, 0, sc.instance_ids)
        assert result.merged is cell.table
        assert score_scenario(sc, metric_id) == (cell.table, cell.baseline)
        assert result.sbs_policy is SbsPolicy.FULL_DATASET
        assert result.aggregation is Aggregation.ARITHMETIC_MEAN
        if METRICS[metric_id].baselines:
            assert cell.baseline == baseline_report(sc, "par", 10.0)
        else:
            assert cell.baseline is None

    @given(generated(), st.data())
    def test_cell_scores_are_the_aggregate_of_their_values(self, sc, data):
        n = len(sc.instance_ids)
        plan = make_fold_plan(
            sc.instance_ids, data.draw(st.integers(2, min(n, 5))),
            repeats=data.draw(st.integers(1, 2)), seed=data.draw(st.integers(0, 99)),
        )
        for metric_id, info in METRICS.items():
            if info.baselines:
                continue
            try:
                result = evaluate(sc, metric_id, fold_plan=plan)
            except EmptyInput:  # an optimization metric on a fold of decision instances
                assert metric_id in ("ratio", "area", "bounded-reward")
                continue
            how = "sum" if info.summed else "arithmetic_mean"
            for cell in result.cells:
                assert cell.table.aggregation == how
                for s in sc.solvers:
                    values = [v for (t, _), v in cell.table.per_instance.items() if t == s]
                    assert cell.table.per_solver[s].hex() == aggregate(values, how).hex()

    def test_fold_cells_cover_each_instance_once(self):
        sc = self._sc()
        plan = make_fold_plan(sc.instance_ids, 2, seed=3)
        result = evaluate(sc, "par", fold_plan=plan)
        seen = [i for c in result.cells for i in c.test_instances]
        assert sorted(seen) == sorted(sc.instance_ids)
        assert result.sbs_policy is SbsPolicy.TRAIN_SPLIT

    def test_merged_is_mean_of_cells_by_default(self):
        sc = self._sc()
        plan = make_fold_plan(sc.instance_ids, 2, repeats=2, seed=3)
        result = evaluate(sc, "par", fold_plan=plan)
        for s in sc.solvers:
            cell_scores = [c.table.per_solver[s] for c in result.cells]
            assert result.merged.per_solver[s] == pytest.approx(
                math.fsum(cell_scores) / len(cell_scores)
            )

    def test_merge_aggregation_is_configurable(self):
        sc = self._sc()
        plan = make_fold_plan(sc.instance_ids, 2, seed=3)
        result = evaluate(sc, "par", fold_plan=plan, aggregation=Aggregation.SUM)
        for s in sc.solvers:
            cell_scores = [c.table.per_solver[s] for c in result.cells]
            assert result.merged.per_solver[s] == pytest.approx(math.fsum(cell_scores))

    def test_closed_gap_folds_select_sbs_on_train(self):
        sc = self._sc()
        plan = make_fold_plan(sc.instance_ids, 2, seed=3)
        result = evaluate(sc, "closed-gap", fold_plan=plan)
        for cell in result.cells:
            assert cell.baseline is not None
            assert cell.baseline.sbs_policy is SbsPolicy.TRAIN_SPLIT
            train = tuple(i for i in sc.instance_ids if i not in cell.test_instances)
            from solvereval import restrict
            from solvereval.metrics import instance_columns
            columns = instance_columns(restrict(sc, train), "par")
            totals = {s: math.fsum(col) for s, col in columns.items()}
            assert cell.baseline.sbs_id == min(sc.solvers, key=lambda s: (totals[s], s))

    def test_single_solver_pairwise_rejected(self):
        sc = decision_scenario({"i1": {"a": 1.0}, "i2": {"a": 2.0}})
        with pytest.raises(SingleSolverScenario):
            evaluate(sc, "mznc")

    def test_single_solver_pairwise_same_error_everywhere(self):
        sc = decision_scenario({"i1": {"a": 1.0}, "i2": {"a": 2.0}})
        plan = make_fold_plan(sc.instance_ids, 2)
        for call in (
            lambda: score_scenario(sc, "mznc"),
            lambda: score_cell(sc, "mznc", None, "train_split", TrainTest(("i1",), ("i2",))),
            lambda: evaluate(sc, "mznc"),
            lambda: evaluate(sc, "mznc", fold_plan=plan),
            lambda: mznc_score(sc, "a"),
            lambda: mznc_score(sc, "zz"),
            lambda: delta_sweep(sc, [0.0]),
            lambda: delta_sweep(sc, [0.0], ["zz"]),
        ):
            with pytest.raises(SingleSolverScenario):
                call()

    def test_fold_plan_must_match_instances(self):
        sc = self._sc()
        plan = make_fold_plan(["x1", "x2"], 2)
        with pytest.raises(ValueError):
            evaluate(sc, "par", fold_plan=plan)

    def test_closed_gap_geomean_merge_rejected_before_scoring(self, monkeypatch):
        sc = generate(thorough_vs_fast_spec(seed=1, n_instances=60))
        plan = make_fold_plan(sc.instance_ids, 5)
        # every cell scores its own single best solver at exactly 0
        for cell in evaluate(sc, "closed-gap", fold_plan=plan).cells:
            assert cell.table.per_solver[cell.baseline.sbs_id] == 0.0
        info, built = METRICS["closed-gap"], []

        def spy(scenario, params):
            built.append(scenario.id)
            return info.columns(scenario, params)

        monkeypatch.setitem(METRICS, "closed-gap", replace(info, columns=spy))
        for aggregation in ("geometric_mean", Aggregation.GEOMETRIC_MEAN):
            with pytest.raises(NonPositiveForGeomean, match="closed-gap"):
                evaluate(sc, "closed-gap", fold_plan=plan, aggregation=aggregation)
        assert built == []  # no column was built
        evaluate(sc, "closed-gap", fold_plan=plan)
        assert built == [sc.id]  # the spy sees the columns a scoring run builds
        for other in ("par", "runtime", "mznc"):
            evaluate(sc, other, fold_plan=plan, aggregation="geometric_mean")

    def test_refused_geomean_merge_names_metric_solver_and_cell(self):
        # b solves only i3, so a cell without i3 scores it at 0 under normalized-runtime.
        sc = decision_scenario({"i1": {"a": 1.0, "b": None}, "i2": {"a": 2.0, "b": None},
                                "i3": {"a": 3.0, "b": 5.0}, "i4": {"a": 4.0, "b": None}})
        plan = make_fold_plan(sc.instance_ids, 2)
        cells = evaluate(sc, "normalized-runtime", fold_plan=plan).cells
        bad = next(c for c in cells if c.table.per_solver["b"] <= 0)
        with pytest.raises(NonPositiveForGeomean) as refused:
            evaluate(sc, "normalized-runtime", fold_plan=plan, aggregation="geometric_mean")
        assert str(refused.value) == (
            "normalized-runtime: geometric mean needs strictly positive values: solver b scores"
            f" 0.0 in repeat {bad.repeat}, fold {bad.fold}")
        with pytest.raises(NonPositiveForGeomean) as direct:  # aggregate's own message
            aggregate([1.0, 0.0], Aggregation.GEOMETRIC_MEAN)
        assert str(direct.value) == "geometric mean needs strictly positive values"

    def test_closed_gap_geomean_without_folds_still_scores(self):
        sc = generate(thorough_vs_fast_spec(seed=1, n_instances=60))
        result = evaluate(sc, "closed-gap", aggregation="geometric_mean")
        assert result.aggregation is Aggregation.GEOMETRIC_MEAN
        assert result.merged == result.cells[0].table
        assert result.merged.per_solver[result.cells[0].baseline.sbs_id] == 0.0


class TestRank:
    def test_orders_by_direction(self):
        lower = ScoreTable("par", {"lambda": 10.0}, {"a": 5.0, "b": 3.0}, Direction.LOWER)
        assert [e.solver_id for e in rank([lower])] == ["b", "a"]
        higher = ScoreTable("mznc", {"delta": 0.0}, {"a": 5.0, "b": 3.0}, Direction.HIGHER)
        assert [e.solver_id for e in rank([higher])] == ["a", "b"]

    def test_ties_flagged_and_broken_lexicographically(self):
        table = ScoreTable("par", {}, {"zeta": 1.0, "alpha": 1.0, "mid": 2.0}, Direction.LOWER)
        entries = rank([table])
        assert [(e.solver_id, e.position, e.tied) for e in entries] == [
            ("alpha", 1, True), ("zeta", 2, True), ("mid", 3, False),
        ]

    def test_more_than_one_table_rejected(self):
        t1 = ScoreTable("par", {"lambda": 10.0}, {"a": 5.0}, Direction.LOWER)
        t2 = ScoreTable("par", {"lambda": 10.0}, {"b": 3.0}, Direction.LOWER)
        with pytest.raises(ValueError, match=r"^rank takes one score table, got 2$"):
            rank([t1, t2])
        with pytest.raises(ValueError, match=r"got 3$"):
            rank([t1, t1, t1])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            rank([])


class TestHeadToHead:
    def test_counts(self):
        sc = decision_scenario({
            "i1": {"a": 10.0, "b": 20.0},
            "i2": {"a": 30.0, "b": 5.0},
            "i3": {"a": 7.0, "b": 7.0},
            "i4": {"a": None, "b": None},
        })
        h = head_to_head(sc, "a", "b")
        assert (h.a_faster, h.b_faster, h.ties) == (1, 1, 2)

    def test_antisymmetry(self):
        sc = decision_scenario({"i1": {"a": 10.0, "b": 20.0}, "i2": {"a": 1.0, "b": None}})
        ab, ba = head_to_head(sc, "a", "b"), head_to_head(sc, "b", "a")
        assert (ab.a_faster, ab.b_faster) == (ba.b_faster, ba.a_faster)
        assert ab.ties == ba.ties

    def test_millisecond_resolution(self):
        sc = decision_scenario({"i1": {"a": 10.0, "b": 10.001}})
        h = head_to_head(sc, "a", "b")
        assert (h.a_faster, h.b_faster, h.ties) == (1, 0, 0)

    def test_unknown_solver(self):
        sc = decision_scenario({"i1": {"a": 1.0, "b": 2.0}})
        with pytest.raises(UnknownSolver):
            head_to_head(sc, "a", "zzz")


class TestDeltaSweep:
    def _sc(self):
        return decision_scenario({
            "i1": {"a": 1.0, "b": 50.0},
            "i2": {"a": None, "b": 10.0},
            "i3": {"a": 1.0, "b": 50.0},
        })

    @pytest.mark.parametrize("delta", [1e306, 1.8e305])
    def test_delta_with_no_finite_millisecond_count_rejected(self, delta):
        sc = self._sc()
        message = f"delta must be a finite number >= 0, got {delta}"
        with pytest.raises(ValueError) as e:
            delta_sweep(sc, [0.0, delta])
        assert str(e.value) == message
        with pytest.raises(ValueError) as e:
            mznc_score(sc, "a", delta)
        assert str(e.value) == message

    def test_huge_delta_on_the_grid_ties_every_pair(self):
        sc = self._sc()
        assert delta_sweep(sc, [1e300])[1e300] == delta_sweep(sc, [100.0])[100.0]

    def test_scores_match_direct_computation(self):
        sc = self._sc()
        sweep = delta_sweep(sc, [0.0, 49.0])
        for d in (0.0, 49.0):
            for s in sc.solvers:
                assert sweep[d][s] == mznc_score(sc, s, d)

    def test_saturation_at_large_delta(self):
        sc = self._sc()
        sweep = delta_sweep(sc, [0.0, 1000.0])
        # every comparable pair with equal objectives becomes a 0.5 tie
        assert sweep[1000.0]["a"] == pytest.approx(1.0)
        assert sweep[1000.0]["b"] == pytest.approx(2.0)

    def test_solver_filter_only_limits_reporting(self):
        sc = self._sc()
        full = delta_sweep(sc, [0.0])
        only_a = delta_sweep(sc, [0.0], solvers=["a"])
        assert set(only_a[0.0]) == {"a"}
        assert only_a[0.0]["a"] == full[0.0]["a"]

    def test_repeated_solver_counted_once(self):
        sc = self._sc()
        sweep = delta_sweep(sc, [0.0, 49.0], solvers=["a", "b", "a"])
        assert list(sweep[0.0]) == ["a", "b"]
        for d in (0.0, 49.0):
            assert sweep[d]["a"] == mznc_score(sc, "a", d)

    def test_input_validation(self):
        sc = self._sc()
        with pytest.raises(ValueError):
            delta_sweep(sc, [-1.0])
        with pytest.raises(ValueError):
            delta_sweep(sc, [1.0, 0.5])
        with pytest.raises(UnknownSolver):
            delta_sweep(sc, [0.0], solvers=["zzz"])
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                delta_sweep(sc, [0.0, bad])

    def test_flip_delta_found_at_breakpoint(self):
        sc = self._sc()
        # at small delta a collects two big time shares; from 49 s on those
        # become ties and b's solo instance decides
        assert mznc_score(sc, "a", 0.0) > mznc_score(sc, "b", 0.0)
        assert find_flip_delta(sc, "b", "a") == 49.0
        assert find_flip_delta(sc, "a", "b") is None

    def test_flip_delta_zero_when_always_ahead(self):
        sc = decision_scenario({"i1": {"a": 1.0, "b": None}})
        assert find_flip_delta(sc, "a", "b") == 0.0

    def test_flip_delta_rejects_unknown_and_same_solver(self):
        sc = self._sc()
        with pytest.raises(UnknownSolver, match="zzz"):
            find_flip_delta(sc, "a", "zzz")
        with pytest.raises(SameSolver, match="'a'"):
            find_flip_delta(sc, "a", "a")


class TestRuntimeDistribution:
    def test_sorted_solved_times_only(self):
        sc = decision_scenario({
            "i1": {"a": 30.0}, "i2": {"a": None}, "i3": {"a": 10.0},
        })
        assert runtime_distribution(sc, "a") == [10.0, 30.0]

    def test_unknown_solver(self):
        sc = decision_scenario({"i1": {"a": 1.0}})
        with pytest.raises(UnknownSolver):
            runtime_distribution(sc, "zzz")
