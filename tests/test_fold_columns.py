"""Fold cells read from per-solver columns, against the per-cell copies they replaced.

The reference functions below are the evaluation loop as it was before
cells became index subsets: every cell scores a copy of the scenario
restricted to the cell (ref_restrict, the old restrict), and the
closed-gap baselines recompute their base values on fresh copies of the
selection and evaluation splits. Results are compared with ==, including
key order where it reaches a report, since the columns promise
bit-identical results; errors are compared by type.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import pytest
from helpers import decision_scenario
from hypothesis import given
from hypothesis import strategies as st
from test_pairwise_kernel import ref_per_instance
from test_properties import scenarios

from solvereval import (
    Aggregation,
    METRICS,
    BadAlphaBeta,
    BadK,
    BadLambda,
    BaselineReport,
    DegenerateGap,
    EmptyInput,
    EmptyRestriction,
    EvaluationResult,
    FoldCell,
    FoldPlan,
    InstanceKind,
    MetricParams,
    MissingFoldContext,
    MissingTrajectory,
    NonDecomposableMetric,
    NonPositiveForGeomean,
    NonPositiveObjective,
    RunStatus,
    SbsPolicy,
    ScoreTable,
    SingleSolverScenario,
    SolverEvalError,
    SolverSpec,
    Trajectory,
    UnknownInstance,
    aggregate,
    closed_gap,
    evaluate,
    generate,
    make_fold_plan,
    metric_info,
    score_scenario,
    thorough_vs_fast_spec,
    uniform,
)
from solvereval.metrics import read_split
from solvereval.synthkit import ArchetypeSpec

METRIC_IDS = (
    "par", "runtime", "solved-count", "normalized-runtime", "speedup", "mznc",
    "closed-gap", "ratio", "area", "bounded-reward",
)


class TrainTest(NamedTuple):
    """One cross-validation cell: the instance ids of its training folds and of its test fold."""

    train: tuple[str, ...]
    test: tuple[str, ...]


def score_cell(sc, metric_id, params, policy, cell):
    """score_scenario on one cell by evaluate's route: the test split and, for the closed
    gap, the policy's selection splits, read off columns over the whole scenario."""
    params = params or MetricParams()
    columns = metric_info(metric_id).columns(sc, params)
    test, train = (read_split(columns, sorted(map(sc.position_map.__getitem__, ids)))
                   for ids in (cell.test, cell.train))
    selection = {SbsPolicy.TRAIN_SPLIT: [train], SbsPolicy.TEST_SPLIT: [test]}.get(
        policy, [train, test])
    return score_scenario(sc, metric_id, params, policy, columns=columns, split=test,
                          selection=selection)


def ref_restrict(sc, instance_ids):
    wanted = set(instance_ids)
    if not wanted:
        raise EmptyRestriction("empty")
    missing = sorted(wanted - set(sc.instance_ids))
    if missing:
        raise UnknownInstance(", ".join(missing))
    kept = tuple(inst for inst in sc.instances if inst.id in wanted)
    return sc.replace(
        instances=kept,
        outcomes={k: v for k, v in sc.outcomes.items() if k[0] in wanted},
        trajectories={k: v for k, v in sc.trajectories.items() if k[0] in wanted},
    )


# Each metric's values on one instance, from the instance's runs (a row,
# one value per solver), written from the definitions; test_column_kernels
# checks the columns against the same rows.
def ref_pool(sc, iid):
    finite = [sc.outcomes[(iid, s)].obj for s in sc.solvers]
    finite = [v for v in finite if math.isfinite(v)]
    return (min(finite), max(finite)) if finite else None


def ref_best(sc, inst):
    if inst.best_known_obj is not None:
        return inst.best_known_obj
    pool = ref_pool(sc, inst.id)
    return pool[0] if pool else None


def ref_par_row(sc, inst, runs, p):
    if not p.lam >= 1.0:
        raise BadLambda(p.lam)
    return [r.time_s if r.time_s < sc.timeout_s else p.lam * sc.timeout_s for r in runs]


def ref_ratio_row(sc, inst, runs, p):
    best = ref_best(sc, inst)
    if best is None:
        return [0.0] * len(runs)
    row = []
    for r in runs:
        if math.isinf(r.obj):
            row.append(0.0)
        elif best <= 0 or r.obj <= 0:
            raise NonPositiveObjective(inst.id)
        else:
            row.append(min(1.0, best / r.obj))
    return row


def ref_norm_obj(v, best, worst):
    if worst == best:
        return 0.0 if v <= best else 1.0
    return min(1.0, max(0.0, (v - best) / (worst - best)))


def ref_area_row(sc, inst, runs, p):
    best, pool = ref_best(sc, inst), ref_pool(sc, inst.id)
    if best is None or pool is None:
        return [0.0] * len(runs)
    lo, hi = min(best, pool[0]), pool[1]
    row = []
    for s, r in zip(sc.solvers, runs):
        traj = sc.trajectories.get((inst.id, s))
        if traj is None:
            if not math.isinf(r.obj):
                raise MissingTrajectory((inst.id, s))
            traj = Trajectory()
        if not traj.events:
            row.append(1.0)
            continue
        end = r.time_s  # a solved run proved its last incumbent optimal when it ended
        pieces = [traj.events[0][0] * 1.0]
        for idx, (t, v) in enumerate(traj.events):
            nxt = traj.events[idx + 1][0] if idx + 1 < len(traj.events) else end
            pieces.append((nxt - t) * ref_norm_obj(v, lo, hi))
        row.append(math.fsum(pieces) / sc.timeout_s)
    return row


def ref_reward_row(sc, inst, runs, p):
    pool = ref_pool(sc, inst.id)
    if pool is None:
        return [0.0] * len(runs)
    if not 0.0 <= p.alpha <= p.beta <= 1.0:
        raise BadAlphaBeta((p.alpha, p.beta))
    best, worst = pool
    row = []
    for r in runs:
        if math.isinf(r.obj):
            row.append(0.0)
        elif r.status is RunStatus.SOLVED:
            row.append(1.0)
        elif best == worst:
            row.append(p.beta)
        else:
            frac = (worst - r.obj) / (worst - best)
            row.append(p.alpha + (p.beta - p.alpha) * min(1.0, max(0.0, frac)))
    return row


def ref_opt_values(sc, row, params):
    """row over each optimization instance's runs, as (solver, instance) -> value, keyed
    solver by solver like every other metric's."""
    rows = {iid: row(sc, sc.instance(iid), [sc.outcome(iid, s) for s in sc.solvers], params)
            for iid in sc.optimization_ids}
    return {(s, iid): values[k] for k, s in enumerate(sc.solvers) for iid, values in rows.items()}


def ref_base_values(sc, base_metric, lam):
    if base_metric == "par":
        params = MetricParams(lam=lam)
        return {
            (s, i): ref_par_row(sc, None, [sc.outcome(i, s)], params)[0]
            for s in sc.solvers for i in sc.instance_ids
        }
    if base_metric == "runtime":
        return {(s, i): sc.outcomes[(i, s)].time_s for s in sc.solvers for i in sc.instance_ids}
    if base_metric == "area":
        return ref_opt_values(sc, ref_area_row, None)
    raise NonDecomposableMetric(base_metric)


def ref_totals(sc, base_metric, lam):
    values = ref_base_values(sc, base_metric, lam)
    return {s: math.fsum(v for (sid, _), v in values.items() if sid == s) for s in sc.solvers}


def ref_baseline_report(sc, base_metric, lam, policy, ctx):
    if policy is SbsPolicy.FULL_DATASET:
        selection = sc
    elif ctx is None:
        raise MissingFoldContext(policy.value)
    else:
        selection = ref_restrict(sc, ctx.train if policy is SbsPolicy.TRAIN_SPLIT else ctx.test)
    totals = ref_totals(selection, base_metric, lam)
    sbs = min(sc.solvers, key=lambda s: (totals[s], s))
    evaluation = ref_restrict(sc, ctx.test) if ctx is not None else sc
    values = ref_base_values(evaluation, base_metric, lam)
    if not values or not ref_base_values(selection, base_metric, lam):
        raise EmptyInput(f"closed-gap on {base_metric}")  # no base value to pick or measure on
    per_instance = {}
    for i in evaluation.instance_ids:
        candidates = [values[(s, i)] for s in evaluation.solvers if (s, i) in values]
        if candidates:
            per_instance[i] = min(candidates)
    m_vbs = math.fsum(per_instance.values())
    m_sbs = ref_totals(evaluation, base_metric, lam)[sbs]
    gap_ratio = 0.0 if m_sbs == 0.0 else (m_sbs - m_vbs) / m_sbs
    warnings = ()
    if gap_ratio < 0.01:
        warnings = (
            f"low resolution: the single best solver is within "
            f"{gap_ratio:.4%} of the virtual best on the evaluation set; "
            "closed-gap values will be noisy",
        )
    return BaselineReport(base_metric, sbs, policy, per_instance, m_vbs, m_sbs, gap_ratio, warnings)


def ref_instance_values(ev, metric_id, params):
    tau = ev.timeout_s
    pairs = [(s, i) for s in ev.solvers for i in ev.instance_ids]
    if metric_id == "par":
        return {(s, i): ref_par_row(ev, None, [ev.outcome(i, s)], params)[0] for s, i in pairs}
    if metric_id == "runtime":
        return {(s, i): ev.outcomes[(i, s)].time_s for s, i in pairs}
    if metric_id == "solved-count":
        return {(s, i): float(ev.outcome(i, s).status is RunStatus.SOLVED) for s, i in pairs}
    if metric_id == "normalized-runtime":
        return {(s, i): 1.0 - ev.outcomes[(i, s)].time_s / tau for s, i in pairs}
    if metric_id == "speedup":
        runs = ev.outcomes
        vbs = {i: min(runs[(i, s)].time_s for s in ev.solvers) for i in ev.instance_ids}
        return {
            (s, i): 1.0 if runs[(i, s)].time_s == 0.0 else vbs[i] / runs[(i, s)].time_s
            for s, i in pairs
        }
    if metric_id == "mznc":
        return ref_per_instance(ev, params.delta)
    if not ev.optimization_ids:
        raise EmptyInput(metric_id)
    rows = {"ratio": ref_ratio_row, "area": ref_area_row, "bounded-reward": ref_reward_row}
    return ref_opt_values(ev, rows[metric_id], params)


def ref_score(sc, metric_id, params, policy, ctx):
    ev = ref_restrict(sc, ctx.test) if ctx is not None else sc
    direction = metric_info(metric_id).direction
    if metric_id == "closed-gap":
        report = ref_baseline_report(sc, params.base_metric, params.lam, policy, ctx)
        totals = ref_totals(ev, params.base_metric, params.lam)
        per_solver = {s: closed_gap(totals[s], report.m_sbs, report.m_vbs) for s in sc.solvers}
        table_params = {"base_metric": params.base_metric, "sbs_policy": policy.value}
        if params.base_metric == "par":
            table_params["lambda"] = params.lam
        return ScoreTable(metric_id, table_params, per_solver, direction), report
    if metric_id == "mznc" and len(ev.solvers) < 2:
        raise SingleSolverScenario(metric_id)
    values = ref_instance_values(ev, metric_id, params)
    how = Aggregation.SUM if metric_id in ("solved-count", "mznc") else Aggregation.ARITHMETIC_MEAN
    per_solver = {
        s: aggregate([v for (sid, _), v in values.items() if sid == s], how) for s in ev.solvers
    }
    table_params = {
        "par": {"lambda": params.lam},
        "mznc": {"delta": params.delta},
        "bounded-reward": {"alpha": params.alpha, "beta": params.beta},
    }.get(metric_id, {})
    return ScoreTable(metric_id, table_params, per_solver, direction, values, how.value), None


def ref_evaluate(sc, metric_id, params, plan, sbs_policy, aggregation):
    merge = aggregation or Aggregation.ARITHMETIC_MEAN
    if plan is None:
        policy = sbs_policy or SbsPolicy.FULL_DATASET
        table, report = ref_score(sc, metric_id, params, policy, None)
        cell = FoldCell(0, 0, sc.instance_ids, table, report)
        return EvaluationResult((cell,), table, None, policy, merge)
    if merge is Aggregation.GEOMETRIC_MEAN and metric_id == "closed-gap":
        # Each cell scores its single best solver at 0: rejected before any scoring.
        raise NonPositiveForGeomean(metric_id)
    policy = sbs_policy or SbsPolicy.TRAIN_SPLIT
    cells = []
    for r, folds in enumerate(plan.assignment):
        for f, test in enumerate(folds):
            train = tuple(i for g, fold in enumerate(folds) if g != f for i in fold)
            table, report = ref_score(sc, metric_id, params, policy, TrainTest(train, test))
            cells.append(FoldCell(r, f, test, table, report))
    merged = ScoreTable(
        metric_id,
        cells[0].table.params,
        {s: aggregate([c.table.per_solver[s] for c in cells], merge) for s in sc.solvers},
        cells[0].table.direction,
    )
    return EvaluationResult(tuple(cells), merged, plan, policy, merge)


def outcome(fn, *args):
    """fn's result, or the type of the package error it raised."""
    try:
        return fn(*args)
    except SolverEvalError as e:
        return type(e)


def key_orders(result):
    """Every key order a cell carries: per-solver scores, per-instance values, VBS values."""
    return [
        (
            list(c.table.per_solver),
            list(c.table.per_instance or ()),
            list(c.baseline.vbs_per_instance) if c.baseline is not None else None,
        )
        for c in result.cells
    ]


def assert_same_evaluation(sc, metric_id, params, plan, policy, aggregation):
    args = (sc, metric_id, params, plan, policy, aggregation)
    got, want = outcome(evaluate, *args), outcome(ref_evaluate, *args)
    assert got == want
    if isinstance(want, EvaluationResult):
        assert key_orders(got) == key_orders(want)
        assert list(got.merged.per_solver) == list(want.merged.per_solver)


def assert_same_cells(sc, metric_id, params, plan, policy):
    """score_cell on each cell gives the reference result, or raises the same error."""
    for folds in plan.assignment:
        for f, test in enumerate(folds):
            train = tuple(i for g, fold in enumerate(folds) if g != f for i in fold)
            args = (sc, metric_id, params, policy, TrainTest(train, test))
            assert outcome(score_cell, *args) == outcome(ref_score, *args), (metric_id, f)


def bench_family_spec(seed, n_instances, n_solvers, opt_fraction):
    return ArchetypeSpec(
        seed=seed, n_instances=n_instances, timeout_s=100.0, opt_fraction=opt_fraction,
        solvers=tuple(
            SolverSpec(0.5 + 0.08 * (j % 5), uniform(1 + j % 10, 40 + 5 * (j % 10)),
                       uniform(0, 5), name=f"s{j:02d}")
            for j in range(n_solvers)
        ),
    )


@st.composite
def generated(draw):
    """A generate() scenario of the bench solver family, often with both instance kinds."""
    spec = bench_family_spec(
        draw(st.integers(0, 10_000)),
        draw(st.integers(4, 24)),
        draw(st.integers(2, 5)),
        draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])),
    )
    return generate(spec)


PARAMS = st.builds(
    MetricParams,
    lam=st.sampled_from([1.0, 10.0]),
    delta=st.sampled_from([0.0, 1.0]),
    base_metric=st.sampled_from(["par", "runtime", "area"]),
)
POLICIES = st.sampled_from([None, *SbsPolicy])
AGGREGATIONS = st.sampled_from([None, *Aggregation])


@st.composite
def plans(draw, sc):
    n = len(sc.instance_ids)
    if n < 2 or draw(st.integers(0, 4)) == 0:
        return None
    return make_fold_plan(
        sc.instance_ids, draw(st.integers(2, min(n, 5))),
        repeats=draw(st.integers(1, 3)), seed=draw(st.integers(0, 99)),
    )


class TestAgainstPerCellCopies:
    @given(generated(), st.data())
    def test_generated_mixed_kinds(self, sc, data):
        plan = data.draw(plans(sc))
        for metric_id in METRIC_IDS:
            assert_same_evaluation(
                sc, metric_id, data.draw(PARAMS), plan, data.draw(POLICIES),
                data.draw(AGGREGATIONS),
            )

    @given(scenarios(), st.data())
    def test_property_scenarios(self, sc, data):
        # No trajectories here, so area is left to the generated scenarios.
        plan = data.draw(plans(sc))
        params = data.draw(PARAMS.filter(lambda p: p.base_metric != "area"))
        for metric_id in METRIC_IDS:
            if metric_id != "area":
                assert_same_evaluation(
                    sc, metric_id, params, plan, data.draw(POLICIES), data.draw(AGGREGATIONS)
                )

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("policy", list(SbsPolicy))
    def test_bench_family(self, seed, policy):
        sc = generate(bench_family_spec(seed, 40, 6, 0.5))
        plan = make_fold_plan(sc.instance_ids, 4, repeats=2, seed=seed)
        cases = [(m, MetricParams()) for m in METRIC_IDS] + [
            ("closed-gap", MetricParams(base_metric=b, lam=1.5)) for b in ("runtime", "area")
        ]
        for metric_id, params in cases:
            assert_same_cells(sc, metric_id, params, plan, policy)
            for aggregation in Aggregation:
                assert_same_evaluation(sc, metric_id, params, plan, policy, aggregation)


class TestErrorParity:
    @pytest.mark.parametrize("metric_id", ["ratio", "area", "bounded-reward"])
    def test_fold_without_optimization_instances(self, metric_id):
        # 2 optimization instances out of 30: most of the 10 folds have none.
        sc = generate(replace(thorough_vs_fast_spec(seed=3, n_instances=30), opt_fraction=0.1))
        assert len(sc.optimization_ids) == 2
        plan = make_fold_plan(sc.instance_ids, 10)
        assert_same_cells(sc, metric_id, MetricParams(), plan, SbsPolicy.TRAIN_SPLIT)
        assert outcome(evaluate, sc, metric_id, MetricParams(), plan) is EmptyInput
        assert outcome(ref_evaluate, sc, metric_id, MetricParams(), plan, None, None) is EmptyInput
        scored = [
            f for f, test in enumerate(plan.assignment[0])
            if any(sc.instance(i).kind is InstanceKind.OPTIMIZATION for i in test)
        ]
        assert 0 < len(scored) < 10

    @pytest.mark.parametrize("policy", list(SbsPolicy))
    def test_degenerate_closed_gap_cell(self, policy):
        # Both solvers take the same time on every instance of the second fold.
        sc = decision_scenario({
            "i1": {"a": 1.0, "b": 5.0},
            "i2": {"a": 6.0, "b": 2.0},
            "i3": {"a": 5.0, "b": 5.0},
            "i4": {"a": 7.0, "b": 7.0},
        })
        plan = FoldPlan(seed=0, assignment=((("i1", "i2"), ("i3", "i4")),))
        first = TrainTest(train=("i3", "i4"), test=("i1", "i2"))
        second = TrainTest(train=("i1", "i2"), test=("i3", "i4"))
        assert isinstance(outcome(score_cell, sc, "closed-gap", None, policy, first), tuple)
        assert outcome(score_cell, sc, "closed-gap", None, policy, second) is DegenerateGap
        assert_same_cells(sc, "closed-gap", MetricParams(), plan, policy)
        assert outcome(evaluate, sc, "closed-gap", None, plan, policy) is DegenerateGap


    @pytest.mark.parametrize("policy", list(SbsPolicy))
    def test_closed_gap_cell_without_base_values(self, policy):
        # Area has values on optimization instances only. The first cell's test fold has
        # none; the second's training fold has none, an empty selection under train_split.
        sc = generate(replace(thorough_vs_fast_spec(seed=3, n_instances=30), opt_fraction=0.1))
        opt = set(sc.optimization_ids)
        decision = tuple(i for i in sc.instance_ids if i not in opt)
        params = MetricParams(base_metric="area")
        cells = [TrainTest(train=tuple(opt), test=decision), TrainTest(decision, tuple(opt))]
        for cell in cells:
            got = outcome(score_cell, sc, "closed-gap", params, policy, cell)
            assert got == outcome(ref_score, sc, "closed-gap", params, policy, cell)
        assert outcome(score_cell, sc, "closed-gap", params, policy, cells[0]) is EmptyInput
        second = outcome(score_cell, sc, "closed-gap", params, policy, cells[1])
        assert (second is EmptyInput) == (policy is SbsPolicy.TRAIN_SPLIT)


class TestFoldPlanPartition:
    """evaluate scores a fold plan only when each repeat puts every instance in exactly one fold."""

    @staticmethod
    def scenario():
        return generate(thorough_vs_fast_spec(seed=3, n_instances=6))

    @staticmethod
    def plan(*repeats):
        return FoldPlan(seed=0, assignment=repeats)

    GOOD = (("i000", "i001", "i002"), ("i003", "i004", "i005"))

    def test_a_later_repeat_that_drops_and_repeats_instances(self):
        plan = self.plan(self.GOOD, (("i000", "i001", "i002"), ("i000", "i003", "i004")))
        with pytest.raises(ValueError, match=r"repeat 1 puts instance 'i000' in 2 folds"):
            evaluate(self.scenario(), "par", None, plan)

    @pytest.mark.parametrize("policy", list(SbsPolicy))
    def test_overlapping_folds(self, policy):
        plan = self.plan((("i000", "i001", "i002", "i003"), ("i003", "i004", "i005")))
        with pytest.raises(ValueError, match=r"repeat 0 puts instance 'i003' in 2 folds"):
            evaluate(self.scenario(), "closed-gap", None, plan, policy)

    def test_a_later_repeat_that_misses_an_instance(self):
        plan = self.plan(self.GOOD, (("i000", "i001"), ("i003", "i004", "i005")))
        with pytest.raises(ValueError, match=r"repeat 1 puts instance 'i002' in 0 folds"):
            evaluate(self.scenario(), "par", None, plan)

    def test_a_later_repeat_that_names_an_unknown_instance(self):
        plan = self.plan(self.GOOD, (("i000", "i001", "i002"), ("i003", "i004", "i005", "x")))
        with pytest.raises(ValueError, match=r"repeat 1 lists instance 'x', which the scenario"):
            evaluate(self.scenario(), "par", None, plan)

    @pytest.mark.parametrize("first", [
        (("i000", "i001", "i002"), ("i003", "i004")),
        (("i000", "i001", "i002"), ("i003", "i004", "i005", "x")),
    ])
    def test_first_repeat_off_the_instance_set_keeps_its_message(self, first):
        with pytest.raises(ValueError, match="^fold plan does not cover exactly the scenario's"):
            evaluate(self.scenario(), "par", None, self.plan(first, self.GOOD))

    def test_an_empty_fold(self):
        plan = self.plan(self.GOOD, (self.GOOD[0] + self.GOOD[1], ()))
        with pytest.raises(EmptyRestriction, match=r"repeat 1 has an empty fold, fold 1"):
            evaluate(self.scenario(), "closed-gap", None, plan)

    def test_rejected_before_any_scoring(self):
        # A bad penalty fails the column build, which a plan check must come before.
        plan = self.plan(self.GOOD, (("i000", "i001", "i002"), ("i000", "i003", "i004")))
        with pytest.raises(ValueError, match="repeat 1"):
            evaluate(self.scenario(), "par", MetricParams(lam=0.5), plan)
        with pytest.raises(BadLambda):
            evaluate(self.scenario(), "par", MetricParams(lam=0.5), self.plan(self.GOOD))

    @pytest.mark.parametrize("metric_id", ["par", "closed-gap"])
    @pytest.mark.parametrize("assignment, error, message", [
        ((), ValueError, "^fold plan has no repeat"),
        (((GOOD[0] + GOOD[1],),), BadK, r"repeat 0 has 1 fold"),
        ((GOOD, (GOOD[0] + GOOD[1],)), BadK, r"repeat 1 has 1 fold"),
        ((GOOD, (GOOD[0], GOOD[1][:1], GOOD[1][1:])), ValueError,
         r"repeat 1 has 3 folds, repeat 0 has 2"),
    ])
    def test_bad_shape_rejected_before_any_column(
        self, monkeypatch, metric_id, assignment, error, message
    ):
        sc, info, built = self.scenario(), METRICS[metric_id], []

        def spy(scenario, params):
            built.append(scenario.id)
            return info.columns(scenario, params)

        monkeypatch.setitem(METRICS, metric_id, info.replace(columns=spy))
        with pytest.raises(error, match=message):
            evaluate(sc, metric_id, None, FoldPlan(0, assignment))
        assert built == []  # no column was built
        evaluate(sc, metric_id, None, self.plan(self.GOOD))
        assert built == [sc.id]  # the spy sees the columns a scoring run builds

    def test_a_partition_in_any_fold_order_scores(self):
        shuffled = (("i005", "i000", "i003"), ("i004", "i002", "i001"))
        result = evaluate(self.scenario(), "par", None, self.plan(self.GOOD, shuffled))
        assert len(result.cells) == 4


def left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


class TestSbsTies:
    """a and b tie exactly on a selection set but not as left-to-right float sums.

    Totals are math.fsum, so a tie is a tie and goes to the lexicographically
    first solver. Summing left to right, or taking the training total as the
    whole total minus the test total, would make b look better here. c times
    out on most instances, so it is never the SBS, and it keeps each fold's
    virtual best below the SBS.
    """

    A = (0.1, 0.2, 0.3)
    B = (0.3, 0.2, 0.1)

    def test_premise(self):
        assert math.fsum(self.A) == math.fsum(self.B)
        assert left_to_right(self.A) > left_to_right(self.B)
        assert left_to_right(self.A * 2) > left_to_right(self.B * 2)

    @pytest.mark.parametrize("policy", list(SbsPolicy))
    def test_permuted_folds_pick_the_first_solver(self, policy):
        # Each fold holds the same values for a and b, in a different order.
        times = {
            f"i{k}": {"a": a, "b": b, "c": 0.001 if k % 3 == 0 else None}
            for k, (a, b) in enumerate(zip(self.A * 2, self.B * 2))
        }
        sc = decision_scenario(times)
        plan = FoldPlan(0, ((("i0", "i1", "i2"), ("i3", "i4", "i5")),))
        assert_same_evaluation(sc, "closed-gap", MetricParams(), plan, policy, None)
        result = evaluate(sc, "closed-gap", MetricParams(), plan, policy)
        assert [c.baseline.sbs_id for c in result.cells] == ["a", "a"]

    def test_train_tie_beside_differing_test_folds(self):
        # Cell 0 trains on i2-i4, where a and b tie; they differ on its test fold i0-i1.
        test_a, test_b = (0.1, 0.1), (0.1, 0.2)
        assert (math.fsum(test_a + self.A) - math.fsum(test_a)
                > math.fsum(test_b + self.B) - math.fsum(test_b))
        times = {
            f"i{k}": {"a": a, "b": b, "c": 0.001 if k in (0, 2) else None}
            for k, (a, b) in enumerate(zip(test_a + self.A, test_b + self.B))
        }
        sc = decision_scenario(times)
        plan = FoldPlan(0, ((("i0", "i1"), ("i2", "i3", "i4")),))
        assert_same_evaluation(sc, "closed-gap", MetricParams(), plan, SbsPolicy.TRAIN_SPLIT, None)
        result = evaluate(sc, "closed-gap", MetricParams(), plan, SbsPolicy.TRAIN_SPLIT)
        assert result.cells[0].baseline.sbs_id == "a"
