"""Metric columns built from run columns, against rows built run by run.

The reference below is the per-instance row computation the column
kernels replaced: for each instance it gathers the solvers' runs from
scenario.outcomes and applies each metric's per-run formula (the rows of
test_fold_columns), with the objective pool and best-known value
recomputed from those runs. Columns
must match it bit for bit (compared through float.hex, so -0.0 and 0.0
differ), or raise the same error type. Fold totals are also checked
against the independent oracle.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fold_columns import (
    METRIC_IDS,
    TrainTest,
    bench_family_spec,
    ref_area_row,
    ref_best,
    ref_par_row,
    ref_pool,
    ref_ratio_row,
    ref_restrict,
    ref_reward_row,
    score_cell,
)
from test_pairwise_kernel import ref_per_instance

from solvereval import (
    Instance,
    InstanceKind,
    MetricParams,
    NonDecomposableMetric,
    NonPositiveObjective,
    RunOutcome,
    RunStatus,
    SbsPolicy,
    SingleSolverScenario,
    SolverEvalError,
    Trajectory,
    build_scenario,
    emit_scenario,
    generate,
    head_to_head,
    make_fold_plan,
    oracle_score,
    parse_runs,
    runtime_distribution,
)
from solvereval.metrics import instance_columns
from solvereval.scenario import InstanceValues

COLUMN_METRICS = [m for m in METRIC_IDS if m != "closed-gap"]


def ref_speedup_row(sc, inst, runs, p):
    vbs = min(r.time_s for r in runs)
    return [1.0 if r.time_s == 0.0 else vbs / r.time_s for r in runs]


def ref_mznc_row(sc, inst, runs, p):
    values = ref_per_instance(ref_restrict(sc, [inst.id]), p.delta)
    return [values[(s, inst.id)] for s in sc.solvers]


REF_ROWS = {
    "par": ref_par_row,
    "runtime": lambda sc, inst, runs, p: [r.time_s for r in runs],
    "solved-count": lambda sc, inst, runs, p: [
        1.0 if r.status is RunStatus.SOLVED else 0.0 for r in runs
    ],
    "normalized-runtime": lambda sc, inst, runs, p: [1.0 - r.time_s / sc.timeout_s for r in runs],
    "speedup": ref_speedup_row,
    "mznc": ref_mznc_row,
    "ratio": ref_ratio_row,
    "area": ref_area_row,
    "bounded-reward": ref_reward_row,
}


# The metrics that hold None at decision instances.
OPTIMIZATION_ONLY = {"ratio", "area", "bounded-reward"}


def ref_columns(sc, metric_id, params):
    """Per-instance rows from scenario.outcomes, transposed into one column per solver."""
    if metric_id == "closed-gap":
        raise NonDecomposableMetric(metric_id)
    if metric_id == "mznc" and len(sc.solvers) < 2:
        raise SingleSolverScenario(metric_id)
    rows = []
    for inst in sc.instances:
        if metric_id in OPTIMIZATION_ONLY and inst.kind is InstanceKind.DECISION:
            rows.append([None] * len(sc.solvers))
        else:
            runs = [sc.outcomes[(inst.id, s)] for s in sc.solvers]
            rows.append(REF_ROWS[metric_id](sc, inst, runs, params))
    return dict(zip(sc.solvers, map(list, zip(*rows))))


def bits(columns):
    return {s: [None if v is None else float(v).hex() for v in col] for s, col in columns.items()}


def outcome(fn, *args):
    try:
        return bits(fn(*args))
    except SolverEvalError as e:
        return type(e)


@st.composite
def edge_scenarios(draw, max_instances=12, min_solvers=1, max_solvers=5, drop=True):
    """Mixed-kind scenarios with trajectories, at the edges the kernels must keep.

    Times come from a few millisecond values (zero included), so runs tie
    often; the timeout may sit off the millisecond grid; some optimization
    instances have no solution at all, some carry a recorded best-known
    value, and objectives may be non-positive. With drop, a recorded
    trajectory may be taken out after validation.
    """
    timeout_s = draw(st.sampled_from([10.0, 100.0004, 7.0003]))
    grid = sorted({0, 1, 2, 500, draw(st.integers(0, math.floor(timeout_s * 1000) - 1))})
    lowest = draw(st.sampled_from([1, 1, 1, -2]))
    solvers = tuple(f"s{j}" for j in range(draw(st.integers(min_solvers, max_solvers))))
    instances, outcomes, trajectories = [], {}, {}
    for n in range(draw(st.integers(1, max_instances))):
        iid = f"i{n:02d}"
        opt = draw(st.booleans())
        unsolvable = opt and draw(st.integers(0, 3)) == 0
        best_known = None
        if opt and draw(st.integers(0, 2)) == 0:
            best_known = float(draw(st.integers(lowest, 30)))
        instances.append(
            Instance(iid, InstanceKind.OPTIMIZATION if opt else InstanceKind.DECISION, best_known)
        )
        for s in solvers:
            solved = not unsolvable and draw(st.booleans())
            t = draw(st.sampled_from(grid)) / 1000.0 if solved else timeout_s
            status = RunStatus.SOLVED if solved else draw(
                st.sampled_from([RunStatus.TIMEOUT, RunStatus.ERROR])
            )
            found = opt and (solved or (not unsolvable and draw(st.booleans())))
            obj = math.inf
            if found:
                objs = sorted(set(draw(st.lists(st.integers(lowest, 30), min_size=1, max_size=3))),
                              reverse=True)
                horizon = max(math.floor(t * 1000), len(objs)) if solved else math.floor(
                    timeout_s * 1000
                ) - 1
                times = sorted(set(draw(st.lists(st.integers(0, horizon), min_size=len(objs),
                                                 max_size=len(objs)))))
                objs = objs[: len(times)]
                events = tuple((ms / 1000.0, float(v)) for ms, v in zip(times, objs))
                if solved:
                    t = max(t, events[-1][0])
                obj = events[-1][1]
                trajectories[(iid, s)] = Trajectory(events)
            outcomes[(iid, s)] = RunOutcome(t, status, obj)
    sc = build_scenario("edge", instances, solvers, timeout_s, outcomes, trajectories)
    if drop and trajectories and draw(st.integers(0, 5)) == 0:
        dropped = draw(st.sampled_from(sorted(sc.trajectories)))
        kept = {k: v for k, v in sc.trajectories.items() if k != dropped}
        sc = build_scenario(sc.id, sc.instances, sc.solvers, sc.timeout_s, sc.outcomes, kept)
    return sc


PARAMS = st.builds(
    MetricParams,
    lam=st.sampled_from([1.0, 1.5, 10.0, 0.5]),
    delta=st.sampled_from([0.0, 0.001, 1.0]),
    alpha=st.sampled_from([0.25, 0.0, 0.8]),
    beta=st.sampled_from([0.75, 1.0, 0.5]),
)


class TestAgainstRows:
    @given(edge_scenarios(), PARAMS)
    def test_every_metric(self, sc, params):
        for metric_id in COLUMN_METRICS:
            got = outcome(instance_columns, sc, metric_id, params)
            assert got == outcome(ref_columns, sc, metric_id, params), metric_id

    @given(edge_scenarios())
    def test_objective_columns(self, sc):
        pools, bests = sc.objective_columns
        assert list(pools) == [ref_pool(sc, inst.id) for inst in sc.instances]
        assert list(bests) == [ref_best(sc, inst) for inst in sc.instances]
        assert sc.objective_columns is sc.objective_columns

    def test_zero_times_and_an_off_grid_timeout(self):
        tau = 100.0004
        sc = build_scenario(
            "z", [Instance("i1"), Instance("o1", InstanceKind.OPTIMIZATION)], ["a", "b"], tau,
            {("i1", "a"): RunOutcome(0.0, RunStatus.SOLVED),
             ("i1", "b"): RunOutcome(tau, RunStatus.TIMEOUT),
             ("o1", "a"): RunOutcome(0.0, RunStatus.SOLVED, 3.0),
             ("o1", "b"): RunOutcome(tau, RunStatus.ERROR)},
            {("o1", "a"): Trajectory(((0.0, 3.0),))},
        )
        # An unsolved run keeps the timeout as stored, off the millisecond grid.
        assert sc.outcomes.times == {"a": (0.0, 0.0), "b": (tau, tau)}
        for metric_id in COLUMN_METRICS:
            got = outcome(instance_columns, sc, metric_id, MetricParams())
            assert got == outcome(ref_columns, sc, metric_id, MetricParams()), metric_id
        assert instance_columns(sc, "speedup")["a"] == [1.0, 1.0]
        assert instance_columns(sc, "area")["a"] == [None, 0.0]


def oracle_or_error(sc, metric_id, solver, params):
    try:
        return oracle_score(
            sc, metric_id, solver, lam=params.lam, delta=params.delta,
            alpha=params.alpha, beta=params.beta, base_metric=params.base_metric,
        )
    except (SolverEvalError, ValueError) as e:
        return type(e)


def assert_cells_match_oracle(sc, params, plan):
    """Each test fold's scores against the oracle on a copy restricted to the fold.

    Closed gap picks its SBS on the test split, as the oracle does on the
    copy. A cell the oracle cannot score (no optimization instance, a
    degenerate gap) must fail here too; the oracle does not check for
    non-positive objectives, so those cells fail here alone.
    """
    for metric_id in METRIC_IDS:
        for test in plan.assignment[0]:
            cell = ref_restrict(sc, test)
            try:
                table, _ = score_cell(
                    sc, metric_id, params, SbsPolicy.TEST_SPLIT, TrainTest((), test)
                )
            except NonPositiveObjective:
                continue
            except SolverEvalError:
                assert not isinstance(oracle_or_error(cell, metric_id, sc.solvers[0], params), float)
                continue
            for s in sc.solvers:
                want = oracle_or_error(cell, metric_id, s, params)
                assert table.per_solver[s] == pytest.approx(want, rel=1e-9, abs=1e-9), (metric_id, s)


class TestFoldTotalsAgainstOracle:
    @settings(max_examples=25)
    @given(edge_scenarios(max_instances=20, min_solvers=2, drop=False), st.data())
    def test_edge_scenarios(self, sc, data):
        if len(sc.instance_ids) < 2:
            return
        params = data.draw(st.builds(
            MetricParams,
            lam=st.sampled_from([1.0, 10.0]),
            delta=st.sampled_from([0.0, 1.0]),
            base_metric=st.sampled_from(["par", "runtime", "area"]),
        ))
        k = data.draw(st.integers(2, min(4, len(sc.instance_ids))))
        assert_cells_match_oracle(sc, params, make_fold_plan(sc.instance_ids, k))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("base_metric", ["par", "area"])
    def test_bench_family_at_the_oracle_limit(self, seed, base_metric):
        sc = generate(bench_family_spec(seed, 50, 6, 0.5))
        plan = make_fold_plan(sc.instance_ids, 5, seed=seed)
        assert_cells_match_oracle(sc, MetricParams(base_metric=base_metric), plan)


def area_scenario(runs):
    """One optimization instance o1 and a solver per entry of runs: (status, time, obj, events)."""
    return build_scenario(
        "area", [Instance("o1", InstanceKind.OPTIMIZATION)], list(runs), 100.0,
        {("o1", s): RunOutcome(t, status, obj) for s, (status, t, obj, _) in runs.items()},
        {("o1", s): Trajectory(events) for s, (*_, events) in runs.items() if events},
    )


SOLVED, TIMEOUT = RunStatus.SOLVED, RunStatus.TIMEOUT
# Each case holds trajectories of one, two and three events, with the pool's bounds set by
# the final objectives of the runs.
AREA_CASES = {
    "one event each": {
        "a": (SOLVED, 10.0, 5.0, ((2.0, 5.0),)),
        "b": (TIMEOUT, 100.0, 8.0, ((1.5, 8.0),)),
        "c": (TIMEOUT, 100.0, math.inf, ()),
    },
    "an event at t = 0": {
        "a": (TIMEOUT, 100.0, 5.0, ((0.0, 5.0),)),
        "b": (SOLVED, 4.0, 8.0, ((0.0, 11.0), (1.25, 8.0))),
    },
    "runs that end at their last event": {
        "a": (SOLVED, 7.25, 5.0, ((0.0, 12.0), (2.5, 7.0), (7.25, 5.0))),
        "b": (SOLVED, 3.0, 9.0, ((3.0, 9.0),)),
        "c": (TIMEOUT, 100.0, 6.0, ((1.0, 10.0), (4.0, 6.0))),
    },
    "worst == best": {
        "a": (TIMEOUT, 100.0, 5.0, ((3.0, 5.0),)),
        "b": (SOLVED, 2.0, 5.0, ((1.0, 6.0), (2.0, 5.0))),
        "c": (TIMEOUT, 100.0, 5.0, ((0.0, 9.0), (0.5, 7.0), (60.0, 5.0))),
    },
}


class TestAreaShortTrajectories:
    """A one-event area is t0 + piece, the same float as the math.fsum of the two pieces;
    each case is checked bit for bit against the exact rows and closely against the oracle."""

    @pytest.mark.parametrize("case", list(AREA_CASES))
    def test_against_oracle_and_rows(self, case):
        sc = area_scenario(AREA_CASES[case])
        column = instance_columns(sc, "area")
        assert bits(column) == bits(ref_columns(sc, "area", MetricParams()))
        for s in sc.solvers:
            assert column[s][0] == pytest.approx(oracle_score(sc, "area", s), rel=1e-12)

    def test_values(self):
        got = {case: {s: col[0] for s, col in instance_columns(area_scenario(runs), "area").items()}
               for case, runs in AREA_CASES.items()}
        # Quality is 1 before the first event and (obj - best) / (worst - best) after it,
        # over a timeout of 100; with worst == best it is 0 at the best objective, else 1.
        assert got == {
            "one event each": {"a": 0.02, "b": (1.5 + 98.5) / 100, "c": 1.0},
            "an event at t = 0": {"a": 0.0, "b": (1.25 + 2.75) / 100},
            "runs that end at their last event": {
                "a": math.fsum([0.0, 2.5, 4.75 * 0.5, 0.0]) / 100, "b": 0.03,
                "c": math.fsum([1.0, 3.0, 96.0 * 0.25]) / 100},
            "worst == best": {"a": 0.03, "b": 2.0 / 100, "c": math.fsum([0.0, 0.5, 59.5]) / 100},
        }


class TestInstanceValues:
    def test_a_view_of_the_columns(self):
        columns = {"a": [1.0, None, 3.0], "b": [4.0, None, 6.0]}
        ids = ("i1", "i2", "i3")
        view = InstanceValues(columns, ids, [0, 2])
        assert list(view) == [("a", "i1"), ("a", "i3"), ("b", "i1"), ("b", "i3")]
        assert view == {("a", "i1"): 1.0, ("a", "i3"): 3.0, ("b", "i1"): 4.0, ("b", "i3"): 6.0}
        assert len(view) == 4 and view[("b", "i3")] == 6.0
        assert ("a", "i2") not in view and ("c", "i1") not in view
        with pytest.raises(KeyError):
            view[("a", "i2")]
        columns["a"][0] = 9.0  # nothing was copied
        assert view[("a", "i1")] == 9.0


class TestColumnsBuiltOnDemand:
    def test_time_only_commands_build_no_objective_columns(self, tmp_path):
        runs = tmp_path / "runs.csv"
        emit_scenario(generate(bench_family_spec(3, 20, 4, 0.5)), runs)
        sc = parse_runs(runs, 100.0)
        head_to_head(sc, "s00", "s01")
        runtime_distribution(sc, "s00")
        instance_columns(sc, "par")
        assert "objective_columns" not in vars(sc)
        instance_columns(sc, "ratio")
        assert "objective_columns" in vars(sc)
