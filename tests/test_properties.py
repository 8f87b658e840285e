"""Randomized invariants checked with hypothesis."""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvereval import (
    Aggregation,
    Instance,
    InstanceKind,
    RunOutcome,
    RunStatus,
    aggregate,
    build_scenario,
    closed_gap,
    emit_scenario,
    head_to_head,
    make_fold_plan,
    mznc_pair,
    par_score,
    parse_runs,
    quantize_ms,
    restrict,
)
from solvereval.metrics import instance_columns

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

TIMEOUTS = (10.0, 100.0)


@st.composite
def scenarios(draw, optimization: bool | None = None, best_known: bool = False):
    """A consistent scenario with millisecond-grid times.

    Consistency means a solved optimization run reports the instance's true
    optimum, so nobody else can hold a strictly smaller objective; timed-out
    incumbents are the optimum plus a non-negative offset. With best_known, an
    optimization instance may record a best known objective at or below it.
    """
    timeout_s = draw(st.sampled_from(TIMEOUTS))
    timeout_ms = round(timeout_s * 1000)
    n_instances = draw(st.integers(1, 6))
    n_solvers = draw(st.integers(2, 4))
    solvers = tuple(f"s{i}" for i in range(n_solvers))

    instances = []
    outcomes = {}
    for i in range(n_instances):
        iid = f"i{i:02d}"
        if optimization is None:
            opt = draw(st.booleans())
        else:
            opt = optimization
        kind = InstanceKind.OPTIMIZATION if opt else InstanceKind.DECISION
        optimum = draw(st.integers(1, 50)) if opt else None
        recorded = (float(draw(st.integers(1, optimum)))
                    if opt and best_known and draw(st.booleans()) else None)
        instances.append(Instance(iid, kind, recorded))
        for s in solvers:
            is_solved = draw(st.booleans())
            if is_solved:
                t_ms = draw(st.integers(0, timeout_ms - 1))
                obj = float(optimum) if opt else math.inf
                outcomes[(iid, s)] = RunOutcome(t_ms / 1000.0, RunStatus.SOLVED, obj)
            else:
                status = draw(st.sampled_from([RunStatus.TIMEOUT, RunStatus.ERROR]))
                has_sol = opt and status is RunStatus.TIMEOUT and draw(st.booleans())
                obj = float(optimum + draw(st.integers(0, 20))) if has_sol else math.inf
                outcomes[(iid, s)] = RunOutcome(timeout_s, status, obj)
    return build_scenario("prop", instances, solvers, timeout_s, outcomes)


class TestPairwiseScores:
    @given(scenarios(), st.sampled_from([0.0, 0.001, 0.5, 2.0]))
    def test_pair_sum_is_zero_or_one(self, sc, delta):
        a, b = sc.solvers[0], sc.solvers[1]
        for iid in sc.instance_ids:
            forward = mznc_pair(sc, iid, a, b, delta)
            backward = mznc_pair(sc, iid, b, a, delta)
            total = forward + backward
            assert (abs(total) <= 1e-12) or (abs(total - 1.0) <= 1e-12)

    @given(scenarios())
    def test_pair_sum_zero_only_when_both_unknown(self, sc):
        a, b = sc.solvers[0], sc.solvers[1]
        for iid in sc.instance_ids:
            total = mznc_pair(sc, iid, a, b) + mznc_pair(sc, iid, b, a)
            opt = sc.instance(iid).kind is InstanceKind.OPTIMIZATION

            def unknown(solver: str) -> bool:
                out = sc.outcome(iid, solver)
                if opt:
                    return math.isinf(out.obj)
                return out.time_s >= sc.timeout_s
            assert (abs(total) <= 1e-12) == (unknown(a) and unknown(b))


class TestParScores:
    @given(scenarios())
    def test_monotone_in_penalty(self, sc):
        for s in sc.solvers:
            scores = [par_score(sc, s, lam) for lam in (1.0, 2.0, 10.0)]
            assert scores == sorted(scores)

    @given(scenarios())
    def test_par1_bounded_by_timeout(self, sc):
        for s in sc.solvers:
            assert 0.0 <= par_score(sc, s, 1.0) <= sc.timeout_s


class TestClosedGap:
    @given(
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.floats(0.001, 50),
        st.floats(-100, 100),
    )
    def test_affine_invariance(self, m, sbs, vbs, scale, shift):
        if sbs - vbs < 0.5:
            sbs = vbs + 1.0
        base = closed_gap(m, sbs, vbs)
        moved = closed_gap(scale * m + shift, scale * sbs + shift, scale * vbs + shift)
        assert moved == pytest.approx(base, abs=1e-6, rel=1e-6)


class TestHeadToHead:
    @given(scenarios())
    def test_antisymmetric_and_complete(self, sc):
        a, b = sc.solvers[0], sc.solvers[1]
        fwd = head_to_head(sc, a, b)
        rev = head_to_head(sc, b, a)
        assert fwd.a_faster == rev.b_faster
        assert fwd.b_faster == rev.a_faster
        assert fwd.ties == rev.ties
        assert fwd.a_faster + fwd.b_faster + fwd.ties == len(sc.instances)


class TestFoldPlans:
    ids_strategy = st.lists(
        st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=8),
        min_size=2, max_size=12, unique=True,
    )

    @given(ids_strategy, st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32))
    def test_each_repeat_partitions_the_ids(self, ids, k, repeats, seed):
        if k > len(ids):
            k = len(ids)
        plan = make_fold_plan(ids, k, repeats=repeats, seed=seed)
        for folds in plan.assignment:
            seen = [iid for fold in folds for iid in fold]
            assert sorted(seen) == sorted(ids)

    @given(ids_strategy, st.integers(2, 4), st.integers(0, 2**32), st.randoms())
    def test_input_order_is_irrelevant(self, ids, k, seed, rng):
        if k > len(ids):
            k = len(ids)
        shuffled = list(ids)
        rng.shuffle(shuffled)
        assert make_fold_plan(ids, k, seed=seed) == make_fold_plan(shuffled, k, seed=seed)

    @given(scenarios(), st.integers(0, 100))
    def test_fold_sum_recovers_the_total(self, sc, seed):
        if len(sc.instances) < 2:
            return
        k = min(3, len(sc.instances))
        plan = make_fold_plan(sc.instance_ids, k, seed=seed)
        totals = {s: math.fsum(col) for s, col in instance_columns(sc, "par").items()}
        for s in sc.solvers:
            pieces = 0.0
            for test in plan.assignment[0]:
                cell = restrict(sc, test)
                pieces += par_score(cell, s, 10.0) * len(test)
            assert pieces == pytest.approx(totals[s], rel=1e-9, abs=1e-9)


class TestScenarioAlgebra:
    @given(scenarios())
    def test_restrict_to_everything_is_identity(self, sc):
        assert restrict(sc, sc.instance_ids) == sc

    @given(scenarios())
    def test_restrict_is_idempotent(self, sc):
        ids = sc.instance_ids[: max(1, len(sc.instance_ids) // 2)]
        once = restrict(sc, ids)
        assert restrict(once, ids) == once

    @given(st.floats(0, 1e6, allow_nan=False))
    def test_quantize_is_idempotent(self, t):
        assert quantize_ms(quantize_ms(t)) == quantize_ms(t)


class TestAggregation:
    @given(st.lists(st.floats(0.001, 1e6), min_size=1, max_size=20))
    def test_geometric_mean_matches_log_identity(self, values):
        got = aggregate(values, Aggregation.GEOMETRIC_MEAN)
        expected = math.exp(math.fsum(math.log(v) for v in values) / len(values))
        assert got == pytest.approx(expected, rel=1e-12)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_mean_between_min_and_max(self, values):
        got = aggregate(values, Aggregation.ARITHMETIC_MEAN)
        assert min(values) - 1e-9 <= got <= max(values) + 1e-9


class TestRoundTrip:
    @given(scenarios())
    def test_emit_then_parse_is_identity(self, sc):
        with tempfile.TemporaryDirectory() as d:
            runs = Path(d) / "prop.csv"
            emit_scenario(sc, runs)
            assert parse_runs(runs, sc.timeout_s) == sc
