"""The pairwise kernel against per-pair reference loops.

The reference functions below score one pair at a time through the
scenario's lookups: one full rescan per pair and per threshold, and a
flip scan over every pairwise time difference of the two solvers, where
the kernel walks its own tie differences only. Every comparison is exact
(==), since the kernel promises bit-identical results.
"""

from __future__ import annotations

import math

import pytest
from helpers import decision_scenario
from hypothesis import given
from hypothesis import strategies as st
from test_properties import scenarios

from solvereval import (
    InstanceKind,
    MetricParams,
    SolverSpec,
    build_scenario,
    delta_sweep,
    find_flip_delta,
    generate,
    mznc_pair,
    mznc_score,
    oracle_score,
    score_scenario,
    thorough_vs_fast_spec,
    uniform,
)
from solvereval.metrics import _EXACT_UNIT, _exact, instance_columns, mznc_scores
from solvereval.synthkit import ArchetypeSpec


def time_to_ms(t):  # seconds to integer milliseconds, the reference for the ms grid
    return round(t * 1000.0)


def ref_is_unknown(sc, i, s):
    if sc.instance(i).kind is InstanceKind.DECISION:
        return sc.outcomes[(i, s)].time_s >= sc.timeout_s
    return math.isinf(sc.outcomes[(i, s)].obj)


def ref_is_better(sc, i, s, other):
    t, t2 = sc.outcomes[(i, s)].time_s, sc.outcomes[(i, other)].time_s
    if t < t2 and t2 == sc.timeout_s:
        return True
    return sc.outcomes[(i, s)].obj < sc.outcomes[(i, other)].obj


def ref_pair(sc, i, s, other, delta):
    if ref_is_unknown(sc, i, s) or ref_is_better(sc, i, other, s):
        return 0.0
    if ref_is_better(sc, i, s, other):
        return 1.0
    t, t2 = sc.outcomes[(i, s)].time_s, sc.outcomes[(i, other)].time_s
    diff_ms = abs(time_to_ms(t) - time_to_ms(t2))
    if diff_ms <= round(delta * 1000.0) and sc.outcomes[(i, s)].obj == sc.outcomes[(i, other)].obj:
        return 0.5
    if t + t2 == 0.0:
        return 0.5
    return t2 / (t + t2)


def ref_mznc_score(sc, s, delta):
    """The fsum of the solver's per-instance scores, each the fsum over its opponents."""
    return math.fsum(
        math.fsum(ref_pair(sc, i, s, other, delta) for other in sc.solvers if other != s)
        for i in sc.instance_ids
    )


def ref_per_instance(sc, delta):
    return {
        (s, i): math.fsum(ref_pair(sc, i, s, other, delta) for other in sc.solvers if other != s)
        for s in sc.solvers
        for i in sc.instance_ids
    }


def ref_find_flip(sc, a, b):
    diffs_ms = {0}
    for i in sc.instance_ids:
        for s in (a, b):
            ts = time_to_ms(sc.outcomes[(i, s)].time_s)
            for other in sc.solvers:
                if other != s:
                    diffs_ms.add(abs(ts - time_to_ms(sc.outcomes[(i, other)].time_s)))
    flip = None
    for d in reversed([d / 1000.0 for d in sorted(diffs_ms)]):
        if ref_mznc_score(sc, a, d) > ref_mznc_score(sc, b, d):
            flip = d
        else:
            break
    return flip


def probe_deltas(sc):
    """Thresholds at every pairwise time difference, 1 ms either side, and off-grid."""
    diffs = {
        abs(time_to_ms(sc.outcomes[(i, s)].time_s) - time_to_ms(sc.outcomes[(i, o)].time_s))
        for i in sc.instance_ids
        for s in sc.solvers
        for o in sc.solvers
    }
    ms = {d + step for d in diffs for step in (-1, 0, 1) if d + step >= 0}
    return sorted({m / 1000.0 for m in ms} | {0.0004, 0.0005, 0.0015})


def assert_kernel_matches_reference(sc, deltas):
    for d in deltas:
        table, _ = score_scenario(sc, "mznc", MetricParams(delta=d))
        want = ref_per_instance(sc, d)
        assert dict(table.per_instance) == want
        for s in sc.solvers:
            total = ref_mznc_score(sc, s, d)
            assert mznc_score(sc, s, d) == total
            assert table.per_solver[s] == math.fsum(v for (sid, _), v in want.items() if sid == s)
            for i in sc.instance_ids:
                for o in sc.solvers:
                    if o != s:
                        assert mznc_pair(sc, i, s, o, d) == ref_pair(sc, i, s, o, d)
    sweep = delta_sweep(sc, deltas)
    assert sweep == {d: {s: ref_mznc_score(sc, s, d) for s in sc.solvers} for d in deltas}
    for a in sc.solvers:
        for b in sc.solvers:
            if a != b:
                assert find_flip_delta(sc, a, b) == ref_find_flip(sc, a, b), (a, b)


@st.composite
def grid_heavy_scenarios(draw, zero: bool = False):
    """scenarios() with every solved time snapped to a 5-value grid, so ties are common;
    with zero, one of the grid's values is 0."""
    sc = draw(scenarios())
    grid = draw(st.lists(st.integers(0, round(sc.timeout_s * 1000) - 1), min_size=5, max_size=5))
    if zero:
        grid[0] = 0
    outcomes = {}
    for n, (key, out) in enumerate(sorted(sc.outcomes.items())):
        if out.time_s < sc.timeout_s:
            out = out.replace(time_s=grid[n % 5] / 1000.0)
        outcomes[key] = out
    return build_scenario(sc.id, sc.instances, sc.solvers, sc.timeout_s, outcomes, sc.trajectories)


class TestAgainstReference:
    @given(scenarios())
    def test_generated_scenarios(self, sc):
        assert_kernel_matches_reference(sc, probe_deltas(sc))

    @given(grid_heavy_scenarios())
    def test_millisecond_grid_ties_and_zero_times(self, sc):
        assert_kernel_matches_reference(sc, probe_deltas(sc))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bench_family(self, seed):
        spec = ArchetypeSpec(
            seed=seed, n_instances=12, timeout_s=100.0, opt_fraction=0.5,
            solvers=tuple(
                SolverSpec(0.5 + 0.08 * (j % 5), uniform(1 + j % 10, 40 + 5 * (j % 10)),
                           uniform(0, 5), name=f"s{j:02d}")
                for j in range(5)
            ),
        )
        sc = generate(spec)
        assert_kernel_matches_reference(sc, [0.0, 0.001, 0.01, 0.5, 1.0, 5.0, 30.0])

    @pytest.mark.parametrize("seed", [2024, 3, 7])
    def test_thorough_vs_fast(self, seed):
        sc = generate(thorough_vs_fast_spec(seed=seed, n_instances=60))
        assert_kernel_matches_reference(sc, [0.0, 0.05, 1.0, 10.0, 50.0])


class TestAgainstOracle:
    @given(scenarios(), st.sampled_from([0.0, 0.001, 0.5, 2.0]))
    def test_scores_within_summation_rounding(self, sc, delta):
        table, _ = score_scenario(sc, "mznc", MetricParams(delta=delta))
        for s in sc.solvers:
            assert abs(table.per_solver[s] - oracle_score(sc, "mznc", s, delta=delta)) <= 1e-9

    def test_bench_family_at_the_oracle_limit(self):
        spec = ArchetypeSpec(
            seed=5, n_instances=50, timeout_s=100.0, opt_fraction=0.5,
            solvers=tuple(
                SolverSpec(0.6 + 0.05 * j, uniform(1 + j, 40 + 5 * j), uniform(0, 5), name=f"s{j}")
                for j in range(6)
            ),
        )
        sc = generate(spec)
        for d in (0.0, 1.0, 10.0):
            sweep = delta_sweep(sc, [d])
            for s in sc.solvers:
                assert abs(sweep[d][s] - oracle_score(sc, "mznc", s, delta=d)) <= 1e-9


class TestOneTotal:
    def test_sweep_total_is_the_scored_total(self):
        # The exact sum over every pair rounds s0's total here to
        # 347.11471332597114, one ulp below the sum of its rounded
        # per-instance scores, which score and rank report.
        spec = ArchetypeSpec(
            seed=12, n_instances=200, timeout_s=100.0, opt_fraction=0.3,
            solvers=tuple(
                SolverSpec(0.5 + 0.05 * k, uniform(1.0 * k, 20 + 10 * k), name=f"s{k}")
                for k in range(5)
            ),
        )
        sc = generate(spec)
        table, _ = score_scenario(sc, "mznc", MetricParams(delta=0.5))
        assert table.per_solver["s0"] == 347.1147133259712
        assert delta_sweep(sc, [0.5]) == {0.5: table.per_solver}
        assert mznc_score(sc, "s0", 0.5) == table.per_solver["s0"]


class TestTotalsWalk:
    """The walk over tie pairs (metrics._totals) rounds each instance it changes once per
    threshold, however many of the instance's pairs leave the tie branch there."""

    @given(grid_heavy_scenarios(zero=True))
    def test_each_total_is_the_fsum_of_the_mznc_column(self, sc):
        deltas = probe_deltas(sc)
        totals = mznc_scores(sc, sc.solvers, deltas)
        for n, d in enumerate(deltas):
            column = instance_columns(sc, "mznc", MetricParams(delta=d))
            assert {s: totals[s][n] for s in sc.solvers} == {
                s: math.fsum(column[s]) for s in sc.solvers}


class TestExactSums:
    @given(st.lists(st.floats(-1e6, 1e6), max_size=40))
    def test_int_sum_rounds_like_fsum(self, values):
        assert sum(_exact(v) for v in values) / _EXACT_UNIT == math.fsum(values)

    def test_flip_compares_rounded_sums(self):
        # At delta 0 the exact sums of a and b differ by 2**-54, but both round
        # to the same float, so a does not outscore b there.
        sc = decision_scenario({
            "i1": {"a": 0.001, "b": None, "c": None},
            "i2": {"a": None, "b": 0.023, "c": 0.007},
            "i3": {"a": 0.003, "b": 0.001, "c": 0.002},
        })
        assert mznc_score(sc, "a", 0.0) == mznc_score(sc, "b", 0.0)
        assert mznc_score(sc, "a", 0.001) > mznc_score(sc, "b", 0.001)
        assert find_flip_delta(sc, "a", "b") == ref_find_flip(sc, "a", "b") == 0.001
