"""Virtual best and single best baselines."""

from __future__ import annotations

import math
import sys
from itertools import chain
from types import SimpleNamespace

import pytest
from helpers import TIMEOUT, decision_scenario
from hypothesis import given
from hypothesis import strategies as st
from test_fold_columns import bench_family_spec, generated

from solvereval import (
    BadLambda,
    DegenerateGap,
    MetricParams,
    MissingFoldContext,
    SbsPolicy,
    SolverEvalError,
    baseline_report,
    generate,
    make_fold_plan,
    score_scenario,
    select_sbs,
)
from solvereval import baselines
from solvereval.baselines import cell_baselines
from solvereval.metrics import base_columns, instance_columns, read_split


def _flip_scenario():
    # a dominates i1, b dominates i2; par10 values are 50/1000 and 1000/30
    return decision_scenario({
        "i1": {"a": 50.0, "b": None},
        "i2": {"a": None, "b": 30.0},
    })


def _flip_splits():
    """_flip_scenario's instance ids and the par splits of its test fold i2 and train fold i1."""
    sc = _flip_scenario()
    columns = base_columns(sc, "par")
    return sc.instance_ids, read_split(columns, [1]), read_split(columns, [0])


def _totals(sc, metric_id):
    return {s: math.fsum(col) for s, col in instance_columns(sc, metric_id).items()}


class TestVbs:
    def test_per_instance_minimum(self):
        assert baseline_report(_flip_scenario(), "par").vbs_per_instance == {"i1": 50.0, "i2": 30.0}

    def test_runtime_base(self):
        report = baseline_report(_flip_scenario(), "runtime")
        assert report.vbs_per_instance == {"i1": 50.0, "i2": 30.0}


class TestSbs:
    def test_totals(self):
        assert _totals(_flip_scenario(), "par") == {"a": 1050.0, "b": 1030.0}

    def test_select_minimum_total(self):
        assert select_sbs(_flip_scenario(), "par") == "b"

    def test_ties_break_lexicographically(self):
        sc = decision_scenario({"i1": {"zeta": 10.0, "alpha": 10.0}})
        assert select_sbs(sc, "par") == "alpha"

    def test_split_policies_need_fold_context(self):
        # Without a split every instance is scored: only a fold plan's cells have train and test.
        for policy in (SbsPolicy.TRAIN_SPLIT, SbsPolicy.TEST_SPLIT):
            with pytest.raises(MissingFoldContext, match=rf"^policy {policy.value} .* fold plan$"):
                score_scenario(_flip_scenario(), "closed-gap", MetricParams(lam=0.5), policy)

    def test_missing_fold_context_before_columns(self):
        # A penalty below 1 fails the column build, which the policy check comes before.
        params = MetricParams(lam=0.5)
        for policy in ("train_split", "test_split"):
            with pytest.raises(MissingFoldContext):
                score_scenario(_flip_scenario(), "closed-gap", params, policy)
        with pytest.raises(BadLambda):
            score_scenario(_flip_scenario(), "closed-gap", params, "full_dataset")

    def test_selection_follows_the_policy_split(self):
        ids, test, train = _flip_splits()
        for policy, selection, sbs in (
            (SbsPolicy.TRAIN_SPLIT, [train], "a"),
            (SbsPolicy.TEST_SPLIT, [test], "b"),
            (SbsPolicy.FULL_DATASET, [train, test], "b"),
        ):
            report, _ = cell_baselines(ids, "par", policy, test, selection)
            assert (report.sbs_id, report.sbs_policy) == (sbs, policy)

    def test_policy_accepts_strings(self):
        ids, test, train = _flip_splits()
        report, _ = cell_baselines(ids, "par", "train_split", test, [train])
        assert (report.sbs_id, report.sbs_policy) == ("a", SbsPolicy.TRAIN_SPLIT)


class TestBaselineReport:
    def test_full_dataset_report(self):
        report = baseline_report(_flip_scenario(), "par")
        assert report.sbs_id == "b"
        assert report.m_sbs == pytest.approx(1030.0)
        assert report.m_vbs == pytest.approx(80.0)
        assert report.vbs_per_instance == {"i1": 50.0, "i2": 30.0}
        assert report.gap_ratio == pytest.approx(950.0 / 1030.0)
        assert report.warnings == ()

    def test_train_selection_measured_on_test(self):
        ids, test, train = _flip_splits()
        report, _ = cell_baselines(ids, "par", SbsPolicy.TRAIN_SPLIT, test, [train])
        # a wins the train split but is then measured on the test split
        assert report.sbs_id == "a"
        assert report.m_sbs == pytest.approx(1000.0)
        assert report.m_vbs == pytest.approx(30.0)

    def test_low_resolution_warning(self):
        sc = decision_scenario({
            "i1": {"a": 50.0, "b": 50.1},
            "i2": {"a": 60.0, "b": 59.9},
        })
        report = baseline_report(sc, "par")
        # sbs total 110.0 vs vbs 109.9: well under a 1% relative gap
        assert report.gap_ratio < 0.01
        assert len(report.warnings) == 1
        assert "low resolution" in report.warnings[0]

    def test_healthy_gap_has_no_warning(self):
        report = baseline_report(_flip_scenario(), "par")
        assert report.warnings == ()

    def test_zero_sbs_total_guard(self):
        sc = decision_scenario({"i1": {"a": 0.0, "b": 0.0}})
        report = baseline_report(sc, "par")
        assert report.m_sbs == 0.0
        assert report.gap_ratio == 0.0
        assert report.warnings  # flagged as low resolution

    def test_gap_of_sbs_is_exactly_zero(self):
        report = baseline_report(_flip_scenario(), "par")
        totals = _totals(_flip_scenario(), "par")
        assert totals[report.sbs_id] == report.m_sbs
        assert math.fsum([report.m_sbs, -report.m_sbs]) == 0.0


class TestFullDatasetWrappers:
    """baseline_report and select_sbs give what score_scenario's closed gap reports."""

    @given(generated(), st.sampled_from([1.0, 1.5, 10.0]))
    def test_match_the_closed_gap_report(self, sc, lam):
        for base_metric in ("par", "runtime", "area"):
            params = MetricParams(base_metric=base_metric, lam=lam)
            try:
                _, report = score_scenario(sc, "closed-gap", params)
            except SolverEvalError:
                continue  # the closed gap does not score on this base metric
            assert baseline_report(sc, base_metric, lam) == report
            assert select_sbs(sc, base_metric, lam) == report.sbs_id

    def test_degenerate_gap_reported_not_scored(self):
        # a is at least as fast everywhere, so the single best is the virtual best:
        # baseline_report reports those baselines, while the closed gap cannot be scored.
        sc = decision_scenario({"i1": {"a": 5.0, "b": 7.0}, "i2": {"a": 3.0, "b": 3.0}})
        report = baseline_report(sc)
        assert report.sbs_id == "a" and report.m_sbs == report.m_vbs == 8.0
        assert len(report.warnings) == 1 and "low resolution" in report.warnings[0]
        with pytest.raises(DegenerateGap):
            score_scenario(sc, "closed-gap")


def all_fsum_pick(selection):
    """The SBS as math.fsum totals of every solver pick it; ties go to the first id."""
    return min(selection[0].values, key=lambda s: (
        math.fsum(chain.from_iterable(sp.values[s] for sp in selection)), s))


def selections(splits):
    """Each cell's selection splits under each SBS policy, as evaluate passes them."""
    for f, split in enumerate(splits):
        if len(splits) > 1:
            yield splits[:f] + splits[f + 1:]  # train_split
        yield [split]  # test_split
        yield splits  # full_dataset


VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.0**-1022, 0.1, 0.2, 0.3, 1.0, 100.0, 1e300]),
    st.floats(0.0, 1e6),
    st.floats(0.0, 1e-300),
)


@st.composite
def near_ties(draw):
    """Columns of n values for five solvers, split into folds, with totals tied or close.

    Besides a column and a column of other values: the column permuted (the
    same exact total), and the column with its largest value one ulp up or
    down (totals an ulp or less apart). Solver ids are shuffled over them.
    """
    n = draw(st.integers(1, 12))
    base = draw(st.lists(VALUES, min_size=n, max_size=n))
    j = max(range(n), key=base.__getitem__)
    up, down = list(base), list(base)
    up[j], down[j] = math.nextafter(base[j], math.inf), math.nextafter(base[j], 0.0)
    columns = [base, draw(st.permutations(base)), up, down,
               draw(st.lists(VALUES, min_size=n, max_size=n))]
    names = draw(st.permutations(["a", "b", "c", "d", "e"]))
    folds = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return dict(zip(names, columns)), [[p for p in range(n) if folds[p] == f] for f in range(4)]


class TestFilteredSbsPick:
    """_sbs sums exactly only the _candidates that float sums cannot rule out; it must pick
    what math.fsum totals of every solver pick."""

    @given(near_ties())
    def test_equals_the_all_fsum_pick(self, case):
        columns, folds = case
        splits = [read_split(columns, at) for at in folds]
        for selection in selections(splits):
            pick = all_fsum_pick(selection)
            assert pick in baselines._candidates(selection)
            assert baselines._sbs(selection) == pick

    @pytest.mark.parametrize("columns, candidates, pick", [
        # Exact totals 1 + 2**-52 and 1: one ulp apart, so both are summed exactly.
        ({"a": [1.0, 2.0**-52], "b": [1.0, 0.0]}, {"a", "b"}, "b"),
        ({"a": [1.0, 0.0], "b": [1.0, 2.0**-52]}, {"a", "b"}, "a"),
        # The same values in another order: an exact tie, to the first id.
        ({"b": [0.1, 0.2, 0.3], "a": [0.3, 0.2, 0.1]}, {"a", "b"}, "a"),
        # Exact totals that round to the same float tie too, to the first id.
        ({"b": [0.5, 0.5], "a": [0.5, 0.5 + 2.0**-53]}, {"a", "b"}, "a"),
        ({"b": [0.0, 0.0], "a": [0.0, 0.0]}, {"a", "b"}, "a"),
        # Subnormal totals are exact float sums: one smallest step apart rules a out.
        ({"b": [5e-324, 0.0], "a": [0.0, 1e-323]}, {"b"}, "b"),
        ({"a": [2.0, 1.0], "b": [1.0, 1.0], "c": [1.0, 1.5]}, {"b"}, "b"),
    ])
    def test_close_totals(self, columns, candidates, pick):
        n = len(columns["a"])
        splits = [read_split(columns, [0]), read_split(columns, range(1, n))]
        assert set(baselines._candidates(splits)) == candidates
        assert baselines._sbs(splits) == pick == all_fsum_pick(splits)

    def test_an_overflowed_rough_total_rules_nothing_out(self):
        columns = {"a": [1.0, 1.0], "b": [sys.float_info.max] * 2}
        splits = [read_split(columns, [0]), read_split(columns, [1])]
        assert baselines._candidates(splits) == ["a", "b"]
        for pick in (baselines._sbs, all_fsum_pick):
            with pytest.raises(OverflowError):
                pick(splits)

    def test_fsum_only_for_the_candidates(self, monkeypatch):
        sc = generate(bench_family_spec(1, 300, 20, 0.5))
        columns = base_columns(sc, "par")
        plan = make_fold_plan(sc.instance_ids, 10)
        splits = [read_split(columns, sorted(map(sc.position_map.__getitem__, fold)))
                  for fold in plan.assignment[0]]
        calls = []
        monkeypatch.setattr(baselines, "math", SimpleNamespace(**dict(
            vars(math), fsum=lambda values: calls.append(1) or math.fsum(values))))
        for selection in selections(splits):
            calls.clear()
            assert baselines._sbs(selection) == all_fsum_pick(selection)
            assert len(calls) == len(baselines._candidates(selection)) < 20
