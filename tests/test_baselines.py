"""Virtual best and single best baselines."""

from __future__ import annotations

import math

import pytest
from helpers import TIMEOUT, decision_scenario
from hypothesis import given
from hypothesis import strategies as st
from test_fold_columns import generated

from solvereval import (
    BadLambda,
    MetricParams,
    MissingFoldContext,
    SbsPolicy,
    SolverEvalError,
    baseline_report,
    score_scenario,
    select_sbs,
)
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
