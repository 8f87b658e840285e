"""Virtual best and single best baselines."""

from __future__ import annotations

import math

import pytest
from helpers import TIMEOUT, decision_scenario

from solvereval import (
    BadLambda,
    FoldContext,
    MissingFoldContext,
    SbsPolicy,
    baseline_report,
    select_sbs,
)
from solvereval.metrics import instance_columns


def _flip_scenario():
    # a dominates i1, b dominates i2; par10 values are 50/1000 and 1000/30
    return decision_scenario({
        "i1": {"a": 50.0, "b": None},
        "i2": {"a": None, "b": 30.0},
    })


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
        with pytest.raises(MissingFoldContext):
            select_sbs(_flip_scenario(), "par", policy=SbsPolicy.TRAIN_SPLIT)
        with pytest.raises(MissingFoldContext):
            select_sbs(_flip_scenario(), "par", policy=SbsPolicy.TEST_SPLIT)

    def test_missing_fold_context_before_columns(self):
        # A penalty below 1 fails the column build, which the cell check comes before.
        for resolve in (select_sbs, baseline_report):
            with pytest.raises(MissingFoldContext):
                resolve(_flip_scenario(), "par", 0.5, "train_split")
            with pytest.raises(BadLambda):
                resolve(_flip_scenario(), "par", 0.5, "full_dataset")

    def test_selection_follows_the_policy_split(self):
        sc = _flip_scenario()
        ctx = FoldContext(train=("i1",), test=("i2",))
        assert select_sbs(sc, "par", policy=SbsPolicy.TRAIN_SPLIT, fold_context=ctx) == "a"
        assert select_sbs(sc, "par", policy=SbsPolicy.TEST_SPLIT, fold_context=ctx) == "b"
        assert select_sbs(sc, "par", policy=SbsPolicy.FULL_DATASET, fold_context=ctx) == "b"

    def test_policy_accepts_strings(self):
        sc = _flip_scenario()
        ctx = FoldContext(train=("i1",), test=("i2",))
        assert select_sbs(sc, "par", policy="train_split", fold_context=ctx) == "a"


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
        sc = _flip_scenario()
        ctx = FoldContext(train=("i1",), test=("i2",))
        report = baseline_report(sc, "par", policy=SbsPolicy.TRAIN_SPLIT, fold_context=ctx)
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
