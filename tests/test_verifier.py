"""Tests for the verification service (train / verify / accuracy)."""
from __future__ import annotations

import math

import pytest
from pyspark.sql import functions as F

from repro.core import labeling, models, verifier


def test_split_is_half_half(spark, sitasys_df):
    train_df, test_df = verifier.split(sitasys_df, seed=1)
    n, nt = sitasys_df.count(), train_df.count()
    assert abs(nt / n - 0.5) < 0.05
    assert nt + test_df.count() == n


def test_split_disjoint(spark, sitasys_df):
    train_df, test_df = verifier.split(sitasys_df, seed=1)
    overlap = train_df.select("alarm_id").intersect(test_df.select("alarm_id"))
    assert overlap.count() == 0


def test_train_returns_model_metadata(rf_model):
    assert rf_model.algo == "rf"
    assert rf_model.dataset == "sitasys"
    assert rf_model.input_dim == 803
    assert rf_model.delta_t_s == labeling.DEFAULT_DELTA_T_S


def test_verify_adds_verification_and_confidence(rf_model, sitasys_split):
    _, test_df = sitasys_split
    out = verifier.verify(rf_model, test_df.limit(200))
    assert verifier.VERIFICATION_COL in out.columns
    assert verifier.CONFIDENCE_COL in out.columns
    assert out.count() == 200


def test_confidence_is_probability(rf_model, sitasys_split):
    _, test_df = sitasys_split
    out = verifier.verify(rf_model, test_df.limit(500))
    bad = out.where(
        (F.col(verifier.CONFIDENCE_COL) < 0.5)
        | (F.col(verifier.CONFIDENCE_COL) > 1.0)
    ).count()
    # The confidence of the *predicted* class is always >= 0.5.
    assert bad == 0


def test_verify_drops_internal_columns(rf_model, sitasys_split):
    _, test_df = sitasys_split
    out = verifier.verify(rf_model, test_df.limit(10))
    for col in ("features", "rawPrediction", "probability"):
        assert col not in out.columns


def test_svm_confidence_via_margin(spark, sitasys_split):
    train_df, test_df = sitasys_split
    vm = verifier.train(train_df, algo="svm", dataset="sitasys", fast=True)
    out = verifier.verify(vm, test_df.limit(200))
    row = out.agg(
        F.min(verifier.CONFIDENCE_COL).alias("lo"),
        F.max(verifier.CONFIDENCE_COL).alias("hi"),
    ).first()
    assert 0.5 <= row["lo"] <= row["hi"] <= 1.0


def test_accuracy_between_0_and_1(rf_model, sitasys_split):
    _, test_df = sitasys_split
    acc = verifier.accuracy(rf_model, test_df)
    assert 0.5 < acc <= 1.0


def test_accuracy_beats_majority_class(rf_model, sitasys_split):
    _, test_df = sitasys_split
    frac = test_df.agg(F.avg(labeling.LABEL_COL)).first()[0]
    majority = max(frac, 1 - frac)
    assert verifier.accuracy(rf_model, test_df) > majority


def test_verification_consistent_with_prediction(rf_model, sitasys_split):
    _, test_df = sitasys_split
    scored = rf_model.model.transform(test_df.limit(300))
    verified = verifier.verify(rf_model, test_df.limit(300))
    a = [bool(r[0]) for r in verified.select(verifier.VERIFICATION_COL).collect()]
    b = [r[0] == 1.0 for r in scored.select("prediction").collect()]
    assert a == b


def test_train_on_prelabeled_frame(spark, sitasys_split):
    train_df, test_df = sitasys_split
    vm = verifier.train(train_df, algo="lr", dataset="sitasys", fast=True)
    assert verifier.accuracy(vm, test_df) > 0.6


@pytest.mark.parametrize("algo", models.ALGORITHMS)
def test_verify_matches_pyspark_transform(rf_model, sitasys_split, algo):
    """``verify`` scores through the fitted JVM pipeline in one call; each
    alarm gets the prediction of PySpark's ``PipelineModel.transform``, its
    verdict, and the confidence computed from that transform's output."""
    train_df, test_df = sitasys_split
    vm = rf_model if algo == "rf" else verifier.train(
        train_df, algo=algo, dataset="sitasys", fast=True)
    scored = vm.model.transform(test_df)
    vec = "probability" if "probability" in scored.columns else "rawPrediction"
    expected = {}
    for r in scored.select("alarm_id", "prediction", vec).collect():
        v = r[vec].toArray()
        conf = max(v) if vec == "probability" else 1 / (1 + math.exp(-abs(v[1])))
        expected[r.alarm_id] = (r.prediction, r.prediction == 1.0, conf)
    got = {
        r.alarm_id: (r.prediction, r.verification, r.confidence)
        for r in verifier.verify(vm, test_df)
        .select("alarm_id", "prediction", verifier.VERIFICATION_COL, verifier.CONFIDENCE_COL)
        .collect()
    }
    assert got.keys() == expected.keys()
    ids = sorted(expected)
    assert [got[i][:2] for i in ids] == [expected[i][:2] for i in ids]
    assert [got[i][2] for i in ids] == pytest.approx([expected[i][2] for i in ids],
                                                     rel=1e-12)
