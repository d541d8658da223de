"""Tests for the Δt duration-threshold labeling heuristic (Fig 9 basis)."""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from repro.core import labeling


def test_label_column_added(spark, sitasys_df):
    lab = labeling.with_label(sitasys_df)
    assert labeling.LABEL_COL in lab.columns
    assert dict(lab.dtypes)[labeling.LABEL_COL] == "double"


def test_label_matches_threshold(spark, sitasys_df):
    lab = labeling.with_label(sitasys_df, 120.0)
    bad = lab.where(
        ((F.col("duration_s") >= 120.0) & (F.col("label") != 1.0))
        | ((F.col("duration_s") < 120.0) & (F.col("label") != 0.0))
    ).count()
    assert bad == 0


@pytest.mark.parametrize("delta_t", labeling.DELTA_T_SWEEP_S)
def test_labels_agree_with_latent_across_sweep(sitasys_pdf, delta_t):
    """Figure 9 stability: for every Δt in [1, 10] min the inferred label
    agrees with the latent truth at ≳93%, so accuracy cannot swing."""
    agree = ((sitasys_pdf["duration_s"] >= delta_t) == sitasys_pdf["latent_true"]).mean()
    assert agree >= 0.93


def test_agreement_best_near_one_minute(sitasys_pdf):
    # The paper finds the best classification quality at Δt = 1 min.
    def agree(dt: float) -> float:
        return ((sitasys_pdf["duration_s"] >= dt) == sitasys_pdf["latent_true"]).mean()

    assert agree(60.0) >= agree(600.0) - 0.02


def test_balance_monotone_in_threshold(spark, sitasys_df):
    # Raising Δt can only shrink the TRUE class.
    balances = [
        labeling.with_label(sitasys_df, dt).agg(F.avg("label")).first()[0]
        for dt in (60.0, 180.0, 600.0)
    ]
    assert balances[0] >= balances[1] >= balances[2]


def test_default_balance_roughly_even(spark, sitasys_df):
    frac = labeling.with_label(sitasys_df).agg(F.avg("label")).first()[0]
    assert 0.40 <= frac <= 0.55


def test_sweep_constants():
    assert labeling.DELTA_T_SWEEP_S[0] == 60.0
    assert labeling.DELTA_T_SWEEP_S[-1] == 600.0
    assert len(labeling.DELTA_T_SWEEP_S) == 10
