"""Tests for the San Francisco Fire Department dataset generator.

The paper's SF findings are about data-quality pathologies; each test
pins one of them (Section 5.1.3).
"""
from __future__ import annotations

import pytest

from repro.core.features import SPECS
from repro.datasets import sanfrancisco as sfd


def test_row_count(sf_pdf):
    assert len(sf_pdf) == int(sfd.N_TOTAL * 0.02)


def test_schema(sf_pdf):
    assert set(sf_pdf.columns) == {
        "call_number", "zip_code", "ts", "day_of_week", "hour_of_day",
        "call_type", "call_final_disposition",
    }


def test_deterministic():
    a = sfd.generate_pandas(sf=0.001, seed=2)
    b = sfd.generate_pandas(sf=0.001, seed=2)
    assert a.equals(b)


def test_no_property_type_column(sf_pdf):
    # Table 1: SF has no property-type information at all.
    assert not any("property" in c for c in sf_pdf.columns)
    assert not any("property" in c for c in SPECS["sf"].input_cols)


def test_more_than_half_unlabeled(sf_pdf):
    # Paper: >2.5M of 4.3M records are marked "Other".
    assert (sf_pdf["call_final_disposition"] == sfd.DISP_OTHER).mean() > 0.5


def test_medical_majority(sf_pdf):
    # Paper: more than half of the entries are medical incidents.
    assert (sf_pdf["call_type"] == "Medical Incident").mean() > 0.5


def test_usable_subset_size_matches_paper(sf_pdf):
    # ~12K usable alarm/fire records at SF=1 → ~240 at sf=0.02.
    usable = sfd.usable_subset(sf_pdf)
    expected = 12_000 * 0.02
    assert 0.6 * expected <= len(usable) <= 1.5 * expected


def test_usable_subset_is_fire_and_labeled(sf_pdf):
    usable = sfd.usable_subset(sf_pdf)
    assert usable["call_type"].isin(sfd.FIRE_ALARM_TYPES).all()
    assert (usable["call_final_disposition"] != sfd.DISP_OTHER).all()


def test_usable_subset_roughly_balanced(sf_pdf):
    usable = sfd.usable_subset(sf_pdf)
    false_frac = (usable["call_final_disposition"] == "No Merit").mean()
    assert 0.3 <= false_frac <= 0.6


def test_all_labeled_dominated_by_medical(sf_pdf):
    al = sfd.all_labeled_subset(sf_pdf)
    assert (al["call_type"] == "Medical Incident").mean() > 0.8


def test_medical_labels_nearly_random(sf_pdf):
    # The reason "all properly labeled" training lands at ~53%.
    med = sf_pdf[
        (sf_pdf.call_type == "Medical Incident")
        & (sf_pdf.call_final_disposition != sfd.DISP_OTHER)
    ]
    frac_true = med["call_final_disposition"].isin(sfd.DISP_TRUE).mean()
    assert 0.35 <= frac_true <= 0.65


def test_generate_spark_subsets(spark):
    usable = sfd.generate(spark, sf=0.01, subset="usable")
    assert "duration_s" in usable.columns
    assert usable.count() > 0
    with pytest.raises(ValueError):
        sfd.generate(spark, sf=0.001, subset="bogus")


def test_no_merit_count_scale(sf_pdf):
    # Paper: ~105K "No Merit"-labeled records at SF=1 (within a factor).
    n = (sf_pdf["call_final_disposition"] == "No Merit").sum()
    expected = 105_000 * 0.02
    assert 0.5 * expected <= n <= 2 * expected
