"""Tests for the London Fire Brigade dataset generator."""
from __future__ import annotations

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.features import SPECS
from repro.datasets import london
from repro.oracle import assert_equivalent


def test_row_count(london_pdf):
    assert len(london_pdf) == int(london.N_TOTAL * 0.01)


def test_schema(london_pdf):
    assert set(london_pdf.columns) == {
        "incident_number", "zip_code", "ts", "day_of_week", "hour_of_day",
        "property_category", "property_type", "incident_group",
    }


def test_deterministic():
    a = london.generate_pandas(sf=0.002, seed=9)
    b = london.generate_pandas(sf=0.002, seed=9)
    assert a.equals(b)


def test_false_alarm_fraction_near_paper(london_pdf):
    # Paper: 430K of 885K (~48%) false alarms, 2009-2016.
    frac = (london_pdf["incident_group"] == "False Alarm").mean()
    assert 0.44 <= frac <= 0.54


def test_time_range(london_pdf):
    assert london_pdf["ts"].min() >= np.datetime64("2009-01-01")
    assert london_pdf["ts"].max() < np.datetime64("2017-01-03")


def test_property_types_match_their_category(london_pdf):
    for cat, types in london.PROPERTY_TYPES.items():
        sub = london_pdf[london_pdf.property_category == cat]
        assert set(sub["property_type"]) <= set(types)


def test_incident_groups(london_pdf):
    assert set(london_pdf["incident_group"]) == {
        "False Alarm", "Fire", "Special Service"
    }


def test_generic_features_only():
    # Table 1: London exposes no sensor-specific columns.
    assert set(SPECS["london"].input_cols) == {
        "zip_code", "day_of_week", "hour_of_day",
        "property_category", "property_type",
    }


def test_duration_proxy_encodes_label(spark, london_df):
    mismatch = london_df.where(
        ((F.col("incident_group") == "False Alarm") & (F.col("duration_s") != 0.0))
        | ((F.col("incident_group") != "False Alarm") & (F.col("duration_s") != 3600.0))
    ).count()
    assert mismatch == 0


def test_category_counts_oracle(spark, london_df):
    got = london_df.groupBy("property_category").agg(F.count("*").alias("n"))
    assert_equivalent(
        got,
        "SELECT property_category, count(*) AS n FROM lfb GROUP BY property_category",
        lfb=london_df,
    )


def test_false_alarm_rate_by_category_oracle(spark, london_df):
    got = london_df.groupBy("property_category").agg(
        F.round(
            F.avg((F.col("incident_group") == "False Alarm").cast("double")), 6
        ).alias("false_rate")
    )
    assert_equivalent(
        got,
        """
        SELECT property_category,
               round(avg(CASE WHEN incident_group = 'False Alarm'
                         THEN 1.0 ELSE 0.0 END), 6) AS false_rate
        FROM lfb GROUP BY property_category
        """,
        lfb=london_df,
    )


def test_nonres_daytime_mostly_false(london_pdf):
    # The automatic-fire-alarm pattern the model learns.
    sub = london_pdf[
        (london_pdf.property_category == "Non Residential")
        & london_pdf.hour_of_day.between(9, 17)
    ]
    assert (sub["incident_group"] == "False Alarm").mean() > 0.6
