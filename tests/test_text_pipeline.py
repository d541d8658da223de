"""End-to-end incident-pipeline tests: the Section 5.2 corpus numbers."""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from repro.datasets import incidents
from repro.docstore.store import DocumentStore
from repro.text import pipeline


def test_total_relevant_reports(incident_history):
    # Paper: "The dataset contains 5,056 descriptions of incidents".
    assert incident_history.count() == 5_056


def test_language_distribution(incident_history):
    # "out of which 2,743 are in German, 1,516 in French and 797 in English"
    counts = {
        r["language"]: r["n"]
        for r in incident_history.groupBy("language").agg(F.count("*").alias("n")).collect()
    }
    assert counts == {"de": 2_743, "fr": 1_516, "en": 797}


def test_distinct_cities(incident_history):
    # "located in 1,027 distinct cities and villages of Switzerland"
    assert incident_history.select("city").distinct().count() == 1_027


def test_basel_topic_counts(incident_history):
    # Table 2: Basel has 10 intrusion and 464 fire reports.
    counts = {
        r["topic"]: r["n"]
        for r in incident_history.where(F.col("city") == "Basel")
        .groupBy("topic")
        .agg(F.count("*").alias("n"))
        .collect()
    }
    assert counts == {"fire": 464, "intrusion": 10}


def test_output_schema(incident_history):
    assert tuple(incident_history.columns) == pipeline.OUTPUT_COLUMNS


def test_no_truth_columns_leak(incident_history):
    assert not any(c.startswith("truth_") for c in incident_history.columns)


def test_every_report_has_date_and_city(incident_history):
    assert incident_history.where(F.col("incident_date").isNull()).count() == 0
    assert incident_history.where(F.col("city").isNull()).count() == 0


def test_run_persists_to_docstore(spark, incidents_raw, tmp_path):
    store = DocumentStore(tmp_path / "db")
    n = pipeline.run(spark, incidents_raw, store)
    assert n == 5_056
    assert store.collection(pipeline.INCIDENTS_COLLECTION).count(spark) == 5_056


def test_raw_feed_contains_decoys(incidents_raw):
    n_decoys = incidents_raw.where(F.col("truth_topic") == "none").count()
    assert n_decoys == incidents.N_DECOYS


def test_corpus_deterministic(spark):
    a = incidents.generate_relevant()
    b = incidents.generate_relevant()
    assert a.equals(b)
