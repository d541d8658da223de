"""Tests for the MongoDB-substitute document store."""
from __future__ import annotations

import duckdb
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.docstore.store import SUMMARY_SCHEMA, DocumentStore
from repro.oracle import assert_equivalent


@pytest.fixture()
def store(tmp_path):
    return DocumentStore(tmp_path / "db")


@pytest.fixture(scope="module")
def alarm_store(tmp_path_factory, spark, sitasys_df):
    st = DocumentStore(tmp_path_factory.mktemp("db"))
    st.collection("alarms").insert_many(spark, sitasys_df)
    return st


def test_insert_returns_count(store, spark, sitasys_df):
    n = store.collection("a").insert_many(spark, sitasys_df.limit(100))
    assert n == 100


def test_insert_pandas_frame(store, spark):
    pdf = pd.DataFrame({"x": [1, 2, 3], "y": ["a", "b", "c"]})
    assert store.collection("p").insert_many(spark, pdf) == 3
    assert store.collection("p").count(spark) == 3


def test_insert_writes_no_checksum_files(store, spark, sitasys_df):
    """Parts are written through the raw local file system, which keeps no
    ``.crc`` file beside each part (nor forks a ``chmod`` to create one)."""
    col = store.collection("a")
    col.insert_many(spark, sitasys_df.limit(100))
    assert list(col.path.glob("part-*"))
    assert list(col.path.rglob("*.crc")) == []


def test_append_semantics(store, spark, sitasys_df):
    col = store.collection("a")
    col.insert_many(spark, sitasys_df.limit(50))
    col.insert_many(spark, sitasys_df.limit(30))
    assert col.count(spark) == 80


def test_find_by_field_equality(spark, alarm_store, sitasys_df):
    got = alarm_store.collection("alarms").find(spark, alarm_type="fire")
    expected = sitasys_df.where(F.col("alarm_type") == "fire").count()
    assert got.count() == expected
    assert {r[0] for r in got.select("alarm_type").distinct().collect()} == {"fire"}


def test_find_multiple_predicates(spark, alarm_store):
    got = alarm_store.collection("alarms").find(
        spark, alarm_type="intrusion", object_type="residential"
    )
    bad = got.where(
        (F.col("alarm_type") != "intrusion")
        | (F.col("object_type") != "residential")
    ).count()
    assert bad == 0
    assert got.count() > 0


def test_schema_flexible_across_inserts(store, spark):
    """MongoDB property the paper relied on: new alarm structures can be
    ingested even when fields were added by a software update."""
    col = store.collection("flex")
    col.insert_many(spark, pd.DataFrame({"a": [1, 2]}))
    col.insert_many(spark, pd.DataFrame({"a": [3], "b": ["new-field"]}))
    out = col.find(spark)
    assert set(out.columns) == {"a", "b"}
    assert out.count() == 3


def test_count_with_filter(spark, alarm_store, sitasys_df):
    n = alarm_store.collection("alarms").count(spark, sw_version="v01")
    assert n == sitasys_df.where(F.col("sw_version") == "v01").count()


def test_device_histogram_oracle(spark, alarm_store, sitasys_df):
    # Days compared as ISO strings: Spark yields date objects, DuckDB
    # datetime64 — same values, unorderable dtypes for the oracle.
    got = alarm_store.collection("alarms").device_histogram(spark).withColumn(
        "day", F.col("day").cast("string")
    )
    assert_equivalent(
        got,
        """
        SELECT device_mac, strftime(ts, '%Y-%m-%d') AS day, count(*) AS n_alarms
        FROM alarms GROUP BY device_mac, strftime(ts, '%Y-%m-%d')
        """,
        alarms=sitasys_df,
    )


def test_device_histogram_filters_devices(spark, alarm_store, sitasys_df):
    some = [r[0] for r in sitasys_df.select("device_mac").distinct().limit(5).collect()]
    got = alarm_store.collection("alarms").device_histogram(spark, devices=some)
    assert {r["device_mac"] for r in got.collect()} <= set(some)


def test_device_histogram_since(spark, alarm_store):
    full = alarm_store.collection("alarms").device_histogram(spark)
    recent = alarm_store.collection("alarms").device_histogram(
        spark, since="2016-03-01"
    )
    assert recent.agg(F.sum("n_alarms")).first()[0] < full.agg(F.sum("n_alarms")).first()[0]


def test_device_summary_matches_duckdb_across_schema_drift(store, spark, sitasys_pdf):
    """The driver-side summary over two inserts, the second of which adds a
    field (a software update, Section 4.2 (2)) and repeats devices on days
    they already have: ``active_days`` counts each day once."""
    col = store.collection("drift")
    first = sitasys_pdf.head(400)
    col.insert_many(spark, first)
    col.insert_many(spark, first.head(100).assign(firmware="v2"))
    got = col.device_summary(spark)
    assert got.where(F.col("past_alarms") > F.col("active_days")).count() > 0
    con = duckdb.connect()
    try:
        expected = con.execute(
            "SELECT device_mac, count(*) AS past_alarms, "
            "count(DISTINCT CAST(ts AS DATE)) AS active_days "
            "FROM read_parquet(?, union_by_name = true) GROUP BY device_mac",
            [str(col.path / "part-*")],
        ).fetchdf()
    finally:
        con.close()
    assert_equivalent(got, "SELECT * FROM e", e=expected)


def test_history_of_empty_collection(store, spark):
    never = store.collection("never")
    got = never.device_summary(spark)
    assert got.count() == 0
    assert got.schema == SUMMARY_SCHEMA
    assert never.device_histogram(spark).count() == 0
