"""Tests for the MongoDB-substitute document store."""
from __future__ import annotations

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StringType, StructField, StructType

from repro.docstore.store import DocumentStore
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
    """An insert leaves one part and nothing else: no ``.crc`` file beside
    it and no hidden temp file."""
    col = store.collection("a")
    col.insert_many(spark, sitasys_df.limit(100))
    assert len(list(col.path.glob("part-*"))) == 1
    assert list(col.path.rglob("*.crc")) == []
    assert list(col.path.glob(".*")) == []


def test_failed_insert_leaves_no_part(store, spark, sitasys_pdf, monkeypatch):
    """A write that fails after writing publishes no part and leaves no
    temp file behind; the collection's count is unchanged."""
    col = store.collection("a")
    col.insert_many(spark, sitasys_pdf.head(10))
    write_table = pq.write_table

    def write_then_fail(*args, **kwargs):
        write_table(*args, **kwargs)
        raise OSError("injected write failure")

    monkeypatch.setattr(pq, "write_table", write_then_fail)
    with pytest.raises(OSError, match="injected write failure"):
        col.insert_many(spark, sitasys_pdf.head(20))
    assert len(list(col.path.glob("part-*"))) == 1
    assert list(col.path.glob(".*")) == []
    assert col.count(spark) == 10


def test_parts_read_back_by_spark_with_int96_ts(store, spark, sitasys_df, sitasys_pdf):
    """Parts inserted from a Spark and from a pandas frame read back through
    Spark as the inserted rows, and store ``ts`` as INT96, as Spark writes
    it, so every reader takes it as the same naive UTC time."""
    col = store.collection("both")
    col.insert_many(spark, sitasys_df)
    col.insert_many(spark, sitasys_pdf)
    assert_equivalent(
        spark.read.parquet(str(col.path)),
        "SELECT * FROM a UNION ALL SELECT * FROM b",
        a=sitasys_df, b=sitasys_pdf,
    )
    parts = sorted(col.path.glob("part-*"))
    assert len(parts) == 2
    for part in parts:
        schema = pq.ParquetFile(part).schema
        assert schema.column(schema.names.index("ts")).physical_type == "INT96"


def test_append_semantics(store, spark, sitasys_df):
    col = store.collection("a")
    col.insert_many(spark, sitasys_df.limit(50))
    col.insert_many(spark, sitasys_df.limit(30))
    assert col.count(spark) == 80


def test_schema_flexible_across_inserts(store, spark):
    """MongoDB property the paper relied on: new alarm structures can be
    ingested even when fields were added by a software update."""
    col = store.collection("flex")
    col.insert_many(spark, pd.DataFrame({"a": [1, 2]}))
    col.insert_many(spark, pd.DataFrame({"a": [3], "b": ["new-field"]}))
    assert col.count(spark) == 3
    con = duckdb.connect()
    try:
        out = con.execute(
            "SELECT * FROM read_parquet(?, union_by_name = true)", [str(col.path / "part-*")]
        ).fetchdf()
    finally:
        con.close()
    assert set(out.columns) == {"a", "b"}
    assert len(out) == 3


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


def test_history_reads_parts_of_differing_types(store, spark):
    """Parts from different writers (Section 4.2 (2)): ``ts`` as a string,
    as the consumer's sink stores it, in the part that sorts first; ``ts``
    as a UTC timestamp; and a part with an extra field. The history reads
    every part as the same types, so it matches DuckDB over the same rows
    given as one typed frame."""
    alarms = pd.DataFrame({
        "device_mac": ["m1", "m2", "m1", "m1", "m3", "m2", "m1", "m3"],
        "ts": pd.to_datetime([
            "2016-01-05 14:17:05", "2016-01-05 23:59:59", "2016-01-05 00:00:00",
            "2016-01-06 08:30:00", "2016-02-29 12:00:00", "2016-01-05 07:00:00",
            "2016-01-06 23:00:00", "2016-03-01 00:00:01",
        ]),
    })
    col = store.collection("mixed")
    col.path.mkdir(parents=True)
    parts = {
        "part-00000-a.parquet": alarms[:3].assign(ts=alarms.ts.dt.strftime("%Y-%m-%d %H:%M:%S")),
        "part-00001-b.parquet": alarms[3:6].assign(ts=alarms.ts.dt.tz_localize("UTC")),
        "part-00002-c.parquet": alarms[6:].assign(firmware="v2"),
    }
    for name, part in parts.items():
        pq.write_table(pa.Table.from_pandas(part, preserve_index=False), col.path / name)
    assert_equivalent(
        col.device_summary(spark),
        "SELECT device_mac, count(*) AS past_alarms, "
        "count(DISTINCT CAST(ts AS DATE)) AS active_days FROM alarms GROUP BY device_mac",
        alarms=alarms,
    )
    assert col.count(spark) == 8
    assert_equivalent(
        col.device_histogram(spark).withColumn("day", F.col("day").cast("string")),
        "SELECT device_mac, strftime(ts, '%Y-%m-%d') AS day, count(*) AS n_alarms "
        "FROM alarms GROUP BY ALL",
        alarms=alarms,
    )


def test_history_of_empty_collection(store, spark):
    never = store.collection("never")
    got = never.device_summary(spark)
    assert got.count() == 0
    assert got.schema == StructType([
        StructField("device_mac", StringType()),
        StructField("past_alarms", LongType()),
        StructField("active_days", LongType()),
    ])
    assert never.device_histogram(spark).count() == 0
    assert never.count(spark) == 0
