"""MongoDB substitute: a document store over local parquet (Section 4.2 (2)).

The paper stores alarms and incident reports as JSON-like documents in
MongoDB and queries them by field (e.g. by device address to build the
per-device alarm histogram the streaming consumer attaches to each
verification window). This substitute keeps the same access surface —
named collections, appending inserts, field-equality finds, a histogram
helper — over parquet files scanned by Catalyst, which preserves the
workload shape (filter + aggregate over a long history) on the local
filesystem. Like MongoDB, collections are schema-flexible across
inserts: parquet schema merging tolerates added fields between batches
(the paper's motivation: alarm structure differs across sensor types and
software updates).
"""
from __future__ import annotations

from pathlib import Path

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


class Collection:
    """One named collection of documents, stored as parquet parts."""

    def __init__(self, root: Path, name: str) -> None:
        self.name = name
        self.path = root / name

    def exists(self) -> bool:
        """Whether the collection has ever received an insert."""
        return self.path.exists() and any(self.path.glob("part-*"))

    def insert_many(self, spark: SparkSession, docs: DataFrame | pd.DataFrame) -> int:
        """Append documents; returns the number inserted."""
        df = docs if isinstance(docs, DataFrame) else spark.createDataFrame(docs)
        n = df.count()
        df.write.mode("append").parquet(str(self.path))
        return int(n)

    def find(self, spark: SparkSession, **equals) -> DataFrame:
        """All documents matching the given field-equality predicates.

        ``find(spark, zip_code="4001", alarm_type="fire")`` mirrors a
        MongoDB ``find({zip_code: "4001", alarm_type: "fire"})``; parquet
        filter pushdown plays the role of Mongo's indexes.
        """
        df = spark.read.option("mergeSchema", "true").parquet(str(self.path))
        for field, value in equals.items():
            df = df.where(F.col(field) == F.lit(value))
        return df

    def count(self, spark: SparkSession, **equals) -> int:
        """Number of documents matching the equality predicates."""
        return int(self.find(spark, **equals).count())

    def device_histogram(
        self,
        spark: SparkSession,
        devices: list[str] | None = None,
        since: str | None = None,
    ) -> DataFrame:
        """Per-device daily alarm counts from time ``since`` on.

        This is the batch-component query of every streaming window
        (Figure 3: "histogram of the number of alarms starting from a
        specific time t" for the devices that alarmed); the consumer
        joins the whole-history result to the window, and ``devices``
        restricts it to given devices. Returns device_mac, day, n_alarms.
        """
        df = self.find(spark)
        if since is not None:
            df = df.where(F.col("ts") >= F.lit(since))
        if devices is not None:
            df = df.where(F.col("device_mac").isin(devices))
        return df.groupBy(
            "device_mac", F.to_date("ts").alias("day")
        ).agg(F.count("*").alias("n_alarms"))


class DocumentStore:
    """A set of collections rooted at a local directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def collection(self, name: str) -> Collection:
        """Handle to a (possibly not yet created) collection."""
        return Collection(self.root, name)

    def list_collections(self) -> list[str]:
        """Names of collections that have received inserts."""
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())
