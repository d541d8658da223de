"""MongoDB substitute: a document store over local parquet (Section 4.2 (2)).

The paper stores alarms and incident reports as JSON-like documents in
MongoDB and queries them by field (e.g. by device address to build the
per-device alarm histogram the streaming consumer attaches to each
verification window). This substitute keeps the same access surface —
named collections, appending inserts, field-equality finds, a histogram
helper — over parquet part files. ``find`` and ``count`` are Spark scans
(filter pushdown plays the role of Mongo's indexes). The history queries
(``device_summary``, ``device_histogram``) read only ``device_mac`` and
``ts`` from the parts into the driver with ``pyarrow.dataset`` and
aggregate there, as the paper's MongoDB query also returns its result
to the driver, then hand the small result to Spark as a DataFrame; that
read and aggregate run no Spark job, which is what a streaming window
pays for its history lookup. Days are UTC days. Like MongoDB,
collections are schema-flexible across inserts: added fields between
batches are tolerated (the paper's motivation: alarm structure differs
across sensor types and software updates).

Spark writes the parts with the ``LOCAL_FS_CONF`` settings. Without the
native ``libhadoop`` (pip-installed PySpark ships none) Hadoop's local
file system forks a ``chmod`` process for every file and directory it
creates. Its default, checksummed variant also writes a ``.crc`` file
beside every file; the raw variant writes none, and with the committer's
``_SUCCESS`` marker also left out an insert creates 5 files and
directories instead of 8.
"""
from __future__ import annotations

from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as ds
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import DateType, LongType, StringType, StructField, StructType

HISTOGRAM_SCHEMA = StructType(
    [
        StructField("device_mac", StringType()),
        StructField("day", DateType()),
        StructField("n_alarms", LongType()),
    ]
)
SUMMARY_SCHEMA = StructType(
    [
        StructField("device_mac", StringType()),
        StructField("past_alarms", LongType()),
        StructField("active_days", LongType()),
    ]
)
_EMPTY_ALARMS = pa.schema([("device_mac", pa.string()), ("ts", pa.timestamp("us"))])
# Spark settings that cut the files, and so the forks, each write creates.
# Hadoop caches file systems by scheme and ignores a changed
# ``fs.file.impl`` unless the cache is off. The committer's ``_SUCCESS``
# marker is one more file per write, and nothing reads it. The streaming
# checkpoint writes through ``FileContext`` unless its manager is the
# ``FileSystem``-based one; a query reads that key from its session's conf
# when it starts, and a batch write ignores it.
LOCAL_FS_CONF = {
    "fs.file.impl": "org.apache.hadoop.fs.RawLocalFileSystem",
    "fs.file.impl.disable.cache": "true",
    "mapreduce.fileoutputcommitter.marksuccessfuljobs": "false",
    "spark.sql.streaming.checkpointFileManagerClass":
        "org.apache.spark.sql.execution.streaming.checkpointing."
        "FileSystemBasedCheckpointFileManager",
}


class Collection:
    """One named collection of documents, stored as parquet parts."""

    def __init__(self, root: Path, name: str) -> None:
        self.name = name
        self.path = root / name

    def _parts(self) -> list[str]:
        return sorted(str(p) for p in self.path.glob("part-*"))

    def insert_many(self, spark: SparkSession, docs: DataFrame | pd.DataFrame) -> int:
        """Append documents; returns the number inserted.

        The count comes from the footers of the part files the write
        added, so the input is not read a second time.
        """
        df = docs if isinstance(docs, DataFrame) else spark.createDataFrame(docs)
        before = set(self._parts())
        df.write.options(**LOCAL_FS_CONF).mode("append").parquet(str(self.path))
        return sum(
            pq.ParquetFile(p).metadata.num_rows for p in self._parts() if p not in before
        )

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

    def _alarm_days(self) -> pa.Table:
        """``device_mac``, ``ts`` and its UTC ``day`` of every stored
        document, read from the part files in the driver."""
        parts = self._parts()
        table = (
            ds.dataset(parts, format="parquet").to_table(columns=["device_mac", "ts"])
            if parts
            else _EMPTY_ALARMS.empty_table()
        )
        return table.append_column("day", pc.cast(table["ts"], pa.date32()))

    def device_summary(self, spark: SparkSession) -> DataFrame:
        """One row per device of the whole history: ``past_alarms``, its
        number of alarms, and ``active_days``, the distinct days on which
        it alarmed. This is the batch-component lookup of every streaming
        window (Figure 3); an empty collection gives no rows."""
        summary = (
            self._alarm_days()
            .group_by("device_mac")
            .aggregate([([], "count_all"), ("day", "count_distinct")])
            .select(["device_mac", "count_all", "day_count_distinct"])
            .rename_columns(SUMMARY_SCHEMA.names)
        )
        return spark.createDataFrame(summary, SUMMARY_SCHEMA)

    def device_histogram(
        self,
        spark: SparkSession,
        devices: list[str] | None = None,
        since: str | None = None,
    ) -> DataFrame:
        """Per-device daily alarm counts from time ``since`` on.

        Figure 3's "histogram of the number of alarms starting from a
        specific time t" for the devices that alarmed; ``devices``
        restricts it to given devices, and ``since`` is compared on
        ``ts`` before it is floored to its day. Returns device_mac, day,
        n_alarms.
        """
        table = self._alarm_days()
        if since is not None:
            table = table.filter(pc.field("ts") >= pd.Timestamp(since))
        if devices is not None:
            table = table.filter(pc.field("device_mac").isin(devices))
        hist = (
            table.group_by(["device_mac", "day"])
            .aggregate([([], "count_all")])
            .select(["device_mac", "day", "count_all"])
            .rename_columns(HISTOGRAM_SCHEMA.names)
        )
        return spark.createDataFrame(hist, HISTOGRAM_SCHEMA)


class DocumentStore:
    """A set of collections rooted at a local directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def collection(self, name: str) -> Collection:
        """Handle to a (possibly not yet created) collection."""
        return Collection(self.root, name)
