"""Structured Streaming alarm consumer (Figures 3, 4 / Section 5.5).

The paper's consumer couples three components per streaming window:
**stream processing** deserializes the alarms, **batch processing**
looks up each device's histogram of past alarms in the alarm history
(document store), and **machine learning** classifies every alarm
true/false with a probability from the offline-trained model.

Here each window, run in ``foreachBatch``, first reads the per-device
history summary through the driver (``Collection.device_summary``: the
paper's MongoDB query also returns to the driver), then runs one Spark
plan: the parsed batch is scored, left-joined with the broadcast summary
and appended to the parquet sink in one action; the join itself picks
the devices that alarmed, so there is no device extraction step. The
stream is Structured Streaming over the partitioned file log (the modern
successor of the paper's Direct DStreams), which shows it only published
segments; exactly-once comes from the replayable source plus the
checkpoint. Spark's timings are read from the query's own
``StreamingQueryProgress``; the history read is timed by the handle.

The paper's key scalability lesson — an unpartitioned Kafka stream is
consumed serially; repartitioning restores parallelism (Section 6.2) —
maps to the ``repartition`` knob. The file source already splits a
window into about one scan partition per task slot (a 100 K-alarm drain
and a 1.1 K-alarm window alike), so ``repartition=n`` only narrows a
window to ``min(n, defaultParallelism)`` partitions with ``coalesce``
and never shuffles; ``repartition=1`` runs the whole window, parse
included, on one task: the serial path.

Every window creates files: offset, commit and source-log entries in
the checkpoint, and the sink's parts and committer directories. Without
the native ``libhadoop`` (pip-installed PySpark ships none) Hadoop's
local file system forks a ``chmod`` process for every file and directory
it creates, and its default, checksummed variant also writes a ``.crc``
file beside every file. A call therefore runs with ``LOCAL_FS_CONF`` on
the session: the raw variant writes no ``.crc`` file and the sink gets
no ``_SUCCESS`` marker, so a first call on a fresh checkpoint forks 19
``chmod`` processes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (
    DoubleType, IntegerType, LongType, StringType, StructField, StructType,
)

from repro.broker.log import PartitionedLog
from repro.core import verifier
from repro.docstore.store import Collection

# Spark settings that cut the files, and so the forks, each call creates.
# Hadoop caches file systems by scheme and ignores a changed
# ``fs.file.impl`` unless the cache is off. The committer's ``_SUCCESS``
# marker is one more file per write, and nothing reads it. The streaming
# checkpoint writes through ``FileContext`` unless its manager is the
# ``FileSystem``-based one; a query reads that key from its session's conf
# when it starts.
LOCAL_FS_CONF = {
    "fs.file.impl": "org.apache.hadoop.fs.RawLocalFileSystem",
    "fs.file.impl.disable.cache": "true",
    "mapreduce.fileoutputcommitter.marksuccessfuljobs": "false",
    "spark.sql.streaming.checkpointFileManagerClass":
        "org.apache.spark.sql.execution.streaming.checkpointing."
        "FileSystemBasedCheckpointFileManager",
}

ALARM_STREAM_SCHEMA = StructType(
    [
        StructField("alarm_id", LongType()),
        StructField("zip_code", StringType()),
        StructField("ts", StringType()),
        StructField("day_of_week", IntegerType()),
        StructField("hour_of_day", IntegerType()),
        StructField("alarm_type", StringType()),
        StructField("object_type", StringType()),
        StructField("sensor_type", StringType()),
        StructField("sw_version", StringType()),
        StructField("fault_code", IntegerType()),
        StructField("device_mac", StringType()),
        StructField("device_ip", StringType()),
        StructField("duration_s", DoubleType()),
    ]
)


@dataclass
class ConsumerMetrics:
    """Throughput and per-component timing of one run, folded from the
    query's ``StreamingQueryProgress`` entries and the handle's timing of
    the driver-side history read."""

    n_alarms: int = 0
    n_batches: int = 0
    elapsed_s: float = 0.0  # wall clock, query start to drained
    time_streaming_s: float = 0.0  # triggerExecution - addBatch: Spark's engine
    time_history_s: float = 0.0  # driver-side history summary, inside addBatch
    time_ml_s: float = 0.0  # addBatch - history: parse, join, scoring, sink

    @classmethod
    def from_progress(cls, progress: list, elapsed_s: float, history_s: float) -> ConsumerMetrics:
        """Fold the progress entries of the batches that ran ``addBatch``;
        ``history_s`` is the handle's own timing of the history reads."""
        batches = [p["durationMs"] for p in progress if "addBatch" in p["durationMs"]]
        return cls(
            n_alarms=sum(p["numInputRows"] for p in progress),
            n_batches=len(batches),
            elapsed_s=elapsed_s,
            time_streaming_s=sum(d["triggerExecution"] - d["addBatch"] for d in batches) / 1e3,
            time_history_s=history_s,
            time_ml_s=sum(d["addBatch"] for d in batches) / 1e3 - history_s,
        )

    @property
    def alarms_per_s(self) -> float:
        """Verified alarms per wall-clock second."""
        return self.n_alarms / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def breakdown(self) -> dict[str, float]:
        """Fraction of accounted time per component (Figure 12)."""
        parts = {
            "streaming": self.time_streaming_s,
            "history": self.time_history_s,
            "ml": self.time_ml_s,
        }
        total = sum(parts.values()) or 1.0
        return {k: v / total for k, v in parts.items()}


def run_available(
    spark: SparkSession,
    log: PartitionedLog,
    vm: verifier.VerificationModel,
    history: Collection,
    out_dir: str,
    checkpoint_dir: str,
    *,
    repartition: int | None = None,
    timeout_s: float = 600.0,
) -> ConsumerMetrics:
    """Drain everything currently in the log, then stop.

    Returns throughput metrics; the verifications (alarm, verification,
    confidence, history histogram) land in ``out_dir`` as parquet.
    ``repartition=n`` narrows each window to ``min(n, defaultParallelism)``
    partitions without a shuffle; ``None`` keeps the file source's
    partitioning.

    The session holds ``LOCAL_FS_CONF`` for the whole call, and the
    caller's values are restored when it returns or raises: the query
    copies the session's conf when it starts, but Spark builds the file
    source's metadata log later, from the caller's session.
    """

    slots = spark.sparkContext.defaultParallelism
    history_s: list[float] = []

    def handle(batch_df: DataFrame, _batch_id: int) -> None:
        batch = batch_df.coalesce(min(repartition, slots)) if repartition else batch_df
        t0 = time.perf_counter()
        hist = history.device_summary(spark)
        history_s.append(time.perf_counter() - t0)
        (
            verifier.verify(vm, batch)
            .join(F.broadcast(hist), "device_mac", "left")
            .fillna({"past_alarms": 0, "active_days": 0})
            .write.mode("append").parquet(out_dir)
        )

    saved = {key: spark.conf.get(key, None) for key in LOCAL_FS_CONF}
    for key, value in LOCAL_FS_CONF.items():
        spark.conf.set(key, value)
    try:
        t_start = time.perf_counter()
        query = (
            spark.readStream.schema(ALARM_STREAM_SCHEMA).json(log.glob_path())
            .writeStream.foreachBatch(handle)
            .option("checkpointLocation", checkpoint_dir)
            .trigger(availableNow=True)
            .start()
        )
        query.awaitTermination(timeout_s)
        metrics = ConsumerMetrics.from_progress(
            query.recentProgress, time.perf_counter() - t_start, sum(history_s)
        )
        if query.isActive:
            query.stop()
            raise TimeoutError(
                f"log not drained within {timeout_s} s "
                f"({metrics.n_alarms} alarms in {metrics.n_batches} batches)"
            )
    finally:
        for key, value in saved.items():
            if value is None:
                spark.conf.unset(key)
            else:
                spark.conf.set(key, value)
    return metrics
