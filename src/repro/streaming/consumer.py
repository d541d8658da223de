"""Structured Streaming alarm consumer (Figures 3, 4 / Section 5.5).

The paper's consumer couples the three components per streaming window:

1. **Stream processing** — deserialize the alarms of the window and
   identify the distinct devices that alarmed;
2. **Batch processing** — query the alarm history (document store) for
   the histogram of past alarms of exactly those devices;
3. **Machine learning** — classify every alarm true/false with a
   probability from the offline-trained model.

Here the stream is Spark Structured Streaming over the partitioned
file log (the modern successor of the paper's Direct DStreams, per the
reproduction target); the per-window logic runs in ``foreachBatch``.
Exactly-once comes from the replayable source plus the checkpoint.

The paper's key scalability lesson — an unpartitioned Kafka stream is
consumed serially; repartitioning restores parallelism (Section 6.2) —
maps to the ``repartition`` knob: the file source's parallelism follows
the segment-file layout, and an explicit repartition spreads scoring
across all cores.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (
    DoubleType, IntegerType, LongType, StringType, StructField, StructType,
)

from repro.broker.log import PartitionedLog
from repro.core import verifier
from repro.docstore.store import Collection

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
    """Wall-clock throughput and per-component timing of one run."""

    n_alarms: int = 0
    n_batches: int = 0
    elapsed_s: float = 0.0
    time_streaming_s: float = 0.0  # parse + device extraction
    time_history_s: float = 0.0  # document-store histogram query
    time_ml_s: float = 0.0  # model scoring + sink

    @property
    def alarms_per_s(self) -> float:
        """Verified alarms per wall-clock second."""
        return self.n_alarms / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def breakdown(self) -> dict[str, float]:
        """Fraction of accounted time per component (Figure 12)."""
        total = self.time_streaming_s + self.time_history_s + self.time_ml_s
        if total == 0:
            return {"streaming": 0.0, "history": 0.0, "ml": 0.0}
        return {
            "streaming": self.time_streaming_s / total,
            "history": self.time_history_s / total,
            "ml": self.time_ml_s / total,
        }


def read_stream(spark: SparkSession, log: PartitionedLog) -> DataFrame:
    """The alarm stream as a streaming DataFrame over the log directory."""
    return spark.readStream.schema(ALARM_STREAM_SCHEMA).json(log.glob_path())


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
    """
    metrics = ConsumerMetrics()

    def handle(batch_df: DataFrame, _batch_id: int) -> None:
        t0 = time.perf_counter()
        batch = batch_df.repartition(repartition) if repartition else batch_df
        batch = batch.withColumn("event_ts", F.to_timestamp("ts")).cache()
        n = batch.count()
        devices = [r[0] for r in batch.select("device_mac").distinct().collect()]
        t1 = time.perf_counter()

        hist = (
            history.device_histogram(spark, devices)
            .groupBy("device_mac")
            .agg(
                F.sum("n_alarms").alias("past_alarms"),
                F.count("*").alias("active_days"),
            )
        )
        hist.count()  # materialize the history query inside its timer
        t2 = time.perf_counter()

        scored = verifier.verify(vm, batch).join(hist, "device_mac", "left").fillna(
            {"past_alarms": 0, "active_days": 0}
        )
        scored.drop("event_ts").write.mode("append").parquet(out_dir)
        batch.unpersist()
        t3 = time.perf_counter()

        metrics.n_alarms += n
        metrics.n_batches += 1
        metrics.time_streaming_s += t1 - t0
        metrics.time_history_s += t2 - t1
        metrics.time_ml_s += t3 - t2

    t_start = time.perf_counter()
    query = (
        read_stream(spark, log)
        .writeStream.foreachBatch(handle)
        .option("checkpointLocation", checkpoint_dir)
        .trigger(availableNow=True)
        .start()
    )
    query.awaitTermination(timeout_s)
    if query.isActive:
        query.stop()
        raise TimeoutError(
            f"log not drained within {timeout_s} s "
            f"({metrics.n_alarms} alarms in {metrics.n_batches} batches)"
        )
    metrics.elapsed_s = time.perf_counter() - t_start
    return metrics
