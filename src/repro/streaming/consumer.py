"""Structured Streaming alarm consumer (Figures 3, 4 / Section 5.5).

The paper's consumer couples three components per streaming window:
**stream processing** deserializes the alarms, **batch processing**
looks up each device's histogram of past alarms in the alarm history
(document store), and **machine learning** classifies every alarm
true/false with a probability from the offline-trained model.

Here the three are one Spark plan per window, run in ``foreachBatch``:
the parsed batch is scored, left-joined with the broadcast per-device
history histogram and appended to the parquet sink in one action; the
join itself picks the devices that alarmed, so there is no device
extraction step. The stream is Structured Streaming over the partitioned
file log (the modern successor of the paper's Direct DStreams);
exactly-once comes from the replayable source plus the checkpoint.
Timings are read from the query's own ``StreamingQueryProgress``.

The paper's key scalability lesson — an unpartitioned Kafka stream is
consumed serially; repartitioning restores parallelism (Section 6.2) —
maps to the ``repartition`` knob: the file source's parallelism follows
the segment-file layout, and an explicit repartition spreads scoring
across all cores.
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
    query's ``StreamingQueryProgress`` entries."""

    n_alarms: int = 0
    n_batches: int = 0
    elapsed_s: float = 0.0  # wall clock, query start to drained
    time_streaming_s: float = 0.0  # triggerExecution - addBatch: Spark's engine
    # The history is the broadcast side of the window plan and has no
    # wall time of its own; fixed at 0 (timed alone by perfbench).
    time_history_s: float = 0.0
    time_ml_s: float = 0.0  # addBatch: parse, history join, scoring, sink

    @classmethod
    def from_progress(cls, progress: list, elapsed_s: float) -> ConsumerMetrics:
        """Fold the progress entries of the batches that ran ``addBatch``."""
        batches = [p["durationMs"] for p in progress if "addBatch" in p["durationMs"]]
        return cls(
            n_alarms=sum(p["numInputRows"] for p in progress),
            n_batches=len(batches),
            elapsed_s=elapsed_s,
            time_streaming_s=sum(d["triggerExecution"] - d["addBatch"] for d in batches) / 1e3,
            time_ml_s=sum(d["addBatch"] for d in batches) / 1e3,
        )

    @property
    def alarms_per_s(self) -> float:
        """Verified alarms per wall-clock second."""
        return self.n_alarms / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def breakdown(self) -> dict[str, float]:
        """Fraction of accounted time per component (Figure 12)."""
        total = (self.time_streaming_s + self.time_ml_s) or 1.0
        return {"streaming": self.time_streaming_s / total, "ml": self.time_ml_s / total}


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

    def handle(batch_df: DataFrame, _batch_id: int) -> None:
        batch = batch_df.repartition(repartition) if repartition else batch_df
        hist = (
            history.device_histogram(spark)
            .groupBy("device_mac")
            .agg(
                F.sum("n_alarms").alias("past_alarms"),
                F.count("*").alias("active_days"),
            )
        )
        (
            verifier.verify(vm, batch)
            .join(F.broadcast(hist), "device_mac", "left")
            .fillna({"past_alarms": 0, "active_days": 0})
            .write.mode("append").parquet(out_dir)
        )

    t_start = time.perf_counter()
    query = (
        read_stream(spark, log)
        .writeStream.foreachBatch(handle)
        .option("checkpointLocation", checkpoint_dir)
        .trigger(availableNow=True)
        .start()
    )
    query.awaitTermination(timeout_s)
    metrics = ConsumerMetrics.from_progress(
        query.recentProgress, time.perf_counter() - t_start
    )
    if query.isActive:
        query.stop()
        raise TimeoutError(
            f"log not drained within {timeout_s} s "
            f"({metrics.n_alarms} alarms in {metrics.n_batches} batches)"
        )
    return metrics
