"""Structured Streaming consumer tests (workflow of Figures 3/4)."""
from __future__ import annotations

import pytest
from pyspark.errors import StreamingQueryException
from pyspark.sql import functions as F

from repro import oracle
from repro.broker.log import PartitionedLog
from repro.broker.producer import stream_from_test_set
from repro.core import verifier
from repro.docstore.store import DocumentStore
from repro.streaming import consumer
from repro.streaming.consumer import LOCAL_FS_CONF


@pytest.fixture(scope="module")
def stream_env(tmp_path_factory, spark, sitasys_split, rf_model):
    """A produced log + history store + drained consumer output."""
    tmp = tmp_path_factory.mktemp("stream")
    train_df, test_df = sitasys_split
    store = DocumentStore(tmp / "db")
    history = store.collection("alarms")
    history.insert_many(spark, train_df)
    log = PartitionedLog(tmp / "log", n_partitions=4)
    test_pdf = test_df.drop("label").toPandas()
    stats = stream_from_test_set(log, test_pdf, n_alarms=3_000, seed=5)
    metrics = consumer.run_available(
        spark, log, rf_model, history, str(tmp / "out"), str(tmp / "ckpt"),
        repartition=8,
    )
    out = spark.read.parquet(str(tmp / "out")).cache()
    out.count()
    yield log, history, stats, metrics, out, tmp
    out.unpersist()


def test_producer_wrote_everything(stream_env):
    log, _h, stats, _m, _out, _tmp = stream_env
    assert stats.n_records == 3_000
    assert sum(log.end_offsets().values()) == 3_000


def test_consumer_processes_every_alarm_exactly_once(stream_env):
    _l, _h, _s, metrics, out, _tmp = stream_env
    assert metrics.n_alarms == 3_000
    assert out.count() == 3_000
    assert out.select("alarm_id").distinct().count() == 3_000


def test_output_carries_verification_and_confidence(stream_env):
    _l, _h, _s, _m, out, _tmp = stream_env
    assert "verification" in out.columns
    assert "confidence" in out.columns
    n_bad = out.where(
        (F.col("confidence") < 0.5) | (F.col("confidence") > 1.0)
    ).count()
    assert n_bad == 0


def test_output_carries_history_histogram(stream_env):
    _l, _h, _s, _m, out, _tmp = stream_env
    assert "past_alarms" in out.columns and "active_days" in out.columns
    # Devices present in the training history must show past alarms.
    assert out.where(F.col("past_alarms") > 0).count() > 0


def test_sink_history_fields_match_duckdb(spark, stream_env):
    """Each sunk alarm carries its device's whole history: ``past_alarms``
    is the number of history alarms and ``active_days`` the number of
    distinct days on which the device alarmed; both 0 without history."""
    _l, history, _s, _m, out, _tmp = stream_env
    oracle.assert_equivalent(
        out.select("alarm_id", "device_mac", "past_alarms", "active_days"),
        """
        SELECT s.alarm_id, s.device_mac,
               coalesce(h.past_alarms, 0) AS past_alarms,
               coalesce(h.active_days, 0) AS active_days
        FROM sink s LEFT JOIN (
            SELECT device_mac, count(*) AS past_alarms,
                   count(DISTINCT CAST(ts AS DATE)) AS active_days
            FROM hist GROUP BY device_mac
        ) h USING (device_mac)
        """,
        sink=out.select("alarm_id", "device_mac"),
        hist=spark.read.parquet(str(history.path)).select("device_mac", "ts"),
    )


def test_streaming_scores_match_batch_scores(spark, stream_env, rf_model):
    """The stream-side model application is the batch transform — same
    alarm, same verification."""
    _l, _h, _s, _m, out, _tmp = stream_env
    sample = out.select(
        "alarm_id", "zip_code", "day_of_week", "hour_of_day", "alarm_type",
        "object_type", "sensor_type", "sw_version", "fault_code",
        "device_mac", "device_ip", "ts", "duration_s", "verification",
    ).limit(300)
    rescored = verifier.verify(rf_model, sample.drop("verification"))
    joined = sample.alias("s").join(
        rescored.alias("r").select("alarm_id", F.col("verification").alias("v2")),
        "alarm_id",
    )
    assert joined.where(F.col("verification") != F.col("v2")).count() == 0


def test_restart_does_not_reprocess(spark, stream_env, rf_model):
    """Checkpointed exactly-once: draining again consumes nothing new."""
    log, history, _s, _m, _out, tmp = stream_env
    metrics2 = consumer.run_available(
        spark, log, rf_model, history, str(tmp / "out"), str(tmp / "ckpt"),
    )
    assert metrics2.n_alarms == 0
    out = spark.read.parquet(str(tmp / "out"))
    assert out.count() == 3_000


def test_new_records_after_restart_are_consumed(spark, stream_env, rf_model, sitasys_split):
    log, history, _s, _m, _out, tmp = stream_env
    _train, test_df = sitasys_split
    stream_from_test_set(
        log, test_df.drop("label").limit(500).toPandas(), n_alarms=200, seed=9
    )
    metrics3 = consumer.run_available(
        spark, log, rf_model, history, str(tmp / "out"), str(tmp / "ckpt"),
    )
    assert metrics3.n_alarms == 200


def test_metrics_breakdown_sums_to_one(stream_env):
    _l, _h, _s, metrics, _out, _tmp = stream_env
    b = metrics.breakdown()
    assert set(b) == {"streaming", "history", "ml"}
    assert sum(b.values()) == pytest.approx(1.0)
    assert metrics.alarms_per_s > 0
    assert metrics.n_batches >= 1
    assert metrics.time_history_s > 0
    assert (metrics.time_streaming_s + metrics.time_history_s + metrics.time_ml_s
            <= metrics.elapsed_s)


@pytest.fixture()
def small_log(tmp_path, sitasys_split):
    """A fresh 600-alarm, 2-partition log."""
    _train, test_df = sitasys_split
    log = PartitionedLog(tmp_path / "log", n_partitions=2)
    stream_from_test_set(
        log, test_df.drop("label").limit(1_000).toPandas(), n_alarms=600, seed=3
    )
    return log


def test_one_window_runs_few_spark_jobs(spark, stream_env, rf_model, small_log, tmp_path):
    """A window is one plan: score, history join and sink in one action;
    the history is read and aggregated in the driver, not by Spark. Job ids
    are sequential, so the call ran the jobs between two sentinel jobs run
    under a group of their own."""
    _l, history, _s, _m, _out, _tmp = stream_env
    sc = spark.sparkContext
    group = "test-one-window-jobs"

    def sentinel() -> int:
        sc.setJobGroup(group, "sentinel")
        sc.parallelize([0], 1).count()
        sc.setLocalProperty("spark.jobGroup.id", None)
        return max(sc.statusTracker().getJobIdsForGroup(group))

    before = sentinel()
    metrics = consumer.run_available(
        spark, small_log, rf_model, history, str(tmp_path / "out"),
        str(tmp_path / "ckpt"), repartition=8,
    )
    n_jobs = sentinel() - before - 1
    assert metrics.n_batches == 1
    assert n_jobs <= 3, f"{n_jobs} Spark jobs for one window"


@pytest.mark.parametrize("repartition", [64, 1])
def test_repartition_is_capped_at_task_slots(spark, stream_env, rf_model, small_log,
                                             tmp_path, repartition):
    """More partitions than task slots only add tasks and sink files, so a
    window writes at most ``defaultParallelism`` files; ``repartition=1``
    stays the serial path (Section 6.2) with exactly one."""
    _l, history, _s, _m, _out, _tmp = stream_env
    out = tmp_path / "out"
    consumer.run_available(
        spark, small_log, rf_model, history, str(out), str(tmp_path / "ckpt"),
        repartition=repartition,
    )
    n_files = len(list(out.glob("part-*")))
    if repartition == 1:
        assert n_files == 1
    else:
        assert 1 <= n_files <= spark.sparkContext.defaultParallelism


def test_empty_history_sinks_zeros(spark, rf_model, small_log, tmp_path):
    """A history that never received an insert gives every alarm
    ``past_alarms = active_days = 0``."""
    history = DocumentStore(tmp_path / "db").collection("alarms")
    out = tmp_path / "out"
    metrics = consumer.run_available(
        spark, small_log, rf_model, history, str(out), str(tmp_path / "ckpt"),
    )
    sink = spark.read.parquet(str(out))
    assert metrics.n_alarms == sink.count() == 600
    assert sink.where((F.col("past_alarms") != 0) | (F.col("active_days") != 0)).count() == 0


def test_failed_window_is_redelivered(spark, stream_env, rf_model, small_log, tmp_path,
                                      monkeypatch):
    """Section 4.2: a window whose processing fails is not committed, so the
    next run re-reads it; no alarm is missed and none is sunk twice."""
    _l, history, _s, _m, _out, _tmp = stream_env
    out, ckpt = str(tmp_path / "out"), str(tmp_path / "ckpt")

    def fail(*_args, **_kwargs):
        raise RuntimeError("injected scoring failure")

    with monkeypatch.context() as m:
        m.setattr(verifier, "verify", fail)
        with pytest.raises(StreamingQueryException):
            consumer.run_available(spark, small_log, rf_model, history, out, ckpt)
    assert all(spark.conf.get(key, None) is None for key in LOCAL_FS_CONF)
    metrics = consumer.run_available(spark, small_log, rf_model, history, out, ckpt)
    sink = spark.read.parquet(out)
    assert metrics.n_alarms == 600
    assert sink.count() == 600
    assert sink.select("alarm_id").distinct().count() == 600
    assert all(spark.conf.get(key, None) is None for key in LOCAL_FS_CONF)


def test_timeout_raises(spark, stream_env, rf_model, small_log, tmp_path):
    """A drain cut short by its timeout is an error, not an empty result."""
    _l, history, _s, _m, _out, _tmp = stream_env
    with pytest.raises(TimeoutError):
        consumer.run_available(
            spark, small_log, rf_model, history, str(tmp_path / "out"),
            str(tmp_path / "ckpt"), timeout_s=0.01,
        )
    assert all(spark.conf.get(key, None) is None for key in LOCAL_FS_CONF)


def test_call_writes_no_checksum_files(spark, stream_env, rf_model, small_log, tmp_path):
    """A call creates its checkpoint, source log and sink files through the
    raw local file system, which writes no ``.crc`` file beside each."""
    _l, history, _s, _m, _out, _tmp = stream_env
    out, ckpt = tmp_path / "out", tmp_path / "ckpt"
    consumer.run_available(spark, small_log, rf_model, history, str(out), str(ckpt))
    assert list((ckpt / "sources").rglob("*")) and list(out.glob("part-*"))
    assert sorted(p for d in (ckpt, out) for p in d.rglob("*.crc")) == []
