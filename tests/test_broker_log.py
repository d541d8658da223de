"""Tests for the partitioned log (Kafka substitute)."""
from __future__ import annotations

import os
import re
import sys
import threading

import pytest

from repro.broker.log import PartitionedLog
from repro.broker.serializers import GsonishSerializer


def _records(n):
    return [{"alarm_id": i, "zip_code": "4001", "duration_s": float(i)} for i in range(n)]


@pytest.fixture()
def log(tmp_path):
    return PartitionedLog(tmp_path / "log", n_partitions=4)


def test_partition_dirs_created(log):
    for p in range(4):
        assert log.partition_dir(p).is_dir()


def test_invalid_partition_count(tmp_path):
    with pytest.raises(ValueError):
        PartitionedLog(tmp_path / "x", n_partitions=0)


def test_round_robin_distribution(log):
    log.write(_records(40))
    offsets = log.end_offsets()
    assert offsets == {0: 10, 1: 10, 2: 10, 3: 10}


def test_total_records(log):
    log.write(_records(17))
    assert sum(log.end_offsets().values()) == 17


def test_append_returns_end_offset(log):
    end = log.append(2, ["a", "b", "c"])
    assert end == 3
    assert log.end_offset(2) == 3
    end = log.append(2, ["d"])
    assert end == 4


def test_empty_append_publishes_nothing(log):
    """An append with no lines publishes no segment, so the next append
    still finds its start offset free."""
    log.append(0, ["a", "b"])
    assert log.append(0, []) == 2
    assert log.append(0, ["c"]) == 3
    assert sorted(f.name for f in log.partition_dir(0).iterdir()) == [
        "segment-000000000000-2.jsonl", "segment-000000000002-1.jsonl"
    ]


def test_segment_size_bounds_files(log):
    log.write(_records(100), records_per_segment=10)
    files = [f for f in log.partition_dir(0).iterdir() if f.suffix == ".jsonl"]
    assert len(files) >= 2


def test_no_partial_segments_visible(log):
    # Every temp file is removed once its segment is published.
    log.write(_records(50))
    for p in range(4):
        assert not list(log.partition_dir(p).glob("*.tmp"))


def test_serialized_lines_are_json(log):
    ser = GsonishSerializer()
    log.write(_records(8), ser)
    (segment,) = log.partition_dir(0).glob("segment-*.jsonl")
    lines = segment.read_text().splitlines()
    assert [ser.loads(line)["alarm_id"] for line in lines] == [0, 4]
    assert all(ser.loads(line)["zip_code"] == "4001" for line in lines)


def test_single_partition_serial_layout(tmp_path):
    """The paper's unpartitioned-Kafka-stream pitfall: everything lands
    in one partition directory."""
    log = PartitionedLog(tmp_path / "one", n_partitions=1)
    log.write(_records(30))
    assert log.end_offsets() == {0: 30}


def test_glob_path_matches_partitions(log):
    assert log.glob_path().endswith("partition=*")


def test_write_layout_is_round_robin_per_segment(log):
    """Record ``i`` goes to partition ``i % 4``; each partition cuts a
    segment every 5 of its records, named by start offset and count."""
    log.write(_records(45), records_per_segment=5)
    ser = GsonishSerializer()
    expected = {
        0: {
            "segment-000000000000-5.jsonl": [0, 4, 8, 12, 16],
            "segment-000000000005-5.jsonl": [20, 24, 28, 32, 36],
            "segment-000000000010-2.jsonl": [40, 44],
        },
        1: {
            "segment-000000000000-5.jsonl": [1, 5, 9, 13, 17],
            "segment-000000000005-5.jsonl": [21, 25, 29, 33, 37],
            "segment-000000000010-1.jsonl": [41],
        },
        2: {
            "segment-000000000000-5.jsonl": [2, 6, 10, 14, 18],
            "segment-000000000005-5.jsonl": [22, 26, 30, 34, 38],
            "segment-000000000010-1.jsonl": [42],
        },
        3: {
            "segment-000000000000-5.jsonl": [3, 7, 11, 15, 19],
            "segment-000000000005-5.jsonl": [23, 27, 31, 35, 39],
            "segment-000000000010-1.jsonl": [43],
        },
    }
    for p, segments in expected.items():
        got = {
            f.name: [ser.loads(line)["alarm_id"] for line in f.read_text().splitlines()]
            for f in log.partition_dir(p).iterdir()
        }
        assert got == segments


def test_unpublished_segment_invisible_to_spark(spark, log, monkeypatch):
    """Section 4.2: a reader listing the log while a segment is written
    sees only published segments. The publish step (whichever call does
    it) runs the readers and then fails, so the segment never appears."""
    log.write(_records(8))
    schema = "alarm_id LONG, zip_code STRING, duration_s DOUBLE"
    seen = []

    def read_then_fail(_src, _dst):
        batch = spark.read.schema(schema).json(log.glob_path())
        stream = (
            spark.readStream.schema(schema).json(log.glob_path())
            .writeStream.format("memory").queryName("log_during_publish")
            .trigger(availableNow=True).start()
        )
        stream.awaitTermination()
        for df in (batch, spark.table("log_during_publish")):
            seen.append(sorted(r.alarm_id for r in df.select("alarm_id").collect()))
        raise OSError("injected publish failure")

    monkeypatch.setattr(os, "link", read_then_fail)
    monkeypatch.setattr(os, "replace", read_then_fail)
    ser = GsonishSerializer()
    with pytest.raises(OSError, match="injected publish failure"):
        log.append(2, [ser.dumps(r) for r in _records(110)[100:]])
    assert seen == [list(range(8))] * 2
    assert sum(log.end_offsets().values()) == 8


def test_publish_never_replaces_a_segment(log, monkeypatch):
    """A writer with a stale end offset must not overwrite a segment that
    is already published: Spark remembers files by path, so replaced
    lines would never be read."""
    log.append(1, ["a", "b"])
    (first,) = log.partition_dir(1).iterdir()
    monkeypatch.setattr(log, "end_offset", lambda _partition: 0)
    with pytest.raises(FileExistsError):
        log.append(1, ["x", "y"])
    assert first.read_bytes() == b"a\nb\n"
    assert list(log.partition_dir(1).iterdir()) == [first]


def test_one_segment_per_start_offset(log, monkeypatch):
    """Two writers that both read end offset 0 must not both publish, even
    with different counts: the second segment's records would share
    offsets with the first's."""
    log.append(0, ["a", "b"])
    (first,) = log.partition_dir(0).iterdir()
    with monkeypatch.context() as m:
        m.setattr(log, "end_offset", lambda _partition: 0)
        with pytest.raises(FileExistsError):
            log.append(0, ["x"])
    assert list(log.partition_dir(0).iterdir()) == [first]
    assert log.end_offset(0) == 2


def test_concurrent_appends_tile_offsets(tmp_path):
    """Writers appending to one partition at once get dense, disjoint
    offsets: every segment starts where the one before it ends."""
    log = PartitionedLog(tmp_path / "log", n_partitions=1)
    sizes = [[1 + (w + i) % 4 for i in range(25)] for w in range(8)]
    errors = []

    def writer(counts):
        try:
            for n in counts:
                log.append(0, ["x"] * n)
        except OSError as e:  # reported by the assertion below
            errors.append(e)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(c,)) for c in sizes]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    segments = sorted(
        (int(m.group(1)), int(m.group(2)))
        for f in log.partition_dir(0).iterdir()
        if (m := re.fullmatch(r"segment-(\d+)-(\d+)\.jsonl", f.name))
    )
    ends = [start + n for start, n in segments]
    assert [start for start, _ in segments] == [0, *ends[:-1]]
    assert ends[-1] == sum(map(sum, sizes))
