"""Tests for the partitioned log (Kafka substitute)."""
from __future__ import annotations

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
    assert log.total_records() == 17


def test_append_returns_end_offset(log):
    end = log.append(2, ["a", "b", "c"])
    assert end == 3
    assert log.end_offset(2) == 3
    end = log.append(2, ["d"])
    assert end == 4


def test_segment_size_bounds_files(log):
    log.write(_records(100), records_per_segment=10)
    files = [f for f in log.partition_dir(0).iterdir() if f.suffix == ".jsonl"]
    assert len(files) >= 2


def test_no_partial_segments_visible(log):
    # Atomic rename: no .tmp files remain after append.
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
