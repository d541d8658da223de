"""Partitioned append-only log: the Kafka substitute (Section 4.2 (1)).

Kafka's essentials, as this application uses them, are: topics split
into partitions; append-only segments; dense per-partition offsets; and
replayability — the property that gives Spark exactly-once semantics
when offsets are tracked in a checkpoint.

This file-backed log preserves all of that on the local filesystem:

- each partition is a directory ``partition=NNNN`` of JSON-lines
  segment files named ``segment-<start_offset>-<count>.jsonl``;
- a segment is written to a hidden temp file (``.segment-….tmp``, which
  Spark's file source skips) and published by a hard link to its final
  name, so a concurrent reader — notably Spark's file streaming source
  pointed at ``<root>/partition=*`` — never observes an unpublished
  segment;
- appends to one partition hold an advisory lock (``flock``) on its
  directory while they pick the start offset and publish, and a
  partition never gets a second segment at a start offset it already
  has (``append`` raises ``FileExistsError``): Spark remembers files by
  path, so replaced lines would never be read, and two segments at one
  start offset would give two records the same offset;
- offsets are dense per partition, and segments are never rewritten,
  so a consumer that checkpoints which segments it has read (Spark's
  file source does) replays deterministically.

The paper's "Kafka streams are not partitioned by default" lesson
(Section 6.2) maps directly: with ``n_partitions=1`` every segment lands
in one directory and the consumer processes serially; repartitioning
restores parallelism.
"""
from __future__ import annotations

import fcntl
import os
import re
import tempfile
from pathlib import Path
from typing import Any, Iterable

from repro.broker.serializers import GsonishSerializer

_SEGMENT_RE = re.compile(r"segment-(\d{12})-(\d+)\.jsonl$")


class PartitionedLog:
    """A single-topic partitioned log rooted at a local directory."""

    def __init__(self, root: str | Path, n_partitions: int = 8) -> None:
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        self.root = Path(root)
        self.n_partitions = n_partitions
        for p in range(n_partitions):
            self.partition_dir(p).mkdir(parents=True, exist_ok=True)

    def partition_dir(self, partition: int) -> Path:
        """Directory holding one partition's segment files."""
        return self.root / f"partition={partition:04d}"

    def glob_path(self) -> str:
        """Path pattern for Spark's file streaming source."""
        return str(self.root / "partition=*")

    # -- producing ----------------------------------------------------
    def append(self, partition: int, lines: list[str]) -> int:
        """Atomically append one segment; returns the new end offset.
        Raises ``FileExistsError`` if a segment at its start offset is
        already published. No lines publish no segment: an empty one
        would hold the start offset that the next append needs."""
        if not lines:
            return self.end_offset(partition)
        pdir = self.partition_dir(partition)
        fd, tmp = tempfile.mkstemp(prefix=".segment-", suffix=".tmp", dir=pdir)
        try:
            with os.fdopen(fd, "w") as f:
                f.write("\n".join(lines) + "\n")
            lock = os.open(pdir, os.O_RDONLY)
            try:
                fcntl.flock(lock, fcntl.LOCK_EX)
                start = self.end_offset(partition)
                if any(pdir.glob(f"segment-{start:012d}-*.jsonl")):
                    raise FileExistsError(f"{pdir} already has a segment at offset {start}")
                os.link(tmp, pdir / f"segment-{start:012d}-{len(lines)}.jsonl")
            finally:
                os.close(lock)  # releases the lock
        finally:
            os.unlink(tmp)
        return start + len(lines)

    def write(
        self,
        records: Iterable[dict[str, Any]],
        serializer=None,
        *,
        records_per_segment: int = 2_000,
    ) -> dict[int, int]:
        """Serialize and round-robin records over partitions.

        Returns the end offset per partition. Segment size bounds the
        latency with which a streaming consumer sees new data.
        """
        serializer = serializer or GsonishSerializer()
        n = self.n_partitions
        buffers: list[list[str]] = [[] for _ in range(n)]
        for i, rec in enumerate(records):
            p = i % n
            buffers[p].append(serializer.dumps(rec))
            if len(buffers[p]) >= records_per_segment:
                self.append(p, buffers[p])
                buffers[p] = []
        for p, buf in enumerate(buffers):
            if buf:
                self.append(p, buf)
        return self.end_offsets()

    # -- offsets -----------------------------------------------------
    def end_offset(self, partition: int) -> int:
        """Next offset to be written in a partition."""
        segs = sorted(
            (int(m.group(1)), int(m.group(2)))
            for f in self.partition_dir(partition).iterdir()
            if (m := _SEGMENT_RE.search(f.name))
        )
        return segs[-1][0] + segs[-1][1] if segs else 0

    def end_offsets(self) -> dict[int, int]:
        """End offset per partition."""
        return {p: self.end_offset(p) for p in range(self.n_partitions)}
