"""Alarm feed for the benchmark: the log layout, sampling, the generator.

Imported by ``run.py`` for pre-filled logs and due times, and run as its
own process for the open-loop generator of the ``ingest`` workload:

    python3 perfbench/feed.py --log DIR --pool FILE --ticks FILE --seed N

The generator appends one segment to every partition once per second
(``RATE`` alarms over ``N_PARTITIONS`` partitions), on a fixed schedule
that does not slow down when the consumer does (an open loop).
Partitions take turns: partition ``p`` appends at ``t0 + k + p/n`` for
tick ``k``, so due times are spread over the second instead of arriving
in one burst. The schedule starts when a line ``go`` arrives on standard
input (the pool file must exist by then), so the process can start while
the consumer sets up. It ends on SIGTERM, on end of input, or when its
parent exits. Each append leaves one JSON line in the ticks file (first
alarm id and count, due time, when the write started, dumps and append
time), written only after the segment is in the log, so the file never
names an alarm the log does not hold. ``due_times`` maps alarm ids back
to due times from these records.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from typing import Iterator

import numpy as np
import pandas as pd

N_PARTITIONS, SEGMENT = 8, 4_000  # ROADMAP's log layout
RATE = 1_000  # open-loop alarms/s


def sample_alarms(
    pool: list[dict], first_id: int, n: int, rng: np.random.Generator
) -> Iterator[dict]:
    """``n`` alarms drawn from the pool's records, ids from ``first_id``.

    ``pool`` is the test-set pool converted once by
    ``producer.alarms_to_records``. Each alarm is a copy of a pool record
    with a new ``alarm_id``, so a large backlog costs little beyond its
    serialization.
    """
    picks = rng.integers(0, len(pool), n).tolist()
    for alarm_id, i in enumerate(picks, start=first_id):
        yield {**pool[i], "alarm_id": alarm_id}


class TimedSerializer:
    """``GsonishSerializer`` that adds up the time spent in ``dumps``."""

    def __init__(self) -> None:
        from repro.broker.serializers import GsonishSerializer

        self.inner = GsonishSerializer()
        self.seconds = 0.0
        self.count = 0

    def dumps(self, record: dict) -> str:
        t0 = time.perf_counter()
        line = self.inner.dumps(record)
        self.seconds += time.perf_counter() - t0
        self.count += 1
        return line


def generate(args: argparse.Namespace) -> None:
    """Open-loop generator main loop (one process, one thread)."""
    from repro.broker.log import PartitionedLog
    from repro.broker.producer import alarms_to_records

    stop = False

    def on_term(_signum, _frame):
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    parent = os.getppid()
    if sys.stdin.readline().strip() != "go":
        return
    pool = alarms_to_records(pd.read_parquet(args.pool))
    log = PartitionedLog(args.log, n_partitions=N_PARTITIONS)
    ser = TimedSerializer()
    rng = np.random.default_rng(args.seed)
    n = N_PARTITIONS
    per_segment = RATE // n
    mono0, wall0 = time.monotonic(), time.time()
    with open(args.ticks, "a") as ticks:
        j = 0
        while not stop and os.getppid() == parent:
            delay = mono0 + j / n - time.monotonic()
            if delay > 0:
                time.sleep(delay)
                if stop:
                    break
            start = time.time()
            first_id = j * per_segment + 1
            records = sample_alarms(pool, first_id, per_segment, rng)
            dumped_s = ser.seconds
            lines = [ser.dumps(r) for r in records]
            t0 = time.perf_counter()
            log.append(j % n, lines)
            append_s = time.perf_counter() - t0
            ticks.write(json.dumps({
                "segment": j, "partition": j % n, "first_id": first_id,
                "n": per_segment, "due": wall0 + j / n, "start": start,
                "dumps_s": ser.seconds - dumped_s, "append_s": append_s,
            }) + "\n")
            ticks.flush()
            j += 1


def read_ticks(path) -> list[dict]:
    """The generator's tick records written so far."""
    with open(path) as f:
        return [json.loads(line) for line in f if line.endswith("\n")]


def due_times(ticks: list[dict], alarm_ids) -> np.ndarray:
    """Due time of each alarm id, from the tick record that produced it."""
    ticks = sorted(ticks, key=lambda t: t["first_id"])
    first = np.array([t["first_id"] for t in ticks], dtype="int64")
    count = np.array([t["n"] for t in ticks], dtype="int64")
    due = np.array([t["due"] for t in ticks], dtype=float)
    ids = np.asarray(alarm_ids, dtype="int64")
    i = np.searchsorted(first, ids, side="right") - 1
    if (i < 0).any() or (ids >= first[i] + count[i]).any():
        raise ValueError("alarm id not produced by any tick")
    return due[i]


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--log", required=True)
    ap.add_argument("--pool", required=True)
    ap.add_argument("--ticks", required=True)
    ap.add_argument("--seed", type=int, required=True)
    generate(ap.parse_args())
