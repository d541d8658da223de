"""Test-set alarm stream simulation (Section 5.5.1).

"The stream is created by randomly selecting alarms from the test set
(alarms from our production data, that have not been used for training
the machine learning model) and writing them into Kafka, at a controlled
rate." This module does that against the file-backed log, writing the
whole sample at once; the open-loop rate of the paper's experiment lives
in the benchmark (``perfbench/feed.py``).
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.broker.log import PartitionedLog
from repro.broker.producer import ProducerStats, alarms_to_records


def stream_from_test_set(
    log: PartitionedLog,
    test_pdf: pd.DataFrame,
    *,
    n_alarms: int,
    seed: int = 0,
    records_per_segment: int = 2_000,
) -> ProducerStats:
    """Replay ``n_alarms`` random test-set alarms into the log."""
    g = np.random.default_rng(seed)
    idx = g.integers(0, len(test_pdf), n_alarms)
    sample = test_pdf.iloc[idx].reset_index(drop=True)
    sample["alarm_id"] = np.arange(1, n_alarms + 1, dtype="int64")
    records = alarms_to_records(sample)
    t0 = time.perf_counter()
    log.write(records, records_per_segment=records_per_segment)
    return ProducerStats(n_records=n_alarms, elapsed_s=time.perf_counter() - t0)
