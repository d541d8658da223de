"""Alarm producer side of the log (Section 5.5.1).

"The stream is created by randomly selecting alarms from the test set
(alarms from our production data, that have not been used for training
the machine learning model) and writing them into Kafka, at a controlled
rate." ``stream_from_test_set`` does that against the file-backed log,
writing the whole sample at once; the open-loop rate of the paper's
experiment lives in the benchmark (``perfbench/feed.py``). This module
also turns alarm rows into the JSON-ready records the log's serializers
write, and reports a replay's throughput.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np
import pandas as pd

from repro.broker.log import PartitionedLog


@dataclass(frozen=True)
class ProducerStats:
    """Throughput report for one produce run."""

    n_records: int
    elapsed_s: float

    @property
    def records_per_s(self) -> float:
        """Produced records per wall-clock second."""
        return self.n_records / self.elapsed_s if self.elapsed_s > 0 else float("inf")


def alarms_to_records(pdf: pd.DataFrame) -> list[dict[str, Any]]:
    """Pandas alarms → JSON-ready dicts (timestamps to strings)."""
    out = pdf.copy()
    for c in out.columns:
        if pd.api.types.is_datetime64_any_dtype(out[c]):
            out[c] = out[c].dt.strftime("%Y-%m-%d %H:%M:%S")
    return out.to_dict("records")


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
