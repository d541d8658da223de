"""Alarm producer side of the log (Section 5.5.1).

The paper's handcrafted Producer application replays alarms from the
test set (never seen in training) into Kafka, to measure how many alarms
per second the pipeline sustains; ``repro.streaming.producer_sim`` does
the same against the file-backed log. This module turns alarm rows into
the JSON-ready records the log's serializers write, and reports a
replay's throughput.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import pandas as pd


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
