"""Serializer throughput (Section 5.5, Figure 11).

The paper's bottleneck hunt starts at the producer: switching from a
reflective (Jackson) to a direct (Gson) JSON codec roughly doubled
producer throughput. This measures both of this repository's codecs
over real alarm payloads. Consumer throughput and the Figure 12
breakdown come from ``ConsumerMetrics`` (``jobs/throughput.py`` and
``perfbench/``).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from repro.broker import serializers
from repro.broker.producer import alarms_to_records
from repro.datasets import sitasys

SEED = 11


@dataclass(frozen=True)
class SerializerResult:
    """Round-trip throughput of one serializer."""

    name: str
    records_per_s: float


def serializer_throughput(
    n_records: int = 50_000, *, sf: float = 0.01
) -> list[SerializerResult]:
    """Records/s for each serializer over real alarm payloads (<1 KB)."""
    pdf = sitasys.generate_pandas(sf=sf, seed=SEED, basel_exact=False)
    records = alarms_to_records(pdf)
    records = (records * (n_records // len(records) + 1))[:n_records]
    out = []
    for name, ser in serializers.SERIALIZERS.items():
        t0 = time.perf_counter()
        lines = [ser.dumps(r) for r in records]
        for line in lines:
            ser.loads(line)
        out.append(
            SerializerResult(name, n_records / (time.perf_counter() - t0))
        )
    return out

