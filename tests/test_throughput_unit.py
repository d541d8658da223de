"""Serializer throughput harness (Figure 11).

Consumer throughput is covered by ``tests/test_streaming.py``; timed
runs are ``jobs/throughput.py`` and ``perfbench/``.
"""
from __future__ import annotations

from repro.evaluation import throughput


def test_serializer_throughput_reports_both():
    res = throughput.serializer_throughput(n_records=2_000, sf=0.002)
    names = {r.name for r in res}
    assert names == {"gsonish", "jacksonish"}
    for r in res:
        assert r.records_per_s > 0


def test_serializer_direct_beats_reflective():
    res = {r.name: r.records_per_s for r in throughput.serializer_throughput(
        n_records=6_000, sf=0.002
    )}
    assert res["gsonish"] > res["jacksonish"]

