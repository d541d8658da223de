"""Tests for the Jackson-ish vs Gson-ish serializers (Section 5.5.2)."""
from __future__ import annotations

import json
import time

import pytest

from repro.broker import serializers
from repro.broker.producer import alarms_to_records

RECORD = {
    "alarm_id": 7,
    "zip_code": "4051",
    "alarm_type": "fire",
    "duration_s": 12.5,
    "fault_code": 0,
    "ok": True,
    "note": None,
}


@pytest.mark.parametrize("name", ["gsonish", "jacksonish"])
def test_roundtrip(name):
    ser = serializers.SERIALIZERS[name]
    assert ser.loads(ser.dumps(RECORD)) == RECORD


@pytest.mark.parametrize("name", ["gsonish", "jacksonish"])
def test_output_is_valid_json(name):
    ser = serializers.SERIALIZERS[name]
    assert json.loads(ser.dumps(RECORD)) == RECORD


def test_serializers_interchangeable():
    """A record written by one codec is readable by the other — they
    differ in speed, not in wire format."""
    g = serializers.SERIALIZERS["gsonish"]
    j = serializers.SERIALIZERS["jacksonish"]
    assert j.loads(g.dumps(RECORD)) == RECORD
    assert g.loads(j.dumps(RECORD)) == RECORD


def test_numpy_scalars_coerced(sitasys_pdf):
    ser = serializers.SERIALIZERS["gsonish"]
    rec = alarms_to_records(sitasys_pdf.head(3))[0]
    parsed = ser.loads(ser.dumps(rec))
    assert isinstance(parsed["alarm_id"], int)
    assert isinstance(parsed["duration_s"], float)
    assert isinstance(parsed["ts"], str)


def test_alarm_payload_under_1kb(sitasys_pdf):
    # "one alarm is less than 1KB in size" (Section 5.5.2).
    ser = serializers.SERIALIZERS["gsonish"]
    for rec in alarms_to_records(sitasys_pdf.head(20)):
        assert len(ser.dumps(rec).encode()) < 1024


def test_gsonish_faster_than_jacksonish(sitasys_pdf):
    """The paper's bottleneck finding: the direct serializer beats the
    reflective one on small alarm objects."""
    records = alarms_to_records(sitasys_pdf.head(500)) * 8
    timings = {}
    for name, ser in serializers.SERIALIZERS.items():
        t0 = time.perf_counter()
        for r in records:
            ser.loads(ser.dumps(r))
        timings[name] = time.perf_counter() - t0
    assert timings["gsonish"] < timings["jacksonish"]
