"""Alarm JSON serializers: the Jackson-vs-Gson bottleneck (Section 5.5.2).

The paper found its first throughput bottleneck in the JSON serializer
used to write alarms into (and read them from) Kafka: Jackson, tuned for
large payloads, is a poor choice for <1 KB alarm objects, and switching
to Gson roughly doubled producer throughput (Figure 11).

No Maven/JVM libraries are available offline, so we reproduce the
*mechanism*: ``JacksonishSerializer`` performs per-record reflective
work (field discovery, per-field type dispatch, canonical key ordering,
strict ASCII escaping) on every call — the per-object overhead that
dominates for small records — while ``GsonishSerializer`` uses a
precompiled direct path. Both emit interchangeable JSON;
``jobs/throughput.py`` prints the measured ratio next to the paper's ~2×.
"""
from __future__ import annotations

import json
from typing import Any, Iterable

import numpy as np


def _to_jsonable(value: Any) -> Any:
    """Common scalar coercion (numpy/pandas scalars → JSON types)."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)  # timestamps and anything exotic


class GsonishSerializer:
    """Direct-path serializer: one dispatch table, compact output."""

    name = "gsonish"

    def dumps(self, record: dict[str, Any]) -> str:
        """Record -> compact JSON line."""
        return json.dumps(
            {k: _to_jsonable(v) for k, v in record.items()},
            separators=(",", ":"),
            ensure_ascii=False,
        )

    def loads(self, line: str) -> dict[str, Any]:
        """JSON line -> record dict."""
        return json.loads(line)


class JacksonishSerializer:
    """Reflective serializer: per-record introspection overhead.

    Emulates a data-binding serializer resolving the "schema" of every
    object anew — field enumeration, canonical ordering, a chained
    isinstance dispatch per field, and strict ASCII escaping — which is
    exactly the fixed per-object cost that dominates small payloads.
    """

    name = "jacksonish"

    _ESCAPES = {
        '"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r",
        "\t": "\\t", "\b": "\\b", "\f": "\\f",
    }

    def _write_string(self, s: str) -> str:
        # Streaming per-character escape pass, no buffer reuse — the
        # fixed cost a data-binding serializer pays on every small field.
        out = ['"']
        for ch in s:
            esc = self._ESCAPES.get(ch)
            if esc is not None:
                out.append(esc)
            elif ord(ch) < 0x20 or ord(ch) > 0x7E:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)

    def _write_value(self, value: Any) -> str:
        value = _to_jsonable(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return repr(value)
        if isinstance(value, float):
            return json.dumps(value)  # canonical float formatting
        return self._write_string(str(value))

    def dumps(self, record: dict[str, Any]) -> str:
        descriptor: list[tuple[str, type, Any]] = []
        for key in sorted(record):  # reflective field discovery pass
            value = record[key]
            for tp in (bool, int, float, str, bytes, type(None)):
                if isinstance(value, tp):
                    descriptor.append((key, tp, value))
                    break
            else:
                descriptor.append((key, object, value))
        parts = [
            f"{self._write_string(k)}: {self._write_value(v)}"
            for k, _tp, v in descriptor
        ]
        return "{" + ", ".join(parts) + "}"

    def loads(self, line: str) -> dict[str, Any]:
        parsed = json.loads(line)
        # Reflective "binding" pass: re-validate each field's type.
        bound: dict[str, Any] = {}
        for key in sorted(parsed):
            value = parsed[key]
            for tp in (bool, int, float, str, type(None), list, dict):
                if isinstance(value, tp):
                    bound[key] = value
                    break
            else:  # pragma: no cover - json never yields other types
                bound[key] = value
        return bound


SERIALIZERS = {s.name: s for s in (GsonishSerializer(), JacksonishSerializer())}


def serialize_all(records: Iterable[dict[str, Any]], serializer) -> list[str]:
    """Serialize a batch of records to JSON lines."""
    return [serializer.dumps(r) for r in records]
