"""MongoDB substitute: a document store over local parquet (Section 4.2 (2)).

The paper stores alarms and incident reports as JSON-like documents in
MongoDB and queries them by field (e.g. by device address to build the
per-device alarm histogram the streaming consumer attaches to each
verification window). This substitute keeps named collections of
appending inserts over parquet part files, and does all of its file I/O
with pyarrow in the driver, as the paper's MongoDB query also returns
its result to the driver. An insert writes one part from one Arrow
table; ``count`` reads only the parts' footers. The history queries
(``device_summary``, ``device_histogram``) read only ``device_mac`` and
``ts`` from the parts with ``pyarrow.dataset``, aggregate there and hand
the small result to Spark as a DataFrame; no Spark job runs for a
streaming window's history lookup. Days are UTC days. Like MongoDB,
collections are schema-flexible across inserts: added fields between
batches are tolerated (the paper's motivation: alarm structure differs
across sensor types and software updates). The history queries read
every part through one declared schema and cast it to that schema, so a
part whose ``ts`` is a string (as the consumer's sink stores it) reads
beside parts whose ``ts`` is a timestamp.
"""
from __future__ import annotations

import uuid
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as ds
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession

# The two fields the history queries read, as every part is read: a part
# that stores them as other types (``ts`` as a string, or Spark's INT96
# timestamps) is cast to these, and fields not named here are not read.
_HISTORY_SCHEMA = pa.schema([("device_mac", pa.string()), ("ts", pa.timestamp("us"))])


class Collection:
    """One named collection of documents, stored as parquet parts."""

    def __init__(self, root: Path, name: str) -> None:
        self.name = name
        self.path = root / name

    def _parts(self) -> list[str]:
        return sorted(str(p) for p in self.path.glob("part-*"))

    def insert_many(self, spark: SparkSession, docs: DataFrame | pd.DataFrame) -> int:
        """Append documents as one new part; returns the number inserted.

        The part is written to a hidden temp file and published by a
        rename, so a reader never sees a partial part and a failed write
        leaves none behind.
        """
        table = (docs.toArrow() if isinstance(docs, DataFrame)
                 else pa.Table.from_pandas(docs, preserve_index=False))
        self.path.mkdir(parents=True, exist_ok=True)
        name = f"{uuid.uuid4().hex}.parquet"
        tmp = self.path / f".tmp-{name}"
        try:
            # INT96 stores ``ts`` as Spark writes it, so Spark, DuckDB and
            # pyarrow all read it back as a naive UTC time.
            pq.write_table(table, tmp, use_deprecated_int96_timestamps=True)
            tmp.rename(self.path / f"part-{name}")
        finally:
            tmp.unlink(missing_ok=True)
        return table.num_rows

    def count(self, spark: SparkSession) -> int:
        """Number of stored documents, from the parts' footers."""
        return sum(pq.read_metadata(p).num_rows for p in self._parts())

    def _alarm_days(self) -> pa.Table:
        """``device_mac``, ``ts`` and its UTC ``day`` of every stored
        document, read from the part files in the driver."""
        table = ds.dataset(self._parts(), format="parquet", schema=_HISTORY_SCHEMA).to_table()
        return table.append_column("day", pc.cast(table["ts"], pa.date32()))

    def device_summary(self, spark: SparkSession) -> DataFrame:
        """One row per device of the whole history: ``past_alarms``, its
        number of alarms, and ``active_days``, the distinct days on which
        it alarmed. This is the batch-component lookup of every streaming
        window (Figure 3); an empty collection gives no rows."""
        summary = (
            self._alarm_days()
            .group_by("device_mac")
            .aggregate([([], "count_all"), ("day", "count_distinct")])
            .select(["device_mac", "count_all", "day_count_distinct"])
            .rename_columns(["device_mac", "past_alarms", "active_days"])
        )
        return spark.createDataFrame(summary)

    def device_histogram(
        self, spark: SparkSession, devices: list[str] | None = None
    ) -> DataFrame:
        """Per-device daily alarm counts: Figure 3's histogram of past
        alarms, over the whole history; ``devices`` restricts it to given
        devices. Returns device_mac, day, n_alarms."""
        table = self._alarm_days()
        if devices is not None:
            table = table.filter(pc.field("device_mac").isin(devices))
        hist = (
            table.group_by(["device_mac", "day"])
            .aggregate([([], "count_all")])
            .select(["device_mac", "day", "count_all"])
            .rename_columns(["device_mac", "day", "n_alarms"])
        )
        return spark.createDataFrame(hist)


class DocumentStore:
    """A set of collections rooted at a local directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def collection(self, name: str) -> Collection:
        """Handle to a (possibly not yet created) collection."""
        return Collection(self.root, name)
