"""Date and location annotation (Figure 5, "Annotation" stage).

Each relevant report is annotated with the incident date and location,
taken from the feed metadata when available and otherwise extracted
directly from the text (Section 4.2 (4)):

- dates appear in the language's conventional numeric format
  (dd.mm.yyyy German, dd/mm/yyyy French, yyyy-mm-dd English) and are
  normalized to ISO;
- locations are matched against the gazetteer of Swiss city names from
  :mod:`repro.datasets.population` — city-or-village granularity only,
  never ZIP codes, which is exactly the granularity mismatch the hybrid
  evaluation studies (Table 2).
"""
from __future__ import annotations

import re

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.functions import pandas_udf
from pyspark.sql.types import StringType

from repro.datasets import population

_DE = re.compile(r"\b(\d{2})\.(\d{2})\.(\d{4})\b")
_FR = re.compile(r"\b(\d{2})/(\d{2})/(\d{4})\b")
_EN = re.compile(r"\b(\d{4})-(\d{2})-(\d{2})\b")


def extract_date(text: str) -> str | None:
    """First date in the text, normalized to yyyy-mm-dd; None if absent."""
    if m := _EN.search(text or ""):
        return f"{m.group(1)}-{m.group(2)}-{m.group(3)}"
    for rx in (_DE, _FR):
        if m := rx.search(text or ""):
            return f"{m.group(3)}-{m.group(2)}-{m.group(1)}"
    return None


_CITY_NAMES: frozenset[str] | None = None
_WORD = re.compile(r"[A-Za-z][A-Za-z0-9]*")


def _gazetteer() -> frozenset[str]:
    global _CITY_NAMES
    if _CITY_NAMES is None:
        _CITY_NAMES = frozenset(c.name for c in population.registry())
    return _CITY_NAMES


def extract_city(text: str) -> str | None:
    """First token of the text that is a known city name; None if absent."""
    gaz = _gazetteer()
    for tok in _WORD.findall(text or ""):
        if tok in gaz:
            return tok
    return None


@pandas_udf(StringType())
def _date_udf(texts: pd.Series) -> pd.Series:
    return texts.map(extract_date)


@pandas_udf(StringType())
def _city_udf(texts: pd.Series) -> pd.Series:
    return texts.map(extract_city)


def annotate(df: DataFrame) -> DataFrame:
    """Add ``incident_date`` and ``city`` columns to filtered reports.

    Each takes the feed's metadata (``meta_date``, ``meta_location``)
    first, else what is extracted from ``text``.
    """
    text = F.col("text")
    return df.withColumn(
        "incident_date", F.coalesce(F.col("meta_date"), _date_udf(text))
    ).withColumn("city", F.coalesce(F.col("meta_location"), _city_udf(text)))
