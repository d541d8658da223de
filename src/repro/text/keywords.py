"""Topic filtering by keyword sets (Figure 5, "Filtering" stage).

The pipeline keeps only reports about relevant topics — fire and
intrusion — based on per-language keyword lists, and drops everything
else (sports, traffic, ...). The filter is a native Catalyst ``rlike``
over a word-boundary regex, so it runs without Python round-trips.
"""
from __future__ import annotations

import re

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

KEYWORDS: dict[str, dict[str, tuple[str, ...]]] = {
    "fire": {
        "de": ("brand", "feuer", "feuerwehr", "brandstiftung"),
        "fr": ("incendie", "feu", "pompiers"),
        "en": ("fire", "blaze", "firefighters"),
    },
    "intrusion": {
        "de": ("einbruch", "eingebrochen", "einbrecher"),
        "fr": ("cambriolage", "cambrioleurs", "effraction"),
        "en": ("burglary", "break-in", "intruders"),
    },
}


def _pattern(topic: str) -> str:
    words = sorted({w for lang in KEYWORDS[topic].values() for w in lang})
    return r"(?i)\b(" + "|".join(re.escape(w) for w in words) + r")\b"


def topic_col() -> Column:
    """'fire' / 'intrusion' / NULL for each report's text.

    Fire wins when both topics match (arbitrary but deterministic;
    dual-topic reports do not occur in the corpus).
    """
    text = F.col("text")
    return (
        F.when(text.rlike(_pattern("fire")), F.lit("fire"))
        .when(text.rlike(_pattern("intrusion")), F.lit("intrusion"))
        .otherwise(F.lit(None).cast("string"))
    )


def filter_relevant(df: DataFrame) -> DataFrame:
    """Keep only fire/intrusion reports, annotated with ``topic``."""
    return df.withColumn("topic", topic_col()).where(F.col("topic").isNotNull())
