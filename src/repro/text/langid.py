"""Stop-word-based language identification (de / fr / en).

The incident reports are written in German, French or English
(Section 5.2). Language is identified by counting characteristic
function words — the classic, training-free approach, adequate for
sentence-length reports and fully deterministic. Implemented as a
vectorized pandas UDF so Catalyst can pipeline it with the topic filter.
"""
from __future__ import annotations

import re

import pandas as pd
from pyspark.sql import Column
from pyspark.sql import functions as F
from pyspark.sql.functions import pandas_udf
from pyspark.sql.types import StringType

# Function words chosen to be (near-)unique to each language; shared
# short words like "in" / "a" are deliberately excluded or accepted as
# low-weight noise that the per-language majority outvotes.
STOPWORDS: dict[str, frozenset[str]] = {
    "de": frozenset(
        "die der und das im am ein eine sind mit nach hat vor noch dem war bei".split()
    ),
    "fr": frozenset(
        "le la les des et ont sont un une de du avec apres dans sur pres".split()
    ),
    "en": frozenset(
        "the and on with after under of are is for before near".split()
    ),
}
LANGUAGES = tuple(STOPWORDS)

_TOKEN = re.compile(r"[a-zA-Z']+")


def detect(text: str) -> str:
    """Most likely language of ``text``; ties resolve de > fr > en."""
    tokens = [t.lower() for t in _TOKEN.findall(text or "")]
    best_lang, best_score = "de", -1
    for lang in LANGUAGES:
        score = sum(1 for t in tokens if t in STOPWORDS[lang])
        if score > best_score:
            best_lang, best_score = lang, score
    return best_lang


@pandas_udf(StringType())
def _detect_udf(texts: pd.Series) -> pd.Series:
    return texts.map(detect)


def language_col() -> Column:
    """Column expression annotating each report with its language."""
    return _detect_udf(F.col("text"))
