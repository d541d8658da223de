"""Table 2: ZIP-vs-city granularity divergence in Basel.

True fire/intrusion alarms per Basel ZIP code (Sitasys data, ZIP
granularity) against collected incident reports for the whole city of
Basel (city granularity) — the mismatch that limits the a-priori risk
factor in multi-ZIP cities and motivates Table 9's scenarios (c)/(d).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import labeling
from repro.datasets.sitasys import BASEL_TRUE

BASEL_ZIPS = tuple(BASEL_TRUE)


def true_alarms_by_zip(alarms: DataFrame) -> DataFrame:
    """True F/I alarm counts per Basel ZIP: zip_code, intrusion, fire."""
    return (
        labeling.with_label(alarms)
        .where(F.col("zip_code").isin(*BASEL_ZIPS))
        .where(F.col("alarm_type").isin("intrusion", "fire"))
        .where(F.col(labeling.LABEL_COL) == 1.0)
        .groupBy("zip_code")
        .pivot("alarm_type", ["intrusion", "fire"])
        .count()
        .na.fill(0)
    )


def incident_counts_basel(incidents: DataFrame) -> DataFrame:
    """City-level incident report counts for Basel: topic, n."""
    return (
        incidents.where(F.col("city") == "Basel")
        .groupBy("topic")
        .agg(F.count("*").alias("n"))
    )


def compute(alarms: DataFrame, incidents: DataFrame) -> pd.DataFrame:
    """The table in the paper's layout: one row per ZIP plus the city
    total row carrying the (city-granular) incident counts."""
    per_zip = true_alarms_by_zip(alarms).toPandas()
    per_zip = (
        per_zip.set_index("zip_code")
        .reindex(BASEL_ZIPS)
        .fillna(0)
        .astype(int)
        .reset_index()
    )
    inc = {
        r["topic"]: int(r["n"])
        for r in incident_counts_basel(incidents).collect()
    }
    rows = [
        {
            "zip_code": z.zip_code,
            "true_intrusion": int(z.intrusion),
            "true_fire": int(z.fire),
            "inc_intrusion": None,
            "inc_fire": None,
        }
        for z in per_zip.itertuples()
    ]
    rows.append(
        {
            "zip_code": "Total (city of Basel)",
            "true_intrusion": int(per_zip["intrusion"].sum()),
            "true_fire": int(per_zip["fire"].sum()),
            "inc_intrusion": inc.get("intrusion", 0),
            "inc_fire": inc.get("fire", 0),
        }
    )
    out = pd.DataFrame(rows)
    for c in ("inc_intrusion", "inc_fire"):
        out[c] = out[c].astype("Int64")  # keeps ints next to [unknown]
    return out
