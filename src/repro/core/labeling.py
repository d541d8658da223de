"""Label inference via the alarm-reset-duration heuristic (Section 5.3.2).

The Sitasys production data has no ground-truth labels; the paper infers
them from the alarm duration: an alarm reset within Δt is considered
FALSE (the owner shut it off immediately), otherwise TRUE. Δt is swept
between 1 and 10 minutes and the resulting verification accuracy is
stable (Figure 9), which is the property our tests assert.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

DEFAULT_DELTA_T_S = 60.0
DELTA_T_SWEEP_S = tuple(60.0 * m for m in range(1, 11))

LABEL_COL = "label"


def with_label(df: DataFrame, delta_t_s: float = DEFAULT_DELTA_T_S) -> DataFrame:
    """Add the duration-threshold label to an alarm DataFrame: 1.0 if the
    alarm is TRUE (ran at least Δt seconds), else 0.0.

    An existing ``label`` column is replaced in place."""
    return df.withColumn(
        LABEL_COL, (F.col("duration_s") >= F.lit(float(delta_t_s))).cast("double")
    )
