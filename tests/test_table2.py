"""Table 2 reproduction tests: exact Basel cell counts."""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from repro.evaluation import table2
from repro.oracle import assert_equivalent

# Paper's Table 2: (intrusion, fire) true alarms per Basel ZIP.
PAPER_CELLS = {
    "4001": (43, 3),
    "4051": (142, 3),
    "4057": (304, 0),
    "4058": (0, 55),
}


@pytest.fixture(scope="module")
def computed(sitasys_basel_df, incident_history):
    return table2.compute(sitasys_basel_df, incident_history)


def test_per_zip_cells_exact(computed):
    for z, (intrusion, fire) in PAPER_CELLS.items():
        row = computed[computed.zip_code == z].iloc[0]
        assert row["true_intrusion"] == intrusion
        assert row["true_fire"] == fire


def test_city_totals(computed):
    total = computed.iloc[-1]
    assert total["true_intrusion"] == 489
    assert total["true_fire"] == 61
    assert total["inc_intrusion"] == 10
    assert total["inc_fire"] == 464


def test_zip_rows_have_no_incident_granularity(computed):
    # The incidents data cannot be attributed to a ZIP (paper: "[unknown]").
    zip_rows = computed.iloc[:-1]
    assert zip_rows["inc_intrusion"].isna().all()
    assert zip_rows["inc_fire"].isna().all()


def test_true_alarm_aggregation_oracle(spark, sitasys_basel_df):
    got = table2.true_alarms_by_zip(sitasys_basel_df)
    assert_equivalent(
        got,
        """
        SELECT zip_code,
               sum(CASE WHEN alarm_type = 'intrusion' THEN 1 ELSE 0 END) AS intrusion,
               sum(CASE WHEN alarm_type = 'fire' THEN 1 ELSE 0 END) AS fire
        FROM alarms
        WHERE zip_code IN ('4001', '4051', '4057', '4058')
          AND alarm_type IN ('intrusion', 'fire')
          AND duration_s >= 60
        GROUP BY zip_code
        """,
        alarms=sitasys_basel_df,
    )


def test_divergence_shape(computed):
    """The table's point: the city has hundreds of true intrusion alarms
    but only 10 intrusion reports — and the reverse imbalance for fire."""
    total = computed.iloc[-1]
    assert total["true_intrusion"] > 10 * total["inc_intrusion"]
    assert total["inc_fire"] > 5 * total["true_fire"]
