"""Synthetic London Fire Brigade incident records (Section 5.1.2).

The real LFB open data (885 K incidents 2009–2016, 430 K ≈ 48 % false
alarms, near-balanced classes) is network-gated in this container. The
generator reproduces its schema (Table 1 row 2: ZIP code, Date/Time of
call, PropertyType, PropertyCategory, Incident Group) and its
learnability: only *generic* features are available — no sensor
attributes — so classification accuracy plateaus around 85 %
(Figure 10), a few points below Sitasys.

The label is the incident group: "False Alarm" vs a genuine incident
("Fire" / "Special Service"). Labels come from the same
threshold-rule-plus-flip construction as the Sitasys generator; the flip
rate is the knob that pins the Bayes ceiling.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.datasets.population import synthetic_zones

N_TOTAL = 885_000
N_ZONES = 600

PROPERTY_CATEGORIES = (
    "Dwelling", "Non Residential", "Outdoor", "Road Vehicle",
    "Other Residential", "Outdoor Structure",
)
_CAT_P = (0.45, 0.20, 0.15, 0.08, 0.07, 0.05)
PROPERTY_TYPES: dict[str, tuple[str, ...]] = {
    "Dwelling": ("Purpose Built Flats", "House - single occupancy",
                 "Converted Flat", "Bungalow"),
    "Non Residential": ("Office", "Retail", "Hospital", "School", "Warehouse"),
    "Outdoor": ("Grassland", "Park", "Roadside"),
    "Road Vehicle": ("Car", "Bus", "Lorry"),
    "Other Residential": ("Care Home", "Hostel", "Student Hall"),
    "Outdoor Structure": ("Shed", "Fence"),
}
INCIDENT_GROUPS_TRUE = ("Fire", "Special Service")

W = {
    "noise_rate": 0.08,
    "intercept": 0.05,
    "category": {"Dwelling": -0.5, "Non Residential": -1.2, "Outdoor": 1.4,
                 "Road Vehicle": 1.8, "Other Residential": -0.9,
                 "Outdoor Structure": 1.1},
    # automatic fire alarms (false) cluster in offices/hospitals at
    # working hours; genuine fires peak in the evening
    "work_hours_nonres": -1.1,
    "evening": 0.9,
    "night_dwelling": 0.6,
    "weekend_outdoor": 0.8,
    "zone": 0.35,
}

_START = pd.Timestamp("2009-01-01")
_DAYS = 8 * 365


def generate_pandas(*, sf: float = 1.0, seed: int = 23) -> pd.DataFrame:
    """The LFB incident table as pandas, deterministic in ``seed``."""
    n = max(1, int(N_TOTAL * sf))
    g = np.random.default_rng(seed)
    zones = synthetic_zones(N_ZONES, seed=21, prefix="E")
    wz = zones["population"].to_numpy().astype(float)
    zidx = g.choice(N_ZONES, n, p=wz / wz.sum())
    zone_risk = zones["risk"].to_numpy()
    zr = np.log(zone_risk)
    zr = (zr - zr.mean()) / zr.std()

    cat = g.choice(PROPERTY_CATEGORIES, n, p=_CAT_P)
    ptype = np.array(
        [PROPERTY_TYPES[c][g.integers(0, len(PROPERTY_TYPES[c]))] for c in cat]
    )
    ts = _START + pd.to_timedelta(g.integers(0, _DAYS * 86_400, n), unit="s")
    hour = ts.hour.to_numpy()
    dow = ts.dayofweek.to_numpy()

    s = np.full(n, W["intercept"])
    s += np.vectorize(W["category"].__getitem__)(cat)
    work = (hour >= 8) & (hour <= 18)
    s += W["work_hours_nonres"] * (work & (cat == "Non Residential"))
    s += W["evening"] * ((hour >= 18) & (hour <= 23))
    s += W["night_dwelling"] * ((hour < 6) & (cat == "Dwelling"))
    s += W["weekend_outdoor"] * ((dow >= 5) & np.isin(cat, ("Outdoor", "Outdoor Structure")))
    s += W["zone"] * zr[zidx]

    flip = g.random(n) < W["noise_rate"]
    is_true = (s > 0) ^ flip
    group = np.where(
        is_true,
        g.choice(INCIDENT_GROUPS_TRUE, n, p=[0.55, 0.45]),
        "False Alarm",
    )
    return pd.DataFrame(
        {
            "incident_number": np.arange(1, n + 1, dtype="int64"),
            "zip_code": zones["zone_code"].to_numpy()[zidx],
            "ts": ts,
            "day_of_week": dow,
            "hour_of_day": hour,
            "property_category": cat,
            "property_type": ptype,
            "incident_group": group,
        }
    )


def generate(spark: SparkSession, *, sf: float = 1.0, seed: int = 23) -> DataFrame:
    """The LFB table as a Spark DataFrame with a ``duration_s`` proxy.

    The LFB data is labeled directly by incident group, not by reset
    duration; to reuse the duration-threshold labeling machinery we
    attach a synthetic duration that encodes the group label exactly
    (0 s for false alarms, 1 h for genuine incidents).
    """
    pdf = generate_pandas(sf=sf, seed=seed)
    pdf["duration_s"] = np.where(pdf["incident_group"] == "False Alarm", 0.0, 3600.0)
    return spark.createDataFrame(pdf)
