"""Synthetic San Francisco Fire Department calls (Section 5.1.3).

The real SFFD open data (4.3 M calls since 2000) is network-gated; more
importantly, the paper's findings about it are findings about its
*pathologies*, which this generator reproduces structurally:

- more than half of all records carry ``Call Final Disposition`` =
  "Other" — i.e. not properly labeled;
- more than half of the calls are medical incidents, whose
  Code 2/Code 3 transport dispositions are nearly uninformative as
  true/false-alarm labels (training on all labeled records incl.
  medical yields only ~53 % accuracy);
- there is no property-type column at all (Table 1), removing the
  feature the Sitasys study found most useful;
- only ~12 K records are of type alarm/fire *and* properly labeled —
  the usable subset, which reaches ~80 % accuracy (Figure 10).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.datasets.population import synthetic_zones

N_TOTAL = 4_300_000

CALL_TYPES = (
    "Medical Incident", "Alarms", "Structure Fire", "Outside Fire",
    "Traffic Collision", "Citizen Assist", "Water Rescue", "Electrical Hazard",
)
_TYPE_P = (0.55, 0.13, 0.07, 0.02, 0.08, 0.09, 0.02, 0.04)
FIRE_ALARM_TYPES = ("Alarms", "Structure Fire", "Outside Fire")

# Dispositions. "Other" = not properly labeled. For fire/alarm calls the
# explicit labels are No Merit (false alarm) / Fire (confirmed); medical
# calls get transport codes whose true/false mapping is nearly random.
DISP_OTHER = "Other"
DISP_TRUE = ("Fire", "Code 3 Transport")

# Fraction of fire/alarm calls that are properly labeled: tuned so the
# usable subset is ~12 K rows at SF=1 (0.22 of 4.3 M calls are
# fire/alarm; 12 K / 946 K ≈ 1.27 %).
P_LABELED_FIRE = 0.0127
P_LABELED_MEDICAL = 0.80
P_LABELED_MISC = 0.10

W = {
    "noise_rate_fire": 0.16,  # Bayes ceiling 0.84 on the usable subset
    "noise_rate_medical": 0.46,  # near-random labels → ~53 % ceiling
    "intercept": 0.1,
    "type": {"Alarms": -0.9, "Structure Fire": 0.8, "Outside Fire": 1.2},
    "evening": 0.7,
    "work_hours_alarms": -0.9,
    "zone": 0.45,
}

_START = pd.Timestamp("2000-01-01")
_DAYS = 17 * 365


def generate_pandas(*, sf: float = 1.0, seed: int = 31) -> pd.DataFrame:
    """The SFFD call table as pandas, deterministic in ``seed``."""
    n = max(1, int(N_TOTAL * sf))
    g = np.random.default_rng(seed)
    zones = synthetic_zones(27, seed=29, prefix="941")
    wz = zones["population"].to_numpy().astype(float)
    zidx = g.choice(len(zones), n, p=wz / wz.sum())
    zr = np.log(zones["risk"].to_numpy())
    zr = (zr - zr.mean()) / zr.std()

    ctype = g.choice(CALL_TYPES, n, p=_TYPE_P)
    ts = _START + pd.to_timedelta(g.integers(0, _DAYS * 86_400, n), unit="s")
    hour = ts.hour.to_numpy()

    is_fire = np.isin(ctype, FIRE_ALARM_TYPES)
    is_med = ctype == "Medical Incident"

    s = np.full(n, W["intercept"])
    for t, w in W["type"].items():
        s += w * (ctype == t)
    s += W["evening"] * ((hour >= 18) & (hour <= 23))
    s += W["work_hours_alarms"] * ((hour >= 8) & (hour <= 18) & (ctype == "Alarms"))
    s += W["zone"] * zr[zidx]

    noise = np.where(is_med, W["noise_rate_medical"], W["noise_rate_fire"])
    is_true = (s > 0) ^ (g.random(n) < noise)

    labeled_p = np.where(
        is_fire, P_LABELED_FIRE, np.where(is_med, P_LABELED_MEDICAL, P_LABELED_MISC)
    )
    labeled = g.random(n) < labeled_p

    disp = np.full(n, DISP_OTHER, dtype=object)
    fire_lab = labeled & is_fire
    disp[fire_lab & is_true] = "Fire"
    disp[fire_lab & ~is_true] = "No Merit"
    med_lab = labeled & is_med
    disp[med_lab & is_true] = "Code 3 Transport"
    disp[med_lab & ~is_true] = "Code 2 Transport"
    # A slice of false medical calls is dispositioned "No Merit" too, so
    # the corpus-wide No Merit count lands near the paper's ~105 K.
    med_no_merit = med_lab & ~is_true & (g.random(n) < 0.11)
    disp[med_no_merit] = "No Merit"
    misc_lab = labeled & ~is_fire & ~is_med
    disp[misc_lab & is_true] = "Fire"
    disp[misc_lab & ~is_true] = "Cancelled"

    return pd.DataFrame(
        {
            "call_number": np.arange(1, n + 1, dtype="int64"),
            "zip_code": zones["zone_code"].to_numpy()[zidx],
            "ts": ts,
            "day_of_week": ts.dayofweek,
            "hour_of_day": hour,
            "call_type": ctype,
            "call_final_disposition": disp,
        }
    )


def usable_subset(pdf: pd.DataFrame) -> pd.DataFrame:
    """The paper's ~12 K-row subset: alarm/fire calls, properly labeled."""
    m = pdf["call_type"].isin(FIRE_ALARM_TYPES) & (
        pdf["call_final_disposition"] != DISP_OTHER
    )
    return pdf.loc[m].reset_index(drop=True)


def all_labeled_subset(pdf: pd.DataFrame) -> pd.DataFrame:
    """All properly labeled calls incl. medical — the ~53 %-accuracy set."""
    return pdf.loc[pdf["call_final_disposition"] != DISP_OTHER].reset_index(drop=True)


def _with_duration(pdf: pd.DataFrame) -> pd.DataFrame:
    """Attach the duration proxy encoding disposition → true/false label."""
    out = pdf.copy()
    out["duration_s"] = np.where(
        out["call_final_disposition"].isin(DISP_TRUE), 3600.0, 0.0
    )
    return out


def generate(
    spark: SparkSession, *, sf: float = 1.0, seed: int = 31, subset: str = "usable"
) -> DataFrame:
    """SFFD data as Spark: ``subset`` ∈ usable | all_labeled."""
    pdf = generate_pandas(sf=sf, seed=seed)
    if subset == "usable":
        pdf = usable_subset(pdf)
    elif subset == "all_labeled":
        pdf = all_labeled_subset(pdf)
    else:
        raise ValueError(f"unknown subset {subset!r}")
    return spark.createDataFrame(_with_duration(pdf))
