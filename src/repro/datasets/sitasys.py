"""Synthetic Sitasys production alarm data (Section 5.1.1).

The real dataset — 350 K anonymized alarms from Oct 2015 to Apr 2016 in
roughly equal proportions of true and false alarms — is proprietary.
This generator reproduces its *learnability structure*:

- features: location (ZIP), timestamp (→ day-of-week / hour-of-day),
  alarm type, object (property) type, plus sensor-specific fields
  (sensor type, software version, fault code) and device addresses;
- a latent truth label drawn from a logistic model over those features
  (per-ZIP latent risk comes from :mod:`repro.datasets.population`, the
  same hidden risk that drives the incident-report corpus — which is
  what makes the hybrid a-priori risk factor informative);
- an alarm *reset duration* that is lognormal-short for latent-false and
  lognormal-long for latent-true alarms, so the paper's Δt threshold
  heuristic (Section 5.3.2) recovers the latent label at ≳95 % for any
  Δt between 1 and 10 minutes — the Figure 9 stability property;
- stratified allocation reproducing the Table 9 row counts at SF=1:
  130,958 alarms in covered locations (24,934 fire/intrusion), of which
  37,241 in single-ZIP cities (10,036 fire/intrusion);
- exact injection of the Basel Table 2 cell counts (true fire/intrusion
  alarms per ZIP 4001/4051/4057/4058).

Sensor-specific features (fault code, buggy software versions) carry
strong signal, which is why Sitasys models reach >90 % accuracy while
the generic-feature-only open datasets stay near 80–85 % (Figure 10).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.datasets import population

# --- SF=1 strata (Table 9 row counts) --------------------------------
N_TOTAL = 350_000
N_COVERED = 130_958
N_COVERED_FI = 24_934
N_SINGLE = 37_241
N_SINGLE_FI = 10_036

# Table 2: true alarms per Basel ZIP (intrusion, fire), plus a free
# choice of false-alarm counts for the same cells.
BASEL_TRUE = {
    "4001": {"intrusion": 43, "fire": 3},
    "4051": {"intrusion": 142, "fire": 3},
    "4057": {"intrusion": 304, "fire": 0},
    "4058": {"intrusion": 0, "fire": 55},
}
BASEL_FALSE = {
    "4001": {"intrusion": 38, "fire": 4},
    "4051": {"intrusion": 120, "fire": 6},
    "4057": {"intrusion": 260, "fire": 2},
    "4058": {"intrusion": 3, "fire": 48},
}

ALARM_TYPES_FI = ("intrusion", "fire")
ALARM_TYPES_OTHER = ("technical", "sabotage", "panic")
OBJECT_TYPES = ("residential", "commercial", "industrial", "public")
SENSOR_TYPES = tuple(f"S-{i}" for i in range(8))
SW_VERSIONS = tuple(f"v{i:02d}" for i in range(1, 11))
BUGGY_SW = ("v03", "v07")

# Label model: the latent truth is the deterministic sign of a feature
# score, flipped with probability ``noise_rate`` — so the Bayes-optimal
# accuracy against the latent label is exactly 1 - noise_rate, a direct
# calibration knob. Strong *main* effects (fault code, buggy software,
# property/alarm type) are learnable by every classifier; the
# hour-of-day × alarm-type *interactions* are only representable by RF
# and the DNN, which is why those two come out on top in the paper
# (Figure 10) — the linear models trail by a few percent but stay within
# the paper's ≤5 % spread.
W = {
    "noise_rate": 0.04,
    "intercept": 1.0,
    "type_base": {"fire": 0.30, "intrusion": 0.10, "technical": -2.30,
                  "sabotage": 0.60, "panic": 0.10},
    "object": {"residential": -0.90, "commercial": 0.30,
               "industrial": 1.50, "public": 0.0},
    "fault": -4.5,
    "buggy_sw": -3.0,
    "sensor": np.linspace(-0.8, 0.8, len(SENSOR_TYPES)),
    "loc_fi": 0.75,
    "loc_other": 0.15,
    # Shared F/I time-of-day main effect (linearly learnable) plus
    # smaller type-specific interaction residuals (RF/DNN-only).
    "night_fi": 1.0,
    "day_fi": -0.6,
    "night_intrusion": 1.0,
    "day_intrusion": -0.5,
    "meal_fire": 0.7,
    "offpeak_fire": -0.3,
    "weekend_intrusion": 0.8,
}

# Reset-duration model (seconds, lognormal): false alarms are reset
# quickly by the owner; true alarms run long. Chosen so the Δt threshold
# label agrees with the latent label for Δt in [60 s, 600 s].
DUR_FALSE = (np.log(15.0), 0.8)
DUR_TRUE = (np.log(2000.0), 0.7)

_START = pd.Timestamp("2015-10-01")
_DAYS = 213  # through April 2016


def _score(pdf: pd.DataFrame, zt: pd.DataFrame) -> np.ndarray:
    """Latent logit that the alarm is TRUE, from its features."""
    n = len(pdf)
    s = np.full(n, W["intercept"])
    atype = pdf["alarm_type"].to_numpy()
    s += np.vectorize(W["type_base"].__getitem__)(atype)
    s += np.vectorize(W["object"].__getitem__)(pdf["object_type"].to_numpy())
    s += W["fault"] * (pdf["fault_code"].to_numpy() > 0)
    s += W["buggy_sw"] * np.isin(pdf["sw_version"].to_numpy(), BUGGY_SW)
    sensor_ix = pdf["sensor_type"].str.slice(2).astype(int).to_numpy()
    s += W["sensor"][sensor_ix]

    hour = pdf["hour_of_day"].to_numpy()
    dow = pdf["day_of_week"].to_numpy()
    is_int = atype == "intrusion"
    is_fire = atype == "fire"
    night = (hour < 6)
    workday_hours = (hour >= 9) & (hour <= 17)
    meal = ((hour >= 11) & (hour <= 14)) | ((hour >= 18) & (hour <= 22))
    is_fi = is_int | is_fire
    s += W["night_fi"] * (is_fi & night)
    s += W["day_fi"] * (is_fi & workday_hours)
    s += W["night_intrusion"] * (is_int & night)
    s += W["day_intrusion"] * (is_int & workday_hours)
    s += W["meal_fire"] * (is_fire & meal)
    s += W["offpeak_fire"] * (is_fire & ~meal)
    s += W["weekend_intrusion"] * (is_int & (dow >= 5))

    # Location risk: standardized log per-capita latent risk of the ZIP,
    # matched to the alarm type (mean of both for non-F/I types).
    z = zt.set_index("zip_code")
    lf = np.log(z["risk_fire"]).to_numpy()
    li = np.log(z["risk_intrusion"]).to_numpy()
    zf = (lf - lf.mean()) / lf.std()
    zi = (li - li.mean()) / li.std()
    zidx = z.index.get_indexer(pdf["zip_code"].to_numpy())
    s += np.where(
        is_fire,
        W["loc_fi"] * zf[zidx],
        np.where(
            is_int,
            W["loc_fi"] * zi[zidx],
            W["loc_other"] * 0.5 * (zf[zidx] + zi[zidx]),
        ),
    )
    return s


def _sample_features(
    g: np.random.Generator, n: int, zips: np.ndarray, fi: bool
) -> pd.DataFrame:
    """Draw timestamps, types and sensor fields for ``n`` alarms."""
    if fi:
        atype = g.choice(ALARM_TYPES_FI, n, p=[0.62, 0.38])
    else:
        atype = g.choice(ALARM_TYPES_OTHER, n, p=[0.45, 0.30, 0.25])
    ts = _START + pd.to_timedelta(
        g.integers(0, _DAYS * 86_400, n), unit="s"
    )
    fault_p = np.where(atype == "technical", 0.35, 0.08)
    fault = np.where(g.random(n) < fault_p, g.integers(1, 8, n), 0)
    dev = g.integers(0, max(1, n // 6), n)
    return pd.DataFrame(
        {
            "zip_code": zips,
            "ts": ts,
            "day_of_week": ts.dayofweek,  # 0=Mon .. 6=Sun
            "hour_of_day": ts.hour,
            "alarm_type": atype,
            "object_type": g.choice(OBJECT_TYPES, n, p=[0.5, 0.2, 0.2, 0.1]),
            "sensor_type": g.choice(SENSOR_TYPES, n),
            "sw_version": g.choice(SW_VERSIONS, n),
            "fault_code": fault.astype("int32"),
            "device_mac": [f"02:00:{d:08x}" for d in dev],
            "device_ip": [f"10.{(d >> 16) & 255}.{(d >> 8) & 255}.{d & 255}" for d in dev],
        }
    )


def _zip_pool(zt: pd.DataFrame, covered: bool, single: bool | None) -> tuple[np.ndarray, np.ndarray]:
    """(zips, probs) for one stratum, weighted by ZIP population."""
    m = zt["covered"] == covered
    if single is not None:
        m &= zt["single_zip"] == single
    pool = zt.loc[m]
    w = pool["zip_population"].to_numpy().astype(float)
    return pool["zip_code"].to_numpy(), w / w.sum()


def generate_pandas(
    *, sf: float = 1.0, seed: int = 11, basel_exact: bool = True
) -> pd.DataFrame:
    """The Sitasys alarm table as pandas, deterministic in ``seed``.

    ``basel_exact`` injects the Table 2 Basel cells verbatim (not scaled
    by ``sf``); disable for small-sf accuracy experiments where 1,068
    fixed rows would distort the class mix.
    """
    g = np.random.default_rng(seed)
    zt = population.zip_table()

    def s(x: int) -> int:
        """Scale a SF=1 stratum size by ``sf``."""
        return max(1, int(round(x * sf)))

    basel_fi = sum(
        BASEL_TRUE[z][t] + BASEL_FALSE[z][t]
        for z in BASEL_TRUE
        for t in ("intrusion", "fire")
    ) if basel_exact else 0

    multi = s(N_COVERED) - s(N_SINGLE)
    multi_fi = s(N_COVERED_FI) - s(N_SINGLE_FI)
    uncov = s(N_TOTAL) - s(N_COVERED)
    uncov_fi = int(round(uncov * 0.19))
    strata = [
        # (n, covered, single, fi, exclude_basel_zips)
        (s(N_SINGLE_FI), True, True, True, False),
        (s(N_SINGLE) - s(N_SINGLE_FI), True, True, False, False),
        (max(0, multi_fi - basel_fi), True, False, True, True),
        (multi - multi_fi, True, False, False, False),
        (uncov_fi, False, None, True, False),
        (uncov - uncov_fi, False, None, False, False),
    ]

    parts: list[pd.DataFrame] = []
    for n, covered, single, fi, excl_basel in strata:
        if n <= 0:
            continue
        zips, probs = _zip_pool(zt, covered, single)
        if excl_basel:
            keep = ~np.isin(zips, list(BASEL_TRUE))
            zips, probs = zips[keep], probs[keep]
            probs = probs / probs.sum()
        drawn = g.choice(zips, n, p=probs)
        pdf = _sample_features(g, n, drawn, fi)
        score = _score(pdf, zt)
        flip = g.random(n) < W["noise_rate"]
        pdf["latent_true"] = (score > 0) ^ flip
        parts.append(pdf)

    if basel_exact:
        # Injected durations are fixed far from every Δt in the sweep so
        # the Table 2 cell counts are exact under any threshold choice.
        for spec, latent in ((BASEL_TRUE, True), (BASEL_FALSE, False)):
            for z, cells in spec.items():
                for t, cnt in cells.items():
                    if cnt == 0:
                        continue
                    pdf = _sample_features(g, cnt, np.repeat(z, cnt), fi=True)
                    pdf["alarm_type"] = t
                    pdf["latent_true"] = latent
                    pdf["_forced_duration"] = 3600.0 if latent else 10.0
                    parts.append(pdf)

    out = pd.concat(parts, ignore_index=True)
    if "_forced_duration" not in out.columns:
        out["_forced_duration"] = np.nan
    n = len(out)
    lt = out["latent_true"].to_numpy()
    mu = np.where(lt, DUR_TRUE[0], DUR_FALSE[0])
    sg = np.where(lt, DUR_TRUE[1], DUR_FALSE[1])
    out["duration_s"] = np.exp(g.normal(mu, sg)).round(1)
    forced = out.pop("_forced_duration")
    out.loc[forced.notna(), "duration_s"] = forced[forced.notna()]
    out.insert(0, "alarm_id", np.arange(1, n + 1, dtype="int64"))
    # Shuffle so train/test splits are not stratum-ordered.
    out = out.sample(frac=1.0, random_state=seed).reset_index(drop=True)
    out["alarm_id"] = np.arange(1, n + 1, dtype="int64")
    return out


def generate(
    spark: SparkSession, *, sf: float = 1.0, seed: int = 11, basel_exact: bool = True
) -> DataFrame:
    """The Sitasys alarm table as a Spark DataFrame."""
    return spark.createDataFrame(
        generate_pandas(sf=sf, seed=seed, basel_exact=basel_exact)
    )
