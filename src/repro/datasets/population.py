"""Synthetic Swiss location registry.

The paper's hybrid approach hinges on a granularity mismatch: Sitasys
alarms carry ZIP codes, while incident reports only name a city or
village. Large cities (Basel, Zurich, ...) span several ZIP codes, so a
city-level a-priori risk factor is only an approximation for any single
ZIP (Section 5.2, Table 2).

This module builds a deterministic registry of ~4,100 cities (roughly
the number of Swiss municipalities) with Zipf-distributed populations.
The most populous cities get multiple ZIP codes; everyone else gets one.
Real Basel ZIPs 4001/4051/4057/4058 are included so Table 2 can be
reproduced verbatim. Each ZIP carries latent per-capita fire and
intrusion risks — the hidden ground truth that both the alarm generator
and the incident-report generator are driven by, which is what makes the
externally-derived risk factor an informative (but noisy, city-level)
proxy at classification time.

The top ``N_COVERED_CITIES`` cities by (noisy) population rank are
flagged ``covered``: these are the 1,027 cities and villages for which
the incidents corpus has reports (~1/4 of all Swiss municipalities, as
in the paper).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

N_CITIES = 4_100
N_COVERED_CITIES = 1_027
N_MULTI_ZIP_CITIES = 40
DEFAULT_SEED = 7

# Real city names for flavour; everything else gets a unique synthetic
# single-token name so gazetteer extraction from free text is exact.
_REAL_CITIES = [
    ("Zurich", 420_000, 8),
    ("Geneva", 200_000, 6),
    ("Basel", 175_000, 4),
    ("Lausanne", 140_000, 5),
    ("Bern", 133_000, 5),
    ("Winterthur", 110_000, 3),
    ("Luzern", 82_000, 3),
    ("StGallen", 76_000, 3),
    ("Lugano", 63_000, 2),
    ("Biel", 55_000, 2),
    ("Langendorf", 3_600, 1),
]
_BASEL_ZIPS = ["4001", "4051", "4057", "4058"]

_NAME_PREFIXES = [
    "Alt", "Neu", "Ober", "Unter", "Hinter", "Vorder", "Gross", "Klein",
    "Hoch", "Nieder", "Schoen", "Wald", "Berg", "Tal", "See", "Bach",
]
_NAME_SUFFIXES = [
    "dorf", "wil", "ikon", "ingen", "berg", "tal", "bach", "feld",
    "hausen", "heim", "au", "egg", "matt", "ried", "brunn", "stein",
]

# Language regions: German-, French- and Italian/English-leaning cities.
LANGUAGES = ("de", "fr", "en")


@dataclass(frozen=True)
class City:
    """One municipality with its ZIP codes and latent risk profile."""

    name: str
    population: int
    zips: tuple[str, ...]
    covered: bool
    language: str
    risk_fire: float  # latent per-capita fire-incident rate (hidden)
    risk_intrusion: float


@functools.lru_cache(maxsize=4)
def registry(seed: int = DEFAULT_SEED) -> tuple[City, ...]:
    """Deterministic tuple of all cities, largest population first."""
    g = np.random.default_rng(seed)

    names: list[str] = [c[0] for c in _REAL_CITIES]
    pops: list[int] = [c[1] for c in _REAL_CITIES]
    n_zips: list[int] = [c[2] for c in _REAL_CITIES]

    n_synth = N_CITIES - len(_REAL_CITIES)
    ranks = np.arange(2, n_synth + 2, dtype=float)
    synth_pops = (900_000 / ranks ** 0.85).astype(int) + g.integers(80, 400, n_synth)
    synth_pops = np.minimum(synth_pops, 95_000)
    for i in range(n_synth):
        p = _NAME_PREFIXES[i % len(_NAME_PREFIXES)]
        s = _NAME_SUFFIXES[(i // len(_NAME_PREFIXES)) % len(_NAME_SUFFIXES)]
        names.append(f"{p}{s}{i:04d}")
        pops.append(int(synth_pops[i]))
        # The biggest synthetic towns also get several ZIPs.
        extra_multi = N_MULTI_ZIP_CITIES - sum(1 for c in _REAL_CITIES if c[2] > 1)
        n_zips.append(int(g.integers(2, 5)) if i < extra_multi else 1)

    # Deterministic, collision-free ZIP allocation (Basel keeps its real ones).
    next_zip = 1000
    used = set(_BASEL_ZIPS)

    def take_zip() -> str:
        """Next unused 4-digit ZIP code."""
        nonlocal next_zip
        while str(next_zip) in used:
            next_zip += 1
        used.add(str(next_zip))
        z = str(next_zip)
        next_zip += 1
        return z

    # Coverage: top cities by noisy population rank, so coverage skews
    # towards (but is not identical to) the most populous places.
    noisy_rank = np.array(pops, dtype=float) * np.exp(g.normal(0, 0.6, N_CITIES))
    covered_idx = set(np.argsort(-noisy_rank)[:N_COVERED_CITIES].tolist())
    # Basel must be covered: the incidents corpus pins its report counts
    # (Table 2). Swap it in for the lowest-ranked covered city if needed.
    basel_i = names.index("Basel")
    if basel_i not in covered_idx:  # pragma: no cover - seed-dependent
        covered_idx.discard(min(covered_idx, key=lambda i: noisy_rank[i]))
        covered_idx.add(basel_i)

    lang_draw = g.random(N_CITIES)
    cities: list[City] = []
    for i in range(N_CITIES):
        zips = (
            tuple(_BASEL_ZIPS)
            if names[i] == "Basel"
            else tuple(take_zip() for _ in range(n_zips[i]))
        )
        lang = "de" if lang_draw[i] < 0.56 else ("fr" if lang_draw[i] < 0.86 else "en")
        cities.append(
            City(
                name=names[i],
                population=pops[i],
                zips=zips,
                covered=i in covered_idx,
                language=lang,
                risk_fire=float(g.gamma(2.0, 0.5)),
                risk_intrusion=float(g.gamma(2.0, 0.7)),
            )
        )
    cities.sort(key=lambda c: -c.population)
    return tuple(cities)


@functools.lru_cache(maxsize=4)
def zip_table(seed: int = DEFAULT_SEED) -> pd.DataFrame:
    """One row per ZIP: zip_code, city, city_population, zip_population,
    n_zips_in_city, single_zip, covered, language, risk_fire, risk_intrusion.

    Per-ZIP risks jitter around the city risk so districts of one city
    genuinely differ (the information a city-level risk factor loses).
    """
    g = np.random.default_rng(seed + 1)
    rows = []
    for c in registry(seed):
        k = len(c.zips)
        shares = g.dirichlet(np.full(k, 5.0)) if k > 1 else np.array([1.0])
        for z, share in zip(c.zips, shares):
            # Districts of a multi-ZIP city genuinely differ from the
            # city aggregate (the information a city-level risk factor
            # loses — Table 2); a single-ZIP city *is* its only ZIP, so
            # its risk is the city risk exactly.
            jf = float(np.exp(g.normal(0, 0.35))) if k > 1 else 1.0
            ji = float(np.exp(g.normal(0, 0.35))) if k > 1 else 1.0
            rows.append(
                {
                    "zip_code": z,
                    "city": c.name,
                    "city_population": c.population,
                    "zip_population": max(1, int(c.population * share)),
                    "n_zips_in_city": k,
                    "single_zip": k == 1,
                    "covered": c.covered,
                    "language": c.language,
                    "risk_fire": c.risk_fire * jf,
                    "risk_intrusion": c.risk_intrusion * ji,
                }
            )
    return pd.DataFrame(rows)


def zip_table_spark(spark: SparkSession, seed: int = DEFAULT_SEED) -> DataFrame:
    """The ZIP registry as a Spark DataFrame (for joins in queries)."""
    return spark.createDataFrame(zip_table(seed))


def covered_cities(seed: int = DEFAULT_SEED) -> tuple[City, ...]:
    """The 1,027 cities the incidents corpus has reports for."""
    return tuple(c for c in registry(seed) if c.covered)


def synthetic_zones(n: int, *, seed: int, prefix: str = "Z") -> pd.DataFrame:
    """Generic location zones for the non-Swiss datasets (London, SF).

    Returns zone_code, population, risk — the same latent-risk machinery
    as the Swiss registry, without the city/ZIP hierarchy (the open
    datasets only expose a flat ZIP column, Table 1).
    """
    g = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=float)
    pops = (500_000 / ranks ** 0.7).astype(int) + 500
    return pd.DataFrame(
        {
            "zone_code": [f"{prefix}{i:04d}" for i in range(1, n + 1)],
            "population": pops,
            "risk": g.gamma(2.0, 0.6, n),
        }
    )
