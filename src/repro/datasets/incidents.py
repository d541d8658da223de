"""Synthetic multilingual incident-report corpus (Section 5.2).

The paper collected 5,056 free-text reports about Swiss fire and
intrusion incidents (Twitter, RSS, web pages via webhose.io): 2,743
German, 1,516 French, 797 English, covering 1,027 distinct cities and
villages (~1/4 of Swiss municipalities); the city of Basel alone
accounts for 10 intrusion and 464 fire reports (Table 2).

This generator emits a *raw feed* with exactly that relevant-report
composition, plus irrelevant decoy reports (sports, traffic, weather)
that the text-analytics pipeline must filter out. Relevant reports are
rendered from per-language templates that embed a topic keyword, the
city name and a date in the language's conventional format — exercising
the full pipeline: keyword topic filter → language identification →
date extraction → gazetteer location extraction. Hidden ``truth_*``
columns carry the generation-time annotations so tests can measure
pipeline exactness; the pipeline itself must never read them.

Report counts are allocated deterministically: every covered city gets
at least one report, the remainder proportional to population × latent
risk (largest-remainder rounding) — the same latent risk that drives the
Sitasys alarm generator, which is what makes the derived a-priori risk
factors informative features.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.datasets import population

N_RELEVANT = 5_056
LANG_TOTALS = {"de": 2_743, "fr": 1_516, "en": 797}
BASEL_REPORTS = {"fire": 464, "intrusion": 10}
N_DECOYS = 1_500
SEED = 41

TEMPLATES = {
    ("de", "fire"): (
        "Brand in {city}: Die Feuerwehr stand am {date} im Einsatz und "
        "konnte das Feuer nach Stunden loeschen.",
        "Grosses Feuer in {city} am {date}: Die Feuerwehr war mit vielen "
        "Kraeften vor Ort, die Brandursache ist noch unklar.",
    ),
    ("de", "intrusion"): (
        "Einbruch in {city}: Unbekannte sind am {date} in ein Wohnhaus "
        "eingebrochen, die Polizei hat die Ermittlungen aufgenommen.",
        "Die Polizei meldet einen Einbruch in {city} am {date}: Die "
        "Taeter sind mit Schmuck und Bargeld gefluechtet.",
    ),
    ("fr", "fire"): (
        "Incendie a {city}: les pompiers sont intervenus le {date} et "
        "ont pu maitriser le feu apres plusieurs heures.",
        "Un feu s'est declare a {city} le {date}, les pompiers ont "
        "deploye des moyens importants sur place.",
    ),
    ("fr", "intrusion"): (
        "Cambriolage a {city}: des inconnus se sont introduits le {date} "
        "dans une maison, la police a ouvert une enquete.",
        "La police signale un cambriolage a {city} le {date}: les "
        "auteurs ont emporte des bijoux et de l'argent.",
    ),
    ("en", "fire"): (
        "Fire in {city}: firefighters responded on {date} and brought "
        "the blaze under control after several hours.",
        "A large fire broke out in {city} on {date}, and the fire "
        "brigade deployed many crews to the scene.",
    ),
    ("en", "intrusion"): (
        "Burglary in {city}: intruders broke into a home on {date} and "
        "the police are investigating the case.",
        "Police report a burglary in {city} on {date}: the offenders "
        "escaped with jewellery and cash.",
    ),
}

# Decoys share the languages, city mentions and date formats of real
# reports but contain none of the topic keywords.
DECOY_TEMPLATES = {
    "de": (
        "Fussballspiel in {city}: Der Club gewann am {date} mit drei "
        "Toren Unterschied vor grossem Publikum.",
        "Stau auf der Umfahrung bei {city} am {date}: Die Kolonne war "
        "mehrere Kilometer lang.",
    ),
    "fr": (
        "Match de football a {city}: le club local a gagne le {date} "
        "devant un nombreux public.",
        "Bouchon sur la route de contournement pres de {city} le {date}: "
        "la colonne mesurait plusieurs kilometres.",
    ),
    "en": (
        "Football match in {city}: the local club won on {date} before "
        "a large crowd of supporters.",
        "Traffic jam on the bypass near {city} on {date}: the queue "
        "stretched for several kilometres.",
    ),
}

_DATE_FMT = {"de": "%d.%m.%Y", "fr": "%d/%m/%Y", "en": "%Y-%m-%d"}
_START = pd.Timestamp("2015-01-01")
_DAYS = 1_034  # through end of October 2017
SOURCES = ("twitter", "rss", "web")


def _allocate_counts() -> pd.DataFrame:
    """Per-(city, topic) relevant-report counts; deterministic."""
    cities = [c for c in population.covered_cities() if c.name != "Basel"]
    weights = np.array(
        [c.population * (c.risk_fire + c.risk_intrusion) for c in cities],
        dtype=float,
    )
    weights /= weights.sum()
    n_basel = sum(BASEL_REPORTS.values())
    remaining = N_RELEVANT - n_basel - len(cities)  # 1 guaranteed per city
    raw = weights * remaining
    base = np.floor(raw).astype(int)
    frac_order = np.argsort(-(raw - base))
    base[frac_order[: remaining - base.sum()]] += 1
    totals = base + 1

    rows = [
        {"city": "Basel", "topic": t, "n": n} for t, n in BASEL_REPORTS.items()
    ]
    for c, n in zip(cities, totals):
        share_fire = c.risk_fire / (c.risk_fire + c.risk_intrusion)
        n_fire = int(round(n * share_fire))
        if n_fire:
            rows.append({"city": c.name, "topic": "fire", "n": n_fire})
        if n - n_fire:
            rows.append({"city": c.name, "topic": "intrusion", "n": n - n_fire})
    return pd.DataFrame(rows)


def _assign_languages(cities: pd.Series) -> np.ndarray:
    """Report languages: city's region language, minimally adjusted so
    per-language totals match the paper exactly."""
    city_lang = {c.name: c.language for c in population.registry()}
    langs = np.array([city_lang[c] for c in cities], dtype=object)
    counts = {lang: int((langs == lang).sum()) for lang in LANG_TOTALS}
    over = {k: counts[k] - LANG_TOTALS[k] for k in LANG_TOTALS}
    g = np.random.default_rng(SEED)
    order = g.permutation(len(langs))
    for i in order:
        src = str(langs[i])
        if over[src] <= 0:
            continue
        dst = max(over, key=lambda k: -over[k])
        if over[dst] >= 0:
            break
        langs[i] = dst
        over[src] -= 1
        over[dst] += 1
    return langs


def generate_relevant() -> pd.DataFrame:
    """The 5,056 relevant reports with hidden ``truth_*`` annotations."""
    counts = _allocate_counts()
    cities = counts.loc[counts.index.repeat(counts["n"]), ["city", "topic"]]
    cities = cities.reset_index(drop=True)
    langs = _assign_languages(cities["city"])
    g = np.random.default_rng(SEED + 1)
    dates = _START + pd.to_timedelta(g.integers(0, _DAYS, len(cities)), unit="D")

    texts, metas_loc, metas_date = [], [], []
    for i, (city, topic) in enumerate(zip(cities["city"], cities["topic"])):
        lang = str(langs[i])
        tmpl = TEMPLATES[(lang, topic)][int(g.integers(0, 2))]
        d = dates[i].strftime(_DATE_FMT[lang])
        texts.append(tmpl.format(city=city, date=d))
        metas_loc.append(city if g.random() < 0.7 else None)
        metas_date.append(dates[i].strftime("%Y-%m-%d") if g.random() < 0.6 else None)

    return pd.DataFrame(
        {
            "report_id": np.arange(1, len(cities) + 1, dtype="int64"),
            "source": g.choice(SOURCES, len(cities), p=[0.5, 0.3, 0.2]),
            "text": texts,
            "meta_location": metas_loc,
            "meta_date": metas_date,
            "truth_topic": cities["topic"].to_numpy(),
            "truth_city": cities["city"].to_numpy(),
            "truth_language": langs,
            "truth_date": dates.strftime("%Y-%m-%d"),
        }
    )


def generate_decoys() -> pd.DataFrame:
    """Irrelevant reports the topic filter must reject."""
    g = np.random.default_rng(SEED + 2)
    all_cities = [c.name for c in population.registry()]
    rows = []
    for i in range(N_DECOYS):
        lang = str(g.choice(list(DECOY_TEMPLATES), p=[0.55, 0.3, 0.15]))
        city = str(g.choice(all_cities))
        date = _START + pd.Timedelta(days=int(g.integers(0, _DAYS)))
        tmpl = DECOY_TEMPLATES[lang][int(g.integers(0, 2))]
        rows.append(
            {
                "report_id": N_RELEVANT + i + 1,
                "source": str(g.choice(SOURCES)),
                "text": tmpl.format(city=city, date=date.strftime(_DATE_FMT[lang])),
                "meta_location": city if g.random() < 0.7 else None,
                "meta_date": date.strftime("%Y-%m-%d") if g.random() < 0.6 else None,
                "truth_topic": "none",
                "truth_city": city,
                "truth_language": lang,
                "truth_date": date.strftime("%Y-%m-%d"),
            }
        )
    return pd.DataFrame(rows)


def raw_feed(spark: SparkSession) -> DataFrame:
    """Relevant + decoy reports, shuffled — the pipeline's input."""
    pdf = pd.concat(
        [generate_relevant(), generate_decoys()], ignore_index=True
    )
    pdf = pdf.sample(frac=1.0, random_state=SEED).reset_index(drop=True)
    return spark.createDataFrame(pdf)
