"""A-priori risk factors from the incident history (Section 5.4).

The incident history (city-level, free-text-derived) is aggregated into
one risk figure per location and attached to each alarm as an extra
model feature. Three variants, exactly as in the paper:

- **ARF** (absolute): incidents per capita of the annotated location;
- **NRF** (normalized): ARF min-max scaled to [0, 1] over locations;
- **BRF** (binary): 1 for the top-25 % most report-frequent locations.

Because incidents are only city-granular while alarms are ZIP-granular,
a city's factor is shared by all its ZIPs — the granularity loss that
motivates Table 9's single-ZIP scenarios (c) and (d).

Also here: the Figure 8 security-map levels (green/yellow/red by NRF
tertile over covered cities).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.datasets import population

RISK_KINDS = ("arf", "nrf", "brf")
RISK_COL = "risk"
BRF_TOP_FRACTION = 0.25


def incident_counts(incidents: DataFrame) -> DataFrame:
    """Reports per city (and per topic) from the stored incident history."""
    return incidents.groupBy("city").agg(
        F.count("*").alias("n_incidents"),
        F.sum((F.col("topic") == "fire").cast("long")).alias("n_fire"),
        F.sum((F.col("topic") == "intrusion").cast("long")).alias("n_intrusion"),
    )


def risk_factors(spark: SparkSession, incidents: DataFrame) -> DataFrame:
    """city, n_incidents, arf, nrf, brf for every city with reports."""
    pops = spark.createDataFrame(
        [(c.name, c.population) for c in population.registry()],
        ["city", "population"],
    )
    counts = incident_counts(incidents).join(pops, "city", "inner")
    arf = counts.withColumn(
        "arf", F.col("n_incidents") / F.col("population")
    )
    bounds = arf.agg(
        F.min("arf").alias("lo"), F.max("arf").alias("hi")
    )
    with_nrf = arf.crossJoin(bounds).withColumn(
        "nrf",
        F.when(F.col("hi") == F.col("lo"), F.lit(0.0)).otherwise(
            (F.col("arf") - F.col("lo")) / (F.col("hi") - F.col("lo"))
        ),
    )
    # BRF: 1 for the 25 % of locations with the most reports.
    ranked = with_nrf.withColumn(
        "pr", F.percent_rank().over(Window.orderBy(F.col("n_incidents")))
    )
    return ranked.withColumn(
        "brf", (F.col("pr") >= F.lit(1.0 - BRF_TOP_FRACTION)).cast("double")
    ).select("city", "n_incidents", "n_fire", "n_intrusion", "arf", "nrf", "brf")


def with_city(spark: SparkSession, alarms: DataFrame) -> DataFrame:
    """Alarms joined with their city and single-ZIP flag via the registry."""
    reg = population.zip_table_spark(spark).select(
        "zip_code", "city", "single_zip"
    )
    return alarms.join(reg, "zip_code", "left")


def with_risk(
    spark: SparkSession,
    alarms: DataFrame,
    factors: DataFrame,
    kind: str,
) -> DataFrame:
    """Attach the chosen a-priori risk factor as a ``risk`` column.

    Alarms in cities without reports get risk 0 — no information, no
    penalty (the evaluation restricts to covered locations anyway).
    """
    if kind not in RISK_KINDS:
        raise ValueError(f"unknown risk kind {kind!r}; expected one of {RISK_KINDS}")
    df = alarms if "city" in alarms.columns else with_city(spark, alarms)
    joined = df.join(
        factors.select("city", F.col(kind).alias(RISK_COL)), "city", "left"
    )
    return joined.fillna({RISK_COL: 0.0})


SCENARIOS = ("a", "b", "c", "d")


def scenario_filter(alarms_with_city: DataFrame, factors: DataFrame, scenario: str) -> DataFrame:
    """Restrict alarms to one of Table 9's four scenarios.

    Every scenario keeps only alarms whose location has incident
    reports (the paper's coverage restriction: 350 K → 130,958).
    """
    covered = factors.select("city")
    df = alarms_with_city.join(covered, "city", "leftsemi")
    if scenario in ("c", "d"):
        df = df.where(F.col("single_zip"))
    if scenario in ("b", "d"):
        df = df.where(F.col("alarm_type").isin("fire", "intrusion"))
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    return df


def security_levels(factors: DataFrame) -> DataFrame:
    """Figure 8 security map: green / yellow / red by NRF tertile."""
    ranked = factors.withColumn(
        "pr", F.percent_rank().over(Window.orderBy(F.col("nrf")))
    )
    return ranked.withColumn(
        "level",
        F.when(F.col("pr") < 1 / 3, "green")
        .when(F.col("pr") < 2 / 3, "yellow")
        .otherwise("red"),
    ).select("city", "nrf", "level")
