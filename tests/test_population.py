"""Tests for the Swiss location registry substrate."""
from __future__ import annotations

import pytest

from repro.datasets import population


@pytest.fixture(scope="module")
def cities():
    return population.registry()


@pytest.fixture(scope="module")
def zt():
    return population.zip_table()


def test_city_count(cities):
    assert len(cities) == population.N_CITIES


def test_covered_count_matches_paper(cities):
    # ~1/4 of Swiss municipalities have incident reports (Section 5.2).
    assert sum(c.covered for c in cities) == 1_027


def test_basel_is_covered_with_real_zips(cities):
    basel = next(c for c in cities if c.name == "Basel")
    assert basel.covered
    assert set(basel.zips) == {"4001", "4051", "4057", "4058"}


def test_city_names_unique(cities):
    names = [c.name for c in cities]
    assert len(set(names)) == len(names)


def test_zip_codes_unique(zt):
    assert zt["zip_code"].is_unique


def test_multi_zip_cities_exist(zt):
    multi = zt.loc[~zt.single_zip, "city"].nunique()
    assert multi == population.N_MULTI_ZIP_CITIES


def test_single_zip_flag_consistent(zt):
    per_city = zt.groupby("city")["zip_code"].count()
    for city, n in per_city.items():
        flags = zt.loc[zt.city == city, "single_zip"].unique()
        assert list(flags) == [n == 1]


def test_zip_population_sums_to_city_population(zt):
    sums = zt.groupby("city")["zip_population"].sum()
    pops = zt.groupby("city")["city_population"].first()
    # Integer flooring of Dirichlet shares loses at most n_zips persons.
    assert ((pops - sums).abs() <= 8).all()


def test_risks_positive(zt):
    assert (zt["risk_fire"] > 0).all()
    assert (zt["risk_intrusion"] > 0).all()


def test_languages_cover_three_regions(cities):
    langs = {c.language for c in cities}
    assert langs == {"de", "fr", "en"}


def test_registry_deterministic():
    a = population.zip_table()
    b = population.zip_table.__wrapped__()
    assert a.equals(b)


def test_city_of_lookup(zt):
    city = zt.set_index("zip_code")["city"]
    assert city["4051"] == "Basel"
    assert "0000" not in city.index


def test_zip_table_spark_roundtrip(spark, zt):
    sdf = population.zip_table_spark(spark)
    assert sdf.count() == len(zt)
    assert set(sdf.columns) == set(zt.columns)


def test_synthetic_zones_shape():
    z = population.synthetic_zones(50, seed=1, prefix="X")
    assert len(z) == 50
    assert z["zone_code"].str.startswith("X").all()
    assert z["zone_code"].is_unique
    assert (z["population"] > 0).all()


def test_synthetic_zones_deterministic():
    a = population.synthetic_zones(30, seed=5)
    b = population.synthetic_zones(30, seed=5)
    assert a.equals(b)
