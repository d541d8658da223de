"""Headline accuracy-shape tests (Figure 10 / Section 5.3.4).

Full-budget accuracy lives in jobs/table8.py at larger SF; these tests
pin the *ordering* at test scale: Sitasys (sensor features) beats London
(generic features) beats SF-usable (no property type), and the
all-labeled SF subset including medical collapses to ~chance.
"""
from __future__ import annotations

import pytest

from repro.core import verifier
from repro.datasets import sanfrancisco as sfd


@pytest.fixture(scope="module")
def acc(spark, sitasys_df, london_df):
    out = {}
    for name, df in (("sitasys", sitasys_df), ("london", london_df)):
        train_df, test_df = verifier.split(df, seed=2)
        vm = verifier.train(train_df, algo="rf", dataset=name, fast=True)
        out[name] = verifier.accuracy(vm, test_df)
    usable = sfd.generate(spark, sf=0.3, subset="usable")
    train_df, test_df = verifier.split(usable, seed=2)
    vm = verifier.train(train_df, algo="rf", dataset="sf", fast=True)
    out["sf"] = verifier.accuracy(vm, test_df)
    return out


def test_sitasys_highest_accuracy(acc):
    assert acc["sitasys"] > acc["london"] - 0.01
    assert acc["sitasys"] > acc["sf"]


def test_sitasys_strong_at_test_scale(acc):
    # >90% at full scale with full budgets (paper / jobs/table8.py); at
    # SF=0.02 with fast-mode models we demand a still-high floor.
    assert acc["sitasys"] >= 0.78


def test_london_in_expected_band(acc):
    assert 0.72 <= acc["london"] <= 0.92


def test_sf_usable_in_expected_band(acc):
    assert 0.68 <= acc["sf"] <= 0.88


def test_sf_all_labeled_near_chance(spark):
    # Paper: "only around 53% accuracy" with medical labels included.
    al = sfd.generate(spark, sf=0.01, subset="all_labeled")
    train_df, test_df = verifier.split(al, seed=2)
    vm = verifier.train(train_df, algo="lr", dataset="sf", fast=True)
    a = verifier.accuracy(vm, test_df)
    assert a < 0.62


def test_probability_available_for_decision_support(spark, rf_model, sitasys_split):
    """Operators need the confidence, not just the verdict (Section 6.1)."""
    _, test_df = sitasys_split
    out = verifier.verify(rf_model, test_df.limit(100))
    rows = out.select(verifier.CONFIDENCE_COL).collect()
    assert len({round(r[0], 6) for r in rows}) > 1  # not a constant
