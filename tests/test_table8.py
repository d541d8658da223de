"""Table 8 harness smoke tests (fast mode; full timings come from
jobs/table8.py)."""
from __future__ import annotations

import pytest

from repro.evaluation import table8


@pytest.fixture(scope="module")
def results(spark):
    return table8.run(
        spark,
        sf_per_dataset={"sitasys": 0.01, "london": 0.005, "sf": 0.25},
        algos=("lr", "rf"),
        fast=True,
    )


def test_all_pairs_present(results):
    pairs = {(r.algo, r.dataset) for r in results}
    assert pairs == {
        (a, d) for a in ("lr", "rf") for d in ("sitasys", "london", "sf")
    }


def test_times_positive_and_paper_reference_attached(results):
    for r in results:
        assert r.train_time_s > 0
        assert r.paper_time_s == table8.PAPER_TRAINING_TIME[(r.algo, r.dataset)]


def test_accuracies_above_chance(results):
    for r in results:
        assert r.accuracy > 0.55, (r.algo, r.dataset, r.accuracy)


def test_train_sizes_reflect_datasets(results):
    n = {r.dataset: r.n_train for r in results}
    assert n["sitasys"] > n["sf"]
    assert n["london"] > n["sf"]


def test_paper_reference_table_complete():
    assert set(table8.PAPER_TRAINING_TIME) == {
        (a, d)
        for a in ("rf", "svm", "lr", "dnn")
        for d in ("sitasys", "london", "sf")
    }
