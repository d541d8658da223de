"""Table 8: training time per algorithm and dataset (+ Figure 10 accuracy).

Measures wall-clock ``fit`` time of each of the 4 classification
pipelines on each of the 3 datasets, and the resulting verification
accuracy on the held-out half. Absolute seconds differ from the paper's
(their hardware: Xeon cluster + Titan X GPU for the DNN; ours: one
local[*] session), so EXPERIMENTS.md compares the *shape*: LR fastest,
DNN slowest by a wide margin, SF tiny because only ~12 K usable rows.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from repro.core import models, verifier
from repro.datasets import london, sanfrancisco, sitasys

SEED = 11

# Paper's Table 8 values [seconds], for side-by-side reporting.
PAPER_TRAINING_TIME = {
    ("rf", "sitasys"): 600, ("rf", "london"): 1200, ("rf", "sf"): 75,
    ("svm", "sitasys"): 200, ("svm", "london"): 480, ("svm", "sf"): 20,
    ("lr", "sitasys"): 100, ("lr", "london"): 60, ("lr", "sf"): 10,
    ("dnn", "sitasys"): 5100, ("dnn", "london"): 2460, ("dnn", "sf"): 60,
}


@dataclass(frozen=True)
class TrainingResult:
    """One Table 8 cell: fit time + accuracy for (algo, dataset)."""

    algo: str
    dataset: str
    n_train: int
    train_time_s: float
    accuracy: float
    paper_time_s: int


def _load(spark: SparkSession, dataset: str, sf: float) -> DataFrame:
    if dataset == "sitasys":
        return sitasys.generate(spark, sf=sf, seed=SEED, basel_exact=False)
    if dataset == "london":
        return london.generate(spark, sf=sf, seed=SEED)
    if dataset == "sf":
        return sanfrancisco.generate(spark, sf=sf, seed=SEED, subset="usable")
    raise ValueError(dataset)


def run(
    spark: SparkSession,
    *,
    sf_per_dataset: dict[str, float] | None = None,
    algos: tuple[str, ...] = models.ALGORITHMS,
    fast: bool = False,
) -> list[TrainingResult]:
    """Fit every (algo, dataset) pair once; returns timing + accuracy.

    ``sf_per_dataset`` scales each dataset (defaults keep the paper's
    *relative* sizes: Sitasys 350 K·sf, London 885 K·sf, and SF always
    the usable ~12 K·sf subset of 4.3 M·sf calls).
    """
    sfs = sf_per_dataset or {"sitasys": 0.1, "london": 0.1, "sf": 0.5}
    results: list[TrainingResult] = []
    for dataset, sf in sfs.items():
        train_df, test_df = verifier.split(_load(spark, dataset, sf), seed=SEED)
        train_df = train_df.cache()
        test_df = test_df.cache()
        n_train = train_df.count()
        test_df.count()
        for algo in algos:
            t0 = time.perf_counter()
            vm = verifier.train(train_df, algo=algo, dataset=dataset, fast=fast)
            elapsed = time.perf_counter() - t0
            results.append(
                TrainingResult(
                    algo=algo,
                    dataset=dataset,
                    n_train=n_train,
                    train_time_s=elapsed,
                    accuracy=verifier.accuracy(vm, test_df),
                    paper_time_s=PAPER_TRAINING_TIME[(algo, dataset)],
                )
            )
        train_df.unpersist()
        test_df.unpersist()
    return results
