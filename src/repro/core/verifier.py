"""The verification service: train offline, verify with probability.

Reception of a new alarm triggers a classification (true/false) plus the
associated probability (confidence), which Alarm Receiving Center
operators use to prioritize (Sections 4.2, 6.1). The model is trained
offline on the duration-threshold-labeled alarm history (50 % train /
50 % test, as in Section 5.1.1) and applied per micro-batch at stream
time.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from py4j.java_gateway import JavaObject
from pyspark.ml import Pipeline, PipelineModel
from pyspark.ml.functions import vector_to_array
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import features, labeling, models

VERIFICATION_COL = "verification"  # true => genuine alarm
CONFIDENCE_COL = "confidence"  # probability of the predicted class


@dataclass
class VerificationModel:
    """A trained encoder+classifier pipeline with its provenance."""

    model: PipelineModel
    algo: str
    dataset: str
    input_dim: int
    delta_t_s: float
    extra_numeric: tuple[str, ...] = ()

    @cached_property
    def _jvm_pipeline(self) -> JavaObject:
        """The fitted pipeline as one JVM ``PipelineModel``, built once.

        PySpark's ``PipelineModel.transform`` sends every stage's params
        to the JVM again on each call; the JVM pipeline holds the same
        stage objects and transforms in one call, so building one
        ``verify`` plan of the fast RF takes 68 py4j round trips, not 174."""
        return self.model._to_java()

    def _transform(self, df: DataFrame) -> DataFrame:
        """``model.transform(df)`` in one py4j call."""
        return DataFrame(self._jvm_pipeline.transform(df._jdf), df.sparkSession)


def split(df: DataFrame, *, seed: int = 0) -> tuple[DataFrame, DataFrame]:
    """50/50 train/test split (the paper's protocol, Section 5.1.1)."""
    train, test = df.randomSplit([0.5, 0.5], seed=seed)
    return train, test


def train(
    train_df: DataFrame,
    *,
    algo: str,
    dataset: str,
    delta_t_s: float = labeling.DEFAULT_DELTA_T_S,
    extra_numeric: tuple[str, ...] = (),
    fast: bool = False,
) -> VerificationModel:
    """Fit one of the 4 classifiers on duration-labeled alarms.

    ``extra_numeric`` appends continuous features (the hybrid a-priori
    risk factors) after the hashed categorical block.
    """
    stages, dim = features.build_encoder(dataset, extra_numeric)
    est = models.build_estimator(algo, dim, fast=fast)
    fitted = Pipeline(stages=[*stages, est]).fit(
        labeling.with_label(train_df, delta_t_s)
    )
    return VerificationModel(
        model=fitted,
        algo=algo,
        dataset=dataset,
        input_dim=dim,
        delta_t_s=delta_t_s,
        extra_numeric=extra_numeric,
    )


def verify(vm: VerificationModel, df: DataFrame) -> DataFrame:
    """Score alarms: adds ``verification`` (bool) and ``confidence``.

    RF / LR / DNN expose calibrated class probabilities directly.
    ``LinearSVC`` does not (Section 6.1 "provide probability of
    verification" — most, not all, implementations do); for it we map
    the signed hinge margin through a sigmoid as a pseudo-confidence.
    """
    scored = vm._transform(df)
    if "probability" in scored.columns:
        conf = F.array_max(vector_to_array(F.col("probability")))
    else:  # LinearSVC: rawPrediction = [-margin, margin]
        margin = F.element_at(vector_to_array(F.col("rawPrediction")), 2)
        conf = 1.0 / (1.0 + F.exp(-F.abs(margin)))
    return scored.select(
        *df.columns,
        "prediction",
        (F.col("prediction") == 1.0).alias(VERIFICATION_COL),
        conf.alias(CONFIDENCE_COL),
    )


def accuracy(vm: VerificationModel, test_df: DataFrame) -> float:
    """Verification accuracy against the duration-threshold label."""
    scored = vm._transform(labeling.with_label(test_df, vm.delta_t_s))
    row = scored.agg(
        F.avg(
            (F.col("prediction") == F.col(labeling.LABEL_COL)).cast("double")
        ).alias("acc")
    ).first()
    return float(row["acc"])
