"""Shared SparkSession bootstrap for the job entrypoints.

Jobs are runnable both as ``python jobs/<name>.py`` (pip-installed
pyspark) and via ``spark-submit jobs/<name>.py``.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_spark(app_name: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
