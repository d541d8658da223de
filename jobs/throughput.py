"""End-to-end throughput run (Section 5.5, Figures 11/12).

Prints serializer throughput, then drains the same test-set stream
through the consumer in the two Section 6.2 configurations and prints
both rates, their ratio and the repartitioned run's per-component
breakdown.

Usage: python jobs/throughput.py [--n-alarms 100000]
"""
from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from _common import get_spark

from repro.broker.log import PartitionedLog
from repro.broker.producer import stream_from_test_set
from repro.core import verifier
from repro.datasets import sitasys
from repro.docstore.store import DocumentStore
from repro.evaluation import throughput
from repro.streaming import consumer

SEED = 11
# (log partitions, repartition, records per segment). The file source
# splits its input by itself, so the serial case pins processing to one
# task explicitly: the paper's unpartitioned-Kafka symptom, "all RDDs
# will be processed on a single execution thread". Repartitioning the
# stream is the fix.
CONFIGS = {"serial": (1, 1, 250_000), "repartitioned": (8, 16, 4_000)}


def drain(spark, work: Path, name: str, test_pdf, n_alarms: int, vm, history,
          n_partitions: int, repartition: int, records_per_segment: int):
    """Produce ``n_alarms`` test-set alarms into a fresh log and drain it."""
    log = PartitionedLog(work / name / "log", n_partitions)
    stats = stream_from_test_set(
        log, test_pdf, n_alarms=n_alarms, seed=SEED,
        records_per_segment=records_per_segment,
    )
    m = consumer.run_available(
        spark, log, vm, history, str(work / name / "out"), str(work / name / "ckpt"),
        repartition=repartition,
    )
    if m.n_alarms != n_alarms:
        raise RuntimeError(f"{name}: verified {m.n_alarms} of {n_alarms} alarms")
    return stats, m


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-alarms", type=int, default=100_000)
    args = ap.parse_args()

    print("Serializer throughput (paper: Gson ~2x Jackson, Figure 11):")
    for r in throughput.serializer_throughput():
        print(f"  {r.name:<12} {r.records_per_s:>12,.0f} records/s")

    spark = get_spark("throughput")
    df = spark.createDataFrame(sitasys.generate_pandas(sf=0.05, seed=SEED, basel_exact=False))
    train_df, test_df = verifier.split(df, seed=SEED)
    vm = verifier.train(train_df, algo="rf", dataset="sitasys")
    test_pdf = test_df.toPandas()
    with tempfile.TemporaryDirectory(prefix="repro-tp-") as tmp:
        work = Path(tmp)
        history = DocumentStore(work / "store").collection("alarms")
        history.insert_many(spark, train_df)
        # One small drain first, so JIT and parquet-writer warm-up are
        # not charged to the measured configurations.
        drain(spark, work, "warmup", test_pdf, 5_000, vm, history, *CONFIGS["repartitioned"])
        results = {
            name: drain(spark, work, name, test_pdf, args.n_alarms, vm, history, *cfg)
            for name, cfg in CONFIGS.items()
        }
    print(f"\nEnd-to-end, {args.n_alarms:,} alarms per configuration:")
    for name, (stats, m) in results.items():
        print(
            f"  {name:<14} produced at {stats.records_per_s:>9,.0f} rec/s; "
            f"consumed in {m.elapsed_s:5.1f} s -> {m.alarms_per_s:>7,.0f} alarms/s "
            f"({m.n_batches} micro-batches)"
        )
    serial, fast = results["serial"][1], results["repartitioned"][1]
    print(f"Repartitioned / serial: {fast.alarms_per_s / serial.alarms_per_s:.1f}x")
    print(f"Consumer time breakdown, repartitioned (Figure 12): {fast.breakdown()}")
    print("Paper: ~30K alarms/s per consumer incl. historical analysis.")
    spark.stop()


if __name__ == "__main__":
    main()
