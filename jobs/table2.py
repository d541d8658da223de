"""Print Table 2: Basel true alarms (per ZIP) vs incident reports (city).

Usage: python jobs/table2.py [--sf 1.0]
"""
from __future__ import annotations

import argparse

from _common import get_spark

from repro.datasets import sitasys
from repro.evaluation import table2, table9


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=1.0, help="alarm scale factor")
    args = ap.parse_args()

    spark = get_spark("table2")
    alarms = sitasys.generate(spark, sf=args.sf, basel_exact=True)
    incidents = table9.incident_history(spark)
    out = table2.compute(alarms, incidents)
    print("Table 2: true alarms per Basel ZIP vs city-level incident reports")
    print(out.to_string(index=False, na_rep="[unknown]"))
    spark.stop()


if __name__ == "__main__":
    main()
