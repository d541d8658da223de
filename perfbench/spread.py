"""Run-to-run spread of the benchmark: several seeds, one workload.

Run from the repository root:

    python3 perfbench/spread.py --workload drain --seeds 1-10 --seconds 10 \
        --traced-seeds 1-2 --out perfbench/results/drain.json

Runs ``perfbench/run.py`` once per seed, one run at a time, and writes
for every metric its values, median, quartiles (``statistics.quantiles``
with ``n=4``) and the quartile distance as a share of the median. With
``--traced-seeds`` it also makes traced runs, reports the per-layer
medians, and the tracing overhead: the traced median minus the
untraced median of every end-to-end metric.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(spec: str) -> list[int]:
    """``1-10`` or ``1,4,7`` -> a list of seeds."""
    if "-" in spec:
        lo, hi = map(int, spec.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in spec.split(",") if s]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    machine = next((json.loads(line.split(":", 1)[1]) for line in lines
                    if line.startswith("machine:")), {})
    print(f"{workload} seed={seed} trace={trace} wall={wall:.1f}s "
          f"correct={result['correct']} failed={result['failed']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                     if trace == 0), flush=True)
    return {"seed": seed, "wall_s": wall, "machine": machine, **result}


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None, "values": values,
        }
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-seeds", default="")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--out")
    args = ap.parse_args()

    untraced = [one_run(args.workload, s, args.seconds, 0) for s in seeds(args.seeds)]
    traced = [one_run(args.workload, s, args.seconds, 1) for s in seeds(args.traced_seeds)]
    report = {
        "workload": args.workload, "seconds": args.seconds,
        "machine": untraced[0]["machine"],
        "all_correct": all(r["correct"] and r["failed"] == 0 for r in untraced + traced),
        "wall_s": summary([{"metrics": {"wall": {"value": r["wall_s"], "unit": "s"}}}
                           for r in untraced])["wall"],
        "end_to_end": summary(untraced),
    }
    if traced:
        report["per_layer"] = summary(traced)
        report["tracing_overhead"] = {
            name: report["per_layer"][f"traced.{name}"]["median"] - s["median"]
            for name, s in report["end_to_end"].items()
        }
    for name, s in report["end_to_end"].items():
        print(f"  {name:<16} median {s['median']:.4g} {s['unit']:<5} "
              f"IQR/median {s['iqr_share']:.3f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
