#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads sessions --seeds 1-5
    python3 bench/spread.py --seeds 1-10 --write-baseline bench/baseline.json

Runs bench/run.py once per workload and seed, one run at a time, and prints
for each metric its median and its spread: the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median.
A metric is steady when its spread stays below a third of its bound in
BENCHMARK.json.  --write-baseline stores the medians, units, seeds and the
traced per-layer figures of the first seed, replacing only the measured
workloads in an existing file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--write-baseline", type=Path)
    parser.add_argument("--label", default="", help="what was measured, e.g. the commit")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    baseline = {
        "label": args.label,
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "run_seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    steady = True
    for workload in args.workloads.split(","):
        results = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        entry = {
            "why": why[workload],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {},
        }
        print(f"{workload}: correct={all(r['correct'] for r in results)} failed={entry['failed']} of {entry['attempted']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bound / 3
            steady = steady and ok
            unit = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = {"median": median, "unit": unit, "spread": spread, "values": values}
            print(f"  {name:<12} median {median:12.5g} {unit:<4} spread {spread:7.4f}  bound {bound}  {'ok' if ok else 'WIDE'}")
            print("    " + " ".join(f"{v:.4g}" for v in values))
        if args.write_baseline:
            traced = run(workload, args.seeds[0], args.seconds, 1)
            entry["per_layer_seed"] = args.seeds[0]
            entry["per_layer"] = {k: {"value": v["value"], "unit": v["unit"]} for k, v in traced["metrics"].items()}
        baseline["workloads"][workload] = entry
    if args.write_baseline:
        if args.write_baseline.exists():  # keep the other workloads' figures
            measured = baseline["workloads"]
            baseline = json.loads(args.write_baseline.read_text())
            baseline["workloads"].update(measured)
        args.write_baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
