#!/usr/bin/env python3
"""Measure how steady the benchmark is across seeds.

Runs the command in BENCHMARK.json once per (workload, seed) with
`--trace 0`, then reports for every end-to-end metric the median, the
quartiles (Python's `statistics.quantiles(values, n=4)`) and the spread
(Q3 - Q1) / median next to a third of the metric's bound.

    python3 perfbench/spread.py --seeds 10                 # every workload
    python3 perfbench/spread.py --seeds 5 --workload sssp-web
    python3 perfbench/spread.py --seeds 10 --out perfbench/spread.json

Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: run failed: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report = {"nproc": os.cpu_count(), "seeds": seeds,
              "run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for w in workloads:
        runs = [run_once(bench, w, s) for s in seeds]
        rows = {}
        for m in bench["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": round(spread, 4)}
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok
            print(f"{w:10} {m['name']:12} median {med:14.6f} spread {spread:7.4f}"
                  f"  bound/3 {m['bound'] / 3:6.4f} {'ok' if ok else 'WIDE'}", flush=True)
        report["workloads"][w] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
