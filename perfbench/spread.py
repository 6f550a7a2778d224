#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 10] [--first-seed 1]

Runs perfbench/run.py once per seed on each workload (run_seconds from
BENCHMARK.json unless --seconds is given), then prints, per end-to-end
metric, the median, the quartile spread (Q3 - Q1) / median computed with
statistics.quantiles(values, n=4), the metric's bound, and the spread as a
share of the bound. Exits 1 when a spread other than setup_s's exceeds its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, check=False)
    lines = done.stdout.decode(errors="replace").strip().split("\n")
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n" + "\n".join(lines[-5:]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: oracle failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    within = True
    for workload in workloads:
        runs = [run_once(workload, seed, args.seconds)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        print(f"{workload}: {len(runs)} seeds, {args.seconds:g} s each")
        print(f"  {'metric':24} {'median':>14} {'spread':>8} {'bound':>6} {'of bound':>9}")
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]] for r in runs if metric["name"] in r]
            if len(values) < 2:
                print(f"  {metric['name']:24} missing in {len(runs) - len(values)} runs")
                within = False
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            share = spread / metric["bound"]
            if metric["name"] != "setup_s" and spread > metric["bound"]:
                within = False
            print(f"  {metric['name']:24} {median:14.6g} {spread:8.3f} "
                  f"{metric['bound']:6.2f} {share:9.2f}  "
                  + " ".join(f"{v:.4g}" for v in values))
    sys.exit(0 if within else 1)


if __name__ == "__main__":
    main()
