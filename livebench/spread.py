#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 livebench/spread.py --workload durable-pfs --runs 5 [--first-seed 1]

Runs the benchmark once per seed (untraced) and prints, per end-to-end
metric of BENCHMARK.json, the median, the interquartile range as a share of
the median (statistics.quantiles with n=4), and that metric's bound.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed} failed (exit {proc.returncode}):\n{proc.stderr}")
        result = json.loads(lines[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={result['metrics'][n]['value']:.4g}" for n in values), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':26} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        flag = "" if spread < bounds[name] / 3 else "  <- above bound/3"
        print(f"{name:26} {median:12.5g} {spread:11.3f} {bounds[name]:6.2f}{flag}")


if __name__ == "__main__":
    main()
