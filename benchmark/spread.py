#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver judges it.

Runs the built benchmark ten times per workload, each time with another
--seed, and prints for each end-to-end metric the distance between the first
and third quartile of its ten values (statistics.quantiles(values, n=4)) as a
share of their median, next to the metric's bound in BENCHMARK.json. The
benchmark is steady enough when every spread except setup_s is below a third
of its bound.

usage: benchmark/spread.py [--runs 10] [--first-seed 1] [--trace 0|1]
                           [--workload NAME]...   (from the repository root)
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    exceeded = False
    print("workload metric median spread bound verdict")
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited with {done.returncode}\n{done.stdout[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, samples in values.items():
            median = statistics.median(samples)
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            if bound is None:
                verdict = "layer"
            elif name == "setup_s":
                verdict = "ok" if spread <= bound else "wide (not judged)"
            elif spread <= bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "above a third of the bound"
            else:
                verdict = "EXCEEDS"
                exceeded = True
            print(f"{workload} {name} {median:.6g} {spread:.4f} {bound} {verdict}", flush=True)
    sys.exit(1 if exceeded else 0)


if __name__ == "__main__":
    main()
