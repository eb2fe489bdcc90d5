"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs the benchmark once per seed for each workload (all workloads by
default), one run at a time, and prints for every end-to-end metric its
median and its spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
bound in BENCHMARK.json. Keep every spread but setup_s's below a third of
its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description="run-to-run spread of the end-to-end metrics")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(names)
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    worst = 0.0
    for workload in args.workloads or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = config["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(config["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.runs} runs)")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:16s} median {median:12.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[name]:.3f}  "
                  f"min {min(series):.6g} max {max(series):.6g}", flush=True)
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
