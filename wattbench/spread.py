#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload, runs the benchmark once per seed (each run is its own
process), takes the JSON result line each run prints last, and reports
per metric: the median, the first and third quartiles across runs (as
Python's statistics.quantiles(values, n=4) gives them), the spread
(Q3 - Q1) / median, and the number of runs. A run that is not correct, or
exits non-zero, is reported and stops the script with exit code 1.

Runs the command BENCHMARK.json names over its workloads, for its
run_seconds. Usage, from the repository root:
    python3 wattbench/spread.py [--seeds 1-10] [--trace 0|1]
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                print("\n".join(lines[-12:]))
                sys.exit(f"{workload} seed {seed}: incorrect")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            host = next((l.strip() for l in lines if l.startswith("host:")), "")
            print(f"  {workload} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}; {host}", file=sys.stderr)
        print(f"{workload}:")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            note = f"  bound {bound}" if bound is not None else ""
            print(f"  {name:<36} median {med:>14.6g}  Q1 {q1:>12.6g}  Q3 {q3:>12.6g}  "
                  f"spread {spread:7.4f}  runs {len(vs)}{note}")


if __name__ == "__main__":
    main()
