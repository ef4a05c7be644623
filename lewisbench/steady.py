#!/usr/bin/env python3
"""Steadiness check: run one workload ten times, with seeds 1 to 10, and
print per metric the median, the quartiles and the spread
(quartile distance over median) against the metric's bound from
BENCHMARK.json. Run from the repository root:

    python3 lewisbench/steady.py --workload adult_dashboard_48k

Metrics whose spread is within a third of their bound are marked `ok`,
within the bound `near`, beyond it `WIDE`. `setup_s` is printed but, as
its bound limits only the change of its median, not judged.
"""

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    shares = set()
    for seed in SEEDS:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(lines[-1])
        shares.add(result["failed"] / result["attempted"])
        shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{args.workload}, {len(SEEDS)} runs, failed shares {sorted(shares)}")
    print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        if name == "setup_s":
            verdict = ""
        elif spread <= bound / 3:
            verdict = "ok"
        elif spread <= bound:
            verdict = "near"
        else:
            verdict = "WIDE"
        print(f"{name:<28} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.4f} {bound:>6.2f} {verdict}")


if __name__ == "__main__":
    main()
