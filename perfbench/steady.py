#!/usr/bin/env python3
"""Steadiness check: runs one workload of the benchmark with several seeds
and prints, for every end-to-end metric, the median, the quartiles and the
spread (Q3 - Q1) / median against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload serve_hot --runs 10 [--first-seed 1]
        [--seconds S]

A spread above a third of its bound is flagged: it leaves too little room
for two sets of runs of the same code to agree within the bound. The exit
status is 1 when any end-to-end metric, set-up time included, spreads
wider than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write the raw values here")
    args = ap.parse_args()

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-3000:])
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        steal = [l.split()[1] for l in lines if l.startswith("host:")]
        print("seed %d: correct=%s attempted=%d failed=%d steal=%s  %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            steal[0] if steal else "?",
            " ".join("%s=%.4g" % (k, v["value"])
                     for k, v in result["metrics"].items())), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print("\n%-14s %12s %12s %12s %8s %6s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    worst = 0
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound:
            verdict = "ok" if spread <= bound / 3 else (
                "WIDE (> bound/3)" if spread <= bound else "OVER BOUND")
            worst = max(worst, spread / bound)
        print("%-14s %12.5g %12.5g %12.5g %8.4f %6s  %s" % (
            name, med, q1, q3, spread, bound if bound else "-", verdict))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(values, f)
    return 0 if worst <= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
