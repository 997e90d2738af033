#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload des_expiry --seeds 1-10 --seconds 20

For every metric of the result JSON it prints the median over the runs and
the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.  With --bench
BENCHMARK.json it also marks each end-to-end spread against a third of
its bound.  Runs are sequential; each is one `perfbench/run.py` call.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=root)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--bench", help="BENCHMARK.json, to mark spreads")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bounds = {}
    if args.bench:
        with open(args.bench) as f:
            bounds = {m["name"]: m["bound"]
                      for m in json.load(f)["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        res = run_once(root, args.workload, seed, args.seconds, args.trace)
        if not res["correct"] or res["failed"]:
            raise SystemExit(f"seed {seed}: {res['failed']} failed solves")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: ok ({res['attempted']} solves)", flush=True)

    print(f"{'metric':44s} {'median':>14s} {'spread':>8s}  bound/3")
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [0, 0, 0]
        spread = (q[2] - q[0]) / med if med else 0.0
        mark = ""
        if name in bounds:
            limit = bounds[name] / 3
            mark = f"{limit:.4f} {'ok' if spread < limit else 'WIDE'}"
        print(f"{name:44s} {med:14.6g} {spread:8.4f}  {mark}")


if __name__ == "__main__":
    main()
