#!/usr/bin/env python3
"""Sensitivity canary: the benchmark's self-test.

    python3 perfbench/canary.py --seeds 1,2,3 --seconds 10 --delay-ns 300

A fixed busy-wait is added to every successful `hybrid` pop (the
InstrumentedStorage decorator, --canary-ns).  Each workload run pairs
hybrid solves with and without the delay and reports the measured
throughput drop next to the drop the added pop time predicts (added time
as a share of worker time).  The canary passes when the measured drops
keep the predicted order sssp_sparse > sssp_dense > des_expiry, which
shows that the per-layer numbers predict the end-to-end moves.  Exit
status 0 on pass, 1 on fail.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("sssp_sparse", "sssp_dense", "des_expiry")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--delay-ns", type=int, default=300)
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    drops = {}
    print(f"{'workload':12s} {'seed':>5s} {'measured':>9s} {'predicted':>9s}")
    for w in WORKLOADS:
        measured, predicted = [], []
        for seed in (int(s) for s in args.seeds.split(",")):
            cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0",
                   "--canary-ns", str(args.delay_ns)]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=root)
            if done.returncode != 0:
                print(f"{w} seed {seed}: exit {done.returncode}")
                return 1
            m = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
            measured.append(m["canary.throughput_drop.hybrid"]["value"])
            predicted.append(m["canary.predicted_drop.hybrid"]["value"])
            print(f"{w:12s} {seed:5d} {measured[-1]:9.3f} "
                  f"{predicted[-1]:9.3f}", flush=True)
        drops[w] = (statistics.median(measured), statistics.median(predicted))

    print("\nmedian drop of throughput.hybrid")
    for w in WORKLOADS:
        print(f"  {w:12s} measured {drops[w][0]:.3f}  "
              f"predicted {drops[w][1]:.3f}")
    order = [drops[w][0] for w in WORKLOADS]
    ok = order[0] > order[1] > order[2]
    print("order sssp_sparse > sssp_dense > des_expiry:",
          "yes" if ok else "NO")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
