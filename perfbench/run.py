#!/usr/bin/env python3
"""Build and run the kps benchmark for one workload.

    python3 perfbench/run.py --workload sssp_sparse --seed 1 --seconds 10 --trace 0

Run from the repository root.  The script configures and builds
perfbench/ (a CMake package over the header-only library in include/)
into .bench_build/perfbench, runs the benchmark binary and passes its
output through: the last stdout line is the result JSON.  With --trace 1
the spans go to .bench_build/perfbench/trace-<workload>-<seed>.json.

Extra flags after the four standard ones (for example --canary-ns 300)
are handed to the binary unchanged.  Exit status is the binary's, or 1
when the build fails or the run times out.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("sssp_dense", "sssp_sparse", "des_expiry")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root):
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, BUILD_DIR)
    if not os.path.isfile(os.path.join(root, "include", "kps", "core",
                                       "storage_registry.hpp")):
        log("the kps headers (include/kps) are missing; nothing to build")
        return None
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(out, "kps_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            root, BUILD_DIR, f"trace-{args.workload}-{args.seed}.json")]
    cmd += extra
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
