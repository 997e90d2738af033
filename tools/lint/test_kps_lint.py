#!/usr/bin/env python3
"""Exact-diagnostics test for kps_lint.py.

Runs the lint over tests/lint_fixtures (a miniature repo tree with one
known violation per rule, plus correctly-tagged sites that must NOT
fire) and asserts the full diagnostic list and the exit status.  Run
directly or via ctest (`test_lint`).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
LINT = os.path.join(HERE, "kps_lint.py")
FIXTURES = os.path.join(ROOT, "tests", "lint_fixtures")

H = os.path.join("include", "kps", "support")
C = os.path.join("include", "kps", "core")

EXPECTED = sorted([
    "DESIGN.md:5: error: failpoint seam `documented.seam` is documented "
    "but absent from the code",
    "DESIGN.md:8: error: failpoint seam `timing.says_fail` has Kind FAIL "
    "but no site uses KPS_FAILPOINT_FAIL",
    "DESIGN.md:9: error: failpoint seam `fail.says_timing` has Kind "
    "timing but a site uses KPS_FAILPOINT_FAIL",
    "DESIGN.md:14: error: trace event `ghost.event` is documented but "
    "absent from the code",
    "DESIGN.md:19: error: counter `ghost_counter` is documented but "
    "absent from the code",
    f"{C}/storage_traits.hpp:9: error: option "
    "`StorageConfig::test_only_knob` is set by no file under bench/, "
    "tools/ or perfbench/ (a test-only knob belongs in a named constant)",
    f"{H}/bad_header.hpp:1: error: header missing `#pragma once`",
    f"{H}/bad_header.hpp:2: error: <iostream> in a header "
    "(use <ostream>/<istream>)",
    f"{H}/bad_order.hpp:7: error: memory_order_relaxed without a "
    "`// order:` justification tag (same line or the statement's "
    "preceding comment)",
    f"{H}/bad_order.hpp:23: error: memory_order_seq_cst without a "
    "`// order:` justification tag (same line or the statement's "
    "preceding comment)",
    f"{H}/bad_order.hpp:27: error: failpoint seam `undocumented.seam` "
    "is not in the DESIGN.md seam catalog",
    f"{H}/stats.hpp:6: error: counter `mystery_counter` is not "
    "documented in DESIGN.md",
    f"{H}/trace.hpp:6: error: trace event `phantom.event` is not "
    "documented in DESIGN.md",
])


def main() -> int:
    proc = subprocess.run(
        [sys.executable, LINT, "--root", FIXTURES],
        capture_output=True, text=True)
    got = sorted(line for line in proc.stdout.splitlines() if line)

    failures = []
    if proc.returncode != 1:
        failures.append(f"expected exit 1 on fixtures, got "
                        f"{proc.returncode} (stderr: {proc.stderr!r})")
    for line in EXPECTED:
        if line not in got:
            failures.append(f"missing diagnostic: {line}")
    for line in got:
        if line not in EXPECTED:
            failures.append(f"unexpected diagnostic: {line}")

    if failures:
        print("test_kps_lint: FAIL")
        for f in failures:
            print("  " + f)
        return 1
    print(f"test_kps_lint: PASS ({len(EXPECTED)} diagnostics matched, "
          "exit status 1)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
