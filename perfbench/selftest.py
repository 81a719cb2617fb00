#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Run it from the repository root. Each workload is run once through run.py
with --tamper, which corrupts one output just before its check:

  design_day   hosting_log   one hosting decision of the final replay
  flash_crowd  closed_drops  closed-loop drops set to the open loop's
  signaling    wal           a stray write-ahead record left in the KV store

Every tampered run must exit non-zero, print no result line, and name the
failed check on stderr. Last, run.py is run in a copy of the benchmark with
no library sources next to it (under .bench_build/selftest), where it must
also exit non-zero without a result. Exits 0 only if every case behaved.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CASES = [
    ("design_day", "hosting_log", "hosting log differs"),
    ("flash_crowd", "closed_drops", "not fewer than the open loop"),
    ("signaling", "wal", "WAL not empty"),
]


def prints_result(stdout):
    lines = stdout.strip().splitlines()
    return bool(lines) and lines[-1].startswith('{"correct"')


def main():
    ok = True
    for workload, tamper, message in CASES:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", "0", "--tamper", tamper],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        passed = (done.returncode != 0 and message in done.stderr
                  and not prints_result(done.stdout))
        print("%-12s tamper=%-13s exit=%d  %s" % (
            workload, tamper, done.returncode, "ok" if passed else "NOT CAUGHT"))
        ok = ok and passed

    bare = os.path.join(ROOT, ".bench_build", "selftest")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design_day", "--seed",
         "7", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    passed = done.returncode != 0 and not prints_result(done.stdout)
    print("%-12s %-20s exit=%d  %s" % ("no sources", "", done.returncode,
                                       "ok" if passed else "NOT CAUGHT"))
    shutil.rmtree(bare, ignore_errors=True)
    ok = ok and passed
    print("selftest: " + ("all cases caught" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
