#!/usr/bin/env python3
"""Builds and runs the Switchboard end-to-end benchmark.

    python3 perfbench/run.py --workload design_day|flash_crowd|signaling \
        --seed N --seconds S --trace 0|1 [--scenario-seed N] [--tamper OUTPUT]

Run it from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the library sources under src/ plus the benchmark)
into .bench_build/cmake; later runs rebuild incrementally. It then runs one
workload and prints every metric by name and unit, a fingerprint line
(machine, build, revision, host steal time over the run), and as the last
line one JSON object with the keys correct, attempted, failed and metrics.
The same record is saved under .bench_build/results/.

Exit status: 0 when the run finished and its outputs passed the workload's
correctness checks; non-zero, without a result line, when the build fails,
the sources are missing, or a check fails (the message names the check).
perfbench/README.md documents the workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "sb_perfbench")
WORKLOADS = ("design_day", "flash_crowd", "signaling")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "sb_perfbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "a") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1, deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s (log: %s)" % (step[:2], e, log_path))
            if done.returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail)
                fail("build step %s failed (log: %s)" % (step[:2], log_path))


def steal_ticks():
    """Host steal time summed over all CPUs, in clock ticks (/proc/stat)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this trace mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a non-negative integer")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s is not a finite number" % name)
    expected = expected_metrics(trace)
    if expected is not None:
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        if got != expected:
            fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
                sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scenario-seed", type=int, default=7)
    parser.add_argument("--tamper", default="")
    args = parser.parse_args()
    if args.seed < 0 or args.scenario_seed < 0:
        fail("seeds must be non-negative")
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be within 1..600")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under %s" % os.path.join(ROOT, "src"))

    build()

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scenario-seed", str(args.scenario_seed)]
    if args.tamper:
        command += ["--tamper", args.tamper]
    steal0 = steal_ticks()
    t0 = time.monotonic()
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    wall_s = time.monotonic() - t0
    steal1 = steal_ticks()

    lines = done.stdout.splitlines()
    build_info = {}
    for line in lines:
        if line.startswith("perfbench-build "):
            build_info = json.loads(line.split(" ", 1)[1])
    if done.returncode != 0:
        fail("%s exited with status %d" % (args.workload, done.returncode))
    if not lines:
        fail("%s printed nothing" % args.workload)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: %r" % lines[-1][:200])
    validate(result, bool(args.trace))
    if result["correct"] is not True:
        fail("%s reported incorrect outputs" % args.workload)

    ncpu = os.cpu_count() or 1
    tick = os.sysconf("SC_CLK_TCK")
    steal_s = (steal1 - steal0) / tick if steal0 is not None and steal1 is not None else None
    fingerprint = {
        "workload": args.workload,
        "seed": args.seed,
        "scenario_seed": args.scenario_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "sb_metrics": build_info.get("sb_metrics"),
        "sb_tracing": build_info.get("sb_tracing"),
        "git_rev": git_rev(),
        "run_wall_s": round(wall_s, 3),
        "host_steal_s": steal_s,
        "host_steal_share": (steal_s / (wall_s * ncpu)) if steal_s is not None else None,
    }
    results_dir = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    record_path = os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(record_path, "w") as f:
        json.dump({"fingerprint": fingerprint, "result": result}, f, indent=1)

    for line in lines[:-1]:
        if not line.startswith("perfbench-build "):
            print(line)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
