#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload echo_light --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The simulator is compiled from ./src together with the benchmark program into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when that is set).
The program's last stdout line is the JSON result; its metric names are checked
against BENCHMARK.json before it is passed on. --selftest builds and runs the
tests of the benchmark's own derivations instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True when it succeeded."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return False
    return done.returncode == 0


def build(target):
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        # A cache made for another source tree cannot be reused.
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = next((line.split("=", 1)[1].strip() for line in f
                         if line.startswith("CMAKE_HOME_DIRECTORY:")), "")
        if os.path.realpath(home) != os.path.realpath(HERE):
            shutil.rmtree(out)
    if not os.path.exists(cache):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", out, "--target", target, "-j", jobs],
                     BUILD_TIMEOUT_S):
        return None
    return os.path.join(out, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_tests")
        if binary is None:
            return 1
        return subprocess.run([binary], cwd=ROOT, check=False).returncode
    if not args.workload:
        parser.error("--workload is required")

    binary = build("perfbench")
    if binary is None:
        log("build failed")
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if done.returncode != 0:
        log(f"benchmark exited with {done.returncode}")
        return 1
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if list(result["metrics"]) != want:
        log("metric names differ from BENCHMARK.json: " +
            ", ".join(sorted(set(want) ^ set(result["metrics"]))))
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
