#!/usr/bin/env python3
"""Run one perfbench workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

Run from any directory; paths resolve against the repository root (the
directory holding perfbench/). The first run builds the benchmark and the
library it links from source into .bench_build/perfbench (CMake, Release);
later runs only re-check the build.

The C++ program prints what it measured (it also runs `serve`, which
BENCHMARK.json does not list; see CHANGES.md). This wrapper holds it to
BENCHMARK.json: an untraced run (--trace 0) must report every end_to_end
metric, non-zero and in its declared unit; a traced run (--trace 1) reports
every per_layer metric, as 0 where the workload does not exercise that
layer. The last line is one JSON object with the keys correct, attempted,
failed and metrics. A failed build or correctness gate exits non-zero.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """A digest of the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha1:" + digest.hexdigest()[:16]


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    binary = build()

    env = dict(os.environ, VDT_THREADS="2", PERFBENCH_SOURCE=source_digest())
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", WORK_DIR],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("the program printed no result (exit code %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    measured = result["metrics"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = bool(result["correct"]) and proc.returncode == 0
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        got = measured.get(name)
        if got is None and args.trace:
            got = {"value": 0, "unit": unit}  # layer not exercised here
        if got is None or got["unit"] != unit:
            print("CONTRACT: metric %s missing or not in %s" % (name, unit))
            correct = False
            continue
        if not args.trace and got["value"] == 0:
            print("CONTRACT: end-to-end metric %s is 0" % name)
            correct = False
        metrics[name] = {"value": got["value"], "unit": unit}
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
