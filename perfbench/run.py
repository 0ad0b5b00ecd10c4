#!/usr/bin/env python3
"""Build and run the auditherm benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

A run builds perfbench/ (the library from ../src plus the program) in
.bench_build/perfbench, runs one workload, checks that the printed metric
names and units are exactly the ones BENCHMARK.json lists for that mode
(end_to_end for --trace 0, per_layer for --trace 1), keeps a copy of the
full output under .bench_build/perfbench/results/, and prints the result
line last. --self-check runs one op of every workload in both modes and
only checks the metric lists.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
DATA_DIR = os.path.join(".bench_build", "perfbench-data")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(jobs):
    """Configure once, then build incrementally. Returns the binary path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
         "-j", str(jobs)],
        check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def source_digest():
    """SHA-256 over the files the benchmark builds, so a result names the
    code it measured even where no git metadata exists."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_id():
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"], capture_output=True,
            text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath("."):
            return "unknown"
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, expected):
    """Problems with a result line; [] when it honours the contract."""
    problems = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys are not exactly %s" % sorted(RESULT_KEYS)]
    if not isinstance(result["correct"], bool):
        problems.append("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("'%s' is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("no op was attempted")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        problems.append(
            "metrics differ from BENCHMARK.json: missing %s, unexpected %s, "
            "wrong unit %s" % (missing, extra, units))
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            problems.append("metric %s has no finite value" % name)
    return problems


def run_workload(binary, args, extra, timeout):
    """Run perfbench; returns (stdout lines, result dict or None)."""
    data_dir = os.path.join(DATA_DIR, args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir, "--commit", commit_id(),
           "--source-digest", source_digest()] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        log("perfbench exited with code %d" % proc.returncode)
        return lines, None
    try:
        return lines, json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench's last line is not JSON: %r" % lines[-1][:200])
        return lines, None


def self_check(binary, spec):
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload["name"], seed=1,
                                      seconds=1, trace=trace)
            _, result = run_workload(
                binary, args, ["--max-ops", "1", "--setup-reps", "1"], 170)
            problems = ["no result"] if result is None else check_result(
                result, expected_metrics(spec, trace))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("self-check %s --trace %d: %s" % (workload["name"], trace,
                                                    status))
            failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not args.self_check and args.workload not in names:
        parser.error("--workload must be one of %s" % ", ".join(names))

    try:
        binary = build(min(4, os.cpu_count() or 1))
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    if args.self_check:
        return self_check(binary, spec)

    try:
        lines, result = run_workload(binary, args, [], 175)
    except subprocess.TimeoutExpired:
        log("perfbench timed out")
        return 1
    if result is None:
        return 1
    problems = check_result(result, expected_metrics(spec, args.trace))
    if problems:
        for problem in problems:
            log(problem)
        return 1

    os.makedirs(os.path.join(BUILD_DIR, "results"), exist_ok=True)
    record = os.path.join(BUILD_DIR, "results", "%s-seed%d-trace%d.jsonl" % (
        args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        f.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
