#!/usr/bin/env python3
"""Build and run the serving benchmark (see servebench/README.md).

Run from the repository root:

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark from source into .bench_build/servebench (the first run
compiles the library), runs it, checks that its result line names exactly
the metrics BENCHMARK.json lists for the mode, stores the result stamped
with the environment fingerprint under .bench_results/, and prints the
result as the last line of standard output. Build output goes to stderr.
The exit code is the benchmark's: non-zero when an answer check failed.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
RESULTS = os.path.join(ROOT, ".bench_results")
BINARY_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "servebench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "servebench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def validate(result, trace):
    """Problems with the result line against the contract, if any."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are %s" % sorted(result)]
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    problems = []
    for name in sorted(set(want) - set(got)):
        problems.append("missing metric %s" % name)
    for name in sorted(set(got) - set(want)):
        problems.append("metric %s is not in BENCHMARK.json" % name)
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            problems.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (name, got[name], want[name]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("servebench: build failed: %s" % e, file=sys.stderr)
        return 1

    out_dir = os.path.join(RESULTS, args.workload, "trace%d" % args.trace)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "seed%d_%d" % (args.seed, time.time_ns()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", stem + ".spans.json"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %ds" % BINARY_TIMEOUT_S,
              file=sys.stderr)
        return 1

    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    fingerprint = None
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or fingerprint is None:
        print("servebench: no result (exit code %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    problems = validate(result, args.trace)
    if problems:
        for p in problems:
            print("servebench: %s" % p, file=sys.stderr)
        return 1

    record = dict(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  fingerprint=fingerprint, **result)
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(lines[-1])
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
