#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
benchmark binary (a Release build of the simulator sources plus the
benchmark's own code) under .bench_build/perfbench; later calls only check
that it is up to date. The binary's report goes to stdout; its last line,
the JSON result, is re-checked here against BENCHMARK.json (every metric of
the requested kind, by name and unit, and nothing else) before it is printed
again as this script's last line. Any failure exits nonzero without a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(jobs=4):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
         "-j", str(jobs)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BINARY


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(result, spec, traced):
    """Returns the problems with a result line; empty when it conforms."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append("result keys %s" % sorted(result))
        return problems
    if result["correct"] is not True:
        problems.append("result not correct")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing attempted")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if traced else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append("metrics %s != BENCHMARK.json %s"
                        % (sorted(got), sorted(wanted)))
    for name, entry in got.items():
        if set(entry) != {"value", "unit"}:
            problems.append("%s has keys %s" % (name, sorted(entry)))
        elif name in wanted and entry["unit"] != wanted[name]:
            problems.append("%s unit %s != %s"
                            % (name, entry["unit"], wanted[name]))
        elif not isinstance(entry["value"], (int, float)):
            problems.append("%s value is not a number" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench build failed: %s" % err, file=sys.stderr)
        return 1

    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", os.path.join(BUILD_DIR, "out"),
         "--reference-dir", os.path.join(ROOT, "results")],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print("perfbench exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("last line is not JSON: %r" % lines[-1], file=sys.stderr)
        return 1
    problems = check_result(result, spec, args.trace == 1)
    if problems:
        for p in problems:
            print("result check failed: %s" % p, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
