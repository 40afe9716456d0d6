#!/usr/bin/env python3
"""Entry point of the sorel wall-time benchmark.

    python3 wallbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 wallbench/run.py --selftest

Builds the benchmark package (wallbench/CMakeLists.txt, which builds sorel
from this checkout) into .bench_build, runs one workload, and prints the
result object as the last line of stdout. With --trace 0 the object holds
every end_to_end metric of BENCHMARK.json, with --trace 1 every per_layer
metric; a per-layer metric of a layer the workload does not exercise reads
0. --selftest runs the negative controls of the correctness checks.
Build output and diagnostics go to stderr. Exits non-zero when the build
fails, a check fails, or a listed metric is missing.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"
WORK = os.path.join(BUILD, "work")
TARGETS = ["sorel_wallbench", "wallbench_selftest", "sorel_cli"]


def fail(message):
    print("wallbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # Configure until a generate step has succeeded once (a failed configure
    # leaves a cache but no build system behind).
    if not os.path.exists(os.path.join(ROOT, BUILD, "Makefile")):
        steps.append(["cmake", "-S", "wallbench", "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS)
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "wallbench_selftest")], cwd=ROOT).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    command = [os.path.join(BUILD, "sorel_wallbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--work-dir", WORK,
               "--cli", os.path.join(BUILD, "sorel", "examples", "sorel_cli")]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result (exit %d)" % (args.workload, run.returncode))
    result = json.loads(lines[-1])

    metrics = {}
    for listed in listed_metrics(args.trace):
        name, unit = listed["name"], listed["unit"]
        measured = result["metrics"].get(name)
        if measured is None:
            if not args.trace:
                fail("%s did not measure end-to-end metric %s" % (args.workload, name))
            measured = {"value": 0, "unit": unit}
        if measured["unit"] != unit:
            fail("%s reports %s in %s, BENCHMARK.json says %s"
                 % (args.workload, name, measured["unit"], unit))
        metrics[name] = {"value": measured["value"], "unit": unit}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
