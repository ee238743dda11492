#!/usr/bin/env python3
"""Build the rdcn benchmark from this checkout's sources, then run it.

    python3 rdcnbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 rdcnbench/run.py --selftest

Configures and builds rdcnbench/ (which compiles the library from ../src)
into .bench_build/rdcnbench as a Release build, then replaces this process
with the benchmark binary, so no child process outlives the run. Build
output goes to stderr; the benchmark's last stdout line is its JSON result.
A traced run (--trace 1) also writes its spans as a Chrome trace-event file
to .bench_build/rdcnbench/trace-<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rdcnbench")


def build():
    def step(command):
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("rdcnbench: build step failed: " + " ".join(command))

    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD, "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--trace", default="0")
    args, rest = parser.parse_known_args()
    build()
    sys.stdout.flush()
    if args.selftest:
        binary = os.path.join(BUILD, "rdcnbench_selftest")
        os.execv(binary, [binary, os.path.join(ROOT, "BENCHMARK.json")])
    if args.workload is None:
        sys.exit("rdcnbench: --workload is required")
    binary = os.path.join(BUILD, "rdcnbench")
    argv = [binary, "--workload", args.workload, "--seed", args.seed,
            "--trace", args.trace,
            "--fingerprints", os.path.join(HERE, "fingerprints.json")] + rest
    if args.trace == "1":
        trace = "trace-%s-seed%s.json" % (args.workload, args.seed)
        argv += ["--trace-out", os.path.join(BUILD, trace)]
    os.execv(binary, argv)


if __name__ == "__main__":
    main()
