#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread, one run per seed.

    python3 rdcnbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]

Runs BENCHMARK.json's command once per seed on each workload (untraced) and
prints, per end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound, then the values in seed
order (the runs' order, so a drift of the host over time shows). A steady benchmark keeps
every spread but setup_s's below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(args.seconds), "--trace", "0"]
            run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                sys.exit("%s seed %d failed (exit %d):\n%s" %
                         (workload, seed, run.returncode, run.stderr[-2000:]))
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                sys.exit("%s seed %d: incorrect result %s" % (workload, seed, lines[-1]))
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print("%s (%d seeds from %d, %d s each)" %
              (workload, args.seeds, args.first_seed, args.seconds))
        for metric in bench["end_to_end"]:
            samples = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median
            print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f  bound %.2f  "
                  "spread/bound %.2f" % (metric["name"], median, q1, q3, spread,
                                         metric["bound"], spread / metric["bound"]))
            print("    " + " ".join("%.4g" % value for value in samples))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
