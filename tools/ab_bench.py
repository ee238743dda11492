#!/usr/bin/env python3
"""Same-host A/B benchmark of two checkouts, in interleaved pairs of runs.

    python3 tools/ab_bench.py --base DIR --head DIR [--workloads a,b]
                              [--pairs 10] [--seconds S] [--seed N] [--trace 0|1]

Each checkout builds and runs its own rdcnbench/run.py (so each side is
measured with its own benchmark code), from its own directory. One build
run per side comes first and is discarded. Then, per workload, PAIRS pairs
run back to back; the side that goes first alternates from pair to pair,
so a host that drifts over time weighs on both sides alike. Every run must
report correct with 0 failed operations, or the script exits 1.

Per metric it prints each side's median and quartiles, the head/base ratio
of the medians, and how many pairs the head won (by the metric's "better"
direction in the head checkout's BENCHMARK.json). A claimed gain is solid
when the head wins nearly every pair and the median moves by more than the
base's own interquartile range; the last column says whether it does.
Every run's metrics also go to stderr as it finishes, one JSON line each
({"workload", "pair", "side", "metrics"}), so each run can be reported.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_bench(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(checkout, bench, workload, seed, seconds, trace):
    command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(trace)]
    run = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit("%s: %s failed (exit %d):\n%s" %
                 (checkout, workload, run.returncode, run.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("%s: %s incorrect: %s" % (checkout, workload, lines[-1]))
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    return tuple(statistics.quantiles(samples, n=4))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="checkout measured as the baseline")
    parser.add_argument("--head", required=True, help="checkout measured against it")
    parser.add_argument("--workloads", help="comma-separated (default: all of head's)")
    parser.add_argument("--pairs", type=int, default=10, help="at least 10 to claim a gain")
    parser.add_argument("--seconds", type=float, help="per run (default: run_seconds)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        sys.exit("--pairs must be at least 1")
    if args.pairs < 10:
        print("note: %d pairs is fewer than the 10 a gain claim needs" % args.pairs,
              file=sys.stderr)

    sides = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    benches = {side: load_bench(path) for side, path in sides.items()}
    head_bench = benches["head"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in head_bench["workloads"]])
    seconds = args.seconds if args.seconds else head_bench["run_seconds"]
    metrics = head_bench["end_to_end"] if args.trace == 0 else head_bench["per_layer"]
    better = {m["name"]: m["better"] for m in metrics}

    for side, path in sides.items():  # build run, discarded
        print("building %s (%s)" % (side, path), file=sys.stderr)
        run_once(path, benches[side], workloads[0], args.seed, 0.2, 0)

    for workload in workloads:
        samples = {"base": [], "head": []}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                samples[side].append(run_once(sides[side], benches[side], workload,
                                              args.seed, seconds, args.trace))
                print(json.dumps({"workload": workload, "pair": pair + 1, "side": side,
                                  "metrics": samples[side][-1]}), file=sys.stderr)

        print("%s: %d pairs, seed %d, %g s per run, trace %d" %
              (workload, args.pairs, args.seed, seconds, args.trace))
        print("  %-34s %-34s %-34s %-8s %-6s %s" %
              ("metric", "base median [q1, q3]", "head median [q1, q3]", "ratio",
               "wins", "beyond base IQR"))
        for name in better:
            base = [s[name] for s in samples["base"] if name in s]
            head = [s[name] for s in samples["head"] if name in s]
            if len(base) != args.pairs or len(head) != args.pairs:
                continue
            higher = better[name] == "higher"
            wins = sum(1 for b, h in zip(base, head) if (h > b if higher else h < b))
            b_q1, b_med, b_q3 = quartiles(base)
            h_q1, h_med, h_q3 = quartiles(head)
            gain = (h_med - b_med) if higher else (b_med - h_med)
            ratio = h_med / b_med if b_med else float("nan")
            solid = gain > (b_q3 - b_q1)
            print("  %-34s %-34s %-34s %-8.4f %-6s %s" %
                  (name, "%.6g [%.6g, %.6g]" % (b_med, b_q1, b_q3),
                   "%.6g [%.6g, %.6g]" % (h_med, h_q1, h_q3), ratio,
                   "%d/%d" % (wins, args.pairs), "yes" if solid else "no"))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
