#!/usr/bin/env python3
"""Same-host A/B comparison and perf gate of two checkouts, in interleaved rounds.

    python3 tools/ab_bench.py --base DIR --head DIR [--command CMD] [--pairs 10]
                              [--workloads a,b] [--seconds S] [--seed N] [--trace 0|1]

Without --command each checkout builds and runs its own rdcnbench (its
BENCHMARK.json command) once per workload, and a run must report correct
with 0 failed operations. With --command, CMD runs in each checkout's
directory and its stdout's BenchReport rows are read: lines not starting
with '{' and {"meta": ...} lines are skipped, a row's key is bench, name
and params sorted by name, and wall_ms, *_ns and *ns_per* metrics are
lower-is-better. A duplicate key in one run, or base and head keys that
share nothing, exits 2; a run that exits nonzero exits 1.

After one discarded warm-up run a side, each of PAIRS rounds runs base,
head and base again, rotating which goes first. Per row and metric the
ratio is the median over rounds of head / base. The band comes from the
base-again / base ratios of the same rounds: in log terms, their median's
distance from 1 plus four standard errors of a median of PAIRS ratios
(1.2533 * 1.4826 * MAD / sqrt(PAIRS)); when more than half of those
ratios tie, so that their MAD is 0, the MAD of the base values' own logs
stands in. Nothing sets the band from outside. With --command a ratio
beyond the band on the metric's worse side is REGRESSED and exits 1;
rdcnbench runs are judged against BENCHMARK.json's bounds elsewhere, so
there the verdict reads "slower" and the exit status stays 0.

Every directed metric of a row is compared only when it is a positive
finite number in every run. A metric the base lacks or gives otherwise is
listed as skipped; one the base gives but a head run lacks, or gives as
null, non-finite or non-positive, is listed as UNUSABLE and exits 2.
Metrics with no better direction are listed once per command or workload.
The table also gives medians and quartiles, the head's wins and whether
its median moved beyond the base's interquartile range (a solid gain wins
nearly every round and does). Under it, each side's median minor page
faults and system CPU seconds per run, taken from the child rusage before
and after each run, show kernel work behind a change; they are
informational and never give a verdict. Every run's rows and rusage go to
stderr as one JSON line ({"job", "pair", "side", "rows", "minflt",
"stime_s"}).
"""

import argparse
import json
import math
import os
import resource
import shlex
import statistics
import subprocess
import sys

SIDES = ("base", "head", "base2")  # base2: the base again, for the band


def fail(message, code=2):
    print("ab_bench: " + message, file=sys.stderr)
    sys.exit(code)


def row_key(row):
    params = row.get("params") or {}
    return "|".join([str(row.get("bench", "")), str(row.get("name", ""))] +
                    ["%s=%s" % (p, json.dumps(params[p], sort_keys=True)) for p in sorted(params)])


def parse_rows(text, origin):
    """BenchReport rows in `text` as {key: {metric: value}}."""
    rows = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.startswith("{"):
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as error:
            fail("%s:%d: %s" % (origin, number, error))
        if not isinstance(row, dict) or "meta" in row:
            continue
        key = row_key(row)
        if key in rows:
            fail("%s: duplicate row key %s" % (origin, key))
        rows[key] = {name: value for name, value in row.items()
                     if name not in ("bench", "name", "params")
                     and isinstance(value, (int, float)) and not isinstance(value, bool)}
    return rows


def run_command(argv, checkout):
    run = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if run.returncode != 0:
        fail("%s: %s failed (exit %d):\n%s" % (checkout, " ".join(argv), run.returncode,
                                                run.stderr[-2000:]), 1)
    return run.stdout


class CommandJob:
    """One command whose stdout holds BenchReport rows; its verdicts gate."""

    gates = True

    def __init__(self, command):
        self.label, self.argv = command, shlex.split(command)

    def run(self, checkout, warmup=False):
        return parse_rows(run_command(self.argv, checkout), checkout)

    def better(self, metric):
        time_like = metric == "wall_ms" or metric.endswith("_ns") or "ns_per" in metric
        return "lower" if time_like else None


class RdcnbenchJob:
    """One rdcnbench workload as one row; each side runs its own BENCHMARK.json command."""

    gates = False

    def __init__(self, benches, head_bench, workload, seed, seconds, trace):
        self.label = "rdcnbench %s (seed %d, %g s per run, trace %d)" % (
            workload, seed, seconds, trace)
        self.benches, self.workload, self.seed = benches, workload, seed
        self.seconds, self.trace = seconds, trace
        self.directions = {m["name"]: m["better"]
                           for m in head_bench["end_to_end" if trace == 0 else "per_layer"]}

    def run(self, checkout, warmup=False):
        seconds, trace = (0.2, 0) if warmup else (self.seconds, self.trace)
        argv = self.benches[checkout]["command"] + [
            "--workload", self.workload, "--seed", str(self.seed), "--seconds", str(seconds),
            "--trace", str(trace)]
        lines = run_command(argv, checkout).strip().splitlines()
        if not lines:
            fail("%s: %s printed nothing" % (checkout, self.workload), 1)
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"] != 0:
            fail("%s: %s incorrect: %s" % (checkout, self.workload, lines[-1]), 1)
        return {"rdcnbench|" + self.workload:
                {name: metric["value"] for name, metric in result["metrics"].items()}}

    def better(self, metric):
        return self.directions.get(metric)


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    return tuple(statistics.quantiles(samples, n=4))


def usable(value):
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def mad(samples):
    center = statistics.median(samples)
    return statistics.median(abs(x - center) for x in samples)


def band_half_width(noise, base):
    """Log-space half-width of the band from the base/base log ratios."""
    # Ratios that tie in most rounds have MAD 0; the base values' own spread
    # then keeps the band from collapsing onto its centre.
    spread = mad(noise) or mad([math.log(b) for b in base])
    return abs(statistics.median(noise)) + 4.0 * 1.2533 * 1.4826 * spread / math.sqrt(len(noise))


def compare(job, samples, pairs):
    """Prints the job's table; returns its regressed and unusable "row :: metric" names."""
    regressed, unusable, undirected = [], [], set()
    print("%s: %d rounds of base, head, base again" % (job.label, pairs))
    print("  %-58s %-26s %-26s %-7s %-15s %-7s %-8s %s" %
          ("row :: metric", "base median [q1, q3]", "head median [q1, q3]", "ratio",
           "band", "wins", "gain>IQR", "verdict"))
    for key in sorted(samples["base"][0]):
        for metric in sorted(set().union(*(run[key] for side in SIDES for run in samples[side]))):
            name = "%s :: %s" % (key, metric)
            if job.better(metric) is None:
                undirected.add(metric)
                continue
            series = {side: [run[key].get(metric) for run in samples[side]] for side in SIDES}
            base, head = series["base"], series["head"]
            bad = [v for v in base + series["base2"] if not usable(v)]
            if bad:
                print("  %-58s skipped: a base run gives %s" % (name, bad[0]))
                continue
            bad = [(pair, v) for pair, v in enumerate(head, 1) if not usable(v)]
            if bad:
                print("  %-58s UNUSABLE: head run %d gives %s" % (name, bad[0][0], bad[0][1]))
                unusable.append(name)
                continue
            higher = job.better(metric) == "higher"
            changed = [math.log(h / b) for h, b in zip(head, base)]
            noise = [math.log(b2 / b) for b2, b in zip(series["base2"], base)]
            ratio = math.exp(statistics.median(changed))
            half = band_half_width(noise, base)
            slower = -math.log(ratio) if higher else math.log(ratio)
            verdict = "ok"
            if slower > half:
                verdict = "REGRESSED" if job.gates else "slower"
            elif slower < -half:
                verdict = "faster"
            wins = sum(1 for b, h in zip(base, head) if (h > b if higher else h < b))
            b_q1, b_med, b_q3 = quartiles(base)
            h_q1, h_med, h_q3 = quartiles(head)
            gain = (h_med - b_med) if higher else (b_med - h_med)
            print("  %-58s %-26s %-26s %-7.4f %-15s %-7s %-8s %s" %
                  (name, "%.5g [%.5g, %.5g]" % (b_med, b_q1, b_q3),
                   "%.5g [%.5g, %.5g]" % (h_med, h_q1, h_q3), ratio,
                   "[%.4f, %.4f]" % (math.exp(-half), math.exp(half)),
                   "%d/%d" % (wins, pairs), "yes" if gain > b_q3 - b_q1 else "no", verdict))
            if verdict == "REGRESSED":
                regressed.append(name)
    if undirected:
        print("  not compared (no better direction): %s" % ", ".join(sorted(undirected)))
    sys.stdout.flush()
    return regressed, unusable


def child_usage(run):
    """Runs `run()`; returns its result, and the minor page faults and system
    CPU seconds of the child processes it waited for."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = run()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return result, after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime


def print_usage(usage):
    """One informational line: each side's median faults and system time per run."""
    print("  child rusage per run, median (informational): " + "; ".join(
        "%s %d minor faults, %.3f s system" % (
            "base again" if side == "base2" else side,
            statistics.median(faults for faults, _ in usage[side]),
            statistics.median(stime for _, stime in usage[side])) for side in SIDES))
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="checkout measured as the baseline")
    parser.add_argument("--head", required=True, help="checkout measured against it")
    parser.add_argument("--command", help="run this in each checkout instead of rdcnbench")
    parser.add_argument("--pairs", type=int, default=10, help="rounds; at least 10 to claim a gain")
    parser.add_argument("--workloads", help="rdcnbench: comma-separated (default: all)")
    parser.add_argument("--seconds", type=float, help="rdcnbench: per run (default: run_seconds)")
    parser.add_argument("--seed", type=int, default=1, help="rdcnbench: seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="rdcnbench: compare the per-layer metrics")
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")
    if args.pairs < 10:
        print("note: %d pairs is fewer than the 10 a gain claim needs" % args.pairs,
              file=sys.stderr)

    paths = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    paths["base2"] = paths["base"]
    if args.command:
        jobs = [CommandJob(args.command)]
    else:
        benches = {}
        for path in set(paths.values()):
            with open(os.path.join(path, "BENCHMARK.json")) as handle:
                benches[path] = json.load(handle)
        head_bench = benches[paths["head"]]
        workloads = (args.workloads.split(",") if args.workloads
                     else [w["name"] for w in head_bench["workloads"]])
        seconds = args.seconds if args.seconds else head_bench["run_seconds"]
        jobs = [RdcnbenchJob(benches, head_bench, w, args.seed, seconds, args.trace)
                for w in workloads]

    regressed, unusable = [], []
    for job in jobs:
        warm = {side: job.run(paths[side], warmup=True) for side in ("base", "head")}
        matched = set(warm["base"]) & set(warm["head"])
        if not matched:
            fail("%s: no row keys shared by base and head" % job.label)
        for side, other in (("base", "head"), ("head", "base")):
            for key in sorted(set(warm[side]) - set(warm[other])):
                print("only in %s: %s" % (side, key))
        samples = {side: [] for side in SIDES}
        usage = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            shift = pair % len(SIDES)
            for side in SIDES[shift:] + SIDES[:shift]:
                rows, faults, stime = child_usage(lambda: job.run(paths[side]))
                if not matched <= set(rows):
                    fail("%s: %s run %d lost rows %s" % (job.label, side, pair + 1,
                                                         sorted(matched - set(rows))))
                samples[side].append({key: rows[key] for key in matched})
                usage[side].append((faults, stime))
                print(json.dumps({"job": job.label, "pair": pair + 1, "side": side,
                                  "rows": samples[side][-1], "minflt": faults,
                                  "stime_s": stime}), file=sys.stderr)
        job_regressed, job_unusable = compare(job, samples, args.pairs)
        print_usage(usage)
        regressed += job_regressed
        unusable += job_unusable

    for name in regressed:
        print("REGRESSED %s" % name)
    for name in unusable:
        print("UNUSABLE %s" % name)
    if regressed:
        print("ab_bench: %d row metric(s) slower than the base/base band" % len(regressed))
        sys.exit(1)
    if unusable:
        print("ab_bench: %d row metric(s) the head does not give as a positive finite number"
              % len(unusable))
        sys.exit(2)


if __name__ == "__main__":
    main()
