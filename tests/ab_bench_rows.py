#!/usr/bin/env python3
"""Fake BenchReport emitter for test_ab_bench.py: prints two fixed rows.

    ab_bench_rows.py [--meta] [--duplicate] [--head-slow NAME] [--head-rename]
                     [--head-wall null|NaN|drop] [--head-touch-mb N]

The --head-* options act only when the working directory is named "head",
so both sides of an A/B run can share one command and still differ.
"""

import json
import os
import sys

args = sys.argv[1:]
in_head = os.path.basename(os.getcwd()) == "head"
rows = [{"bench": "fake", "name": name, "params": {"shape": "pod", "packets": 400},
         "total_cost": 10.0, "wall_ms": wall_ms, "ns_per_round": wall_ms * 1e3}
        for name, wall_ms in (("alg", 2.0), ("fifo", 3.0))]
if in_head and "--head-slow" in args:
    slow = args[args.index("--head-slow") + 1]
    for row in rows:
        if row["name"] == slow:
            row["wall_ms"] *= 2
            row["ns_per_round"] *= 2
if in_head and "--head-rename" in args:
    for row in rows:
        row["bench"] = "renamed"
if in_head and "--head-wall" in args:  # the alg row's wall_ms, as a broken head gives it
    wall = args[args.index("--head-wall") + 1]
    if wall == "drop":
        del rows[0]["wall_ms"]
    else:
        rows[0]["wall_ms"] = None if wall == "null" else float(wall)
if in_head and "--head-touch-mb" in args:  # N MiB of fresh pages, one fault each
    touched = bytearray(int(args[args.index("--head-touch-mb") + 1]) << 20)
    for page in range(0, len(touched), 4096):
        touched[page] = 1
if "--duplicate" in args:
    rows.append(rows[0])
print("fake bench table header")
if "--meta" in args:  # two meta lines: read as rows, they would share a key
    for git in ("abc", "def"):
        print(json.dumps({"bench": "fake", "meta": {"git": git}, "wall_ms": 1.0}))
for row in rows:
    print(json.dumps(row))
