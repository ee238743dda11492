#!/usr/bin/env python3
"""tools/ab_bench.py against the fake row emitter tests/ab_bench_rows.py.

Each case runs the tool over two scratch checkouts named base/ and head/;
both sides run the same command, and the emitter tells them apart by its
working directory where a case needs them to differ.
"""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import unittest

TESTS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(TESTS)
TOOL = os.path.join(REPO, "tools", "ab_bench.py")
EMITTER = os.path.join(TESTS, "ab_bench_rows.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class AbBenchTest(unittest.TestCase):
    def setUp(self):
        self.scratch = tempfile.TemporaryDirectory()
        self.sides = [os.path.join(self.scratch.name, side) for side in ("base", "head")]
        for side in self.sides:
            os.mkdir(side)

    def tearDown(self):
        self.scratch.cleanup()

    def ab(self, *emitter_args):
        command = " ".join([sys.executable, EMITTER] + list(emitter_args))
        return subprocess.run([sys.executable, TOOL, "--base", self.sides[0], "--head",
                               self.sides[1], "--command", command, "--pairs", "3"],
                              capture_output=True, text=True)

    def test_identical_rows_pass(self):
        run = self.ab()
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        self.assertIn('fake|alg|packets=400|shape="pod" :: ns_per_round', run.stdout)
        self.assertNotIn("REGRESSED", run.stdout)

    def test_row_twice_as_slow_fails_and_is_named(self):
        run = self.ab("--head-slow", "fifo")
        self.assertEqual(run.returncode, 1, run.stdout + run.stderr)
        regressed = [line for line in run.stdout.splitlines() if line.startswith("REGRESSED")]
        self.assertEqual(sorted(regressed),
                         ['REGRESSED fake|fifo|packets=400|shape="pod" :: ns_per_round',
                          'REGRESSED fake|fifo|packets=400|shape="pod" :: wall_ms'])

    def test_duplicate_key_is_an_error(self):
        run = self.ab("--duplicate")
        self.assertEqual(run.returncode, 2, run.stdout + run.stderr)
        self.assertIn("duplicate row key fake|alg", run.stderr)

    def test_disjoint_keys_are_an_error(self):
        run = self.ab("--head-rename")
        self.assertEqual(run.returncode, 2, run.stdout + run.stderr)
        self.assertIn("no row keys shared by base and head", run.stderr)

    def test_meta_lines_are_ignored(self):
        run = self.ab("--meta")
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        self.assertNotIn("fake| ", run.stdout)

    def test_metric_the_head_breaks_is_an_error(self):
        for wall in ("null", "NaN", "drop"):
            run = self.ab("--head-wall", wall)
            self.assertEqual(run.returncode, 2, wall + ": " + run.stdout + run.stderr)
            self.assertIn('UNUSABLE fake|alg|packets=400|shape="pod" :: wall_ms', run.stdout)

    def test_page_faults_are_reported_and_never_judged(self):
        run = self.ab("--head-touch-mb", "32")
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        line = [l for l in run.stdout.splitlines() if "child rusage per run" in l]
        self.assertEqual(len(line), 1, run.stdout)
        faults = dict(re.findall(r"(base again|base|head) (\d+) minor faults", line[0]))
        self.assertEqual(sorted(faults), ["base", "base again", "head"])
        # 32 MiB of touched pages is 8192 faults at 4 KiB a page.
        self.assertGreater(int(faults["head"]) - int(faults["base"]), 6000, line[0])
        self.assertLess(abs(int(faults["base again"]) - int(faults["base"])), 6000, line[0])
        runs = [json.loads(l) for l in run.stderr.splitlines() if l.startswith("{")]
        self.assertTrue(runs and all(r["minflt"] > 0 and r["stime_s"] >= 0 for r in runs))

    def test_band_has_a_floor_when_base_ratios_tie(self):
        base = [100.0, 103.0, 97.0, 101.0, 99.0]
        noise = [0.0, 0.0, 0.0, 0.01, -0.02]  # more than half tie: their MAD is 0
        # The base values' own log MAD, log(100 / 99), stands in.
        self.assertAlmostEqual(load_tool().band_half_width(noise, base),
                               4.0 * 1.2533 * 1.4826 * math.log(100 / 99) / math.sqrt(5))

    def test_trajectory_file_reads_as_rows(self):
        with open(os.path.join(REPO, "BENCH_trajectory.json")) as handle:
            rows = load_tool().parse_rows(handle.read(), "BENCH_trajectory.json")
        self.assertGreater(len(rows), 0)
        for key in rows:
            self.assertIn("|pr=", key)
            self.assertIn("|commit=", key)


if __name__ == "__main__":
    unittest.main()
