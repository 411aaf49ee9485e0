#!/usr/bin/env python3
"""Self-checks of the benchmark's layer split.

    python3 perfbench/test_analysis.py

The synthetic cases always run. The live case drives one short traced run
of `color` and needs the driver built (any perfbench/run.py call builds it).
"""

import json
import math
import subprocess
import tempfile
import unittest
from pathlib import Path

import analysis as an
import run

# [t, reserved, routed slots, routed msgs, resolved msgs, in flight]
ENQUEUE_THEN_DRAIN_THEN_HOST = [
    [0.000, 0, 0, 0, 0, 0],
    [0.001, 4, 2, 20, 0, 10],   # reservations advance: enqueue
    [0.002, 8, 8, 60, 20, 20],  # enqueue
    [0.003, 8, 8, 60, 50, 10],  # backlog at 0.002: drain
    [0.004, 8, 8, 60, 60, 0],   # backlog at 0.003: drain
    [0.005, 8, 8, 60, 60, 0],   # empty pipeline: host
]


class PhaseSplit(unittest.TestCase):
    def test_each_interval_lands_in_one_phase(self):
        phases = an.phase_split(ENQUEUE_THEN_DRAIN_THEN_HOST)
        self.assertAlmostEqual(phases["enqueue"], 0.002)
        self.assertAlmostEqual(phases["drain"], 0.002)
        self.assertAlmostEqual(phases["host"], 0.001)

    def test_phases_sum_to_run_s_within_tolerance(self):
        phases = an.phase_split(ENQUEUE_THEN_DRAIN_THEN_HOST)
        self.assertTrue(an.phase_sum_ok(phases, 0.005))
        # A lost interval is caught.
        self.assertFalse(an.phase_sum_ok(phases, 0.5))


class LittlesLaw(unittest.TestCase):
    def test_constant_backlog(self):
        # Two slots always waiting, 1000 slots/s routed: W = 2 ms.
        series = [[t / 1000, 2 + t, t, 0, 0, 0] for t in range(11)]
        mean, wait = an.little_wait_us(series, an.queue_backlog, an.SLOTS)
        self.assertAlmostEqual(mean, 2.0)
        self.assertAlmostEqual(wait, 2000.0)

    def test_waits_stay_non_negative_under_torn_reads(self):
        # Counters read one after another can make routed < resolved +
        # in flight for one sample; no level or wait may go negative.
        series = [[0.0, 0, 0, 0, 0, 0], [0.001, 2, 2, 10, 10, 5],
                  [0.002, 4, 4, 20, 12, 3], [0.003, 4, 4, 20, 20, 0]]
        waits = an.traced_layers({"run_s": 0.003, "samples": series})
        for key in an.WAITS:
            w = waits[key]
            self.assertTrue(w == an.NO_TRAFFIC or w >= 0, (key, w))

    def test_idle_layers_report_no_traffic_not_zero_over_zero(self):
        series = [[t / 1000, 0, 0, 0, 0, 0] for t in range(5)]
        waits = an.traced_layers({"run_s": 0.004, "samples": series})
        for key in an.WAITS:
            self.assertEqual(waits[key], an.NO_TRAFFIC, key)

    def test_median_skips_runs_without_traffic(self):
        merged = an.median_of_dicts([{"w": 3.0}, {"w": an.NO_TRAFFIC}])
        self.assertEqual(merged["w"], 3.0)
        merged = an.median_of_dicts([{"w": an.NO_TRAFFIC}] * 2)
        self.assertEqual(merged["w"], an.NO_TRAFFIC)


class Reporting(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertIsNone(an.tail_percentile(range(10)))
        p, _ = an.tail_percentile(range(25))
        self.assertEqual(p, 50)
        p, _ = an.tail_percentile(range(1000))
        self.assertEqual(p, 95)


@unittest.skipUnless(run.BINARY.is_file(),
                     "driver not built; run perfbench/run.py once")
class LiveColorTrace(unittest.TestCase):
    """One short traced run of `color`, the workload whose messaging layers
    are nearly idle."""

    @classmethod
    def setUpClass(cls):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "raw.json"
            subprocess.run([str(run.BINARY), "trace", "--workload", "color",
                            "--seed", "3", "--seconds", "1", "--out",
                            str(out), "--artifact-dir", tmp],
                           env=run.child_env(), check=True, timeout=170)
            cls.raw = json.loads(out.read_text())

    def test_traced_runs_pass_every_check(self):
        for r in self.raw["traced"]:
            twin = self.raw["runs"][r["input"]]
            self.assertIsNone(an.run_failure(r, twin))
            self.assertIsNone(an.split_failure(r))

    def test_phases_sum_to_traced_run_s(self):
        for r in self.raw["traced"]:
            phases = an.phase_split(r["samples"])
            self.assertTrue(an.phase_sum_ok(phases, r["run_s"]),
                            (sum(phases.values()), r["run_s"]))

    def test_waits_are_numbers_or_no_traffic(self):
        for r in self.raw["traced"]:
            layers = an.traced_layers(r)
            for key in an.WAITS:
                w = layers[key]
                self.assertTrue(w == an.NO_TRAFFIC or
                                (math.isfinite(w) and w >= 0), (key, w))


if __name__ == "__main__":
    unittest.main()
