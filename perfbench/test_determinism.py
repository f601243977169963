#!/usr/bin/env python3
"""Determinism tests for the benchmark itself.

Run from the root of the source tree (builds the benchmark if needed):

    python3 perfbench/test_determinism.py

  - the same seed gives byte-identical generated inputs (the digest of
    the op schedule, or of the traces of fuzz ops 0-999);
  - a different seed gives different inputs;
  - two traced runs with the same seed report identical count-type
    per-layer metrics and, for fuzz, the same signature digest.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build helper)

WORKLOADS = ("serve", "churn", "fuzz")

# Per-layer metrics that are counts or ratios of counts over the traced
# run's fixed op window: they must repeat exactly for a seed.
COUNT_METRICS = (
    "smp.world_switches_per_op",
    "smp.shootdowns_per_op",
    "smp.ipis_per_shootdown",
    "smp.shootdown_wait_spins_per_shootdown",
    "smp.cache.local_hit_ratio",
    "hv.hypercalls_rejected_frac",
    "hv.pt.walks_per_op",
    "hv.pt.walk_depth_mean",
    "hv.translations_per_op",
    "hv.tlb.hit_ratio",
    "hv.tlb.flushes_per_op",
    "hv.pt.maps_per_op",
    "hv.pt.unmaps_per_op",
    "ccal.harness_runs_per_exec",
    "mir.steps_per_exec",
    "mir.prim_calls_per_exec",
    "fuzz.ops_per_exec",
    "migrate.precopy_rounds_mean",
    "migrate.downtime_pages_mean",
    "churn.shootdowns_per_op",
    "churn.ipis_per_shootdown",
)


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.root = run.source_root()
        cls.binary = run.build(cls.root)

    def result(self, *args):
        proc = subprocess.run([self.binary, *args], capture_output=True,
                              text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
        return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])

    def digest(self, workload, seed):
        return self.result("--workload", workload, "--seed", str(seed),
                           "--inputs-only")["input_digest"]

    def traced(self, workload, seed):
        out = os.path.join(run.build_dir(self.root),
                           f"determinism-{workload}.json")
        return self.result("--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1",
                           "--trace-out", out)

    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.digest(workload, 11),
                                 self.digest(workload, 11))

    def test_different_seed_different_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(self.digest(workload, 11),
                                    self.digest(workload, 12))

    def test_same_seed_same_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.traced(workload, 11)
                second = self.traced(workload, 11)
                for name in COUNT_METRICS:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)
                self.assertEqual(first["output_digest"],
                                 second["output_digest"])
                # The counts are not vacuous: every workload walks pages.
                self.assertGreater(
                    first["metrics"]["hv.pt.walks_per_op"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
