#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Runs run.py on every workload with a zero host budget (the minimum
number of reps) and checks that
  * per-layer counts and the fingerprint repeat exactly for one seed and
    differ for another;
  * a forced check failure is counted: `correct` is false and every
    submitted transaction counts as failed;
  * the printed metric lines parse back into every metric name and unit
    BENCHMARK.json lists, and the JSON result holds exactly those.
Takes about two minutes.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, *extra):
    """One benchmark call: (metric lines by name, fingerprint, JSON)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True, timeout=600)
    lines = proc.stdout.splitlines()
    fingerprint = next(line for line in lines
                       if line.startswith("fingerprint "))
    return bench.parse_metrics(lines), fingerprint, json.loads(lines[-1])


def exact_values(metrics):
    return {name: m[0] for name, m in metrics.items() if m[3] == "exact"}


class PerfbenchTest(unittest.TestCase):
    traced = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            cls.traced[workload] = run(workload, 1, 1)

    def test_counts_repeat_for_a_seed_and_differ_for_another(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics, fingerprint, result = self.traced[workload]
                self.assertTrue(result["correct"])
                again, fingerprint_again, _ = run(workload, 1, 1)
                self.assertEqual(exact_values(metrics), exact_values(again))
                self.assertEqual(fingerprint, fingerprint_again)
                other, fingerprint_other, _ = run(workload, 2, 1)
                self.assertNotEqual(fingerprint, fingerprint_other)
                self.assertNotEqual(exact_values(metrics),
                                    exact_values(other))

    def test_forced_check_failure_counts_every_transaction(self):
        _, _, result = run("durable_crash", 1, 0, "--force-check-failure")
        self.assertFalse(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], result["attempted"])
        metrics, _, result = run("durable_crash", 1, 1,
                                 "--force-check-failure")
        self.assertEqual(metrics["txn.fail_frac"][0], 1.0)
        self.assertEqual(result["metrics"]["txn.fail_frac"]["value"], 1.0)

    def test_metric_lines_cover_benchmark_json(self):
        per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=1):
                metrics, _, result = self.traced[workload]
                for name, unit in per_layer.items():
                    self.assertIn(name, metrics)
                    self.assertEqual(metrics[name][1], unit)
                self.assertEqual(set(result["metrics"]), set(per_layer))
        end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        metrics, _, result = run("durable_crash", 1, 0)
        for name, unit in end_to_end.items():
            self.assertIn(name, metrics)
            self.assertEqual(metrics[name][1], unit)
            self.assertGreater(metrics[name][0], 0)
        self.assertEqual(set(result["metrics"]), set(end_to_end))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
