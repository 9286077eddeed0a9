#!/usr/bin/env python3
"""The benchmark's own test.

Runs every workload of BENCHMARK.json at the tiny size on the default and
the held-out seed, in both modes, and checks that each run passes its
output checks and prints exactly the metrics BENCHMARK.json names, with
their units. Run from anywhere:

    python3 perfbench/test_bench.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The seed measurements are made on, and the one kept back for confirming
# a claimed gain on inputs it was not tuned on (see README.md).
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009


def bench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900)


def tiny(workload, seed, trace):
    return bench("--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", str(trace), "--tiny")


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def result(self, out):
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_every_workload_prints_the_named_metrics(self):
        for w in self.spec["workloads"]:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                    with self.subTest(workload=w["name"], seed=seed, trace=trace):
                        r = self.result(tiny(w["name"], seed, trace))
                        self.assertEqual(
                            set(r), {"correct", "attempted", "failed", "metrics"})
                        self.assertIs(r["correct"], True)
                        self.assertEqual(r["failed"], 0)
                        self.assertGreater(r["attempted"], 0)
                        want = {m["name"]: m["unit"] for m in self.spec[key]}
                        got = {k: v["unit"] for k, v in r["metrics"].items()}
                        self.assertEqual(got, want)

    def test_deterministic_metrics_repeat_per_seed(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                a = self.result(tiny(w["name"], HELD_OUT_SEED, 0))["metrics"]
                b = self.result(tiny(w["name"], HELD_OUT_SEED, 0))["metrics"]
                for m in ("storage_bytes", "wire_bytes", "query_sim_ms_p50"):
                    self.assertEqual(a[m], b[m], m)

    def test_bad_arguments_exit_without_a_result(self):
        out = bench("--workload", "nosuch", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
        self.assertEqual(out.returncode, 2)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
