#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py            # all, incl. the self-check run
    python3 perfbench/test_perfbench.py -k Compare # the fast ones only

Run from the root of a checkout.  SelfCheckTest builds the perfbench project
(like any run.py call) and runs every workload at small sizes.
"""

import io
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_benchmark_json()

    def test_keys_and_limits(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        names = []
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


def record(workload, fingerprint, **metrics):
    return {"workload": workload, "seed": 1, "trace": 0, "fingerprint": fingerprint,
            "result": {"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "ms"} for k, v in metrics.items()}}}


class CompareTest(unittest.TestCase):
    FOUR_CORES = {"nproc": 4, "simd": "avx2"}
    ONE_CORE = {"nproc": 1, "simd": "avx2"}

    def write(self, records):
        f = tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False)
        for r in records:
            f.write(json.dumps(r) + "\n")
        f.close()
        self.addCleanup(os.unlink, f.name)
        return f.name

    def test_refuses_different_fingerprints(self):
        old = self.write([record("engine_1m", self.ONE_CORE, latency_ms_p50=50.0)])
        new = self.write([record("engine_1m", self.FOUR_CORES, latency_ms_p50=40.0)])
        self.assertEqual(run.compare(old, new, out=io.StringIO()), 3)

    def test_flags_a_regression_beyond_its_bound(self):
        old = self.write([record("engine_1m", self.FOUR_CORES, latency_ms_p50=50.0)])
        same = self.write([record("engine_1m", self.FOUR_CORES, latency_ms_p50=50.5)])
        worse = self.write([record("engine_1m", self.FOUR_CORES, latency_ms_p50=80.0)])
        self.assertEqual(run.compare(old, same, out=io.StringIO()), 0)
        self.assertEqual(run.compare(old, worse, out=io.StringIO()), 1)


class SelfCheckTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--self-check"],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=1800)
        self.assertEqual(done.returncode, 0, done.stderr[-4000:])


if __name__ == "__main__":
    unittest.main()
