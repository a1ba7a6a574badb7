#!/usr/bin/env python3
"""The benchmark's own tests: tiny-size runs of every workload.

    python3 perfbench/test_bench.py

Checks that every metric BENCHMARK.json names prints exactly once, finite
and with its unit; that ok_frac is 1; that the same seed gives the same
tape hash and another seed a different one; that the traced runs emit
spans for every layer; and that the benchmark refuses to run outside a
checkout.  Builds through run.py first, like a real run.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench", "traces")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The layers each workload's traced run must reach (README.md, "Layers").
LAYERS = {
    "serve_small": {"serve", "backend", "core", "workload"},
    "scan_large": {"serve", "backend", "core", "workload"},
    "alloc_churn": {"serve", "backend", "core", "alloc", "sysmodel", "workload"},
}


def run(workload, seed=1, trace="0", cwd=ROOT, run_py=RUN):
    return subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", trace, "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False)


def tape_hash(stdout):
    match = re.search(r"^# tape_hash=(\d+)", stdout, re.MULTILINE)
    return match.group(1) if match else None


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, proc, specs):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        last = proc.stdout.strip().splitlines()[-1]
        result = json.loads(last)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {s["name"] for s in specs})
        for spec in specs:
            self.assertEqual(last.count(f'"{spec["name"]}":'), 1, spec["name"])
            metric = result["metrics"][spec["name"]]
            self.assertTrue(math.isfinite(metric["value"]), spec["name"])
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
        return result

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_metrics(run(workload), SPEC["end_to_end"])
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_per_layer_metrics_and_spans(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, trace="1")
                result = self.check_metrics(proc, SPEC["per_layer"])
                self.assertEqual(result["metrics"]["backend.retries"]["value"], 0)
                self.assertEqual(result["metrics"]["backend.failovers"]["value"], 0)
                path = os.path.join(TRACES, f"{workload}-seed1.json")
                with open(path, encoding="utf-8") as handle:
                    events = json.load(handle)["traceEvents"]
                self.assertTrue(events)
                for event in events:
                    self.assertEqual(set(event["args"]), {"span", "op", "parent"})
                self.assertTrue(LAYERS[workload] <= {e["cat"] for e in events},
                                {e["cat"] for e in events})

    def test_tape_hash_follows_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, again, other = run(workload, 7), run(workload, 7), run(workload, 8)
                for proc in (first, again, other):
                    self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                self.assertIsNotNone(tape_hash(first.stdout))
                self.assertEqual(tape_hash(first.stdout), tape_hash(again.stdout))
                self.assertNotEqual(tape_hash(first.stdout), tape_hash(other.stdout))

    def test_refuses_without_checkout(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("serve_small", cwd=bare, run_py=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
