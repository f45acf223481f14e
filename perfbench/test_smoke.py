#!/usr/bin/env python3
"""The benchmark's own test: runs every workload in --smoke mode.

Run from the repository root:

    python3 perfbench/test_smoke.py

For each workload and trace mode it checks that the result line has exactly
the keys correct/attempted/failed/metrics, that every answer was right, and
that the metrics printed are exactly the ones BENCHMARK.json names, each with
its unit. The traced run must also leave its spans file. A last case corrupts
the golden simulated-time file and expects the run to fail loudly.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_smoke(workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run_smoke(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        result = last_json(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        section = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {}
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"}, name)
            self.assertIsInstance(metric["value"], (int, float), name)
            printed[name] = metric["unit"]
        self.assertEqual(printed, expected)
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
            return
        with open(os.path.join(run.OUT_DIR, f"spans-{workload}.json")) as f:
            spans = json.load(f)
        self.assertEqual(spans["otherData"],
                         {"workload": workload, "seed": SEED})
        events = spans["traceEvents"]
        self.assertTrue(events)
        roots = {e["args"]["op"] for e in events if e["args"]["parent"] == 0}
        ops = {e["args"]["op"] for e in events}
        self.assertEqual(roots, ops, "every op has a root span")

    def test_workloads_match_spec(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(run.WORKLOADS))

    def test_every_workload_prints_its_metrics(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_simulated_time_drift_fails_loudly(self):
        workload = "serve_scan"
        self.assertEqual(run_smoke(workload, 0).returncode, 0)
        path = run.golden_path(os.path.join(run.BUILD_DIR, "perfbench"),
                               workload, SEED, True)
        with open(path) as f:
            good = f.read()
        with open(path, "w") as f:
            for line in good.splitlines():
                library, query, ns = line.split()
                f.write(f"{library} {query} {int(ns) + 1}\n")
        try:
            proc = run_smoke(workload, 0)
        finally:
            with open(path, "w") as f:
                f.write(good)
        self.assertEqual(proc.returncode, 1)
        self.assertIs(last_json(proc)["correct"], False)
        self.assertIn("not deterministic", proc.stderr)


if __name__ == "__main__":
    unittest.main()
