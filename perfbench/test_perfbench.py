#!/usr/bin/env python3
"""Smoke tests of the Nano-Sim benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload in smoke mode (8x8 meshes, 4 Monte-Carlo trials,
8 service jobs), untraced and traced, and checks that every metric
BENCHMARK.json names is printed with its unit, that every output check
passes, and that the traced run writes a trace Perfetto can load.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACES = ROOT / ".bench_build" / "perfbench-out" / "traces"


def run(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class BenchmarkSmoke(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)
        self.assertIn("host: nproc=", proc.stdout)
        self.assertIn("seed=3", proc.stdout)
        return proc

    def test_untraced_runs(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = self.check_run(w["name"], 0)
                if w["name"] in ("tran_mesh", "paper"):
                    self.assertIn("SWEC/NR wall-time ratio", proc.stdout)

    def test_traced_runs_write_a_loadable_trace(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 1)
                doc = json.loads((TRACES / f"{w['name']}-seed3.json").read_text())
                events = doc["traceEvents"]
                self.assertTrue(events)
                for e in events:
                    self.assertEqual(e["ph"], "X")
                    self.assertGreaterEqual(e["dur"], 0)
                    self.assertIn("parent", e["args"])
                    self.assertIn("id", e["args"])
                self.assertIn("host", doc["otherData"])

    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("paper", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
