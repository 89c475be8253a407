#!/usr/bin/env python3
"""Self-test of the whole-run benchmark (perfbench/run.py).

Tiny runs of every workload must print every metric BENCHMARK.json names,
with its unit, and pass their output checks; a perturbed committed row
must be caught. Run from anywhere:

    python3 perfbench/tests/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("net_dense", "net_obss", "link_trials")


def run(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return done, result


def scratch_dir():
    base = ROOT / ".bench_build"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


class TinyRuns(unittest.TestCase):
    def check_metrics(self, result, wanted):
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in wanted})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end_metrics_and_zero_failures(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done, result = run("--workload", workload, "--seconds", "1",
                                   "--trace", "0")
                self.assertEqual(done.returncode, 0, done.stdout)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertRegex(done.stdout, r"fail_ratio\s+0 ratio")
                if workload != "link_trials":
                    self.assertIn("reference_check=matched", done.stdout)

    def test_traced_run_prints_every_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done, result = run("--workload", workload, "--seconds", "1",
                                   "--trace", "1")
                self.assertEqual(done.returncode, 0, done.stdout)
                self.assertTrue(result["correct"])
                self.check_metrics(result, SPEC["per_layer"])
                metrics = result["metrics"]
                self.assertGreater(metrics["trace.overhead_ratio"]["value"], 0)
                if workload == "link_trials":
                    self.assertLess(
                        metrics["trace.uncovered_share"]["value"], 0.10)


class ReferenceRows(unittest.TestCase):
    def perturbed_reference(self, tmp):
        bench = json.loads((ROOT / "results" / "BENCH_net.json").read_text())
        for row in bench["net_points"]:
            if row.get("obss") == "2ap_cochannel":
                row["mpdus"] += 1
        path = Path(tmp) / "BENCH_net.json"
        path.write_text(json.dumps(bench, indent=2))
        return path

    def test_perturbed_row_is_caught(self):
        with scratch_dir() as tmp:
            ref = self.perturbed_reference(tmp)
            done, result = run("--workload", "net_obss", "--seconds", "1",
                               "--reference", str(ref))
        self.assertNotEqual(done.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("differs", done.stdout)

    def test_other_seeds_skip_the_row_but_still_check(self):
        with scratch_dir() as tmp:
            ref = self.perturbed_reference(tmp)
            done, result = run("--workload", "net_obss", "--seconds", "1",
                               "--seed", "7", "--reference", str(ref))
        self.assertEqual(done.returncode, 0, done.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertIn("reference_check=skipped", done.stdout)


class WithoutSources(unittest.TestCase):
    def test_fails_without_the_library(self):
        with scratch_dir() as tmp:
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "net_obss", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
