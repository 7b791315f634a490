"""Tests of the benchmark itself.

Run from the root of the repository (the first test builds the driver):

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]


def run_bench(*args):
    """Run perfbench/run.py; return (exit code, parsed last line)."""
    done = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines \
        else None
    return done.returncode, result


def driver(*args):
    """Run the built driver directly (run_bench builds it)."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(ROOT, target, "perfbench", "perfbench")
    return subprocess.run([path] + list(args), cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        # Builds the driver if needed.
        cls.plain = run_bench("--workload", "net_rx", "--seed", "1",
                              "--seconds", "1", "--trace", "0")

    def check_names(self, result, declared):
        self.assertIsNotNone(result)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(emitted, {m["name"]: m["unit"] for m in declared})

    def test_end_to_end_names_match_benchmark_json(self):
        code, result = self.plain
        self.assertEqual(code, 0)
        self.check_names(result, self.spec["end_to_end"])
        for metric in result["metrics"].values():
            self.assertNotEqual(metric["value"], 0)

    def test_per_layer_names_match_benchmark_json(self):
        code, result = run_bench("--workload", "coremark", "--seed", "1",
                                 "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0)
        self.check_names(result, self.spec["per_layer"])

    def test_workloads_match_benchmark_json(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, ["coremark", "net_rx", "fault_inject"])

    def test_corrupted_op_counts_as_failed(self):
        for workload in ("coremark", "net_rx", "fault_inject"):
            done = driver("--workload", workload, "--seed", "1",
                          "--seconds", "1", "--trace", "0",
                          "--corrupt-op", "2")
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertFalse(result["correct"], workload)
            self.assertGreater(result["failed"], 0, workload)
            self.assertLess(result["failed"], result["attempted"], workload)
            self.assertIn("FAILED check", done.stderr)

    def test_seed_changes_generated_inputs(self):
        for workload in ("net_rx", "fault_inject"):
            def inputs(seed):
                done = driver("--workload", workload, "--seed", str(seed),
                              "--print-inputs", "32")
                self.assertEqual(done.returncode, 0, done.stderr)
                return done.stdout
            first = inputs(1)
            self.assertEqual(first, inputs(1), workload)
            self.assertNotEqual(first, inputs(2), workload)

    def test_runner_and_classifier_agree_with_library(self):
        done = driver("--seed", "1", "--cross-check")
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_bad_arguments_are_refused(self):
        done = driver("--workload", "nope", "--seed", "1", "--seconds",
                      "1", "--trace", "0")
        self.assertEqual(done.returncode, 2)
        self.assertEqual(done.stdout, "")

    def test_incomplete_tree_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "coremark", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn("metrics", done.stdout)


if __name__ == "__main__":
    unittest.main()
