#!/usr/bin/env python3
"""Self-tests of the live-engine benchmark.

    python3 livebench/test_bench.py

Builds the benchmark and runs:
  * livebench_test (C++): equal seeds give identical model bytes and churn
    schedules, different seeds differ, and the byte comparison the
    correctness gate uses catches a flipped byte;
  * a short run of every workload, untraced and traced: each metric that
    BENCHMARK.json names is emitted exactly once, with its unit and a
    finite value, and the run is correct;
  * a deliberately corrupted run: the gate must fail it with a non-zero exit.
"""
import json
import math
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own build helper)

SHORT_SECONDS = 3


def parse_result(stdout):
    """The last stdout line as JSON, refusing duplicate keys."""
    def no_duplicates(pairs):
        keys = [k for k, _ in pairs]
        if len(keys) != len(set(keys)):
            raise ValueError(f"duplicate keys in {keys}")
        return dict(pairs)
    return json.loads(stdout.strip().splitlines()[-1],
                      object_pairs_hook=no_duplicates)


def bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True)


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build("live_bench", "livebench_test")
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_seeded_inputs_and_gate(self):
        proc = subprocess.run([str(run.BUILD / "livebench_test")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_every_metric_once_with_unit(self):
        for workload in self.spec["workloads"]:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = bench("--workload", workload["name"], "--seed", "5",
                                 "--seconds", str(SHORT_SECONDS), "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = parse_result(proc.stdout)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in self.spec[key]}
                    self.assertEqual(set(result["metrics"]), set(expected))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], expected[name], name)
                        self.assertTrue(math.isfinite(metric["value"]), name)

    def test_corrupted_final_model_fails_the_gate(self):
        proc = bench("--workload", "full-stream", "--seed", "5", "--seconds", "2",
                     "--trace", "0", "--corrupt-final")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(parse_result(proc.stdout)["correct"])
        self.assertIn("served model differs", proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
