"""The benchmark's own tests: a tiny instance ladder through every
workload in both modes, the correctness gate on an injected wrong
verdict, the BENCHMARK.json contract, and refusal to run without
sources.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, trace, *extra, seed=5, cwd=ROOT, env=None):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--ladder", "tiny", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600, env=env)


def parse(done):
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-2].split(" ", 1)[1])
    return record, json.loads(lines[-1])


class Contract(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(DECLARED), {"command", "paths", "run_seconds", "workloads",
                                         "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(DECLARED["workloads"]) <= 8)
        self.assertTrue(1 <= len(DECLARED["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(DECLARED["per_layer"]) <= 128)
        names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in DECLARED[group]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)
        for w in DECLARED["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in DECLARED["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in DECLARED["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in DECLARED["end_to_end"] + DECLARED["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in DECLARED["end_to_end"]))


class TinyLadder(unittest.TestCase):
    def assert_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_reports_every_metric_and_passes_the_gate(self):
        for workload in WORKLOADS:
            for trace, declared in ((0, DECLARED["end_to_end"]), (1, DECLARED["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    done = run(workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    record, result = parse(done)
                    self.assert_metrics(result, declared)
                    self.assertTrue(result["correct"], record["gate_failures"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(record["samples"]["serve_jobs"], 50)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_same_seed_gives_same_inputs(self):
        first, _ = parse(run("serve-claims", 0, seed=9))
        second, _ = parse(run("serve-claims", 0, seed=9))
        other, _ = parse(run("serve-claims", 0, seed=10))
        self.assertEqual(first["seeded_inputs"], second["seeded_inputs"])
        self.assertNotEqual(first["seeded_inputs"], other["seeded_inputs"])
        # The fixed instances do not depend on the seed.
        self.assertEqual(first["fingerprints"], second["fingerprints"])
        self.assertEqual(first["fingerprints"], other["fingerprints"])

    def test_gate_fails_on_an_injected_wrong_verdict(self):
        done = run("serve-claims", 0, "--inject", "wrong-verdict")
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        record, result = parse(done)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any(m.startswith("serve c0-0 ") for m in record["gate_failures"]))


class Refusal(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        bare = ROOT / ".bench_build" / "perfbench-test-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(
                "__pycache__", "Cargo.lock"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
            done = run("check-wide", 0, cwd=bare, env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
