#!/usr/bin/env python3
"""Tests of the benchmark itself: replay determinism, seed sensitivity,
the result format against BENCHMARK.json, and the traced run's invariants.

Run from the repository root (builds the runner first if needed):

    python3 -m unittest discover -s perfbench/tests -v

Each runner run here has a one-second window (at least one full cycle); the
exact counts compared below do not depend on the window length.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py)

# Per-layer metrics that are exact counts of one round: identical in every
# run of a seed.
EXACT_METRICS = {
    "svc_hot": ["svc.placed_cpu", "svc.placed_fpga", "svc.placed_hybrid",
                "svc.virt_jobs_per_s", "svc.virt_p99_ms", "fpga.cycles",
                "fpga.model_gap_pct", "fpga.hit_ratio"],
    "svc_cold": ["svc.placed_cpu", "svc.placed_fpga", "svc.placed_hybrid",
                 "svc.virt_jobs_per_s", "svc.virt_p99_ms", "fpga.cycles",
                 "fpga.model_gap_pct", "fpga.hit_ratio"],
    "stream_mixed": ["stream.scan_per_read", "stream.splits",
                     "stream.merges", "stream.rebalance_jobs"],
}

_RUNNER = None
_CACHE = {}


def runner():
    global _RUNNER
    if _RUNNER is None:
        _RUNNER = run.build()
        if _RUNNER is None:
            raise RuntimeError("perfbench runner failed to build")
    return _RUNNER


def run_once(workload, seed, trace):
    """(detail, result) of one short run; cached per argument tuple."""
    key = (workload, seed, trace)
    if key not in _CACHE:
        proc = subprocess.run(
            [runner(), "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=170, check=False)
        lines = proc.stdout.strip().splitlines()
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        if proc.returncode != 0 or not result["correct"]:
            raise AssertionError("%s seed %d failed: %s" %
                                 (workload, seed, detail["errors"]))
        _CACHE[key] = (detail, result)
    return _CACHE[key]


class DeterminismTest(unittest.TestCase):
    def test_same_seed_repeats_exactly(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = run_once(workload, 3, 1)
                # An untraced run replays the same rounds.
                second = run_once(workload, 3, 0)
                third = run_once(workload, 3, 1)
                self.assertEqual(first[0]["det_hash"], second[0]["det_hash"])
                self.assertEqual(first[0]["exact"], second[0]["exact"])
                for name in EXACT_METRICS[workload]:
                    self.assertEqual(first[1]["metrics"][name],
                                     third[1]["metrics"][name], name)

    def test_other_seed_changes_hash(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = run_once(workload, 3, 0)[0]["det_hash"]
                b = run_once(workload, 4, 0)[0]["det_hash"]
                self.assertNotEqual(a, b)

    def test_hot_and_cold_share_placement(self):
        hot = run_once("svc_hot", 3, 0)[0]
        cold = run_once("svc_cold", 3, 0)[0]
        self.assertEqual(hot["det_hash"], cold["det_hash"])
        self.assertEqual(hot["exact"], cold["exact"])


class ResultFormatTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def check(self, result, entries):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(e["name"] for e in entries))
        for e in entries:
            self.assertEqual(metrics[e["name"]]["unit"], e["unit"], e["name"])

    def test_end_to_end_metrics_match_spec(self):
        for w in self.spec["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = run_once(workload, 3, 0)[1]
                self.check(result, self.spec["end_to_end"])
                for e in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][e["name"]]["value"],
                                       0, e["name"])

    def test_per_layer_metrics_match_spec(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(run_once(workload, 3, 1)[1],
                           self.spec["per_layer"])


class TracedRunTest(unittest.TestCase):
    def metric(self, workload, name):
        return run_once(workload, 3, 1)[1]["metrics"][name]["value"]

    def test_shares_sum_to_wall(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertAlmostEqual(
                    self.metric(workload, "trace.share_sum"), 1.0, delta=0.05)

    def test_cache_hit_ratio(self):
        self.assertEqual(self.metric("svc_hot", "fpga.hit_ratio"), 1.0)
        self.assertEqual(self.metric("svc_cold", "fpga.hit_ratio"), 0.0)
        self.assertEqual(self.metric("svc_hot", "fpga.miss.count"), 0)
        self.assertEqual(self.metric("svc_cold", "fpga.hit.count"), 0)


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_library_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: no library to
        # build, so the command must fail without printing a result.
        parent = os.path.dirname(run.build_dir())
        os.makedirs(parent, exist_ok=True)
        scratch = tempfile.mkdtemp(dir=parent)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(BENCH, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "svc_hot",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main()
