#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds perfbench (as run.py does), then checks that:
  - the metric names it emits are the ones BENCHMARK.json lists;
  - each workload's output check fails when one result row or the
    reference digest is tampered with;
  - the traced run's results are byte-identical to an untraced run's
    (the binary fails the run otherwise), and its per-layer self times
    plus unattributed time add up to its lanes' wall time.
Takes a few minutes: every workload runs one round per case.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as runner  # noqa: E402

BINARY = None


def setUpModule():
    global BINARY
    BINARY = runner.build()
    if BINARY is None:
        raise RuntimeError("perfbench build failed")


def spec():
    with open(os.path.join(runner.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, *extra, trace="0", seed="7"):
    """One run of a single round; returns (run record, result)."""
    cmd = [BINARY, "--root", runner.ROOT,
           "--out", os.path.join(runner.ROOT, ".bench_out"),
           "--workload", workload, "--seed", seed, "--seconds", "0",
           "--trace", trace, *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise AssertionError(f"{cmd} exited {p.returncode}:\n{p.stderr}")
    lines = p.stdout.strip().split("\n")
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def names(metrics):
    return [m["name"] for m in metrics]


class MetricNames(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        p = subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                           text=True, check=True)
        listed = json.loads(p.stdout)
        s = spec()
        self.assertEqual(names(s["workloads"]), listed["workloads"])
        for key in ("end_to_end", "per_layer"):
            self.assertEqual(
                [(m["name"], m["unit"]) for m in s[key]],
                [(m["name"], m["unit"]) for m in listed[key]])

    def test_untraced_run_emits_end_to_end_metrics(self):
        _, result = bench("check-build")
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]),
                         sorted(names(spec()["end_to_end"])))
        for m in spec()["end_to_end"]:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertGreater(got["value"], 0)


class OutputCheck(unittest.TestCase):
    def check_tampered(self, workload):
        for mode in ("row", "digest"):
            with self.subTest(tamper=mode):
                record, result = bench(workload, "--tamper", mode)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])
                self.assertTrue(record["failures"])

    def test_paper_matrix(self):
        self.check_tampered("paper-matrix")

    def test_uarch_sweep(self):
        self.check_tampered("uarch-sweep")

    def test_check_build(self):
        self.check_tampered("check-build")

    def test_store_reuse(self):
        self.check_tampered("store-reuse")


class TracedRun(unittest.TestCase):
    def check_traced(self, workload):
        record, result = bench(workload, trace="1")
        # Fails on any output mismatch, including traced vs untraced.
        self.assertTrue(result["correct"], record["failures"])
        self.assertEqual(result["attempted"], 2)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(names(spec()["per_layer"])))
        traced = record["traced"]
        self.assertTrue(os.path.exists(traced["file"]))
        # Self times, roots (unattributed) included, tile the lanes.
        self.assertAlmostEqual(sum(traced["self_s"].values()),
                               traced["lane_s"], delta=1e-6)
        lanes_wall = traced["lanes"] * traced["wall_s"]
        self.assertLessEqual(traced["lane_s"], lanes_wall)
        self.assertGreaterEqual(
            traced["lane_s"],
            lanes_wall * (1 - traced["reconcile_tolerance"]))
        self.assertAlmostEqual(
            result["metrics"]["trace.unattributed_s"]["value"],
            traced["self_s"]["unattributed"], delta=1e-9)
        with open(traced["file"]) as f:
            events = json.load(f)["traceEvents"]
        self.assertTrue(any(e.get("ph") == "X" for e in events))
        return traced["claim_share_of_busy"]

    def test_paper_matrix(self):
        shares = self.check_traced("paper-matrix")
        self.assertGreaterEqual(shares["replay_eval"], 0.40)

    def test_uarch_sweep(self):
        shares = self.check_traced("uarch-sweep")
        self.assertLess(shares["replay_eval"], 0.05)

    def test_check_build(self):
        shares = self.check_traced("check-build")
        self.assertLess(shares["replay_eval"], 0.05)
        self.assertGreaterEqual(shares["compile_checks"], 0.90)

    def test_store_reuse(self):
        shares = self.check_traced("store-reuse")
        self.assertGreaterEqual(shares["store_io"], 0.60)


if __name__ == "__main__":
    unittest.main(verbosity=2)
