#!/usr/bin/env python3
"""Tests of the benchmark itself: tiny runs of every workload.

Run from the repository root (builds on first use, like run.py):

    python3 perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# adapt_churn is left out of BENCHMARK.json as unsteady (see README.md)
# but still runs from the command line, so it is tested too.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["adapt_churn"]

TINY = ["--seed", "3", "--seconds", "1", "--requests", "400"]


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    out = subprocess.run(
        [sys.executable, script, "--workload", workload, "--trace", str(trace)]
        + TINY + list(extra),
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    result = json.loads(last) if last.startswith("{") else None
    return out.returncode, result, out


class TinyRuns(unittest.TestCase):
    def check_metrics(self, result, expected):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_every_workload_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, result, out = run(w, 0)
                self.assertEqual(rc, 0, out.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                       m["name"])
                # setup_s is the median of the cold set-ups run.py made.
                cold = [line for line in out.stdout.splitlines()
                        if line.startswith("# cold_setups_s=")]
                self.assertEqual(len(cold), 1)
                setups = [float(x) for x in cold[0].split("=")[1].split()]
                self.assertEqual(len(setups), 3)
                self.assertAlmostEqual(result["metrics"]["setup_s"]["value"],
                                       sorted(setups)[1], places=3)

    def test_traced_run_prints_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, result, out = run(w, 1)
                self.assertEqual(rc, 0, out.stderr)
                self.assertTrue(result["correct"])
                self.check_metrics(result, SPEC["per_layer"])
                # adapt_churn runs in every traced run, long enough to
                # call retrain() and to probe.
                for name in ("serve.retrain_ms", "serve.call_probe_ns",
                             "adapt.probe_share"):
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       name)
                trace = os.path.join(ROOT, ".bench_build",
                                     "trace-%s-seed3.json" % w)
                with open(trace) as f:
                    events = json.load(f)["traceEvents"]
                ids = {e["args"]["arg"] for e in events
                       if e["name"] == "bench.request"}
                self.assertTrue(ids)
                # Every call span shares its id with a request span.
                calls = [e for e in events
                         if e["name"].startswith("serve.call_")]
                self.assertTrue(calls)
                self.assertTrue(all(e["args"]["arg"] in ids for e in calls))

    def test_wrong_expectation_trips_the_gate(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                rc, result, _ = run("warm_hits", trace,
                                    "--inject-wrong-expectation")
                self.assertNotEqual(rc, 0)
                self.assertIsNotNone(result)
                self.assertFalse(result["correct"])

    def test_fails_without_the_repository_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            script = os.path.join(bare, "perfbench", "run.py")
            rc, result, _ = run("warm_hits", 0, cwd=bare, script=script)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(rc, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
