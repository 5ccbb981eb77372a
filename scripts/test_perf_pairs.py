#!/usr/bin/env python3
"""Unit tests for perf_pairs.py: result parsing, pair ordering, the
per-metric aggregation (ratios, quartiles, wins, the gain rule) and the
base export (into a temporary directory). No perfbench run is made."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perf_pairs  # noqa: E402

RESULT = {"correct": True, "attempted": 10, "failed": 0,
          "metrics": {"req_per_s": {"value": 5.0e6, "unit": "1/s"}}}


class ParseTests(unittest.TestCase):
    def test_last_line_is_the_result(self):
        stdout = "# perfbench workload=warm_hits\n# trials=10\n" + \
            json.dumps(RESULT) + "\n\n"
        result = perf_pairs.parse_result(stdout)
        self.assertEqual(result.pop("trials"), {})
        self.assertEqual(result, RESULT)

    def test_trial_and_revision_lines_are_kept(self):
        stdout = ("# git=unknown nproc=4 build=Release\n"
                  "# trials=10 rounds_per_trial=5\n"
                  "# trial_req_per_s= 8.0 4.0 7.5\n"
                  "# trial_p90_us= 0.43 0.54 0.44\n" + json.dumps(RESULT))
        result = perf_pairs.parse_result(stdout)
        self.assertEqual(result["git"], "unknown")
        trials = result["trials"]
        self.assertEqual(trials["req_per_s"], [8.0, 4.0, 7.5])
        self.assertEqual(trials["p90_us"], [0.43, 0.54, 0.44])
        self.assertEqual(perf_pairs.slow_trials(trials["req_per_s"]), [1])
        self.assertEqual(perf_pairs.slow_trials([]), [])

    def test_missing_or_foreign_result_raises(self):
        with self.assertRaises(ValueError):
            perf_pairs.parse_result("")
        with self.assertRaises(ValueError):
            perf_pairs.parse_result("# header only\n")
        with self.assertRaises(ValueError):
            perf_pairs.parse_result('{"correct": true}\n')

    def test_end_to_end_metrics_come_from_benchmark_json(self):
        with open(os.path.join(perf_pairs.ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as f:
            metrics = perf_pairs.end_to_end_metrics(json.load(f))
        self.assertIn(("latency_p90_us", "lower"), metrics)
        self.assertIn(("req_per_s", "higher"), metrics)


class OrderTests(unittest.TestCase):
    def test_sides_alternate(self):
        self.assertEqual(perf_pairs.run_order(0), ("base", "work"))
        self.assertEqual(perf_pairs.run_order(1), ("work", "base"))
        self.assertEqual(perf_pairs.run_order(6), ("base", "work"))


class SummarizeTests(unittest.TestCase):
    def test_quartiles(self):
        self.assertEqual(perf_pairs.quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(perf_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]),
                         (2.0, 3.0, 4.0))

    def test_lower_is_better_gain(self):
        pairs = [(1.0 + 0.01 * i, 0.7 + 0.01 * i) for i in range(10)]
        s = perf_pairs.summarize("latency_p90_us", "lower", pairs)
        self.assertEqual(s["wins"], 10)
        self.assertEqual(s["losses"], 0)
        self.assertAlmostEqual(s["ratios"][0], 0.7)
        self.assertAlmostEqual(s["base_quartiles"][1], 1.045)
        self.assertAlmostEqual(s["base_iqr"], 0.045)
        self.assertTrue(s["gain"])

    def test_higher_is_better_counts_wins_the_other_way(self):
        pairs = [(100.0, 90.0)] * 10
        s = perf_pairs.summarize("req_per_s", "higher", pairs)
        self.assertEqual(s["wins"], 0)
        self.assertEqual(s["losses"], 10)
        self.assertFalse(s["gain"])

    def test_ties_count_for_neither_side(self):
        pairs = [(2.0, 2.0)] * 3 + [(2.0, 1.0)] * 7
        s = perf_pairs.summarize("latency_p50_us", "lower", pairs)
        self.assertEqual((s["wins"], s["losses"]), (7, 0))
        self.assertFalse(s["gain"])  # 7 of 10 is short of nine in ten

    def test_a_win_inside_the_base_spread_is_no_gain(self):
        # Every pair wins, but the base's own quartiles span more than the
        # difference of the medians.
        base = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
        pairs = [(b, b - 0.1) for b in base]
        s = perf_pairs.summarize("latency_p90_us", "lower", pairs)
        self.assertEqual(s["wins"], 10)
        self.assertFalse(s["gain"])

    def test_summary_line_names_the_metric_and_verdict(self):
        s = perf_pairs.summarize("latency_p90_us", "lower",
                                 [(1.0, 0.5)] * 10)
        line = perf_pairs.format_summary(s)
        self.assertTrue(line.startswith("latency_p90_us"))
        self.assertIn("wins 10/10", line)
        self.assertTrue(line.endswith("GAIN"))


class ExportTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.exports = os.path.join(self.tmp.name, "exports")
        self.sha = subprocess.run(["git", "-C", perf_pairs.ROOT, "rev-parse",
                                   "HEAD"], capture_output=True, text=True,
                                  check=True).stdout.strip()

    def tearDown(self):
        self.tmp.cleanup()

    def test_export_is_complete_and_reused(self):
        target = perf_pairs.export_base("HEAD", self.exports)
        self.assertEqual(target, os.path.join(self.exports, self.sha))
        self.assertTrue(os.path.isfile(
            os.path.join(target, "perfbench", "run.py")))
        self.assertEqual(os.listdir(self.exports), [self.sha])
        marker = os.path.join(target, "marker")
        open(marker, "w").close()
        self.assertEqual(perf_pairs.export_base("HEAD", self.exports), target)
        self.assertTrue(os.path.exists(marker))

    def test_an_interrupted_export_is_redone(self):
        partial = os.path.join(self.exports, self.sha + ".tmp")
        os.makedirs(os.path.join(partial, "perfbench"))
        open(os.path.join(partial, "perfbench", "run.py"), "w").close()
        open(os.path.join(partial, "stale"), "w").close()
        target = perf_pairs.export_base("HEAD", self.exports)
        self.assertEqual(os.listdir(self.exports), [self.sha])
        self.assertFalse(os.path.exists(os.path.join(target, "stale")))
        self.assertTrue(os.path.isdir(os.path.join(target, "src")))

    def test_base_runs_do_not_see_an_enclosing_repository(self):
        subprocess.run(["git", "init", "-q", self.tmp.name], check=True)
        target = perf_pairs.export_base("HEAD", self.exports)
        probe = ["git", "-C", target, "rev-parse", "--git-dir"]
        self.assertEqual(subprocess.run(probe, capture_output=True).returncode,
                         0)
        self.assertNotEqual(subprocess.run(
            probe, capture_output=True,
            env=perf_pairs.base_env(self.exports)).returncode, 0)


if __name__ == "__main__":
    unittest.main()
