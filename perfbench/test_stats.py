"""Unit tests of the benchmark's own code.

Run: python3 perfbench/test_stats.py
"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 15.0, 9.0, 13.0, 14.0, 10.5, 11.5, 12.5]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.spread([7.0] * 6), 0.0)


class Percentiles(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.percentile(list(range(99)), 90))
        self.assertEqual(stats.percentile(list(range(100)), 90), 89)

    def test_p95_needs_two_hundred(self):
        self.assertIsNone(stats.percentile(list(range(199)), 95))
        self.assertEqual(stats.percentile(list(range(1, 201)), 95), 190)

    def test_order_does_not_matter(self):
        values = list(range(150))
        self.assertEqual(stats.percentile(values[::-1], 90),
                         stats.percentile(values, 90))

    def test_out_of_range_percentile(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(500)), 100)


class Names(unittest.TestCase):
    def test_valid_names(self):
        for name in ("nsps", "pic.deposit.share", "a-b_c.9", "0x"):
            self.assertTrue(stats.valid_name(name), name)

    def test_invalid_names(self):
        for name in ("", "bad name", "x/y", "ümlaut", ".lead", "a" * 65,
                     None):
            self.assertFalse(stats.valid_name(name), name)

    def test_declared_metrics_are_valid(self):
        for name, unit, _ in metrics.END_TO_END + metrics.PER_LAYER:
            self.assertTrue(stats.valid_name(name), name)
            self.assertTrue(stats.valid_unit(unit), unit)

    def test_benchmark_json_matches_declarations(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["end_to_end"]], metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]], metrics.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(metrics.WORKLOADS))


class ResultFormat(unittest.TestCase):
    def test_round_trip(self):
        ms = {"nsps": (9.8125, "ns"), "setup_s": (0.3402, "s")}
        line = stats.format_result(True, 12, 0, ms)
        self.assertNotIn("\n", line)
        self.assertEqual(stats.parse_result(line), (True, 12, 0, ms))

    def test_exact_keys(self):
        line = stats.format_result(False, 3, 1, {"x": (1.0, "ms")})
        self.assertEqual(sorted(json.loads(line)), sorted(stats.RESULT_KEYS))
        doc = json.loads(line)
        doc["extra"] = 1
        with self.assertRaises(ValueError):
            stats.parse_result(json.dumps(doc))

    def test_rejects_bad_values(self):
        with self.assertRaises(ValueError):
            stats.format_result(True, 0, 0, {})
        with self.assertRaises(ValueError):
            stats.format_result(True, 1, 2, {})
        with self.assertRaises(ValueError):
            stats.format_result(True, 1, 0, {"x": (float("nan"), "ms")})
        with self.assertRaises(ValueError):
            stats.format_result(True, 1, 0, {"bad name": (1.0, "ms")})


class WallClockSelfCheck(unittest.TestCase):
    def test_busy_time_sum_is_caught(self):
        ok = {"name": "s", "wall_ns": 100.0, "sample_sum_ns": 99.0,
              "reported_sum_ns": 95.0}
        bad = dict(ok, sample_sum_ns=330.0)
        busy_sum = dict(ok, reported_sum_ns=380.0)
        self.assertEqual(metrics.wall_clock_failures([ok]), [])
        self.assertEqual(len(metrics.wall_clock_failures([ok, bad])), 1)
        failures = metrics.wall_clock_failures([busy_sum])
        self.assertEqual(len(failures), 1)
        self.assertIn("library-reported", failures[0])


if __name__ == "__main__":
    unittest.main()
