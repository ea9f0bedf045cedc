"""Tests of the benchmark's percentile selection and aggregation.

    python3 -m unittest discover -s stepbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import metrics  # noqa: E402


def raw_report(op_ms, op="step", items=64000.0, **extra):
    raw = {"op": op, "op_ms": op_ms, "items_per_op": items,
           "setup_s": [0.3, 0.1, 0.2], "counters": {"peak_rss_mb": 7.0}, "layers": {},
           "attempted": len(op_ms), "failed": 0}
    raw.update(extra)
    return raw


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile(values, 99), 99)
        self.assertEqual(metrics.percentile(values, 100), 100)
        self.assertEqual(metrics.percentile([5.0], 99), 5.0)
        self.assertEqual(metrics.percentile([3, 1, 2], 50), 2)  # order does not matter

    def test_beyond_counts_samples_above_the_rank(self):
        self.assertEqual(metrics.beyond(100, 90), 10)
        self.assertEqual(metrics.beyond(1000, 99), 10)
        self.assertEqual(metrics.beyond(999, 99), 9)
        self.assertEqual(metrics.beyond(101, 90), 10)

    def test_preferred_percentile_kept_when_ten_samples_lie_beyond(self):
        self.assertEqual(metrics.tail_percentile(1000, 99.0), 99.0)
        self.assertEqual(metrics.tail_percentile(100, 90.0), 90.0)

    def test_falls_back_down_the_ladder(self):
        self.assertEqual(metrics.tail_percentile(999, 99.0), 90.0)
        self.assertEqual(metrics.tail_percentile(99, 90.0), 50.0)
        self.assertEqual(metrics.tail_percentile(20, 99.0), 50.0)
        with self.assertRaises(ValueError):
            metrics.tail_percentile(19, 99.0)

    def test_never_climbs_above_the_preferred_percentile(self):
        self.assertEqual(metrics.tail_percentile(100000, 90.0), 90.0)


class Windows(unittest.TestCase):
    def test_split_keeps_order_and_every_sample(self):
        values = list(range(10))
        parts = metrics.windows(values, 3)
        self.assertEqual(len(parts), 3)
        self.assertEqual(sum(parts, []), values)
        self.assertLessEqual(max(map(len, parts)) - min(map(len, parts)), 1)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            metrics.windows([1.0, 2.0], 3)

    def test_tail_is_median_of_window_tails(self):
        quiet = [1.0] * 200          # p90 = 1.0
        slow = [1.0] * 100 + [5.0] * 100  # p90 = 5.0
        value, p, per_window = metrics.tail(quiet + slow + quiet, 90.0, 3)
        self.assertEqual((value, p, per_window), (1.0, 90.0, 200))
        self.assertEqual(metrics.percentile(quiet + slow + quiet, 90.0), 5.0)  # unwindowed
        value, _, _ = metrics.tail(slow + slow + quiet, 90.0, 3)
        self.assertEqual(value, 5.0)

    def test_tail_falls_back_when_a_window_is_short(self):
        # 270 samples -> windows of 90, where p90 leaves only 9 beyond.
        _, p, per_window = metrics.tail([1.0] * 270, 90.0, 3)
        self.assertEqual((p, per_window), (50.0, 90))
        _, p, _ = metrics.tail([1.0] * 300, 90.0, 3)
        self.assertEqual(p, 90.0)


class Aggregation(unittest.TestCase):
    def test_step_metrics(self):
        ops = [2.0] * 300
        m = metrics.end_to_end("dlpic_f64", raw_report(ops))
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["latency_ms_p50"], 2.0)
        self.assertEqual(m["latency_ms_tail"], 2.0)
        self.assertAlmostEqual(m["throughput_per_s"], 64000 / 0.002)  # particle-steps/s
        self.assertEqual(m["peak_rss_mb"], 7.0)

    def test_request_throughput_is_completions_over_wall_time(self):
        done = [(i + 1) / 2000.0 for i in range(1500)]  # 2000 completions a second
        m = metrics.end_to_end("wire_int8", raw_report([1.0] * 1500, op="request", items=1.0,
                                                       op_done_s=done))
        self.assertAlmostEqual(m["throughput_per_s"], 2000.0)

    def test_request_throughput_is_the_median_window(self):
        # Three windows of 100 completions: at 1000/s, 100/s (a stall), 1000/s.
        done = [i / 1000.0 for i in range(1, 101)]
        done += [0.1 + i / 100.0 for i in range(1, 101)]
        done += [1.1 + i / 1000.0 for i in range(1, 101)]
        self.assertAlmostEqual(metrics.request_throughput(done, 3), 1000.0)
        self.assertAlmostEqual(300 / done[-1], 250.0)  # the whole-run rate the stall drags down

    def test_step_throughput_is_the_median_window(self):
        ops = [1.0] * 100 + [2.0] * 100 + [4.0] * 100
        m = metrics.end_to_end("dlpic_f64", raw_report(ops, items=1.0))
        self.assertAlmostEqual(m["throughput_per_s"], 500.0)

    def test_per_layer_fills_idle_layers_with_zero(self):
        layers = {name: 1.0 for name, _, _, workloads, _ in metrics.PER_LAYER
                  if "trad_paper" in workloads}
        m = metrics.per_layer("trad_paper", raw_report([1.0] * 30, layers=layers))
        self.assertEqual(m["pic.sort_ms"], 1.0)
        self.assertEqual(m["nn.forward_ms"], 0.0)
        self.assertEqual(m["net.overhead_ms"], 0.0)
        self.assertEqual(set(m), {row[0] for row in metrics.PER_LAYER})

    def test_per_layer_counters_are_read_too(self):
        layers = {name: 1.0 for name, _, _, workloads, _ in metrics.PER_LAYER
                  if "trad_paper" in workloads and name != "pic.particles_per_step"}
        raw = raw_report([1.0] * 30, layers=layers)
        raw["counters"]["pic.particles_per_step"] = 64000.0
        self.assertEqual(metrics.per_layer("trad_paper", raw)["pic.particles_per_step"], 64000.0)

    def test_per_layer_rejects_a_missing_exercised_layer(self):
        with self.assertRaises(KeyError):
            metrics.per_layer("trad_paper", raw_report([1.0] * 30))

    def test_failed_frac(self):
        self.assertEqual(metrics.failed_frac({"attempted": 8, "failed": 2}), 0.25)


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        self.doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_metric_tables_match(self):
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.doc["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.doc["per_layer"]],
                         [row[:3] for row in metrics.PER_LAYER])
        self.assertEqual([w["name"] for w in self.doc["workloads"]], list(metrics.WORKLOADS))

    def test_every_workload_has_a_tail_percentile_and_windows(self):
        self.assertEqual(set(metrics.TAIL_PERCENTILE), set(metrics.WORKLOADS))
        self.assertEqual(set(metrics.WINDOWS), set(metrics.WORKLOADS))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


if __name__ == "__main__":
    unittest.main()
