"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import unittest

import benchlib
import run


def span(i, parent, t0, t1, name="x"):
    return {"i": i, "parent": parent, "t0": t0, "t1": t1, "name": name}


class NearestRank(unittest.TestCase):
    def test_ranks(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.nearest_rank(values, 0.5), 50)
        self.assertEqual(benchlib.nearest_rank(values, 0.99), 99)
        self.assertEqual(benchlib.nearest_rank(values, 1.0), 100)
        self.assertEqual(benchlib.nearest_rank(values, 0.0), 1)
        self.assertEqual(benchlib.nearest_rank([7, 3, 5], 0.5), 5)

    def test_missing_samples_miss_every_limit(self):
        values = [1.0, 2.0, None, float("nan")]
        self.assertEqual(benchlib.nearest_rank(values, 0.5), 2.0)
        self.assertEqual(benchlib.nearest_rank(values, 0.75), math.inf)


class TailRule(unittest.TestCase):
    def test_target_kept_when_ten_beyond(self):
        # p99 of 1000 samples has exactly 10 beyond it.
        self.assertEqual(benchlib.tail_percentile(1000, 0.99), 0.99)

    def test_steps_down_when_fewer_than_ten_beyond(self):
        # p99 of 500 samples has 5 beyond; the highest allowed rank is 490.
        q = benchlib.tail_percentile(500, 0.99)
        self.assertAlmostEqual(q, 0.98)
        self.assertEqual(500 - math.ceil(q * 500 - 1e-9), 10)
        # p90 of 72 samples: rank 65 has 7 beyond, so 62/72.
        q = benchlib.tail_percentile(72, 0.90)
        self.assertEqual(72 - math.ceil(q * 72 - 1e-9), 10)

    def test_worst_sample_when_too_few(self):
        value, q, n = benchlib.tail([3.0, 9.0, 4.0], 0.99)
        self.assertEqual((value, q, n), (9.0, None, 3))
        value, q, _ = benchlib.tail(list(range(50)), 0.0)
        self.assertEqual((value, q), (49, None))

    def test_summary_per_pass_when_each_pass_is_large_enough(self):
        calm = list(range(1, 1001))          # p99 = 990
        disturbed = calm[:-20] + [10**6] * 20  # p99 = 10**6
        p50, high, label = benchlib.latency_summary(
            [calm, calm, disturbed], 0.99)
        self.assertEqual((p50, high), (500, 990))
        self.assertIn("median of 3 groups", label)

    def test_summary_pools_small_passes(self):
        passes = [[float(i) for i in range(k, k + 24)] for k in (0, 24, 48,
                                                                   72, 96)]
        p50, high, label = benchlib.latency_summary(passes, 0.90)
        self.assertEqual(p50, 59.0)
        self.assertEqual(high, 107.0)  # p90 of 120: rank 108, 12 beyond
        self.assertEqual(label, "p90 of n=120")
        _, worst, label = benchlib.latency_summary([[3.0], [5.0]], 0.0)
        self.assertEqual((worst, label), (5.0, "worst of n=2"))

    def test_tail_value_has_ten_beyond(self):
        values = list(range(1, 201))
        value, q, n = benchlib.tail(values, 0.99)
        self.assertEqual(n, 200)
        self.assertEqual(sum(v > value for v in values), 10)


class DueTimeLatency(unittest.TestCase):
    def test_one_stall_delays_every_later_request(self):
        # Requests due every 1 ms on one server taking 0.5 ms each; request
        # 1 stalls the server for 5 ms.
        due = [0.000, 0.001, 0.002, 0.003, 0.004]
        service = [0.0005, 0.005, 0.0005, 0.0005, 0.0005]
        done, free = [], 0.0
        for d, s in zip(due, service):
            free = max(free, d) + s
            done.append(free)
        lat = benchlib.due_time_latencies(due, done)
        self.assertAlmostEqual(lat[0], 0.0005)
        for i in range(2, 5):
            self.assertGreater(lat[i], service[i])  # delayed by the stall
        self.assertAlmostEqual(lat[2], 0.0045)
        self.assertAlmostEqual(lat[4], 0.0035)

    def test_late_submitter_is_charged(self):
        # The submitter itself stalls: requests 1..3 are sent 4 ms late and
        # served at once. Due-time latency still carries the 4 ms.
        due = [0.0, 0.001, 0.002, 0.003]
        sent = [0.0, 0.005, 0.005, 0.005]
        done = [s + 0.0001 for s in sent]
        lat = benchlib.due_time_latencies(due, done)
        self.assertAlmostEqual(lat[1], 0.0041)
        self.assertAlmostEqual(lat[3], 0.0021)

    def test_refused_request_has_no_latency(self):
        self.assertEqual(benchlib.due_time_latencies([0.0], [None]), [None])


class SelfTime(unittest.TestCase):
    def test_nested_children(self):
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 5.0),
                 span(2, 1, 2.0, 3.0)]
        st = benchlib.self_times(spans)
        self.assertAlmostEqual(st[0], 6.0)
        self.assertAlmostEqual(st[1], 3.0)
        self.assertAlmostEqual(st[2], 1.0)

    def test_back_to_back_children(self):
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 4.0),
                 span(2, 0, 4.0, 6.0), span(3, 0, 8.0, 9.0)]
        self.assertAlmostEqual(benchlib.self_times(spans)[0], 4.0)

    def test_overlapping_children_counted_once(self):
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 5.0),
                 span(2, 0, 3.0, 7.0)]
        self.assertAlmostEqual(benchlib.self_times(spans)[0], 4.0)

    def test_unattributed_share(self):
        spans = [span(0, -1, 0.0, 10.0, "pass.sweep"), span(1, 0, 0.0, 9.0),
                 span(2, -1, 20.0, 30.0, "probe")]
        self.assertAlmostEqual(benchlib.unattributed_share(spans), 0.1)


class FailFrac(unittest.TestCase):
    def test_shed_requests_count_as_failures(self):
        # 1000 requests, 3 shed by the bounded queue, 1 wrong response.
        self.assertAlmostEqual(benchlib.fail_frac(1000, 3 + 1), 0.004)
        # And a shed request's latency misses every limit.
        lat = [0.3] * 99 + [None]
        self.assertEqual(benchlib.nearest_rank(lat, 1.0), math.inf)

    def test_zero_attempts_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.fail_frac(0, 0)


class Overhead(unittest.TestCase):
    def test_overhead_pct(self):
        self.assertAlmostEqual(benchlib.overhead_pct([1.0, 1.0, 3.0],
                                                     [1.1, 1.1, 0.5]), 10.0)


class BenchmarkFile(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual([m["name"] for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         {k: v[0] for k, v in run.PER_LAYER.items()})
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
