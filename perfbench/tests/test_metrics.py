"""Tests for the benchmark's metric math (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import metrics  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_median_of_odd_sample(self):
        self.assertEqual(metrics.nearest_rank([5, 1, 3], 50), (3, 1, 3))

    def test_median_of_even_sample_takes_lower_middle(self):
        # rank = ceil(0.5 * 4) = 2 -> the second smallest, two beyond it.
        self.assertEqual(metrics.nearest_rank([4, 1, 3, 2], 50), (2, 2, 4))

    def test_p99_counts_samples_beyond(self):
        values = list(range(1, 1001))  # 1..1000
        value, beyond, n = metrics.nearest_rank(values, 99)
        self.assertEqual((value, beyond, n), (990, 10, 1000))

    def test_p99_of_small_sample_has_too_few_beyond(self):
        value, beyond, _ = metrics.nearest_rank(list(range(100)), 99)
        self.assertEqual((value, beyond), (98, 1))
        self.assertLess(beyond, 10)

    def test_p100_is_the_maximum(self):
        self.assertEqual(metrics.nearest_rank([7, 9, 8], 100), (9, 0, 3))

    def test_tiny_percentile_is_the_minimum(self):
        self.assertEqual(metrics.nearest_rank([7, 9, 8], 0.1)[0], 7)

    def test_empty_sample_raises(self):
        with self.assertRaises(ValueError):
            metrics.nearest_rank([], 50)


class Rates(unittest.TestCase):
    def test_rate_is_items_per_second(self):
        self.assertAlmostEqual(metrics.rate(500, 250_000_000), 2000.0)

    def test_median_rate_over_slices(self):
        r = metrics.median_rate([100, 100, 100], [1e9, 2e9, 4e9])
        self.assertAlmostEqual(r, 50.0)

    def test_busy_rate_ignores_idle_wall_time(self):
        p = {"item_ns": [1e9, 3e9], "batch_items": [2], "batch_wall_ns": [9e9]}
        self.assertAlmostEqual(metrics.busy_rate(p), 0.5)

    def test_overhead_pct(self):
        self.assertAlmostEqual(metrics.overhead_pct(125.0, 100.0), 25.0)
        self.assertAlmostEqual(metrics.overhead_pct(100.0, 100.0), 0.0)


class BusyFrac(unittest.TestCase):
    def test_fully_busy_workers(self):
        self.assertAlmostEqual(metrics.busy_frac(4_000, 4, 1_000), 1.0)

    def test_half_idle_workers(self):
        # 4 workers for 1 s, items summed to 2 s of work.
        self.assertAlmostEqual(metrics.busy_frac(2e9, 4, 1e9), 0.5)

    def test_single_worker(self):
        self.assertAlmostEqual(metrics.busy_frac(750, 1, 1_000), 0.75)


class Usage(unittest.TestCase):
    BEFORE = {"utime_ns": 1_000, "stime_ns": 500, "minflt": 10, "wall_ns": 0}
    AFTER = {"utime_ns": 4_000, "stime_ns": 1_500, "minflt": 90, "wall_ns": 9}

    def test_delta_is_per_field(self):
        d = metrics.usage_delta(self.BEFORE, self.AFTER)
        self.assertEqual(d, {"utime_ns": 3_000, "stime_ns": 1_000, "minflt": 80, "wall_ns": 9})

    def test_sys_cpu_frac(self):
        d = metrics.usage_delta(self.BEFORE, self.AFTER)
        self.assertAlmostEqual(metrics.sys_cpu_frac(d), 0.25)

    def test_sys_cpu_frac_without_cpu_time_is_zero(self):
        self.assertEqual(metrics.sys_cpu_frac(metrics.usage_delta(self.BEFORE, self.BEFORE)), 0.0)

    def test_minflt_per_op(self):
        d = metrics.usage_delta(self.BEFORE, self.AFTER)
        self.assertAlmostEqual(metrics.minflt_per_op(d, 40), 2.0)

    def test_pass_usage_sums_batches_and_passes(self):
        p = {"usage": [{"before": self.BEFORE, "after": self.AFTER}] * 2}
        total = metrics.pass_usage(p, p)
        self.assertEqual(total["minflt"], 320)
        self.assertAlmostEqual(metrics.sys_cpu_frac(total), 0.25)


class LedgerResidual(unittest.TestCase):
    def test_parts_that_add_up_leave_nothing(self):
        self.assertAlmostEqual(metrics.ledger_residual([30.0, 50.0, 20.0], 100.0), 0.0)

    def test_unexplained_share(self):
        self.assertAlmostEqual(metrics.ledger_residual([4.0, 96.0, 28.0], 160.0), 0.2)

    def test_parts_exceeding_the_whole_go_negative(self):
        self.assertAlmostEqual(metrics.ledger_residual([60.0, 60.0], 100.0), -0.2)


class EndToEnd(unittest.TestCase):
    @staticmethod
    def raw(workload):
        def p(items, wall, lat, cpu=None):
            usage = {"utime_ns": 0, "stime_ns": 0, "minflt": 0, "wall_ns": 0}
            return {"workers": 1, "batch_items": items, "batch_wall_ns": wall,
                    "item_ns": lat, "item_cpu_ns": lat if cpu is None else cpu,
                    "usage": [{"before": usage, "after": usage}]}
        return {
            "workload": workload, "setup_s": [0.3, 0.1, 0.2], "peak_rss_kib": 2048,
            "attempted": 10, "failed": 0, "liveness_missed": 0,
            "passes": {"full": p([1000], [2e9], list(range(1, 1001))),
                       "j1": p([1000], [4e9], [5] * 1000, [4] * 1000)},
        }

    def test_trial_sweep_slots(self):
        m, lines = metrics.end_to_end(self.raw("trial_sweep"))
        # The gated rate is the 1-job pass's; the nproc rate is printed.
        self.assertAlmostEqual(m["ops_per_s"][0], 250.0)
        self.assertAlmostEqual(m["setup_s"][0], 0.2)
        self.assertAlmostEqual(m["peak_rss_mib"][0], 2.0)
        # Gated latencies are the 1-job pass's CPU times; wall-clock ones
        # of both passes are printed.
        self.assertAlmostEqual(m["item_cpu_p50_us"][0], 0.004)
        self.assertAlmostEqual(m["item_cpu_p90_us"][0], 0.004)
        self.assertIn("trials_per_s_j1 = 250 1/s", lines)
        self.assertIn("trials_per_s = 500 1/s (not gated)", lines)
        self.assertIn("trial_full_p99_us = 0.99 us (n=1000, 10 beyond)", lines)
        self.assertIn("trial_j1_p50_us = 0.005 us (n=1000, 500 beyond)", lines)
        self.assertIn("trial_j1_cpu_p50_us = 0.004 us (n=1000, 500 beyond)", lines)


if __name__ == "__main__":
    unittest.main()
