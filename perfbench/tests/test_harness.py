"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root. The fixed-work test builds the runner into
.bench_build/ on first use (about half a minute).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import run  # noqa: E402


def raw_result(units, **overrides):
    raw = {
        "setup_s": [0.3, 0.1, 0.2],
        "unit_ms": list(units),
        "timed_wall_s": sum(units) / 1e3,
        "peak_rss_mb": 10.0,
        "regret": 5.0,
        "payment": 100.0,
        "attempted": len(units),
        "failures": [],
        "exact": {},
        "layer": {},
        "series": {},
    }
    raw.update(overrides)
    return raw


class PercentileRuleTest(unittest.TestCase):
    def test_median_needs_twenty_samples(self):
        self.assertTrue(harness.supported(20, 50))
        self.assertFalse(harness.supported(19, 50))

    def test_tail_is_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(harness.tail_percentile(19))
        self.assertEqual(harness.tail_percentile(20), 50)
        self.assertEqual(harness.tail_percentile(99), 50)
        self.assertEqual(harness.tail_percentile(100), 90)
        self.assertEqual(harness.tail_percentile(999), 90)
        self.assertEqual(harness.tail_percentile(1000), 90)

    def test_unsupported_percentile_is_refused(self):
        with self.assertRaises(ValueError):
            harness.percentile(list(range(999)), 99)
        self.assertAlmostEqual(
            harness.percentile([float(i) for i in range(1, 1001)], 99),
            990.01)

    def test_too_few_units_cannot_report(self):
        with self.assertRaises(ValueError):
            harness.end_to_end_metrics(raw_result([1.0] * 19))

    def test_end_to_end_values(self):
        metrics, tail = harness.end_to_end_metrics(
            raw_result([float(i) for i in range(1, 21)]))
        self.assertEqual(tail, 50)
        self.assertEqual(metrics["latency_ms.p50"], 10.5)
        self.assertEqual(metrics["setup_s"], 0.2)
        self.assertAlmostEqual(metrics["throughput_per_s"], 20 / 0.21)
        self.assertAlmostEqual(metrics["payment_kept"], 0.95)


class AccountingTest(unittest.TestCase):
    def test_clean_run(self):
        attempted, failed = harness.account(raw_result([1.0] * 20), [])
        self.assertEqual((attempted, failed), (21, 0))

    def test_each_failure_counts_once(self):
        raw = raw_result([1.0] * 20, failures=["market 3: overlap", "x"])
        self.assertEqual(harness.account(raw, []), (21, 2))

    def test_guard_mismatch_is_a_failure(self):
        guard = harness.guard_exact({"bls.deltas_evaluated": 7, "a": 1},
                                    {"bls.deltas_evaluated": 8, "a": 1})
        self.assertEqual(len(guard), 1)
        self.assertIn("bls.deltas_evaluated", guard[0])
        self.assertEqual(harness.account(raw_result([1.0] * 20), guard),
                         (21, 1))

    def test_first_run_has_nothing_to_compare(self):
        self.assertEqual(harness.guard_exact({"a": 1}, {}), [])

    def test_result_line(self):
        line = harness.format_result(True, 21, 0, {"setup_s": 0.5},
                                     {"setup_s": "s"})
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["metrics"]["setup_s"],
                         {"value": 0.5, "unit": "s"})


class MetricNameTest(unittest.TestCase):
    def test_grammar(self):
        for good in ("setup_s", "latency_ms.p50", "bls.apply_ratio",
                     "serve.stage.replan_ms.p99", "0-9"):
            self.assertTrue(harness.METRIC_NAME.match(good), good)
        for bad in ("", ".hidden", "_x", "has space", "a/b", "x" * 65,
                    "lat%"):
            self.assertFalse(harness.METRIC_NAME.match(bad), bad)
        with self.assertRaises(ValueError):
            harness.format_result(True, 1, 0, {"bad name": 1.0},
                                  {"bad name": "s"})

    def test_declared_metrics_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [name for name, _ in harness.END_TO_END])
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         [name for name, _ in harness.PER_LAYER])
        for entry in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(harness.METRIC_NAME.match(entry["name"]))
            self.assertEqual(entry["unit"],
                             dict(harness.END_TO_END + harness.PER_LAYER)[
                                 entry["name"]])

    def test_per_layer_reports_every_declared_metric(self):
        values = harness.per_layer_metrics(
            raw_result([1.0] * 20, layer={"greedy.s": 2.0}), 1.01)
        self.assertEqual(set(values), {name for name, _ in harness.PER_LAYER})
        self.assertEqual(values["greedy.s"], 2.0)
        self.assertEqual(values["bls.sweeps"], 0.0)
        self.assertEqual(values["obs.trace_overhead"], 1.01)


class FixedWorkTest(unittest.TestCase):
    """A slower run does the same work: same sample count, same exact
    counts."""

    def test_unit_count_depends_only_on_arguments(self):
        for seconds in (1, 20, 60):
            for workload in run.WORKLOADS:
                units = run.work_units(workload, seconds)
                self.assertEqual(units, run.work_units(workload, seconds))
                self.assertIsNotNone(harness.tail_percentile(units))
            self.assertGreaterEqual(run.work_units("serve-mmap", seconds),
                                    1000)
        self.assertEqual(run.work_units("serve-mmap", 20),
                         run.SERVE_RATE_PER_S * 20)

    def test_slow_run_measures_the_same_samples(self):
        runner = run.build(ROOT)
        results = []
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            for delay_ms in (0, 60):
                out = os.path.join(tmp, "raw-%d.json" % delay_ms)
                subprocess.run(
                    [runner, "--workload", "plan-nyc", "--seed", "3",
                     "--units", "4", "--scale", "0.05", "--unit-delay-ms",
                     str(delay_ms), "--out", out],
                    check=True, timeout=120)
                with open(out) as handle:
                    results.append(json.load(handle))
        fast, slow = results
        self.assertEqual(len(fast["unit_ms"]), 4)
        self.assertEqual(len(slow["unit_ms"]), 4)
        self.assertEqual(fast["exact"], slow["exact"])
        self.assertEqual(fast["failures"], [])
        self.assertGreater(slow["timed_wall_s"],
                           fast["timed_wall_s"] + 4 * 0.05)


if __name__ == "__main__":
    unittest.main()
