"""``compare``: within-bound, regressed, unresolved; quick never mixes with full."""

import unittest
from unittest import mock

from benchmarks.e2e import compare, metrics


def _run(quick=False, **overrides):
    end_to_end = {
        "setup_s": 1.0, "cold_pass_s": 2.0, "throughput_ops_s": 100.0,
        "latency_p50_ms": 5.0, "latency_p95_ms": 50.0, "geomean_ms": 8.0,
        "peak_rss_mb": 200.0, "failed_ratio": 0.0,
    }
    end_to_end.update(overrides)
    return {"quick": quick, "workloads": {"bi_hot": {"end_to_end": end_to_end}}}


def _verdicts(base, new):
    return {row["metric"]: row for row in compare.compare(base, new)}


class VerdictTest(unittest.TestCase):
    def setUp(self):
        # pinned bounds: the verdict logic is under test, not the registry's values
        pinned = dict.fromkeys(metrics.BOUNDS, 0.10)
        pinned["latency_p95_ms"] = 0.20
        pinned[metrics.FAILED_RATIO] = 0.0
        patch = mock.patch.dict(metrics.BOUNDS, pinned)
        patch.start()
        self.addCleanup(patch.stop)

    def test_every_end_to_end_metric_gets_a_row(self):
        rows = compare.compare([_run()], [_run()])
        self.assertEqual([r["metric"] for r in rows], metrics.COMPARED)
        self.assertEqual(len(rows), 8)
        self.assertTrue(all(r["verdict"] == compare.WITHIN for r in rows))
        self.assertTrue(all(r["workload"] == "bi_hot" for r in rows))

    def test_regressed_only_past_the_metrics_own_bound(self):
        rows = _verdicts([_run()], [_run(geomean_ms=8.0 * 1.12, latency_p95_ms=50.0 * 1.12)])
        self.assertEqual(rows["geomean_ms"]["verdict"], compare.REGRESSED)      # bound 10 %
        self.assertEqual(rows["latency_p95_ms"]["verdict"], compare.WITHIN)     # bound 20 %
        self.assertAlmostEqual(rows["geomean_ms"]["worse_by"], 0.12)
        self.assertEqual(rows["geomean_ms"]["base"][1], 8.0)  # the ratio's base rides along

    def test_higher_is_better_for_throughput(self):
        rows = _verdicts([_run()], [_run(throughput_ops_s=85.0)])
        self.assertEqual(rows["throughput_ops_s"]["verdict"], compare.REGRESSED)
        self.assertAlmostEqual(rows["throughput_ops_s"]["worse_by"], 0.15)
        rows = _verdicts([_run()], [_run(throughput_ops_s=130.0)])
        self.assertEqual(rows["throughput_ops_s"]["verdict"], compare.WITHIN)

    def test_an_improvement_is_within_bound(self):
        rows = _verdicts([_run()], [_run(latency_p50_ms=2.0)])
        self.assertEqual(rows["latency_p50_ms"]["verdict"], compare.WITHIN)
        self.assertLess(rows["latency_p50_ms"]["worse_by"], 0)

    def test_spread_wider_than_the_bound_is_unresolved_not_unchanged(self):
        noisy = [_run(latency_p50_ms=v) for v in (4.0, 5.0, 6.0, 4.2, 5.8)]
        steady = [_run(latency_p50_ms=v) for v in (5.0, 5.01, 4.99, 5.02, 4.98)]
        self.assertEqual(_verdicts(noisy, steady)["latency_p50_ms"]["verdict"], compare.UNRESOLVED)
        self.assertEqual(_verdicts(steady, noisy)["latency_p50_ms"]["verdict"], compare.UNRESOLVED)
        self.assertEqual(_verdicts(steady, steady)["latency_p50_ms"]["verdict"], compare.WITHIN)
        # the other metrics of the same runs are steady and stay resolved
        self.assertEqual(_verdicts(noisy, steady)["geomean_ms"]["verdict"], compare.WITHIN)

    def test_a_failed_op_in_any_new_run_is_regressed_whatever_the_base_did(self):
        # a fifth of the answers wrong: throughput stays inside its bound, the run does not
        wrong = _run(failed_ratio=0.2, throughput_ops_s=95.0)
        rows = _verdicts([_run()] * 5, [_run()] * 4 + [wrong])
        self.assertEqual(rows["throughput_ops_s"]["verdict"], compare.WITHIN)
        self.assertEqual(rows["failed_ratio"]["verdict"], compare.REGRESSED)
        self.assertAlmostEqual(rows["failed_ratio"]["worse_by"], 0.2)
        # absolute: a base that failed too excuses nothing
        self.assertEqual(_verdicts([wrong], [wrong])["failed_ratio"]["verdict"], compare.REGRESSED)
        self.assertEqual(_verdicts([wrong], [_run()])["failed_ratio"]["verdict"], compare.WITHIN)
        self.assertIn("0 abs", compare.render(compare.compare([_run()], [wrong])))

    def test_medians_over_the_supplied_runs(self):
        base = [_run(geomean_ms=v) for v in (8.0, 8.1, 7.9, 8.05, 7.95)]
        new = [_run(geomean_ms=v) for v in (9.6, 9.7, 9.5, 9.65, 9.55)]
        row = _verdicts(base, new)["geomean_ms"]
        self.assertEqual(row["verdict"], compare.REGRESSED)
        self.assertEqual((row["base"][1], row["new"][1]), (8.0, 9.6))
        self.assertEqual(row["runs"], (5, 5))

    def test_quick_runs_are_refused_next_to_full_runs(self):
        with self.assertRaises(ValueError):
            compare.compare([_run()], [_run(quick=True)])
        self.assertTrue(compare.compare([_run(quick=True)], [_run(quick=True)]))

    def test_render_names_every_row(self):
        text = compare.render(compare.compare([_run()], [_run(geomean_ms=16.0)]))
        self.assertIn("geomean_ms", text)
        self.assertIn("regressed", text)
        self.assertIn("+100.0%", text)


if __name__ == "__main__":
    unittest.main()
