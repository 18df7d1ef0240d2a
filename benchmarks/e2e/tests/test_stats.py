"""The "ten samples beyond" rule, geomean and quartile arithmetic."""

import statistics
import unittest

from benchmarks.e2e import stats


class PercentileRuleTest(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond_it(self):
        self.assertEqual(stats.samples_beyond(200, 95), 10)
        self.assertTrue(stats.supports_percentile(200, 95))
        self.assertEqual(stats.samples_beyond(199, 95), 9)
        self.assertFalse(stats.supports_percentile(199, 95))
        self.assertTrue(stats.supports_percentile(20, 50))
        self.assertFalse(stats.supports_percentile(1000, 99.5))


class GeomeanTest(unittest.TestCase):
    def test_moves_when_any_value_moves(self):
        base = stats.geomean([1.0, 10.0, 100.0])
        self.assertAlmostEqual(base, 10.0)
        # doubling the smallest template moves it as much as doubling the largest
        self.assertAlmostEqual(stats.geomean([2.0, 10.0, 100.0]),
                               stats.geomean([1.0, 10.0, 200.0]))
        self.assertAlmostEqual(stats.geomean([2.0, 10.0, 100.0]) / base, 2 ** (1 / 3))

    def test_rejects_zero_and_empty(self):
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            stats.geomean([])


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
        self.assertEqual(list(stats.quartiles(values)), statistics.quantiles(values, n=4))
        q1, q2, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)

    def test_one_run_has_no_spread(self):
        self.assertEqual(stats.quartiles([4.2]), (4.2, 4.2, 4.2))
        self.assertEqual(stats.spread([4.2]), 0.0)


if __name__ == "__main__":
    unittest.main()
