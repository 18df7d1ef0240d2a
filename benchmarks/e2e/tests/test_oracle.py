"""Fingerprints: equal for equal answers in any row order, unequal otherwise."""

import unittest

import numpy as np

from repro.core.result import ResultTable

from benchmarks.e2e import oracle
from benchmarks.e2e.schedule import Op, Record
from benchmarks.e2e.workloads.base import Workload


def _table(order):
    names = np.array(["ASIA", "EUROPE", "AFRICA"])[order]
    revenue = np.array([10.25, 7.5, 1e9 + 0.125])[order]
    return ResultTable(["n_name", "revenue"], [names, revenue])


class FingerprintTest(unittest.TestCase):
    def test_row_order_does_not_matter(self):
        self.assertIsNone(oracle.mismatch(
            oracle.fingerprint(_table([2, 0, 1])), oracle.fingerprint(_table([0, 1, 2]))
        ))

    def test_object_columns_from_the_wire_match_native_ones(self):
        native = _table([0, 1, 2])
        wire = ResultTable(
            native.names, [np.array(native.columns["n_name"].tolist(), dtype=object),
                           native.columns["revenue"]],
        )
        self.assertIsNone(oracle.mismatch(oracle.fingerprint(wire), oracle.fingerprint(native)))

    def test_wrong_answers_are_caught(self):
        want = oracle.fingerprint(_table([0, 1, 2]))
        short = ResultTable(["n_name", "revenue"], [np.array(["ASIA"]), np.array([10.25])])
        self.assertIn("rows", oracle.mismatch(oracle.fingerprint(short), want))
        off = _table([0, 1, 2])
        off.columns["revenue"] = off.columns["revenue"] * (1 + 1e-6)
        self.assertIn("revenue", oracle.mismatch(oracle.fingerprint(off), want))
        cut = _table([0, 1, 2])
        cut.columns["n_name"] = np.array(["ASI", "EUROPE", "AFRICA"])
        self.assertIn("n_name", oracle.mismatch(oracle.fingerprint(cut), want))
        self.assertEqual(oracle.mismatch(None, want), "no result")

    def test_summation_order_noise_is_tolerated(self):
        values = np.random.default_rng(3).normal(1e6, 1e5, size=5000)
        forward = oracle.array_fingerprint(v=values)
        backward = oracle.array_fingerprint(v=values[::-1].copy())
        self.assertIsNone(oracle.mismatch(forward, backward))

    def test_the_reference_names_the_columns_that_must_agree(self):
        got = oracle.array_fingerprint(i=np.arange(3), v=np.ones(3))
        self.assertIsNone(oracle.mismatch(got, oracle.array_fingerprint(v=np.ones(3))))
        self.assertIn("missing", oracle.mismatch(got, oracle.array_fingerprint(w=np.ones(3))))


class _Scripted(Workload):
    """A workload whose oracle is scripted: checks ``check`` alone."""

    def compute_reference(self, op):
        if op.key == ("broken",):
            raise RuntimeError("reference engine fell over")
        return oracle.array_fingerprint(total=np.array([42.0]))


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.workload = _Scripted(seed=1, scratch="unused")

    def _record(self, key, total=42.0, error=None):
        op = Op(template="t", key=key, sql="select 1")
        fingerprint = None if error else oracle.array_fingerprint(total=np.array([total]))
        return Record(op, 0.0, 1.0, fingerprint, error)

    def test_a_wrong_answer_or_an_exception_is_a_failed_op_never_a_crash(self):
        from benchmarks.e2e.runner import verify

        records = [
            self._record(("ok",)),
            self._record(("ok",), total=41.0),
            self._record(("ok",), error="ReproError: refused"),
            self._record(("broken",)),
            Record(Op(template="w", key=("replace", 0), kind="replace"), 0.0, 1.0, (0, {})),
        ]
        failures = verify(self.workload, records)
        self.assertEqual([records.index(r) for r, _ in failures], [1, 2, 3])
        self.assertIn("checksum", failures[0][1])
        self.assertEqual(failures[1][1], "ReproError: refused")
        self.assertIn("oracle raised RuntimeError", failures[2][1])


if __name__ == "__main__":
    unittest.main()
