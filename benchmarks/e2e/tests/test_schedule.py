"""The op schedule is a pure function of the seed; the open loop charges stalls forward."""

import unittest

from benchmarks.e2e.schedule import Op, Record, due_offsets, run_open_loop, schedule_bytes
from benchmarks.e2e.workloads import WORKLOADS


def _schedule(name: str, seed: int) -> bytes:
    workload = WORKLOADS[name](seed, scratch="unused")
    if name == "la_graph":  # the others' schedules need no generated inputs
        workload.generate()
    return schedule_bytes([workload.cold_ops()] + [workload.pass_ops(k) for k in range(6)])


class SeedTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        # la_graph's statements are fixed: only the order of a pass varies
        for name in ("bi_hot", "bi_adhoc", "la_graph", "serve_mix", "shard_mix"):
            with self.subTest(workload=name):
                self.assertEqual(_schedule(name, 2018), _schedule(name, 2018))
                self.assertNotEqual(_schedule(name, 2018), _schedule(name, 7))

    def test_ingest_cycle_is_ordered_and_its_writes_follow_the_seed(self):
        import numpy as np

        one, other = (WORKLOADS["ingest_churn"](seed, "unused") for seed in (2018, 7))
        for workload in (one, other):
            workload.generate()
        self.assertEqual(
            [op.template for op in one.pass_ops(3)],
            ["replace_orders", "sum_totalprice", "q3_after_write", "Q10", "Q6", "q3_again"],
        )
        again = WORKLOADS["ingest_churn"](2018, "unused")
        again.generate()
        np.testing.assert_array_equal(one._totalprice(3), again._totalprice(3))
        self.assertFalse(np.array_equal(one._totalprice(3), one._totalprice(4)))

    def test_adhoc_text_never_repeats(self):
        workload = WORKLOADS["bi_adhoc"](2018, "unused")
        texts = [op.sql for k in range(130) for op in workload.pass_ops(k)]
        texts += [op.sql for op in workload.cold_ops()]
        self.assertGreaterEqual(len(texts), 600)
        self.assertEqual(len(texts), len(set(texts)))

    def test_due_times_follow_the_seed(self):
        self.assertEqual(due_offsets(2018, 100.0, 50), due_offsets(2018, 100.0, 50))
        self.assertNotEqual(due_offsets(2018, 100.0, 50), due_offsets(7, 100.0, 50))
        offsets = due_offsets(2018, 100.0, 2000)
        self.assertEqual(offsets, sorted(offsets))
        self.assertAlmostEqual(offsets[-1] / 2000, 0.01, delta=0.001)  # mean gap 1/rate


class FakeTime:
    """A clock that only moves when the loop sleeps or an op takes time."""

    def __init__(self):
        self.now = 0.0

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class OpenLoopTest(unittest.TestCase):
    def test_a_stall_is_charged_to_the_later_due_requests(self):
        time = FakeTime()
        ops = [Op(template="t", key=(i,)) for i in range(10)]
        offsets = [0.010 * i for i in range(10)]  # due every 10 ms
        service = {3: 0.200}  # the fourth op stalls for 200 ms

        def send(op, connection):
            start = time.clock()
            time.sleep(service.get(op.key[0], 0.001))
            return Record(op, start, time.clock())

        records = run_open_loop(ops, offsets, send, connections=1,
                                clock=time.clock, sleep=time.sleep)
        latency_ms = [round(r.latency * 1e3, 3) for r in records]
        # on time before the stall, the stalled op itself, then the backlog
        # drains: each later op waited for the stall, less the 9 ms per op
        # by which a 1 ms service beats a 10 ms gap
        self.assertEqual(latency_ms[:3], [1.0, 1.0, 1.0])
        self.assertEqual(latency_ms[3], 200.0)
        self.assertEqual(latency_ms[4:], [191.0, 182.0, 173.0, 164.0, 155.0, 146.0])
        # timed from the call instead, the same ops would all look fast
        self.assertTrue(all(r.end - r.start < 0.0011 for r in records[4:]))
        # the connection was busy, not the generator late
        self.assertTrue(all(r.lateness < 1e-9 for r in records))

    def test_a_slow_generator_shows_as_lateness(self):
        time = FakeTime()
        ops = [Op(template="t", key=(i,)) for i in range(3)]

        def oversleep(seconds: float) -> None:
            time.sleep(seconds + 0.007)  # the timer fires 7 ms late

        def send(op, connection):
            start = time.clock()
            time.sleep(0.001)
            return Record(op, start, time.clock())

        records = run_open_loop(ops, [0.1, 0.2, 0.3], send, connections=1,
                                clock=time.clock, sleep=oversleep)
        for record in records:
            self.assertAlmostEqual(record.lateness, 0.007)
            self.assertAlmostEqual(record.latency, 0.008)


if __name__ == "__main__":
    unittest.main()
