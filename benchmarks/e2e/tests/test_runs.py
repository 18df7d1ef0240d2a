"""Whole runs: the injected slowdown is caught, a hang is cut short, children are always reaped."""

import os
import signal
import subprocess
import sys
import tempfile
import time
import unittest

import numpy as np

from benchmarks.e2e import compare, env, oracle, runner
from benchmarks.e2e.schedule import Op
from benchmarks.e2e.tests import scratch
from benchmarks.e2e.workloads.base import Workload

ENTRY = os.path.join(env.ROOT, "benchmarks", "e2e", "run.py")


class Sleeper(Workload):
    """Ops that sleep: the run protocol end to end, immune to how fast the host is."""

    name = "sleeper"
    costs = {"a": 0.002, "b": 0.004, "c": 0.008}

    def generate(self):
        pass

    def cold_ops(self):
        return [Op(template=t, key=(t,), sql=t) for t in self.costs]

    def pass_ops(self, index):
        return self.cold_ops()

    def setup(self):
        pass

    def run_op(self, op, connection=0):
        time.sleep(self.costs[op.template])
        return op.template

    def observe(self, op, result):
        return oracle.array_fingerprint(answer=np.array([len(result)])), {}

    def compute_reference(self, op):
        return oracle.array_fingerprint(answer=np.array([1]))


def _document(name, slowdown=None):
    detail = runner.run_untraced(Sleeper(1, "unused"), seconds=1.0, reps=3, slowdown=slowdown)
    assert detail["failed"] == 0 and detail["attempted"] > 50, detail["failures"]
    return {"quick": False, "workloads": {name: {"end_to_end": detail["end_to_end"]}}}


class InjectedSlowdownTest(unittest.TestCase):
    def test_compare_reports_regressed_on_exactly_that_workloads_geomean(self):
        # the injection names a template of the first workload only
        base = {"hit": _document("hit"), "spared": _document("spared")}
        new = {"hit": _document("hit", slowdown="b"), "spared": _document("spared")}
        rows = {
            (row["workload"], row["metric"]): row
            for name in base for row in compare.compare([base[name]], [new[name]])
        }
        hit = rows["hit", "geomean_ms"]
        self.assertEqual(hit["verdict"], compare.REGRESSED)
        # one of three templates made 10x slower: the geomean moves by 10^(1/3)
        self.assertAlmostEqual(hit["worse_by"], 10 ** (1 / 3) - 1, delta=0.15)
        self.assertEqual(rows["spared", "geomean_ms"]["verdict"], compare.WITHIN)
        self.assertLess(abs(rows["spared", "geomean_ms"]["worse_by"]), 0.05)


class Hanger(Sleeper):
    """Hangs in its ``hang_at``-th op; its oracle is slow, as a real one is."""

    hang_at = 0

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.calls = 0

    def run_op(self, op, connection=0):
        self.calls += 1
        if self.calls == self.hang_at:
            time.sleep(60)
        return super().run_op(op, connection)

    def compute_reference(self, op):
        time.sleep(0.2)
        return super().compute_reference(op)


class HardTimeoutTest(unittest.TestCase):
    # before the window: 2 cold passes and 4 warm-up passes of 3 ops each
    BEFORE_WINDOW = (2 + runner.WARMUP_PASSES) * 3

    def test_a_hang_in_the_window_fails_the_rest_of_its_pass_and_the_run_reports(self):
        workload = Hanger(1, "unused")
        workload.hang_at = self.BEFORE_WINDOW + 10  # first op of the window's fourth pass
        started = time.monotonic()
        with runner.watchdog(0.6):
            detail = runner.run_untraced(workload, seconds=30.0, reps=3, slowdown=None)
        self.assertLess(time.monotonic() - started, 5.0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIn("hard timeout", detail["cut_short"])
        # the op in flight and the two behind it; the slow oracle was not interrupted
        self.assertEqual(detail["failed"], 3)
        self.assertEqual(sorted(f["why"].split(":")[0] for f in detail["failures"]),
                         ["not run", "not run", "timed out"])
        self.assertEqual(detail["window"]["ops"], 10)  # the two never sent are no samples
        # the hung op is one, timed from when it was sent to when the alarm rang
        self.assertGreater(max(end - start for _, _, start, end in detail["timed_ops"]), 0.3)
        self.assertEqual(detail["attempted"], self.BEFORE_WINDOW + 12)
        self.assertAlmostEqual(detail["end_to_end"]["failed_ratio"], 3 / detail["attempted"])
        # no trailing set-up after the cut
        self.assertEqual(len(detail["setup_reps_s"]), 2)

    def test_a_hang_before_the_window_ends_the_run_with_an_error_not_a_hang(self):
        workload = Hanger(1, "unused")
        workload.hang_at = 2
        with runner.watchdog(0.3):
            with self.assertRaisesRegex(RuntimeError, "before the timed window"):
                runner.run_untraced(workload, seconds=30.0, reps=3, slowdown=None)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


def _processes_mentioning(text: str):
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                if text.encode() in handle.read():
                    found.append(int(entry))
        except OSError:
            continue
    return found


class ProcessHygieneTest(unittest.TestCase):
    def test_served_engine_is_reaped_when_the_run_is_interrupted(self):
        with tempfile.TemporaryDirectory(dir=scratch()) as out:
            harness = subprocess.Popen(
                [sys.executable, ENTRY, "--workload", "serve_mix", "--seed", "2018",
                 "--seconds", "30", "--trace", "0", "--out", out],
                cwd=env.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            try:
                # wait for the server subprocess (its --load path is under out)
                deadline = time.monotonic() + 60
                while not [p for p in _processes_mentioning(out) if p != harness.pid]:
                    self.assertIsNone(harness.poll(), "harness exited before serving")
                    self.assertLess(time.monotonic(), deadline, "server never started")
                    time.sleep(0.1)
                harness.send_signal(signal.SIGINT)
                stdout, _ = harness.communicate(timeout=60)
            finally:
                if harness.poll() is None:
                    harness.kill()
                    harness.wait()
            self.assertNotEqual(harness.returncode, 0)
            self.assertNotIn('"correct"', stdout)  # an interrupted run prints no result
            self.assertEqual(_processes_mentioning(out), [])

    def test_a_quick_run_leaves_no_children_and_verifies_every_op(self):
        with tempfile.TemporaryDirectory(dir=scratch()) as out:
            detail = runner.run("bi_adhoc", seed=7, seconds=10, trace=False, out_dir=out,
                                quick=True)
        self.assertEqual(detail["leftover_children"], [])
        self.assertEqual(detail["failed"], 0)
        self.assertTrue(detail["quick"])
        self.assertGreater(detail["attempted"], 25)


if __name__ == "__main__":
    unittest.main()
