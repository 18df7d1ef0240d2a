"""``BENCHMARK.json`` keeps the shape its contract fixes and names only workloads that exist."""

import re
import unittest

from benchmarks.e2e import metrics
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkJsonTest(unittest.TestCase):
    document = metrics._DOCUMENT

    def test_keys_paths_and_command(self):
        self.assertEqual(
            sorted(self.document),
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
        )
        self.assertEqual(self.document["paths"], ["benchmarks/e2e"])
        self.assertEqual(self.document["command"], ["python3", "benchmarks/e2e/run.py"])

    def test_every_listed_workload_is_implemented(self):
        self.assertEqual(list(metrics.WORKLOAD_NAMES), list(WORKLOADS))
        for entry in self.document["workloads"]:
            self.assertEqual(sorted(entry), ["name", "why"])
            self.assertLessEqual(len(entry["why"]), 200)
            self.assertNotIn("\n", entry["why"])

    def test_entries_hold_exactly_the_keys_the_contract_shows(self):
        for metric in self.document["end_to_end"]:
            self.assertEqual(sorted(metric), ["better", "bound", "name", "unit"])
        for metric in self.document["per_layer"]:
            self.assertEqual(sorted(metric), ["better", "name", "unit"])
        self.assertLessEqual(len(self.document["per_layer"]), 128)
        bounds = {m["name"]: m["bound"] for m in self.document["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))  # no bound is larger
        self.assertLessEqual(max(bounds.values()), 0.25)
        # a metric that is 0 on good runs has no place in the file
        self.assertNotIn(metrics.FAILED_RATIO, bounds)

    def test_names_and_units_are_well_formed_and_unique(self):
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in self.document[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for key in ("end_to_end", "per_layer"):
            for metric in self.document[key]:
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("lower", "higher"))


if __name__ == "__main__":
    unittest.main()
