"""``compare``: judge a new set of runs against a base set.

One row per workload x end-to-end metric, with each side's median and
quartiles over the runs supplied and a verdict:

* ``within-bound`` -- the new median is no worse than the base median by
  more than the metric's bound;
* ``regressed``    -- it is worse by more than the bound;
* ``unresolved``   -- either side's run-to-run spread (interquartile
  distance over median) is wider than the bound, so the runs cannot say.

``failed_ratio`` has an absolute bound: a failed op in any new run is a
regression, whatever the base did.  Every ratio is printed with its base.  Quick runs are refused next to
full ones: their windows are a tenth as long and measure something else.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from . import metrics, stats

WITHIN, REGRESSED, UNRESOLVED = "within-bound", "regressed", "unresolved"


def load_runs(paths: List[str]) -> List[Dict[str, object]]:
    runs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            runs.append(json.load(handle))
    return runs


def worsening(name: str, base: float, new: float) -> float:
    """By what share of ``base`` the metric got worse (negative: better)."""
    if not base:
        return 0.0
    change = (new - base) / base
    return change if metrics.BETTER[name] == "lower" else -change


def verdict(name: str, base: List[float], new: List[float]) -> Dict[str, object]:
    """Judge one workload x metric from each side's values."""
    bound = metrics.BOUNDS[name]
    base_q, new_q = stats.quartiles(base), stats.quartiles(new)
    widest = max(stats.spread(base), stats.spread(new))
    if name == metrics.FAILED_RATIO:
        # absolute: the worst new run against the bound itself, as a difference
        worse = max(new) - bound
        outcome = REGRESSED if worse > 0 else WITHIN
    else:
        worse = worsening(name, base_q[1], new_q[1])
        if widest > bound:
            outcome = UNRESOLVED
        elif worse > bound:
            outcome = REGRESSED
        else:
            outcome = WITHIN
    return {
        "metric": name, "bound": bound, "base": base_q, "new": new_q,
        "worse_by": worse, "spread": widest, "verdict": outcome,
        "runs": (len(base), len(new)),
    }


def compare(base_runs: List[Dict], new_runs: List[Dict]) -> List[Dict[str, object]]:
    """Rows for every workload both sides ran, in workload then metric order."""
    flags = {bool(run.get("quick")) for run in base_runs + new_runs}
    if len(flags) > 1:
        raise ValueError("quick runs cannot be compared with full runs")
    rows = []
    workloads = [
        name for name in base_runs[0]["workloads"]
        if all(name in run["workloads"] for run in base_runs + new_runs)
    ]
    for workload in workloads:
        for name in metrics.COMPARED:
            sides = [
                [run["workloads"][workload]["end_to_end"][name] for run in runs]
                for runs in (base_runs, new_runs)
            ]
            rows.append({"workload": workload, **verdict(name, *sides)})
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    lines = [
        f"{'workload':<13} {'metric':<17} {'base median [q1, q3]':<34} "
        f"{'new median [q1, q3]':<34} {'spread':>7} {'worse by':>9} {'of base':>11} "
        f"{'bound':>6}  verdict"
    ]
    for row in rows:
        b1, b2, b3 = row["base"]
        n1, n2, n3 = row["new"]
        absolute = row["metric"] == metrics.FAILED_RATIO
        worse = f"{row['worse_by']:+.4f}" if absolute else f"{row['worse_by']:+.1%}"
        bound = f"{row['bound']:g} abs" if absolute else f"{row['bound']:.0%}"
        lines.append(
            f"{row['workload']:<13} {row['metric']:<17} "
            f"{f'{b2:.5g} [{b1:.5g}, {b3:.5g}]':<34} {f'{n2:.5g} [{n1:.5g}, {n3:.5g}]':<34} "
            f"{row['spread']:>7.1%} {worse:>9} {b2:>11.5g} {bound:>6}  {row['verdict']}"
        )
    base_n, new_n = rows[0]["runs"] if rows else (0, 0)
    lines.append(f"runs: {base_n} base, {new_n} new; spread = the wider side's "
                 "(q3 - q1) / median"
                 + ("" if min(base_n, new_n) > 1 else
                    " (one run has no spread: unresolved cannot be detected)"))
    return "\n".join(lines)


def compare_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e compare")
    parser.add_argument("--base", nargs="+", required=True, metavar="RESULT.json",
                        help="result.json files of the base runs")
    parser.add_argument("--new", nargs="+", required=True, metavar="RESULT.json",
                        help="result.json files of the runs to judge")
    args = parser.parse_args(argv)
    try:
        rows = compare(load_runs(args.base), load_runs(args.new))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(row["verdict"] == REGRESSED for row in rows) else 0
