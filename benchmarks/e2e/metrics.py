"""The metric registry, read from ``BENCHMARK.json``: names, units, directions, bounds.

``BENCHMARK.json`` at the checkout root is the one place the workloads
and metrics are listed; the README holds the glossary and, for each
per-layer metric, the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from . import env

with open(os.path.join(env.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    _DOCUMENT = json.load(_handle)

WORKLOAD_NAMES: Tuple[str, ...] = tuple(w["name"] for w in _DOCUMENT["workloads"])
RUN_SECONDS: int = _DOCUMENT["run_seconds"]

#: ops that raised, were refused, timed out or answered wrongly / ops
#: attempted.  It is 0 on every good run, and ``BENCHMARK.json`` may list
#: only metrics that are never 0 (a share of a zero median is undefined):
#: the result line carries it as ``failed`` / ``attempted``, and ``run`` and
#: ``compare`` treat it as the eighth end-to-end metric, with an absolute
#: bound -- any value above 0 is a regression.
FAILED_RATIO = "failed_ratio"

#: what the result line of an untraced / traced run reports: name -> unit.
END_TO_END_UNITS: Dict[str, str] = {m["name"]: m["unit"] for m in _DOCUMENT["end_to_end"]}
PER_LAYER_UNITS: Dict[str, str] = {m["name"]: m["unit"] for m in _DOCUMENT["per_layer"]}

#: what ``compare`` judges, in row order.  A bound is the share of the base
#: median by which the metric may worsen before a change counts as a
#: regression (``FAILED_RATIO``: the largest value allowed).
COMPARED: List[str] = list(END_TO_END_UNITS) + [FAILED_RATIO]
BOUNDS: Dict[str, float] = {m["name"]: m["bound"] for m in _DOCUMENT["end_to_end"]}
BOUNDS[FAILED_RATIO] = 0.0
BETTER: Dict[str, str] = {m["name"]: m["better"] for m in _DOCUMENT["end_to_end"]}
BETTER[FAILED_RATIO] = "lower"


def with_units(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict[str, object]]:
    """The ``metrics`` object of a result line: every registered name, in order."""
    missing = [name for name in units if name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
