"""Measurement protocol and guarded engine runs for the benchmarks.

The paper's protocol (Section VI-A): repeat each measurement seven
times, drop the lowest and highest, report the mean, excluding data
loading and index creation.  Engines that exceed a memory budget report
``oom``; runs past the timeout report ``t/o`` (both appear in
Table II).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import OutOfMemoryBudgetError


@dataclass
class Measurement:
    """One engine's outcome on one workload."""

    label: str  # "ok" | "oom" | "t/o"
    seconds: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.label == "ok"

    def render_relative(self, best_seconds: Optional[float]) -> str:
        """Table II's cell format: relative factor, or the failure tag."""
        if not self.ok:
            return self.label
        if best_seconds is None or best_seconds <= 0:
            return f"{self.seconds * 1000:.2f}ms"
        return f"{self.seconds / best_seconds:.2f}x"


def measure(
    fn: Callable[[], object], repeats: int = 7, warmup: int = 1
) -> float:
    """The paper's timing protocol: n runs, drop min and max, average."""
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    if len(times) >= 3:
        times = sorted(times)[1:-1]
    return sum(times) / len(times)


def run_guarded(
    fn: Callable[[], object],
    repeats: int = 3,
    timeout_seconds: Optional[float] = None,
) -> Measurement:
    """Measure ``fn`` with oom/timeout detection.

    The first (warm-up) run doubles as the timeout probe: when it runs
    past the limit, the workload is reported ``t/o`` without repeating.
    """
    try:
        start = time.perf_counter()
        fn()
        first = time.perf_counter() - start
    except OutOfMemoryBudgetError:
        return Measurement("oom")
    if timeout_seconds is not None and first > timeout_seconds:
        return Measurement("t/o", seconds=first)
    try:
        return Measurement("ok", seconds=measure(fn, repeats=repeats, warmup=0))
    except OutOfMemoryBudgetError:
        return Measurement("oom")


def best_of(measurements: dict) -> Optional[float]:
    """The fastest successful time among a row's engines."""
    times = [m.seconds for m in measurements.values() if m.ok]
    return min(times) if times else None
