"""Percentile, geometric-mean and quartile arithmetic used by every report."""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, Sequence, Tuple

import numpy as np

#: a percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def timed_median(call: Callable[[], object], repeats: int) -> float:
    """Median wall seconds of ``repeats`` calls of ``call``."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``p``-th percentile."""
    return n - math.ceil(n * p / 100.0)


def supports_percentile(n: int, p: float) -> bool:
    """The "at least ten samples beyond" rule: p95 needs n >= 200."""
    return samples_beyond(n, p) >= MIN_SAMPLES_BEYOND


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; every value must be positive."""
    if not values:
        raise ValueError("geomean of no samples")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    One sample is its own three quartiles: a spread cannot be read off
    a single run and ``compare`` says so instead of inventing one.
    """
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
