"""Process-wide serving metrics (``repro.obs``).

A :class:`MetricsRegistry` hangs off each engine and accumulates
cumulative counters and latency histograms across every query the
engine serves: queries served, plan-cache hit rates, p50/p95 compile
and execute times, groups emitted, bytes materialized.  Every outcome
counter is read off the query's flight-recorder entry
(:meth:`MetricsRegistry.record_query`).  Counters are
guarded by a lock so background threads (the bench harness, a serving
loop) can record concurrently.

The histograms keep a bounded sample reservoir plus exact count / sum /
min / max, so percentiles stay cheap and memory stays O(1) under heavy
traffic.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

#: bounded per-histogram sample buffer (ring of the most recent values).
_MAX_SAMPLES = 4096

#: fixed bucket boundaries (seconds) for the wire-facing latency
#: histograms.  Buckets are exact and cumulative, so operators can
#: compute arbitrary quantiles server-side from the ``_bucket`` series
#: -- unlike the reservoir quantiles, which approximate once wrapped.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: registry metric names that carry fixed buckets (everything else
#: stays a summary-style reservoir histogram).
BUCKET_BOUNDS: Dict[str, Tuple[float, ...]] = {
    "execute_seconds": DEFAULT_LATENCY_BUCKETS,
    "admission_wait_seconds": DEFAULT_LATENCY_BUCKETS,
}


#: the counter each kill outcome of a flight entry increments.
KILL_COUNTERS: Dict[str, str] = {
    "timeout": "query_timeouts",
    "cancelled": "query_cancellations",
    "oom": "query_oom",
}


def _bucket_label(bound: float) -> str:
    return format(bound, ".10g")


class Histogram:
    """Latency/size distribution: exact moments + recent-sample quantiles."""

    __slots__ = ("count", "total", "min", "max", "bounds", "_bucket_counts",
                 "_samples", "_next")

    def __init__(self, bounds: Optional[Sequence[float]] = None):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: fixed, sorted upper bounds; None for reservoir-only histograms.
        self.bounds: Optional[Tuple[float, ...]] = (
            tuple(sorted(bounds)) if bounds else None
        )
        self._bucket_counts: Optional[List[int]] = (
            [0] * (len(self.bounds) + 1) if self.bounds else None
        )
        self._samples: List[float] = []
        self._next = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if self._bucket_counts is not None:
            # le semantics: value lands in the first bucket whose upper
            # bound is >= value (the overflow slot catches the rest)
            self._bucket_counts[bisect_left(self.bounds, value)] += 1
        if len(self._samples) < _MAX_SAMPLES:
            self._samples.append(value)
        else:
            self._samples[self._next] = value
            self._next = (self._next + 1) % _MAX_SAMPLES

    def buckets(self) -> Optional[List[Tuple[str, int]]]:
        """Cumulative ``(le_label, count)`` pairs ending at ``+Inf``.

        None for histograms constructed without bounds.  Labels are
        pre-formatted strings (``"0.005"`` ... ``"+Inf"``) so exporters
        and JSON snapshots agree byte for byte.
        """
        if self._bucket_counts is None:
            return None
        out: List[Tuple[str, int]] = []
        acc = 0
        for bound, count in zip(self.bounds, self._bucket_counts):
            acc += count
            out.append((_bucket_label(bound), acc))
        out.append(("+Inf", acc + self._bucket_counts[-1]))
        return out

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) over the reservoir."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    @property
    def samples(self) -> int:
        """Values currently held in the reservoir (<= ``count``).

        Once ``count`` exceeds the reservoir capacity the ring has
        wrapped: percentiles are computed over the most recent
        ``samples`` observations only and exporters should mark them as
        approximate.
        """
        return len(self._samples)

    def as_dict(self) -> Dict[str, float]:
        out = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            # reservoir size: when count > samples the ring wrapped and
            # the quantiles above are approximate (recent window only).
            "samples": self.samples,
        }
        buckets = self.buckets()
        if buckets is not None:
            out["buckets"] = [[label, count] for label, count in buckets]
        return out


class MetricsRegistry:
    """Named cumulative counters and histograms, thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, float] = {}

    # -- recording ----------------------------------------------------------

    def inc(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._bump(name, by)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a point-in-time gauge (active connections, queue depth...)."""
        with self._lock:
            self._gauges[name] = value

    def inc_gauge(self, name: str, by: float = 1) -> None:
        """Adjust a gauge by ``by`` (negative to decrement)."""
        with self._lock:
            self._gauges[name] = self._gauges.get(name, 0) + by

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self._sample(name, value)

    def record_query(self, entry: Dict[str, object]) -> None:
        """Count one finished query off its flight-recorder entry.

        The engine calls this once per query with the entry it has just
        recorded, so every outcome counter is a function of that one
        record (one lock acquisition for all of them):

        * ``ok``: ``queries_served``, the execute and compile
          histograms, ``plan_cache_<cache_outcome>``, rows, bytes and
          groups;
        * a kill (``timeout``, ``cancelled``, ``oom``): its
          :data:`KILL_COUNTERS` counter, wherever the kill struck;
        * ``rejected``: ``admission_rejected`` plus
          ``admission_rejected_<cause>``;
        * any other entry with an admission ``cause`` ran degraded to
          approximate instead of being rejected: ``degraded_to_approx``
          (never on a ``rejected`` entry, whose rejection stood).
        """
        outcome = entry["outcome"]
        cause = entry["cause"]
        with self._lock:
            if outcome == "ok":
                self._bump("queries_served")
                self._sample("execute_seconds", entry["execute_ms"] / 1000)
                if entry["compile_ms"] is not None:
                    self._sample("compile_seconds", entry["compile_ms"] / 1000)
                if entry["cache_outcome"] is not None:
                    self._bump(f"plan_cache_{entry['cache_outcome']}")
                self._bump("rows_emitted", entry["rows"])
                self._bump("bytes_materialized", entry["bytes_out"])
                self._bump("groups_emitted", entry["groups"])
            elif outcome == "rejected":
                # one rejection, one total increment; the cause label
                # splits the total without double-counting any query
                self._bump("admission_rejected")
                if cause:
                    self._bump(f"admission_rejected_{cause}")
            elif outcome in KILL_COUNTERS:
                self._bump(KILL_COUNTERS[outcome])
            if cause and outcome != "rejected":
                self._bump("degraded_to_approx")

    def _bump(self, name: str, by: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + by

    def _sample(self, name: str, value: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                bounds=BUCKET_BOUNDS.get(name)
            )
        histogram.observe(value)

    # -- reading ------------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0)

    def histogram(self, name: str) -> Optional[Histogram]:
        with self._lock:
            return self._histograms.get(name)

    @property
    def cache_hit_rate(self) -> float:
        """Plan-cache hits over hit+miss lookups (0.0 before any lookup)."""
        with self._lock:
            hits = self._counters.get("plan_cache_hit", 0)
            misses = self._counters.get("plan_cache_miss", 0)
        total = hits + misses
        return hits / total if total else 0.0

    def as_dict(self) -> Dict:
        """Everything, JSON-ready: counters, histograms, derived rates.

        The whole snapshot is taken under one lock acquisition and the
        derived cache hit rate is computed from *that* snapshot's
        counters, so the rate always agrees with the counters it is
        reported next to (re-reading live counters could observe a
        concurrent increment in between).
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {
                name: histogram.as_dict()
                for name, histogram in self._histograms.items()
            }
        hits = counters.get("plan_cache_hit", 0)
        misses = counters.get("plan_cache_miss", 0)
        total = hits + misses
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "cache_hit_rate": hits / total if total else 0.0,
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition of this registry.

        Delegates to :func:`repro.obs.export.to_prometheus`; exposed
        here so serving code can scrape ``engine.metrics`` directly.
        """
        from .export import to_prometheus

        return to_prometheus(self)

    def describe(self) -> str:
        """A printable multi-line summary (the CLI's ``\\metrics``)."""
        snap = self.as_dict()
        lines = ["metrics:"]
        for name in sorted(snap["counters"]):
            lines.append(f"  {name}: {snap['counters'][name]}")
        for name in sorted(snap["gauges"]):
            lines.append(f"  {name}: {snap['gauges'][name]:g} (gauge)")
        lines.append(f"  cache_hit_rate: {snap['cache_hit_rate']:.3f}")
        for name in sorted(snap["histograms"]):
            h = snap["histograms"][name]
            lines.append(
                f"  {name}: n={h['count']} mean={h['mean'] * 1000:.3f}ms "
                f"p50={h['p50'] * 1000:.3f}ms p95={h['p95'] * 1000:.3f}ms "
                f"max={h['max'] * 1000:.3f}ms"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
            self._gauges.clear()
