"""Execution statistics: what the executors actually did.

Wall-clock comparisons are noisy and substrate-dependent; these
counters let tests and EXPLAIN ANALYZE make *structural* claims --
"the relaxed order binds fewer prefixes", "the bad order intersects
100x more elements" -- that hold deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: float-valued fields merged by ``max`` rather than summed: a q-error
#: is a per-execution worst case, not an accumulating count.
_MAX_FIELDS = ("q_error_max", "q_error_root")

#: identity (non-counter) fields: excluded from the numeric dict views
#: (``as_dict``/``delta_since``/``describe``), which must stay
#: byte-identical between two runs of the same query -- they share
#: counters but never a query_id.
_STR_FIELDS = ("query_id",)


@dataclass
class ExecutionStats:
    """Counters accumulated across every node of one plan execution."""

    #: correlation id of the query these stats belong to (stamped by the
    #: engine at admission; empty for stats built outside a query run).
    query_id: str = ""
    nodes_executed: int = 0
    #: pairwise set intersections of Algorithm 1 (Table I's bottleneck
    #: op): one per participant beyond the first, per key prefix that
    #: reaches an attribute -- batched, but counted per prefix.
    intersections: int = 0
    #: total elements produced by intersections (the work icost models).
    intersection_output: int = 0
    #: frontier rows a further walk step extends: rows bound at a
    #: non-final attribute, plus rows at the final one when a group
    #: annotation is fetched there (the Fig. 5b order-quality measure).
    loop_values: int = 0
    #: group-annotation fetch requests issued during the walk, one per
    #: frontier row at the fetcher's attribute.
    fetches: int = 0
    #: output groups produced.
    groups_emitted: int = 0
    #: cooperative cancellation polls issued by the executor (one per
    #: frontier step of a generic-join node).  Window boundaries depend
    #: only on the data, so the total is deterministic -- the governance
    #: tests assert exactly that.
    cancel_checks: int = 0
    #: always 0 (no binary join executor); kept because the benchmark
    #: harness (``benchmarks/e2e/layers.py``) reads it by name.
    binary_rows: int = 0
    #: aggregator degradations: live group batches reduced into one
    #: lean columnar run under memory-budget pressure.  The aggregator
    #: sees the same batches on every run, so this count is
    #: deterministic like the ones above.
    aggregator_spills: int = 0
    #: plan-cache hits for the query these stats belong to (0 or 1 per
    #: query; cumulative across merges).
    plan_cache_hits: int = 0
    #: plan-cache misses (a fresh compile happened).
    plan_cache_misses: int = 0
    #: cached plans dropped because a catalog domain version bumped.
    plan_cache_invalidations: int = 0
    #: cached plans dropped because their observed q-error drifted past
    #: the threshold (a feedback-corrected recompile happened).
    plan_reoptimizations: int = 0
    #: worst per-node q-error of this execution (``max(est/act,
    #: act/est)`` over the plan's join nodes; 0.0 until measured).
    #: Derived from ``node_rows``, which is recorded once per node, so
    #: both q-error fields are deterministic like the counters above.
    q_error_max: float = 0.0
    #: the root node's q-error (the estimate the output cardinality
    #: actually depended on).
    q_error_root: float = 0.0
    #: groups each plan node emitted, keyed by ``NodePlan.node_key``
    #: (the feedback loop's actuals).
    node_rows: Dict[str, int] = field(default_factory=dict)

    def note_node_rows(self, node_key: str, rows: int) -> None:
        """Record one plan node's emitted group count (coordinator-side)."""
        if node_key:
            self.node_rows[node_key] = self.node_rows.get(node_key, 0) + int(rows)

    def merge(self, other: "ExecutionStats") -> None:
        for name in self.__dataclass_fields__:
            mine, theirs = getattr(self, name), getattr(other, name)
            if name in _STR_FIELDS:
                setattr(self, name, mine or theirs)
            elif isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            elif name in _MAX_FIELDS:
                setattr(self, name, max(mine, theirs))
            else:
                setattr(self, name, mine + theirs)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for name in self.__dataclass_fields__:
            if name in _STR_FIELDS:
                continue
            value = getattr(self, name)
            out[name] = dict(value) if isinstance(value, dict) else value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExecutionStats":
        """Rebuild stats from an :meth:`as_dict` payload (wire transport).

        Unknown keys from a newer peer are ignored; missing keys keep
        their zero defaults, so ``from_dict(s.as_dict()).as_dict() ==
        s.as_dict()`` holds across protocol versions.
        """
        stats = cls()
        for name in cls.__dataclass_fields__:
            if name in _STR_FIELDS or name not in data:
                continue
            value = data[name]
            if name == "node_rows":
                stats.node_rows = {str(k): int(v) for k, v in dict(value).items()}
            elif name in _MAX_FIELDS:
                setattr(stats, name, float(value))
            else:
                setattr(stats, name, int(value))
        return stats

    def snapshot(self) -> Dict[str, object]:
        """Current counter values (for :meth:`delta_since` span scoping)."""
        return self.as_dict()

    def delta_since(self, snapshot: Dict[str, object]) -> Dict[str, object]:
        """Counter increments since ``snapshot`` (tracer span payloads)."""
        out: Dict[str, object] = {}
        for name in self.__dataclass_fields__:
            if name in _STR_FIELDS:
                continue
            value = getattr(self, name)
            if isinstance(value, dict):
                prev = snapshot.get(name) or {}
                out[name] = {
                    key: count - prev.get(key, 0)
                    for key, count in value.items()
                    if count != prev.get(key, 0)
                }
            else:
                out[name] = value - snapshot.get(name, 0)
        return out

    def describe(self) -> str:
        parts = []
        for name, value in self.as_dict().items():
            if isinstance(value, dict):
                if value:
                    rendered = ",".join(f"{k}:{v}" for k, v in sorted(value.items()))
                    parts.append(f"{name}={{{rendered}}}")
                continue
            if isinstance(value, float):
                parts.append(f"{name}={value:g}")
            else:
                parts.append(f"{name}={value}")
        return "stats: " + ", ".join(parts)
