"""A versioned LRU cache of plan skeletons, one per query shape.

LevelHeaded's compile pipeline (parse → bind → translate → GHD → cost
-ordered WCOJ plan, Sections III-IV) is pure given three inputs: the
SQL text, the engine configuration, and the catalog's key-domain
dictionaries.  Of that work only the selections depend on a query's
constants.  The :class:`PlanCache` is therefore one LRU of
``capacity`` :class:`~repro.xcution.plan.PlanSkeleton` entries, keyed
on the **shape** -- the statement with its selection constants lifted
into parameters (:func:`~repro.sql.params.lift`) -- each parameter's
type hint, and the config fingerprint.  Every call, an exact repeat or
a fresh literal, resolves to that key and binds its values to the
skeleton; the skeleton's per-relation binding memos make a repeated
value cost no predicate evaluation and no trie build.  Only a miss
compiles.

Catalog state is handled by *validation* rather than keying: each
skeleton snapshots the ``domain_version`` of every key domain it
encodes, and a lookup of a stale one drops it (with its binding memos)
and counts an **invalidation**; the caller recompiles.

Skeletons are also validated against *their own estimates*: every entry
carries a :class:`~repro.optimizer.feedback.PlanFeedback` record fed by
the engine after each execution of any of its bindings.  When the
observed q-error exceeds the threshold for ``drift_runs`` consecutive
runs the entry is marked drifted.  A drifted entry stays cached, and
every lookup of it counts as a **reoptimization** until a skeleton
rebuilt with its observed cardinalities (:meth:`corrections`) replaces
it; the replacement inherits the record's
:meth:`~repro.optimizer.feedback.PlanFeedback.successor`.  A rebuild
that fails (a deadline firing in a trie build, say) leaves the entry
drifted, so the next call tries again.

Hits, misses, invalidations, reoptimizations, capacity evictions and
memory-pressure sheds are counted separately -- conflating sheds with
evictions (or counting one rejection twice) corrupts the very signals
the feedback loop reads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..optimizer.feedback import (
    DRIFT_CONSECUTIVE_RUNS,
    Q_ERROR_DRIFT_THRESHOLD,
    PlanFeedback,
    QueryFeedback,
)
from ..xcution.plan import PlanSkeleton

#: lookup outcomes
HIT = "hit"
MISS = "miss"
INVALIDATED = "invalidated"
REOPTIMIZED = "reoptimized"


@dataclass
class PlanCacheStats:
    """Cumulative counters of one cache's lifetime."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    #: entries dropped by the capacity LRU policy (``store`` overflow).
    evictions: int = 0
    #: entries dropped by memory-pressure shedding (``shed_lru``) --
    #: deliberately separate from ``evictions``: shedding is a
    #: governance decision, not a working-set signal.
    shed: int = 0
    #: lookups of a drifted entry (each asks for a corrected rebuild).
    reoptimizations: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "shed": self.shed,
            "reoptimizations": self.reoptimizations,
        }

    def describe(self) -> str:
        return (
            f"plan cache: hits={self.hits}, misses={self.misses}, "
            f"invalidations={self.invalidations}, evictions={self.evictions}, "
            f"shed={self.shed}, reoptimizations={self.reoptimizations}"
        )


@dataclass
class _Entry:
    """One cached skeleton plus the drift record scoring its estimates."""

    skeleton: PlanSkeleton
    feedback: PlanFeedback
    #: the first text that compiled the skeleton (introspection only).
    sql: Optional[str] = None
    #: lookup hits served by this entry (per-entry, unlike the cache's
    #: cumulative ``stats.hits``; the ``/debug/plans`` view shows both).
    hits: int = 0


@dataclass
class PlanCache:
    """An LRU mapping of (shape, parameter types, config) keys to skeletons."""

    capacity: int = 64
    stats: PlanCacheStats = field(default_factory=PlanCacheStats)
    #: drift rule: q_error_max > threshold for drift_runs consecutive
    #: executions marks the entry for re-optimization.
    q_error_threshold: float = Q_ERROR_DRIFT_THRESHOLD
    drift_runs: int = DRIFT_CONSECUTIVE_RUNS

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self._skeletons: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        # one engine's cache is shared by every serving thread; the LRU
        # reorder + counter pairs below must be atomic under concurrency
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._skeletons)

    def lookup(self, key: Tuple, catalog) -> Tuple[Optional[PlanSkeleton], str]:
        """Return ``(skeleton, outcome)``: hit/miss/invalidated/reoptimized.

        A skeleton whose domain versions no longer match ``catalog`` is
        dropped (its tries hold codes from superseded dictionaries) and
        the lookup reports ``invalidated``.  A drifted entry stays
        cached and reports ``reoptimized`` with no skeleton -- the
        caller rebuilds with :meth:`corrections` and :meth:`store`
        puts the result over it.
        """
        with self._lock:
            entry = self._skeletons.get(key)
            if entry is None:
                self.stats.misses += 1
                return None, MISS
            if not entry.skeleton.is_current(catalog):
                del self._skeletons[key]
                self.stats.invalidations += 1
                return None, INVALIDATED
            self._skeletons.move_to_end(key)
            if entry.feedback.drifted:
                self.stats.reoptimizations += 1
                return None, REOPTIMIZED
            self.stats.hits += 1
            entry.hits += 1
            return entry.skeleton, HIT

    def peek(self, key: Tuple, catalog) -> bool:
        """Whether ``key`` would hit, without touching counters or LRU order.

        Admission control uses this to classify a query as plan-cached
        *before* deciding whether to admit it (load shedding rejects
        non-cached work first); the real ``lookup`` still happens after
        admission and owns the hit/miss accounting.  A drifted entry
        does not count as cached: its lookup triggers a recompile.
        """
        with self._lock:
            entry = self._skeletons.get(key)
            return (
                entry is not None
                and entry.skeleton.is_current(catalog)
                and not entry.feedback.drifted
            )

    def corrections(self, key: Tuple) -> Dict[str, int]:
        """Observed per-node actuals of ``key``'s entry (empty if none)."""
        with self._lock:
            entry = self._skeletons.get(key)
            return entry.feedback.corrections() if entry is not None else {}

    def record_feedback(self, key: Tuple, measured: QueryFeedback) -> bool:
        """Fold one execution's q-error measurement into ``key``'s entry.

        Returns True when the measurement *newly* marked the entry as
        drifted (the engine counts those as ``plans_drifted``).
        """
        with self._lock:
            entry = self._skeletons.get(key)
            if entry is None:
                return False
            return entry.feedback.record(measured)

    def debug_snapshot(self) -> List[Dict[str, object]]:
        """Per-entry cache state for live introspection (``/debug/plans``).

        One dict per cached skeleton, LRU order (least recently used
        first): the first text that compiled it, plan mode, per-entry
        hit count, and the feedback drift record.  Built entirely under
        the cache lock from immutable values, so concurrent lookups
        never tear it.
        """
        with self._lock:
            return [
                {
                    "sql": entry.sql,
                    "mode": entry.skeleton.mode,
                    "hits": entry.hits,
                    "feedback": entry.feedback.as_dict(),
                }
                for entry in self._skeletons.values()
            ]

    def feedback_snapshot(self) -> List[Dict[str, object]]:
        """Per-entry feedback summaries (the CLI's ``\\feedback`` view)."""
        with self._lock:
            return [
                dict(entry.feedback.as_dict(), sql=entry.sql)
                for entry in self._skeletons.values()
            ]

    def shed_lru(self, fraction: float = 0.5, keep: int = 1) -> int:
        """Drop the least-recently-used ``fraction`` of entries.

        The governor's memory-pressure signal calls this to give cached
        plan state (tries, annotation buffers, binding memos) back
        before queries start failing admission.  Shed entries are
        counted in ``stats.shed`` (not ``evictions``: this is load
        shedding, not capacity pressure).  Returns the number dropped.
        """
        with self._lock:
            n_drop = min(
                max(0, len(self._skeletons) - max(0, keep)),
                int(len(self._skeletons) * fraction),
            )
            for _ in range(n_drop):
                self._skeletons.popitem(last=False)
            self.stats.shed += n_drop
            return n_drop

    def store(self, key: Tuple, skeleton: PlanSkeleton, sql: Optional[str] = None) -> None:
        """Insert ``skeleton``, evicting the least recently used beyond capacity.

        A store over a drifted entry is its corrected rebuild: it
        inherits the accumulated observations (via
        :meth:`~repro.optimizer.feedback.PlanFeedback.successor`) so
        the corrected skeleton keeps being scored; any other store
        starts a fresh feedback record under the cache's drift rule.
        """
        with self._lock:
            old = self._skeletons.get(key)
            feedback = (
                old.feedback.successor()
                if old is not None and old.feedback.drifted
                else PlanFeedback(
                    threshold=self.q_error_threshold, drift_runs=self.drift_runs
                )
            )
            self._skeletons[key] = _Entry(skeleton, feedback, sql)
            self._skeletons.move_to_end(key)
            while len(self._skeletons) > self.capacity:
                self._skeletons.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._skeletons.clear()

    def __repr__(self) -> str:
        return (
            f"PlanCache(size={len(self._skeletons)}/{self.capacity}, "
            f"{self.stats.describe()})"
        )
