"""A versioned LRU cache of compiled physical plans and plan skeletons.

LevelHeaded's compile pipeline (parse → bind → translate → GHD → cost
-ordered WCOJ plan, Sections III-IV) is pure given three inputs: the
SQL text, the engine configuration, and the catalog's key-domain
dictionaries.  Of that work only the selections depend on a query's
constants.  The :class:`PlanCache` therefore keeps two LRUs, each of
``capacity`` entries:

* **plans**, keyed on the **normalized SQL** (token-level canonical
  form: case and whitespace insensitive), a token of the caller's
  **raw parameter values**, and the **config fingerprint** -- an exact
  repeat hits here without being parsed;
* **skeletons** (:class:`~repro.xcution.plan.PlanSkeleton`), keyed on
  the **shape**: the statement with its selection constants lifted
  into parameters (:func:`~repro.sql.params.lift`), each parameter's
  type hint, and the config fingerprint.  A plan miss binds its
  literals to its shape's skeleton, building only the filtered tries;
  only a skeleton miss compiles.

Catalog state is handled by *validation* rather than keying: each plan
and skeleton snapshots the ``domain_version`` of every key domain it
encodes (:attr:`~repro.xcution.plan.PhysicalPlan.domain_versions`),
and a lookup of a stale one drops it -- for plans this counts as an
**invalidation** and the caller recompiles.

Cached plans are also validated against *their own estimates*: every
entry carries a :class:`~repro.optimizer.feedback.PlanFeedback` record
fed by the engine after each execution.  When the observed q-error
exceeds the threshold for ``drift_runs`` consecutive runs the entry is
marked drifted, and its next lookup counts as a **reoptimization**:
the entry is dropped, its accumulated per-node observations are parked
under the key (:meth:`corrections`), and the caller rebuilds the
shape's skeleton with feedback-corrected cardinalities, replacing the
old one.

Hits, misses, invalidations, reoptimizations, capacity evictions,
memory-pressure sheds, and skeleton hits and misses (compiles) are
counted separately -- conflating sheds with evictions (or counting one
rejection twice) corrupts the very signals the feedback loop reads.
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
from ..xcution.plan import PhysicalPlan, PlanSkeleton

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
    #: drifted entries dropped for a feedback-corrected recompile.
    reoptimizations: int = 0
    #: plan misses served by binding a cached skeleton.
    skeleton_hits: int = 0
    #: skeletons compiled (no current skeleton of the shape, or a
    #: feedback-corrected rebuild).
    skeleton_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "shed": self.shed,
            "reoptimizations": self.reoptimizations,
            "skeleton_hits": self.skeleton_hits,
            "skeleton_misses": self.skeleton_misses,
        }

    def describe(self) -> str:
        return (
            f"plan cache: hits={self.hits}, misses={self.misses}, "
            f"invalidations={self.invalidations}, evictions={self.evictions}, "
            f"shed={self.shed}, reoptimizations={self.reoptimizations}, "
            f"skeleton_hits={self.skeleton_hits}, "
            f"skeleton_misses={self.skeleton_misses}"
        )


@dataclass
class _CacheEntry:
    """One cached plan plus the drift record scoring its estimates."""

    plan: PhysicalPlan
    feedback: PlanFeedback
    #: lookup hits served by this entry (per-entry, unlike the cache's
    #: cumulative ``stats.hits``; the ``/debug/plans`` view shows both).
    hits: int = 0


@dataclass
class PlanCache:
    """LRU mappings of (sql, params, config) keys to physical plans and
    of (shape, parameter types, config) keys to plan skeletons."""

    capacity: int = 64
    stats: PlanCacheStats = field(default_factory=PlanCacheStats)
    #: drift rule: q_error_max > threshold for drift_runs consecutive
    #: executions marks the entry for re-optimization.
    q_error_threshold: float = Q_ERROR_DRIFT_THRESHOLD
    drift_runs: int = DRIFT_CONSECUTIVE_RUNS

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self._entries: "OrderedDict[Tuple, _CacheEntry]" = OrderedDict()
        self._skeletons: "OrderedDict[Tuple, PlanSkeleton]" = OrderedDict()
        #: feedback parked between a REOPTIMIZED lookup and the store of
        #: the corrected recompile (keyed like the entries).
        self._pending: Dict[Tuple, PlanFeedback] = {}
        # one engine's cache is shared by every serving thread; the LRU
        # reorder + counter pairs below must be atomic under concurrency
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, key: Tuple, catalog) -> Tuple[Optional[PhysicalPlan], str]:
        """Return ``(plan, outcome)``: hit/miss/invalidated/reoptimized.

        A cached plan whose domain versions no longer match ``catalog``
        is dropped (its tries hold codes from superseded dictionaries)
        and the lookup reports ``invalidated``.  A plan whose feedback
        record has drifted is dropped the same way and reports
        ``reoptimized`` -- the caller recompiles, and
        :meth:`corrections` supplies the observed cardinalities to
        recompile with.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None, MISS
            if not entry.plan.is_current(catalog):
                del self._entries[key]
                self._pending.pop(key, None)
                self.stats.invalidations += 1
                return None, INVALIDATED
            if entry.feedback.drifted:
                del self._entries[key]
                self._pending[key] = entry.feedback
                self.stats.reoptimizations += 1
                return None, REOPTIMIZED
            self._entries.move_to_end(key)
            self.stats.hits += 1
            entry.hits += 1
            return entry.plan, HIT

    def peek(self, key: Tuple, catalog) -> bool:
        """Whether ``key`` would hit, without touching counters or LRU order.

        Admission control uses this to classify a query as plan-cached
        *before* deciding whether to admit it (load shedding rejects
        non-cached work first); the real ``lookup`` still happens after
        admission and owns the hit/miss accounting.  A drifted entry
        does not count as cached: its lookup triggers a recompile.
        """
        with self._lock:
            entry = self._entries.get(key)
            return (
                entry is not None
                and entry.plan.is_current(catalog)
                and not entry.feedback.drifted
            )

    def lookup_skeleton(self, key: Tuple, catalog) -> Optional[PlanSkeleton]:
        """The current skeleton of a shape, or None (a stale one is dropped)."""
        with self._lock:
            skeleton = self._skeletons.get(key)
            if skeleton is None:
                return None
            if not skeleton.is_current(catalog):
                del self._skeletons[key]
                return None
            self._skeletons.move_to_end(key)
            self.stats.skeleton_hits += 1
            return skeleton

    def store_skeleton(self, key: Tuple, skeleton: PlanSkeleton) -> None:
        """Insert (or replace) a freshly compiled skeleton: a skeleton miss."""
        with self._lock:
            self.stats.skeleton_misses += 1
            self._skeletons[key] = skeleton
            self._skeletons.move_to_end(key)
            while len(self._skeletons) > self.capacity:
                self._skeletons.popitem(last=False)

    def corrections(self, key: Tuple) -> Dict[str, int]:
        """Observed per-node actuals for a pending reoptimization of ``key``."""
        with self._lock:
            pending = self._pending.get(key)
            return pending.corrections() if pending is not None else {}

    def record_feedback(self, key: Tuple, measured: QueryFeedback) -> bool:
        """Fold one execution's q-error measurement into ``key``'s entry.

        Returns True when the measurement *newly* marked the entry as
        drifted (the engine counts those as ``plans_drifted``).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            return entry.feedback.record(measured)

    def debug_snapshot(self) -> List[Dict[str, object]]:
        """Per-entry cache state for live introspection (``/debug/plans``).

        One dict per cached plan, LRU order (least recently used
        first): the normalized SQL, plan mode, per-entry hit count, and
        the feedback drift record.  Built entirely under the cache lock
        from immutable values, so concurrent lookups never tear it.
        """
        with self._lock:
            out = []
            for key, entry in self._entries.items():
                out.append(
                    {
                        "sql": key[0],
                        "params": repr(key[1]) if key[1] else None,
                        "mode": entry.plan.mode,
                        "hits": entry.hits,
                        "feedback": entry.feedback.as_dict(),
                    }
                )
            return out

    def feedback_snapshot(self) -> List[Dict[str, object]]:
        """Per-entry feedback summaries (the CLI's ``\\feedback`` view)."""
        with self._lock:
            out = []
            for key, entry in self._entries.items():
                summary = entry.feedback.as_dict()
                summary["sql"] = key[0]
                out.append(summary)
            return out

    def shed_lru(self, fraction: float = 0.5, keep: int = 1) -> int:
        """Drop the least-recently-used ``fraction`` of entries.

        The governor's memory-pressure signal calls this to give cached
        plan state (tries, annotation buffers) back before queries start
        failing admission.  Shed entries are counted in ``stats.shed``
        (not ``evictions``: this is load shedding, not capacity
        pressure); the same fraction of skeletons goes with them.
        Returns the number of plan entries dropped.
        """
        with self._lock:
            n_drop = min(
                max(0, len(self._entries) - max(0, keep)),
                int(len(self._entries) * fraction),
            )
            for _ in range(n_drop):
                self._entries.popitem(last=False)
            for _ in range(int(len(self._skeletons) * fraction)):
                self._skeletons.popitem(last=False)
            self.stats.shed += n_drop
            return n_drop

    def store(self, key: Tuple, plan: PhysicalPlan) -> None:
        """Insert ``plan``, evicting the least recently used beyond capacity.

        A store that answers a pending reoptimization re-attaches the
        accumulated observations (via
        :meth:`~repro.optimizer.feedback.PlanFeedback.successor`) so
        the corrected plan keeps being scored; any other store starts a
        fresh feedback record under the cache's drift rule.
        """
        with self._lock:
            pending = self._pending.pop(key, None)
            feedback = (
                pending.successor()
                if pending is not None
                else PlanFeedback(
                    threshold=self.q_error_threshold, drift_runs=self.drift_runs
                )
            )
            self._entries[key] = _CacheEntry(plan=plan, feedback=feedback)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._skeletons.clear()
            self._pending.clear()

    def __repr__(self) -> str:
        return (
            f"PlanCache(size={len(self._entries)}/{self.capacity}, "
            f"skeletons={len(self._skeletons)}, "
            f"{self.stats.describe()})"
        )
