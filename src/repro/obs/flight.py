"""Query correlation and the flight recorder (``repro.obs``).

Three small pieces turn individual observability signals (spans,
metrics, log lines, wire errors) into one joinable story per query:

* :func:`next_query_id` mints the process-unique ``query_id`` the
  engine stamps into every span tree, :class:`~repro.xcution.stats
  .ExecutionStats`, JSONL query-log event, flight-recorder entry, and
  wire error -- one grep joins the client, server, governor, and
  executor views of the same query;
* :class:`InflightRegistry` tracks queries between admission and
  completion, powering ``GET /debug/queries`` and the CLI's ``\\top``;
* :class:`FlightRecorder` is an always-on bounded ring of the most
  recent completed/failed/killed queries (``GET /debug/flight``,
  ``\\last``) -- the crash-cheap "what just happened" buffer every
  long-running server needs.

All three are lock-cheap by construction: the hot path takes one short
critical section per query (an append / a dict insert), and snapshots
copy under the lock so readers never observe torn state.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional

__all__ = [
    "FlightRecorder",
    "InflightQuery",
    "InflightRegistry",
    "admission_of",
    "next_query_id",
    "sql_hash",
]

#: process-wide query-id sequence.  ``itertools.count`` increments
#: atomically in CPython, so minting an id is lock-free.
_COUNTER = itertools.count(1)


def next_query_id() -> str:
    """Mint a process-unique correlation id (``q<pid>-<n>``).

    Ids are minted at admission and never reused within a process; the
    pid prefix keeps them unique across a future multi-process
    deployment without any coordination.
    """
    return f"q{os.getpid()}-{next(_COUNTER)}"


def sql_hash(sql: Optional[str]) -> Optional[str]:
    """A short stable digest of the SQL text (None for plan-only runs)."""
    if not sql:
        return None
    return hashlib.sha1(sql.encode("utf-8")).hexdigest()[:12]


def admission_of(root) -> Dict[str, object]:
    """The payload of the ``admission.wait`` span under a lifecycle root.

    The engine sets ``queued`` and ``waited_ms`` on it once a slot is
    granted, and ``cause`` (plus ``degraded_to_approx``) when admission
    refused one; empty before admission ends or without a governor.
    """
    if root is not None:
        for span in root.children:
            if span.name == "admission.wait":
                return span.payload
    return {}


class InflightQuery:
    """Live state of one admitted-but-unfinished query."""

    __slots__ = (
        "query_id",
        "sql",
        "session",
        "started_ts",
        "_t0",
        "tracer",
        "stats",
    )

    def __init__(self, query_id: str, sql: Optional[str], session: Optional[str]):
        self.query_id = query_id
        self.sql = sql
        self.session = session
        self.started_ts = time.time()
        self._t0 = time.perf_counter()
        #: the query's lifecycle tracer, once the engine has opened it.
        self.tracer = None
        #: the run's live ExecutionStats once execution starts (reading
        #: its counters mid-flight is racy-but-monotonic, which is all a
        #: progress view needs).
        self.stats = None

    @property
    def phase(self) -> str:
        """The latest lifecycle span (``parse``, ``compile``, ``execute``,
        ...: the open one while a phase runs), ``admission`` before any."""
        root = self.tracer.root if self.tracer is not None else None
        return root.children[-1].name if root and root.children else "admission"

    def snapshot(self) -> Dict[str, object]:
        stats = self.stats
        admission = admission_of(self.tracer.root if self.tracer is not None else None)
        return {
            "query_id": self.query_id,
            "session": self.session,
            "sql": self.sql,
            "phase": self.phase,
            "elapsed_ms": round((time.perf_counter() - self._t0) * 1000, 3),
            "started_ts": round(self.started_ts, 6),
            "queued": admission.get("queued", False),
            "admission_wait_ms": admission.get("waited_ms", 0.0),
            "cancel_checks": int(stats.cancel_checks) if stats is not None else 0,
        }


class InflightRegistry:
    """The set of queries currently inside the engine."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: Dict[str, InflightQuery] = {}

    def register(
        self, query_id: str, sql: Optional[str], session: Optional[str] = None
    ) -> InflightQuery:
        entry = InflightQuery(query_id, sql, session)
        with self._lock:
            self._entries[query_id] = entry
        return entry

    def finish(self, query_id: str) -> None:
        with self._lock:
            self._entries.pop(query_id, None)

    def snapshot(self) -> List[Dict[str, object]]:
        """Point-in-time views of every in-flight query, oldest first."""
        with self._lock:
            entries = list(self._entries.values())
        return [entry.snapshot() for entry in entries]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class FlightRecorder:
    """A bounded ring of recently finished queries, always on.

    ``record`` is O(1) -- one deque append under a lock -- and the ring
    never exceeds ``capacity`` entries (``deque(maxlen=...)`` drops the
    oldest), so leaving the recorder enabled in production costs one
    dict per query and nothing else.  Entries are plain JSON-ready
    dicts, written once and never mutated afterwards, so ``snapshot``
    can hand them out without copying.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=capacity)
        #: total entries ever recorded (>= len(ring) once wrapped).
        self.recorded = 0

    def record(self, entry: Dict[str, object]) -> None:
        with self._lock:
            self._ring.append(entry)
            self.recorded += 1

    def snapshot(
        self, n: Optional[int] = None, outcome: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """The most recent entries, newest first, optionally filtered."""
        with self._lock:
            entries = list(self._ring)
        entries.reverse()
        if outcome:
            entries = [e for e in entries if e.get("outcome") == outcome]
        if n is not None:
            entries = entries[: max(0, int(n))]
        return entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)
