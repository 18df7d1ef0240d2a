"""Query governance: deadlines, cooperative cancellation, admission control.

A serving engine cannot let one runaway query (a bad attribute order on
a cyclic join is the canonical case -- exactly what the Section VI icost
optimizer exists to avoid) block the process, nor let concurrent
callers blow a memory budget that is only enforced per query.  This
module is the resource-governance layer threaded through the whole
execute path:

* :class:`CancelToken` -- a deadline plus a cancellation flag that the
  generic-join frontier, the Yannakakis passes and the trie builder
  poll at chunk granularity.  A fired token raises
  :class:`~repro.errors.QueryTimeoutError` or
  :class:`~repro.errors.QueryCancelledError`; the engine attaches the
  partial :class:`~repro.xcution.stats.ExecutionStats` and span tree so
  the killed query stays fully diagnosable.
* :class:`Governor` -- process-wide admission control: a query starts
  only once it holds a concurrency slot and its reserved share of the
  global memory budget (the share becomes the query's aggregator
  budget).  Waiters queue FIFO up to a bound; beyond it, callers get
  :class:`~repro.errors.RetryableAdmissionError` backpressure.  A
  load-shedding mode rejects non-cached plans first.
* :class:`QueryHandle` -- ``engine.submit(sql)``'s future-like handle:
  ``cancel()`` from any thread, ``result(timeout=...)`` to join.
* :func:`retry_admission` -- jittered exponential backoff around a
  callable that may raise :class:`RetryableAdmissionError`.

The degradation ladder under memory pressure (see docs/governance.md):
shed plan-cache LRU entries, spill aggregator state to sorted-sparse
runs, shed non-cached admissions, and only then fail the query.
"""

from __future__ import annotations

import random
import threading
import time
import weakref
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from ..errors import (
    QueryCancelledError,
    QueryTimeoutError,
    RetryableAdmissionError,
)

__all__ = [
    "CancelToken",
    "Governor",
    "AdmissionSlot",
    "QueryHandle",
    "retry_admission",
    "cancel_scope",
    "current_cancel",
    "admission_scope",
    "current_admission_session",
]


# ---------------------------------------------------------------------------
# cooperative cancellation
# ---------------------------------------------------------------------------

#: operations between deadline clock reads (``tick`` granularity).  A
#: cancelled flag is checked on *every* tick; only the monotonic clock
#: read is amortized.
_TICK_STRIDE = 256


class CancelToken:
    """A deadline + cancellation flag polled cooperatively by executors.

    The token is cheap to poll: :meth:`tick` is an attribute compare per
    call and reads the clock only every ``stride`` accumulated
    operations, so hot loops can tick per value without measurable
    overhead.  :meth:`check` always reads the clock (used at phase
    boundaries).  Both raise :class:`QueryCancelledError` /
    :class:`QueryTimeoutError` once the token fires; the token is
    one-shot and safe to cancel from any thread (``cancel()`` is a
    single attribute store).
    """

    __slots__ = ("started", "_deadline", "_timeout_ms", "_reason", "_clock", "_ops", "_stride")

    def __init__(
        self,
        timeout_ms: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        stride: int = _TICK_STRIDE,
    ):
        self._clock = clock
        self.started = clock()
        self._timeout_ms = timeout_ms
        self._deadline = None if timeout_ms is None else self.started + timeout_ms / 1000.0
        self._reason: Optional[str] = None
        self._ops = 0
        self._stride = max(1, int(stride))

    # -- firing ---------------------------------------------------------------

    def cancel(self, reason: str = "cancelled by caller") -> bool:
        """Request cancellation; returns False if already fired."""
        if self._reason is not None:
            return False
        self._reason = reason
        return True

    @property
    def cancelled(self) -> bool:
        return self._reason is not None

    @property
    def timeout_ms(self) -> Optional[float]:
        return self._timeout_ms

    def elapsed_ms(self) -> float:
        return (self._clock() - self.started) * 1000.0

    def remaining_ms(self) -> Optional[float]:
        """Milliseconds until the deadline (None when no deadline set)."""
        if self._deadline is None:
            return None
        return max(0.0, (self._deadline - self._clock()) * 1000.0)

    # -- polling --------------------------------------------------------------

    def check(self) -> None:
        """Raise if the token has fired; always reads the clock."""
        if self._reason is not None:
            raise QueryCancelledError(
                f"query cancelled: {self._reason}", reason=self._reason
            )
        if self._deadline is not None and self._clock() > self._deadline:
            elapsed = self.elapsed_ms()
            raise QueryTimeoutError(
                f"query exceeded its {self._timeout_ms:g}ms deadline "
                f"({elapsed:.1f}ms elapsed)",
                timeout_ms=self._timeout_ms,
                elapsed_ms=elapsed,
            )

    def tick(self, ops: int = 1) -> None:
        """Amortized poll: count ``ops`` units of work, check periodically."""
        if self._reason is not None:
            self.check()
        self._ops += ops
        if self._ops >= self._stride:
            self._ops = 0
            self.check()


# A query's token is also visible through a thread-local scope so deep
# compile-phase code (the trie builder under ``build_plan``) can poll
# without plumbing a parameter through every storage call.  Thread-local
# on purpose: concurrent queries on different threads must not see each
# other's tokens.
_SCOPE = threading.local()


@contextmanager
def cancel_scope(token: Optional[CancelToken]):
    """Make ``token`` the ambient cancel token for this thread."""
    previous = getattr(_SCOPE, "token", None)
    _SCOPE.token = token
    try:
        yield token
    finally:
        _SCOPE.token = previous


def current_cancel() -> Optional[CancelToken]:
    """The ambient :class:`CancelToken` of this thread (None outside a scope)."""
    return getattr(_SCOPE, "token", None)


# A serving layer tags every admission with the client session it acts
# for, again through a thread-local scope so the tag never has to be
# plumbed through ``engine.query`` / ``PreparedStatement.execute``:
# the server wraps each request in ``admission_scope(session_id)`` and
# :meth:`Governor.admit` picks the tag up ambiently.
_ADMISSION_SCOPE = threading.local()


@contextmanager
def admission_scope(session: Optional[str]):
    """Attribute this thread's admissions to ``session`` (a label)."""
    previous = getattr(_ADMISSION_SCOPE, "session", None)
    _ADMISSION_SCOPE.session = session
    try:
        yield session
    finally:
        _ADMISSION_SCOPE.session = previous


def current_admission_session() -> Optional[str]:
    """This thread's ambient admission-session label (None outside)."""
    return getattr(_ADMISSION_SCOPE, "session", None)


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class AdmissionSlot:
    """One granted admission: a concurrency slot + a memory reservation.

    ``memory_share_bytes`` is this query's reserved share of the
    governor's global memory budget (None when no global budget is
    configured).  ``session`` is the admission-session label the grant
    was attributed to (see :func:`admission_scope`; None for untagged
    callers).  Release through :meth:`Governor.release` (the engine
    does this in a ``finally``).
    """

    __slots__ = ("memory_share_bytes", "waited_seconds", "queued", "session", "_released")

    def __init__(
        self,
        memory_share_bytes: Optional[int],
        waited_seconds: float,
        queued: bool,
        session: Optional[str] = None,
    ):
        self.memory_share_bytes = memory_share_bytes
        self.waited_seconds = waited_seconds
        self.queued = queued
        self.session = session
        self._released = False


class _Waiter:
    __slots__ = ("event", "granted")

    def __init__(self):
        self.event = threading.Event()
        self.granted = False


class Governor:
    """Process-wide admission control over concurrency and memory.

    ``max_concurrency`` bounds simultaneously executing queries;
    ``global_memory_budget_bytes`` is split into equal per-slot shares
    so concurrent queries can never jointly exceed it;``max_queue``
    bounds how many callers may wait for a slot before backpressure
    (:class:`RetryableAdmissionError`) kicks in, and
    ``queue_timeout_ms`` bounds how long any one caller waits.  The
    FIFO grant order makes admission fair: a slot freed by a finishing
    query always goes to the longest waiter.

    A single governor can be shared by several engines (pass it to
    ``LevelHeadedEngine``/``repro.connect``); each engine mirrors the
    governor's decisions into its own metrics registry, and registered
    pressure listeners (plan caches, ...) are notified on
    :meth:`note_memory_pressure`.
    """

    def __init__(
        self,
        max_concurrency: Optional[int] = None,
        global_memory_budget_bytes: Optional[int] = None,
        max_queue: int = 32,
        queue_timeout_ms: Optional[float] = 10_000.0,
    ):
        if max_concurrency is not None and max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_concurrency = max_concurrency
        self.global_memory_budget_bytes = global_memory_budget_bytes
        self.max_queue = max_queue
        self.queue_timeout_ms = queue_timeout_ms
        self._lock = threading.Lock()
        self._active = 0
        self._waiters: deque[_Waiter] = deque()
        #: active slots per admission-session label (serving layers tag
        #: admissions via :func:`admission_scope`; untagged slots are
        #: not tracked here).
        self._session_active: Dict[str, int] = {}
        self._shedding = False
        self._pressure_listeners: List[Callable[[], None]] = []
        self._rng = random.Random(0x1eaded)
        #: cumulative decision counters (also mirrored per-engine into
        #: ``engine.metrics`` -- these are the cross-engine totals).
        self.counters: Dict[str, int] = {
            "admitted": 0,
            "queued": 0,
            "rejected_queue_full": 0,
            "rejected_shedding": 0,
            "rejected_timeout": 0,
            # queue-full rejections that hit *uncompiled* work -- an
            # annotation on rejected_queue_full, deliberately not
            # prefixed rejected_ so that summing rejected_* counts each
            # turned-away query exactly once.
            "queue_full_uncached": 0,
            "memory_pressure_events": 0,
        }

    # -- configuration --------------------------------------------------------

    @property
    def load_shedding(self) -> bool:
        """Whether non-cached plans are currently being rejected."""
        return self._shedding

    def set_load_shedding(self, enabled: bool) -> None:
        self._shedding = bool(enabled)

    @property
    def memory_share_bytes(self) -> Optional[int]:
        """Each admitted query's reserved share of the global budget."""
        if self.global_memory_budget_bytes is None:
            return None
        slots = self.max_concurrency or 1
        return max(1, self.global_memory_budget_bytes // slots)

    def add_pressure_listener(self, listener: Callable[[], None]) -> None:
        """Register a callback fired on :meth:`note_memory_pressure`."""
        self._pressure_listeners.append(listener)

    # -- admission ------------------------------------------------------------

    def _retry_hint_ms(self, base: float = 25.0) -> float:
        """A jittered backoff hint (uniform in [base, 2*base))."""
        with self._lock:
            jitter = self._rng.random()
        return base * (1.0 + jitter)

    def admit(
        self,
        cached: bool = False,
        token: Optional[CancelToken] = None,
        session: Optional[str] = None,
    ) -> AdmissionSlot:
        """Block until a slot is free; returns the granted slot.

        ``cached`` marks a query whose plan is already compiled (load
        shedding rejects non-cached plans first -- a cached plan costs
        no compile work and frees its slot sooner).  ``token`` bounds
        the wait by the query's own deadline.  ``session`` attributes
        the grant to a serving session (defaults to the thread's
        ambient :func:`admission_scope` label); per-session active
        counts appear in :meth:`snapshot` so a leaked slot is traceable
        to the client that leaked it.  Raises
        :class:`RetryableAdmissionError` on backpressure.
        """
        if session is None:
            session = current_admission_session()
        t0 = time.monotonic()
        waiter: Optional[_Waiter] = None
        with self._lock:
            if self._shedding and not cached:
                self.counters["rejected_shedding"] += 1
                raise RetryableAdmissionError(
                    "governor is load-shedding non-cached queries",
                    retry_after_ms=self._retry_hint_ms_locked(),
                    cause="shedding",
                )
            if self.max_concurrency is None or self._active < self.max_concurrency:
                # no contention (or unbounded): grant immediately, but
                # never overtake earlier FIFO waiters
                if not self._waiters or self.max_concurrency is None:
                    self._active += 1
                    self.counters["admitted"] += 1
                    return self._grant_locked(session, 0.0, queued=False)
            if len(self._waiters) >= self.max_queue:
                # one rejection, one rejected_* increment: the cause is
                # the full queue.  That it hit uncompiled work is an
                # annotation (queue_full_uncached), not a second
                # rejected_shedding count -- double-booking here made
                # rejection totals exceed the queries actually refused.
                self.counters["rejected_queue_full"] += 1
                if not cached:
                    self.counters["queue_full_uncached"] += 1
                raise RetryableAdmissionError(
                    f"admission queue full ({self.max_queue} waiting, "
                    f"{self._active} active)",
                    retry_after_ms=self._retry_hint_ms_locked(),
                    cause="queue_full",
                )
            waiter = _Waiter()
            self._waiters.append(waiter)
            self.counters["queued"] += 1

        deadline_ms = self.queue_timeout_ms
        if token is not None:
            remaining = token.remaining_ms()
            if remaining is not None:
                deadline_ms = (
                    remaining if deadline_ms is None else min(deadline_ms, remaining)
                )
        granted = waiter.event.wait(
            timeout=None if deadline_ms is None else deadline_ms / 1000.0
        )
        waited = time.monotonic() - t0
        if granted:
            with self._lock:
                return self._grant_locked(session, waited, queued=True)
        # timed out (or the token's deadline elapsed while queued):
        # withdraw from the queue -- unless a grant raced the timeout.
        with self._lock:
            if waiter.granted:
                return self._grant_locked(session, waited, queued=True)
            try:
                self._waiters.remove(waiter)
            except ValueError:
                pass
            self.counters["rejected_timeout"] += 1
        if token is not None:
            token.check()  # prefer the query's own timeout error
        raise RetryableAdmissionError(
            f"timed out waiting {waited * 1000:.0f}ms for an admission slot",
            retry_after_ms=self._retry_hint_ms(),
            cause="queue_timeout",
        )

    def _retry_hint_ms_locked(self, base: float = 25.0) -> float:
        return base * (1.0 + self._rng.random())

    def _grant_locked(
        self, session: Optional[str], waited: float, queued: bool
    ) -> AdmissionSlot:
        """Build the granted slot and book its session (lock held)."""
        if session is not None:
            self._session_active[session] = self._session_active.get(session, 0) + 1
        return AdmissionSlot(
            self.memory_share_bytes, waited, queued=queued, session=session
        )

    def release(self, slot: AdmissionSlot) -> None:
        """Free one slot, handing it to the longest waiter (FIFO)."""
        if slot is None or slot._released:
            return
        slot._released = True
        with self._lock:
            if slot.session is not None:
                remaining = self._session_active.get(slot.session, 0) - 1
                if remaining > 0:
                    self._session_active[slot.session] = remaining
                else:
                    self._session_active.pop(slot.session, None)
            # hand the slot straight to the next waiter: active count is
            # unchanged and the grant order is strictly FIFO
            while self._waiters:
                waiter = self._waiters.popleft()
                if not waiter.event.is_set():
                    waiter.granted = True
                    self.counters["admitted"] += 1
                    waiter.event.set()
                    return
            self._active -= 1

    # -- pressure -------------------------------------------------------------

    def note_memory_pressure(self) -> None:
        """Record a memory-pressure event and notify listeners.

        The engine calls this when a query dies on its memory budget;
        listeners implement the shedding side of the degradation ladder
        (the plan cache drops LRU entries, ...).
        """
        with self._lock:
            self.counters["memory_pressure_events"] += 1
            listeners = list(self._pressure_listeners)
        for listener in listeners:
            listener()

    # -- introspection --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "max_concurrency": self.max_concurrency,
                "global_memory_budget_bytes": self.global_memory_budget_bytes,
                "memory_share_bytes": self.memory_share_bytes,
                "max_queue": self.max_queue,
                "active": self._active,
                "waiting": len(self._waiters),
                "load_shedding": self._shedding,
                "sessions": dict(self._session_active),
                "counters": dict(self.counters),
            }

    def describe(self) -> str:
        """A printable status block (the CLI's ``\\governor``)."""
        snap = self.snapshot()
        lines = [
            "governor:",
            f"  max_concurrency: {snap['max_concurrency'] or 'unbounded'}",
            f"  global_memory_budget: "
            f"{snap['global_memory_budget_bytes'] or 'unbounded'}",
            f"  memory_share_per_query: {snap['memory_share_bytes'] or 'unbounded'}",
            f"  active: {snap['active']}  waiting: {snap['waiting']}"
            f"  (queue bound {snap['max_queue']})",
            f"  load_shedding: {'on' if snap['load_shedding'] else 'off'}",
        ]
        if snap["sessions"]:
            active = ", ".join(
                f"{name}={count}" for name, count in sorted(snap["sessions"].items())
            )
            lines.append(f"  sessions: {active}")
        for name in sorted(snap["counters"]):
            lines.append(f"  {name}: {snap['counters'][name]}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"Governor(active={snap['active']}, waiting={snap['waiting']}, "
            f"max_concurrency={self.max_concurrency}, "
            f"shedding={snap['load_shedding']})"
        )


def retry_admission(
    fn: Callable[[], object],
    attempts: int = 6,
    base_ms: float = 10.0,
    cap_ms: float = 250.0,
    sleep: Callable[[float], None] = time.sleep,
):
    """Call ``fn``, retrying :class:`RetryableAdmissionError` with backoff.

    The delay doubles per attempt (capped at ``cap_ms``) and honours the
    error's own jittered ``retry_after_ms`` hint when it is larger, so
    a fleet of rejected callers does not stampede back in lockstep.
    The final attempt's error propagates.
    """
    delay_ms = base_ms
    for attempt in range(attempts):
        try:
            return fn()
        except RetryableAdmissionError as exc:
            if attempt == attempts - 1:
                raise
            sleep(max(delay_ms, exc.retry_after_ms) / 1000.0)
            delay_ms = min(cap_ms, delay_ms * 2)


# ---------------------------------------------------------------------------
# asynchronous handles
# ---------------------------------------------------------------------------


def _abandon_handle(token: CancelToken, done: threading.Event) -> None:
    """Finalizer for a garbage-collected, still-running QueryHandle.

    Module-level on purpose: a ``weakref.finalize`` callback must not
    hold a reference back to the handle it guards.
    """
    if not done.is_set():
        token.cancel("QueryHandle abandoned without result(), cancel(), or close()")


class QueryHandle:
    """A future-like handle over one in-flight query.

    Returned by ``engine.submit(sql, ...)``; the query runs on a
    background thread under its own :class:`CancelToken`.  ``cancel()``
    fires the token from any thread -- the executors notice at their
    next poll and the query dies with
    :class:`~repro.errors.QueryCancelledError` (re-raised from
    :meth:`result`).

    A handle owns a governor slot for as long as its query runs, so an
    abandoned handle must not pin the slot forever: :meth:`close`
    cancels a still-running query and waits for the slot to come back,
    handles work as context managers, and a handle that is simply
    dropped is caught by a ``weakref`` finalizer that fires the cancel
    token on garbage collection.  The serving layer relies on this for
    client-disconnect cleanup.
    """

    def __init__(self, token: CancelToken, sql: str):
        self.token = token
        self.sql = sql
        self._done = threading.Event()
        self._result = None
        self._exception: Optional[BaseException] = None
        self._finalizer = weakref.finalize(self, _abandon_handle, token, self._done)

    # -- driver side ----------------------------------------------------------

    @classmethod
    def spawn(
        cls,
        token: CancelToken,
        sql: str,
        fn: Callable[[], object],
        name: str = "repro-query",
    ) -> "QueryHandle":
        """Run ``fn`` on a daemon thread named ``name``; its handle, at once.

        The one spawning point behind every surface's ``submit``: ``fn``
        is the surface's own ``query`` call, closed over ``token``.
        """
        handle = cls(token, sql)
        threading.Thread(
            target=handle._run, args=(fn,), name=name, daemon=True
        ).start()
        return handle

    def _run(self, fn: Callable[[], object]) -> None:
        try:
            self._result = fn()
        except BaseException as exc:  # noqa: BLE001 -- handed to .result()
            self._exception = exc
        finally:
            self._done.set()

    # -- caller side ----------------------------------------------------------

    def cancel(self, reason: str = "cancelled via QueryHandle") -> bool:
        """Request cooperative cancellation; False if already finished."""
        if self._done.is_set():
            return False
        return self.token.cancel(reason)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        if not self._done.wait(timeout):
            raise TimeoutError(f"query still running: {self.sql!r}")
        return self._exception

    def result(self, timeout: Optional[float] = None):
        """Join the query: its :class:`ResultTable`, or its raised error."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"query still running: {self.sql!r}")
        if self._exception is not None:
            raise self._exception
        return self._result

    def close(self, timeout: Optional[float] = None) -> None:
        """Release the handle: cancel if still running, reclaim the slot.

        Safe to call any number of times and after ``result()``.  A
        still-running query is cancelled (reason ``"query handle
        closed"``) and ``close`` waits up to ``timeout`` seconds
        (default: forever) for the background thread to finish -- at
        which point its governor slot is guaranteed released.  The
        query's outcome (result or error) stays readable afterwards.
        """
        self._finalizer.detach()
        if not self._done.is_set():
            self.token.cancel("query handle closed")
        self._done.wait(timeout)

    def __enter__(self) -> "QueryHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"QueryHandle({self.sql!r}, {state})"
