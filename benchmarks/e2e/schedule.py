"""Op schedules and the two load loops.

A schedule -- which template, which parameter, and for the open loop the
due time -- is a pure function of the seed; the program under test sees
only the generated statements.  The closed loop sends a caller's next op
when the previous one returns; the open loop sends on the schedule
whatever the program does, and times each op from when it was *due*, so
a stall is charged to the later requests it delayed.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``key`` names the reference answer the op is checked against (ops
    that differ only in a non-binding literal share one).  ``sql`` is
    what the surface receives; for a prepared op it holds ``?`` and
    ``params`` fills it, while ``inline_sql`` is the same statement with
    the literals written out, which the traced walk compiles by hand.
    """

    template: str
    key: Tuple
    kind: str = "query"  # query | prepared | replace
    sql: str = ""
    params: Optional[Tuple] = None
    inline_sql: str = ""
    approx: bool = False

    @property
    def text(self) -> str:
        return self.inline_sql or self.sql

    @property
    def query_kwargs(self) -> dict:
        """What ``surface.query`` needs beyond the statement."""
        return {"approx": "force"} if self.approx else {}


@dataclass
class Record:
    """What one executed op left behind."""

    op: Op
    start: float
    end: float
    fingerprint: Optional[tuple] = None
    error: Optional[str] = None
    #: open loop only: when the op was due, and the earliest it could have
    #: been sent (its due time, or later if every connection was busy).
    due: Optional[float] = None
    sendable: Optional[float] = None
    #: which pass of its loop the op belonged to.
    pass_index: int = -1
    extra: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        """Closed loop: call to result.  Open loop: due time to result."""
        return self.end - (self.start if self.due is None else self.due)

    @property
    def lateness(self) -> float:
        """How late the generator itself sent the op.

        Waiting for a busy connection is the program's backlog and stays
        in ``latency``; what is left -- timer overshoot, the generator's
        own scheduling -- is the harness's, and is reported so that a
        slow generator is not mistaken for a slow server.
        """
        return 0.0 if self.sendable is None else max(0.0, self.start - self.sendable)


def schedule_bytes(passes: Sequence[Sequence[Op]]) -> bytes:
    """Canonical serialization of a schedule (what "same seed, same inputs" compares)."""
    return json.dumps(
        [[[op.template, list(op.key), op.kind, op.sql, op.params, op.approx]
          for op in ops] for ops in passes],
        sort_keys=True,
    ).encode("utf-8")


def due_offsets(seed: int, rate: float, count: int) -> List[float]:
    """Seconds from phase start at which each of ``count`` ops is due.

    Independent users make Poisson arrivals: exponential gaps with mean
    ``1 / rate``, drawn from the seed.
    """
    rng = np.random.default_rng([seed, 0x0937])
    return np.cumsum(rng.exponential(1.0 / rate, size=count)).tolist()


def run_open_loop(
    ops: Sequence[Op],
    offsets: Sequence[float],
    send: Callable[[Op, int], Record],
    connections: int,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Record]:
    """Send ``ops[i]`` at ``start + offsets[i]`` over ``connections`` senders.

    Each sender takes the next unsent op, waits until it is due (never
    past it), and calls ``send(op, connection)``, which returns the op's
    :class:`Record` with ``start``/``end`` filled in.  An op whose turn
    comes late, because every connection was busy, is sent at once; its
    record keeps the original due time, so ``latency`` includes the wait.
    """
    start = clock()
    records: List[Optional[Record]] = [None] * len(ops)
    cursor = iter(range(len(ops)))
    lock = threading.Lock()

    def sender(connection: int) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + offsets[index]
            free = clock()
            if due > free:
                sleep(due - free)
            record = send(ops[index], connection)
            record.due = due
            record.sendable = max(due, free)
            records[index] = record

    if connections == 1:
        sender(0)
    else:
        threads = [
            threading.Thread(target=sender, args=(c,), name=f"e2e-sender-{c}", daemon=True)
            for c in range(connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return [r for r in records if r is not None]
