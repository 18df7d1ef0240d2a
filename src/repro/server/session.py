"""Per-connection serving state: prepared handles + in-flight queries.

Each accepted connection owns exactly one :class:`Session`.  The
session is the unit of cleanup: prepared-statement handles live and die
with it, every in-flight query is registered under its client-chosen
``qid`` with a :class:`~repro.core.governor.CancelToken`, and
:meth:`close` -- called on ``close`` frames, protocol violations, and
client disconnects alike -- cancels whatever is still running so the
governor gets its slots back the moment the client goes away.

Admissions performed on behalf of the session are tagged with its id
through :func:`~repro.core.governor.admission_scope`, so a governor
snapshot (and ``\\governor`` in the CLI) attributes active slots to the
sessions holding them.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from ..core.governor import CancelToken
from ..core.prepared import PreparedStatement
from ..errors import ReproError, SchemaError
from ..storage.persist import attribute_from_dict
from ..storage.schema import Schema
from ..storage.table import Table
from .protocol import decode_columns

__all__ = ["Session"]


class Session:
    """One client connection's server-side state."""

    def __init__(self, session_id: str, engine, peer: str = ""):
        self.id = session_id
        self.engine = engine
        self.peer = peer
        self.started = time.monotonic()
        self._lock = threading.Lock()
        self._statements: Dict[int, PreparedStatement] = {}
        self._next_stmt = 1
        self._inflight: Dict[int, CancelToken] = {}
        #: in-progress ``register_partition`` uploads, keyed by table
        #: name: schema, dtype tags and the column chunks until ``last``.
        self._partitions: Dict[str, Dict] = {}
        self._closed = False
        #: queries this session started (reported at close).
        self.queries = 0

    # -- in-flight queries ----------------------------------------------------

    def register_query(self, qid: int, timeout_ms: Optional[float]) -> CancelToken:
        """Mint and register the cancel token for query ``qid``.

        Called synchronously by the connection's frame reader *before*
        execution starts, so a ``cancel`` frame arriving immediately
        after the ``query`` frame always finds its target.
        """
        token = CancelToken(timeout_ms=timeout_ms)
        with self._lock:
            if self._closed:
                raise ReproError("session is closed")
            if qid in self._inflight:
                raise ReproError(f"query id {qid} is already in flight")
            self._inflight[qid] = token
            self.queries += 1
        return token

    def finish_query(self, qid: int) -> None:
        with self._lock:
            self._inflight.pop(qid, None)

    def cancel_query(self, qid: int, reason: str = "cancelled by client") -> bool:
        """Fire the token of in-flight query ``qid``; False if unknown."""
        with self._lock:
            token = self._inflight.get(qid)
        if token is None:
            return False
        return token.cancel(reason)

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    # -- partition ingest -------------------------------------------------------

    def ingest_partition_chunk(self, frame: Dict) -> Optional[Table]:
        """Buffer one ``register_partition`` chunk; a Table when complete.

        A table upload is a sequence of chunks (``seq`` 0, 1, ...; the
        first carries the schema and per-column dtype tags) ending with
        ``last: true``.  Chunks accumulate session-side; on the last one
        the chunks are decoded into a :class:`Table` with its exact
        dtypes and the buffer is dropped.  Returns None for
        intermediate chunks.  A broken upload (bad sequence, unknown
        dtype) raises and discards the buffer, so a retry can restart
        from chunk 0.
        """
        name = str(frame.get("table", ""))
        if not name:
            raise ReproError("register_partition frame needs a table name")
        seq = frame.get("seq", 0)
        with self._lock:
            if self._closed:
                raise ReproError("session is closed")
            state = self._partitions.get(name)
            try:
                if state is None:
                    if seq != 0:
                        raise ReproError(
                            f"partition upload for {name!r} must start at seq 0"
                        )
                    state = {
                        "schema": frame.get("schema"),
                        "dtypes": frame.get("dtypes") or {},
                        "chunks": [],
                        "seq": 0,
                    }
                    self._partitions[name] = state
                if seq != state["seq"]:
                    raise ReproError(
                        f"partition chunk out of order for {name!r}: "
                        f"got seq {seq}, expected {state['seq']}"
                    )
                state["seq"] += 1
                state["chunks"].append(frame.get("columns") or {})
                if not frame.get("last"):
                    return None
                state = self._partitions.pop(name)
            except Exception:
                self._partitions.pop(name, None)
                raise
        return _assemble_partition(name, state)

    # -- prepared statements ---------------------------------------------------

    def prepare(self, sql: str) -> int:
        """Compile ``sql`` and return the session-scoped statement id."""
        statement = self.engine.prepare(sql)
        with self._lock:
            if self._closed:
                raise ReproError("session is closed")
            stmt_id = self._next_stmt
            self._next_stmt += 1
            self._statements[stmt_id] = statement
        return stmt_id

    def statement(self, stmt_id: int) -> PreparedStatement:
        with self._lock:
            statement = self._statements.get(stmt_id)
        if statement is None:
            raise ReproError(f"unknown prepared statement id {stmt_id}")
        return statement

    def close_statement(self, stmt_id: int) -> bool:
        with self._lock:
            return self._statements.pop(stmt_id, None) is not None

    @property
    def statements(self) -> int:
        with self._lock:
            return len(self._statements)

    # -- lifecycle -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, reason: str = "session closed") -> int:
        """Tear the session down; returns how many queries were killed.

        Idempotent.  Cancels every in-flight token (the executors
        notice at their next poll and release their governor slots) and
        drops the prepared-statement handles.
        """
        with self._lock:
            if self._closed:
                return 0
            self._closed = True
            tokens = list(self._inflight.values())
            self._inflight.clear()
            self._statements.clear()
        killed = 0
        for token in tokens:
            if token.cancel(reason):
                killed += 1
        return killed

    def elapsed_seconds(self) -> float:
        return time.monotonic() - self.started

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Session({self.id}, peer={self.peer!r}, {state})"


def _assemble_partition(name: str, state: Dict) -> Table:
    """Rebuild a Table from accumulated ``register_partition`` chunks.

    :func:`~repro.server.protocol.decode_columns` rebuilds each column
    with the *exact* dtype the sender recorded, so a shipped partition
    is structurally identical to the sender's slice -- dictionary
    coding, dense-matrix detection, and BLAS routing behave on the
    worker exactly as they would have on the coordinator.
    """
    schema_dicts = state.get("schema")
    if not isinstance(schema_dicts, list) or not schema_dicts:
        raise SchemaError(f"partition upload for {name!r} carried no schema")
    attributes = [attribute_from_dict(d) for d in schema_dicts]
    columns = decode_columns(state["dtypes"], state["chunks"])
    missing = [a.name for a in attributes if a.name not in columns]
    if missing:
        raise SchemaError(f"partition upload for {name!r} lacks columns {missing}")
    return Table(Schema(name, attributes), {a.name: columns[a.name] for a in attributes})
