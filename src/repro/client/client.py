"""Blocking TCP client speaking the :mod:`repro.server.protocol` frames.

One :class:`ReproClient` wraps one connection.  The client is
deliberately simple -- one request/response exchange at a time -- but
:meth:`ReproClient.cancel` and :meth:`ReproClient.cancel_active` only
take the write lock, so another thread can kill an in-flight query on
the same connection (that is the whole point of running queries on
server-side worker threads).

Row batches are reassembled into a real
:class:`~repro.core.result.ResultTable`: the ``result_header`` frame
carries per-column dtype tags, so numeric columns come back as
``int64``/``float64`` arrays exactly like the in-process engine
produced them, not as JSON-shaped lists.

``query(..., trace=True)`` works like the in-process engine's: the
client mints a trace context, the server adopts it and returns its
span tree in the ``done`` frame, and the client stitches one local
tree -- ``client.query`` over ``client.send`` + ``wire``, with the
server's admission/compile/execute spans grafted inside the wire span
-- so ``result.trace`` renders and exports (Chrome trace) exactly like
a local trace, query_id included.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.governor import CancelToken, QueryHandle
from ..core.result import ResultTable
from ..errors import ReproError, UnsupportedOnTopology, error_from_wire
from ..obs import Span, span_from_wire
from ..storage.persist import attribute_to_dict
from ..xcution.stats import ExecutionStats
from ..server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    read_frame,
    write_frame,
)

__all__ = ["ReproClient", "RemoteStatement", "connect"]

#: dtype tag -> numpy dtype used to rebuild result columns.
_TAG_DTYPES = {"int": np.int64, "float": np.float64, "bool": np.bool_}

#: client-minted trace ids (``t<pid>-<n>``), mirroring server query ids.
_TRACE_COUNTER = itertools.count(1)


def _rebuild_result(names: List[str], dtypes: List[str], rows: List[list]) -> ResultTable:
    columns = []
    for index, tag in enumerate(dtypes):
        values = [row[index] for row in rows]
        dtype = _TAG_DTYPES.get(tag)
        if dtype is None:
            column = np.empty(len(values), dtype=object)
            column[:] = values
        else:
            column = np.array(values, dtype=dtype)
        columns.append(column)
    return ResultTable(names, columns)


class RemoteStatement:
    """A prepared statement living in the server-side session."""

    def __init__(self, client: "ReproClient", stmt_id: int, params: int):
        self._client = client
        self.stmt_id = stmt_id
        #: number of parameter slots the statement expects.
        self.params = params
        self.closed = False

    def execute(
        self,
        params: Optional[Dict] = None,
        collect_stats: bool = False,
        timeout_ms: Optional[float] = None,
        trace: bool = False,
        cancel_token=None,
        partial: bool = False,
        query_id: Optional[str] = None,
        approx=None,
    ) -> ResultTable:
        if self.closed:
            raise ReproError("prepared statement is closed")
        request: Dict = {"type": "execute", "stmt": self.stmt_id}
        if collect_stats:
            request["collect_stats"] = True
        if partial:
            request["partial"] = True
        if query_id is not None:
            request["query_id"] = query_id
        if approx is None:
            approx = self._client.default_approx
        if approx is not None:
            request["approx"] = approx
        return self._client._run(
            request,
            params=params,
            timeout_ms=timeout_ms,
            trace=trace,
            cancel_token=cancel_token,
        )

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._client._close_statement(self.stmt_id)

    def __enter__(self) -> "RemoteStatement":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"RemoteStatement(stmt={self.stmt_id}, params={self.params}, {state})"


class ReproClient:
    """One connection to a :class:`~repro.server.ReproServer`.

    Thread model: queries are serialized (one exchange at a time under
    an internal lock); ``cancel``/``cancel_active`` may be called from
    any thread while a query is in flight.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        connect_timeout: float = 10.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        default_timeout_ms: Optional[float] = None,
    ):
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        #: applied when a query passes no ``timeout_ms`` of its own --
        #: the client-side mirror of the engine's ``default_timeout_ms``,
        #: so ``repro.connect(..., timeout_ms=...)`` means the same thing
        #: on every topology.
        self.default_timeout_ms = default_timeout_ms
        self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        # blocking I/O from here on; query runtimes are governed
        # server-side (timeout_ms), not by socket timeouts
        self._sock.settimeout(None)
        # request frames are flushed whole -- Nagle would trade 40ms of
        # latency per round-trip for nothing
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        self._write_lock = threading.Lock()  # frame writes (cancel interleaves)
        self._exchange_lock = threading.RLock()  # request/response conversations
        self._next_qid = 1
        self._active_qid: Optional[int] = None
        self.closed = False
        self.session: Optional[str] = None
        self.batch_rows: Optional[int] = None
        self.server: Optional[str] = None
        #: the serving engine's q-error feedback policy (from hello):
        #: ``{"q_error_threshold": ..., "drift_runs": ...}``.
        self.feedback: Optional[Dict] = None
        #: session-default approximate-query policy sent with every
        #: query/execute when the call passes no ``approx=`` of its own
        #: (None: leave the server's configured default in charge).
        self.default_approx = None
        try:
            self._handshake()
        except BaseException:
            self._teardown()
            raise

    # -- public API -------------------------------------------------------------

    def query(
        self,
        sql: str,
        params: Optional[Dict] = None,
        config=None,
        collect_stats: bool = False,
        trace: bool = False,
        profile: bool = False,
        timeout_ms: Optional[float] = None,
        cancel_token: Optional[CancelToken] = None,
        partial: bool = False,
        query_id: Optional[str] = None,
        approx=None,
    ) -> ResultTable:
        """Run ``sql`` on the server and return its full result.

        The signature matches ``Engine.query`` (the QuerySurface
        contract behind ``repro.connect()``): ``collect_stats=True``
        attaches the server's execution counters as ``result.stats``,
        ``cancel_token`` fires a ``cancel`` frame at the server when
        cancelled, and ``partial``/``query_id`` are the shard-worker
        extensions.  ``config=`` and ``profile=`` cannot cross the wire
        and raise :class:`~repro.errors.UnsupportedOnTopology` rather
        than being silently dropped.

        With ``trace=True`` the returned table's ``.trace`` is one
        stitched span tree covering the whole exchange: client send,
        wire round-trip, and the server's own admission/compile/execute
        spans inside it, all sharing the server-minted ``query_id``
        (also on ``result.query_id``).

        ``approx`` selects the approximate-query policy for this call
        (``"never"`` / ``"allow"`` / ``"force"`` or booleans, see
        :mod:`repro.approx`); when the server runs the query on samples
        the error-bar metadata comes back as ``result.approx``.  Unset,
        the client's ``default_approx`` session policy (the CLI's
        ``\\approx``) applies.
        """
        self._reject_unsupported(config=config, profile=profile)
        request: Dict = {"type": "query", "sql": sql}
        if collect_stats:
            request["collect_stats"] = True
        if partial:
            request["partial"] = True
        if query_id is not None:
            request["query_id"] = query_id
        if approx is None:
            approx = self.default_approx
        if approx is not None:
            request["approx"] = approx
        return self._run(
            request,
            params=params, timeout_ms=timeout_ms, trace=trace,
            cancel_token=cancel_token,
        )

    def submit(
        self,
        sql: str,
        params: Optional[Dict] = None,
        config=None,
        collect_stats: bool = False,
        trace: bool = False,
        timeout_ms: Optional[float] = None,
        cancel_token: Optional[CancelToken] = None,
    ) -> QueryHandle:
        """Run ``query(sql, ...)`` on a background thread.

        The remote counterpart of ``Engine.submit``: returns a
        :class:`~repro.core.governor.QueryHandle` immediately;
        ``handle.cancel()`` fires the shared token, which the in-flight
        exchange notices and turns into a ``cancel`` frame, so the
        server kills the query and the handle's ``result()`` re-raises
        the typed :class:`~repro.errors.QueryCancelledError`.
        """
        self._reject_unsupported(config=config)
        token = cancel_token or CancelToken(timeout_ms=timeout_ms)
        return QueryHandle.spawn(
            token,
            sql,
            lambda: self.query(
                sql,
                params=params,
                collect_stats=collect_stats,
                trace=trace,
                timeout_ms=timeout_ms,
                cancel_token=token,
            ),
            name="repro-client-query",
        )

    def _reject_unsupported(self, config=None, profile: bool = False) -> None:
        if config is not None:
            raise UnsupportedOnTopology(
                "config= overrides cannot cross the wire: the serving "
                "engine's configuration is fixed server-side (start the "
                "server with the config you need)",
                option="config", topology="tcp",
            )
        if profile:
            raise UnsupportedOnTopology(
                "profile= is not supported over tcp:// -- kernel "
                "profiles hold non-serializable per-level state; run "
                "the query on a local engine to profile it",
                option="profile", topology="tcp",
            )

    def debug(self, what: str, n: Optional[int] = None,
              outcome: Optional[str] = None) -> Dict:
        """One of the server's live-introspection snapshots.

        ``what`` is ``queries`` / ``flight`` / ``plans`` / ``governor``
        / ``metrics`` -- the same payloads the HTTP sidecar serves
        under ``/debug/*``; ``n`` and ``outcome`` filter the flight
        view.
        """
        request: Dict = {"type": "debug", "what": what}
        if n is not None:
            request["n"] = n
        if outcome is not None:
            request["outcome"] = outcome
        with self._exchange_lock:
            self._ensure_open()
            self._write(request)
            frame = self._read_for(None)
            if frame["type"] != "debug":
                raise ProtocolError(f"expected debug frame, got {frame['type']!r}")
            return frame["data"]

    def explain(self, sql: str, params: Optional[Dict] = None) -> str:
        """The server's plan text for ``sql``."""
        with self._exchange_lock:
            qid = self._start({"type": "query", "sql": sql, "explain": True}, params, None)
            try:
                frame = self._read_for(qid)
                if frame["type"] != "explain":
                    raise ProtocolError(
                        f"expected explain frame, got {frame['type']!r}"
                    )
                return frame["text"]
            finally:
                self._active_qid = None

    def prepare(self, sql: str, config=None) -> RemoteStatement:
        """Compile ``sql`` server-side; returns the reusable handle."""
        self._reject_unsupported(config=config)
        with self._exchange_lock:
            self._ensure_open()
            self._write({"type": "prepare", "sql": sql})
            frame = self._read_for(None)
            if frame["type"] != "prepared":
                raise ProtocolError(f"expected prepared frame, got {frame['type']!r}")
            return RemoteStatement(self, frame["stmt"], frame["params"])

    def register_table(self, table, chunk_cells: int = 100_000) -> int:
        """Ship a :class:`~repro.storage.table.Table` to the server.

        The shard coordinator's data-distribution path: the table goes
        over as a ``register_partition`` chunk sequence (each chunk
        bounded to roughly ``chunk_cells`` cells so no frame approaches
        the frame limit), the server reassembles it with exact dtypes
        and registers it with its engine's catalog.  Returns the row
        count the server registered.
        """
        names = [a.name for a in table.schema.attributes]
        frame0 = {
            "schema": [attribute_to_dict(a) for a in table.schema.attributes],
            "dtypes": {
                name: np.asarray(table.columns[name]).dtype.str for name in names
            },
        }
        lists = {name: np.asarray(table.columns[name]).tolist() for name in names}
        n = table.num_rows
        step = max(1, chunk_cells // max(1, len(names)))
        with self._exchange_lock:
            self._ensure_open()
            seq, start = 0, 0
            while True:
                frame: Dict = {
                    "type": "register_partition",
                    "table": table.schema.name,
                    "seq": seq,
                    "last": start + step >= n,
                    "columns": {
                        name: lists[name][start : start + step] for name in names
                    },
                }
                if seq == 0:
                    frame.update(frame0)
                self._write(frame)
                reply = self._read_for(None)
                if reply["type"] != "registered":
                    raise ProtocolError(
                        f"expected registered frame, got {reply['type']!r}"
                    )
                if reply.get("complete"):
                    return int(reply.get("rows") or 0)
                seq += 1
                start += step

    def cancel(self, qid: int, reason: str = "cancelled by client") -> None:
        """Ask the server to kill in-flight query ``qid`` (thread-safe)."""
        self._write({"type": "cancel", "qid": qid, "reason": reason})

    def cancel_active(self, reason: str = "cancelled by client") -> bool:
        """Cancel whatever query this client currently has in flight."""
        qid = self._active_qid
        if qid is None:
            return False
        self.cancel(qid, reason)
        return True

    def close(self) -> None:
        """Say goodbye and drop the connection (idempotent)."""
        if self.closed:
            return
        try:
            with self._exchange_lock:
                self._write({"type": "close"})
                frame = read_frame(self._rfile, self.max_frame_bytes)
                if frame is not None and frame["type"] not in ("bye", "error"):
                    pass  # tolerate stragglers; we are leaving either way
        except (ReproError, ConnectionError, OSError, ValueError):
            pass
        finally:
            self._teardown()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"session={self.session}"
        return f"ReproClient({self.host}:{self.port}, {state})"

    # -- exchange machinery -------------------------------------------------------

    def _handshake(self) -> None:
        self._write({"type": "hello", "version": PROTOCOL_VERSION, "client": "repro.client/1"})
        frame = read_frame(self._rfile, self.max_frame_bytes)
        if frame is None:
            raise ProtocolError("server closed the connection during handshake")
        if frame["type"] == "error":
            raise error_from_wire(frame["error"])
        if frame["type"] != "hello":
            raise ProtocolError(f"expected hello frame, got {frame['type']!r}")
        self.session = frame.get("session")
        self.batch_rows = frame.get("batch_rows")
        self.server = frame.get("server")
        self.feedback = frame.get("feedback")

    def _run(
        self,
        request: Dict,
        params: Optional[Dict],
        timeout_ms: Optional[float],
        trace: bool = False,
        cancel_token: Optional[CancelToken] = None,
    ) -> ResultTable:
        if timeout_ms is None:
            timeout_ms = self.default_timeout_ms
        with self._exchange_lock:
            trace_ctx = None
            if trace:
                trace_ctx = {
                    "trace_id": f"t{os.getpid()}-{next(_TRACE_COUNTER)}",
                    "client_send_ts": round(time.time(), 6),
                }
                request = dict(request, trace=trace_ctx)
            t0 = time.perf_counter()
            qid = self._start(request, params, timeout_ms)
            t_sent = time.perf_counter()
            watcher_done = None
            if cancel_token is not None:
                watcher_done = threading.Event()
                watcher = threading.Thread(
                    target=self._watch_token,
                    args=(cancel_token, qid, watcher_done),
                    name="repro-client-cancel-watch",
                    daemon=True,
                )
                watcher.start()
            try:
                result, done = self._collect(qid)
            finally:
                self._active_qid = None
                if watcher_done is not None:
                    watcher_done.set()
        result.query_id = done.get("query_id")
        if isinstance(done.get("approx"), dict):
            result.approx = done["approx"]
        if isinstance(done.get("stats"), dict):
            stats = ExecutionStats.from_dict(done["stats"])
            stats.query_id = done.get("query_id") or ""
            result.stats = stats
        if trace_ctx is not None:
            result.trace = self._stitch_trace(
                trace_ctx, done, t0, t_sent, time.perf_counter()
            )
        return result

    def _watch_token(
        self, token: CancelToken, qid: int, done: threading.Event
    ) -> None:
        """Translate a fired :class:`CancelToken` into a ``cancel`` frame.

        This is what makes caller-side cancellation topology-agnostic:
        an engine polls the token inside its executors, the remote
        client polls it here and ships the cancellation to the server,
        where the session fires the server-side token of query ``qid``.
        """
        while not done.wait(0.005):
            expired = token.remaining_ms() == 0.0
            if token.cancelled or expired:
                try:
                    self.cancel(
                        qid,
                        "query deadline exceeded" if expired and not token.cancelled
                        else getattr(token, "_reason", None) or "cancelled by caller",
                    )
                except ReproError:
                    pass  # exchange already tearing down
                return

    @staticmethod
    def _stitch_trace(
        trace_ctx: Dict, done: Dict, t0: float, t_sent: float, t_end: float
    ) -> Span:
        """One local span tree for the whole exchange.

        The server's tree arrives with root-relative offsets on its own
        clock; the client cannot subtract clocks across hosts, so it
        anchors the server tree inside the wire span, splitting the
        unaccounted wire time (network + serialization) evenly around
        it -- offsets *within* the server tree stay exact.
        """
        root = Span("client.query", t0)
        root.end = t_end
        root.set(trace_id=trace_ctx["trace_id"])
        if done.get("query_id"):
            root.set(query_id=done["query_id"])
        send = Span("client.send", t0)
        send.end = t_sent
        root.children.append(send)
        wire = Span("wire", t_sent)
        wire.end = t_end
        root.children.append(wire)
        remote = done.get("trace")
        if isinstance(remote, dict):
            server_dur = float(remote.get("dur", 0.0)) / 1e6
            origin = t_sent + max(0.0, (wire.duration - server_dur) / 2)
            wire.children.append(span_from_wire(remote, origin))
        return root

    def _start(self, request: Dict, params: Optional[Dict], timeout_ms: Optional[float]) -> int:
        self._ensure_open()
        qid = self._next_qid
        self._next_qid += 1
        request = dict(request, qid=qid)
        if params is not None:
            request["params"] = params
        if timeout_ms is not None:
            request["timeout_ms"] = timeout_ms
        # publish before sending so cancel_active() from another thread
        # can never miss a query that is already on the wire
        self._active_qid = qid
        self._write(request)
        return qid

    def _collect(self, qid: int) -> Tuple[ResultTable, Dict]:
        frame = self._read_for(qid)
        if frame["type"] != "result_header":
            raise ProtocolError(f"expected result_header frame, got {frame['type']!r}")
        names: List[str] = frame["names"]
        dtypes: List[str] = frame["dtypes"]
        rows: List[list] = []
        while True:
            frame = self._read_for(qid)
            if frame["type"] == "batch":
                rows.extend(frame["rows"])
            elif frame["type"] == "done":
                return _rebuild_result(names, dtypes, rows), frame
            else:
                raise ProtocolError(
                    f"expected batch/done frame, got {frame['type']!r}"
                )

    def _read_for(self, qid: Optional[int]) -> Dict:
        """Next frame for ``qid``; raises the typed error on error frames."""
        while True:
            frame = read_frame(self._rfile, self.max_frame_bytes)
            if frame is None:
                self._teardown()
                raise ProtocolError("server closed the connection mid-exchange")
            if frame["type"] == "error":
                raise error_from_wire(frame["error"])
            if qid is None or frame.get("qid") == qid:
                return frame
            # a straggler from a cancelled earlier query: drop it

    def _close_statement(self, stmt_id: int) -> None:
        if self.closed:
            return
        with self._exchange_lock:
            self._write({"type": "close_stmt", "stmt": stmt_id})
            frame = self._read_for(None)
            if frame["type"] != "closed":
                raise ProtocolError(f"expected closed frame, got {frame['type']!r}")

    def _write(self, frame: Dict) -> None:
        self._ensure_open()
        try:
            with self._write_lock:
                write_frame(self._wfile, frame, self.max_frame_bytes)
        except (ConnectionError, OSError, ValueError) as exc:
            self._teardown()
            raise ProtocolError(f"connection to server lost: {exc}") from exc

    def _ensure_open(self) -> None:
        if self.closed:
            raise ReproError("client connection is closed")

    def _teardown(self) -> None:
        self.closed = True
        for stream in (getattr(self, "_wfile", None), getattr(self, "_rfile", None)):
            try:
                if stream is not None:
                    stream.close()
            except (OSError, ValueError):
                pass
        try:
            self._sock.close()
        except OSError:
            pass


def connect(
    host: str = "127.0.0.1",
    port: int = 0,
    connect_timeout: float = 10.0,
    default_timeout_ms: Optional[float] = None,
) -> ReproClient:
    """Open a connection and complete the protocol handshake."""
    return ReproClient(
        host, port, connect_timeout=connect_timeout,
        default_timeout_ms=default_timeout_ms,
    )
