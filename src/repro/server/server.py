"""The multi-client TCP server over one governed engine.

:class:`ReproServer` accepts localhost TCP connections, speaks the
frame protocol of :mod:`repro.server.protocol`, and executes every
request against a single shared :class:`~repro.core.engine.LevelHeadedEngine`
-- which is exactly the multi-tenant traffic the PR-4 governance layer
was built for.  The division of labour per connection:

* the **reader thread** (one per connection, owned by
  ``socketserver.ThreadingTCPServer``) parses frames and answers the
  cheap ones (``prepare``, ``cancel``, ``close``) inline;
* each ``query``/``execute`` runs on its own short-lived **worker
  thread**, so the reader keeps draining frames while results stream --
  that is what makes a mid-query ``cancel`` frame (or a disconnect)
  able to kill the in-flight query through its
  :class:`~repro.core.governor.CancelToken`;
* all response frames go through one per-connection write lock, so
  concurrent workers interleave at frame granularity (frames are
  ``qid``-tagged; clients demultiplex).

Failure policy is *log and continue*: a protocol violation poisons only
its own connection, a query error becomes a typed ``error`` frame, and
the process keeps serving everyone else.  Server activity lands in
``engine.metrics`` (``server_*`` counters/gauges, per-request latency
histogram) next to the engine's own serving metrics, and admissions are
tagged with the session id via
:func:`~repro.core.governor.admission_scope`.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
import time
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.governor import admission_scope
from ..errors import ReproError
from ..obs import span_to_wire
from .http import MetricsHTTPServer
from .protocol import (
    DEFAULT_BATCH_ROWS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    error_frame,
    read_frame,
    write_frame,
)
from .session import Session

__all__ = ["ReproServer"]

logger = logging.getLogger("repro.server")

#: dtype tags sent in ``result_header`` frames; the client rebuilds
#: columns with the matching numpy dtype so a served result is
#: structurally identical to the in-process one.
_DTYPE_TAGS = {"i": "int", "u": "int", "f": "float", "b": "bool"}


def _dtype_tag(array) -> str:
    return _DTYPE_TAGS.get(np.asarray(array).dtype.kind, "str")


class _ConnectionHandler(socketserver.StreamRequestHandler):
    """One client connection: handshake, frame loop, teardown."""

    # frames are written whole and flushed; Nagle only adds latency here
    disable_nagle_algorithm = True

    def handle(self) -> None:  # noqa: C901 -- the dispatch table is flat
        server: "ReproServer" = self.server.repro  # type: ignore[attr-defined]
        metrics = server.engine.metrics
        self._write_lock = threading.Lock()
        session = server._open_session(self)
        self.session = session
        try:
            if not self._handshake(server, session):
                return
            while not server._stopping.is_set():
                try:
                    frame = read_frame(self.rfile, server.max_frame_bytes)
                except ProtocolError as exc:
                    # framing is broken: we cannot resync the stream, so
                    # answer (best-effort), log, and drop this connection
                    metrics.inc("server_protocol_errors")
                    logger.warning("session %s: %s", session.id, exc)
                    self._send(error_frame(exc))
                    return
                if frame is None:
                    return  # clean EOF
                if not self._dispatch(server, session, frame):
                    return
        except (ConnectionError, OSError) as exc:
            logger.info("session %s: connection lost (%s)", session.id, exc)
        finally:
            server._close_session(self, session)

    # -- plumbing -------------------------------------------------------------

    def _send(self, frame: Dict) -> bool:
        """Write one response frame; False when the peer is gone."""
        try:
            with self._write_lock:
                write_frame(self.wfile, frame, self.server.repro.max_frame_bytes)  # type: ignore[attr-defined]
            return True
        except (ConnectionError, OSError, ValueError):
            # ValueError: write to a closed buffered stream after teardown
            return False

    def _handshake(self, server: "ReproServer", session: Session) -> bool:
        try:
            frame = read_frame(self.rfile, server.max_frame_bytes)
        except ProtocolError as exc:
            server.engine.metrics.inc("server_protocol_errors")
            self._send(error_frame(exc))
            return False
        if frame is None:
            return False
        if frame["type"] != "hello":
            server.engine.metrics.inc("server_protocol_errors")
            self._send(
                error_frame(ProtocolError("first frame must be 'hello'"))
            )
            return False
        version = frame.get("version")
        if version != PROTOCOL_VERSION:
            self._send(
                error_frame(
                    ProtocolError(
                        f"unsupported protocol version {version!r} "
                        f"(server speaks {PROTOCOL_VERSION})"
                    )
                )
            )
            return False
        cache = server.engine.plan_cache
        return self._send(
            {
                "type": "hello",
                "version": PROTOCOL_VERSION,
                "server": server.server_name,
                "session": session.id,
                "batch_rows": server.batch_rows,
                "feedback": {
                    "q_error_threshold": cache.q_error_threshold,
                    "drift_runs": cache.drift_runs,
                },
            }
        )

    # -- dispatch -------------------------------------------------------------

    def _dispatch(self, server: "ReproServer", session: Session, frame: Dict) -> bool:
        """Handle one request frame; False ends the connection."""
        kind = frame["type"]
        if kind in ("query", "execute"):
            return self._start_query(server, session, frame)
        if kind == "prepare":
            try:
                stmt_id = session.prepare(frame.get("sql", ""))
                statement = session.statement(stmt_id)
                self._send(
                    {
                        "type": "prepared",
                        "stmt": stmt_id,
                        "params": len(statement.param_slots),
                    }
                )
            except ReproError as exc:
                self._send(error_frame(exc))
            return True
        if kind == "cancel":
            server.engine.metrics.inc("server_cancel_frames")
            session.cancel_query(
                frame.get("qid", -1),
                str(frame.get("reason", "cancelled by client")),
            )
            return True
        if kind == "register_partition":
            try:
                table = session.ingest_partition_chunk(frame)
                if table is not None:
                    server.engine.register_table(table)
                    server.engine.metrics.inc("server_partitions_registered")
                self._send(
                    {
                        "type": "registered",
                        "table": frame.get("table"),
                        "seq": frame.get("seq"),
                        "complete": table is not None,
                        "rows": table.num_rows if table is not None else None,
                    }
                )
            except ReproError as exc:
                self._send(error_frame(exc))
            return True
        if kind == "close_stmt":
            self._send(
                {"type": "closed", "stmt": frame.get("stmt"),
                 "existed": session.close_statement(frame.get("stmt", -1))}
            )
            return True
        if kind == "debug":
            try:
                what = str(frame.get("what", ""))
                data = server.engine.debug_snapshot(
                    what, n=frame.get("n"), outcome=frame.get("outcome")
                )
                self._send({"type": "debug", "what": what, "data": data})
            except ReproError as exc:
                self._send(error_frame(exc))
            return True
        if kind == "close":
            self._send({"type": "bye"})
            return False
        if kind == "hello":
            self._send(error_frame(ProtocolError("duplicate hello")))
            return True
        # unknown message type: answer with a typed error and keep the
        # connection alive -- an old client against a newer server must
        # degrade per-request, not per-connection
        server.engine.metrics.inc("server_protocol_errors")
        logger.warning("session %s: unknown message type %r", session.id, kind)
        self._send(error_frame(ProtocolError(f"unknown message type {kind!r}")))
        return True

    # -- query execution -------------------------------------------------------

    def _start_query(self, server: "ReproServer", session: Session, frame: Dict) -> bool:
        qid = frame.get("qid")
        if not isinstance(qid, int):
            server.engine.metrics.inc("server_protocol_errors")
            self._send(error_frame(ProtocolError("query frame needs an integer qid")))
            return True
        timeout_ms = frame.get("timeout_ms")
        try:
            token = session.register_query(qid, timeout_ms)
        except ReproError as exc:
            self._send(error_frame(exc, qid))
            return True
        worker = threading.Thread(
            target=self._run_query,
            args=(server, session, frame, qid, token),
            name=f"repro-server-query-{session.id}-{qid}",
            daemon=True,
        )
        server._track_worker(worker)
        worker.start()
        return True

    def _run_query(self, server, session, frame: Dict, qid: int, token) -> None:
        engine = server.engine
        t0 = time.perf_counter()
        try:
            engine.metrics.inc("server_queries")
            params = frame.get("params")
            trace_ctx = frame.get("trace")
            if not isinstance(trace_ctx, dict):
                trace_ctx = None
            partial = bool(frame.get("partial"))
            collect_stats = bool(frame.get("collect_stats"))
            query_id = frame.get("query_id") or None
            approx = frame.get("approx")
            with admission_scope(session.id):
                if frame.get("explain"):
                    text = engine.explain(frame.get("sql", ""), params=params)
                    self._send({"type": "explain", "qid": qid, "text": text})
                    return
                if frame["type"] == "execute":
                    statement = session.statement(frame.get("stmt", -1))
                    result = statement.execute(
                        params, cancel_token=token, trace=trace_ctx is not None,
                        collect_stats=collect_stats, partial=partial,
                        query_id=query_id, approx=approx,
                    )
                else:
                    result = engine.query(
                        frame.get("sql", ""), params=params, cancel_token=token,
                        trace=trace_ctx is not None,
                        collect_stats=collect_stats, partial=partial,
                        query_id=query_id, approx=approx,
                    )
            self._stream_result(server, qid, result, t0, trace_ctx)
        except ReproError as exc:
            self._send(error_frame(exc, qid))
        except Exception as exc:  # noqa: BLE001 -- a server bug must not kill the process
            logger.exception("session %s qid %s: internal error", session.id, qid)
            self._send(error_frame(exc, qid))
        finally:
            session.finish_query(qid)
            engine.metrics.observe(
                "server_request_seconds", time.perf_counter() - t0
            )
            server._untrack_worker(threading.current_thread())

    def _stream_result(
        self, server, qid: int, result, t0: float, trace_ctx: Optional[Dict] = None
    ) -> None:
        """Send header, bounded row batches, and the final ``done``."""
        names = list(result.names)
        dtypes = [_dtype_tag(result.columns[name]) for name in names]
        if not self._send(
            {"type": "result_header", "qid": qid, "names": names, "dtypes": dtypes}
        ):
            return
        rows = result.to_rows()
        step = server.batch_rows
        for start in range(0, len(rows), step):
            if not self._send(
                {"type": "batch", "qid": qid, "rows": rows[start : start + step]}
            ):
                return  # client went away mid-stream
        done = {
            "type": "done",
            "qid": qid,
            "rows": len(rows),
            "elapsed_ms": round((time.perf_counter() - t0) * 1000, 3),
        }
        if getattr(result, "query_id", None):
            done["query_id"] = result.query_id
        if getattr(result, "approx", None) is not None:
            # error bars round-trip: the client re-attaches this block
            # as result.approx
            done["approx"] = result.approx
        if getattr(result, "stats", None) is not None:
            done["stats"] = result.stats.as_dict()
        if trace_ctx is not None and result.trace is not None:
            # adopt the client's trace context: the served span tree goes
            # back tagged with the client-minted trace_id so the client
            # can graft it into its own client->wire->server tree
            result.trace.set(trace_id=trace_ctx.get("trace_id"))
            done["trace"] = span_to_wire(result.trace)
        self._send(done)


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    # handler threads are daemonic so an *abandoned* server can never
    # wedge interpreter exit; a clean stop() still joins them explicitly
    # (ReproServer tracks each connection's reader thread itself)
    daemon_threads = True

    def __init__(self, address, handler, repro: "ReproServer"):
        self.repro = repro
        super().__init__(address, handler)

    def handle_error(self, request, client_address):  # noqa: D102
        logger.exception("unhandled error serving %s", client_address)


class ReproServer:
    """A threaded network front-end over one engine.

    ::

        engine = repro.connect(catalog=..., max_concurrency=8)
        server = ReproServer(engine, port=0, http_port=0)
        host, port = server.start()
        ...
        server.stop()

    ``port=0`` binds an ephemeral port (read it back from
    ``server.port``).  ``http_port`` (optional) additionally serves
    ``GET /metrics`` (Prometheus text) and ``GET /healthz`` on a tiny
    HTTP listener.  ``stop()`` is a clean shutdown: every live session
    is closed (cancelling its in-flight queries), every connection and
    worker thread is joined, and both listening sockets are released.
    """

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        http_port: Optional[int] = None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        server_name: str = "repro-server/1",
    ):
        if batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        self.engine = engine
        self.host = host
        self.port = port
        self.http_port = http_port
        self.batch_rows = batch_rows
        self.max_frame_bytes = max_frame_bytes
        self.server_name = server_name
        self._tcp: Optional[_TCPServer] = None
        self._http: Optional[MetricsHTTPServer] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._next_session = 1
        self._sessions: Dict[str, Tuple[Session, socket.socket, threading.Thread]] = {}
        self._workers: set = set()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, start accepting, and return ``(host, port)``."""
        if self._tcp is not None:
            raise RuntimeError("server already started")
        self._stopping.clear()
        self._tcp = _TCPServer((self.host, self.port), _ConnectionHandler, self)
        self.host, self.port = self._tcp.server_address[:2]
        self._accept_thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-server-accept",
            daemon=True,
        )
        self._accept_thread.start()
        if self.http_port is not None:
            self._http = MetricsHTTPServer(
                self.engine, host=self.host, port=self.http_port,
                governor=self.engine.governor,
            )
            self.http_port = self._http.start()[1]
        logger.info("serving on %s:%d", self.host, self.port)
        return self.host, self.port

    def stop(self, timeout: float = 10.0) -> None:
        """Shut down cleanly: kill sessions, join every thread, unbind."""
        if self._tcp is None:
            return
        self._stopping.set()
        with self._lock:
            live = list(self._sessions.values())
        for session, sock, _reader in live:
            session.close("server shutting down")
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._tcp.shutdown()
        self._tcp.server_close()
        self._tcp = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout)
            self._accept_thread = None
        for _session, _sock, reader in live:
            if reader is not threading.current_thread():
                reader.join(timeout)
        with self._lock:
            workers = list(self._workers)
        for worker in workers:
            worker.join(timeout)
        if self._http is not None:
            self._http.stop()
            self._http = None
        logger.info("server stopped")

    def __enter__(self) -> "ReproServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._tcp is not None

    def active_sessions(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- session bookkeeping ---------------------------------------------------

    def _open_session(self, handler: _ConnectionHandler) -> Session:
        metrics = self.engine.metrics
        with self._lock:
            session_id = f"s{self._next_session}"
            self._next_session += 1
        try:
            peer = "%s:%s" % handler.client_address[:2]
        except Exception:  # pragma: no cover -- exotic address families
            peer = str(handler.client_address)
        session = Session(session_id, self.engine, peer=peer)
        with self._lock:
            self._sessions[session_id] = (
                session,
                handler.request,
                threading.current_thread(),
            )
        metrics.inc("server_connections_opened")
        metrics.inc_gauge("server_active_connections", 1)
        return session

    def _close_session(self, handler: _ConnectionHandler, session: Session) -> None:
        killed = session.close("client disconnected")
        metrics = self.engine.metrics
        if killed:
            metrics.inc("server_disconnect_cancels", killed)
        with self._lock:
            self._sessions.pop(session.id, None)
        metrics.inc("server_connections_closed")
        metrics.inc_gauge("server_active_connections", -1)
        metrics.observe("server_session_seconds", session.elapsed_seconds())

    def _track_worker(self, worker: threading.Thread) -> None:
        with self._lock:
            self._workers.add(worker)

    def _untrack_worker(self, worker: threading.Thread) -> None:
        with self._lock:
            self._workers.discard(worker)
