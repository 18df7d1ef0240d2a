"""One shard worker: a full engine behind the frame protocol, as a child process.

A worker is deliberately *not* a special runtime -- it is the exact
:class:`~repro.core.engine.LevelHeadedEngine` +
:class:`~repro.server.ReproServer` pair a standalone deployment runs,
listening on an ephemeral loopback port.  The coordinator talks to it
with the ordinary :class:`~repro.client.ReproClient`, so every shard
inherits admission, cancellation, flight recording, and metrics for
free, and the wire protocol stays the single seam between processes.

Workers spawn via the ``spawn`` multiprocessing context: the parent
coordinator lives inside an arbitrarily threaded host process (HTTP
sidecar, query threads), and ``fork`` under threads is a deadlock
lottery.  The child reports ``("ready", host, port)`` over a pipe once
its server is bound, then blocks until the parent sends ``"stop"`` or
closes its pipe end -- so an abandoned coordinator (or a crashed
parent) reaps its workers through EOF, never leaving orphans.
"""

from __future__ import annotations

import multiprocessing
from typing import Optional

from ..errors import ReproError

__all__ = ["ShardWorker", "worker_main"]


def worker_main(index: int, config, conn) -> None:
    """Child-process entry point: serve one shard engine until told to stop."""
    # imports happen here, in the child, so the parent's pickled args
    # stay small (an EngineConfig dataclass and a pipe handle)
    from ..core.engine import LevelHeadedEngine
    from ..server import ReproServer

    try:
        engine = LevelHeadedEngine(config=config)
        server = ReproServer(
            engine, port=0, server_name=f"repro-shard-worker/{index}"
        )
        host, port = server.start()
    except BaseException as exc:  # pragma: no cover -- startup failure path
        try:
            conn.send(("failed", str(exc)))
        finally:
            conn.close()
        return
    conn.send(("ready", host, port))
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent died or closed: shut down cleanly
            if message == "stop":
                break
    finally:
        server.stop()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class ShardWorker:
    """Parent-side handle for one worker process and its client connection."""

    def __init__(self, index: int, config=None, start_method: Optional[str] = None):
        ctx = multiprocessing.get_context(start_method or "spawn")
        self.index = index
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.client = None
        self._conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=worker_main,
            args=(index, config, child_conn),
            name=f"repro-shard-{index}",
            daemon=True,  # a dying parent never leaves worker orphans
        )
        self.process.start()
        # the child owns its end now; keeping it open here would mask
        # EOF detection in the worker loop
        child_conn.close()

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the worker's server is bound and connect a client."""
        if self.client is not None:
            return
        if not self._conn.poll(timeout):
            self.stop()
            raise ReproError(
                f"shard worker {self.index} did not report ready "
                f"within {timeout:.0f}s"
            )
        message = self._conn.recv()
        if not (isinstance(message, tuple) and message[0] == "ready"):
            detail = message[1] if isinstance(message, tuple) and len(message) > 1 else message
            self.stop()
            raise ReproError(f"shard worker {self.index} failed to start: {detail}")
        _, self.host, self.port = message
        from ..client import ReproClient

        self.client = ReproClient(self.host, self.port)

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, timeout: float = 10.0) -> None:
        """Close the client, ask the worker to exit, and reap it (idempotent)."""
        if self.client is not None:
            try:
                self.client.close()
            except Exception:
                pass
            self.client = None
        try:
            self._conn.send("stop")
        except (OSError, ValueError, BrokenPipeError):
            pass  # already stopping, or the worker is gone
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover -- stuck worker
            self.process.terminate()
            self.process.join(5.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(5.0)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass
