"""Child processes of a run: the served engine, /proc readings, reaping.

Every process the harness starts is stopped and waited for before the
run returns -- on success, on failure and on ``KeyboardInterrupt`` --
and ``live_children()`` is asserted empty afterwards.
"""

from __future__ import annotations

import os
import re
import resource
import select
import signal
import subprocess
import sys
import time
from typing import List, Optional

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_BANNER = re.compile(r"^serving \d+ tables on (?P<host>[^:\s]+):(?P<port>\d+)\s*$")


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of ``pid`` (default: this process) in MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time ``pid`` has used so far."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        # the command name may contain spaces; fields resume after ')'
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def live_children() -> List[int]:
    """Pids whose parent is this process and that have not been reaped."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited between listdir and open
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def kill_children(pids: List[int]) -> None:
    """Last resort for children a failed teardown left behind."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            continue
    for pid in pids:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            continue


class ServedEngine:
    """``python -m repro.cli serve`` over a saved catalog, as a subprocess.

    Binds ephemeral ports (``--port 0 --http-port 0``); the TCP port is
    parsed from the ``serving N tables on host:port`` banner line.
    """

    def __init__(self, catalog_dir: str, max_concurrency: int = 2,
                 boot_timeout: float = 60.0):
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--load", catalog_dir, "--port", "0", "--http-port", "0",
                "--max-concurrency", str(max_concurrency),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.host = ""
        self.port = 0
        try:
            self._read_banner(boot_timeout)
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def _read_banner(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        stdout = self.process.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"server printed no banner within {timeout:.0f}s")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if not ready:
                continue
            line = stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited with status {self.process.wait()} before its banner"
                )
            match = _BANNER.match(line)
            if match:
                self.host, self.port = match["host"], int(match["port"])
                return

    def stop(self, timeout: float = 15.0) -> None:
        """SIGINT for a clean shutdown, SIGKILL if that hangs; always reaps."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing``'s spawn context leaves running.

    Shard workers are spawned, which starts Python's resource tracker as
    a child of this process; it would otherwise outlive the run by a
    moment (it exits when our end of its pipe closes at interpreter exit).
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
