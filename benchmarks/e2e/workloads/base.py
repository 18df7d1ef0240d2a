"""What the run protocol needs from a workload.

A workload owns three things: its *inputs* (made from the seed, on the
harness's time), the *program under test* (built by ``setup`` from the
inputs in hand, torn down by ``teardown``), and its *oracle* (reference
answers computed independently, after the timed window).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from .. import oracle, procs
from ..schedule import Op, Record


class Workload:
    #: the name ``--workload`` selects.
    name = ""
    #: callers the closed loop runs in parallel (connections for serve_mix).
    connections = 1
    #: ops per second of the open-loop phase (None: closed loop only).
    open_loop_rate: Optional[float] = None
    #: name of the span around the surface call in the traced walk; a
    #: remote surface gets the local ``core.query`` span as its child.
    surface_span = "core.query"

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        #: a directory inside the checkout for what the program writes
        #: (the saved catalog); the run removes it when it ends.
        self.scratch = scratch
        #: seconds spent in named parts of the latest ``setup`` (register,
        #: spawn, boot, ...), read by the per-layer metrics.
        self.parts: Dict[str, float] = {}
        self._references: Dict[Tuple, Tuple] = {}

    # -- inputs and schedule (harness time) -----------------------------------

    def generate(self) -> None:
        """Make the inputs from ``self.seed``."""
        raise NotImplementedError

    def cold_ops(self) -> List[Op]:
        """The cold pass: one op per template, right after set-up."""
        raise NotImplementedError

    def pass_ops(self, index: int) -> List[Op]:
        """Ops of pass ``index`` (>= 0), a pure function of seed and index."""
        raise NotImplementedError

    # -- the program under test ------------------------------------------------

    def setup(self) -> None:
        """From generated inputs in hand to ready for the first query."""
        raise NotImplementedError

    def run_op(self, op: Op, connection: int = 0):
        """Send one op through the surface and return its result."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop and reap everything ``setup`` started (idempotent)."""

    def surface(self):
        """The QuerySurface under test (engine, client or coordinator)."""
        raise NotImplementedError

    def walk_engine(self):
        """A local engine over the same data for the traced by-hand walk."""
        return self.surface()

    def program_pids(self) -> Optional[Sequence[int]]:
        """Pids of the program under test; None when it is this process."""
        return None

    def peak_rss_mb(self) -> float:
        pids = self.program_pids()
        if pids is None:
            return procs.peak_rss_mb()
        return sum(procs.peak_rss_mb(pid) for pid in pids)

    def timed(self, part: str):
        """Context manager adding the body's wall time to ``self.parts[part]``."""
        return _Part(self.parts, part)

    # -- observation and oracle ------------------------------------------------

    def observe(self, op: Op, result) -> Tuple[Optional[tuple], dict]:
        """Reduce a result to what the oracle needs (kept per record)."""
        if op.kind == "replace":
            return (0, {}), {}
        return oracle.fingerprint(result), {}

    def compute_reference(self, op: Op) -> oracle.Fingerprint:
        """The fingerprint of the reference answer for ``op.key``."""
        raise NotImplementedError

    def check(self, record: Record) -> Optional[str]:
        """Why the op failed (None when it is verified correct)."""
        if record.error is not None:
            return record.error
        op = record.op
        if op.kind == "replace":
            return None  # verified by the read that follows it
        if op.key not in self._references:
            self._references[op.key] = self.compute_reference(op)
        return oracle.mismatch(record.fingerprint, self._references[op.key])

    # -- per-layer metrics only this workload can produce ----------------------

    def layer_metrics(self, ctx) -> Dict[str, float]:
        """Workload-specific per-layer metrics (traced run; see ``layers``)."""
        return {}


class _Part:
    def __init__(self, parts: Dict[str, float], name: str):
        self._parts = parts
        self._name = name

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self._start
        self._parts[self._name] = self._parts.get(self._name, 0.0) + elapsed
