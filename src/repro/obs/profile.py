"""Kernel-level profiling: where execution time goes, per trie level.

The tracer (:mod:`repro.obs.trace`) answers "which phase" at span
granularity; the :class:`KernelProfiler` answers the paper's Section V
question -- *which intersection kernels, at which trie levels, over how
many bytes* -- by hooking the three hot paths of execution:

* :func:`repro.sets.ops.intersect` -- per-kernel call counts, wall
  time, operand bytes, and the set-layout dispatch mix (``bs_bs`` /
  ``bs_uint`` / ``uint_uint``);
* :class:`repro.xcution.generic_join.NodeExecutor` -- the wall time of
  its frontier steps per attribute position (trie level) of each GHD
  node, one kernel call per batched probe (``bs_uint`` when the level's
  direct-address table or presence bitmap answered it, ``uint_uint``
  for a binary search of its composite keys),
  the ``frontier.emit`` slot gathers, and the aggregator's approximate
  memory high-water;
* :func:`repro.trie.build_trie` -- child-result materialization time
  and per-level trie bytes.

Activation uses a thread-local slot (read through :func:`active`)
rather than parameter threading for the set/trie hooks: the
intersection kernel and the trie builders are called from deep inside
numpy-driven loops, and a single ``is None`` check keeps the
unprofiled path free.  The slot is per thread, like the governor's
ambient cancel token, so a query on one thread never records into a
profiler another thread activated.  The engine activates a profiler
around ``execute_plan`` only, so profiles attribute execution, not
compilation.

All mutating record methods take the profiler's lock, so one profiler
can be fed from several threads.  The *counter* totals (call counts,
bytes, layout mix) are deterministic: the frontier's windows depend
only on the data, so repeated runs of one plan make the same probes
over the same operands and report identical :meth:`counters`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

class _Slot(threading.local):
    #: this thread's active profiler; hot paths read it via active().
    profiler: Optional["KernelProfiler"] = None


_SLOT = _Slot()


def active() -> Optional["KernelProfiler"]:
    """This thread's active profiler (None when none is active)."""
    return _SLOT.profiler


@contextmanager
def activate(profiler: "KernelProfiler"):
    """Make ``profiler`` the active profiler of the calling thread.

    Nested activations restore the previous profiler on exit.  Other
    threads are unaffected: each sees only what it activated itself.
    """
    previous = active()
    _SLOT.profiler = profiler
    try:
        yield profiler
    finally:
        _SLOT.profiler = previous


class KernelProfiler:
    """Accumulates kernel-level execution measurements for one query."""

    def __init__(self):
        self._lock = threading.Lock()
        #: pairwise intersection calls by kernel kind.
        self.kernel_counts: Dict[str, int] = {}
        #: wall seconds inside each kernel kind.
        self.kernel_seconds: Dict[str, float] = {}
        #: operand bytes fed to intersection kernels.
        self.bytes_intersected = 0
        #: values produced by intersection kernels.
        self.intersection_values = 0
        #: operand layout occurrences ("dense" counts direct array scans
        #: of single-participant attributes, which skip set dispatch).
        self.layout_mix: Dict[str, int] = {"bitset": 0, "uint": 0, "dense": 0}
        #: (node label, level index, attr) -> self wall seconds.
        self.level_seconds: Dict[Tuple[str, int, str], float] = {}
        #: non-level execution categories (trie.build, node.setup,
        #: finalize, decode.deferred) -> wall seconds.
        self.category_seconds: Dict[str, float] = {}
        #: node label -> max approximate aggregator bytes observed.
        self.aggregator_bytes: Dict[str, int] = {}
        #: one entry per trie built during execution (child results).
        self.trie_builds: List[Dict] = []
        #: wall seconds of the whole ``execute_plan`` call (set by the
        #: engine after execution; the denominator of attribution).
        self.execute_seconds = 0.0

    # -- recording hooks -----------------------------------------------------

    def record_kernel(
        self, kind: str, seconds: float, bytes_in: int, output_values: int,
        bitset_operands: int,
    ) -> None:
        with self._lock:
            self.kernel_counts[kind] = self.kernel_counts.get(kind, 0) + 1
            self.kernel_seconds[kind] = self.kernel_seconds.get(kind, 0.0) + seconds
            self.bytes_intersected += int(bytes_in)
            self.intersection_values += int(output_values)
            self.layout_mix["bitset"] += bitset_operands
            self.layout_mix["uint"] += 2 - bitset_operands

    def record_scan(self) -> None:
        """One single-participant attribute served by a direct array scan."""
        with self._lock:
            self.layout_mix["dense"] += 1

    def record_node(
        self,
        label: str,
        attrs: Sequence[str],
        level_seconds: Sequence[float],
        aggregator_bytes: int,
    ) -> None:
        """Record one GHD node's per-level times and memory high-water.

        ``level_seconds[p]`` is the wall time of the frontier steps that
        bound attribute position ``p``.
        """
        with self._lock:
            for p, attr in enumerate(attrs):
                key = (label, p, attr)
                self.level_seconds[key] = (
                    self.level_seconds.get(key, 0.0) + level_seconds[p]
                )
            previous = self.aggregator_bytes.get(label, 0)
            self.aggregator_bytes[label] = max(previous, int(aggregator_bytes))

    def record_trie_build(
        self, attrs: Sequence[str], tuples: int, level_bytes: Sequence[int],
        seconds: float,
    ) -> None:
        with self._lock:
            self.trie_builds.append(
                {
                    "attrs": list(attrs),
                    "tuples": int(tuples),
                    "level_bytes": [int(b) for b in level_bytes],
                    "seconds": seconds,
                }
            )
            self.category_seconds["trie.build"] = (
                self.category_seconds.get("trie.build", 0.0) + seconds
            )

    def add_category(self, name: str, seconds: float) -> None:
        with self._lock:
            self.category_seconds[name] = (
                self.category_seconds.get(name, 0.0) + seconds
            )

    # -- reading -------------------------------------------------------------

    def attributed_seconds(self) -> float:
        """Execution time the profile accounts for: level self times plus
        the non-level categories (trie builds, node setup, finalize,
        deferred decode).  This approaches :attr:`execute_seconds`; the
        gap is dispatch overhead."""
        with self._lock:
            return sum(self.level_seconds.values()) + sum(
                self.category_seconds.values()
            )

    def counters(self) -> Dict:
        """The deterministic totals (counts and bytes, no times).

        The frontier's windows depend only on the data, so repeated runs
        of one plan make the same intersections over the same operands
        and these totals are identical across runs.
        """
        with self._lock:
            return {
                "kernel_counts": dict(sorted(self.kernel_counts.items())),
                "layout_mix": dict(self.layout_mix),
                "bytes_intersected": self.bytes_intersected,
                "intersection_values": self.intersection_values,
                "trie_builds": len(self.trie_builds),
                "trie_bytes": sum(
                    sum(b["level_bytes"]) for b in self.trie_builds
                ),
                # always 0: benchmarks/e2e/layers.py still reads it
                "lazy_builds": 0,
            }

    def level_rows(self) -> List[Dict]:
        """Per-trie-level attribution rows, stable node/level order."""
        with self._lock:
            items = sorted(self.level_seconds.items())
        return [
            {"node": label, "level": level, "attr": attr, "seconds": seconds}
            for (label, level, attr), seconds in items
        ]

    def as_dict(self) -> Dict:
        with self._lock:
            trie_bytes = sum(sum(b["level_bytes"]) for b in self.trie_builds)
            out = {
                "execute_seconds": self.execute_seconds,
                "kernel_counts": dict(sorted(self.kernel_counts.items())),
                "kernel_seconds": dict(sorted(self.kernel_seconds.items())),
                "bytes_intersected": self.bytes_intersected,
                "intersection_values": self.intersection_values,
                "layout_mix": dict(self.layout_mix),
                "categories": dict(sorted(self.category_seconds.items())),
                "aggregator_bytes": dict(sorted(self.aggregator_bytes.items())),
                "trie_builds": [dict(b) for b in self.trie_builds],
                "trie_bytes": trie_bytes,
            }
        out["levels"] = self.level_rows()
        out["attributed_seconds"] = self.attributed_seconds()
        return out

    # -- rendering -----------------------------------------------------------

    def collapsed_stacks(self) -> List[str]:
        """Flamegraph collapsed-stack lines (``frame;frame value``).

        Values are integer microseconds of *self* time, so the output
        feeds ``flamegraph.pl`` / speedscope directly: one stack per
        trie level under its GHD node, plus the non-level categories.
        """
        lines: List[str] = []
        for row in self.level_rows():
            lines.append(
                f"execute;node:{row['node']};level{row['level']}:{row['attr']} "
                f"{int(round(row['seconds'] * 1e6))}"
            )
        with self._lock:
            categories = sorted(self.category_seconds.items())
        for name, seconds in categories:
            lines.append(f"execute;{name} {int(round(seconds * 1e6))}")
        return lines

    def render(self) -> str:
        """A printable kernel-profile report (the CLI's ``\\profile``)."""
        snap = self.as_dict()
        execute_ms = snap["execute_seconds"] * 1000
        attributed_ms = snap["attributed_seconds"] * 1000
        coverage = (
            f" ({attributed_ms / execute_ms * 100:.1f}%)" if execute_ms > 0 else ""
        )
        lines = [
            "kernel profile",
            f"  execute: {execute_ms:.3f}ms  attributed: "
            f"{attributed_ms:.3f}ms{coverage}",
            "",
            "collapsed stack (self-time, us):",
        ]
        lines.extend(f"  {line}" for line in self.collapsed_stacks())
        if snap["kernel_counts"]:
            lines.append("")
            lines.append("intersection kernels:")
            for kind in snap["kernel_counts"]:
                lines.append(
                    f"  {kind}: {snap['kernel_counts'][kind]} calls, "
                    f"{snap['kernel_seconds'][kind] * 1000:.3f}ms"
                )
            lines.append(
                f"  bytes intersected: {snap['bytes_intersected']}  "
                f"values out: {snap['intersection_values']}"
            )
        mix = snap["layout_mix"]
        lines.append(
            f"layout mix: bitset={mix['bitset']} uint={mix['uint']} "
            f"dense={mix['dense']}"
        )
        if snap["aggregator_bytes"]:
            lines.append("aggregator high-water (approx bytes):")
            for label, nbytes in snap["aggregator_bytes"].items():
                lines.append(f"  {label}: {nbytes}")
        if snap["trie_builds"]:
            lines.append(
                f"tries built during execution: {len(snap['trie_builds'])} "
                f"({snap['trie_bytes']} bytes)"
            )
            for build in snap["trie_builds"]:
                lines.append(
                    f"  {','.join(build['attrs'])}: {build['tuples']} tuples, "
                    f"{sum(build['level_bytes'])} bytes, "
                    f"{build['seconds'] * 1000:.3f}ms"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"KernelProfiler(execute={self.execute_seconds * 1000:.3f}ms, "
            f"levels={len(self.level_seconds)}, "
            f"kernels={sum(self.kernel_counts.values())})"
        )
