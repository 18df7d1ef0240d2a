"""Kernel-level profiling: where execution time goes, per trie level.

The tracer (:mod:`repro.obs.trace`) answers "which phase" at span
granularity; the :class:`KernelProfiler` answers the paper's Section V
question -- *which intersection kernels, at which trie levels, over how
many bytes* -- by folding the spans the executors record under the
query's ``execute`` span.  It reads no clock of its own:
``engine.query(sql, profile=True)`` hands the executors the query's
tracer and returns ``KernelProfiler(execute_span)``.

The executor spans it reads:

* ``node.execute`` -- one GHD node (payload ``node``, the node label,
  and ``aggregator_bytes``, the aggregator's approximate memory
  high-water), holding ``node.setup``, the frontier steps and the
  reduce;
* ``frontier.expand`` / ``frontier.step`` -- one attribute's step over
  the frontier (payload ``level``, ``attr``; ``dense`` when only one
  relation binds the attribute, a direct array scan that skips set
  dispatch), each ``frontier.step`` holding one ``probe`` per probed
  participant (payload ``kind``: ``bs_uint`` when the level's
  direct-address table or presence bitmap answered it, ``uint_uint``
  for a binary search of its composite keys; ``bytes``, operand bytes;
  ``hits``, values found);
* ``frontier.emit`` (the slot gathers), ``group.order`` and
  ``group.reduce`` (the code kernels), ``finalize`` (an aggregator's
  result arrays), ``child.materialize`` (a child result's trie build,
  payload ``attrs``, ``tuples`` and ``level_bytes``),
  ``decode.deferred_annotations``, ``scan.execute`` and
  ``blas.execute``.

Every row of the profile is one span name's *self* time (its duration
less its children's) under its GHD node and trie level, so the rows are
disjoint by construction: the collapsed stacks sum to
:meth:`attributed_seconds`, and the gap to ``execute_seconds`` is the
``execute`` span's own dispatch time.  The *counter* totals (call
counts, bytes, layout mix) are deterministic: the frontier's windows
depend only on the data, so repeated runs of one plan make the same
probes over the same operands and report identical :meth:`counters`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .trace import Span


class KernelProfiler:
    """A read-only kernel view of one query's ``execute`` span subtree."""

    def __init__(self, execute: Span):
        #: wall seconds of the ``execute`` span (the denominator of
        #: attribution).
        self.execute_seconds = execute.duration
        #: batched probes by kernel kind.
        self.kernel_counts: Dict[str, int] = {}
        #: wall seconds inside each kernel kind.
        self.kernel_seconds: Dict[str, float] = {}
        #: operand bytes fed to the probes.
        self.bytes_intersected = 0
        #: values the probes found.
        self.intersection_values = 0
        #: operand layout occurrences ("dense" counts direct array scans
        #: of single-participant attributes, which skip set dispatch).
        self.layout_mix: Dict[str, int] = {"bitset": 0, "uint": 0, "dense": 0}
        #: (node label, level index, attr) -> self seconds of the spans
        #: at that trie level.
        self.level_seconds: Dict[Tuple[str, int, str], float] = {}
        #: span name -> self seconds, for the spans bound to no trie level.
        self.category_seconds: Dict[str, float] = {}
        #: node label -> max approximate aggregator bytes observed.
        self.aggregator_bytes: Dict[str, int] = {}
        #: one entry per child result materialized as a trie.
        self.trie_builds: List[Dict] = []
        #: collapsed stack -> self seconds.
        self._stacks: Dict[str, float] = {}
        for child in execute.children:
            self._fold(child, None, None)

    def _fold(
        self, span: Span, node: Optional[str], level: Optional[Tuple[int, str]]
    ) -> None:
        name, payload = span.name, span.payload
        if name == "node.execute":
            node = payload["node"]
            high = payload["aggregator_bytes"]
            self.aggregator_bytes[node] = max(self.aggregator_bytes.get(node, 0), high)
        elif name == "probe":
            kind = payload["kind"]
            self.kernel_counts[kind] = self.kernel_counts.get(kind, 0) + 1
            self.kernel_seconds[kind] = (
                self.kernel_seconds.get(kind, 0.0) + span.duration
            )
            self.bytes_intersected += payload["bytes"]
            self.intersection_values += payload["hits"]
            # a direct table or a presence bitmap is the bitset side of
            # the probe, a search of the composite keys is uint vs uint
            bitset = int(kind == "bs_uint")
            self.layout_mix["bitset"] += bitset
            self.layout_mix["uint"] += 2 - bitset
        elif name == "child.materialize":
            self.trie_builds.append(
                {
                    "attrs": list(payload["attrs"]),
                    "tuples": payload["tuples"],
                    "level_bytes": list(payload["level_bytes"]),
                    "seconds": span.duration,
                }
            )
        elif name == "frontier.step" and payload.get("dense"):
            self.layout_mix["dense"] += 1
        if "level" in payload:
            level = (payload["level"], payload["attr"])
        own = max(0.0, span.duration - sum(c.duration for c in span.children))
        frames = ["execute"]
        if node is not None:
            frames.append(f"node:{node}")
        if level is not None:
            key = (node, level[0], level[1])
            self.level_seconds[key] = self.level_seconds.get(key, 0.0) + own
            frames.append(f"level{level[0]}:{level[1]}")
        else:
            self.category_seconds[name] = self.category_seconds.get(name, 0.0) + own
        frames.append(name)
        stack = ";".join(frames)
        self._stacks[stack] = self._stacks.get(stack, 0.0) + own
        for child in span.children:
            self._fold(child, node, level)

    # -- reading -------------------------------------------------------------

    def attributed_seconds(self) -> float:
        """Execution time the profile accounts for: the self times of
        every span under ``execute``.  The gap to :attr:`execute_seconds`
        is the ``execute`` span's own dispatch time."""
        return sum(self._stacks.values())

    def counters(self) -> Dict:
        """The deterministic totals (counts and bytes, no times).

        The frontier's windows depend only on the data, so repeated runs
        of one plan make the same probes over the same operands and
        these totals are identical across runs.
        """
        return {
            "kernel_counts": dict(sorted(self.kernel_counts.items())),
            "layout_mix": dict(self.layout_mix),
            "bytes_intersected": self.bytes_intersected,
            "intersection_values": self.intersection_values,
            "trie_builds": len(self.trie_builds),
            "trie_bytes": sum(sum(b["level_bytes"]) for b in self.trie_builds),
            # always 0: benchmarks/e2e/layers.py still reads it
            "lazy_builds": 0,
        }

    def level_rows(self) -> List[Dict]:
        """Per-trie-level attribution rows, stable node/level order."""
        return [
            {"node": label, "level": level, "attr": attr, "seconds": seconds}
            for (label, level, attr), seconds in sorted(self.level_seconds.items())
        ]

    def as_dict(self) -> Dict:
        counters = self.counters()
        return {
            "execute_seconds": self.execute_seconds,
            "kernel_counts": counters["kernel_counts"],
            "kernel_seconds": dict(sorted(self.kernel_seconds.items())),
            "bytes_intersected": self.bytes_intersected,
            "intersection_values": self.intersection_values,
            "layout_mix": counters["layout_mix"],
            "categories": dict(sorted(self.category_seconds.items())),
            "aggregator_bytes": dict(sorted(self.aggregator_bytes.items())),
            "trie_builds": [dict(b) for b in self.trie_builds],
            "trie_bytes": counters["trie_bytes"],
            "levels": self.level_rows(),
            "attributed_seconds": self.attributed_seconds(),
        }

    # -- rendering -----------------------------------------------------------

    def collapsed_stacks(self) -> List[str]:
        """Flamegraph collapsed-stack lines (``frame;frame value``).

        Values are integer microseconds of *self* time, so the output
        feeds ``flamegraph.pl`` / speedscope directly: one stack per
        span name under its GHD node and trie level
        (``execute;node:root;level0:a;frontier.step``), or under
        ``execute`` alone for spans outside any node.
        """
        return [
            f"{stack} {int(round(seconds * 1e6))}"
            for stack, seconds in sorted(self._stacks.items())
        ]

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
