"""The generic worst-case optimal join (Algorithm 1), one attribute at a time.

One :class:`NodeExecutor` runs one GHD node.  Instead of binding one
value at a time, it advances a *frontier* -- one row per live key
prefix, holding every relation's current trie node id and the group-key
columns bound so far -- through the optimizer's attribute order.  Each
attribute is one step:

* **expand** -- the participant with the fewest children across the
  frontier lists them with one CSR gather over its level's
  ``offsets``/``flat_values``;
* **probe** -- every other participant looks the candidates up with one
  batched :meth:`~repro.trie.trie.TrieLevel.batch_child_ids` call and
  the rows that miss are dropped: the intersections of every prefix's
  sets at once.  The level answers from the structure its cells fit
  (:meth:`~repro.trie.trie.TrieLevel.probe_index`): an int64
  direct-address table on small levels, a presence bitmap with a rank
  directory -- the paper's bitset layout, bs∩uint -- on denser ones, a
  search over the ``(parent << 32) | value`` composite (uint∩uint) on
  the sparse rest;
* **fetch** -- a group annotation needed mid-walk is one batched trie
  lookup per fetcher; rows whose prefix is absent drop out.

After the last attribute the annotation slots are gathered by node id,
and rows reduce per group through :mod:`repro.xcution.codes`
(``row_values`` + ``group_runs`` + ``segmented_reduce``), the kernels the
scan executor uses.  A projected-away attribute (Section
V-A2's relaxed order included) is simply a column the reduce ignores.

The frontier is walked depth first in windows of at most
:data:`CHUNK_ROWS` candidate rows, so memory stays bounded by depth x
chunk whatever the attribute order, and the cancel token is polled once
per window step.  The level-0 step runs whole: its candidates are one
root set.  Window boundaries depend only on the data, so every run of a
plan does the same arithmetic and counts the same work.
The whole walk runs on the query's own thread; the paper's parallel
outermost loop (Section III-D) is ``shard://local?workers=N``, which
splits it across processes.

Summation order: per group, a window's contributions are summed in walk
order (``np.add.reduceat``), then the window partials are summed in
window order.  Integer-valued aggregates are exact; float sums are
identical on every run.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..obs import profile as _profile
from .aggregator import GroupAggregator
from .codes import reduce_groups, row_values
from .plan import EngineConfig, NodePlan, RelationBinding
from .stats import ExecutionStats

#: most candidate rows one frontier step produces (the level-0 step
#: excepted: its candidates are one root set, and it runs whole).
CHUNK_ROWS = 1 << 16


class _Frontier:
    """Live key prefixes, one row each."""

    __slots__ = ("size", "nodes", "codes", "keys")

    def __init__(self, size: int, nodes=None, codes=None, keys=None):
        self.size = size
        #: binding index -> trie node id at the binding's deepest bound level
        self.nodes: Dict[int, np.ndarray] = nodes if nodes is not None else {}
        #: attribute -> bound codes (only attributes a walk fetcher still reads)
        self.codes: Dict[str, np.ndarray] = codes if codes is not None else {}
        #: group-key columns, in walk-layout order
        self.keys: List[np.ndarray] = keys if keys is not None else []

    def take(self, rows: np.ndarray) -> "_Frontier":
        return _Frontier(
            int(rows.size),
            {b: ids[rows] for b, ids in self.nodes.items()},
            {a: c[rows] for a, c in self.codes.items()},
            [k[rows] for k in self.keys],
        )


class _Expansion:
    """One attribute's step over a frontier: the relation whose children
    lead (are expanded; the others are probed) and the candidate windows."""

    __slots__ = ("lead", "starts", "counts", "ends", "windows")

    def __init__(self, lead, starts, counts, window_rows: Optional[int]):
        self.lead = lead
        self.starts = starts
        self.counts = counts
        #: running total of candidates through each frontier row
        self.ends = np.cumsum(counts)
        total = int(self.ends[-1]) if self.ends.size else 0
        step = window_rows or max(total, 1)
        self.windows = [(lo, min(lo + step, total)) for lo in range(0, total, step)]


class NodeExecutor:
    """Executes one GHD node over its relation bindings."""

    def __init__(
        self,
        node: NodePlan,
        bindings: Sequence[RelationBinding],
        config: Optional[EngineConfig] = None,
        stats: Optional[ExecutionStats] = None,
        cancel=None,
    ):
        self.node = node
        self.stats = stats if stats is not None else ExecutionStats()
        self.bindings = list(bindings)
        self.config = config or EngineConfig()
        #: optional :class:`~repro.core.governor.CancelToken` polled once
        #: per frontier step, so a ``cancel()`` or an elapsed deadline
        #: stops the walk at its next step.
        self.cancel = cancel
        #: the calling thread's active :class:`repro.obs.KernelProfiler`
        #: (None when none is active): receives the wall time of the
        #: frontier steps per attribute position.
        self.profiler = _profile.active()
        self.attrs = node.attrs
        n_attrs = len(self.attrs)
        self.last = n_attrs - 1
        self._level_seconds = [0.0] * n_attrs
        position = {attr: i for i, attr in enumerate(self.attrs)}

        # participation map: at_attr[p] = [(binding index, trie level)]
        self.at_attr: List[List[Tuple[int, int]]] = [[] for _ in range(n_attrs)]
        for bi, binding in enumerate(self.bindings):
            for level, vertex in enumerate(binding.vertices):
                if vertex not in position:
                    raise ExecutionError(
                        f"binding '{binding.alias}' vertex '{vertex}' missing from "
                        f"node attributes {list(self.attrs)}"
                    )
                self.at_attr[position[vertex]].append((bi, level))
        for p, parts in enumerate(self.at_attr):
            if not parts:
                raise ExecutionError(f"attribute '{self.attrs[p]}' has no relations")

        self.slots_at = [
            [(slot_id, b.trie.annotation(slot_id)) for slot_id in b.slot_ids]
            for b in self.bindings
        ]
        self.fetchers_at: List[List] = [[] for _ in range(n_attrs)]
        for fetcher in node.group_fetchers:
            self.fetchers_at[fetcher.fetch_position].append(fetcher)
        materialized = set(node.materialized)
        self.materialized = [attr in materialized for attr in self.attrs]

        # what a frontier row must carry out of the step at p: node ids of
        # relations that participate later or hold slots, codes of
        # attributes a fetcher at p or later reads
        self._carry_nodes: List[frozenset] = []
        self._carry_codes: List[Tuple[str, ...]] = []
        for p in range(n_attrs):
            later = {bi for q in range(p + 1, n_attrs) for bi, _ in self.at_attr[q]}
            later |= {bi for bi, slots in enumerate(self.slots_at) if slots}
            self._carry_nodes.append(frozenset(later))
            read = {
                v
                for fetcher in node.group_fetchers
                if fetcher.fetch_position >= p
                for v in fetcher.vertices
            }
            self._carry_codes.append(
                tuple(a for a in self.attrs[: p + 1] if a in read)
            )

        self.aggs = node.aggregates
        self.aggregator = GroupAggregator(
            [a.func for a in self.aggs],
            memory_budget_bytes=self.config.memory_budget_bytes,
            group_width=len(node.walk_layout),
        )

    # -- public entry ---------------------------------------------------------

    def run(self) -> GroupAggregator:
        if not self.attrs:
            raise ExecutionError("join node with no attributes (use the scan path)")
        if self.cancel is not None:
            self.cancel.check()
        self.stats.nodes_executed += 1
        self._descend(0, _Frontier(1))
        self.aggregator.consolidate()
        self.aggregator.check_budget()
        self.stats.groups_emitted += len(self.aggregator)
        self.stats.aggregator_spills += self.aggregator.spills
        if self.profiler is not None:
            self.profiler.record_node(
                self.node.result_slot or "root",
                self.attrs,
                self._level_seconds,
                self.aggregator.approx_bytes(),
            )
        return self.aggregator

    # -- the frontier walk ----------------------------------------------------

    def _descend(self, p: int, frontier: _Frontier) -> None:
        """Bind attribute ``p`` (and everything below it) for ``frontier``."""
        expansion = self._expand(p, frontier)
        for window in expansion.windows:
            self._walk(p, frontier, expansion, window)

    def _walk(self, p: int, frontier: _Frontier, expansion: _Expansion, window) -> None:
        """Bind attribute ``p`` for one window, then everything below it."""
        rows = self._step(p, frontier, expansion, window)
        if p == self.last:
            self._emit(rows)
        elif rows.size:
            self._descend(p + 1, rows)

    def _expand(self, p: int, frontier: _Frontier) -> _Expansion:
        """Choose the participant with the fewest children at ``p``."""
        start = time.perf_counter() if self.profiler is not None else 0.0
        parts = self.at_attr[p]
        n = frontier.size
        if len(parts) > 1:
            # one pairwise intersection per participant beyond the first,
            # for every prefix -- Algorithm 1's count, batched
            self.stats.intersections += (len(parts) - 1) * n
        best = None
        for bi, lvl in parts:
            level = self.bindings[bi].trie.level(lvl)
            if lvl == 0:
                # every prefix sees the whole root set
                total = n * level.n_nodes
                starts = counts = None
            else:
                parents = frontier.nodes[bi]
                starts = level.offsets[parents]
                counts = level.offsets[parents + 1] - starts
                total = int(counts.sum())
            if best is None or total < best[0]:
                best = (total, (bi, lvl), starts, counts)
        _total, lead, starts, counts = best
        if starts is None:
            starts = np.zeros(n, dtype=np.int64)
            counts = np.full(n, self.bindings[lead[0]].trie.level(0).n_nodes, np.int64)
        expansion = _Expansion(lead, starts, counts, CHUNK_ROWS if p else None)
        if self.profiler is not None:
            self._level_seconds[p] += time.perf_counter() - start
        return expansion

    def _step(self, p: int, frontier: _Frontier, expansion: _Expansion, window) -> _Frontier:
        """Expand the lead's children in ``window``, probe the others."""
        if self.cancel is not None:
            self.stats.cancel_checks += 1
            self.cancel.check()
        start = time.perf_counter() if self.profiler is not None else 0.0
        lo, hi = window
        ends, counts = expansion.ends, expansion.counts
        # frontier rows whose candidates overlap [lo, hi), and how many each
        first = int(np.searchsorted(ends, lo, side="right"))
        stop = int(np.searchsorted(ends, hi - 1, side="right")) + 1 if hi > lo else first
        begins = ends[first:stop] - counts[first:stop]
        taken = np.minimum(ends[first:stop], hi) - np.maximum(begins, lo)
        local = np.repeat(np.arange(stop - first, dtype=np.int64), taken)
        rows = local + first
        # candidate g of row r is child starts[r] + (g - begins[r])
        shift = expansion.starts[first:stop] - begins
        lead_bi, lead_lvl = expansion.lead
        ids = {lead_bi: np.arange(lo, hi, dtype=np.int64) + shift[local]}
        values = self.bindings[lead_bi].trie.level(lead_lvl).flat_values[
            ids[lead_bi]
        ]
        parts = self.at_attr[p]
        if len(parts) == 1 and self.profiler is not None:
            self.profiler.record_scan()
        for bi, lvl in parts:
            if bi == lead_bi:
                continue
            hit = self._probe(bi, lvl, None if lvl == 0 else frontier.nodes[bi][rows], values)
            keep = hit >= 0
            if not keep.all():
                kept = np.flatnonzero(keep)
                rows, values, hit = rows[kept], values[kept], hit[kept]
                ids = {b: v[kept] for b, v in ids.items()}
            ids[bi] = hit
        if len(parts) > 1:
            self.stats.intersection_output += int(rows.size)
        if p < self.last or self.fetchers_at[p]:
            self.stats.loop_values += int(rows.size)

        carry = self._carry_nodes[p]
        nodes = {b: v[rows] for b, v in frontier.nodes.items() if b in carry and b not in ids}
        nodes.update((b, v) for b, v in ids.items() if b in carry)
        attr = self.attrs[p]
        codes = {
            a: values if a == attr else frontier.codes[a][rows]
            for a in self._carry_codes[p]
        }
        keys = [k[rows] for k in frontier.keys]
        if self.materialized[p]:
            keys.append(values)
        out = _Frontier(int(rows.size), nodes, codes, keys)
        for fetcher in self.fetchers_at[p]:
            columns = [values if v == attr else out.codes[v] for v in fetcher.vertices]
            found = fetcher.trie.lookup_nodes_batch(columns)
            # one request per frontier row, found or not
            self.stats.fetches += out.size
            if (found < 0).any():
                kept = np.flatnonzero(found >= 0)
                out, values, found = out.take(kept), values[kept], found[kept]
            out.keys.append(fetcher.trie.annotation(fetcher.ref_id).values[found])
        if self.profiler is not None:
            self._level_seconds[p] += time.perf_counter() - start
        return out

    def _probe(self, bi: int, lvl: int, parents, values: np.ndarray) -> np.ndarray:
        """Child ids of ``values`` under ``parents`` at one relation level."""
        level = self.bindings[bi].trie.level(lvl)
        profiler = self.profiler
        if profiler is None:
            return level.batch_child_ids(parents, values)
        start = time.perf_counter()
        hit = level.batch_child_ids(parents, values)
        # one batched probe = one intersection kernel call: a direct
        # table or a presence bitmap is the bitset side, a search of the
        # composite keys is uint against uint
        dense = level.probe_kind != "search"
        profiler.record_kernel(
            "bs_uint" if dense else "uint_uint",
            time.perf_counter() - start,
            bytes_in=values.nbytes + level.probe_nbytes,
            output_values=int(np.count_nonzero(hit >= 0)),
            bitset_operands=int(dense),
        )
        return hit

    def _emit(self, rows: _Frontier) -> None:
        """Reduce fully bound rows to one row per group."""
        if not rows.size:
            return
        start = time.perf_counter() if self.profiler is not None else 0.0
        slots = {
            slot_id: annotation.values[rows.nodes[bi]]
            for bi, pairs in enumerate(self.slots_at)
            for slot_id, annotation in pairs
        }
        if self.profiler is not None:
            self.profiler.add_category("frontier.emit", time.perf_counter() - start)
        keys, matrix = reduce_groups(
            self.aggregator.agg_funcs,
            rows.keys,
            row_values(self.aggs, slots, rows.size),
            rows.size,
        )
        self.aggregator.add_batch([_key_dtype(k) for k in keys], matrix)


def _key_dtype(column: np.ndarray) -> np.ndarray:
    """Integer keys as int64 and float keys as float64, whatever the
    width of the trie level or annotation they were read from."""
    kind = column.dtype.kind
    if kind in "iu":
        return column.astype(np.int64, copy=False)
    if kind == "f":
        return column.astype(np.float64, copy=False)
    return column
