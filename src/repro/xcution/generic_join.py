"""The generic worst-case optimal join interpreter (Algorithm 1).

One :class:`NodeExecutor` runs one GHD node: a nest of loops, one per
attribute in the optimizer's chosen order, whose bodies are trie
descents and set intersections (Table I's operations).  Three fast
paths keep the interpreter competitive:

* **vectorized tail** -- at the last attribute, intersection results,
  rank lookups, and annotation reads happen on whole numpy arrays;
* **relaxed-order kernel** -- when the Section V-A2 relaxation fired
  (a projected-away attribute precedes the final materialized one),
  per-group contributions accumulate through a 1-attribute union
  implemented as a vectorized scatter-add, recovering MKL's sparse
  matmul loop structure;
* **parallel outer loop** -- the paper's ``parfor``: the outermost
  intersection is chunked across worker threads, each with a private
  aggregator that is merged at the end.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError, OutOfMemoryBudgetError
from ..sets.ops import intersect_many
from .aggregator import GroupAggregator
from .parfor import chunk_slices, parfor_chunks
from .plan import EngineConfig, NodePlan, RelationBinding
from .stats import ExecutionStats


class NodeExecutor:
    """Executes one GHD node over its relation bindings."""

    def __init__(
        self,
        node: NodePlan,
        bindings: Sequence[RelationBinding],
        config: Optional[EngineConfig] = None,
        stats: Optional[ExecutionStats] = None,
        profiler=None,
        cancel=None,
    ):
        self.node = node
        self.stats = stats if stats is not None else ExecutionStats()
        self.bindings = list(bindings)
        self.config = config or EngineConfig()
        #: optional :class:`~repro.core.governor.CancelToken` polled at
        #: chunk granularity (per loop value / vectorized batch); shared
        #: verbatim with parfor worker clones so a ``cancel()`` or an
        #: elapsed deadline stops every thread at its next poll.
        self.cancel = cancel
        self.attrs = node.attrs
        n_attrs = len(self.attrs)
        #: optional :class:`repro.obs.KernelProfiler`; when set, the
        #: executor accumulates inclusive wall time per attribute
        #: position in ``_level_incl`` (self time per trie level is
        #: derived at the end of ``run``).
        self.profiler = profiler
        self._level_incl: Optional[List[float]] = (
            [0.0] * n_attrs if profiler is not None else None
        )
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

        self.last_level = [len(b.vertices) - 1 for b in self.bindings]
        self.slots_at = [
            [(slot_id, b.trie.annotation(slot_id)) for slot_id in b.slot_ids]
            for b in self.bindings
        ]
        self.fetchers_at: List[List] = [[] for _ in range(n_attrs)]
        for fetcher in node.group_fetchers:
            self.fetchers_at[fetcher.fetch_position].append(fetcher)

        self.materialized_set = set(node.materialized)
        self.aggs = node.aggregates
        self.n_aggs = len(self.aggs)
        self._all_additive = all(a.func in ("sum", "count") for a in self.aggs)
        # Group keys are provably unique (no dictionary merge needed)
        # when they are exactly the materialized join attributes and at
        # most one attribute is projected away, sitting at the relaxed
        # penultimate position: trie distinctness then yields each group
        # exactly once (an earlier projected attribute would repeat
        # groups across its values).
        non_materialized = [
            i for i, attr in enumerate(self.attrs) if attr not in self.materialized_set
        ]
        self._unique_groups = (
            not node.group_fetchers
            and all(kind == "vertex" for kind, _ in node.walk_layout)
            and bool(self.attrs)
            and self.attrs[-1] in self.materialized_set
            and (
                not non_materialized
                or (len(non_materialized) == 1 and non_materialized[0] == n_attrs - 2)
            )
        )

        # mutable per-run state
        self.state = [0] * len(self.bindings)  # current trie node id
        self.slot_env: Dict[str, float] = {}
        self.current_code: Dict[str, int] = {}
        self._fetch_cache: Dict[Tuple, object] = {}
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
        # The flat kernel is already fully vectorized (whole-node numpy
        # passes), so it runs as-is under parallel=True too: chunking a
        # single array kernel across threads would only change the
        # counters, not the work.
        if self.profiler is not None:
            start = time.perf_counter()
            flat = self._try_flat_two_level()
            if flat:
                # the whole-node columnar kernel spans both levels;
                # attribute it to the outermost
                self._level_incl[0] += time.perf_counter() - start
        else:
            flat = self._try_flat_two_level()
        if flat:
            self.stats.flat_kernels += 1
            if self.cancel is not None:
                self.stats.cancel_checks += 1
            self.stats.groups_emitted += len(self.aggregator)
            self.stats.aggregator_spills += self.aggregator.spills
            self._record_profile()
            return self.aggregator
        if self.config.parallel:
            self._run_parallel()
        else:
            self._recurse(0, ())
        self.aggregator.check_budget()
        self.stats.groups_emitted += len(self.aggregator)
        self.stats.aggregator_spills += self.aggregator.spills
        self._record_profile()
        return self.aggregator

    def _record_profile(self) -> None:
        if self.profiler is None:
            return
        self.profiler.record_node(
            self.node.result_slot or "root",
            self.attrs,
            self._level_incl,
            self.aggregator.approx_bytes(),
        )

    def _run_parallel(self) -> None:
        """parfor over the outermost loop (Section III-D).

        Each worker gets a *private* ``ExecutionStats`` and a *private*
        aggregator whose memory budget is its share of the configured
        ``memory_budget_bytes``; partial results are merged in chunk
        order after ``parfor_chunks`` completes, so repeated runs yield
        byte-identical counters and the aggregate state never exceeds
        the global budget (re-checked on every merge).  Counters that
        count *kernel invocations* (a vectorized tail or a relaxed
        union applied to the whole outer intersection) are normalized
        back to one logical invocation so parallel stats match the
        serial run exactly.
        """
        start = time.perf_counter() if self.profiler is not None else 0.0
        arr, child_ids = self._intersect_at(0)
        if self.profiler is not None:
            self._level_incl[0] += time.perf_counter() - start
        if arr.size == 0:
            return
        parts = self.at_attr[0]
        n_chunks = len(chunk_slices(arr.size, self.config.num_threads))
        budget = self.config.memory_budget_bytes
        worker_budget = None if budget is None else max(1, budget // n_chunks)
        # add_batch_unique assumes a group key never repeats; when the
        # chunked outermost attribute is materialized every chunk's keys
        # carry a distinct prefix, but a projected-away outer attribute
        # (the relaxed head shape) can emit the same group from several
        # chunks -- those workers must merge through the dict path.
        chunk_safe_unique = self.attrs[0] in self.materialized_set

        def worker(sl: slice):
            worker_stats = ExecutionStats()
            clone = NodeExecutor(
                self.node,
                self.bindings,
                _serial(self.config, worker_budget),
                stats=worker_stats,
                profiler=self.profiler,
                cancel=self.cancel,
            )
            if not chunk_safe_unique:
                clone._unique_groups = False
            clone._drive_slice(parts, arr[sl], [c[sl] for c in child_ids])
            return clone.aggregator, worker_stats, clone._level_incl

        for partial, worker_stats, worker_incl in parfor_chunks(
            worker, arr.size, self.config.num_threads, cancel=self.cancel
        ):
            # merge the worker's stats BEFORE its aggregate state: a
            # budget blowout during the merge must not lose the deltas
            # of work that was already done (the exception carries the
            # merged-so-far counters as partial_stats).
            self.stats.merge(worker_stats)
            try:
                self.aggregator.merge(partial)
            except OutOfMemoryBudgetError as exc:
                exc.partial_stats = self.stats
                raise
            if worker_incl is not None:
                # sum of worker thread times: under parallel execution
                # the per-level profile reports aggregate thread time,
                # not wall time (the counters stay chunk-invariant)
                for p, seconds in enumerate(worker_incl):
                    self._level_incl[p] += seconds
        if n_chunks > 1:
            self._normalize_chunked_kernel_counts(n_chunks)

    def _normalize_chunked_kernel_counts(self, n_chunks: int) -> None:
        """Count a chunked top-level kernel once, as the serial run does.

        When the whole node is one vectorized tail (single attribute) or
        one relaxed union (projected-away head), every chunk invokes the
        kernel on its slice; logically it is still a single application.
        """
        last = len(self.attrs) - 1
        if last == 0 and self._tail_ok(0):
            self.stats.tail_batches -= n_chunks - 1
            if self.cancel is not None:
                # the per-batch poll is likewise one logical check
                self.stats.cancel_checks -= n_chunks - 1
        elif self.node.relaxed and last == 1 and self._relaxed_ok(0):
            self.stats.relaxed_unions -= n_chunks - 1

    def _drive_slice(self, parts, arr, child_ids) -> None:
        # Mirror _recurse's dispatch at position 0 so parallel chunks
        # run the same kernels (and count the same work) as serial.
        start = time.perf_counter() if self.profiler is not None else 0.0
        last = len(self.attrs) - 1
        if last == 0 and self._tail_ok(0):
            self._vector_tail(0, (), arr, child_ids)
        elif self.node.relaxed and last == 1 and self._relaxed_ok(0):
            self._relaxed_tail(0, (), arr, child_ids)
        else:
            self._loop(0, (), arr, child_ids)
        if self.profiler is not None:
            self._level_incl[0] += time.perf_counter() - start

    # -- recursion ------------------------------------------------------------

    def _intersect_at(self, p: int):
        parts = self.at_attr[p]
        if len(parts) == 1:
            # single participant: the "intersection" is its own set and
            # child ids are consecutive (rank == position)
            bi, level_idx = parts[0]
            parent = self.state[bi] if level_idx > 0 else 0
            level = self.bindings[bi].trie.level(level_idx)
            arr = level.values_for(parent)
            if self.profiler is not None:
                self.profiler.record_scan()
            if arr.size == 0:
                return arr, []
            base = level.child_base(parent)
            return arr, [np.arange(base, base + arr.size, dtype=np.int64)]
        sets = []
        for bi, level_idx in parts:
            parent = self.state[bi] if level_idx > 0 else 0
            sets.append(self.bindings[bi].trie.level(level_idx).set_for(parent))
        isect = intersect_many(sets)
        arr = isect.to_array()
        self.stats.intersections += len(sets) - 1
        self.stats.intersection_output += int(arr.size)
        if arr.size == 0:
            return arr, []
        if p == 0:
            # Level-0 intersection output is the probe set: prunable
            # lazy tries materialize only the sub-tries under these
            # roots.  The parallel driver runs this on the main thread
            # before chunking, so the probe set (and every lazy-build
            # counter) is identical for serial and parallel runs.
            for bi, level_idx in parts:
                trie = self.bindings[bi].trie
                if level_idx == 0 and hasattr(trie, "note_probed_roots"):
                    trie.note_probed_roots(arr)
        child_ids = []
        for bi, level_idx in parts:
            parent = self.state[bi] if level_idx > 0 else 0
            level = self.bindings[bi].trie.level(level_idx)
            ranks = level.set_for(parent).rank_many(arr)
            child_ids.append(level.child_base(parent) + ranks)
        return arr, child_ids

    def _recurse(self, p: int, group_parts: Tuple) -> None:
        if self.profiler is None:
            self._recurse_impl(p, group_parts)
            return
        start = time.perf_counter()
        try:
            self._recurse_impl(p, group_parts)
        finally:
            # inclusive time at position p (this level and deeper);
            # _record_profile derives per-level self time by differencing
            self._level_incl[p] += time.perf_counter() - start

    def _recurse_impl(self, p: int, group_parts: Tuple) -> None:
        arr, child_ids = self._intersect_at(p)
        if arr.size == 0:
            return
        last = len(self.attrs) - 1
        if p == last and self._tail_ok(p):
            self._vector_tail(p, group_parts, arr, child_ids)
        elif (
            self.node.relaxed
            and p == last - 1
            and self._relaxed_ok(p)
        ):
            self._relaxed_tail(p, group_parts, arr, child_ids)
        else:
            self._loop(p, group_parts, arr, child_ids)

    def _tail_ok(self, p: int) -> bool:
        return not self.fetchers_at[p]

    def _relaxed_ok(self, p: int) -> bool:
        return (
            self._all_additive
            and not self.fetchers_at[p]
            and not self.fetchers_at[p + 1]
            and self.attrs[p] not in self.materialized_set
            and self.attrs[p + 1] in self.materialized_set
        )

    # -- flat two-attribute kernel -------------------------------------------------

    def _try_flat_two_level(self) -> bool:
        """Fully columnar execution of the common two-attribute shape.

        Pattern: one *driver* relation over both attributes plus any
        number of single-attribute relations (e.g. SMV's ``m(i, k)``
        joined with ``x(k)``, or a key-to-key lookup join).  The whole
        node then runs as array passes over the driver trie's flat
        buffers -- membership filters, gathers, and one scatter-add --
        with no per-tuple Python at all.
        """
        node = self.node
        if (
            len(self.attrs) != 2
            or node.relaxed
            or node.group_fetchers
            or not self._all_additive
        ):
            return False
        drivers = [b for b in self.bindings if len(b.vertices) == 2]
        if len(drivers) != 1:
            return False
        driver = drivers[0]
        if driver.vertices != self.attrs:
            return False
        a_bindings = [b for b in self.bindings if b.vertices == (self.attrs[0],)]
        b_bindings = [b for b in self.bindings if b.vertices == (self.attrs[1],)]
        if len(a_bindings) + len(b_bindings) + 1 != len(self.bindings):
            return False

        trie = driver.trie
        level0, level1 = trie.level(0), trie.level(1)
        a_values = level0.flat_values  # value of parent p is a_values[p]
        if a_values.size == 0:
            return True
        # filter parents (a side) and expand to the nnz rows
        a_mask = np.ones(a_values.size, dtype=bool)
        for binding in a_bindings:
            a_mask &= binding.trie.root_set().contains_many(a_values)
        counts = np.diff(level1.offsets)
        parent_of_row = np.repeat(np.arange(a_values.size, dtype=np.int64), counts)
        b_values = level1.flat_values
        mask = a_mask[parent_of_row]
        for binding in b_bindings:
            mask &= binding.trie.root_set().contains_many(b_values)
        selected = np.flatnonzero(mask)
        if selected.size == 0:
            return True
        parents = parent_of_row[selected]

        local: Dict[str, np.ndarray] = {}
        for slot_id, annotation in self.slots_at[self.bindings.index(driver)]:
            local[slot_id] = annotation.values[selected]
        for binding in b_bindings:
            root = binding.trie.root_set()
            ranks = root.rank_many(b_values[selected])
            for slot_id, annotation in self.slots_at[self.bindings.index(binding)]:
                local[slot_id] = annotation.values[ranks]
        for binding in a_bindings:
            root = binding.trie.root_set()
            # rank only the surviving parents: rank_many requires membership
            valid = np.flatnonzero(a_mask)
            ranks = root.rank_many(a_values[valid])
            for slot_id, annotation in self.slots_at[self.bindings.index(binding)]:
                per_parent = np.zeros(a_values.size)
                per_parent[valid] = annotation.values[ranks]
                local[slot_id] = per_parent[parents]

        contributions = self._contrib_matrix(selected.size, local)
        a_materialized = self.attrs[0] in self.materialized_set
        b_materialized = self.attrs[1] in self.materialized_set
        if a_materialized and b_materialized:
            self.aggregator.add_batch_unique_columns(
                [
                    a_values[parents].astype(np.int64),
                    b_values[selected].astype(np.int64),
                ],
                contributions,
            )
        elif a_materialized:
            sums = np.zeros((a_values.size, self.n_aggs))
            np.add.at(sums, parents, contributions)
            present = np.zeros(a_values.size, dtype=bool)
            present[parents] = True
            self.aggregator.add_batch_unique(
                (), a_values[present].astype(np.int64), sums[present]
            )
        elif b_materialized:
            keys = b_values[selected].astype(np.int64)
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            sums = np.zeros((unique_keys.size, self.n_aggs))
            np.add.at(sums, inverse, contributions)
            self.aggregator.add_batch_unique((), unique_keys, sums)
        else:
            self.aggregator.add((), contributions.sum(axis=0))
        return True

    # -- generic per-value loop -------------------------------------------------

    def _loop(self, p: int, group_parts: Tuple, arr: np.ndarray, child_ids) -> None:
        parts = self.at_attr[p]
        attr = self.attrs[p]
        materialized = attr in self.materialized_set
        fetchers = self.fetchers_at[p]
        last = len(self.attrs) - 1
        completions = [
            (bi, self.slots_at[bi]) for bi, lvl in parts if lvl == self.last_level[bi]
        ]
        self.stats.loop_values += int(arr.size)
        tick = self.cancel.tick if self.cancel is not None else None
        if tick is not None:
            self.stats.cancel_checks += int(arr.size)
        for idx in range(arr.size):
            if tick is not None:
                tick()
            value = int(arr[idx])
            self.current_code[attr] = value
            saved_states = []
            saved_slots = []
            for (bi, _lvl), ids in zip(parts, child_ids):
                saved_states.append(self.state[bi])
                self.state[bi] = int(ids[idx])
            for bi, slots in completions:
                node_id = self.state[bi]
                for slot_id, annotation in slots:
                    saved_slots.append((slot_id, self.slot_env.get(slot_id)))
                    self.slot_env[slot_id] = float(annotation.values[node_id])
            parts_key = group_parts
            if materialized:
                parts_key = parts_key + (value,)
            ok = True
            for fetcher in fetchers:
                fetched = self._fetch(fetcher)
                if fetched is None:
                    ok = False
                    break
                parts_key = parts_key + (fetched,)
            if ok:
                if p == last:
                    self.aggregator.add(parts_key, self._contrib_scalar())
                else:
                    self._recurse(p + 1, parts_key)
            for (bi, _lvl), saved in zip(parts, saved_states):
                self.state[bi] = saved
            for slot_id, old in saved_slots:
                if old is None:
                    self.slot_env.pop(slot_id, None)
                else:
                    self.slot_env[slot_id] = old

    def _fetch(self, fetcher):
        codes = tuple(self.current_code[v] for v in fetcher.vertices)
        token = (fetcher.ref_id, codes)
        # Count every request (not just cache misses): parfor workers
        # keep private caches, so request counts are the only fetch
        # metric identical across serial and parallel execution.
        self.stats.fetches += 1
        if token in self._fetch_cache:
            return self._fetch_cache[token]
        node_id = fetcher.trie.lookup_node(codes)
        if node_id is None:
            value = None
        else:
            raw = fetcher.trie.annotation(fetcher.ref_id).values[node_id]
            value = raw.item() if hasattr(raw, "item") else raw
        self._fetch_cache[token] = value
        return value

    # -- vectorized tail -----------------------------------------------------------

    def _tail_env(self, p: int, arr: np.ndarray, child_ids) -> Dict[str, np.ndarray]:
        local: Dict[str, np.ndarray] = {}
        for (bi, lvl), ids in zip(self.at_attr[p], child_ids):
            if lvl == self.last_level[bi]:
                for slot_id, annotation in self.slots_at[bi]:
                    local[slot_id] = annotation.values[ids]
        return local

    def _vector_tail(self, p: int, group_parts: Tuple, arr: np.ndarray, child_ids) -> None:
        self.stats.tail_batches += 1
        if self.cancel is not None:
            # one poll per vectorized batch: the numpy pass itself is the
            # unit of interruptibility
            self.stats.cancel_checks += 1
            self.cancel.tick(int(arr.size))
        local = self._tail_env(p, arr, child_ids)
        n = arr.size
        if self.attrs[p] in self.materialized_set:
            matrix = self._contrib_matrix(n, local)
            if self._unique_groups:
                self.aggregator.add_batch_unique(
                    group_parts, arr.astype(np.int64), matrix
                )
                return
            add = self.aggregator.add
            for idx in range(n):
                add(group_parts + (int(arr[idx]),), matrix[idx])
            return
        contribution = np.empty(self.n_aggs)
        for a_idx, agg in enumerate(self.aggs):
            if agg.func in ("min", "max"):
                value = local.get(agg.minmax_slot)
                if value is None:
                    value = self.slot_env[agg.minmax_slot]
                    contribution[a_idx] = float(value)
                else:
                    contribution[a_idx] = float(
                        np.min(value) if agg.func == "min" else np.max(value)
                    )
                continue
            total = 0.0
            for coefficient, slot_ids in agg.terms:
                product = np.full(n, coefficient)
                for slot_id in slot_ids:
                    operand = local.get(slot_id)
                    if operand is None:
                        operand = self.slot_env[slot_id]
                    product = product * operand
                total += float(np.sum(product))
            contribution[a_idx] = total
        self.aggregator.add(group_parts, contribution)

    def _contrib_matrix(self, n: int, local: Dict[str, np.ndarray]) -> np.ndarray:
        matrix = np.empty((n, self.n_aggs))
        for a_idx, agg in enumerate(self.aggs):
            if agg.func in ("min", "max"):
                value = local.get(agg.minmax_slot)
                if value is None:
                    value = self.slot_env[agg.minmax_slot]
                matrix[:, a_idx] = value
                continue
            total = np.zeros(n)
            for coefficient, slot_ids in agg.terms:
                product = np.full(n, coefficient)
                for slot_id in slot_ids:
                    operand = local.get(slot_id)
                    if operand is None:
                        operand = self.slot_env[slot_id]
                    product = product * operand
                total += product
            matrix[:, a_idx] = total
        return matrix

    def _contrib_scalar(self) -> np.ndarray:
        out = np.empty(self.n_aggs)
        env = self.slot_env
        for a_idx, agg in enumerate(self.aggs):
            if agg.func in ("min", "max"):
                out[a_idx] = env[agg.minmax_slot]
                continue
            total = 0.0
            for coefficient, slot_ids in agg.terms:
                product = coefficient
                for slot_id in slot_ids:
                    product *= env[slot_id]
                total += product
            out[a_idx] = total
        return out

    # -- relaxed 1-attribute union kernel ----------------------------------------

    def _relaxed_tail(self, p: int, group_parts: Tuple, arr: np.ndarray, child_ids) -> None:
        """The Section V-A2 union: aggregate attrs[p], materialize attrs[p+1].

        For each value of the projected-away attribute we gather the
        final attribute's matching values and their per-tuple
        contributions; the union across the loop is a scatter-add over
        the collected arrays (``s_j`` in the paper's unrolled listing).
        """
        parts = self.at_attr[p]
        self.stats.relaxed_unions += 1
        self.stats.loop_values += int(arr.size)
        tick = self.cancel.tick if self.cancel is not None else None
        if tick is not None:
            self.stats.cancel_checks += int(arr.size)
        collected_keys: List[np.ndarray] = []
        collected_vals: List[np.ndarray] = []
        completions = [
            (bi, self.slots_at[bi]) for bi, lvl in parts if lvl == self.last_level[bi]
        ]
        for idx in range(arr.size):
            if tick is not None:
                tick()
            saved_states = []
            saved_slots = []
            for (bi, _lvl), ids in zip(parts, child_ids):
                saved_states.append(self.state[bi])
                self.state[bi] = int(ids[idx])
            for bi, slots in completions:
                node_id = self.state[bi]
                for slot_id, annotation in slots:
                    saved_slots.append((slot_id, self.slot_env.get(slot_id)))
                    self.slot_env[slot_id] = float(annotation.values[node_id])
            inner_arr, inner_ids = self._intersect_at(p + 1)
            if inner_arr.size:
                local = self._tail_env(p + 1, inner_arr, inner_ids)
                collected_keys.append(inner_arr.astype(np.int64))
                collected_vals.append(self._contrib_matrix(inner_arr.size, local))
            for (bi, _lvl), saved in zip(parts, saved_states):
                self.state[bi] = saved
            for slot_id, old in saved_slots:
                if old is None:
                    self.slot_env.pop(slot_id, None)
                else:
                    self.slot_env[slot_id] = old
        if not collected_keys:
            return
        keys = np.concatenate(collected_keys)
        values = np.vstack(collected_vals)
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        sums = np.zeros((unique_keys.size, self.n_aggs))
        np.add.at(sums, inverse, values)
        if self._unique_groups:
            self.aggregator.add_batch_unique(group_parts, unique_keys, sums)
            return
        add = self.aggregator.add
        for idx in range(unique_keys.size):
            add(group_parts + (int(unique_keys[idx]),), sums[idx])


def _serial(config: EngineConfig, memory_budget_bytes=None) -> EngineConfig:
    from dataclasses import replace

    return replace(config, parallel=False, memory_budget_bytes=memory_budget_bytes)
