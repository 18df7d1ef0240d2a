"""Lazy build-on-probe tries: construction stops being a fixed cost.

An eager trie build sorts and structures *every* row of a relation
before the join touches a single value.  On selective queries most of
that work is wasted: the generic join's level-0 intersection discards
the bulk of the root values immediately, and the sub-tries hanging off
the discarded roots are never probed.  :class:`LazyTrie` defers the
sort: it exposes the full :class:`~repro.trie.trie.Trie` surface, but
materializes structure on demand --

* the **root level** alone costs one ``np.unique`` over the first key
  column; it is all the executor needs for level-0 set intersection;
* when the executor reports which roots survived that intersection
  (:meth:`note_probed_roots`), a *prunable* trie sorts and structures
  only the rows under the surviving roots, then widens its level-0
  offsets back to the full root set so positional node ids stay
  consistent with the eagerly-built trie;
* any other deep access (annotations, deeper levels, batch lookups)
  falls back to a full one-shot materialization.

Builds happen exactly once, guarded by a lock -- concurrent queries
that share the trie through a cached plan and race into a level see
one build -- and the executor runs the level-0 step whole, so the
probed root set (and hence every lazy-build counter) is the same on
every run.  Materialization runs
through :func:`~repro.trie.builder._build_trie_impl`, which polls the
ambient cancel token per level pass: deadlines and explicit
cancellation fire *inside* lazy builds, exactly as they do in eager
compile-time builds.  An active :class:`repro.obs.KernelProfiler`
attributes lazy builds to their own ``trie.lazy_build`` category so
build-on-probe time is visible separately from eager child-result
builds.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import SchemaError
from ..obs import profile as _profile
from .builder import AnnotationSpec, _build_trie_impl, _level_is_complete
from .trie import Annotation, Trie, TrieLevel


class LazyTrie:
    """A drop-in :class:`Trie` facade that materializes on first probe.

    ``prunable=True`` opts into build-on-probe: when the executor calls
    :meth:`note_probed_roots` before any deep access, only rows under
    the probed roots are structured.  Shared (cached) tries must pass
    ``prunable=False`` -- a pruned structure is specific to one query's
    probe set and cannot be reused.
    """

    def __init__(
        self,
        key_columns: Sequence[np.ndarray],
        key_attrs: Sequence[str],
        annotations: Sequence[AnnotationSpec] = (),
        domain_sizes: Sequence[int] | None = None,
        prunable: bool = False,
    ):
        if not key_columns:
            raise SchemaError("a trie needs at least one key attribute")
        if len(key_columns) != len(key_attrs):
            raise SchemaError("key_columns and key_attrs length mismatch")
        self._cols = [np.ascontiguousarray(c, dtype=np.uint32) for c in key_columns]
        n_rows = int(self._cols[0].size)
        for col in self._cols:
            if col.size != n_rows:
                raise SchemaError("key columns must have equal length")
        for spec in annotations:
            if spec.values is not None and spec.values.size != n_rows:
                raise SchemaError(f"annotation '{spec.name}' length mismatch")
        self.key_attrs = tuple(key_attrs)
        self._specs = list(annotations)
        self._lazy_domain_sizes = (
            tuple(domain_sizes) if domain_sizes is not None else None
        )
        self.prunable = bool(prunable)
        #: True once a pruned (probe-restricted) materialization happened.
        self.pruned = False
        self._n_rows = n_rows
        # concurrent queries sharing this trie (cached plans) race here
        self._lock = threading.RLock()
        self._built: Optional[Trie] = None
        self._root: Optional[TrieLevel] = None

    # -- cheap observability (never forces a build) --------------------------

    @property
    def built(self) -> bool:
        return self._built is not None

    @property
    def arity(self) -> int:
        return len(self.key_attrs)

    @property
    def domain_sizes(self):
        if self._built is not None:
            return self._built.domain_sizes
        return self._lazy_domain_sizes or ()

    # -- the Trie surface -----------------------------------------------------

    @property
    def levels(self):
        return self._materialize().levels

    @property
    def annotations(self) -> Dict[str, Annotation]:
        return self._materialize().annotations

    @property
    def dense_levels(self):
        return self._materialize().dense_levels

    @property
    def num_tuples(self) -> int:
        return self._materialize().num_tuples

    @property
    def is_fully_dense(self) -> bool:
        return self._materialize().is_fully_dense

    def level(self, i: int) -> TrieLevel:
        if self._built is not None:
            return self._built.levels[i]
        if i == 0 and self.arity > 1:
            return self._ensure_root()
        return self._materialize().levels[i]

    def annotation(self, name: str) -> Annotation:
        return self._materialize().annotations[name]

    def lookup_nodes_batch(self, code_columns: Sequence[np.ndarray]) -> np.ndarray:
        return self._materialize().lookup_nodes_batch(code_columns)

    def tuples(self) -> np.ndarray:
        return self._materialize().tuples()

    # -- materialization ------------------------------------------------------

    def note_probed_roots(self, values: np.ndarray) -> None:
        """Record the root values that survived level-0 intersection.

        For a prunable trie with no prior deep access this triggers a
        pruned materialization restricted to rows under those roots.
        On an already-built or shared trie it is a no-op, so callers
        may report unconditionally.
        """
        if self._built is not None or not self.prunable or self.arity <= 1:
            return
        with self._lock:
            if self._built is not None:
                return
            self._build(np.asarray(values, dtype=np.uint32))

    def _ensure_root(self) -> TrieLevel:
        root = self._root
        if root is not None:
            return root
        with self._lock:
            if self._root is None:
                if self._built is not None:
                    self._root = self._built.levels[0]
                else:
                    start = time.perf_counter()
                    uniq = np.unique(self._cols[0])
                    offsets = np.array([0, uniq.size], dtype=np.int64)
                    self._root = TrieLevel(uniq, offsets)
                    prof = _profile.active()
                    if prof is not None:
                        prof.add_category(
                            "trie.lazy_root", time.perf_counter() - start
                        )
            return self._root

    def _materialize(self) -> Trie:
        built = self._built
        if built is not None:
            return built
        with self._lock:
            if self._built is None:
                self._build(None)
            return self._built

    def _build(self, probed: Optional[np.ndarray]) -> None:
        """Materialize (fully, or restricted to ``probed`` roots).

        Caller holds the lock.  Runs ``_build_trie_impl``, which polls
        the ambient cancel token per level -- a cancelled build leaves
        the trie unbuilt, so a retry after cancellation is clean.
        """
        start = time.perf_counter()
        pruned = False
        if probed is None or self._n_rows == 0 or self.arity <= 1:
            trie = _build_trie_impl(
                self._cols, self.key_attrs, self._specs, self._lazy_domain_sizes
            )
        else:
            trie, pruned = self._build_pruned(probed)
        self.pruned = pruned
        self._built = trie
        self._root = trie.levels[0]
        # a cached plan keeps this trie: drop the row copies it was built from
        self._cols = self._specs = None
        prof = _profile.active()
        if prof is not None:
            prof.record_lazy_build(
                attrs=self.key_attrs,
                tuples=trie.num_tuples,
                level_bytes=[
                    lvl.flat_values.nbytes + lvl.offsets.nbytes for lvl in trie.levels
                ],
                seconds=time.perf_counter() - start,
                pruned=pruned,
                total_roots=int(trie.levels[0].n_nodes),
            )

    def _build_pruned(self, probed: np.ndarray):
        root = self._ensure_root()
        uniq0 = root.flat_values
        probed = np.unique(probed)
        # Restrict to probed values actually present in this relation
        # (intersection output is a subset of the root set, but be safe).
        pos = np.searchsorted(uniq0, probed)
        valid = pos < uniq0.size
        valid[valid] &= uniq0[pos[valid]] == probed[valid]
        probed = probed[valid]
        if probed.size >= uniq0.size:
            trie = _build_trie_impl(
                self._cols, self.key_attrs, self._specs, self._lazy_domain_sizes
            )
            return trie, False
        mask = np.isin(self._cols[0], probed)
        sub_cols = [c[mask] for c in self._cols]
        sub_specs = [
            AnnotationSpec(
                s.name,
                None if s.values is None else s.values[mask],
                s.level,
                s.combine,
                s.dictionary,
            )
            for s in self._specs
        ]
        sub = _build_trie_impl(
            sub_cols, self.key_attrs, sub_specs, self._lazy_domain_sizes
        )
        return self._widen(root, sub), True

    def _widen(self, root: TrieLevel, sub: Trie) -> Trie:
        """Graft a subset build back onto the full root level.

        The subset trie numbered its roots 0..k-1; the eager trie (and
        every consumer of positional node ids) numbers them by rank in
        the *full* root set.  Scattering the subset's level-1 offsets
        into a full-width offsets array restores eager numbering:
        unprobed roots get empty child slices, probed roots keep their
        subset children at the same flat positions (both orderings are
        sorted, so cumulative order is preserved).  Levels >= 2 hang off
        level-1 node ids, which the subset build already numbered
        consistently, and are reused as-is.
        """
        uniq0 = root.flat_values
        n_roots = int(uniq0.size)
        sub_roots = sub.levels[0].flat_values
        pos = np.searchsorted(uniq0, sub_roots)
        sub_l1 = sub.levels[1]
        counts_full = np.zeros(n_roots, dtype=np.int64)
        counts_full[pos] = np.diff(sub_l1.offsets)
        offsets_full = np.zeros(n_roots + 1, dtype=np.int64)
        np.cumsum(counts_full, out=offsets_full[1:])
        level1 = TrieLevel(sub_l1.flat_values, offsets_full)

        annotations: Dict[str, Annotation] = {}
        for name, ann in sub.annotations.items():
            if ann.level == 0:
                full_vals = np.zeros(n_roots, dtype=ann.values.dtype)
                full_vals[pos[: ann.values.size]] = ann.values
                annotations[name] = Annotation(name, 0, full_vals, ann.dictionary)
            else:
                annotations[name] = ann

        domain0 = (
            self._lazy_domain_sizes[0] if self._lazy_domain_sizes is not None else None
        )
        dense = [
            _level_is_complete(uniq0, root.offsets, domain0),
            False,  # pruning punched holes in level 1's parent slices
        ]
        dense.extend(sub.dense_levels[2:])
        return Trie(
            key_attrs=self.key_attrs,
            levels=[root, level1, *list(sub.levels)[2:]],
            annotations=annotations,
            dense_levels=tuple(dense),
            domain_sizes=self._lazy_domain_sizes or (),
        )

    def __repr__(self) -> str:
        state = "built" if self._built is not None else (
            "root" if self._root is not None else "unbuilt"
        )
        if self.pruned:
            state = "pruned"
        return f"LazyTrie({self.key_attrs!r}, rows={self._n_rows}, {state})"
