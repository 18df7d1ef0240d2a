"""Lazy build-on-probe tries: correctness of pruned builds, parity with
eager builds and with the pairwise oracle end to end, cancellation and budget behavior inside lazy
materialization, and the parallel-invariant profiler counters."""

import numpy as np
import pytest

from repro import (
    CancelToken,
    EngineConfig,
    LevelHeadedEngine,
    OutOfMemoryBudgetError,
    QueryCancelledError,
)
from repro.baselines import PairwiseEngine
from repro.core.governor import cancel_scope
from repro.trie.builder import AnnotationSpec, build_trie
from repro.trie.lazy import LazyTrie
from tests.conftest import CYCLE4_SQL, make_mini_tpch
from tests.test_engine import Q5_SQL


def _random_columns(n_rows=400, n_keys=30, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n_keys, n_rows).astype(np.uint32)
    b = rng.integers(0, n_keys, n_rows).astype(np.uint32)
    c = rng.integers(0, n_keys, n_rows).astype(np.uint32)
    vals = rng.normal(size=n_rows)
    return [a, b, c], vals


# ---------------------------------------------------------------------------
# LazyTrie unit behavior
# ---------------------------------------------------------------------------


def test_lazy_matches_eager_on_full_access():
    cols, vals = _random_columns()
    specs = [AnnotationSpec("v", vals, level=2, combine="sum")]
    eager = build_trie(cols, ("a", "b", "c"), specs)
    lazy = build_trie(cols, ("a", "b", "c"), specs, lazy=True)
    assert isinstance(lazy, LazyTrie)
    assert not lazy.built
    # deep access falls back to a full one-shot materialization
    assert lazy.num_tuples == eager.num_tuples
    assert lazy.built and not lazy.pruned
    for i in range(3):
        np.testing.assert_array_equal(
            lazy.level(i).flat_values, eager.level(i).flat_values
        )
        np.testing.assert_array_equal(lazy.level(i).offsets, eager.level(i).offsets)
    np.testing.assert_allclose(
        lazy.annotation("v").values, eager.annotation("v").values
    )


def test_root_level_alone_does_not_build():
    cols, _ = _random_columns()
    lazy = build_trie(cols, ("a", "b", "c"), lazy=True)
    root = lazy.level(0)
    assert not lazy.built  # only the cheap np.unique root exists
    np.testing.assert_array_equal(root.flat_values, np.unique(cols[0]))


def test_pruned_build_is_consistent_under_probed_roots():
    cols, vals = _random_columns()
    specs = [AnnotationSpec("v", vals, level=2, combine="sum")]
    eager = build_trie(cols, ("a", "b", "c"), specs)
    lazy = build_trie(cols, ("a", "b", "c"), specs, lazy=True, prunable=True)
    probed = np.unique(cols[0])[::3]  # survive every third root
    lazy.note_probed_roots(probed)
    assert lazy.built and lazy.pruned

    # level-0 numbering must match the eager trie exactly (widening)
    np.testing.assert_array_equal(
        lazy.level(0).flat_values, eager.level(0).flat_values
    )

    # every tuple under a probed root resolves to the same annotation
    # value through both tries' own node ids
    mask = np.isin(cols[0], probed)
    sub_cols = [c[mask] for c in cols]
    lazy_nodes = lazy.lookup_nodes_batch(sub_cols)
    eager_nodes = eager.lookup_nodes_batch(sub_cols)
    assert (lazy_nodes >= 0).all() and (eager_nodes >= 0).all()
    np.testing.assert_allclose(
        lazy.annotation("v").values[lazy_nodes],
        eager.annotation("v").values[eager_nodes],
    )

    # unprobed roots were pruned away: their child slices are empty
    unprobed_mask = ~np.isin(eager.level(0).flat_values, probed)
    offsets = lazy.level(1).offsets
    widths = np.diff(offsets)
    assert (widths[unprobed_mask] == 0).all()


def test_probing_every_root_skips_pruning():
    cols, _ = _random_columns()
    lazy = build_trie(cols, ("a", "b", "c"), lazy=True, prunable=True)
    lazy.note_probed_roots(np.unique(cols[0]))
    assert lazy.built and not lazy.pruned


def test_note_probed_roots_is_noop_after_build():
    cols, _ = _random_columns()
    lazy = build_trie(cols, ("a", "b", "c"), lazy=True, prunable=True)
    n = lazy.num_tuples  # full build
    lazy.note_probed_roots(np.unique(cols[0])[:2])
    assert not lazy.pruned
    assert lazy.num_tuples == n


def test_non_prunable_lazy_ignores_probes():
    cols, _ = _random_columns()
    lazy = build_trie(cols, ("a", "b", "c"), lazy=True, prunable=False)
    lazy.note_probed_roots(np.unique(cols[0])[:2])
    if lazy.built:
        assert not lazy.pruned


def test_arity_one_lazy_trie():
    col = np.array([3, 1, 2, 1, 3], dtype=np.uint32)
    lazy = build_trie([col], ("a",), lazy=True, prunable=True)
    lazy.note_probed_roots(np.array([1], dtype=np.uint32))  # no-op at arity 1
    assert lazy.num_tuples == 3
    np.testing.assert_array_equal(lazy.level(0).flat_values, [1, 2, 3])


def test_empty_relation_lazy_trie():
    lazy = build_trie(
        [np.empty(0, np.uint32), np.empty(0, np.uint32)], ("a", "b"), lazy=True
    )
    assert lazy.num_tuples == 0


def test_cancelled_build_leaves_trie_unbuilt_and_retryable():
    cols, _ = _random_columns()
    lazy = build_trie(cols, ("a", "b", "c"), lazy=True)
    token = CancelToken()
    token.cancel("mid-build abort")
    with cancel_scope(token):
        with pytest.raises(QueryCancelledError):
            lazy.num_tuples
    assert not lazy.built  # cancellation left no partial structure
    assert lazy.num_tuples > 0  # clean retry outside the scope


# ---------------------------------------------------------------------------
# end to end: the lazy-trie engine vs the pairwise oracle
# ---------------------------------------------------------------------------


def _engine(catalog=None, **config):
    return LevelHeadedEngine(
        catalog if catalog is not None else make_mini_tpch(),
        config=EngineConfig(**config),
    )


def test_lazy_and_eager_engines_agree():
    # the oracle is the pairwise baseline: eager hash joins over raw
    # rows, no tries at all
    catalog = make_mini_tpch()
    got = _engine(catalog).query(Q5_SQL).sorted_rows()
    want = PairwiseEngine(catalog).query(Q5_SQL).sorted_rows()
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert a == pytest.approx(b)


def test_lazy_engine_agrees_under_parallelism():
    catalog = make_mini_tpch()
    want = _engine(catalog, parallel=False).query(Q5_SQL).sorted_rows()
    for threads in (2, 4):
        engine = _engine(catalog, parallel=True, num_threads=threads)
        assert engine.query(Q5_SQL).sorted_rows() == want


def test_profiler_attributes_lazy_builds():
    prof = _engine().query(Q5_SQL, profile=True).profile
    counters = prof.counters()
    assert counters["lazy_builds"] > 0
    assert counters["lazy_trie_bytes"] > 0
    assert any(name.startswith("trie.lazy") for name in prof.category_seconds)


def test_lazy_profiler_counters_parallel_invariant():
    catalog = make_mini_tpch()
    serial = _engine(catalog, parallel=False)
    parallel = _engine(catalog, parallel=True, num_threads=4)
    s = serial.query(Q5_SQL, profile=True).profile.counters()
    p = parallel.query(Q5_SQL, profile=True).profile.counters()
    assert s["lazy_builds"] == p["lazy_builds"]
    assert s["lazy_pruned_builds"] == p["lazy_pruned_builds"]
    assert s["lazy_trie_bytes"] == p["lazy_trie_bytes"]


def test_lazy_query_respects_timeout_and_recovers():
    # an adversarial join with lazy tries: the deadline must fire even
    # if it lands inside a lazy materialization, and the engine stays
    # healthy afterwards
    rng = np.random.default_rng(11)
    pairs = sorted(
        {(int(a), int(b)) for a, b in rng.integers(0, 400, size=(15_000, 2))}
    )
    from repro.storage import Catalog, Schema, Table, key

    catalog = Catalog()
    catalog.register(
        Table.from_columns(
            Schema("edges", [key("src", domain="n"), key("dst", domain="n")]),
            src=np.array([p[0] for p in pairs]),
            dst=np.array([p[1] for p in pairs]),
        )
    )
    engine = _engine(catalog, parallel=False)
    from repro.errors import QueryKilledError

    # the 4-cycle count runs ~1 s serially, 20x the deadline
    with pytest.raises(QueryKilledError):
        engine.query(CYCLE4_SQL, timeout_ms=50)
    assert engine.query("SELECT count(*) AS n FROM edges").single_value() > 0


def test_lazy_query_under_memory_budget_pressure():
    lazy = _engine()
    # a generous budget passes and matches the unbudgeted result
    budgeted = _engine(memory_budget_bytes=50_000_000)
    assert budgeted.query(Q5_SQL).sorted_rows() == lazy.query(Q5_SQL).sorted_rows()
    # a starvation budget dies with the typed error, not a crash
    starved = _engine(memory_budget_bytes=16)
    with pytest.raises(OutOfMemoryBudgetError):
        starved.query(Q5_SQL)
