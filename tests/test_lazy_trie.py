"""Filtered (per-query) tries: built whole at plan time, cancellable
inside the build, and end to end equal to the pairwise oracle, under
concurrent queries, deadlines and memory budgets."""

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
from repro.datasets.tpch import generate_tpch
from repro.datasets.tpch.queries import Q3
from repro.trie import Trie, build_trie
from repro.xcution.plan import _walk_plans
from tests.conftest import CYCLE4_SQL, make_mini_tpch, on_threads
from tests.test_engine import Q5_SQL


def _engine(catalog=None, **config):
    return LevelHeadedEngine(
        catalog if catalog is not None else make_mini_tpch(),
        config=EngineConfig(**config),
    )


def _random_columns(n_rows=400, n_keys=30, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, n_keys, n_rows).astype(np.uint32) for _ in range(3)]


# ---------------------------------------------------------------------------
# filtered tries are plain tries, built whole at plan time
# ---------------------------------------------------------------------------


def test_cancelled_build_leaves_trie_unbuilt_and_retryable():
    # the builder polls the ambient cancel token once per level pass
    cols = _random_columns()
    token = CancelToken()
    token.cancel("mid-build abort")
    with cancel_scope(token):
        with pytest.raises(QueryCancelledError):
            build_trie(cols, ("a", "b", "c"))
    assert build_trie(cols, ("a", "b", "c")).num_tuples > 0  # clean retry


def test_filtered_tries_are_built_at_compile_time():
    # TPC-H Q3 filters all three of its relations
    engine = _engine(generate_tpch(scale_factor=0.002, seed=5))
    plan = engine.compile(Q3)
    bindings = [b for node, _depth in _walk_plans(plan.root) for b in node.bindings]
    assert {b.alias for b in bindings} == {"customer", "orders", "lineitem"}
    assert all(type(b.trie) is Trie for b in bindings)
    # execution finds every trie built: none is left for it to build
    result = engine.execute(plan, profile=True)
    assert result.num_rows > 0
    assert result.profile.counters()["trie_builds"] == 0


# ---------------------------------------------------------------------------
# end to end: the engine vs the pairwise oracle
# ---------------------------------------------------------------------------


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
    want = _engine(catalog).query(Q5_SQL).sorted_rows()
    for threads in (2, 4):
        # threads share one engine: its cached plan and filtered tries
        engine = _engine(catalog)
        runs = on_threads(lambda: engine.query(Q5_SQL).sorted_rows(), threads)
        assert runs == [want] * threads


def test_lazy_query_respects_timeout_and_recovers():
    # an adversarial join: the deadline must fire mid-query, and the
    # engine stays healthy afterwards
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
    engine = _engine(catalog)
    from repro.errors import QueryKilledError

    # the 4-cycle count runs ~1 s serially, 20x the deadline
    with pytest.raises(QueryKilledError):
        engine.query(CYCLE4_SQL, timeout_ms=50)
    assert engine.query("SELECT count(*) AS n FROM edges").single_value() > 0


def test_lazy_query_under_memory_budget_pressure():
    unbudgeted = _engine()
    # a generous budget passes and matches the unbudgeted result
    budgeted = _engine(memory_budget_bytes=50_000_000)
    assert budgeted.query(Q5_SQL).sorted_rows() == unbudgeted.query(Q5_SQL).sorted_rows()
    # a starvation budget dies with the typed error, not a crash
    starved = _engine(memory_budget_bytes=16)
    with pytest.raises(OutOfMemoryBudgetError):
        starved.query(Q5_SQL)
