"""The frontier executor against an independent oracle.

Every shape the generic join handles -- cyclic (triangle, 4-cycle),
both SMM attribute orders of Fig. 5b, SMV, TPC-H Q5 with its mid-walk
``n_name`` fetch, MIN/MAX over a join -- is run under ``wcoj`` at 1, 2
and 4 threads, with the default window size and with windows of a few
rows (so ``parfor`` really splits the frontier), and under a tight
memory budget, and compared with :class:`repro.baselines.PairwiseEngine`
(hash joins over raw rows, no tries).  The work counters must not
depend on the thread count or the window size, and on the ``la_graph``
benchmark's seed-1 inputs they must equal what Algorithm 1 counts per
prefix.
"""

import numpy as np
import pytest

from repro import EngineConfig, LevelHeadedEngine, OutOfMemoryBudgetError, Schema, key
from repro.baselines import PairwiseEngine
from repro.datasets import sparse_profile
from repro.datasets.tpch.queries import Q5
from repro.la import matmul_sql, matvec_sql
from repro.xcution import generic_join
from tests.conftest import CYCLE4_SQL, graph_catalog, make_mini_tpch

TRIANGLE_SQL = (
    "SELECT count(*) AS triangles FROM edges e1, edges e2, edges e3 "
    "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src"
)
MINMAX_SQL = (
    "SELECT o_custkey, min(l_extendedprice) AS lo, max(l_extendedprice) AS hi, "
    "count(*) AS n FROM orders, lineitem WHERE o_orderkey = l_orderkey "
    "GROUP BY o_custkey"
)

#: counters that count work per key prefix: window-size invariant
WORK = ("intersections", "intersection_output", "loop_values", "fetches", "groups_emitted")


def _sparse_catalog(n=40, nnz=300, seed=5):
    rng = np.random.default_rng(seed)
    flat = np.unique(rng.integers(0, n, nnz) * n + rng.integers(0, n, nnz))
    engine = LevelHeadedEngine()
    engine.register_matrix(
        "m", rows=flat // n, cols=flat % n, values=rng.normal(size=flat.size), n=n, domain="dim"
    )
    engine.register_vector("x", rng.normal(size=n), domain="dim")
    return engine.catalog


def _smm_orders(catalog):
    """Fig. 5b's two SMM orders: relaxed [i, k, j] and materialized-first [i, j, k]."""
    probe = LevelHeadedEngine(catalog, config=EngineConfig(enable_blas=False))
    root = probe.compile(matmul_sql("m")).root
    first, second = root.materialized
    (aggregated,) = [v for v in root.attrs if v not in root.materialized]
    return (first, aggregated, second), (first, second, aggregated)


_SPARSE = _sparse_catalog()
_RELAXED, _FLAT = _smm_orders(_SPARSE)

SHAPES = {
    "triangle": (graph_catalog(60, 500), TRIANGLE_SQL, {}),
    "cycle4": (graph_catalog(30, 150), CYCLE4_SQL, {}),
    "smm_relaxed": (_SPARSE, matmul_sql("m"), {"forced_root_order": _RELAXED}),
    "smm_ijk": (_SPARSE, matmul_sql("m"), {"forced_root_order": _FLAT}),
    "smv": (_SPARSE, matvec_sql("m", "x"), {}),
    "q5": (make_mini_tpch(), Q5, {}),
    "minmax": (make_mini_tpch(), MINMAX_SQL, {}),
}


def _config(threads, **extra):
    return EngineConfig(
        enable_blas=False,
        parallel=threads > 1,
        num_threads=threads,
        **extra,
    )


def _run(catalog, sql, config):
    engine = LevelHeadedEngine(catalog, config=config)
    result = engine.execute(engine.compile(sql), collect_stats=True)
    return result, result.stats


def _assert_rows_match(got, want):
    got, want = got.sorted_rows(), want.sorted_rows()
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


@pytest.fixture(scope="module")
def oracle():
    return {name: PairwiseEngine(catalog).query(sql) for name, (catalog, sql, _) in SHAPES.items()}


@pytest.mark.parametrize("name", sorted(SHAPES))
@pytest.mark.parametrize("window_rows", [None, 3])
def test_frontier_matches_pairwise_at_every_thread_count(oracle, monkeypatch, name, window_rows):
    if window_rows is not None:
        monkeypatch.setattr(generic_join, "CHUNK_ROWS", window_rows)
    catalog, sql, extra = SHAPES[name]
    runs = [_run(catalog, sql, _config(threads, **extra)) for threads in (1, 2, 4)]
    for result, stats in runs:
        _assert_rows_match(result, oracle[name])
        # same windows, same steps: identical counters and results
        assert stats.as_dict() == runs[0][1].as_dict()
        assert result.sorted_rows() == runs[0][0].sorted_rows()


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_work_counters_do_not_depend_on_window_size(monkeypatch, name):
    catalog, sql, extra = SHAPES[name]
    _result, whole = _run(catalog, sql, _config(1, **extra))
    monkeypatch.setattr(generic_join, "CHUNK_ROWS", 2)
    _result, windowed = _run(catalog, sql, _config(1, **extra))
    assert {f: getattr(windowed, f) for f in WORK} == {f: getattr(whole, f) for f in WORK}
    assert windowed.cancel_checks == whole.cancel_checks == 0  # no token, no polls


@pytest.mark.parametrize("name", sorted(SHAPES))
@pytest.mark.parametrize("threads", [1, 4])
def test_frontier_under_tight_memory_budget(oracle, monkeypatch, name, threads):
    # 72 bytes per output group: below the live footprint of a group
    # (64 + 8 x cells, cells >= 2) but above its spilled one (8 + 8 x
    # cells, cells <= 4 here), so grouped shapes must degrade to spilled
    # runs and still be right
    monkeypatch.setattr(generic_join, "CHUNK_ROWS", 5)
    catalog, sql, extra = SHAPES[name]
    budget = 72 * max(oracle[name].num_rows, 1)
    try:
        result, stats = _run(catalog, sql, _config(threads, memory_budget_bytes=budget, **extra))
    except OutOfMemoryBudgetError:  # pragma: no cover - a failure, with context
        pytest.fail(f"{name}: {budget} bytes should fit once degraded")
    _assert_rows_match(result, oracle[name])
    if result.num_rows > 1:
        assert stats.aggregator_spills > 0


def _la_graph_seed1():
    """The ``la_graph`` benchmark workload's seed-1 inputs, drawn with the
    same generators in the same order."""
    rng = np.random.default_rng([1, 0x1A])
    (rows, cols, values), n = sparse_profile("nlp240", scale=0.16, seed=1)
    rng.normal(size=n)  # the SMV vector
    rng.normal(size=(768, 768))  # the dense matrix
    rng.normal(size=768)  # the DMV vector
    pairs = np.unique(rng.integers(0, 400, size=(5000, 2)), axis=0)
    engine = LevelHeadedEngine()
    engine.register_matrix("sm", rows=rows, cols=cols, values=values, n=n, domain="sdim")
    engine.create_table(Schema("nodes", [key("v", domain="node")]), v=np.arange(400))
    engine.create_table(
        Schema("edges", [key("src", domain="node"), key("dst", domain="node")]),
        src=pairs[:, 0],
        dst=pairs[:, 1],
    )
    return engine


def test_la_graph_counters_equal_the_per_prefix_interpreter():
    engine = _la_graph_seed1()
    for sql, expected in (
        (TRIANGLE_SQL, (5322, 7189, 5321)),
        (matmul_sql("sm"), (480, 5700, 6180)),
    ):
        stats = engine.query(sql, collect_stats=True).stats
        assert (stats.intersections, stats.intersection_output, stats.loop_values) == expected
