"""The frontier executor against an independent oracle.

Every shape the generic join handles -- cyclic (triangle, 4-cycle),
both SMM attribute orders of Fig. 5b, SMV, TPC-H Q5 with its mid-walk
``n_name`` fetch, MIN/MAX over a join -- is run by 1, 2 and 4 threads
querying one engine at once, with the default window size and with
windows of a few rows, and under a tight memory budget, and compared
with :class:`repro.baselines.PairwiseEngine` (hash joins over raw rows,
no tries).  Each thread count starts from a fresh catalog, so its
threads race to build the shared tries' probe indexes.  The work
counters must not depend on the thread count or the window size, and on
the ``la_graph`` benchmark's seed-1 inputs they must equal what
Algorithm 1 counts per prefix.
"""

import numpy as np
import pytest

from repro import EngineConfig, LevelHeadedEngine, OutOfMemoryBudgetError, Schema, key
from repro.baselines import PairwiseEngine
from repro.datasets import generate_tpch, sparse_profile
from repro.datasets.tpch.queries import Q5, Q10
from repro.la import matmul_sql, matvec_sql
from repro.xcution import generic_join
from tests.conftest import CYCLE4_SQL, graph_catalog, make_mini_tpch, on_threads

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


_RELAXED, _FLAT = _smm_orders(_sparse_catalog())

#: name -> (catalog factory, SQL, extra config)
SHAPES = {
    "triangle": (lambda: graph_catalog(60, 500), TRIANGLE_SQL, {}),
    # 300 x 300 cells over ~1 500 edges: the closing level probes a bitmap
    "triangle_bitmap": (lambda: graph_catalog(300, 1500), TRIANGLE_SQL, {}),
    "cycle4": (lambda: graph_catalog(30, 150), CYCLE4_SQL, {}),
    "smm_relaxed": (_sparse_catalog, matmul_sql("m"), {"forced_root_order": _RELAXED}),
    "smm_ijk": (_sparse_catalog, matmul_sql("m"), {"forced_root_order": _FLAT}),
    "smv": (_sparse_catalog, matvec_sql("m", "x"), {}),
    "q5": (make_mini_tpch, Q5, {}),
    "minmax": (make_mini_tpch, MINMAX_SQL, {}),
}


def _engine(name, **extra):
    """A fresh engine on a fresh catalog for shape ``name``."""
    make, _sql, shape_extra = SHAPES[name]
    config = EngineConfig(enable_blas=False, **shape_extra, **extra)
    return LevelHeadedEngine(make(), config=config)


def _run(engine, sql):
    result = engine.execute(engine.compile(sql), collect_stats=True)
    return result, result.stats


def _assert_rows_match(got, want):
    got, want = got.sorted_rows(), want.sorted_rows()
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


@pytest.fixture(scope="module")
def oracle():
    return {name: PairwiseEngine(make()).query(sql) for name, (make, sql, _) in SHAPES.items()}


@pytest.mark.parametrize("name", sorted(SHAPES))
@pytest.mark.parametrize("window_rows", [None, 3])
def test_frontier_matches_pairwise_at_every_thread_count(oracle, monkeypatch, name, window_rows):
    if window_rows is not None:
        monkeypatch.setattr(generic_join, "CHUNK_ROWS", window_rows)
    sql = SHAPES[name][1]
    runs = []
    for threads in (1, 2, 4):
        # a fresh catalog: no probe index exists until the threads race
        engine = _engine(name)
        runs += on_threads(lambda: _run(engine, sql), threads)
    for result, stats in runs:
        _assert_rows_match(result, oracle[name])
        # same windows, same steps: identical counters and results
        assert stats.as_dict() == runs[0][1].as_dict()
        assert result.sorted_rows() == runs[0][0].sorted_rows()


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_work_counters_do_not_depend_on_window_size(monkeypatch, name):
    sql = SHAPES[name][1]
    _result, whole = _run(_engine(name), sql)
    monkeypatch.setattr(generic_join, "CHUNK_ROWS", 2)
    _result, windowed = _run(_engine(name), sql)
    assert {f: getattr(windowed, f) for f in WORK} == {f: getattr(whole, f) for f in WORK}
    assert windowed.cancel_checks == whole.cancel_checks == 0  # no token, no polls


@pytest.mark.parametrize("name", sorted(SHAPES))
@pytest.mark.parametrize("threads", [1, 4])
def test_frontier_under_tight_memory_budget(oracle, monkeypatch, name, threads):
    # 72 bytes per output group: below the live footprint of a group
    # (64 + 8 x cells, cells >= 2) but above its spilled one (8 + 8 x
    # cells, cells <= 4 here), so grouped shapes must degrade to spilled
    # runs and still be right; each of the concurrent queries holds the
    # whole budget
    monkeypatch.setattr(generic_join, "CHUNK_ROWS", 5)
    sql = SHAPES[name][1]
    budget = 72 * max(oracle[name].num_rows, 1)
    engine = _engine(name, memory_budget_bytes=budget)
    try:
        runs = on_threads(lambda: _run(engine, sql), threads)
    except OutOfMemoryBudgetError:  # pragma: no cover - a failure, with context
        pytest.fail(f"{name}: {budget} bytes should fit once degraded")
    for result, stats in runs:
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


def _record_probes(monkeypatch):
    """Collect ``(alias, level, probe kind)`` for every frontier probe."""
    seen = []
    probe = generic_join.NodeExecutor._probe

    def recording(self, bi, lvl, parents, values):
        hit = probe(self, bi, lvl, parents, values)
        binding = self.bindings[bi]
        seen.append((binding.alias, lvl, binding.trie.level(lvl).probe_kind))
        return hit

    monkeypatch.setattr(generic_join.NodeExecutor, "_probe", recording)
    return seen


def test_la_graph_triangle_closes_through_the_bitmap(monkeypatch):
    # the closing level is 400 parents x 400 values: 160 000 cells over
    # ~4 900 nodes, past the direct table's 65 536-cell floor
    seen = _record_probes(monkeypatch)
    _la_graph_seed1().query(TRIANGLE_SQL)
    # the triangle's only level-1 probes are the closing attribute's
    assert {kind for _alias, lvl, kind in seen if lvl == 1} == {"bitmap"}


def test_tpch_q10_nation_to_customer_level_probes_through_the_bitmap(monkeypatch):
    # 25 nations x 4 500 customers (SF 0.03): 112 500 cells over 4 500 nodes
    catalog = generate_tpch(scale_factor=0.03, seed=2018)
    seen = _record_probes(monkeypatch)
    want = PairwiseEngine(catalog).query(Q10)
    _assert_rows_match(LevelHeadedEngine(catalog).query(Q10), want)
    assert {kind for alias, lvl, kind in seen if (alias, lvl) == ("customer", 1)} == {"bitmap"}
