"""Differential tests: queries run in parallel must equal a lone run, exactly.

The engine runs each query on its caller's thread; a server or an
application runs several at once against one engine, sharing its
catalog tries, compiled plans and governor.  These tests release 1, 2
or 4 threads together on one engine and pin down:

* every result table is identical to a lone serial run's (same rows),
* every query's :class:`~repro.xcution.stats.ExecutionStats` counters
  are byte-identical to the lone run's (stats belong to one query),
* every query's profiler counters equal the lone run's (each thread
  records into the profiler it activated, never another thread's),
* repeated parallel runs are deterministic,
* ``memory_budget_bytes`` bounds each query's own aggregate state: a
  tight budget fails every thread, a generous one passes every thread.
"""

import numpy as np
import pytest

from repro import EngineConfig, LevelHeadedEngine, OutOfMemoryBudgetError
from repro.datasets.tpch.queries import Q5
from repro.la import matmul_sql
from tests.conftest import make_mini_tpch, on_threads

THREAD_COUNTS = [1, 2, 4]

# TPC-H Q3's shape (customer |x| orders |x| lineitem, revenue per
# order) restricted to the mini catalog's columns.
Q3_MINI = """
SELECT l_orderkey,
       sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate
FROM customer, orders, lineitem
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < date '1995-03-15'
GROUP BY l_orderkey, o_orderdate
"""


def _run(engine, sql):
    """Compile + execute outside the plan cache: pure executor counters."""
    result = engine.execute(engine.compile(sql), collect_stats=True)
    return result, result.stats


def _parallel(catalog, sql, threads, run=_run, config=None):
    """``run(engine, sql)`` on ``threads`` threads sharing one engine."""
    engine = LevelHeadedEngine(catalog, config=config)
    return on_threads(lambda: run(engine, sql), threads)


def _sparse_catalog(n=60, nnz=500, seed=11):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    flat = np.unique(rows * n + cols)
    rows, cols = flat // n, flat % n
    vals = rng.normal(size=rows.size)
    engine = LevelHeadedEngine()
    engine.register_matrix("m", rows=rows, cols=cols, values=vals, n=n, domain="dim")
    return engine.catalog


@pytest.fixture(scope="module")
def tpch_catalog():
    return make_mini_tpch()


@pytest.fixture(scope="module")
def smm_catalog():
    return _sparse_catalog()


@pytest.mark.parametrize("sql_name,sql", [("Q3", Q3_MINI), ("Q5", Q5)])
@pytest.mark.parametrize("threads", THREAD_COUNTS)
def test_tpch_parallel_matches_serial(tpch_catalog, sql_name, sql, threads):
    serial_result, serial_stats = _run(LevelHeadedEngine(tpch_catalog), sql)
    for par_result, par_stats in _parallel(tpch_catalog, sql, threads):
        assert par_result.sorted_rows() == serial_result.sorted_rows()
        assert par_stats.as_dict() == serial_stats.as_dict()


@pytest.mark.parametrize("threads", THREAD_COUNTS)
def test_smm_parallel_matches_serial(smm_catalog, threads):
    sql = matmul_sql("m")
    serial_result, serial_stats = _run(LevelHeadedEngine(smm_catalog), sql)
    for par_result, par_stats in _parallel(smm_catalog, sql, threads):
        assert par_result.sorted_rows() == serial_result.sorted_rows()
        assert par_stats.as_dict() == serial_stats.as_dict()


def test_parallel_repeated_runs_are_deterministic(tpch_catalog):
    runs = [run for _ in range(3) for run in _parallel(tpch_catalog, Q5, 4)]
    first_rows = runs[0][0].sorted_rows()
    first_stats = runs[0][1].as_dict()
    for result, stats in runs[1:]:
        assert result.sorted_rows() == first_rows
        assert stats.as_dict() == first_stats


def test_smm_parallel_repeated_runs_are_deterministic(smm_catalog):
    sql = matmul_sql("m")
    runs = [run for _ in range(3) for run in _parallel(smm_catalog, sql, 4)]
    first_rows = runs[0][0].sorted_rows()
    first_stats = runs[0][1].as_dict()
    for result, stats in runs[1:]:
        assert result.sorted_rows() == first_rows
        assert stats.as_dict() == first_stats


@pytest.mark.parametrize("threads", [2, 4])
def test_tight_budget_raises_under_parallel(smm_catalog, threads):
    """Concurrent queries must not pool their budgets.

    SMM on this catalog emits a few thousand groups; a budget sized
    for a handful must fail every one of the concurrent queries.
    """
    engine = LevelHeadedEngine(
        smm_catalog, config=EngineConfig(memory_budget_bytes=1000)
    )

    def query(engine, sql):
        with pytest.raises(OutOfMemoryBudgetError):
            engine.query(sql)

    on_threads(lambda: query(engine, matmul_sql("m")), threads)


def test_tight_budget_raises_serial_too(smm_catalog):
    config = EngineConfig(memory_budget_bytes=1000)
    engine = LevelHeadedEngine(smm_catalog, config=config)
    with pytest.raises(OutOfMemoryBudgetError):
        engine.query(matmul_sql("m"))


def _profile_counters(engine, sql):
    return engine.execute(engine.compile(sql), profile=True).profile.counters()


@pytest.mark.parametrize("sql_name,sql", [("Q3", Q3_MINI), ("Q5", Q5)])
@pytest.mark.parametrize("threads", THREAD_COUNTS)
def test_tpch_profiler_counters_parallel_match_serial(
    tpch_catalog, sql_name, sql, threads
):
    """Concurrent queries must not record into each other's profiles.

    Each thread activates its own profiler, so each sees exactly the
    pairwise intersections, operand layouts and bytes of a lone run.
    """
    serial = _profile_counters(LevelHeadedEngine(tpch_catalog), sql)
    par = _parallel(tpch_catalog, sql, threads, run=_profile_counters)
    assert par == [serial] * threads


@pytest.mark.parametrize("threads", THREAD_COUNTS)
def test_smm_profiler_counters_parallel_match_serial(smm_catalog, threads):
    sql = matmul_sql("m")
    serial = _profile_counters(LevelHeadedEngine(smm_catalog), sql)
    par = _parallel(smm_catalog, sql, threads, run=_profile_counters)
    assert par == [serial] * threads


def test_generous_budget_passes_under_parallel(smm_catalog):
    config = EngineConfig(memory_budget_bytes=50 * 1024 * 1024)
    runs = _parallel(
        smm_catalog, matmul_sql("m"), 4, run=lambda e, sql: e.query(sql), config=config
    )
    assert all(result.num_rows > 0 for result in runs)
