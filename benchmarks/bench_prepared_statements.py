"""Prepared statements and the plan cache: compile-time amortization.

The paper's workloads repeat statements -- TPC-H refresh runs re-issue
the same queries, and iterated LA kernels (PageRank's SpMV loop) run
one statement per iteration.  This experiment measures how much of a
repeated query's latency is compilation (parse → bind → translate →
GHD → cost-ordered plan) by comparing four paths on Q5 and Q6:

* **cold**      -- compile + execute every time (plan cache cleared;
  the text's parse stays memoized),
* **cached**    -- plain ``engine.query()`` hitting the plan cache,
* **fresh**     -- a new selection literal on every run: each run hits
  its shape's cached plan skeleton and binds it, rebuilding only the
  filtered trie whose own literal changed (the other relations'
  bindings come from the skeleton's binding memos),
* **prepared**  -- ``engine.prepare()`` once, ``execute(params)`` per run.

Shape expectation: cached/prepared are strictly faster than cold, with
the gap largest for the many-table Q5 (GHD search dominates compile
time); fresh sits between cached and cold on Q5 -- it parses its new
text and builds one filtered trie (``orders``) but never re-plans,
since every value set of a shape binds one skeleton.  On the scan Q6
(no trie to build, little to plan) parsing the new text is most of a
compile, so fresh can read as slow as cold.
"""

import datetime
import itertools

import pytest

from repro import LevelHeadedEngine
from repro.bench import Measurement, comparison_row, render_table, run_guarded
from repro.datasets import TPCH_QUERIES

from .conftest import REPEATS, TIMEOUT, TPCH_SF

Q6_PARAM = """
SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= :lo
  AND l_shipdate < :hi
  AND l_discount BETWEEN 0.05 AND 0.07
  AND l_quantity < 24
"""
Q6_ARGS = {"lo": "1994-01-01", "hi": "1995-01-01"}

PATHS = ["cold", "cached", "fresh", "prepared"]
_rows = {}

_LOW = datetime.date(1994, 1, 1)


def _shifted(days: int) -> str:
    """The ISO date ``days`` before 1994-01-01: a fresh lower bound."""
    return (_LOW - datetime.timedelta(days=days)).isoformat()


def _report(report_log):
    report_log.add_table(
        "prepared_statements",
        render_table(
            "Prepared statements: per-run latency by compilation path",
            ["query", "baseline"] + PATHS,
            [_rows[key] for key in sorted(_rows)],
        ),
    )


@pytest.mark.parametrize("query", ["Q5", "Q6"])
def test_plan_cache_amortizes_compilation(benchmark, tpch_catalog, query, report_log):
    engine = LevelHeadedEngine(tpch_catalog)
    sql = TPCH_QUERIES[query]
    engine.query(sql)  # warm tries and the plan cache

    def cold():
        engine.plan_cache.clear()
        return engine.query(sql)

    shifts = itertools.count(1)

    def fresh():
        literal = f"date '{_shifted(next(shifts))}'"
        return engine.query(sql.replace(f"date '{_LOW.isoformat()}'", literal))

    measurements = {
        "cold": run_guarded(cold, repeats=REPEATS, timeout_seconds=TIMEOUT)
    }
    engine.query(sql)  # re-populate the cache evicted by the cold runs
    misses = engine.plan_cache.stats.misses
    measurements["fresh"] = run_guarded(fresh, repeats=REPEATS, timeout_seconds=TIMEOUT)
    assert engine.plan_cache.stats.misses == misses  # fresh literals hit
    result = benchmark.pedantic(lambda: engine.query(sql), rounds=REPEATS, warmup_rounds=1)
    measurements["cached"] = Measurement("ok", seconds=benchmark.stats.stats.mean)

    stmt = engine.prepare(sql)
    measurements["prepared"] = run_guarded(
        stmt.execute, repeats=REPEATS, timeout_seconds=TIMEOUT
    )
    assert result.num_rows > 0
    assert engine.plan_cache.stats.hits > 0

    _rows[query] = comparison_row(f"{query} (SF {TPCH_SF})", measurements, PATHS)
    _report(report_log)


def test_parameterized_q6(benchmark, tpch_catalog, report_log):
    engine = LevelHeadedEngine(tpch_catalog)
    inline = engine.query(TPCH_QUERIES["Q6"]).single_value()
    stmt = engine.prepare(Q6_PARAM)

    def cold():
        engine.plan_cache.clear()
        return stmt.execute(Q6_ARGS)

    shifts = itertools.count(1)
    measurements = {
        "cold": run_guarded(cold, repeats=REPEATS, timeout_seconds=TIMEOUT),
        "cached": run_guarded(
            lambda: engine.query(Q6_PARAM, Q6_ARGS),
            repeats=REPEATS,
            timeout_seconds=TIMEOUT,
        ),
        "fresh": run_guarded(
            lambda: stmt.execute({**Q6_ARGS, "lo": _shifted(next(shifts))}),
            repeats=REPEATS,
            timeout_seconds=TIMEOUT,
        ),
    }
    stmt.execute(Q6_ARGS)  # re-populate after the cache-clearing cold runs
    recompiles_before = stmt.recompiles
    result = benchmark.pedantic(
        lambda: stmt.execute(Q6_ARGS), rounds=REPEATS, warmup_rounds=1
    )
    measurements["prepared"] = Measurement("ok", seconds=benchmark.stats.stats.mean)
    # parameterized execution matches the inlined-constant query exactly
    assert result.single_value() == pytest.approx(inline)
    assert stmt.recompiles == recompiles_before  # warm runs never recompile

    _rows["Q6 (:named)"] = comparison_row(
        f"Q6 params (SF {TPCH_SF})", measurements, PATHS
    )
    _report(report_log)
