"""Shared fixtures: a miniature TPC-H-shaped catalog and matrices."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.storage import AttrType, Catalog, Schema, Table, annotation, key


def make_mini_tpch() -> Catalog:
    """A tiny, hand-checkable TPC-H-shaped database.

    2 regions, 4 nations, 4 suppliers, 6 customers, 8 orders, 14
    lineitems -- small enough that every query result can be verified
    by hand or by a brute-force reference join.
    """
    cat = Catalog()
    cat.register(
        Table.from_columns(
            Schema(
                "region",
                [key("r_regionkey", domain="regionkey"), annotation("r_name", AttrType.STRING)],
            ),
            r_regionkey=[0, 1],
            r_name=["ASIA", "EUROPE"],
        )
    )
    cat.register(
        Table.from_columns(
            Schema(
                "nation",
                [
                    key("n_nationkey", domain="nationkey"),
                    key("n_regionkey", domain="regionkey"),
                    annotation("n_name", AttrType.STRING),
                ],
            ),
            n_nationkey=[0, 1, 2, 3],
            n_regionkey=[0, 0, 1, 1],
            n_name=["CHINA", "JAPAN", "FRANCE", "GERMANY"],
        )
    )
    cat.register(
        Table.from_columns(
            Schema(
                "supplier",
                [
                    key("s_suppkey", domain="suppkey"),
                    key("s_nationkey", domain="nationkey"),
                    annotation("s_acctbal"),
                ],
            ),
            s_suppkey=[0, 1, 2, 3],
            s_nationkey=[0, 1, 2, 3],
            s_acctbal=[100.0, 200.0, 300.0, 400.0],
        )
    )
    cat.register(
        Table.from_columns(
            Schema(
                "customer",
                [
                    key("c_custkey", domain="custkey"),
                    key("c_nationkey", domain="nationkey"),
                    annotation("c_acctbal"),
                    annotation("c_name", AttrType.STRING),
                ],
            ),
            c_custkey=[0, 1, 2, 3, 4, 5],
            c_nationkey=[0, 0, 1, 2, 3, 1],
            c_acctbal=[10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
            c_name=["c0", "c1", "c2", "c3", "c4", "c5"],
        )
    )
    cat.register(
        Table.from_columns(
            Schema(
                "orders",
                [
                    key("o_orderkey", domain="orderkey"),
                    key("o_custkey", domain="custkey"),
                    annotation("o_orderdate", AttrType.DATE),
                    annotation("o_totalprice"),
                ],
            ),
            o_orderkey=[0, 1, 2, 3, 4, 5, 6, 7],
            o_custkey=[0, 1, 2, 3, 4, 5, 0, 2],
            # dates: orders 0,1,2,3,6 in 1994 (1994-01-01 is ordinal
            # 727929), orders 4,5,7 in 1995
            o_orderdate=[727929, 727959, 727989, 728019, 728325, 728355, 727930, 728385],
            o_totalprice=[100.0, 110.0, 120.0, 130.0, 140.0, 150.0, 160.0, 170.0],
        )
    )
    cat.register(
        Table.from_columns(
            Schema(
                "lineitem",
                [
                    key("l_orderkey", domain="orderkey"),
                    key("l_suppkey", domain="suppkey"),
                    annotation("l_extendedprice"),
                    annotation("l_discount"),
                    annotation("l_quantity"),
                    annotation("l_shipdate", AttrType.DATE),
                ],
            ),
            # order 0 has two lines with the same supplier (dup key tuple)
            l_orderkey=[0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 7, 2, 3],
            l_suppkey=[0, 0, 1, 1, 2, 2, 3, 0, 1, 2, 3, 0, 0, 1],
            l_extendedprice=[10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140.0],
            l_discount=[0.1, 0.0, 0.2, 0.1, 0.0, 0.3, 0.1, 0.0, 0.2, 0.1, 0.0, 0.1, 0.2, 0.0],
            l_quantity=[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14.0],
            l_shipdate=[727930, 727960, 727990, 728020, 728326, 728356, 727932, 728390,
                        728420, 727935, 728450, 728460, 727995, 728025],
        )
    )
    return cat


def graph_catalog(n_nodes: int, n_edges: int, seed: int = 7) -> Catalog:
    """A seeded random directed graph: ``edges(src, dst)`` (``n_edges``
    draws, duplicates dropped, sorted) plus a ``__v`` anchor holding
    every node of the shared ``node`` domain."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n_nodes, size=(n_edges, 2))
    flat = np.unique(pairs[:, 0] * n_nodes + pairs[:, 1])
    catalog = Catalog()
    catalog.register(
        Table.from_columns(Schema("__v", [key("v", domain="node")]), v=np.arange(n_nodes))
    )
    catalog.register(
        Table.from_columns(
            Schema("edges", [key("src", domain="node"), key("dst", domain="node")]),
            src=flat // n_nodes,
            dst=flat % n_nodes,
        )
    )
    return catalog


#: counts directed 4-cycles: a cyclic join whose frontier stays wide for
#: four attributes, so it does far more work per input edge than a
#: triangle count.
CYCLE4_SQL = (
    "SELECT count(*) AS cycles FROM edges e1, edges e2, edges e3, edges e4 "
    "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e4.src "
    "AND e4.dst = e1.src"
)

#: ``graph_catalog(*SLOW_GRAPH)``: its ``CYCLE4_SQL`` count runs about
#: 2 s on one thread (1.7-3.3 s on an x86 container core as host load
#: varied; its closing level probes a presence bitmap) and compiles in
#: ~30 ms, at least 10x every deadline or cancel delay the governance
#: tests use (150 ms at most).
SLOW_GRAPH = (600, 30_000)


def on_threads(fn, threads: int) -> list:
    """Call ``fn()`` on ``threads`` threads released together.

    Returns the results in thread order; the first failure re-raises.
    Concurrent queries share cached tries, cached plans and the
    governor, so this is how the suite races them.
    """
    if threads == 1:
        return [fn()]
    barrier = threading.Barrier(threads, timeout=60)

    def task():
        barrier.wait()
        return fn()

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(task) for _ in range(threads)]
        return [future.result(timeout=300) for future in futures]


def flight_entry(**fields) -> dict:
    """A finished query's flight-recorder entry: a served query by default.

    ``LevelHeadedEngine._finish_query`` builds these; the metrics
    (``MetricsRegistry.record_query``) and the query log
    (``QueryLog.record``) read them.  ``fields`` override the defaults.
    """
    entry = {
        "query_id": "q1-1", "ts": 0.0, "session": None, "sql": "q",
        "sql_hash": None, "outcome": "ok", "mode": "join",
        "cache_outcome": "miss", "queued": False, "admission_wait_ms": 0.0,
        "cause": None, "compile_ms": None, "execute_ms": 1.0, "rows": 0,
        "bytes_out": 0, "groups": 0, "cancel_checks": 0, "nodes": [],
        "q_error_max": None, "drifted": False, "annotations": {},
    }
    entry.update(fields)
    return entry


def make_matrix_catalog(entries=None, n=4) -> Catalog:
    """A catalog with one sparse 'matrix' table over a shared dim domain."""
    cat = Catalog()
    if entries is None:
        entries = [(0, 0, 2.0), (0, 2, 4.0), (1, 0, 1.0), (3, 1, 3.0), (2, 3, 5.0)]
    i = [e[0] for e in entries]
    j = [e[1] for e in entries]
    v = [e[2] for e in entries]
    # Anchor the shared dim domain with every index 0..n-1.
    anchor = Table.from_columns(
        Schema("dimension", [key("d", domain="dim")]), d=list(range(n))
    )
    cat.register(anchor)
    cat.register(
        Table.from_columns(
            Schema(
                "matrix",
                [key("i", domain="dim"), key("j", domain="dim"), annotation("v")],
            ),
            i=i,
            j=j,
            v=v,
        )
    )
    return cat


@pytest.fixture()
def mini_tpch():
    return make_mini_tpch()


@pytest.fixture()
def matrix_catalog():
    return make_matrix_catalog()
