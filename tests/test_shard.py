"""The shard fleet, end to end: one surface, N worker processes.

Four contracts under test:

* **Differential correctness** -- every query answered by a shard
  surface (1, 2, and 4 workers) is byte-identical to the single-process
  serial engine: same column names, same dtypes, same values, same row
  order.  Covered across the router's three paths: scatter (Q1-style
  scan aggregate, Q3, Q5 -- lineitem and orders co-partitioned on
  orderkey), single (replicated-only operands), and local fallback
  (triangle's self-join off the partition key, SMM, GEMV).
* **Merged observability** -- ``collect_stats`` counters on routed
  queries equal the serial engine's byte for byte, one ``query_id``
  correlates the coordinator's flight entry with one entry per shard,
  and ``/healthz`` degrades when a worker dies.
* **Cancel fan-out** -- cancelling a scattered query kills it on every
  worker within the deadline envelope, frees the coordinator's
  governor slots, and leaves one ``cancelled`` flight entry per shard
  plus one at the coordinator, all sharing the query_id.
* **The unified surface** -- ``repro.connect()`` DSN parsing, the
  ``QuerySurface`` protocol across topologies, and typed
  ``UnsupportedOnTopology`` for options a topology cannot honor.
"""

import io
import json
import multiprocessing
import time

import numpy as np
import pytest

import repro
from repro import (
    CancelToken,
    EngineConfig,
    Governor,
    LevelHeadedEngine,
    QuerySurface,
    Schema,
    Table,
    annotation,
    key,
    parse_dsn,
)
from repro.errors import (
    QueryCancelledError,
    ReproError,
    UnsupportedOnTopology,
)
from repro.la import matmul_sql, matvec_sql
from repro.shard import (
    ShardCoordinator,
    choose_partition_domain,
    leading_domain,
    shard_indices,
    slice_table,
)
from repro.shard.coordinator import LOCAL, SCATTER, SINGLE
from repro.storage import AttrType, Catalog
from tests.conftest import make_matrix_catalog, make_mini_tpch

Q1_STYLE_SQL = (
    "SELECT sum(l_extendedprice * (1 - l_discount)) AS revenue, "
    "count(*) AS n, min(l_quantity) AS lo, max(l_quantity) AS hi "
    "FROM lineitem"
)

Q3_SQL = """
SELECT l_orderkey,
       sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate
FROM customer, orders, lineitem
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < date '1995-03-15'
GROUP BY l_orderkey, o_orderdate
"""

Q5_SQL = """
SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= date '1994-01-01'
  AND o_orderdate < date '1995-01-01'
GROUP BY n_name
"""

TRIANGLE_SQL = (
    "SELECT count(*) AS triangles FROM edges e1, edges e2, edges e3 "
    "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src"
)

#: a query over replicated tables only (region/nation never partition
#: when orderkey is the partition domain) -> the ``single`` route.
REPLICATED_SQL = (
    "SELECT r_name, count(*) AS n FROM nation, region "
    "WHERE n_regionkey = r_regionkey GROUP BY r_name"
)


def make_graph_catalog(n_nodes=20, n_edges=60, seed=7) -> Catalog:
    rng = np.random.default_rng(seed)
    edges = sorted(
        {(int(a), int(b)) for a, b in rng.integers(0, n_nodes, size=(n_edges, 2))}
    )
    cat = Catalog()
    cat.register(
        Table.from_columns(
            Schema("__v", [key("v", domain="node")]), v=np.arange(n_nodes)
        )
    )
    cat.register(
        Table.from_columns(
            Schema("edges", [key("src", domain="node"), key("dst", domain="node")]),
            src=[e[0] for e in edges],
            dst=[e[1] for e in edges],
        )
    )
    return cat


def make_la_catalog() -> Catalog:
    cat = make_matrix_catalog(
        entries=[
            (0, 0, 2.0), (0, 2, 4.0), (1, 0, 1.0), (1, 3, 2.5),
            (2, 3, 5.0), (3, 1, 3.0), (3, 4, 1.5), (4, 2, 0.5),
            (5, 5, 7.0), (5, 0, 2.0),
        ],
        n=6,
    )
    cat.register(
        Table.from_columns(
            Schema("vec", [key("i", domain="dim"), annotation("v")]),
            i=[0, 1, 2, 3, 4, 5],
            v=[1.0, 0.5, 2.0, 1.5, 3.0, 0.25],
        )
    )
    return cat


def assert_results_identical(serial, sharded):
    """Byte-identity: names, dtypes, values, and row order all equal."""
    assert list(sharded.names) == list(serial.names)
    assert sharded.num_rows == serial.num_rows
    for name in serial.names:
        want, got = serial.column(name), sharded.column(name)
        assert got.dtype == want.dtype, f"{name}: {got.dtype} != {want.dtype}"
        if want.dtype.kind == "O":
            assert got.tolist() == want.tolist(), name
        else:
            assert np.array_equal(got, want), name


# ---------------------------------------------------------------------------
# DSN parsing and repro.connect() dispatch
# ---------------------------------------------------------------------------


def test_parse_dsn_local_forms():
    assert parse_dsn(None) == ("local", {})
    assert parse_dsn("") == ("local", {})
    assert parse_dsn("local") == ("local", {})


def test_parse_dsn_tcp():
    assert parse_dsn("tcp://10.0.0.5:7687") == (
        "tcp",
        {"host": "10.0.0.5", "port": 7687},
    )


def test_parse_dsn_shard_options():
    scheme, options = parse_dsn(
        "shard://local?workers=4&partition=orderkey&start_method=spawn"
    )
    assert scheme == "shard"
    assert options == {
        "workers": 4,
        "partition": "orderkey",
        "start_method": "spawn",
    }
    assert parse_dsn("shard://local") == ("shard", {})


@pytest.mark.parametrize(
    "dsn",
    [
        "host:1234",                      # missing scheme
        "tcp://hostonly",                 # missing port
        "shard://remotehost?workers=2",   # only shard://local exists
        "shard://local?workers=zero",     # non-integer workers
        "shard://local?workers=0",        # < 1 worker
        "shard://local?wrokers=4",        # typo'd option never ignored
        "carrier-pigeon://local",         # unknown scheme
    ],
)
def test_parse_dsn_rejects_malformed(dsn):
    with pytest.raises(ReproError):
        parse_dsn(dsn)


def test_connect_local_returns_engine():
    engine = repro.connect()
    assert isinstance(engine, LevelHeadedEngine)
    assert isinstance(engine, QuerySurface)
    engine.close()


def test_connect_accepts_positional_config_for_back_compat():
    engine = repro.connect(EngineConfig(enable_blas=False))
    assert isinstance(engine, LevelHeadedEngine)
    assert engine.config.enable_blas is False
    with pytest.raises(ReproError):
        repro.connect(EngineConfig(), config=EngineConfig())


@pytest.mark.parametrize(
    "option, value",
    [
        ("catalog", Catalog()),
        ("config", EngineConfig()),
        ("max_concurrency", 4),
        ("global_memory_budget", 1 << 20),
        ("governor", Governor(max_concurrency=1)),
    ],
)
def test_connect_tcp_rejects_engine_options(option, value):
    with pytest.raises(UnsupportedOnTopology) as excinfo:
        repro.connect("tcp://127.0.0.1:7687", **{option: value})
    assert excinfo.value.option == option
    assert excinfo.value.topology == "tcp"


# ---------------------------------------------------------------------------
# differential correctness: sharded == serial, byte for byte
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=[1, 2, 4])
def tpch_fleet(request):
    """One serial engine and one N-worker shard surface, same catalog."""
    catalog = make_mini_tpch()
    serial = LevelHeadedEngine(catalog)
    sharded = repro.connect(
        f"shard://local?workers={request.param}", catalog=catalog
    )
    yield serial, sharded
    sharded.close()


@pytest.mark.parametrize(
    "sql", [Q1_STYLE_SQL, Q3_SQL, Q5_SQL, REPLICATED_SQL],
    ids=["q1_scan", "q3", "q5", "replicated"],
)
def test_sharded_matches_serial_on_tpch(tpch_fleet, sql):
    serial, sharded = tpch_fleet
    assert_results_identical(serial.query(sql), sharded.query(sql))


def test_auto_partition_domain_is_orderkey(tpch_fleet):
    serial, sharded = tpch_fleet
    sharded.query(Q1_STYLE_SQL)  # force the first sync
    assert sharded._partition_domain == "orderkey"


def test_router_picks_the_documented_routes(tpch_fleet):
    serial, sharded = tpch_fleet
    sharded.query(Q1_STYLE_SQL)  # force sync so _partitioned is populated
    for sql, route in [
        (Q1_STYLE_SQL, SCATTER),
        (Q3_SQL, SCATTER),
        (Q5_SQL, SCATTER),
        (REPLICATED_SQL, SINGLE),
    ]:
        plan, _, _ = sharded.engine._cached_plan(sql, sharded.engine.config)
        assert sharded._route(plan) == route, sql


def test_prepared_statement_routes_through_coordinator(tpch_fleet):
    serial, sharded = tpch_fleet
    sql = "SELECT sum(l_extendedprice) AS s FROM lineitem WHERE l_quantity > ?"
    with sharded.prepare(sql) as stmt:
        assert stmt.params == 1
        for threshold in (0.0, 5.0, 100.0):
            assert_results_identical(
                serial.query(sql, params=[threshold]),
                stmt.execute([threshold]),
            )


@pytest.fixture(scope="module", params=[2, 4])
def graph_fleet(request):
    catalog = make_graph_catalog()
    serial = LevelHeadedEngine(catalog)
    sharded = repro.connect(
        f"shard://local?workers={request.param}", catalog=catalog
    )
    yield serial, sharded
    sharded.close()


def test_triangle_falls_back_to_local_and_matches(graph_fleet):
    serial, sharded = graph_fleet
    assert_results_identical(serial.query(TRIANGLE_SQL), sharded.query(TRIANGLE_SQL))
    plan, _, _ = sharded.engine._cached_plan(TRIANGLE_SQL, sharded.engine.config)
    assert sharded._route(plan) == LOCAL


@pytest.fixture(scope="module")
def la_fleet():
    catalog = make_la_catalog()
    serial = LevelHeadedEngine(catalog)
    sharded = repro.connect("shard://local?workers=2", catalog=catalog)
    yield serial, sharded
    sharded.close()


@pytest.mark.parametrize(
    "sql", [matmul_sql("matrix"), matvec_sql("matrix", "vec")],
    ids=["smm", "gemv"],
)
def test_la_kernels_match_serial(la_fleet, sql):
    serial, sharded = la_fleet
    assert_results_identical(serial.query(sql), sharded.query(sql))


# ---------------------------------------------------------------------------
# merged stats and flight correlation
# ---------------------------------------------------------------------------


def test_scattered_stats_match_serial_counters():
    """Counters on a 1-worker scatter equal the serial engine's.

    The serial baseline passes an explicit CancelToken because worker
    sessions always mint one (cancel_checks would differ otherwise).
    """
    catalog = make_mini_tpch()
    serial = LevelHeadedEngine(catalog)
    with repro.connect("shard://local?workers=1", catalog=catalog) as sharded:
        want = serial.query(
            Q3_SQL, collect_stats=True, cancel_token=CancelToken()
        ).stats
        got = sharded.query(Q3_SQL, collect_stats=True).stats
        assert got.as_dict() == want.as_dict()


def test_scattered_stats_sum_across_two_workers():
    catalog = make_mini_tpch()
    serial = LevelHeadedEngine(catalog)
    want = serial.query(Q3_SQL, collect_stats=True).stats
    with repro.connect("shard://local?workers=2", catalog=catalog) as sharded:
        got = sharded.query(Q3_SQL, collect_stats=True).stats
    # scatter splits the groups across shards; the merged counters must
    # still account for every group and row exactly once
    assert got.groups_emitted == want.groups_emitted
    assert sum(got.node_rows.values()) == sum(want.node_rows.values())
    assert got.plan_cache_misses == 1  # the coordinator's own compile


def test_query_id_correlates_coordinator_and_every_shard():
    catalog = make_mini_tpch()
    with repro.connect("shard://local?workers=2", catalog=catalog) as sharded:
        result = sharded.query(Q3_SQL, collect_stats=True)
        qid = result.query_id
        assert qid
        assert result.stats.query_id == qid
        coord_entries = sharded.engine.debug_snapshot("flight")["entries"]
        assert [e["outcome"] for e in coord_entries if e["query_id"] == qid] == ["ok"]
        flight = sharded.debug("flight")
        assert len(flight["shards"]) == 2
        for shard_view in flight["shards"]:
            matching = [
                e for e in shard_view["entries"] if e["query_id"] == qid
            ]
            assert len(matching) == 1, f"shard {shard_view['shard']}"
            assert matching[0]["outcome"] == "ok"


def test_trace_stitches_one_span_per_shard():
    catalog = make_mini_tpch()
    with repro.connect("shard://local?workers=2", catalog=catalog) as sharded:
        result = sharded.query(Q3_SQL, trace=True)
        assert result.trace.name == "shard.scatter"
        shards = sorted(child.payload["shard"] for child in result.trace.children)
        assert shards == [0, 1]


def test_query_log_covers_every_route():
    """One JSONL event per query under the coordinator's query_id, on
    scatter, single and local routes alike -- and the slow-query log's
    forced trace reaches the routed ones too."""
    catalog = make_mini_tpch()
    with repro.connect("shard://local?workers=2", catalog=catalog) as sharded:
        sink = io.StringIO()
        sharded.enable_query_log(sink, slow_query_seconds=0.0)
        sharded.query("SELECT count(*) AS n FROM lineitem")  # sync, so routes are known
        sink.seek(0)
        sink.truncate()
        cases = [
            ("SELECT sum(l_extendedprice) AS s FROM lineitem", SCATTER),
            (REPLICATED_SQL, SINGLE),
            # a self-join of a partitioned table off its partition key
            (
                "SELECT count(*) AS n FROM lineitem a, lineitem b "
                "WHERE a.l_suppkey = b.l_suppkey",
                LOCAL,
            ),
        ]
        for sql, route in cases:
            plan, _, _ = sharded.engine._cached_plan(sql, sharded.engine.config)
            assert sharded._route(plan) == route, sql
        query_ids = [sharded.query(sql).query_id for sql, _ in cases]
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert [e["query_id"] for e in events] == query_ids
    assert [e["sql"] for e in events] == [sql for sql, _ in cases]
    assert len({tuple(e) for e in events}) == 1  # one schema on every route
    for event in events:
        assert event["event"] == "slow_query"
        assert event["trace"]["name"] == "query"


def test_metrics_prometheus_aggregates_worker_counters():
    catalog = make_mini_tpch()
    with repro.connect("shard://local?workers=2", catalog=catalog) as sharded:
        sharded.query(Q3_SQL)
        text = sharded.metrics_prometheus()
    assert "repro_shard_workers 2" in text
    assert "repro_shard_workers_alive 2" in text
    assert "repro_shard_worker_server_queries 2" in text


# ---------------------------------------------------------------------------
# cancellation fan-out
# ---------------------------------------------------------------------------


def make_slow_catalog(parts=4, nodes=500, edges=20_000) -> Catalog:
    """One random graph per partition key: counting 4-cycles inside each
    partition is cyclic, so every worker walks the generic join for
    seconds (about 1.4 s per partition on one core) -- slow because of
    the work, whatever the host or the kernels do."""
    rng = np.random.default_rng(7)
    square = nodes * nodes
    flat = np.concatenate(
        [np.unique(rng.integers(0, square, edges)) + p * square for p in range(parts)]
    )
    cat = Catalog()
    cat.register(
        Table.from_columns(
            Schema(
                "pedges",
                [
                    key("p", domain="part"),
                    key("src", domain="node"),
                    key("dst", domain="node"),
                ],
            ),
            p=flat // square,
            src=flat % square // nodes,
            dst=flat % nodes,
        )
    )
    cat.register(
        Table.from_columns(Schema("dimt", [key("p", domain="part")]), p=np.arange(parts))
    )
    return cat


SLOW_SQL = (
    "SELECT count(*) AS cycles FROM pedges e1, pedges e2, pedges e3, pedges e4 "
    "WHERE e1.p = e2.p AND e2.p = e3.p AND e3.p = e4.p "
    "AND e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e4.src AND e4.dst = e1.src"
)


def test_cancel_fans_out_to_every_worker_and_frees_slots():
    surface = repro.connect(
        "shard://local?workers=2",
        catalog=make_slow_catalog(),
        max_concurrency=2,
    )
    try:
        handle = surface.submit(SLOW_SQL)
        # wait for the coordinator to fan the query out to the workers
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            queries = surface.engine.inflight.snapshot()
            if any(q["phase"] == "shard.scatter" for q in queries):
                break
            time.sleep(0.01)
        else:
            pytest.fail("query never reached the scatter phase")
        time.sleep(0.05)
        assert handle.cancel()
        with pytest.raises(QueryCancelledError) as excinfo:
            handle.result(timeout=30.0)
        qid = excinfo.value.query_id
        assert qid

        # one cancelled flight entry at the coordinator...
        coord = [
            e
            for e in surface.engine.debug_snapshot("flight")["entries"]
            if e["query_id"] == qid
        ]
        assert [e["outcome"] for e in coord] == ["cancelled"]
        # ...and one per shard, within a bounded settle window (the
        # worker records its entry when the cancel frame lands)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            views = surface.debug("flight")["shards"]
            per_shard = [
                [e for e in view.get("entries", []) if e["query_id"] == qid]
                for view in views
            ]
            if all(len(entries) == 1 for entries in per_shard):
                break
            time.sleep(0.05)
        assert all(
            entries and entries[0]["outcome"] == "cancelled"
            for entries in per_shard
        ), per_shard

        # every governor slot is back
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if surface.engine.governor.snapshot()["active"] == 0:
                break
            time.sleep(0.05)
        assert surface.engine.governor.snapshot()["active"] == 0
        # the fleet still answers queries after the cancel storm
        assert surface.query(REPLICATED_SQL_SLOWCAT) is not None
        # and the cancelled query really was fanned out to the workers
        plan, _, _ = surface.engine._cached_plan(SLOW_SQL, surface.engine.config)
        assert surface._route(plan) == SCATTER
    finally:
        surface.close()


#: trivially fast follow-up query for the post-cancel health check.
REPLICATED_SQL_SLOWCAT = "SELECT count(*) AS n FROM dimt"


# ---------------------------------------------------------------------------
# liveness, degradation, and lifecycle
# ---------------------------------------------------------------------------


def test_healthz_degrades_when_a_worker_dies():
    from repro.server.http import MetricsHTTPServer

    surface = repro.connect("shard://local?workers=2", catalog=make_mini_tpch())
    try:
        surface.query(Q1_STYLE_SQL)
        http = MetricsHTTPServer(surface)
        assert http.health()["status"] == "ok"

        surface.workers[0].process.kill()
        surface.workers[0].process.join(timeout=10.0)
        payload = http.health()
        assert payload["status"] == "degraded"
        liveness = {s["shard"]: s["alive"] for s in payload["shards"]}
        assert liveness == {0: False, 1: True}
    finally:
        surface.close()


def test_close_leaves_no_worker_processes():
    surface = repro.connect("shard://local?workers=2", catalog=make_mini_tpch())
    pids = [w.process.pid for w in surface.workers]
    assert all(w.alive() for w in surface.workers)
    assert all(s["alive"] for s in surface.shard_liveness())
    surface.close()
    surface.close()  # idempotent
    for worker in surface.workers:
        assert not worker.alive()
    ours = {p.pid for p in multiprocessing.active_children()}
    assert not (ours & set(pids))


# ---------------------------------------------------------------------------
# typed topology errors
# ---------------------------------------------------------------------------


def test_shard_surface_rejects_unsupported_options(tpch_fleet):
    serial, sharded = tpch_fleet
    with pytest.raises(UnsupportedOnTopology) as excinfo:
        sharded.query(Q1_STYLE_SQL, config=EngineConfig())
    assert excinfo.value.option == "config"
    assert excinfo.value.topology == "shard"
    with pytest.raises(UnsupportedOnTopology) as excinfo:
        sharded.query(Q1_STYLE_SQL, profile=True)
    assert excinfo.value.option == "profile"
    with pytest.raises(UnsupportedOnTopology):
        sharded.query(Q1_STYLE_SQL, partial=True)
    with pytest.raises(UnsupportedOnTopology):
        sharded.prepare(Q1_STYLE_SQL, config=EngineConfig())
    with pytest.raises(UnsupportedOnTopology):
        sharded.config = EngineConfig()


# ---------------------------------------------------------------------------
# the partitioner
# ---------------------------------------------------------------------------


def test_shard_indices_partition_every_row_exactly_once(mini_tpch):
    lineitem = mini_tpch.tables["lineitem"]
    for workers in (1, 2, 3, 4):
        slices = shard_indices(lineitem, "l_orderkey", workers)
        assert len(slices) == workers
        combined = np.sort(np.concatenate(slices))
        assert np.array_equal(combined, np.arange(lineitem.num_rows))
    # co-partitioning: equal keys land on the same shard across tables
    orders = mini_tpch.tables["orders"]
    l_buckets = {
        int(k): shard
        for shard, idx in enumerate(shard_indices(lineitem, "l_orderkey", 3))
        for k in lineitem.column("l_orderkey")[idx]
    }
    o_buckets = {
        int(k): shard
        for shard, idx in enumerate(shard_indices(orders, "o_orderkey", 3))
        for k in orders.column("o_orderkey")[idx]
    }
    for orderkey, shard in o_buckets.items():
        assert l_buckets.get(orderkey, shard) == shard


def test_shard_indices_hash_non_integer_values():
    # key attributes are always integral in this engine, but the hash
    # path must still cover any value dtype deterministically
    table = Table.from_columns(
        Schema(
            "names",
            [key("id", domain="names"), annotation("name", AttrType.STRING)],
        ),
        id=[0, 1, 2, 3, 4],
        name=["alpha", "beta", "gamma", "delta", "epsilon"],
    )
    slices = shard_indices(table, "name", 2)
    combined = np.sort(np.concatenate(slices))
    assert np.array_equal(combined, np.arange(table.num_rows))
    again = shard_indices(table, "name", 2)
    for first, second in zip(slices, again):
        assert np.array_equal(first, second)


def test_choose_partition_domain_prefers_biggest_and_skips_anchors(mini_tpch):
    assert choose_partition_domain(mini_tpch.tables.values()) == "orderkey"
    la = make_la_catalog()
    # the __dim-style anchor table must not vote
    anchor_only = [t for t in la.tables.values() if t.name.startswith("__")]
    assert choose_partition_domain(la.tables.values()) is not None


def test_slice_table_keeps_schema_and_rows(mini_tpch):
    lineitem = mini_tpch.tables["lineitem"]
    indices = np.array([0, 3, 5])
    sliced = slice_table(lineitem, indices)
    assert sliced.schema is lineitem.schema
    assert sliced.num_rows == 3
    assert np.array_equal(
        sliced.column("l_orderkey"), lineitem.column("l_orderkey")[indices]
    )


def test_leading_domain(mini_tpch):
    assert leading_domain(mini_tpch.tables["lineitem"]) == "orderkey"
    assert leading_domain(mini_tpch.tables["region"]) == "regionkey"
