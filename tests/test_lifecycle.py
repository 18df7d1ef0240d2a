"""Front-door parity: every way into the engine runs one query lifecycle.

``engine.query`` (ad-hoc and with params), ``PreparedStatement.execute``,
``engine.execute(plan)`` and the shard coordinator's ``query`` all enter
``LevelHeadedEngine._run_query``.  For one TPC-H query each door must
give the same rows, mint a ``query_id``, leave exactly one flight entry
and one query-log event with the same schema, root its trace as it
always did, and hand the governor slot back -- after a served query and
after a killed one.
"""

import io
import json

import pytest

import repro
from repro.errors import QueryTimeoutError

from .conftest import make_mini_tpch

Q3 = """
SELECT l_orderkey,
       sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate
FROM customer, orders, lineitem
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < {cutoff}
GROUP BY l_orderkey, o_orderdate
"""
SQL = Q3.format(cutoff="date '1995-03-15'")
PARAM_SQL = Q3.format(cutoff="?")
PARAMS = ["1995-03-15"]

#: door -> (DSN, how to run the query through it, its trace root's name)
DOORS = {
    "query": (None, lambda s, **kw: s.query(SQL, **kw), "query"),
    "query_params": (
        None, lambda s, **kw: s.query(PARAM_SQL, params=PARAMS, **kw), "query",
    ),
    "prepared": (
        None, lambda s, **kw: s.prepare(PARAM_SQL).execute(PARAMS, **kw), "query",
    ),
    "execute_plan": (
        None, lambda s, **kw: s.execute(s.compile(SQL), **kw), "query",
    ),
    "shard": (
        "shard://local?workers=1", lambda s, **kw: s.query(SQL, **kw),
        "shard.scatter",
    ),
}


def _observe(surface, run):
    """Run once; the result plus the flight entries and log events it left."""
    engine = getattr(surface, "engine", surface)
    sink = io.StringIO()
    engine.enable_query_log(sink)
    recorded = engine.flight.recorded
    result = run(surface, trace=True)
    entries = engine.flight.snapshot(n=engine.flight.recorded - recorded)
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    return result, entries, events


@pytest.fixture(scope="module")
def reference():
    return _observe(repro.connect(catalog=make_mini_tpch()), DOORS["query"][1])


@pytest.mark.parametrize("door", DOORS)
def test_every_front_door_runs_the_same_lifecycle(door, reference):
    dsn, run, root_name = DOORS[door]
    want, want_entries, want_events = reference
    surface = repro.connect(dsn, catalog=make_mini_tpch(), max_concurrency=2)
    engine = getattr(surface, "engine", surface)
    try:
        result, entries, events = _observe(surface, run)
        assert result.names == want.names
        assert result.to_rows() == want.to_rows()
        assert result.query_id
        assert result.trace.name == root_name
        assert [e["query_id"] for e in entries] == [result.query_id]
        assert [e["query_id"] for e in events] == [result.query_id]
        assert entries[0]["outcome"] == "ok"
        assert set(entries[0]) == set(want_entries[0])
        assert set(events[0]) == set(want_events[0])
        assert engine.governor.snapshot()["active"] == 0

        # an injected kill: the deadline has passed before the run starts
        with pytest.raises(QueryTimeoutError) as excinfo:
            run(surface, timeout_ms=1e-6)
        killed = engine.flight.snapshot(n=1)[0]
        assert killed["query_id"] == excinfo.value.query_id
        assert killed["outcome"] == "timeout"
        assert len(engine.inflight) == 0
        assert engine.governor.snapshot()["active"] == 0
    finally:
        surface.close()
