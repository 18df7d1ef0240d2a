"""One outcome record per query: the flight entry is the source of truth.

Every query that leaves ``LevelHeadedEngine._run_query`` -- served,
failed, killed (while running or while queued), rejected or degraded --
leaves exactly one flight-recorder entry, and the outcome counters and
the query-log event are read off that entry.  For each outcome, on
every front door that supports it (``shard://`` rejects ``approx``, so
it has no degraded case), one query must:

* leave exactly one flight entry, with the expected outcome and the
  field set every entry shares;
* move exactly its own outcome counters by one and every other outcome
  counter by zero;
* write exactly one ``killed_query`` log event when it was killed, and
  none otherwise.
"""

import io
import json
import threading

import pytest

import repro
from repro.core.governor import CancelToken, Governor
from repro.errors import (
    OutOfMemoryBudgetError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    RetryableAdmissionError,
)
from repro.server import ReproServer
from repro.xcution.plan import EngineConfig

from .conftest import CYCLE4_SQL, SLOW_GRAPH, flight_entry, graph_catalog

DEGREE_SQL = "SELECT src, count(*) AS degree FROM edges GROUP BY src"

#: every counter that counts a query's outcome (one increment site each:
#: ``MetricsRegistry.record_query``).
OUTCOME_COUNTERS = (
    "queries_served",
    "query_timeouts",
    "query_cancellations",
    "query_oom",
    "admission_rejected",
    "degraded_to_approx",
)

KILLS = ("timeout", "cancelled", "oom")


def _cancel_soon(surface, **kw):
    token = CancelToken()
    threading.Timer(0.1, token.cancel, args=("stop",)).start()
    return surface.query(CYCLE4_SQL, cancel_token=token, **kw)


#: case -> (flight outcome, counters moved by one, raised error or None,
#: whether the governor's one slot is held, how to run the query)
CASES = {
    "ok": ("ok", {"queries_served"}, None, False,
           lambda s: s.query(DEGREE_SQL)),
    "error": ("error", set(), ReproError, False,
              lambda s: s.query("SELECT nope FROM edges")),
    "timeout_running": ("timeout", {"query_timeouts"}, QueryTimeoutError, False,
                        lambda s: s.query(CYCLE4_SQL, timeout_ms=150)),
    "timeout_queued": ("timeout", {"query_timeouts"}, QueryTimeoutError, True,
                       lambda s: s.query(DEGREE_SQL, timeout_ms=100)),
    "cancelled": ("cancelled", {"query_cancellations"}, QueryCancelledError, False,
                  _cancel_soon),
    "oom": ("oom", {"query_oom"}, OutOfMemoryBudgetError, False,
            lambda s: s.query(DEGREE_SQL)),
    "rejected": ("rejected", {"admission_rejected"}, RetryableAdmissionError, True,
                 lambda s: s.query(DEGREE_SQL)),
    "degraded": ("ok", {"queries_served", "degraded_to_approx"}, None, True,
                 lambda s: s.query(DEGREE_SQL)),
}

SURFACES = ("local", "tcp", "shard")


def _open(kind, case):
    """(surface, server-side engine, governor, closer) for one case."""
    governor = Governor(
        max_concurrency=1,
        max_queue=0 if case in ("rejected", "degraded") else 4,
    )
    config = EngineConfig(
        # below the ~600 (src, count) groups' spilled footprint
        memory_budget_bytes=300 if case == "oom" else None,
        approx="allow" if case == "degraded" else "never",
    )
    catalog = graph_catalog(*SLOW_GRAPH)
    if kind == "shard":
        surface = repro.connect(
            "shard://local?workers=1", catalog=catalog, governor=governor, config=config
        )
        return surface, surface.engine, governor, surface.close
    engine = repro.connect(catalog=catalog, governor=governor, config=config)
    if case == "degraded":
        engine.create_sample("edges", 0.5, seed=1)
    if kind == "local":
        return engine, engine, governor, engine.close
    server = ReproServer(engine, port=0)
    server.start()
    remote = repro.connect(
        f"tcp://{server.host}:{server.port}",
        approx="allow" if case == "degraded" else None,
    )

    def close():
        remote.close()
        server.stop()

    return remote, engine, governor, close


@pytest.mark.parametrize(
    "case, kind",
    [
        (case, kind)
        for case in CASES
        for kind in SURFACES
        # shard:// rejects approx (UnsupportedOnTopology): no degrade
        if not (kind == "shard" and case == "degraded")
    ],
)
def test_each_outcome_leaves_one_record_and_counts_off_it(case, kind):
    outcome, moved, error, hold, run = CASES[case]
    surface, engine, governor, close = _open(kind, case)
    sink = io.StringIO()
    engine.enable_query_log(sink)
    before = {name: engine.metrics.counter(name) for name in OUTCOME_COUNTERS}
    recorded = engine.flight.recorded
    held = governor.admit(cached=True, token=None) if hold else None
    try:
        if error is None:
            result = run(surface)
            query_id = result.query_id
        else:
            with pytest.raises(error) as excinfo:
                run(surface)
            query_id = excinfo.value.query_id
    finally:
        if held is not None:
            governor.release(held)
        try:
            assert engine.governor.snapshot()["active"] == 0
            assert len(engine.inflight) == 0
        finally:
            close()

    # exactly one flight entry, under the query's id
    assert engine.flight.recorded - recorded == 1
    entry = engine.flight.snapshot(n=1)[0]
    assert entry["outcome"] == outcome
    assert entry["query_id"] == query_id
    assert set(entry) - {"error"} == set(flight_entry())
    if case == "degraded":
        assert result.approx["mode"] == "degraded"
        assert entry["annotations"]["approx"]["mode"] == "degraded"
        assert entry["cause"] == "queue_full"
    if case == "rejected":
        assert entry["cause"] == "queue_full"
        assert engine.metrics.counter("admission_rejected_queue_full") == 1
    if case == "timeout_queued":
        assert entry["mode"] is None and entry["cache_outcome"] is None

    # its counters moved by one, every other outcome counter stayed put
    deltas = {
        name: engine.metrics.counter(name) - before[name] for name in OUTCOME_COUNTERS
    }
    assert deltas == {name: int(name in moved) for name in OUTCOME_COUNTERS}

    # a kill is one killed_query event; a served query one query event;
    # rejections and errors write none
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert [e["query_id"] for e in events] == (
        [query_id] if outcome == "ok" or outcome in KILLS else []
    )
    killed = [e for e in events if e["event"] == "killed_query"]
    assert len(killed) == (1 if outcome in KILLS else 0)
    if killed:
        assert killed[0]["outcome"] == outcome
        assert killed[0]["trace"]["name"] == "query"
    if case == "timeout_queued":
        # killed before any plan existed: the event says so
        assert killed[0]["mode"] is None and killed[0]["plan"] is None
