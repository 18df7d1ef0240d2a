"""Tests for the kernel profiler (``repro.obs.profile``): per-trie-level
time attribution, layout dispatch counters, report rendering, and the
per-thread activation slot."""

import re
import threading

import pytest

from repro import LevelHeadedEngine
from repro.obs import KernelProfiler, activate
from repro.obs import profile as profile_module
from tests.conftest import make_mini_tpch, on_threads
from tests.test_engine import Q5_SQL


@pytest.fixture(scope="module")
def engine():
    return LevelHeadedEngine(make_mini_tpch())


def test_profile_off_by_default(engine):
    result = engine.query(Q5_SQL)
    assert result.profile is None
    assert profile_module.active() is None


def test_profile_attributes_execution_time():
    engine = LevelHeadedEngine(make_mini_tpch())
    result = engine.query(Q5_SQL, profile=True)
    prof = result.profile
    assert isinstance(prof, KernelProfiler)
    assert prof.execute_seconds > 0
    # the acceptance bar: per-level + category times account for the
    # execute span to within 20%
    attributed = prof.attributed_seconds()
    assert attributed == pytest.approx(prof.execute_seconds, rel=0.2)
    assert profile_module.active() is None  # deactivated after the query


def test_profile_counters_shape(engine):
    prof = engine.query(Q5_SQL, profile=True).profile
    counters = prof.counters()
    assert set(counters) == {
        "kernel_counts", "layout_mix", "bytes_intersected",
        "intersection_values", "trie_builds", "trie_bytes", "lazy_builds",
    }
    assert counters["lazy_builds"] == 0
    assert sum(counters["kernel_counts"].values()) > 0
    assert set(counters["layout_mix"]) == {"bitset", "uint", "dense"}
    assert counters["bytes_intersected"] > 0
    # every kernel invocation touches exactly two operands
    assert sum(counters["layout_mix"].values()) >= \
        2 * sum(counters["kernel_counts"].values()) - counters["layout_mix"]["dense"]


def test_profile_level_rows_cover_the_join(engine):
    prof = engine.query(Q5_SQL, profile=True).profile
    rows = prof.level_rows()
    assert rows, "expected per-level attribution rows"
    for row in rows:
        assert set(row) == {"node", "level", "attr", "seconds"}
        assert isinstance(row["node"], str)
        assert isinstance(row["level"], int) and row["level"] >= 0
        assert isinstance(row["attr"], str)
        assert row["seconds"] >= 0.0


def test_profile_collapsed_stack_format(engine):
    prof = engine.query(Q5_SQL, profile=True).profile
    lines = prof.collapsed_stacks()
    assert lines
    pattern = re.compile(r"^execute(;[^ ;]+)+ \d+$")
    for line in lines:
        assert pattern.match(line), line
    assert any(";level0:" in line for line in lines)


def test_profile_render_smoke(engine):
    text = engine.query(Q5_SQL, profile=True).profile.render()
    assert "kernel profile" in text
    assert "execute" in text
    assert "layout mix" in text
    assert "aggregator high-water" in text


def test_profile_via_execute_and_prepared(engine):
    plan = engine.compile(Q5_SQL)
    result = engine.execute(plan, profile=True)
    assert result.profile is not None and result.profile.execute_seconds > 0
    stmt = engine.prepare(Q5_SQL)
    result = stmt.execute(profile=True)
    assert result.profile is not None


def test_profile_records_trie_builds():
    # a fresh engine so the first query builds its tries while profiling
    engine = LevelHeadedEngine(make_mini_tpch())
    prof = engine.query(Q5_SQL, profile=True).profile
    counters = prof.counters()
    assert counters["trie_builds"] > 0
    assert counters["trie_bytes"] > 0
    assert all(b["tuples"] >= 0 for b in prof.trie_builds)


def test_activate_is_reentrant_and_restores():
    outer, inner = KernelProfiler(), KernelProfiler()
    assert profile_module.active() is None
    with activate(outer):
        assert profile_module.active() is outer
        with activate(inner):
            assert profile_module.active() is inner
        assert profile_module.active() is outer
    assert profile_module.active() is None


def test_active_profiler_is_per_thread():
    # a profiler active on this thread must stay empty while another
    # thread runs an unprofiled query (tries built, groups reduced)
    engine = LevelHeadedEngine(make_mini_tpch())
    mine = KernelProfiler()
    with activate(mine):
        seen = []
        other = threading.Thread(
            target=lambda: seen.append(
                (profile_module.active(), engine.query(Q5_SQL).num_rows)
            )
        )
        other.start()
        other.join(timeout=60)
        assert not other.is_alive()
        assert profile_module.active() is mine
    assert mine.counters()["trie_builds"] == 0
    assert mine.category_seconds == {}
    assert mine.kernel_counts == {}
    assert seen == [(None, 1)]


def test_parallel_profile_counters_match_serial():
    catalog = make_mini_tpch()
    s = LevelHeadedEngine(catalog).query(Q5_SQL, profile=True).profile
    # four profiled first runs at once (one engine each, so each
    # compiles and runs its own plan), each recording into its own
    # profiler
    runs = on_threads(
        lambda: LevelHeadedEngine(catalog).query(Q5_SQL, profile=True).profile, 4
    )
    for p in runs:
        assert p is not s
        assert s.counters() == p.counters()
