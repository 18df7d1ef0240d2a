"""Tests for the benchmark-regression gate (``repro.bench.regress``)."""

import json

import pytest

from repro.bench.regress import (
    STRATEGY_MODES,
    STRATEGY_WORKLOAD_NAMES,
    WORKLOAD_NAMES,
    build_workloads,
    compare_runs,
    latest_bench,
    next_bench_path,
    run_regression,
    run_strategy_compare,
)


# ---------------------------------------------------------------------------
# comparison semantics (pure, no timing)
# ---------------------------------------------------------------------------

HOST = {"platform": "x", "machine": "m", "cpu_count": 4, "python": "3"}


def _doc(best, rows=5, work=None, host=HOST, quick=True):
    return {
        "host": host,
        "quick": quick,
        "queries": {
            "q": {
                "best_seconds": best,
                "rows": rows,
                "work": work or {"kernels": 10},
            }
        },
    }


def test_compare_flags_regressions_over_threshold():
    regressions, warnings = compare_runs(_doc(0.010), _doc(0.020), 1.3, 1.0)
    assert len(regressions) == 1
    assert "2.00x" in regressions[0]
    assert not warnings


def test_compare_tolerates_noise_under_threshold():
    regressions, _ = compare_runs(_doc(0.010), _doc(0.012), 1.3, 1.0)
    assert not regressions


def test_compare_min_delta_gates_trivial_queries():
    # 3x slower but only +0.2ms: below the absolute floor, not actionable
    regressions, _ = compare_runs(_doc(0.0001), _doc(0.0003), 1.3, 1.0)
    assert not regressions


def test_compare_cross_host_downgrades_to_warning():
    other = dict(HOST, machine="other")
    regressions, warnings = compare_runs(
        _doc(0.010), _doc(0.050, host=other), 1.3, 1.0
    )
    assert not regressions
    assert any("different host" in w for w in warnings)
    assert any("5.00x" in w for w in warnings)


def test_compare_quick_mismatch_downgrades_to_warning():
    regressions, warnings = compare_runs(
        _doc(0.010, quick=True), _doc(0.050, quick=False), 1.3, 1.0
    )
    assert not regressions
    assert any("--quick" in w for w in warnings)


def test_compare_warns_on_logical_changes():
    _, warnings = compare_runs(
        _doc(0.010), _doc(0.010, rows=6, work={"kernels": 11}), 1.3, 1.0
    )
    assert any("rows changed" in w for w in warnings)
    assert any("work counters changed" in w for w in warnings)


def test_compare_new_workload_is_a_warning():
    baseline = {"host": HOST, "quick": True, "queries": {}}
    _, warnings = compare_runs(baseline, _doc(0.010), 1.3, 1.0)
    assert any("no baseline entry" in w for w in warnings)


# ---------------------------------------------------------------------------
# BENCH file numbering
# ---------------------------------------------------------------------------


def test_bench_numbering_starts_at_3(tmp_path):
    assert latest_bench(tmp_path) is None
    assert next_bench_path(tmp_path).name == "BENCH_0003.json"
    (tmp_path / "BENCH_0007.json").write_text("{}")
    assert latest_bench(tmp_path).name == "BENCH_0007.json"
    assert next_bench_path(tmp_path).name == "BENCH_0008.json"


# ---------------------------------------------------------------------------
# end to end on one real workload
# ---------------------------------------------------------------------------


def test_regress_end_to_end(tmp_path):
    logs = []
    # threshold well below the injected slowdown but wide enough that
    # scheduler noise on a loaded CI machine cannot trip the clean runs.
    common = dict(
        quick=True,
        out_dir=tmp_path,
        workloads=("tpch_q1",),
        log=logs.append,
        threshold=2.0,
        min_delta_ms=4.0,
    )

    # first run: no baseline, writes BENCH_0003.json, exits 0
    assert run_regression(**common) == 0
    bench3 = tmp_path / "BENCH_0003.json"
    assert bench3.exists()
    doc = json.loads(bench3.read_text())
    assert doc["bench_id"] == "BENCH_0003"
    assert doc["schema_version"] == 1
    assert doc["quick"] is True
    assert set(doc["host"]) == {"platform", "machine", "cpu_count", "python"}
    entry = doc["queries"]["tpch_q1"]
    assert entry["best_seconds"] > 0
    assert entry["best_seconds"] == min(entry["times"])
    assert entry["rows"] > 0
    assert "kernel_counts" in entry["work"]

    # injected slowdown: caught, exits nonzero, writes nothing (quick
    # Q1 runs in under a millisecond, so only a large factor clears the
    # absolute min_delta_ms floor as well as the ratio)
    status = run_regression(
        inject_slowdown="tpch_q1", inject_factor=30.0, **common
    )
    assert status == 1
    assert not (tmp_path / "BENCH_0004.json").exists()
    assert any("REGRESSION: tpch_q1" in line for line in logs)

    # clean check-only: exits 0 and writes nothing
    assert run_regression(check_only=True, **common) == 0
    assert not (tmp_path / "BENCH_0004.json").exists()


def test_unknown_workload_rejected(tmp_path):
    with pytest.raises(SystemExit):
        run_regression(out_dir=tmp_path, workloads=("nope",), log=lambda s: None)


def test_inject_target_must_be_selected(tmp_path):
    with pytest.raises(SystemExit):
        run_regression(
            out_dir=tmp_path, workloads=("gemv",),
            inject_slowdown="triangle", log=lambda s: None,
        )


def test_all_workload_names_build_quick():
    # every pinned workload constructs and verifies (rows recorded)
    workloads = build_workloads(WORKLOAD_NAMES, quick=True)
    assert [w.name for w in workloads] == list(WORKLOAD_NAMES)
    for w in workloads:
        assert w.rows >= 1, w.name
        assert "kernel_counts" in w.work


# ---------------------------------------------------------------------------
# the join-strategy comparison section
# ---------------------------------------------------------------------------


def test_strategy_compare_section_shape():
    section, regressions = run_strategy_compare(
        ("tpch_q3", "triangle"), quick=True, best_of=1,
        threshold=1.3, min_delta_ms=1.0, log=lambda s: None,
    )
    assert section["modes"] == list(STRATEGY_MODES)
    assert set(section["workloads"]) == {"tpch_q3", "triangle"}
    for name, entry in section["workloads"].items():
        assert set(entry["best_seconds"]) == set(STRATEGY_MODES)
        assert all(t > 0 for t in entry["best_seconds"].values()), name
        assert entry["rows"] >= 1
        assert entry["auto_vs_wcoj_ratio"] > 0
    # all three executors agreed on rows: no correctness regressions
    assert not any("disagree" in r for r in regressions)


def test_strategy_compare_rides_along_on_full_runs(tmp_path):
    # subset runs skip the section unless forced on
    logs = []
    assert run_regression(
        quick=True, out_dir=tmp_path, workloads=("tpch_q1",),
        strategy=True, strategy_workloads=("tpch_q1",),
        log=logs.append, threshold=10.0, min_delta_ms=50.0,
    ) == 0
    doc = json.loads((tmp_path / "BENCH_0003.json").read_text())
    assert "strategy_compare" in doc
    entry = doc["strategy_compare"]["workloads"]["tpch_q1"]
    assert set(entry["best_seconds"]) == set(STRATEGY_MODES)
    assert any("strategy tpch_q1" in line for line in logs)


def test_strategy_compare_skipped_for_subset_runs(tmp_path):
    assert run_regression(
        quick=True, out_dir=tmp_path, workloads=("tpch_q1",),
        log=lambda s: None,
    ) == 0
    doc = json.loads((tmp_path / "BENCH_0003.json").read_text())
    assert "strategy_compare" not in doc


def test_strategy_workloads_are_known():
    assert set(STRATEGY_WORKLOAD_NAMES) <= set(WORKLOAD_NAMES)
