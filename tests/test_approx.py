"""Approximate tier: samples, rewrite, error bars, persistence (PR 10).

Pins the ``repro.approx`` contract:

* sampling is deterministic -- identical ``(base, fraction, kind,
  strata, seed)`` arguments produce byte-identical sample columns, and
  stratified samples keep every stratum key;
* samples version with the catalog: ``replace_table`` drops them, and
  sample churn never flushes *exact* cached plans;
* samples persist: ``save_catalog`` / ``load_catalog`` round-trips the
  sample tables and re-ties them to their bases;
* estimation is honest: ``fraction=1.0`` reproduces the exact answer
  bit-for-bit with every error bar at ``0.0``, ``approx=False`` is
  byte-identical to a sample-free engine, MIN/MAX are flagged
  non-scalable, and the 95% CI covers the truth on >= 95% of cells
  over 40 seeded trials;
* the three request spellings (``approx=``, the ``APPROXIMATE``
  prefix, DSN ``?approx=``) agree, and explain output (text and
  ``schema_version`` 2 JSON) carries the approx block.
"""

import numpy as np
import pytest

import repro
from repro import EngineConfig, LevelHeadedEngine
from repro.approx import APPROX_POLICIES, default_sample_name, normalize_policy
from repro.core.engine import EXPLAIN_SCHEMA_VERSION
from repro.datasets import generate_events
from repro.errors import ReproError, UnsupportedQueryError
from repro.storage import AttrType, Catalog, Schema, Table, annotation, key
from repro.storage.persist import load_catalog, save_catalog

from .conftest import make_mini_tpch

Q1ISH_SQL = (
    "SELECT l_suppkey, SUM(l_extendedprice) AS revenue, COUNT(*) AS lines "
    "FROM lineitem GROUP BY l_suppkey"
)


def _measure_catalog(n=4000, groups=4, seed=7) -> Catalog:
    """One flat fact table with a group key and a noisy measure."""
    rng = np.random.default_rng(seed)
    cat = Catalog()
    cat.register(
        Table.from_columns(
            Schema(
                "t",
                [
                    key("rowid", domain="t_rowid"),
                    annotation("g", AttrType.LONG),
                    annotation("v", AttrType.DOUBLE),
                ],
            ),
            rowid=np.arange(n, dtype=np.int64),
            g=rng.integers(0, groups, size=n),
            v=rng.normal(100.0, 15.0, size=n),
        )
    )
    return cat


# ---------------------------------------------------------------------------
# sampling: determinism and strata preservation
# ---------------------------------------------------------------------------


def test_uniform_sample_is_seed_deterministic():
    a = LevelHeadedEngine(generate_events(seed=3))
    b = LevelHeadedEngine(generate_events(seed=3))
    sa = a.create_sample("events", 0.1, seed=42)
    sb = b.create_sample("events", 0.1, seed=42)
    assert sa.name == sb.name == default_sample_name("events", 0.1, "uniform")
    assert sa.num_rows == sb.num_rows > 0
    for name in sa.columns:
        assert np.array_equal(sa.column(name), sb.column(name))
    # a different seed draws a different sample
    sc = a.create_sample("events", 0.1, seed=43, name="other_seed")
    assert sc.num_rows != sa.num_rows or not all(
        np.array_equal(sc.column(n), sa.column(n)) for n in sa.columns
    )


def test_stratified_sample_preserves_every_stratum():
    engine = LevelHeadedEngine(generate_events())
    base = engine.catalog.table("events")
    sample = engine.create_sample(
        "events", 0.01, kind="stratified", strata=["e_segment"], seed=5
    )
    assert set(np.unique(sample.column("e_segment"))) == set(
        np.unique(base.column("e_segment"))
    )
    # ...where a 1% uniform sample of the same skew loses tail groups
    uniform = engine.create_sample("events", 0.01, seed=5, name="u1")
    assert len(np.unique(uniform.column("e_segment"))) < len(
        np.unique(base.column("e_segment"))
    )


def test_sample_is_a_queryable_catalog_table():
    engine = LevelHeadedEngine(make_mini_tpch())
    sample = engine.create_sample("lineitem", 0.5, seed=1)
    r = engine.query(f"SELECT count(*) AS n FROM {sample.name}")
    assert r.columns["n"][0] == sample.num_rows
    metas = engine.samples()
    assert [m["name"] for m in metas] == [sample.name]
    assert metas[0]["base"] == "lineitem" and metas[0]["seed"] == 1
    engine.drop_sample(sample.name)
    assert engine.samples() == []


# ---------------------------------------------------------------------------
# catalog versioning
# ---------------------------------------------------------------------------


def test_replace_table_drops_samples_and_cached_plans():
    engine = LevelHeadedEngine(make_mini_tpch())
    engine.create_sample("lineitem", 0.5, seed=1)
    exact = engine.query(Q1ISH_SQL)
    assert engine.samples()
    fresh = make_mini_tpch().table("lineitem")
    engine.replace_table(fresh)
    assert engine.samples() == []  # samples of the old rows are gone
    before = engine.plan_cache.stats.hits
    r = engine.query(Q1ISH_SQL)  # recompiles against the new table
    assert engine.plan_cache.stats.hits == before
    assert r.sorted_rows() == exact.sorted_rows()  # same contents, new plan


def test_sample_churn_does_not_flush_exact_plans():
    engine = LevelHeadedEngine(make_mini_tpch())
    engine.query(Q1ISH_SQL)  # warm
    engine.create_sample("lineitem", 0.5, seed=1)
    before = engine.plan_cache.stats.hits
    engine.query(Q1ISH_SQL)
    assert engine.plan_cache.stats.hits == before + 1  # still a cache hit


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_samples_survive_save_and_load(tmp_path):
    engine = LevelHeadedEngine(generate_events())
    sample = engine.create_sample(
        "events", 0.05, kind="stratified", strata=["e_segment"], seed=9
    )
    save_catalog(engine.catalog, str(tmp_path))
    reloaded = LevelHeadedEngine(load_catalog(str(tmp_path)))
    metas = reloaded.samples()
    assert [m["name"] for m in metas] == [sample.name]
    assert metas[0]["kind"] == "stratified"
    assert metas[0]["strata"] == ["e_segment"]
    got = reloaded.catalog.table(sample.name)
    for name in sample.columns:
        assert np.array_equal(got.column(name), sample.column(name))
    # re-tied to the reloaded base: approx queries find the sample...
    r = reloaded.query(
        "SELECT e_segment, SUM(e_amount) AS total FROM events "
        "GROUP BY e_segment",
        approx=True,
    )
    assert r.approx is not None and r.approx["fraction"] == 0.05
    assert [use["sample"] for use in r.approx["samples"]] == [sample.name]
    # ...and replacing the reloaded base still drops them
    reloaded.replace_table(generate_events(seed=12).table("events"))
    assert reloaded.samples() == []


# ---------------------------------------------------------------------------
# estimation: exactness at fraction=1.0, byte-identity, error-bar kinds
# ---------------------------------------------------------------------------


def test_fraction_one_approx_is_exactly_exact():
    engine = LevelHeadedEngine(make_mini_tpch())
    exact = engine.query(Q1ISH_SQL)
    engine.create_sample("lineitem", 1.0, seed=0)
    approx = engine.query(Q1ISH_SQL, approx=True)
    assert approx.approx is not None and approx.approx["fraction"] == 1.0
    assert approx.names == exact.names
    assert approx.sorted_rows() == exact.sorted_rows()
    for info in approx.approx["columns"].values():
        if info["scalable"]:
            assert info["error"] == 0.0


def test_approx_false_is_byte_identical_to_sample_free_engine():
    baseline = LevelHeadedEngine(make_mini_tpch()).query(Q1ISH_SQL)
    engine = LevelHeadedEngine(make_mini_tpch())
    engine.create_sample("lineitem", 0.5, seed=1)
    r = engine.query(Q1ISH_SQL, approx=False)
    assert r.approx is None
    assert r.names == baseline.names
    for name in r.names:
        col, want = r.columns[name], baseline.columns[name]
        assert col.dtype == want.dtype and np.array_equal(col, want)


def test_approx_without_usable_sample_runs_exact():
    engine = LevelHeadedEngine(make_mini_tpch())
    r = engine.query(Q1ISH_SQL, approx=True)  # no sample registered
    assert r.approx is None


def test_min_max_pass_through_nonscalable_and_avg_unscaled():
    engine = LevelHeadedEngine(make_mini_tpch())
    exact = engine.query(
        "SELECT AVG(l_quantity) AS aq, MIN(l_quantity) AS lo, "
        "MAX(l_quantity) AS hi FROM lineitem"
    )
    engine.create_sample("lineitem", 1.0, seed=0)
    r = engine.query(
        "SELECT AVG(l_quantity) AS aq, MIN(l_quantity) AS lo, "
        "MAX(l_quantity) AS hi FROM lineitem",
        approx=True,
    )
    cols = r.approx["columns"]
    assert cols["aq"]["scaled"] is False and cols["aq"]["error"] == 0.0
    for name in ("lo", "hi"):
        assert cols[name]["scalable"] is False and cols[name]["error"] is None
        assert r.columns[name][0] == exact.columns[name][0]
    assert r.columns["aq"][0] == pytest.approx(exact.columns["aq"][0])


def test_counts_stay_integers_after_scaling():
    engine = LevelHeadedEngine(generate_events())
    engine.create_sample("events", 0.1, seed=2)
    r = engine.query("SELECT COUNT(*) AS n FROM events", approx=True)
    assert np.issubdtype(r.columns["n"].dtype, np.integer)
    assert r.approx["columns"]["n"]["kind"] == "count"
    assert r.approx["columns"]["n"]["error"] > 0


# ---------------------------------------------------------------------------
# CI coverage over seeded trials
# ---------------------------------------------------------------------------


def test_ci_covers_truth_on_95_percent_of_cells_over_40_seeds():
    engine = LevelHeadedEngine(_measure_catalog())
    sql = "SELECT g, SUM(v) AS total, COUNT(*) AS n FROM t GROUP BY g"
    exact = engine.query(sql)
    truth = {
        int(g): (exact.columns["total"][i], exact.columns["n"][i])
        for i, g in enumerate(exact.columns["g"])
    }
    covered = total = 0
    for seed in range(40):
        engine.create_sample("t", 0.1, seed=seed, name="__trial")
        try:
            r = engine.query(sql, approx=True)
        finally:
            engine.drop_sample("__trial")
        errs = {k: v["error"] for k, v in r.approx["columns"].items()}
        for i, g in enumerate(r.columns["g"]):
            want_total, want_n = truth[int(g)]
            for name, want in (("total", want_total), ("n", want_n)):
                total += 1
                if abs(float(r.columns[name][i]) - float(want)) <= errs[name] + 1e-9:
                    covered += 1
    assert total >= 40 * 4 * 2 * 0.9  # nearly every group present at 10%
    assert covered / total >= 0.95


# ---------------------------------------------------------------------------
# request spellings, policy parsing, explain surfaces
# ---------------------------------------------------------------------------


def test_approximate_sql_prefix_forces_rewrite():
    engine = LevelHeadedEngine(make_mini_tpch())
    engine.create_sample("lineitem", 1.0, seed=0)
    r = engine.query("APPROXIMATE " + Q1ISH_SQL)
    assert r.approx is not None and r.approx["mode"] == "forced"
    assert r.approx["samples"][0]["base"] == "lineitem"


def test_normalize_policy_spellings_and_errors():
    assert APPROX_POLICIES == ("never", "allow", "force")
    assert normalize_policy(True, default="never") == "force"
    assert normalize_policy(False, default="force") == "never"
    assert normalize_policy("on", default="never") == "allow"
    assert normalize_policy("off", default="force") == "never"
    assert normalize_policy(None, default="allow") == "allow"
    with pytest.raises(UnsupportedQueryError):
        normalize_policy("sometimes", default="never")


def test_explain_json_schema_version_and_approx_block():
    engine = LevelHeadedEngine(make_mini_tpch())
    engine.create_sample("lineitem", 0.5, seed=1)
    exact = engine.explain(Q1ISH_SQL, format="json")
    assert exact["schema_version"] == EXPLAIN_SCHEMA_VERSION == 3
    assert exact["approx"] is None
    approx = engine.explain("APPROXIMATE " + Q1ISH_SQL, format="json")
    assert approx["approx"]["fraction"] == 0.5
    assert approx["approx"]["samples"][0]["base"] == "lineitem"


def test_explain_text_carries_approx_line():
    engine = LevelHeadedEngine(make_mini_tpch())
    engine.create_sample("lineitem", 0.5, seed=1)
    text = engine.explain("APPROXIMATE " + Q1ISH_SQL)
    assert "approx:" in text and "fraction=0.5" in text
    assert "approx:" not in engine.explain(Q1ISH_SQL)


def test_connect_dsn_and_kwarg_set_the_policy():
    engine = repro.connect("local://?approx=force", catalog=make_mini_tpch())
    assert engine.config.approx == "force"
    engine = repro.connect(catalog=make_mini_tpch(), approx="on")
    assert engine.config.approx == "allow"
    with pytest.raises(ReproError):
        repro.connect("local://?approx=sometimes", catalog=make_mini_tpch())


def test_engine_config_default_policy_applies_without_kwarg():
    engine = LevelHeadedEngine(
        make_mini_tpch(), config=EngineConfig(approx="force")
    )
    engine.create_sample("lineitem", 1.0, seed=0)
    r = engine.query(Q1ISH_SQL)
    assert r.approx is not None and r.approx["mode"] == "forced"
    assert engine.query(Q1ISH_SQL, approx=False).approx is None  # per-call wins


def test_prepared_statement_executes_approx_variant():
    engine = LevelHeadedEngine(make_mini_tpch())
    engine.create_sample("lineitem", 1.0, seed=0)
    stmt = engine.prepare(Q1ISH_SQL)
    exact = stmt.execute()
    assert exact.approx is None
    approx = stmt.execute(approx=True)
    assert approx.approx is not None
    assert approx.sorted_rows() == exact.sorted_rows()  # fraction=1.0
