"""The LevelHeaded engine: the library's main entry point.

``LevelHeadedEngine`` ties the whole pipeline of Figure 2 together:
ingest structured data (delimited files, column dicts, dataframes) into
the catalog, then ``query(sql)`` parses, binds, translates to an AJAR
hypergraph, picks a GHD and attribute orders, and executes the generic
WCOJ plan (or the scan / BLAS fast paths), returning a result table.

The query surface is intentionally small:

* ``query(sql, params=None, config=None, collect_stats=False)`` -- run
  one statement; ``params`` fills ``?``/``:name`` placeholders, and
  ``collect_stats=True`` attaches executor counters as ``result.stats``.
* ``explain(sql, params=None, analyze=False, format="text"|"json")`` --
  describe the chosen plan; ``analyze=True`` also executes and reports
  the deterministic work counters.
* ``prepare(sql)`` -- compile once, execute many times
  (:class:`~repro.core.prepared.PreparedStatement`).

Plain ``query()`` calls transparently reuse compiled plans through a
versioned LRU :class:`~repro.core.plan_cache.PlanCache` of plan
skeletons, one per query shape: every call binds its literals to the
cached skeleton of its shape, and each parameterized relation's
binding memo makes a repeated literal cost no trie build.  A catalog
registration that re-codes a key domain invalidates affected
skeletons.

The :class:`~repro.xcution.plan.EngineConfig` toggles reproduce the
paper's ablations: attribute elimination, cost-based attribute
ordering, the relaxation rule, and BLAS routing can each be disabled.
"""

from __future__ import annotations

import dataclasses
import re
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..approx import (
    apply_estimation,
    build_sample,
    default_sample_name,
    has_usable_sample,
    maybe_rewrite,
    normalize_policy,
)
from ..errors import (
    AdmissionError,
    OutOfMemoryBudgetError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    RetryableAdmissionError,
)
from ..obs import (
    NULL_TRACER,
    FlightRecorder,
    InflightQuery,
    InflightRegistry,
    KernelProfiler,
    MetricsRegistry,
    QueryLog,
    Tracer,
    admission_of,
    next_query_id,
    sql_hash,
)
from ..obs import activate as _activate_profiler
from ..optimizer.feedback import QueryFeedback, measure
from ..query.translate import CompiledQuery, translate
from ..sql.ast import Literal, SelectStmt
from ..sql.binder import bind
from ..sql.params import ParamValues
from ..storage.catalog import Catalog
from ..storage.csv_loader import load_dataframe, load_table
from ..storage.schema import Schema
from ..storage.table import Table
from ..xcution.finalize import finalize_result
from ..xcution.plan import EngineConfig, PhysicalPlan, PlanSkeleton, build_skeleton
from ..xcution.stats import ExecutionStats
from ..xcution.yannakakis import RawResult, execute_plan
from .governor import (
    AdmissionSlot,
    CancelToken,
    Governor,
    QueryHandle,
    cancel_scope,
    current_admission_session,
)
from .plan_cache import HIT, INVALIDATED, MISS, REOPTIMIZED, PlanCache
from .prepared import PlanSource, PreparedStatement
from .result import ResultTable

#: explain(format="json") schema: 2 added the top-level ``approx`` block
#: (schema 1 was the unversioned dict without this key); 3 replaced each
#: ``plan_nodes`` entry's ``strategy`` block with flat ``est_rows`` and
#: ``corrected`` fields.
EXPLAIN_SCHEMA_VERSION = 3

#: the textual APPROXIMATE prefix ("APPROXIMATE SELECT ...") -- detected
#: before parsing so the plan-cache key and config reflect the policy.
_APPROX_PREFIX = re.compile(r"^\s*approximate\b", re.IGNORECASE)


@dataclasses.dataclass
class QueryRun:
    """One query's run state: what the lifecycle hands its runner, and
    what its bookkeeping (query log, flight record) reads back."""

    entry: InflightQuery
    token: Optional[CancelToken]
    #: the lifecycle tracer, on which the runner opens its phase spans.
    tracer: Tracer
    #: the planner and executor layers' tracer: ``tracer`` or NULL_TRACER.
    layers: object
    plan: PhysicalPlan
    #: the plan-cache outcome and, unless it was a hit, the compile time.
    cache_outcome: Optional[str]
    compile_seconds: Optional[float]
    stats: ExecutionStats
    #: the governor's memory share for this run (None: the plan's own).
    budget: Optional[int]
    #: whether the caller asked for ``result.trace``.
    trace: bool
    profile: bool
    partial: bool
    #: whether admission degraded this run to approximate.
    degraded: bool
    #: how many lifecycle spans the query had opened before the run.
    first_span: int

    def execute_seconds(self) -> float:
        """Wall seconds spent in the runner's spans, so far."""
        return sum(span.duration for span in self.tracer.root.children[self.first_span:])


class LevelHeadedEngine:
    """An in-memory WCOJ query engine for BI and LA workloads."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        config: Optional[EngineConfig] = None,
        plan_cache_capacity: int = 64,
        governor: Optional[Governor] = None,
        default_timeout_ms: Optional[float] = None,
        flight_capacity: int = 256,
    ):
        self.catalog = catalog if catalog is not None else Catalog()
        self.config = config if config is not None else EngineConfig()
        self.plan_cache = PlanCache(plan_cache_capacity)
        #: always-on bounded ring of recently finished queries
        #: (:class:`~repro.obs.FlightRecorder`; ``/debug/flight``,
        #: the CLI's ``\\last``).
        self.flight = FlightRecorder(flight_capacity)
        #: queries currently inside the engine
        #: (:class:`~repro.obs.InflightRegistry`; ``/debug/queries``,
        #: the CLI's ``\\top``).
        self.inflight = InflightRegistry()
        #: engine-lifetime query metrics: queries served, p50/p95
        #: compile/execute latencies, cache hit rates, rows and bytes
        #: produced (:class:`~repro.obs.MetricsRegistry`).
        self.metrics = MetricsRegistry()
        #: optional :class:`~repro.obs.QueryLog`: when attached, every
        #: served or killed query appends one JSONL event; with a slow-query
        #: threshold configured, ``query()`` forces tracing so slow
        #: events capture the plan and span tree.
        self.query_log: Optional[QueryLog] = None
        #: optional process-wide :class:`~repro.core.governor.Governor`
        #: gating query start on a concurrency slot and a share of the
        #: global memory budget; may be shared by several engines.
        self.governor = governor
        #: deadline applied to every query that does not pass its own
        #: ``timeout_ms`` (None: no default deadline).
        self.default_timeout_ms = default_timeout_ms
        if governor is not None:
            # the engine's contribution to the degradation ladder: under
            # memory pressure, give cached plan state (tries, annotation
            # buffers) back before queries start failing admission
            governor.add_pressure_listener(self._on_memory_pressure)

    # -- data ingestion ---------------------------------------------------------

    def register_table(self, table: Table) -> Table:
        """Register an existing table with the engine's catalog."""
        return self.catalog.register(table)

    def create_table(self, schema: Schema, **columns) -> Table:
        """Build a table from keyword columns and register it."""
        return self.register_table(Table.from_columns(schema, **columns))

    def load_csv(self, path: str, schema: Schema, delimiter: str = "|") -> Table:
        """Ingest a delimited file (dbgen-style) and register it."""
        return self.register_table(load_table(path, schema, delimiter=delimiter))

    def from_dataframe(self, frame, schema: Optional[Schema] = None, name: str = "dataframe") -> Table:
        """Ingest a Pandas-style dataframe (the paper's Python front-end)."""
        return self.register_table(load_dataframe(frame, schema=schema, name=name))

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def replace_table(self, table: Table) -> Table:
        """Re-register ``table`` under its existing name (new contents).

        Invalidates every cached plan, trie, and prepared statement
        built against the old rows -- and drops every materialized
        sample of the old table (:meth:`create_sample`), since their
        rows no longer describe the base.
        """
        replaced = self.catalog.replace(table)
        self.metrics.set_gauge("sample_bytes", self.catalog.sample_bytes())
        return replaced

    # -- approximate query processing (repro.approx) -----------------------------

    def create_sample(
        self,
        table: Union[str, Table],
        fraction: float,
        kind: str = "uniform",
        strata=(),
        seed: int = 0,
        name: Optional[str] = None,
    ) -> Table:
        """Materialize a deterministic sample of ``table`` into the catalog.

        The sample is a first-class catalog table (queryable by name,
        persisted by :func:`repro.storage.persist.save_catalog`) tied to
        the exact base-table object it was drawn from: replacing the
        base (:meth:`replace_table`) drops its samples.  ``kind`` is
        ``"uniform"`` (seeded Bernoulli row selection) or
        ``"stratified"`` (per-group sampling over ``strata`` columns,
        preserving every stratum key).  Identical arguments always
        produce a byte-identical sample.
        """
        base = table if isinstance(table, str) else table.name
        base_table = self.catalog.table(base)
        sample_name = name or default_sample_name(base, fraction, kind)
        sample = build_sample(
            base_table, sample_name, fraction,
            kind=kind, strata=tuple(strata), seed=seed,
        )
        self.catalog.register_sample(
            sample, base=base, fraction=fraction,
            kind=kind, strata=tuple(strata), seed=seed,
        )
        self.metrics.inc("samples_created")
        self.metrics.set_gauge("sample_bytes", self.catalog.sample_bytes())
        return sample

    def drop_sample(self, name: str):
        """Drop one materialized sample by its sample-table name."""
        meta = self.catalog.drop_sample(name)
        self.metrics.set_gauge("sample_bytes", self.catalog.sample_bytes())
        return meta

    def samples(self) -> List[Dict]:
        """Metadata for every registered sample, JSON-ready."""
        return [meta.as_dict() for meta in self.catalog.samples.values()]

    def register_matrix(
        self,
        name: str,
        array: Optional[np.ndarray] = None,
        *,
        rows: Optional[np.ndarray] = None,
        cols: Optional[np.ndarray] = None,
        values: Optional[np.ndarray] = None,
        n: Optional[int] = None,
        domain: Optional[str] = None,
    ):
        """Register a matrix as an annotated ``(i, j, v)`` relation.

        Two forms: ``register_matrix(name, array)`` stores a dense
        square numpy array cell by cell (enabling BLAS routing), and
        ``register_matrix(name, rows=..., cols=..., values=..., n=...)``
        stores sparse COO triples over an ``n``-sized dimension domain.
        ``domain`` names the shared dimension (default ``{name}_dim``);
        matrices and vectors sharing a domain are join-compatible.
        Returns a :class:`~repro.la.MatrixHandle` -- reference it in SQL
        by name, densify with ``.to_dense()``.
        """
        from ..la.matrix import MatrixHandle, _register_coo, _register_dense

        if array is not None:
            if rows is not None or cols is not None or values is not None:
                raise ValueError("pass either a dense array or COO triples, not both")
            array = np.asarray(array, dtype=np.float64)
            table = _register_dense(self.catalog, name, array, domain)
            size = array.shape[0]
        else:
            if rows is None or cols is None or values is None or n is None:
                raise ValueError(
                    "COO registration needs rows=, cols=, values=, and n="
                )
            table = _register_coo(self.catalog, name, rows, cols, values, n, domain)
            size = n
        return MatrixHandle(self.catalog, table, size, domain or f"{name}_dim")

    def register_vector(
        self,
        name: str,
        values: np.ndarray,
        *,
        domain: str,
        indices: Optional[np.ndarray] = None,
        n: Optional[int] = None,
    ):
        """Register a vector as an annotated ``(i, v)`` relation.

        ``domain`` must name an existing dimension domain (usually one
        a matrix was registered over).  Dense when ``indices`` is
        omitted; ``n`` overrides the dimension size for sparse vectors
        (defaults to the number of values).  Returns a
        :class:`~repro.la.VectorHandle`; densify with ``.to_vector()``.
        """
        from ..la.matrix import VectorHandle, _register_vector

        values = np.asarray(values, dtype=np.float64)
        table = _register_vector(self.catalog, name, values, domain, indices)
        size = n if n is not None else int(values.size)
        return VectorHandle(self.catalog, table, size, domain)

    # -- querying -----------------------------------------------------------------

    def prepare(self, sql: str, config: Optional[EngineConfig] = None) -> PreparedStatement:
        """Parse ``sql`` into a reusable :class:`PreparedStatement`.

        Placeholders (``?`` positional, ``:name`` named) become typed
        parameter slots filled at ``execute(params)`` time; each new
        value set binds the statement's cached plan skeleton, which is
        validated against the catalog domain versions it was built
        against and recompiles automatically when a registration
        invalidates it.
        """
        return PreparedStatement(self, sql, config=config)

    def compile(self, sql: str, config: Optional[EngineConfig] = None) -> PhysicalPlan:
        """Parse, bind, translate, and physically plan one query.

        Always compiles fresh (no cache) -- use this for plan
        inspection; ``query``/``prepare`` are the cached paths.
        """
        lifted, values = PlanSource(self, sql).lifted()
        return self._compile_skeleton(lifted.stmt, config or self.config, values)[1]

    def execute(
        self,
        plan: PhysicalPlan,
        collect_stats: bool = False,
        trace: bool = False,
        profile: bool = False,
        timeout_ms: Optional[float] = None,
        cancel_token: Optional[CancelToken] = None,
        partial: bool = False,
        query_id: Optional[str] = None,
    ) -> ResultTable:
        """Execute a compiled plan and decode its result.

        ``partial=True`` skips result finalization and returns raw
        partial aggregates (shard-worker mode; see
        :mod:`repro.xcution.finalize`).  ``query_id`` overrides the
        minted correlation id so a coordinator can stamp one id end to
        end across every shard's flight entry.
        """
        return self._run_query(
            None,
            plan.config,
            plan=plan,
            collect_stats=collect_stats,
            trace=trace,
            profile=profile,
            timeout_ms=timeout_ms,
            cancel_token=cancel_token,
            partial=partial,
            query_id=query_id,
        )

    def query(
        self,
        sql: str,
        params: ParamValues = None,
        config: Optional[EngineConfig] = None,
        collect_stats: bool = False,
        trace: bool = False,
        profile: bool = False,
        timeout_ms: Optional[float] = None,
        cancel_token: Optional[CancelToken] = None,
        partial: bool = False,
        query_id: Optional[str] = None,
        approx=None,
    ) -> ResultTable:
        """Run one SQL query end to end.

        ``params`` fills ``?``/``:name`` placeholders (sequence or
        mapping).  Repeated queries reuse compiled plans through the
        engine's plan cache; with ``collect_stats=True`` the returned
        table's ``.stats`` carries the executor counters plus this
        call's cache outcome.  With ``trace=True`` the returned table's
        ``.trace`` is the root :class:`~repro.obs.Span` of a lifecycle
        trace (parse -> plan -> per-node execution -> decode), each span
        carrying wall time, scoped counters, and key payloads.  With
        ``profile=True`` the returned table's ``.profile`` is a
        :class:`~repro.obs.KernelProfiler` attributing execution per
        trie level and intersection kernel.

        ``timeout_ms`` (or the engine's ``default_timeout_ms``) sets a
        deadline covering compile *and* execute: the executors poll
        cooperatively at chunk granularity and the query dies with
        :class:`~repro.errors.QueryTimeoutError` carrying the partial
        stats and span tree.  ``cancel_token`` supplies an external
        :class:`~repro.core.governor.CancelToken` instead (fire it from
        any thread).  With a governor attached, the query first acquires
        an admission slot (and its share of the global memory budget) --
        see :class:`~repro.core.governor.Governor`.

        ``partial=True`` returns raw partial aggregates without
        finalization (shard-worker mode) and ``query_id`` overrides the
        minted correlation id -- see :meth:`execute`.

        ``approx`` opts the query into sample-based approximation
        (``repro.approx``): ``"force"``/``True`` runs on materialized
        samples whenever one covers a touched table (error bars on
        ``result.approx``), ``"allow"`` runs exact but degrades to
        approximate instead of failing when the governor rejects the
        query at admission, ``"never"``/``False`` pins exact execution.
        Default (None): the config's ``approx`` policy.  The SQL prefix
        ``APPROXIMATE SELECT ...`` is equivalent to ``approx="force"``.
        """
        cfg = config or self.config
        if _APPROX_PREFIX.match(sql or ""):
            policy = "force"
        else:
            policy = normalize_policy(approx, default=cfg.approx)
        if cfg.approx != policy:
            cfg = dataclasses.replace(cfg, approx=policy)
        opts = dict(
            collect_stats=collect_stats,
            trace=trace,
            profile=profile,
            timeout_ms=timeout_ms,
            cancel_token=cancel_token,
            partial=partial,
            query_id=query_id,
        )
        return self._run_query(sql, cfg, source=PlanSource(self, sql, params), **opts)

    def submit(
        self,
        sql: str,
        params: ParamValues = None,
        config: Optional[EngineConfig] = None,
        collect_stats: bool = False,
        trace: bool = False,
        timeout_ms: Optional[float] = None,
        cancel_token: Optional[CancelToken] = None,
    ) -> QueryHandle:
        """Run ``query(sql, ...)`` on a background thread.

        Returns a :class:`~repro.core.governor.QueryHandle` immediately:
        ``handle.cancel()`` fires the query's cancel token from any
        thread (the executors notice at their next poll),
        ``handle.result(timeout=...)`` joins and returns the
        :class:`ResultTable` or re-raises the query's error.
        ``cancel_token`` shares an external token (a serving session's,
        say) instead of minting a fresh one.

        The handle owns its governor slot for as long as the query
        runs: release it deterministically with ``handle.close()`` (or
        a ``with`` block).  A handle that is dropped without
        ``result()``/``cancel()``/``close()`` is caught by a finalizer
        that cancels the query on garbage collection, so abandoned
        handles cannot pin admission slots.
        """
        token = self._make_token(timeout_ms, cancel_token) or CancelToken()
        return QueryHandle.spawn(
            token,
            sql,
            lambda: self.query(
                sql,
                params=params,
                config=config,
                collect_stats=collect_stats,
                trace=trace,
                cancel_token=token,
            ),
        )

    def explain(
        self,
        sql: str,
        params: ParamValues = None,
        config: Optional[EngineConfig] = None,
        analyze: bool = False,
        format: str = "text",
    ) -> Union[str, Dict]:
        """Describe the chosen plan: GHD, attribute orders, costs.

        With ``analyze=True`` the query also executes, through the same
        lifecycle as :meth:`query` (admission, deadline, flight record),
        and the output includes the executor's deterministic work counters
        (intersections performed, values iterated in Python loops,
        kernel invocations, ...) plus the plan-cache outcome.
        ``format`` is ``"text"`` (one printable block) or ``"json"``
        (a plain dict, ready for ``json.dumps``).
        """
        cfg = config or self.config
        if _APPROX_PREFIX.match(sql or "") and cfg.approx != "force":
            cfg = dataclasses.replace(cfg, approx="force")
        plan, outcome, _ = self._cached_plan(
            sql, cfg, source=PlanSource(self, sql, params)
        )
        return self._explain_plan(plan, outcome, analyze=analyze, format=format)

    # -- the query lifecycle ---------------------------------------------------

    def _run_query(
        self,
        sql: Optional[str],
        cfg: EngineConfig,
        *,
        plan: Optional[PhysicalPlan] = None,
        source: Optional[PlanSource] = None,
        runner: Optional[Callable[[QueryRun], ResultTable]] = None,
        collect_stats: bool = False,
        trace: bool = False,
        profile: bool = False,
        timeout_ms: Optional[float] = None,
        cancel_token: Optional[CancelToken] = None,
        partial: bool = False,
        query_id: Optional[str] = None,
    ) -> ResultTable:
        """The one query lifecycle behind every front door.

        ``query``, ``execute``, ``PreparedStatement.execute``, an
        analyzed ``explain`` and the shard coordinator's ``query`` all
        run these steps, in this order:
        cancel token, tracer, ``query_id``, in-flight registration,
        admission (with the degrade-to-approximate rung), the timed
        cached compile, the run and its q-error feedback.  Whatever
        leaves as an exception is stamped with the ``query_id``
        (:meth:`_note_query_failure`), and the governor slot is always
        released.  Then, whatever the outcome, the query's one outcome
        record is built (:meth:`_finish_query`): its flight entry, off
        which the metrics and the query-log event are read.

        Two inputs differ between callers.  *Where the plan comes from*:
        a :class:`PlanSource` -- by default the ad-hoc text ``sql``
        (resolved through the parse memo before admission, since the
        cache key is its shape), else the caller's, carrying
        parameter values or a prepared statement's shape and recompile
        bookkeeping; ``execute`` passes the compiled ``plan`` and skips
        the compile step.  *How the plan runs*: ``runner(run)``, by
        default :meth:`_execute_local`; the shard coordinator passes
        its scatter/single/local dispatch.
        """
        token = self._make_token(timeout_ms, cancel_token)
        # one clock per query: the lifecycle always records its phase
        # spans; the planner and executor layers add their deep spans
        # only when the caller or an attached slow-query log reads them
        tracer = Tracer()
        log = self.query_log
        deep = trace or (log is not None and log.captures_traces)
        layers = tracer if deep else NULL_TRACER
        query_id = query_id or next_query_id()
        entry = self.inflight.register(
            query_id, sql, session=current_admission_session()
        )
        entry.tracer = tracer
        source = source or PlanSource(self, sql)
        slot: Optional[AdmissionSlot] = None
        rejection: Optional[RetryableAdmissionError] = None
        run: Optional[QueryRun] = None
        result: Optional[ResultTable] = None
        failure: Optional[BaseException] = None
        outcome, drifted = "ok", False
        try:
            with cancel_scope(token), tracer.span("query") as qspan:
                qspan.set(query_id=query_id)
                key = None
                if plan is None:
                    with tracer.span("parse"):
                        key = source.key(cfg)
                cached = plan is not None or (
                    self.governor is not None
                    and self.plan_cache.peek(key, self.catalog)
                )
                with tracer.span("admission.wait") as aspan:
                    try:
                        slot = self._admit(cached, token)
                    except RetryableAdmissionError as exc:
                        aspan.set(cause=exc.cause)
                        # the shedding rung before queue_full rejection:
                        # an opted-in query with sample coverage runs
                        # approximately instead of failing retryable
                        if not (
                            plan is None
                            and cfg.approx == "allow"
                            and self._approx_covers(source)
                        ):
                            raise
                        rejection = exc
                        cfg = dataclasses.replace(cfg, approx="force")
                        key = source.key(cfg)
                        aspan.set(degraded_to_approx=True)
                    if slot is not None:
                        aspan.set(
                            queued=slot.queued,
                            waited_ms=round(slot.waited_seconds * 1000, 3),
                        )
                compile_seconds = cache_outcome = None
                if plan is None:
                    with tracer.span("compile") as cspan:
                        plan, cache_outcome, _ = self._cached_plan(
                            sql, cfg, layers, key=key, source=source
                        )
                    if cache_outcome != HIT:
                        compile_seconds = cspan.duration
                    if rejection is not None and plan.approx is None:
                        # coverage disappeared between the pre-check and the
                        # compile (a concurrent drop): the rejection stands
                        raise rejection
                # every run carries stats: a killed query reports the
                # partial work it did, and per-node row counts feed the
                # q-error drift record
                stats = ExecutionStats()
                stats.query_id = query_id
                self._note_cache_outcome(stats, cache_outcome)
                entry.stats = stats
                run = QueryRun(
                    entry=entry,
                    token=token,
                    tracer=tracer,
                    layers=layers,
                    plan=plan,
                    cache_outcome=cache_outcome,
                    compile_seconds=compile_seconds,
                    stats=stats,
                    budget=slot.memory_share_bytes if slot is not None else None,
                    trace=trace,
                    profile=profile,
                    partial=partial,
                    degraded=rejection is not None,
                    first_span=len(tracer.root.children),
                )
                result = (runner or self._execute_local)(run)
                _, drifted = self._record_feedback(plan, stats, key)
                if collect_stats:
                    result.stats = stats
                if trace and result.trace is None:
                    # a runner that attached its own tree (the
                    # coordinator's ``shard.<route>``) keeps it
                    result.trace = tracer.root
                result.query_id = query_id
                return result
        except BaseException as exc:
            failure, result = exc, None  # a failed query served no rows
            outcome, retry = self._note_query_failure(exc, entry, run)
            if retry is not None:
                raise retry from exc
            raise
        finally:
            self.inflight.finish(query_id)
            if slot is not None:
                self.governor.release(slot)
            self._finish_query(entry, outcome, run, result, drifted, failure)

    # -- governance machinery -------------------------------------------------

    def _make_token(
        self, timeout_ms: Optional[float], cancel_token: Optional[CancelToken]
    ) -> Optional[CancelToken]:
        """The query's cancel token: caller-supplied, or a fresh deadline."""
        if cancel_token is not None:
            return cancel_token
        effective = timeout_ms if timeout_ms is not None else self.default_timeout_ms
        if effective is None:
            return None
        return CancelToken(timeout_ms=effective)

    def _approx_covers(self, source: PlanSource) -> bool:
        """Whether the statement could run approximately (degrade pre-check)."""
        try:
            lifted, _ = source.lifted()
        except ReproError:
            return False
        return has_usable_sample(lifted.stmt, self.catalog)

    def _admit(
        self, cached: bool, token: Optional[CancelToken]
    ) -> Optional[AdmissionSlot]:
        """Acquire an admission slot (None when no governor is attached).

        Counts admission events (grants, queueing, the queue wait); a
        rejection is an outcome, counted off the query's flight entry.
        """
        if self.governor is None:
            return None
        slot = self.governor.admit(cached=cached, token=token)
        self.metrics.inc("admission_admitted")
        if slot.queued:
            self.metrics.inc("admission_queued")
            self.metrics.observe("admission_wait_seconds", slot.waited_seconds)
        return slot

    def _on_memory_pressure(self) -> None:
        """Governor pressure listener: shed plan-cache LRU entries."""
        shed = self.plan_cache.shed_lru()
        self.metrics.inc("memory_pressure_events")
        if shed:
            self.metrics.inc("plan_cache_shed_entries", shed)

    # -- correlation & flight recording -----------------------------------------

    def _note_query_failure(
        self, exc: BaseException, entry: InflightQuery, run: Optional[QueryRun]
    ) -> Tuple[str, Optional[RetryableAdmissionError]]:
        """Map the exception leaving the lifecycle to its outcome; stamp it.

        Every error gets the ``query_id``.  A kill (deadline, cancel,
        memory budget), wherever it struck, also carries its lifecycle
        span tree, and its partial stats once its run had started.
        Returns the outcome, plus the retryable error to raise instead
        when an out-of-memory kill was really the governor's share
        running out.
        """
        try:
            if getattr(exc, "query_id", None) is None:
                exc.query_id = entry.query_id
        except Exception:  # pragma: no cover -- exotic exceptions with slots
            pass
        if isinstance(exc, QueryTimeoutError):
            outcome = "timeout"
        elif isinstance(exc, QueryCancelledError):
            outcome = "cancelled"
        elif isinstance(exc, OutOfMemoryBudgetError):
            outcome = "oom"
        else:
            return ("rejected" if isinstance(exc, AdmissionError) else "error"), None
        # the tree ends in the phase the query died in, then the mark
        entry.tracer.mark("killed", outcome=outcome)
        if exc.trace_root is None:
            exc.trace_root = entry.tracer.root
        if run is None:
            return outcome, None
        if exc.partial_stats is None:
            exc.partial_stats = run.stats
        if outcome != "oom":
            return outcome, None
        if self.governor is not None:
            self.governor.note_memory_pressure()
        own_budget = run.plan.config.memory_budget_bytes
        if run.budget is None or (own_budget is not None and run.budget >= own_budget):
            return outcome, None
        # the *governor's share*, not the query's own budget, was the
        # binding constraint: concurrent callers get retryable
        # backpressure, never an unhandled OOM
        retry = RetryableAdmissionError(
            f"query exceeded its admitted memory share ({run.budget} bytes): {exc}",
        )
        retry.partial_stats = exc.partial_stats
        retry.query_id = entry.query_id
        return outcome, retry

    def _finish_query(
        self,
        entry: InflightQuery,
        outcome: str,
        run: Optional[QueryRun],
        result: Optional[ResultTable],
        drifted: bool,
        failure: Optional[BaseException],
    ) -> None:
        """Build the query's one outcome record and feed every sink off it.

        The record is the flight-recorder entry; the metrics
        (:meth:`~repro.obs.MetricsRegistry.record_query`) and the
        attached query log (:meth:`~repro.obs.QueryLog.record`) are
        functions of it, so the three can never disagree.  Its
        ``annotations`` block carries the ``feedback`` sub-block
        *uniformly* (empty where no ``run`` exists) -- ``/debug/flight``
        consumers never need per-outcome key guards -- and the
        approximate-execution annotation (``approx``) only when the
        query ran on samples.  Admission facts (``queued``,
        ``admission_wait_ms``, a refused slot's ``cause``) are read off
        the ``admission.wait`` span; the execute time is the runner's
        spans, or the whole ``query`` span for a query that never ran.
        """
        root = entry.tracer.root
        admission = admission_of(root)
        plan = stats = compile_seconds = None
        if run is not None:
            plan, stats, compile_seconds = run.plan, run.stats, run.compile_seconds
        execute_seconds = run.execute_seconds() if run is not None else root.duration
        block: Dict[str, object] = {}
        if result is not None and result.approx is not None:
            block["approx"] = {
                "mode": result.approx["mode"],
                "fraction": result.approx["fraction"],
                "samples": [use["sample"] for use in result.approx["samples"]],
                "errors": {
                    name: info["error"]
                    for name, info in result.approx["columns"].items()
                },
            }
        q_error_max = (
            float(stats.q_error_max)
            if stats is not None and stats.q_error_max
            else None
        )
        block["feedback"] = {"q_error_max": q_error_max, "drifted": bool(drifted)}
        record: Dict[str, object] = {
            "query_id": entry.query_id,
            "ts": round(time.time(), 6),
            "session": entry.session,
            "sql": entry.sql,
            "sql_hash": sql_hash(entry.sql),
            "outcome": outcome,
            "mode": plan.mode if plan is not None else None,
            "cache_outcome": run.cache_outcome if run is not None else None,
            "queued": admission.get("queued", False),
            "admission_wait_ms": admission.get("waited_ms", 0.0),
            # a rejection's cause, or the one a degraded run was spared
            "cause": (
                getattr(failure, "cause", None)
                if outcome == "rejected"
                else admission.get("cause")
            ) or None,
            "compile_ms": (
                None if compile_seconds is None else round(compile_seconds * 1000, 4)
            ),
            "execute_ms": round(execute_seconds * 1000, 4),
            "rows": result.num_rows if result is not None else 0,
            "bytes_out": result.nbytes if result is not None else 0,
            "groups": int(stats.groups_emitted) if stats is not None else 0,
            "cancel_checks": int(stats.cancel_checks) if stats is not None else 0,
            "nodes": [
                {
                    "node": summary.get("node_key"),
                    "order": list(summary.get("attrs") or ()),
                }
                for summary in (plan.node_summaries() if plan is not None else [])
            ],
            "q_error_max": q_error_max,
            "drifted": bool(drifted),
            "annotations": block,
        }
        if failure is not None:
            record["error"] = str(failure)
        self.flight.record(record)
        self.metrics.record_query(record)
        log = self.query_log
        if log is not None:
            capture = log.captures(record)
            log.record(
                record,
                plan_text=plan.explain() if capture and plan is not None else None,
                trace_root=root if capture else None,
            )

    def debug_snapshot(
        self, what: str, n: Optional[int] = None, outcome: Optional[str] = None
    ) -> Dict[str, object]:
        """One live-introspection view, JSON-ready, from atomic snapshots.

        ``what`` selects the view the ``/debug/*`` HTTP endpoints and
        the ``debug`` wire frame expose: ``queries`` (in-flight),
        ``flight`` (the recorder ring; ``n`` and ``outcome`` filter),
        ``plans`` (plan-cache entries + feedback drift state),
        ``governor`` (slots, queue, per-session shares), or ``metrics``
        (the engine's counter/gauge/histogram registry -- the view a
        shard coordinator aggregates across workers).
        """
        if what == "queries":
            return {"count": len(self.inflight), "queries": self.inflight.snapshot()}
        if what == "flight":
            return {
                "capacity": self.flight.capacity,
                "recorded": self.flight.recorded,
                "entries": self.flight.snapshot(n=n, outcome=outcome),
            }
        if what == "plans":
            return {
                "capacity": self.plan_cache.capacity,
                "size": len(self.plan_cache),
                "stats": self.plan_cache.stats.as_dict(),
                "entries": self.plan_cache.debug_snapshot(),
            }
        if what == "governor":
            return {
                "governor": (
                    self.governor.snapshot() if self.governor is not None else None
                )
            }
        if what == "metrics":
            return {"metrics": self.metrics.as_dict()}
        raise ReproError(
            f"unknown debug view {what!r} "
            f"(one of: queries, flight, plans, governor, metrics)"
        )

    def debug(
        self, what: str, n: Optional[int] = None, outcome: Optional[str] = None
    ) -> Dict[str, object]:
        """:meth:`debug_snapshot` under the unified QuerySurface name.

        Every topology behind ``repro.connect()`` -- this engine, the
        remote client, the shard coordinator -- answers ``debug(what)``
        with the same view names.
        """
        return self.debug_snapshot(what, n=n, outcome=outcome)

    def close(self) -> None:
        """Release surface resources (a no-op for the in-process engine).

        Part of the QuerySurface contract: remote clients close their
        socket, shard coordinators stop their workers, and the engine has
        nothing to tear down -- callers can ``close()`` whatever
        ``repro.connect()`` returned without caring which topology it is.
        """

    # -- internal query machinery ---------------------------------------------

    def _config_key(self, cfg: EngineConfig) -> Tuple:
        """The config part of plan and skeleton keys."""
        if cfg.approx == "force":
            # sample creation/drop must be picked up by the next
            # approximate query without flushing any cached exact plan
            return (cfg.fingerprint(), self.catalog.samples_epoch)
        return (cfg.fingerprint(),)

    def _cached_plan(
        self,
        sql: str,
        cfg: EngineConfig,
        tracer=NULL_TRACER,
        key: Optional[Tuple] = None,
        source: Optional[PlanSource] = None,
    ) -> Tuple[PhysicalPlan, str, Tuple]:
        """Look up (or compile and cache) a skeleton and bind: the one
        cached-compile step.

        ``source`` defaults to the ad-hoc text ``sql``, and ``key`` to
        the source's plan-cache key (its shape, parameter types and
        config).  A hit binds the source's values to the cached
        skeleton; anything else compiles the shape's skeleton and caches
        it.  A ``reoptimized`` outcome compiles with the entry's
        accumulated per-node observations overriding the estimates
        (:meth:`PlanCache.corrections`).  Returns ``(plan, outcome,
        cache_key)`` so execution can feed q-error measurements back to
        the entry.
        """
        source = source or PlanSource(self, sql)
        lifted, values = source.lifted()
        if key is None:
            key = source.key(cfg)
        with tracer.span("plan_cache.lookup") as span:
            skeleton, outcome = self.plan_cache.lookup(key, self.catalog)
            span.set(outcome=outcome)
        if skeleton is not None:
            with tracer.span("plan.bind"):
                plan = skeleton.bind(values, tracer)
        else:
            corrections = (
                self.plan_cache.corrections(key) if outcome == REOPTIMIZED else None
            )
            skeleton, plan = self._compile_skeleton(
                lifted.stmt, cfg, values, tracer, corrections
            )
            self.plan_cache.store(key, skeleton, source.sql)
            if outcome == REOPTIMIZED:
                self.metrics.inc("plan_reoptimizations")
        if source.on_plan is not None:
            source.on_plan(plan, outcome != HIT)
        return plan, outcome, key

    def _compile_skeleton(
        self,
        stmt: SelectStmt,
        cfg: EngineConfig,
        values: Optional[Dict[int, Literal]] = None,
        tracer=NULL_TRACER,
        feedback: Optional[Dict[str, int]] = None,
    ) -> Tuple[PlanSkeleton, PhysicalPlan]:
        """The one ``stmt -> PlanSkeleton`` pipeline, plus its first plan.

        Approximate rewrite (under ``approx="force"``), bind, translate,
        ``build_skeleton`` (its orders chosen with ``values`` bound);
        the rewrite's :class:`ApproxSpec` rides on ``skeleton.approx``
        and on the plan of ``values``.
        """
        approx_spec = None
        if cfg.approx == "force":
            with tracer.span("approx.rewrite"):
                stmt, approx_spec = maybe_rewrite(stmt, self.catalog)
        with tracer.span("bind"):
            bound = bind(stmt, self.catalog)
        with tracer.span("translate"):
            compiled = translate(bound)
        with tracer.span("physical_plan"):
            skeleton, plan = build_skeleton(
                compiled, cfg, values, tracer=tracer, feedback=feedback
            )
        skeleton.approx = plan.approx = approx_spec
        return skeleton, plan

    def enable_query_log(
        self, sink, slow_query_seconds: Optional[float] = None
    ) -> QueryLog:
        """Attach a :class:`~repro.obs.QueryLog` writing to ``sink``.

        ``sink`` is a path or file-like object; one JSON line per served
        or killed query.  With ``slow_query_seconds`` set, queries at or above the
        threshold also capture the plan text and full span tree (the
        planner and executor layers record their spans for every query
        while such a log is attached).
        Returns the log; detach with ``engine.query_log = None``.
        """
        self.query_log = QueryLog(sink, slow_query_seconds=slow_query_seconds)
        return self.query_log

    def _execute_local(self, run: QueryRun) -> ResultTable:
        """The default runner: ``execute_plan`` on this engine, then decode."""
        plan, tracer, stats = run.plan, run.tracer, run.stats
        profiler = KernelProfiler() if run.profile else None
        kwargs = dict(stats=stats, tracer=run.layers, cancel=run.token)
        if run.budget is not None:
            kwargs["memory_budget_bytes"] = run.budget
        # the profile attributes execute_plan, not compile or decode
        with tracer.span("execute") as span, (
            _activate_profiler(profiler) if profiler is not None else nullcontext()
        ):
            snapshot = stats.snapshot() if run.layers.active else None
            raw = execute_plan(plan, **kwargs)
            span.set(mode=plan.mode, rows=raw.num_rows)
            if snapshot is not None:
                span.stats = stats.delta_since(snapshot)
        if profiler is not None:
            profiler.execute_seconds = span.duration
        with tracer.span("decode"):
            if run.partial:
                result = self._decode_partial(plan.compiled, plan, raw)
            else:
                result = self._decode(plan.compiled, plan, raw)
        if not run.partial and plan.approx is not None:
            with tracer.span("approx.estimate"):
                apply_estimation(
                    result, plan.approx, mode="degraded" if run.degraded else "forced"
                )
            self.metrics.inc("approx_queries")
        result.profile = profiler
        return result

    def _record_feedback(
        self,
        plan: PhysicalPlan,
        stats: ExecutionStats,
        cache_key: Optional[Tuple],
    ) -> Tuple[Optional[QueryFeedback], bool]:
        """Measure this run's q-error and feed it to the plan cache.

        Pairs the executed nodes' ``est_rows`` with the rows they
        actually produced, stamps the per-query q-error onto ``stats``,
        and -- for cached plans -- folds the measurement into the
        entry's drift record.  Returns ``(measurement, newly_drifted)``
        (measurement is None for scan/BLAS plans, which have no join
        estimates to score).
        """
        if not stats.node_rows:
            return None, False
        measured = measure(plan, stats.node_rows)
        if measured is None:
            return None, False
        stats.q_error_max = measured.q_error_max
        stats.q_error_root = measured.q_error_root
        self.metrics.observe("q_error_max", measured.q_error_max)
        self.metrics.observe("q_error_root", measured.q_error_root)
        drifted = cache_key is not None and self.plan_cache.record_feedback(
            cache_key, measured
        )
        if drifted:
            self.metrics.inc("plans_drifted")
        return measured, drifted

    def _note_cache_outcome(self, stats: ExecutionStats, outcome: Optional[str]) -> None:
        if outcome == HIT:
            stats.plan_cache_hits += 1
        elif outcome == MISS:
            stats.plan_cache_misses += 1
        elif outcome == INVALIDATED:
            stats.plan_cache_invalidations += 1
        elif outcome == REOPTIMIZED:
            stats.plan_reoptimizations += 1

    def _explain_plan(
        self,
        plan: PhysicalPlan,
        outcome: Optional[str],
        analyze: bool = False,
        format: str = "text",
    ) -> Union[str, Dict]:
        if format not in ("text", "json"):
            raise ValueError(f"explain format must be 'text' or 'json', got {format!r}")
        stats = None
        result = None
        trace_root = None
        measured = None
        if analyze:
            # the one query lifecycle: admission, deadline, in-flight
            # registry and flight record apply to an analyzed explain too
            result = self._run_query(
                None, plan.config, plan=plan, collect_stats=True, trace=True
            )
            stats, trace_root = result.stats, result.trace
            self._note_cache_outcome(stats, outcome)
            measured = measure(plan, stats.node_rows)
        cache = self.plan_cache.stats
        if format == "json":
            plan_nodes = plan.node_summaries()
            if measured is not None:
                # pair each node summary with what the node actually did
                for summary in plan_nodes:
                    nf = measured.node(summary.get("node_key", ""))
                    if nf is not None:
                        summary["est_rows"] = float(nf.est_rows)
                        summary["actual_rows"] = int(nf.actual_rows)
                        summary["q_error"] = float(nf.q_error)
            return {
                "schema_version": EXPLAIN_SCHEMA_VERSION,
                "mode": plan.mode,
                "plan": plan.explain(),
                "approx": (
                    plan.approx.as_dict() if plan.approx is not None else None
                ),
                "plan_nodes": plan_nodes,
                "plan_cache": {"outcome": outcome, **cache.as_dict()},
                "domain_versions": dict(plan.domain_versions),
                "stats": stats.as_dict() if stats is not None else None,
                "feedback": measured.as_dict() if measured is not None else None,
                "result_rows": result.num_rows if result is not None else None,
                "trace": trace_root.as_dict() if trace_root is not None else None,
            }
        lines = [plan.explain()]
        if outcome is not None:
            lines.append(f"plan cache: {outcome} ({cache.describe()})")
        if stats is not None:
            lines.append(stats.describe())
        if measured is not None:
            lines.append(
                f"q-error: max={measured.q_error_max:.2f} "
                f"root={measured.q_error_root:.2f}"
            )
            for nf in measured.nodes:
                lines.append(
                    f"  {nf.node_key}: est_rows={nf.est_rows:.0f} "
                    f"actual_rows={nf.actual_rows} q_error={nf.q_error:.2f}"
                )
        if result is not None:
            lines.append(f"result rows: {result.num_rows}")
        if trace_root is not None:
            lines.append("trace:")
            lines.append(trace_root.render(1))
        return "\n".join(lines)

    # -- result decoding -------------------------------------------------------------

    def _decode(
        self, compiled: CompiledQuery, plan: PhysicalPlan, raw: RawResult
    ) -> ResultTable:
        key_env, agg_columns, n_rows = self._decode_env(compiled, plan, raw)
        return finalize_result(compiled, key_env, agg_columns, n_rows)

    def _decode_env(
        self, compiled: CompiledQuery, plan: PhysicalPlan, raw: RawResult
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray], int]:
        """Decode a raw result into (group-key env, raw agg columns, rows).

        Group keys come back decoded through their dictionaries; the
        aggregate columns stay raw float64 (COUNT's int cast, the
        identity fill, and the output expressions are finalization --
        :func:`~repro.xcution.finalize.finalize_result`).
        """
        key_env: Dict[str, np.ndarray] = {}
        for position, (kind, ref) in enumerate(raw.group_layout):
            key_env[ref] = self._decode_component(
                compiled, plan, raw, kind, ref, raw.key_columns[position]
            )
        agg_columns: Dict[str, np.ndarray] = {
            agg_id: raw.matrix[:, a_idx] for a_idx, agg_id in enumerate(raw.agg_ids)
        }
        return key_env, agg_columns, raw.matrix.shape[0]

    def _decode_partial(
        self, compiled: CompiledQuery, plan: PhysicalPlan, raw: RawResult
    ) -> ResultTable:
        """Shard-worker decode: decoded group keys + raw partial aggregates.

        The returned table's columns are the group-key refs (decoded, so
        the coordinator merges on values, never on shard-local dictionary
        codes) followed by the aggregate slot ids as float64 partials.
        No identity fill, no COUNT cast, no output expressions, no
        HAVING/ORDER BY/LIMIT -- the coordinator applies those once,
        after the semiring merge.
        """
        key_env, agg_columns, _ = self._decode_env(compiled, plan, raw)
        names = list(key_env) + list(agg_columns)
        columns = list(key_env.values()) + [
            np.asarray(c, dtype=np.float64) for c in agg_columns.values()
        ]
        return ResultTable(names, columns)

    def _decode_component(self, compiled, plan, raw, kind, ref, column):
        if kind == "vertex":
            codes = np.asarray(column, dtype=np.int64)
            if not raw.keys_are_codes:
                return codes
            vertex = compiled.bound.vertex(ref)
            alias, attr_name = vertex.members[0]
            table = compiled.bound.tables[alias]
            dictionary = table._domain_dictionary(attr_name)
            return dictionary.decode(codes)
        # annotation component
        if not raw.keys_are_codes:
            return np.asarray(column)
        dictionary = None
        if plan.root is not None:
            for fetcher in plan.root.group_fetchers + plan.root.deferred_fetchers:
                if fetcher.ref_id == ref:
                    dictionary = fetcher.dictionary
                    break
        if dictionary is not None:
            return dictionary.decode(np.asarray(column, dtype=np.int64))
        return np.asarray(column)
