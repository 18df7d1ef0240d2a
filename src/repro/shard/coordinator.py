"""The shard coordinator: one query surface over N worker processes.

``ShardCoordinator`` wraps a fully governed local
:class:`~repro.core.engine.LevelHeadedEngine` and a fleet of
:class:`~repro.shard.worker.ShardWorker` processes.  The local engine
is the single source of truth: registrations land in its catalog (and
ship to workers lazily, sliced by the partitioner), plans compile
against it (one plan cache, one q-error feedback loop), admission runs
against its governor exactly once per query, and its flight recorder /
metrics registry carry the coordinator-level story while each worker
keeps its own.

Per query the coordinator picks one of three routes off the *compiled*
plan:

``scatter``
    Every partitioned alias joins through the partition domain (or
    there is at most one partitioned alias, which any row split
    satisfies) and every aggregate has a mergeable partial form.  The
    SQL fans out to all workers in ``partial`` mode; column chunks gather
    into a semiring merge (:mod:`repro.shard.merge`) and finalize once
    (:mod:`repro.xcution.finalize`).
``single``
    No partitioned table participates -- all operands are replicated,
    so any one worker holds the complete inputs.  The query runs
    whole on one worker, round-robin, with full serial semantics.
``local``
    Scatter would be incorrect (partitioned tables joining off the
    partition key -- the triangle query's three-way self-join on
    different attributes is the canonical case) or partials don't
    merge.  The coordinator's own engine executes serially; answers
    stay correct at single-process speed.

Cancellation is one token end to end: the caller's
:class:`~repro.core.governor.CancelToken` (or the deadline token the
coordinator mints) is shared with every per-shard client, whose
watchers translate it into ``cancel`` frames on each worker
connection.  One ``query_id`` is stamped into every shard's flight
entry plus the coordinator's own, so ``/debug/flight`` correlates the
distributed run.
"""

from __future__ import annotations

import functools
import threading
from typing import Dict, List, Optional, Tuple

from ..core.governor import CancelToken, QueryHandle
from ..core.prepared import PlanSource
from ..errors import QueryKilledError, ReproError, UnsupportedOnTopology
from ..xcution.finalize import finalize_result
from ..sql.ast import ColumnRef
from .merge import MERGEABLE_FUNCS, _decoded_dtype, merge_partials, merge_shard_stats
from .partitioner import choose_partition_domain, leading_domain, shard_indices, slice_table
from .worker import ShardWorker

__all__ = ["ShardCoordinator", "ShardStatement"]

SCATTER, SINGLE, LOCAL = "scatter", "single", "local"


class ShardStatement:
    """A prepared statement whose executions route through the coordinator."""

    def __init__(self, coordinator: "ShardCoordinator", sql: str):
        self._coordinator = coordinator
        # validate eagerly against the coordinator catalog: syntax and
        # name errors surface at prepare time, like every other surface
        self._statement = coordinator.engine.prepare(sql)
        self.sql = sql

    @property
    def params(self) -> int:
        return len(self._statement.param_slots)

    def execute(
        self,
        params=None,
        collect_stats: bool = False,
        trace: bool = False,
        timeout_ms: Optional[float] = None,
        cancel_token: Optional[CancelToken] = None,
        partial: bool = False,
        query_id: Optional[str] = None,
        approx=None,
    ):
        self._coordinator._reject_unsupported(partial=partial, approx=approx)
        return self._coordinator._run(
            self.sql,
            params,
            self._statement,
            collect_stats=collect_stats,
            trace=trace,
            timeout_ms=timeout_ms,
            cancel_token=cancel_token,
            query_id=query_id,
        )

    __call__ = execute

    def explain(self, params=None, analyze: bool = False, format: str = "text"):
        return self._statement.explain(params, analyze=analyze, format=format)

    def close(self) -> None:
        """Nothing to release (plans live in the coordinator's cache)."""

    def __enter__(self) -> "ShardStatement":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ShardCoordinator:
    """Partition, scatter, gather, merge -- behind the QuerySurface API."""

    def __init__(
        self,
        engine,
        workers: int = 2,
        partition: Optional[str] = None,
        start_method: Optional[str] = None,
        worker_timeout: float = 60.0,
    ):
        if workers < 1:
            raise ReproError(f"a shard surface needs >= 1 worker, got {workers}")
        self.engine = engine
        self.partition = partition
        self._partition_domain: Optional[str] = partition
        self._shipped: Dict[str, object] = {}  # table name -> Table identity shipped
        self._partitioned: set = set()
        self._sync_lock = threading.Lock()
        self._rr_lock = threading.Lock()
        self._rr = 0
        self._http = None
        self._closed = False
        self.workers: List[ShardWorker] = []
        try:
            # start every child first (interpreter boot overlaps), then
            # wait for the fleet to report ready
            for index in range(workers):
                self.workers.append(
                    ShardWorker(index, config=engine.config, start_method=start_method)
                )
            for worker in self.workers:
                worker.wait_ready(timeout=worker_timeout)
        except BaseException:
            self.close()
            raise

    # -- data distribution ---------------------------------------------------

    def _sync(self) -> None:
        """Ship new/changed catalog tables to the workers (lazily, per query).

        Tables whose leading key lives in the partition domain go out as
        hash-sliced partitions; everything else replicates whole.  A
        re-registered table (same name, new object) re-ships.  Shipping
        fans out worker-parallel: each worker has its own connection.
        """
        with self._sync_lock:
            catalog = self.engine.catalog
            if self._partition_domain is None:
                self._partition_domain = choose_partition_domain(
                    catalog.tables.values()
                )
            pending: List[Tuple[str, object]] = [
                (name, table)
                for name, table in sorted(catalog.tables.items())
                if self._shipped.get(name) is not table
            ]
            if not pending:
                return
            shipments: List[List[object]] = [[] for _ in self.workers]
            for name, table in pending:
                domain = leading_domain(table)
                if self._partition_domain is not None and domain == self._partition_domain:
                    attr = table.schema.key_names[0]
                    for shard, indices in enumerate(
                        shard_indices(table, attr, len(self.workers))
                    ):
                        shipments[shard].append(slice_table(table, indices))
                    self._partitioned.add(name)
                else:
                    for shard in range(len(self.workers)):
                        shipments[shard].append(table)
                    self._partitioned.discard(name)
            errors: List[Optional[BaseException]] = [None] * len(self.workers)

            def ship(shard: int) -> None:
                try:
                    for table in shipments[shard]:
                        self.workers[shard].client.register_table(table)
                except BaseException as exc:
                    errors[shard] = exc

            threads = [
                threading.Thread(target=ship, args=(shard,), daemon=True)
                for shard in range(len(self.workers))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            first = next((e for e in errors if e is not None), None)
            if first is not None:
                raise first
            for name, table in pending:
                self._shipped[name] = table

    # -- routing -------------------------------------------------------------

    def _route(self, plan) -> str:
        """Pick the execution route for one compiled plan (see module doc)."""
        compiled = plan.compiled
        bound = compiled.bound
        partitioned_aliases = [
            alias
            for alias, table in bound.tables.items()
            if table.name in self._partitioned
        ]
        if not partitioned_aliases:
            return SINGLE
        funcs = {a.func for a in compiled.aggregates}
        if not funcs <= MERGEABLE_FUNCS:
            return LOCAL
        if len(partitioned_aliases) > 1:
            # several partitioned tables: correct only if matching rows
            # co-locate, i.e. every leading key joins through one vertex
            vertices = set()
            for alias in partitioned_aliases:
                lead = bound.tables[alias].schema.key_names[0]
                vertex = bound.vertex_of.get((alias, lead))
                if vertex is None:
                    return LOCAL
                vertices.add(vertex)
            if len(vertices) != 1:
                return LOCAL
        return SCATTER

    def _next_worker(self) -> ShardWorker:
        with self._rr_lock:
            worker = self.workers[self._rr % len(self.workers)]
            self._rr += 1
        return worker

    # -- the QuerySurface ----------------------------------------------------

    def query(
        self,
        sql: str,
        params=None,
        config=None,
        collect_stats: bool = False,
        trace: bool = False,
        profile: bool = False,
        timeout_ms: Optional[float] = None,
        cancel_token: Optional[CancelToken] = None,
        partial: bool = False,
        query_id: Optional[str] = None,
        approx=None,
    ):
        """Run one SQL query across the shard fleet.

        Admission, cancellation, stats, tracing, and flight recording
        behave exactly like :meth:`LevelHeadedEngine.query`; ``config=``,
        ``profile=``, ``partial=``, and ``approx=`` raise
        :class:`UnsupportedOnTopology` (a per-query config override
        cannot reach already-built workers, kernel profiles don't
        aggregate across processes, shard surfaces don't nest, and
        catalog samples aren't co-partitioned across workers yet).
        ``query_id`` lets a fronting server stamp its correlation id
        through -- a coordinator can itself sit behind a
        :class:`~repro.server.ReproServer`.
        """
        self._reject_unsupported(
            config=config, profile=profile, partial=partial, approx=approx
        )
        return self._run(
            sql,
            params,
            None,
            collect_stats=collect_stats,
            trace=trace,
            timeout_ms=timeout_ms,
            cancel_token=cancel_token,
            query_id=query_id,
        )

    def _run(self, sql: str, params, statement, **opts):
        """Enter the engine's query lifecycle with this fleet as the runner.

        The plan comes from the coordinator engine's cache -- the text
        and ``params``, or a prepared ``statement`` -- and runs through
        :meth:`_dispatch`.
        """
        self._sync()
        runner = functools.partial(self._dispatch, sql, params)
        if statement is None:
            return self.engine._run_query(
                sql,
                self.engine.config,
                source=PlanSource(self.engine, sql, params),
                runner=runner,
                **opts,
            )
        return statement._run(params, runner=runner, **opts)

    def _dispatch(self, sql: str, params, run):
        """How a plan runs on the shard surface: route, fan out, merge."""
        route = self._route(run.plan)
        if route == LOCAL:
            # serial fallback on the coordinator's own engine --
            # correct for every query scatter cannot serve
            return self.engine._execute_local(run)
        fan_out = self._run_single if route == SINGLE else self._run_scatter
        with run.tracer.span(f"shard.{route}") as span:
            result, shard_stats, shard_traces = fan_out(sql, params, run)
        merge_shard_stats(run.stats, shard_stats)
        if run.trace:
            # the caller's tree is rooted at the route span, one child
            # per shard; the lifecycle's own spans stay internal
            span.set(query_id=run.entry.query_id, shards=len(shard_traces))
            span.children.extend(shard_traces)
            result.trace = span
        return result

    def _ask(self, worker: ShardWorker, sql: str, params, run, token, partial=False):
        """One worker's share of the run, under its query_id and token."""
        return worker.client.query(
            sql,
            params=params,
            collect_stats=True,
            trace=run.trace,
            timeout_ms=token.remaining_ms() if token is not None else None,
            cancel_token=token,
            partial=partial,
            query_id=run.entry.query_id,
        )

    def _run_single(self, sql: str, params, run):
        """All operands replicated: run whole on one worker, round-robin."""
        worker = self._next_worker()
        result = self._ask(worker, sql, params, run, run.token)
        self._restore_native_dtypes(run.plan, result)
        stats, result.stats = result.stats, None
        span = result.trace
        if span is not None:
            span.set(shard=worker.index)
        return result, [stats], [span] if span is not None else []

    def _run_scatter(self, sql: str, params, run):
        """Fan the query out in partial mode; gather, merge, finalize."""
        plan = run.plan
        fan_token = run.token if run.token is not None else CancelToken()
        n = len(self.workers)
        results: List[Optional[object]] = [None] * n
        errors: List[Optional[BaseException]] = [None] * n

        def ask(shard: int, worker: ShardWorker) -> None:
            try:
                results[shard] = self._ask(
                    worker, sql, params, run, fan_token, partial=True
                )
            except BaseException as exc:
                errors[shard] = exc

        threads = [
            threading.Thread(
                target=ask, args=(shard, worker), name=f"repro-scatter-{shard}",
                daemon=True,
            )
            for shard, worker in enumerate(self.workers)
        ]
        for thread in threads:
            thread.start()
        # reap siblings early when one shard dies: firing the shared
        # token turns into cancel frames on every other connection
        while any(thread.is_alive() for thread in threads):
            if any(e is not None for e in errors) and not fan_token.cancelled:
                fan_token.cancel("sibling shard failed")
            for thread in threads:
                thread.join(0.01)
        killed = next(
            (e for e in errors if isinstance(e, QueryKilledError)), None
        )
        hard = next(
            (e for e in errors if e is not None and not isinstance(e, QueryKilledError)),
            None,
        )
        if hard is not None:
            raise hard  # the originating failure, not the sympathetic kills
        if killed is not None:
            raise killed
        key_env, agg_columns, n_rows = merge_partials(
            plan.compiled, results, plan=plan
        )
        result = finalize_result(plan.compiled, key_env, agg_columns, n_rows)
        shard_stats = [r.stats for r in results if r is not None]
        shard_traces = []
        for shard, partial in enumerate(results):
            if partial is not None and partial.trace is not None:
                shard_traces.append(partial.trace.set(shard=shard))
        return result, shard_stats, shard_traces

    def _restore_native_dtypes(self, plan, result) -> None:
        """Widen decoded key columns to the coordinator's dictionary dtype.

        Columns arrive with the worker's exact dtypes, but a serial run
        decodes group keys by fancy-indexing the domain dictionary, and a
        worker's dictionary holds only its own shard's values, so it can
        be narrower (``<U5`` where the coordinator's is ``<U7``).  The
        coordinator compiled against the full catalog, so one ``astype``
        to its dictionary's dtype keeps single-routed results
        byte-identical to serial ones.
        """
        exprs = dict(plan.compiled.output_columns)
        for name in result.names:
            expr = exprs.get(name)
            if not isinstance(expr, ColumnRef):
                continue
            native = _decoded_dtype(plan.compiled, plan, expr.name)
            if native is not None:
                result.columns[name] = result.columns[name].astype(native, copy=False)

    def prepare(self, sql: str, config=None) -> ShardStatement:
        """Validate ``sql`` now; executions route through :meth:`query`."""
        self._reject_unsupported(config=config)
        return ShardStatement(self, sql)

    def explain(
        self,
        sql: str,
        params=None,
        config=None,
        analyze: bool = False,
        format: str = "text",
    ):
        """The coordinator plan (what routing inspects); analyze runs locally."""
        self._reject_unsupported(config=config)
        return self.engine.explain(sql, params=params, analyze=analyze, format=format)

    def submit(
        self,
        sql: str,
        params=None,
        config=None,
        collect_stats: bool = False,
        trace: bool = False,
        timeout_ms: Optional[float] = None,
        cancel_token: Optional[CancelToken] = None,
    ) -> QueryHandle:
        """Run :meth:`query` on a background thread; cancel fans out."""
        self._reject_unsupported(config=config)
        token = self.engine._make_token(timeout_ms, cancel_token) or CancelToken()
        return QueryHandle.spawn(
            token,
            sql,
            lambda: self.query(
                sql,
                params=params,
                collect_stats=collect_stats,
                trace=trace,
                cancel_token=token,
            ),
            name="repro-shard-query",
        )

    def debug(
        self, what: str, n: Optional[int] = None, outcome: Optional[str] = None
    ) -> Dict[str, object]:
        """:meth:`debug_snapshot` under the unified QuerySurface name."""
        return self.debug_snapshot(what, n=n, outcome=outcome)

    def debug_snapshot(
        self, what: str, n: Optional[int] = None, outcome: Optional[str] = None
    ) -> Dict[str, object]:
        """The coordinator's view plus one entry per shard under ``shards``."""
        data = self.engine.debug_snapshot(what, n=n, outcome=outcome)
        shards: List[Dict[str, object]] = []
        for worker in self.workers:
            if worker.client is None or not worker.alive():
                shards.append({"shard": worker.index, "error": "worker not available"})
                continue
            try:
                view = worker.client.debug(what, n=n, outcome=outcome)
            except Exception as exc:
                shards.append({"shard": worker.index, "error": str(exc)})
                continue
            shards.append({"shard": worker.index, **view})
        data["shards"] = shards
        return data

    # -- observability hooks (the HTTP sidecar discovers these) -------------

    def shard_liveness(self) -> List[Dict[str, object]]:
        """Per-worker liveness for ``/healthz`` (dead worker => degraded)."""
        return [
            {
                "shard": worker.index,
                "alive": worker.alive(),
                "pid": worker.process.pid,
                "port": worker.port,
            }
            for worker in self.workers
        ]

    def metrics_prometheus(self) -> str:
        """Coordinator registry plus aggregated per-worker counters."""
        base = self.engine.metrics.to_prometheus().rstrip("\n")
        totals: Dict[str, float] = {}
        alive = 0
        for worker in self.workers:
            if worker.client is None or not worker.alive():
                continue
            try:
                data = worker.client.debug("metrics")["metrics"]
            except Exception:
                continue
            alive += 1
            for name, value in data.get("counters", {}).items():
                totals[name] = totals.get(name, 0) + value
        lines = [
            base,
            f"repro_shard_workers {len(self.workers)}",
            f"repro_shard_workers_alive {alive}",
        ]
        for name in sorted(totals):
            lines.append(f"repro_shard_worker_{name} {totals[name]:g}")
        return "\n".join(lines) + "\n"

    # -- lifecycle -----------------------------------------------------------

    def serve_http(self, host: str = "127.0.0.1", port: int = 0):
        """Start the ``/metrics`` + ``/healthz`` + ``/debug/*`` sidecar."""
        from ..server.http import MetricsHTTPServer

        if self._http is None:
            self._http = MetricsHTTPServer(self, host=host, port=port)
        return self._http.start()

    def close(self) -> None:
        """Stop the HTTP sidecar and reap every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._http is not None:
            self._http.stop()
            self._http = None
        for worker in self.workers:
            worker.stop()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardCoordinator(workers={len(self.workers)}, "
            f"partition={self._partition_domain!r})"
        )

    def _reject_unsupported(
        self, config=None, profile: bool = False, partial: bool = False, approx=None
    ) -> None:
        if config is not None:
            raise UnsupportedOnTopology(
                "per-query config= overrides are not supported on the shard "
                "surface: workers were built with the coordinator's config; "
                "set it on repro.connect()",
                option="config",
                topology="shard",
            )
        if profile:
            raise UnsupportedOnTopology(
                "profile= is not supported on the shard surface: kernel "
                "profiles don't aggregate across worker processes",
                option="profile",
                topology="shard",
            )
        if partial:
            raise UnsupportedOnTopology(
                "partial= is not supported on the shard surface: workers "
                "already return partials, and shard surfaces don't nest",
                option="partial",
                topology="shard",
            )
        if approx is not None:
            raise UnsupportedOnTopology(
                "approx= is not supported on the shard surface: catalog "
                "samples are not co-partitioned across workers, so a "
                "scatter over samples would double-count strata; run "
                "approximate queries on a local or tcp surface",
                option="approx",
                topology="shard",
            )

    # mutable engine knobs the CLI shell pokes: forward through a real
    # property so assignment reaches the engine, not a shadow attribute
    @property
    def default_timeout_ms(self):
        return self.engine.default_timeout_ms

    @default_timeout_ms.setter
    def default_timeout_ms(self, value) -> None:
        self.engine.default_timeout_ms = value

    @property
    def config(self):
        return self.engine.config

    @config.setter
    def config(self, value) -> None:
        raise UnsupportedOnTopology(
            "the engine config is fixed once a shard fleet is running: "
            "workers were built with it; reconnect with the new config",
            option="config",
            topology="shard",
        )

    # everything else (catalog registration, metrics, flight, governor,
    # plan cache, ...) is the local engine's -- delegate so the
    # coordinator quacks like an engine for tooling built on one
    def __getattr__(self, name: str):
        if name.startswith("_") or name == "engine":
            raise AttributeError(name)
        return getattr(self.engine, name)
