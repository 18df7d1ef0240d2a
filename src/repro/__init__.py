"""LevelHeaded reproduction: a unified WCOJ engine for BI and LA querying.

Reproduces *LevelHeaded: A Unified Engine for Business Intelligence and
Linear Algebra Querying* (Aberger, Lamb, Olukotun, Ré -- ICDE 2018).
The engine executes both SQL-style business-intelligence queries and
linear-algebra kernels through a single worst-case optimal join
architecture; see DESIGN.md for the system inventory and EXPERIMENTS.md
for the reproduced tables and figures.

Quickstart::

    import repro
    from repro import Schema, key, annotation

    engine = repro.connect()
    engine.create_table(
        Schema("matrix", [key("i", domain="dim"), key("j", domain="dim"),
                          annotation("v")]),
        i=[0, 0, 1], j=[0, 2, 0], v=[0.2, 0.4, 0.1],
    )
    result = engine.query(
        "SELECT m1.i, m2.j, sum(m1.v * m2.v) AS v FROM matrix m1, matrix m2 "
        "WHERE m1.j = m2.i GROUP BY m1.i, m2.j"
    )

    # prepared statements + parameter placeholders
    stmt = engine.prepare(
        "SELECT sum(m.v) AS total FROM matrix m WHERE m.v > ?"
    )
    stmt.execute([0.15]).single_value()

Repeated ``engine.query()`` calls transparently reuse compiled plans
through a versioned plan cache; ``engine.explain(sql, analyze=True)``
shows the cache outcome and the executor's work counters.
``engine.query(sql, trace=True)`` attaches a lifecycle span tree as
``result.trace``, and ``engine.metrics`` accumulates serving metrics
(latency percentiles, cache hit rates) across the engine's lifetime.
"""

from .core.engine import LevelHeadedEngine
from .core.governor import CancelToken, Governor, QueryHandle, retry_admission
from .core.plan_cache import PlanCache
from .core.prepared import PreparedStatement
from .core.result import ResultTable
from .errors import (
    AdmissionError,
    BindError,
    ExecutionError,
    OutOfMemoryBudgetError,
    ParseError,
    PlanningError,
    QueryCancelledError,
    QueryKilledError,
    QueryTimeoutError,
    ReproError,
    RetryableAdmissionError,
    SchemaError,
    UnsupportedOnTopology,
    UnsupportedQueryError,
)
from .obs import MetricsRegistry, Span, Tracer
from .storage.catalog import Catalog
from .storage.schema import AttrType, Attribute, Kind, Schema, annotation, key
from .storage.table import Table
from .xcution.plan import EngineConfig

__version__ = "1.0.0"

#: lazily-imported serving layer (keeps ``import repro`` light; the
#: server/client modules pull in socketserver/http machinery).
_LAZY_EXPORTS = {
    "ReproServer": ("repro.server", "ReproServer"),
    "MetricsHTTPServer": ("repro.server", "MetricsHTTPServer"),
    "ReproClient": ("repro.client", "ReproClient"),
    "RemoteStatement": ("repro.client", "RemoteStatement"),
    "ShardCoordinator": ("repro.shard", "ShardCoordinator"),
    "QuerySurface": ("repro.surface", "QuerySurface"),
    "parse_dsn": ("repro.surface", "parse_dsn"),
}


def __getattr__(name):
    entry = _LAZY_EXPORTS.get(name)
    if entry is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(entry[0])
    value = getattr(module, entry[1])
    globals()[name] = value
    return value


def __dir__():
    return sorted(list(globals()) + list(_LAZY_EXPORTS))


def connect(
    dsn=None,
    catalog=None,
    plan_cache_capacity: int = 64,
    timeout_ms=None,
    max_concurrency=None,
    global_memory_budget=None,
    governor=None,
    config=None,
    approx=None,
):
    """The library's front door: one :class:`QuerySurface` per topology.

    ``dsn`` selects where queries run; every return value answers the
    same ``query``/``prepare``/``explain``/``submit``/``debug``/
    ``close`` surface (:class:`repro.surface.QuerySurface`)::

        repro.connect()                              # in-process engine
        repro.connect("tcp://10.0.0.5:7687")         # remote server
        repro.connect("shard://local?workers=4")     # 4-process shard fleet

    For backward compatibility ``dsn`` also accepts an
    :class:`EngineConfig` positionally (the pre-DSN signature); the
    ``config=`` keyword is the explicit spelling.

    Local and shard surfaces take the full engine setup: ``config`` is
    an optional :class:`EngineConfig` of optimizer toggles, and
    ``catalog`` lets several engines share registered tables.  ``timeout_ms``
    sets a default deadline for every query; ``max_concurrency`` and
    ``global_memory_budget`` (bytes) seed a
    :class:`~repro.core.governor.Governor` gating admission (pass an
    existing ``governor`` instead to share one).  On a shard surface
    the governor lives at the coordinator -- admission happens once,
    never per worker -- and ``shard://...?partition=DOMAIN`` overrides
    the automatic partition-domain choice.

    The tcp surface connects to an already-running
    :class:`~repro.server.ReproServer`; only ``timeout_ms`` applies
    (it becomes the client's default deadline).  Engine-construction
    options raise :class:`~repro.errors.UnsupportedOnTopology` there:
    the server owns its catalog and governor.

    ``approx`` (or a ``?approx=`` DSN parameter; the keyword wins when
    both appear) sets the surface's default approximate-query policy --
    ``"never"`` / ``"allow"`` / ``"force"`` (see :mod:`repro.approx`).
    On a local surface it becomes ``EngineConfig.approx``; on tcp it
    becomes the client's session default, sent with every query; shard
    surfaces raise :class:`~repro.errors.UnsupportedOnTopology` because
    samples are not co-partitioned across workers.
    """
    from .surface import parse_dsn

    if isinstance(dsn, EngineConfig):
        # pre-DSN signature: connect(config, catalog=...)
        if config is not None:
            raise ReproError("pass config either positionally or as config=, not both")
        dsn, config = None, dsn
    scheme, options = parse_dsn(dsn)

    if scheme == "tcp":
        from .errors import UnsupportedOnTopology

        refused = {
            "catalog": catalog,
            "config": config,
            "max_concurrency": max_concurrency,
            "global_memory_budget": global_memory_budget,
            "governor": governor,
        }
        for option, value in refused.items():
            if value is not None:
                raise UnsupportedOnTopology(
                    f"{option}= does not apply to a tcp surface: the remote "
                    f"server owns its catalog, config, and governor",
                    option=option,
                    topology="tcp",
                )
        from .client import ReproClient

        client = ReproClient(
            options["host"], options["port"], default_timeout_ms=timeout_ms
        )
        policy = approx if approx is not None else options.get("approx")
        if policy is not None:
            from .approx import normalize_policy

            client.default_approx = normalize_policy(policy, default=None)
        return client

    policy = approx if approx is not None else options.pop("approx", None)
    if policy is not None:
        if scheme == "shard":
            from .errors import UnsupportedOnTopology

            raise UnsupportedOnTopology(
                "approx= does not apply to a shard surface: catalog "
                "samples are not co-partitioned across workers",
                option="approx",
                topology="shard",
            )
        from dataclasses import replace

        from .approx import normalize_policy

        base = config if config is not None else EngineConfig()
        config = replace(base, approx=normalize_policy(policy, default=base.approx))
    if governor is None and (
        max_concurrency is not None or global_memory_budget is not None
    ):
        governor = Governor(
            max_concurrency=max_concurrency,
            global_memory_budget_bytes=global_memory_budget,
        )
    engine = LevelHeadedEngine(
        catalog=catalog,
        config=config,
        plan_cache_capacity=plan_cache_capacity,
        governor=governor,
        default_timeout_ms=timeout_ms,
    )
    if scheme == "local":
        return engine
    from .shard import ShardCoordinator

    return ShardCoordinator(
        engine,
        workers=int(options.get("workers", 2)),
        partition=options.get("partition"),
        start_method=options.get("start_method"),
    )


__all__ = [
    "connect",
    "LevelHeadedEngine",
    "PreparedStatement",
    "PlanCache",
    "ResultTable",
    "EngineConfig",
    "Governor",
    "CancelToken",
    "QueryHandle",
    "retry_admission",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "Catalog",
    "Table",
    "Schema",
    "Attribute",
    "AttrType",
    "Kind",
    "key",
    "annotation",
    "ReproError",
    "ParseError",
    "BindError",
    "SchemaError",
    "UnsupportedQueryError",
    "PlanningError",
    "ExecutionError",
    "OutOfMemoryBudgetError",
    "QueryKilledError",
    "QueryTimeoutError",
    "QueryCancelledError",
    "AdmissionError",
    "RetryableAdmissionError",
    "UnsupportedOnTopology",
    "ShardCoordinator",
    "QuerySurface",
    "parse_dsn",
    "ReproServer",
    "MetricsHTTPServer",
    "ReproClient",
    "RemoteStatement",
    "__version__",
]
