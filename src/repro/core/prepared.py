"""Prepared statements and plan sources: parse once, execute many times.

``engine.prepare(sql)`` front-loads the compile pipeline: the SQL is
parsed and bound immediately (catching syntax and name errors at
prepare time), parameter placeholders become typed slots, and the
statement is lifted to its shape (:func:`~repro.sql.params.lift`):
placeholders and selection constants alike become parameters of one
:class:`~repro.xcution.plan.PlanSkeleton`.  A statement without
placeholders also compiles its plan eagerly.

``execute(params)`` looks the shape's skeleton up in the engine's
:class:`~repro.core.plan_cache.PlanCache` and binds the values to it;
the skeleton's binding memos rebuild only the filtered tries whose own
values changed.  A prepared statement, ``engine.query(sql,
params=...)`` and ad-hoc text of the same shape share that skeleton,
whatever their values.  When a catalog registration bumps a domain
version, the skeleton is invalidated and the next execution recompiles
it against the re-coded dictionaries -- counted in :attr:`recompiles`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..approx import normalize_policy
from ..errors import UnsupportedQueryError
from ..sql.ast import Literal
from ..sql.binder import bind
from ..sql.params import (
    LiftedStatement,
    ParamSlot,
    ParamValues,
    bind_param_values,
    infer_param_slots,
    parse_lifted,
)
from ..xcution.plan import EngineConfig, PhysicalPlan
from .governor import CancelToken


class PlanSource:
    """Where one call's plan comes from.

    :meth:`lifted` resolves the text through the
    :func:`~repro.sql.params.parse_lifted` memo and coerces the values;
    it returns the lifted statement and the values of its parameters.
    :meth:`key` is the plan-cache key: the lifted ``shape``, each
    parameter's type hint, and the config.  A prepared statement passes
    its lifted statement and slots as ``prepared`` (so nothing is
    parsed) and its bookkeeping as ``on_plan(plan, compiled_skeleton)``.
    """

    def __init__(
        self,
        engine,
        sql: str,
        params: ParamValues = None,
        *,
        prepared: Optional[Tuple[LiftedStatement, Sequence[ParamSlot]]] = None,
        on_plan: Optional[Callable[[PhysicalPlan, bool], None]] = None,
    ):
        self.engine = engine
        self.sql = sql
        self.params = params
        self.prepared = prepared
        self.on_plan = on_plan
        self._lifted: Optional[Tuple[LiftedStatement, Dict[int, Literal]]] = None

    def key(self, cfg: EngineConfig) -> Tuple:
        lifted, values = self.lifted()
        hints = tuple(value.type_hint for value in values.values())
        return (lifted.shape, hints) + self.engine._config_key(cfg)

    def lifted(self) -> Tuple[LiftedStatement, Dict[int, Literal]]:
        if self._lifted is None:
            if self.prepared is not None:
                lifted, slots = self.prepared
            else:
                stmt, lifted = parse_lifted(self.sql)
                slots = ()
                if self.params is not None:
                    slots = infer_param_slots(bind(stmt, self.engine.catalog))
                elif stmt.parameters:
                    raise UnsupportedQueryError(
                        "statement has parameter placeholders; pass params= or "
                        "use engine.prepare(sql)"
                    )
            literals = bind_param_values(self.params, slots)
            self._lifted = lifted, lifted.values(literals)
        return self._lifted


class PreparedStatement:
    """One parsed statement bound to an engine.

    Create through :meth:`LevelHeadedEngine.prepare`, not directly.
    """

    def __init__(self, engine, sql: str, config: Optional[EngineConfig] = None):
        self._engine = engine
        self.sql = sql
        self.config = config if config is not None else engine.config
        stmt, lifted = parse_lifted(sql)
        #: typed parameter slots in statement order (empty when the SQL
        #: has no placeholders).
        self.param_slots = infer_param_slots(bind(stmt, engine.catalog))
        #: the statement's shape: placeholders and selection constants
        #: lifted into the parameters of one plan skeleton.
        self.lifted = lifted
        #: total ``execute`` calls.
        self.executions = 0
        #: skeleton compiles for this statement after its first plan --
        #: eviction refills, catalog-version invalidations, and
        #: feedback-corrected rebuilds.
        self.recompiles = 0
        self._last_plan: Optional[PhysicalPlan] = None
        if not self.param_slots:
            # No placeholders: capture the compiled plan (and the domain
            # versions it was built against) right now.
            self._plan_for(None)

    # -- compilation ---------------------------------------------------------

    def _source(self, params: ParamValues) -> PlanSource:
        """This call's plan source; a bad value raises BindError here."""
        source = PlanSource(
            self._engine,
            self.sql,
            params,
            prepared=(self.lifted, self.param_slots),
            on_plan=self._note_plan,
        )
        source.lifted()
        return source

    def _note_plan(self, plan: PhysicalPlan, compiled_skeleton: bool) -> None:
        if compiled_skeleton and self._last_plan is not None:
            self.recompiles += 1
        self._last_plan = plan

    def _plan_for(self, params: ParamValues) -> Tuple[PhysicalPlan, str, Tuple]:
        return self._engine._cached_plan(
            self.sql, self.config, source=self._source(params)
        )

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        params: ParamValues = None,
        collect_stats: bool = False,
        trace: bool = False,
        profile: bool = False,
        timeout_ms: Optional[float] = None,
        cancel_token: Optional[CancelToken] = None,
        partial: bool = False,
        query_id: Optional[str] = None,
        approx=None,
    ):
        """Run the statement with ``params`` bound to its placeholders.

        ``params`` is a sequence for positional (``?``) placeholders or
        a mapping for named (``:name``) ones; omit it for statements
        without placeholders.  Returns a
        :class:`~repro.core.result.ResultTable`; with
        ``collect_stats=True`` its ``.stats`` attribute carries the
        executor counters plus this call's plan-cache outcome, with
        ``trace=True`` its ``.trace`` carries the lifecycle span tree,
        and with ``profile=True`` its ``.profile`` carries the
        per-trie-level kernel profile.  ``timeout_ms`` /
        ``cancel_token`` govern the run exactly like
        :meth:`LevelHeadedEngine.query`, including admission when the
        engine has a governor.

        ``approx`` overrides this statement's configured policy for one
        call: ``"force"``/``True`` runs on samples, ``"never"``/``False``
        pins exact, and ``"allow"`` runs exact but lets the governor
        degrade the run to approximate instead of rejecting it.
        """
        cfg = self.config
        if approx is not None:
            policy = normalize_policy(approx, default=cfg.approx)
            if policy != cfg.approx:
                cfg = dataclasses.replace(cfg, approx=policy)
        return self._run(
            params,
            cfg=cfg,
            collect_stats=collect_stats,
            trace=trace,
            profile=profile,
            timeout_ms=timeout_ms,
            cancel_token=cancel_token,
            partial=partial,
            query_id=query_id,
        )

    def _run(self, params: ParamValues, cfg=None, runner=None, **opts):
        """Bind ``params`` and enter the engine's query lifecycle.

        This statement is the lifecycle's plan source (cache key, shape
        and values, recompile bookkeeping); ``runner`` is how the plan
        runs -- None for the engine's local path, the shard coordinator
        passes its dispatch.
        """
        source = self._source(params)
        self.executions += 1
        return self._engine._run_query(
            self.sql, cfg or self.config, source=source, runner=runner, **opts
        )

    __call__ = execute

    def explain(
        self,
        params: ParamValues = None,
        analyze: bool = False,
        format: str = "text",
    ):
        """Describe (and with ``analyze=True`` run) the statement's plan."""
        plan, outcome, _ = self._plan_for(params)
        return self._engine._explain_plan(plan, outcome, analyze=analyze, format=format)

    # -- introspection -------------------------------------------------------

    @property
    def plan(self) -> Optional[PhysicalPlan]:
        """The most recently used plan (None before the first execution)."""
        return self._last_plan

    @property
    def is_current(self) -> bool:
        """Whether the captured plan is still valid against the catalog."""
        return self._last_plan is not None and self._last_plan.is_current(
            self._engine.catalog
        )

    def __repr__(self) -> str:
        return (
            f"PreparedStatement({self.sql!r}, params={len(self.param_slots)}, "
            f"executions={self.executions}, recompiles={self.recompiles})"
        )
