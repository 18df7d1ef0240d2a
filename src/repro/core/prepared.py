"""Prepared statements: compile once, execute many times.

``engine.prepare(sql)`` front-loads the compile pipeline: the SQL is
parsed and bound immediately (catching syntax and name errors at
prepare time), parameter placeholders become typed slots, and -- for
statements without parameters -- the physical plan is built eagerly and
captured together with the catalog key-domain versions it encodes.

``execute(params)`` then substitutes values into the selection
constants and runs the plan.  Plans are shared with the engine's
:class:`~repro.core.plan_cache.PlanCache` (same keys), so a prepared
statement and an ad-hoc ``engine.query()`` of the same SQL reuse each
other's compilations.  When a catalog registration bumps a domain
version, the captured plan is invalidated and the next execution
re-validates and recompiles automatically against the re-coded
dictionaries -- counted in :attr:`recompiles`.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional, Tuple

from ..approx import normalize_policy
from ..sql.ast import SelectStmt
from ..sql.binder import bind
from ..sql.params import (
    ParamValues,
    bind_param_values,
    infer_param_slots,
    normalize_sql,
    param_cache_token,
    substitute_parameters,
)
from ..sql.parser import parse
from ..xcution.plan import EngineConfig, PhysicalPlan
from .governor import CancelToken
from .plan_cache import HIT


class PreparedStatement:
    """One compiled statement bound to an engine.

    Create through :meth:`LevelHeadedEngine.prepare`, not directly.
    """

    def __init__(self, engine, sql: str, config: Optional[EngineConfig] = None):
        self._engine = engine
        self.sql = sql
        self.normalized_sql = normalize_sql(sql)
        self.config = config if config is not None else engine.config
        self._stmt = parse(sql)
        bound = bind(self._stmt, engine.catalog)
        #: typed parameter slots in statement order (empty when the SQL
        #: has no placeholders).
        self.param_slots = infer_param_slots(bound)
        #: total ``execute`` calls.
        self.executions = 0
        #: compiles beyond the first for a given parameter set --
        #: eviction refills plus catalog-version invalidations.
        self.recompiles = 0
        self._seen_keys = set()
        self._last_plan: Optional[PhysicalPlan] = None
        if not self.param_slots:
            # No placeholders: capture the compiled plan (and the domain
            # versions it was built against) right now.
            self._plan_for({})

    # -- compilation ---------------------------------------------------------

    def _cache_key(self, literals, cfg: Optional[EngineConfig] = None) -> Tuple:
        """The engine's plan-cache key for these literals (same keying)."""
        return self._engine._plan_key(
            self.sql,
            cfg or self.config,
            param_cache_token(literals),
            self.normalized_sql,
        )

    def _statement_for(self, literals) -> SelectStmt:
        """The parsed statement with ``literals`` substituted in."""
        if not self._stmt.parameters:
            return self._stmt
        return substitute_parameters(self._stmt, literals)

    def _note_plan(self, plan: PhysicalPlan, outcome: str, key: Tuple) -> None:
        if outcome != HIT and key in self._seen_keys:
            self.recompiles += 1
        self._seen_keys.add(key)
        self._last_plan = plan

    def _plan_for(self, literals) -> Tuple[PhysicalPlan, str, Tuple]:
        found = self._engine._cached_plan(
            self.sql,
            self.config,
            key=self._cache_key(literals),
            statement=functools.partial(self._statement_for, literals),
        )
        self._note_plan(*found)
        return found

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

        This statement is the lifecycle's plan source (cache key,
        literal-substituted statement, recompile bookkeeping); ``runner``
        is how the plan runs -- None for the engine's local path, the
        shard coordinator passes its dispatch.
        """
        literals = bind_param_values(params, self.param_slots)
        self.executions += 1
        return self._engine._run_query(
            self.sql,
            cfg or self.config,
            key_of=functools.partial(self._cache_key, literals),
            statement=functools.partial(self._statement_for, literals),
            on_plan=self._note_plan,
            runner=runner,
            **opts,
        )

    __call__ = execute

    def explain(
        self,
        params: ParamValues = None,
        analyze: bool = False,
        format: str = "text",
    ):
        """Describe (and with ``analyze=True`` run) the statement's plan."""
        literals = bind_param_values(params, self.param_slots)
        plan, outcome, _ = self._plan_for(literals)
        return self._engine._explain_plan(plan, outcome, analyze=analyze, format=format)

    # -- introspection -------------------------------------------------------

    @property
    def plan(self) -> Optional[PhysicalPlan]:
        """The most recently compiled plan (None before first param bind)."""
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
