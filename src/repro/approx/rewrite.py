"""The approximate-query rewrite: base tables -> samples, scaled aggregates.

Operates on the parsed :class:`~repro.sql.ast.SelectStmt`, *before*
binding, so the whole downstream pipeline (binder, translator, GHD
planner, generic-join executor, BLAS routing) is reused unchanged -- the
rewritten statement is just another query over catalog tables:

1. every ``FROM`` table with a usable catalog sample is swapped for the
   sample table (the alias is kept, so column references resolve
   untouched);
2. every ``SUM``/``COUNT`` call in the output, HAVING, and ORDER BY
   expressions is multiplied by the inverse sampling fraction -- the
   semiring scale-up.  ``AVG`` stays untouched (the translator already
   splits it into a SUM/COUNT pair whose scale factors cancel) and
   ``MIN``/``MAX`` pass through unscaled, flagged non-scalable in the
   result metadata;
3. companion aggregates (``sum(e*e)``, ``count(*)``, and for AVG the
   raw ``sum(e)``) are appended as hidden output columns so
   :mod:`~repro.approx.estimate` can turn each group's sample moments
   into a CLT confidence interval, then strip them from the result.

When several samples cover one base, the rewrite prefers a stratified
sample whose strata are a subset of the query's group-by columns for
that table (it preserves every group), then the smallest fraction (the
cheapest usable sample).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Tuple

from ..errors import UnsupportedQueryError
from ..sql import ast
from ..sql.ast import (
    AggCall,
    Between,
    BinOp,
    BoolOp,
    CaseExpr,
    ColumnRef,
    Comparison,
    FuncCall,
    InList,
    Like,
    Literal,
    NotOp,
    OrderKey,
    SelectItem,
    SelectStmt,
    TableRef,
    UnaryOp,
    contains_aggregate,
)

#: per-query / config policy values.
APPROX_POLICIES = ("never", "allow", "force")

#: hidden companion-column prefix (stripped before results reach callers).
COMPANION_PREFIX = "__approx_"


def normalize_policy(value, default: str = "never") -> str:
    """Map a user-facing ``approx=`` value onto a policy string.

    Accepts the policy strings themselves, booleans (``True`` means
    "approximate now" -> ``force``; ``False`` -> ``never``), the CLI
    spellings ``on``/``off``, and ``None`` (the config default).
    """
    if value is None:
        return default
    if value is True:
        return "force"
    if value is False:
        return "never"
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered == "on":
            return "allow"
        if lowered == "off":
            return "never"
        if lowered in APPROX_POLICIES:
            return lowered
    raise UnsupportedQueryError(
        f"approx={value!r} is not one of {APPROX_POLICIES} "
        f"(or True/False/'on'/'off')"
    )


@dataclass(frozen=True)
class SampleUse:
    """One base-table-for-sample swap performed by the rewrite."""

    base: str
    sample: str
    fraction: float
    kind: str
    strata: Tuple[str, ...]
    seed: int

    def as_dict(self) -> Dict:
        return {
            "base": self.base,
            "sample": self.sample,
            "fraction": self.fraction,
            "kind": self.kind,
            "strata": list(self.strata),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ColumnEstimate:
    """How one output column relates to the sampling design."""

    name: str
    #: sum | count | avg | minmax | composite
    kind: str
    #: whether the column's value was multiplied by the scale factor.
    scaled: bool
    #: whether a CLT interval can be attached (min/max cannot be
    #: scaled up from a sample at all; composites are reported without
    #: an interval).
    scalable: bool
    #: companion column names feeding the interval: (m2, n, raw_sum),
    #: any of which may be None.
    m2: Optional[str] = None
    n: Optional[str] = None
    raw_sum: Optional[str] = None


@dataclass(frozen=True)
class ApproxSpec:
    """Everything execution needs to finish an approximate query."""

    samples: Tuple[SampleUse, ...]
    #: product of 1/fraction over the swapped tables.
    scale: float
    columns: Tuple[ColumnEstimate, ...]
    companions: Tuple[str, ...]
    confidence: float = 0.95

    @property
    def fraction(self) -> float:
        return 1.0 / self.scale if self.scale else 1.0

    def as_dict(self) -> Dict:
        return {
            "samples": [use.as_dict() for use in self.samples],
            "scale": self.scale,
            "fraction": self.fraction,
            "confidence": self.confidence,
            "columns": {
                est.name: {"kind": est.kind, "scaled": est.scaled,
                           "scalable": est.scalable}
                for est in self.columns
            },
        }


def _scale_aggregates(expr, scale: float):
    """Multiply every SUM/COUNT call in ``expr`` by ``scale`` (rebuild)."""
    if isinstance(expr, AggCall):
        if expr.func in ("sum", "count"):
            return BinOp("*", expr, Literal(scale))
        return expr  # avg's pair cancels; min/max are non-scalable
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _scale_aggregates(expr.left, scale),
                     _scale_aggregates(expr.right, scale))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _scale_aggregates(expr.operand, scale))
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, tuple(
            _scale_aggregates(a, scale) for a in expr.args))
    if isinstance(expr, CaseExpr):
        return CaseExpr(
            tuple((_scale_aggregates(c, scale), _scale_aggregates(r, scale))
                  for c, r in expr.whens),
            None if expr.else_ is None else _scale_aggregates(expr.else_, scale),
        )
    if isinstance(expr, Comparison):
        return Comparison(expr.op, _scale_aggregates(expr.left, scale),
                          _scale_aggregates(expr.right, scale))
    if isinstance(expr, Between):
        return Between(_scale_aggregates(expr.expr, scale),
                       _scale_aggregates(expr.low, scale),
                       _scale_aggregates(expr.high, scale), expr.negated)
    if isinstance(expr, BoolOp):
        return BoolOp(expr.op, tuple(
            _scale_aggregates(o, scale) for o in expr.operands))
    if isinstance(expr, NotOp):
        return NotOp(_scale_aggregates(expr.operand, scale))
    # ColumnRef / Literal / Parameter / InList / Like: no aggregates inside
    return expr


def _pick_sample(catalog, ref: TableRef, group_columns: Dict[str, set]):
    """The preferred usable sample for one table reference (or None)."""
    usable = catalog.samples_of(ref.table)
    if not usable:
        return None
    grouped = group_columns.get(ref.alias, set())

    def rank(meta):
        covers_groups = (
            meta.kind == "stratified" and set(meta.strata) <= grouped and meta.strata
        )
        return (0 if covers_groups else 1, meta.fraction, meta.name)

    return min(usable, key=rank)


def has_usable_sample(stmt: SelectStmt, catalog) -> bool:
    """Whether any touched table has a usable sample (degrade pre-check)."""
    return any(catalog.samples_of(ref.table) for ref in stmt.tables)


def maybe_rewrite(
    stmt: SelectStmt, catalog
) -> Tuple[SelectStmt, Optional[ApproxSpec]]:
    """Rewrite ``stmt`` onto samples when coverage exists.

    Returns ``(stmt, None)`` untouched when no table has a usable
    sample or the statement has no aggregates to estimate (scaling a
    plain row listing has no meaning).  Otherwise returns a new
    statement over the sample tables with scaled aggregates plus the
    companion columns, and the :class:`ApproxSpec` describing them.
    """
    if not any(contains_aggregate(item.expr) for item in stmt.items):
        return stmt, None

    group_columns: Dict[str, set] = {}
    for expr in stmt.group_by:
        for col in ast.collect_columns(expr):
            if col.qualifier is not None:
                group_columns.setdefault(col.qualifier, set()).add(col.name)

    uses: List[SampleUse] = []
    tables: List[TableRef] = []
    for ref in stmt.tables:
        meta = _pick_sample(catalog, ref, group_columns)
        if meta is None:
            tables.append(ref)
            continue
        uses.append(SampleUse(
            base=ref.table, sample=meta.name, fraction=meta.fraction,
            kind=meta.kind, strata=tuple(meta.strata), seed=meta.seed,
        ))
        tables.append(TableRef(meta.name, ref.alias))
    if not uses:
        return stmt, None

    scale = 1.0
    for use in uses:
        scale /= use.fraction

    items: List[SelectItem] = []
    companions: List[SelectItem] = []
    estimates: List[ColumnEstimate] = []
    companion_names: List[str] = []
    shared_n: Optional[str] = None

    def add_companion(expr, suffix: str) -> str:
        name = f"{COMPANION_PREFIX}{suffix}"
        companions.append(SelectItem(expr, alias=name))
        companion_names.append(name)
        return name

    def shared_count() -> str:
        nonlocal shared_n
        if shared_n is None:
            shared_n = add_companion(AggCall("count", None), "n")
        return shared_n

    for index, item in enumerate(stmt.items):
        expr = item.expr
        if not contains_aggregate(expr):
            items.append(item)
            continue
        out = item.output_name
        if isinstance(expr, AggCall):
            if expr.func == "sum":
                m2 = add_companion(
                    AggCall("sum", BinOp("*", expr.arg, expr.arg)), f"m2_{index}"
                )
                estimates.append(ColumnEstimate(out, "sum", True, True, m2=m2))
            elif expr.func == "count":
                estimates.append(ColumnEstimate(out, "count", True, True))
            elif expr.func == "avg":
                m2 = add_companion(
                    AggCall("sum", BinOp("*", expr.arg, expr.arg)), f"m2_{index}"
                )
                raw = add_companion(AggCall("sum", expr.arg), f"s_{index}")
                estimates.append(ColumnEstimate(
                    out, "avg", False, True, m2=m2, n=shared_count(), raw_sum=raw
                ))
            else:  # min / max: pass through unscaled, no interval
                estimates.append(ColumnEstimate(out, "minmax", False, False))
        else:
            # a composite expression over aggregates: its SUM/COUNT
            # parts are scaled (so the value is a consistent estimate),
            # but no closed-form interval is attached
            estimates.append(ColumnEstimate(out, "composite", True, False))
        items.append(SelectItem(_scale_aggregates(expr, scale), item.alias))

    rewritten = SelectStmt(
        items=items + companions,
        tables=tables,
        where=list(stmt.where),
        group_by=list(stmt.group_by),
        having=(
            None if stmt.having is None else _scale_aggregates(stmt.having, scale)
        ),
        order_by=[
            OrderKey(_scale_aggregates(key.expr, scale), key.descending)
            for key in stmt.order_by
        ],
        limit=stmt.limit,
        parameters=list(stmt.parameters),
    )
    spec = ApproxSpec(
        samples=tuple(uses),
        scale=scale,
        columns=tuple(estimates),
        companions=tuple(companion_names),
    )
    return rewritten, spec
