"""Parameters: typed slots, value binding, and literal lifting.

A parsed statement may contain :class:`~repro.sql.ast.Parameter`
placeholders (``?`` positional or ``:name`` named).  This module turns
them into *typed parameter slots* at bind time -- the expected type is
inferred from the column each placeholder compares against -- and
coerces caller-supplied values into typed
:class:`~repro.sql.ast.Literal` constants.  :func:`lift` turns a
statement's selection constants (and its placeholders) into parameters
numbered by appearance: the literal-free *shape* a plan skeleton is
compiled from once (:class:`~repro.xcution.plan.PlanSkeleton`).
:func:`parse_lifted` memoizes ``parse`` plus ``lift`` on the exact
text, so a repeated text is never lexed or parsed again.
"""

from __future__ import annotations

import datetime
import functools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import BindError, UnsupportedQueryError
from ..storage.schema import AttrType, parse_date
from .ast import (
    Between,
    BoolOp,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
    NotOp,
    Parameter,
    SelectStmt,
    collect_columns,
    collect_parameters,
    map_tree,
    walk,
)
from .parser import parse

#: recently parsed-and-lifted texts kept (:func:`parse_lifted`)
LIFT_CACHE_SIZE = 64


@dataclass(frozen=True)
class ParamSlot:
    """One typed parameter slot of a prepared statement."""

    index: int
    name: Optional[str]  # None for positional slots
    type_hint: str  # number | string | date

    @property
    def display(self) -> str:
        return f":{self.name}" if self.name is not None else f"?{self.index + 1}"


ParamValues = Union[Sequence, Mapping[str, object], None]


# ---------------------------------------------------------------------------
# slot typing (bind time)
# ---------------------------------------------------------------------------

_TYPE_OF_ATTR = {
    AttrType.STRING: "string",
    AttrType.DATE: "date",
}


def infer_param_slots(bound) -> Tuple[ParamSlot, ...]:
    """Type every placeholder of a bound query from its comparison partner.

    Placeholders are selection constants: they may appear only inside
    single-table WHERE predicates (and join-key positions make no sense
    for them).  Each slot's expected type comes from the column on the
    other side of its comparison; placeholders in pure arithmetic
    contexts default to ``number``.
    """
    slots: Dict[int, ParamSlot] = {}
    for predicates in bound.filters.values():
        for predicate in predicates:
            _type_predicate_params(predicate, bound, slots)
    _reject_params_outside_filters(bound, slots)
    return tuple(slots[i] for i in sorted(slots))


def _column_type(bound, ref: ColumnRef) -> str:
    attribute = bound.tables[ref.qualifier].schema.attribute(ref.name)
    return _TYPE_OF_ATTR.get(attribute.type, "number")


def _partner_type(bound, exprs: Sequence[Expr]) -> str:
    for expr in exprs:
        columns = collect_columns(expr)
        if columns:
            return _column_type(bound, columns[0])
    return "number"


def _type_predicate_params(expr: Expr, bound, slots: Dict[int, ParamSlot]) -> None:
    if isinstance(expr, Comparison):
        _assign(slots, expr.left, _partner_type(bound, [expr.right]))
        _assign(slots, expr.right, _partner_type(bound, [expr.left]))
        return
    if isinstance(expr, Between):
        bound_type = _partner_type(bound, [expr.expr])
        _assign(slots, expr.low, bound_type)
        _assign(slots, expr.high, bound_type)
        _assign(slots, expr.expr, _partner_type(bound, [expr.low, expr.high]))
        return
    if isinstance(expr, BoolOp):
        for operand in expr.operands:
            _type_predicate_params(operand, bound, slots)
        return
    if isinstance(expr, NotOp):
        _type_predicate_params(expr.operand, bound, slots)
        return
    # CASE / standalone function predicate: parameters inside default
    # to numeric slots.
    _assign(slots, expr, "number")


def _assign(slots: Dict[int, ParamSlot], expr: Expr, type_hint: str) -> None:
    """Type every still-untyped parameter inside ``expr`` as ``type_hint``.

    The partner type propagates through arithmetic: in
    ``o_orderdate < ? + 5`` the placeholder compares against a date
    column and gets the ``date`` slot type.
    """
    for node in walk(expr):
        if isinstance(node, Parameter) and node.index not in slots:
            slots[node.index] = ParamSlot(node.index, node.name, type_hint)


def _reject_params_outside_filters(bound, slots: Dict[int, ParamSlot]) -> None:
    """Placeholders are only supported as WHERE selection constants."""
    clauses: List[Tuple[str, Optional[Expr]]] = [
        ("HAVING", bound.having),
    ]
    clauses.extend(("SELECT", item.expr) for item in bound.select_items)
    clauses.extend(("GROUP BY", expr) for expr in bound.group_by)
    clauses.extend(("ORDER BY", key.expr) for key in bound.order_by)
    for clause, expr in clauses:
        if expr is None:
            continue
        if collect_parameters(expr):
            raise UnsupportedQueryError(
                f"parameter placeholders are only supported in WHERE "
                f"predicates, not in {clause}"
            )
    declared = {p.index for p in bound.stmt.parameters}
    if declared - set(slots):
        missing = sorted(declared - set(slots))
        raise UnsupportedQueryError(
            f"parameter slot(s) {missing} appear outside WHERE predicates "
            "(only selection constants may be parameterized)"
        )


# ---------------------------------------------------------------------------
# value binding
# ---------------------------------------------------------------------------


def bind_param_values(
    params: ParamValues, slots: Sequence[ParamSlot]
) -> Dict[int, Literal]:
    """Coerce caller-supplied values into typed literals, one per slot."""
    if not slots:
        if params:
            raise BindError("statement takes no parameters")
        return {}
    named = any(slot.name is not None for slot in slots)
    if params is None:
        raise BindError(
            f"statement has {len(slots)} parameter(s) but none were supplied"
        )
    out: Dict[int, Literal] = {}
    if named:
        if not isinstance(params, Mapping):
            raise BindError("named parameters require a mapping of values")
        unknown = set(params) - {slot.name for slot in slots}
        if unknown:
            raise BindError(f"unknown parameter name(s): {sorted(unknown)}")
        for slot in slots:
            if slot.name not in params:
                raise BindError(f"missing value for parameter :{slot.name}")
            out[slot.index] = _coerce(params[slot.name], slot)
        return out
    if isinstance(params, Mapping):
        raise BindError("positional parameters require a sequence of values")
    values = list(params)
    if len(values) != len(slots):
        raise BindError(
            f"statement has {len(slots)} parameter(s), got {len(values)} value(s)"
        )
    for slot, value in zip(slots, values):
        out[slot.index] = _coerce(value, slot)
    return out


def _coerce(value, slot: ParamSlot) -> Literal:
    if slot.type_hint == "string":
        if not isinstance(value, str):
            raise BindError(
                f"parameter {slot.display} expects a string, got {type(value).__name__}"
            )
        return Literal(value, "string")
    if slot.type_hint == "date":
        if isinstance(value, datetime.date):
            return Literal(value.toordinal(), "date")
        if isinstance(value, str):
            try:
                return Literal(parse_date(value), "date")
            except ValueError as exc:
                raise BindError(
                    f"parameter {slot.display} expects a 'YYYY-MM-DD' date: {value!r}"
                ) from exc
        if isinstance(value, (int,)) and not isinstance(value, bool):
            return Literal(int(value), "date")  # a pre-computed ordinal
        raise BindError(
            f"parameter {slot.display} expects a date, got {type(value).__name__}"
        )
    # number
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BindError(
            f"parameter {slot.display} expects a number, got {type(value).__name__}"
        )
    return Literal(value, "number")


# ---------------------------------------------------------------------------
# lifting: a statement's literal-free shape
# ---------------------------------------------------------------------------

#: literal types a selection constant may have (intervals only occur
#: inside date arithmetic, which stays in the shape)
_LIFTABLE_TYPES = ("number", "string", "date")


@dataclass(frozen=True)
class LiftedStatement:
    """A statement with its selection constants lifted into parameters.

    ``stmt`` holds a fresh positional :class:`Parameter` (numbered in
    order of appearance) wherever a lifted literal or a caller
    placeholder stood; ``sources[i]`` is what stood at parameter ``i``:
    the lifted :class:`Literal` or the caller's :class:`Parameter`.
    ``shape`` is the canonical form of ``stmt`` -- ad-hoc text and a
    prepared statement of one shape lift to the same ``shape``.
    """

    stmt: SelectStmt
    sources: Tuple[Expr, ...]
    shape: str

    def values(self, literals: Mapping[int, Literal]) -> Dict[int, Literal]:
        """Parameter values, given the caller's bound placeholder literals."""
        return {
            i: literals[source.index] if isinstance(source, Parameter) else source
            for i, source in enumerate(self.sources)
        }


def lift(stmt: SelectStmt) -> LiftedStatement:
    """Lift ``stmt``'s selection constants into parameters.

    Lifted: each literal that is a direct operand of a top-level WHERE
    conjunct ``col op lit`` (either side) or ``col BETWEEN lit AND lit``
    -- numbers, strings and dates.  Every caller placeholder in WHERE is
    renumbered the same way.  Every other literal is part of the shape:
    SELECT/CASE, GROUP BY, HAVING, ORDER BY/LIMIT, IN lists, LIKE
    patterns, date arithmetic, and OR/NOT conjuncts.
    """
    sources: List[Expr] = []

    def param(expr: Expr) -> Parameter:
        sources.append(expr)
        return Parameter(len(sources) - 1)

    def operand(expr: Expr) -> Expr:
        if isinstance(expr, Parameter) or (
            isinstance(expr, Literal) and expr.type_hint in _LIFTABLE_TYPES
        ):
            return param(expr)
        return placeholders(expr)

    def placeholders(expr: Expr) -> Expr:
        return map_tree(expr, lambda e: param(e) if isinstance(e, Parameter) else e)

    where: List[Expr] = []
    for conjunct in stmt.where:
        if isinstance(conjunct, Comparison) and isinstance(conjunct.left, ColumnRef):
            conjunct = Comparison(conjunct.op, conjunct.left, operand(conjunct.right))
        elif isinstance(conjunct, Comparison) and isinstance(conjunct.right, ColumnRef):
            conjunct = Comparison(conjunct.op, operand(conjunct.left), conjunct.right)
        elif isinstance(conjunct, Between) and isinstance(conjunct.expr, ColumnRef):
            conjunct = Between(
                conjunct.expr, operand(conjunct.low), operand(conjunct.high),
                conjunct.negated,
            )
        else:
            conjunct = placeholders(conjunct)
        where.append(conjunct)
    lifted = SelectStmt(
        items=stmt.items,
        tables=stmt.tables,
        where=where,
        group_by=stmt.group_by,
        having=stmt.having,
        order_by=stmt.order_by,
        limit=stmt.limit,
        parameters=[Parameter(i) for i in range(len(sources))],
    )
    # the dataclass reprs are exact (``1`` vs ``1.0``, quoted strings),
    # unlike the SQL-ish ``str`` forms
    shape = repr((
        lifted.items, lifted.tables, where, lifted.group_by, lifted.having,
        lifted.order_by, lifted.limit,
    ))
    return LiftedStatement(lifted, tuple(sources), shape)


@functools.lru_cache(maxsize=LIFT_CACHE_SIZE)
def parse_lifted(sql: str) -> Tuple[SelectStmt, LiftedStatement]:
    """The parsed statement of ``sql`` and its :func:`lift`, memoized.

    Keyed on the exact text: every front door resolves its text to the
    plan-cache key through here, so an exact repeat skips the lexer and
    the parser.  The result is shared by every caller and never
    mutated (like a prepared statement's, which is shared across its
    executions).
    """
    stmt = parse(sql)
    return stmt, lift(stmt)
