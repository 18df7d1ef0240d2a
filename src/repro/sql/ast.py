"""Abstract syntax tree for the supported SQL subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

AGGREGATE_FUNCS = ("sum", "count", "avg", "min", "max")


@dataclass(frozen=True)
class ColumnRef:
    """A (possibly qualified) column reference: ``alias.column``."""

    qualifier: Optional[str]
    name: str

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Literal:
    """A constant: number, string, or date (stored as an ordinal int)."""

    value: object
    type_hint: str = "number"  # number | string | date | interval | null

    def __str__(self) -> str:
        if self.type_hint == "string":
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class Parameter:
    """A parameter: a placeholder (positional ``?`` or named ``:x``), or a
    lifted selection constant.

    ``index`` is the statement-wide parameter slot (0-based).  For
    positional parameters every occurrence gets a fresh slot; every
    occurrence of the same ``:name`` shares one slot.
    :func:`repro.sql.params.lift` renumbers a statement's placeholders
    and lifted literals positionally, in order of appearance.  A plan
    skeleton keeps parameters in its selections; evaluation reads each
    one's bound :class:`Literal` from the values map a bind supplies
    (``repro.sql.expressions.evaluate(..., params=)``).
    """

    index: int
    name: Optional[str] = None

    def __str__(self) -> str:
        return f":{self.name}" if self.name is not None else "?"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp:
    op: str  # -
    operand: "Expr"

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class FuncCall:
    """Scalar function call; ``extract_year(x)`` etc."""

    name: str
    args: Tuple["Expr", ...]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class AggCall:
    """Aggregate function; ``arg`` is None for COUNT(*)."""

    func: str
    arg: Optional["Expr"]

    def __str__(self) -> str:
        inner = "*" if self.arg is None else str(self.arg)
        return f"{self.func}({inner})"


@dataclass(frozen=True)
class CaseExpr:
    whens: Tuple[Tuple["Expr", "Expr"], ...]  # (condition, result)
    else_: Optional["Expr"]

    def __str__(self) -> str:
        parts = " ".join(f"when {c} then {r}" for c, r in self.whens)
        tail = f" else {self.else_}" if self.else_ is not None else ""
        return f"case {parts}{tail} end"


@dataclass(frozen=True)
class Comparison:
    op: str  # = <> < <= > >=
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Between:
    expr: "Expr"
    low: "Expr"
    high: "Expr"
    negated: bool = False

    def __str__(self) -> str:
        neg = "not " if self.negated else ""
        return f"({self.expr} {neg}between {self.low} and {self.high})"


@dataclass(frozen=True)
class InList:
    expr: "Expr"
    values: Tuple[Literal, ...]
    negated: bool = False

    def __str__(self) -> str:
        neg = "not " if self.negated else ""
        inner = ", ".join(map(str, self.values))
        return f"({self.expr} {neg}in ({inner}))"


@dataclass(frozen=True)
class Like:
    expr: "Expr"
    pattern: str
    negated: bool = False

    def __str__(self) -> str:
        neg = "not " if self.negated else ""
        return f"({self.expr} {neg}like '{self.pattern}')"


@dataclass(frozen=True)
class BoolOp:
    op: str  # and | or
    operands: Tuple["Expr", ...]

    def __str__(self) -> str:
        return "(" + f" {self.op} ".join(map(str, self.operands)) + ")"


@dataclass(frozen=True)
class NotOp:
    operand: "Expr"

    def __str__(self) -> str:
        return f"(not {self.operand})"


Expr = Union[
    ColumnRef,
    Literal,
    Parameter,
    BinOp,
    UnaryOp,
    FuncCall,
    AggCall,
    CaseExpr,
    Comparison,
    Between,
    InList,
    Like,
    BoolOp,
    NotOp,
]


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return str(self.expr)


@dataclass(frozen=True)
class TableRef:
    table: str
    alias: str

    def __str__(self) -> str:
        return self.table if self.table == self.alias else f"{self.table} as {self.alias}"


@dataclass(frozen=True)
class OrderKey:
    """One ORDER BY key: an expression (or output alias) + direction."""

    expr: "Expr"
    descending: bool = False

    def __str__(self) -> str:
        return f"{self.expr} {'desc' if self.descending else 'asc'}"


@dataclass
class SelectStmt:
    """A parsed SELECT: items, tables, conjunctive WHERE, GROUP BY,
    plus the post-aggregation clauses HAVING / ORDER BY / LIMIT."""

    items: List[SelectItem]
    tables: List[TableRef]
    where: List[Expr] = field(default_factory=list)
    group_by: List[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[OrderKey] = field(default_factory=list)
    limit: Optional[int] = None
    #: prepared-statement placeholders in slot order (one entry per
    #: distinct slot; positional ``?`` markers each get their own slot).
    parameters: List[Parameter] = field(default_factory=list)


# -- tree walking helpers ----------------------------------------------------


def children(expr: Expr) -> Sequence[Expr]:
    """The direct sub-expressions of ``expr``."""
    if isinstance(expr, BinOp):
        return (expr.left, expr.right)
    if isinstance(expr, UnaryOp):
        return (expr.operand,)
    if isinstance(expr, FuncCall):
        return expr.args
    if isinstance(expr, AggCall):
        return (expr.arg,) if expr.arg is not None else ()
    if isinstance(expr, CaseExpr):
        parts: List[Expr] = []
        for cond, result in expr.whens:
            parts.extend((cond, result))
        if expr.else_ is not None:
            parts.append(expr.else_)
        return tuple(parts)
    if isinstance(expr, Comparison):
        return (expr.left, expr.right)
    if isinstance(expr, Between):
        return (expr.expr, expr.low, expr.high)
    if isinstance(expr, InList):
        return (expr.expr,) + expr.values
    if isinstance(expr, Like):
        return (expr.expr,)
    if isinstance(expr, BoolOp):
        return expr.operands
    if isinstance(expr, NotOp):
        return (expr.operand,)
    return ()


def walk(expr: Expr):
    """Yield ``expr`` and every descendant, pre-order."""
    yield expr
    for child in children(expr):
        yield from walk(child)


def map_tree(expr: Expr, fn) -> Expr:
    """Bottom-up structural map: ``fn`` sees each rebuilt node, leaves
    first and left to right (so leaves are visited in source order)."""
    if isinstance(expr, BinOp):
        expr = BinOp(expr.op, map_tree(expr.left, fn), map_tree(expr.right, fn))
    elif isinstance(expr, UnaryOp):
        expr = UnaryOp(expr.op, map_tree(expr.operand, fn))
    elif isinstance(expr, FuncCall):
        expr = FuncCall(expr.name, tuple(map_tree(a, fn) for a in expr.args))
    elif isinstance(expr, AggCall) and expr.arg is not None:
        expr = AggCall(expr.func, map_tree(expr.arg, fn))
    elif isinstance(expr, CaseExpr):
        whens = tuple((map_tree(c, fn), map_tree(r, fn)) for c, r in expr.whens)
        else_ = None if expr.else_ is None else map_tree(expr.else_, fn)
        expr = CaseExpr(whens, else_)
    elif isinstance(expr, Comparison):
        expr = Comparison(expr.op, map_tree(expr.left, fn), map_tree(expr.right, fn))
    elif isinstance(expr, Between):
        expr = Between(
            map_tree(expr.expr, fn), map_tree(expr.low, fn), map_tree(expr.high, fn), expr.negated
        )
    elif isinstance(expr, InList):
        expr = InList(map_tree(expr.expr, fn), expr.values, expr.negated)
    elif isinstance(expr, Like):
        expr = Like(map_tree(expr.expr, fn), expr.pattern, expr.negated)
    elif isinstance(expr, BoolOp):
        expr = BoolOp(expr.op, tuple(map_tree(o, fn) for o in expr.operands))
    elif isinstance(expr, NotOp):
        expr = NotOp(map_tree(expr.operand, fn))
    return fn(expr)


def collect_columns(expr: Expr) -> List[ColumnRef]:
    """All column references in ``expr``, in traversal order."""
    return [node for node in walk(expr) if isinstance(node, ColumnRef)]


def collect_aggregates(expr: Expr) -> List[AggCall]:
    """All aggregate calls in ``expr``."""
    return [node for node in walk(expr) if isinstance(node, AggCall)]


def collect_parameters(expr: Expr) -> List[Parameter]:
    """All prepared-statement placeholders in ``expr``."""
    return [node for node in walk(expr) if isinstance(node, Parameter)]


def contains_aggregate(expr: Expr) -> bool:
    return any(isinstance(node, AggCall) for node in walk(expr))
