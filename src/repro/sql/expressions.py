"""Vectorized expression evaluation over numpy columns.

Both engines (the WCOJ engine and the pairwise baseline) evaluate
scalar expressions through this module: filters become boolean masks,
annotation expressions become value arrays, and output expressions map
aggregate slots to result columns.  Aggregate calls are *not* handled
here -- the planner replaces them with slot references first.
"""

from __future__ import annotations

import re
from typing import Callable, Mapping, Optional, Union

import numpy as np

from ..errors import UnsupportedQueryError
from .ast import (
    AggCall,
    Between,
    BinOp,
    BoolOp,
    CaseExpr,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    InList,
    Like,
    Literal,
    NotOp,
    Parameter,
    UnaryOp,
)

Value = Union[np.ndarray, float, int, str, bool]

#: 1970-01-01 as a proleptic-Gregorian ordinal; used to convert stored
#: date ordinals to numpy datetime64 for EXTRACT.
_EPOCH_ORDINAL = 719163


def evaluate(
    expr: Expr,
    resolve: Callable[[ColumnRef], Value],
    params: Optional[Mapping[int, Literal]] = None,
) -> Value:
    """Evaluate ``expr``; column references are supplied by ``resolve``.

    ``params`` maps a :class:`Parameter`'s index to its bound literal
    (a plan skeleton's selections read their constants from it).
    """
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return resolve(expr)
    if isinstance(expr, UnaryOp):
        return -evaluate(expr.operand, resolve, params)
    if isinstance(expr, BinOp):
        left = evaluate(expr.left, resolve, params)
        right = evaluate(expr.right, resolve, params)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return np.true_divide(left, right)
        raise UnsupportedQueryError(f"unknown operator {expr.op}")
    if isinstance(expr, Comparison):
        left = evaluate(expr.left, resolve, params)
        right = evaluate(expr.right, resolve, params)
        return _compare(expr.op, left, right)
    if isinstance(expr, Between):
        value = evaluate(expr.expr, resolve, params)
        low = evaluate(expr.low, resolve, params)
        high = evaluate(expr.high, resolve, params)
        mask = (value >= low) & (value <= high)
        return ~mask if expr.negated else mask
    if isinstance(expr, InList):
        value = evaluate(expr.expr, resolve, params)
        mask = None
        for literal in expr.values:
            hit = _compare("=", value, literal.value)
            mask = hit if mask is None else (mask | hit)
        if mask is None:
            mask = np.zeros(np.shape(value), dtype=bool) if isinstance(value, np.ndarray) else False
        return ~mask if expr.negated else mask
    if isinstance(expr, Like):
        value = evaluate(expr.expr, resolve, params)
        mask = like_mask(value, expr.pattern)
        return ~mask if expr.negated else mask
    if isinstance(expr, BoolOp):
        parts = [evaluate(op, resolve, params) for op in expr.operands]
        out = parts[0]
        for part in parts[1:]:
            out = (out & part) if expr.op == "and" else (out | part)
        return out
    if isinstance(expr, NotOp):
        result = evaluate(expr.operand, resolve, params)
        return ~result if isinstance(result, np.ndarray) else (not result)
    if isinstance(expr, CaseExpr):
        return _evaluate_case(expr, resolve, params)
    if isinstance(expr, FuncCall):
        return _evaluate_func(expr, resolve, params)
    if isinstance(expr, AggCall):
        raise UnsupportedQueryError(
            "aggregate encountered during scalar evaluation (planner bug)"
        )
    if isinstance(expr, Parameter):
        if params is None or expr.index not in params:
            raise UnsupportedQueryError(
                f"parameter {expr} (slot {expr.index}) has no bound value -- "
                "run the statement with params: engine.prepare(sql)"
                ".execute(params) or engine.query(sql, params=...)"
            )
        return params[expr.index].value
    raise UnsupportedQueryError(f"cannot evaluate {type(expr).__name__}")


def _compare(op: str, left: Value, right: Value) -> Value:
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise UnsupportedQueryError(f"unknown comparison {op}")


def _evaluate_case(expr: CaseExpr, resolve, params) -> Value:
    conditions = [evaluate(cond, resolve, params) for cond, _ in expr.whens]
    results = [evaluate(result, resolve, params) for _, result in expr.whens]
    default = 0 if expr.else_ is None else evaluate(expr.else_, resolve, params)
    arrays = [v for v in conditions + results + [default] if isinstance(v, np.ndarray)]
    if not arrays:
        for cond, result in zip(conditions, results):
            if cond:
                return result
        return default
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    conditions = [np.broadcast_to(np.asarray(c, dtype=bool), shape) for c in conditions]
    results = [np.broadcast_to(np.asarray(r, dtype=np.float64), shape) for r in results]
    default = np.broadcast_to(np.asarray(default, dtype=np.float64), shape)
    return np.select(conditions, results, default)


def _evaluate_func(expr: FuncCall, resolve, params) -> Value:
    if expr.name in ("extract_year", "extract_month", "extract_day"):
        value = evaluate(expr.args[0], resolve, params)
        return extract_date_part(value, expr.name.split("_", 1)[1])
    if expr.name == "abs":
        return np.abs(evaluate(expr.args[0], resolve, params))
    raise UnsupportedQueryError(f"unknown function '{expr.name}'")


def extract_date_part(ordinals: Value, part: str) -> Value:
    """EXTRACT(YEAR/MONTH/DAY FROM date) over stored ordinals."""
    scalar = not isinstance(ordinals, np.ndarray)
    arr = np.asarray(ordinals, dtype=np.int64)
    days = (arr - _EPOCH_ORDINAL).astype("datetime64[D]")
    if part == "year":
        out = days.astype("datetime64[Y]").astype(np.int64) + 1970
    elif part == "month":
        out = days.astype("datetime64[M]").astype(np.int64) % 12 + 1
    else:  # day of month
        month_start = days.astype("datetime64[M]").astype("datetime64[D]")
        out = (days - month_start).astype(np.int64) + 1
    return int(out) if scalar else out


def like_mask(values: Value, pattern: str) -> Value:
    """SQL LIKE over a string array/scalar (``%`` and ``_`` wildcards).

    Common shapes (contains / prefix / suffix / exact) use vectorized
    ``numpy.char`` operations; everything else falls back to a compiled
    regular expression.
    """
    scalar = not isinstance(values, np.ndarray)
    arr = np.asarray(values, dtype=np.str_)
    body = pattern.strip("%")
    simple = "_" not in pattern and "%" not in body
    if simple and pattern.startswith("%") and pattern.endswith("%") and body:
        mask = np.char.find(arr, body) >= 0
    elif simple and pattern.endswith("%"):
        mask = np.char.startswith(arr, body)
    elif simple and pattern.startswith("%"):
        mask = np.char.endswith(arr, body)
    elif simple:
        mask = arr == body
    else:
        regex = re.compile(_like_to_regex(pattern))
        mask = np.array([bool(regex.fullmatch(v)) for v in arr.ravel()]).reshape(arr.shape)
    return bool(mask) if scalar else mask


def _like_to_regex(pattern: str) -> str:
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return "".join(out)
