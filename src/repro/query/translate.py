"""SQL to AJAR hypergraphs: Rules 1-4 of Section IV-A.

A bound query becomes:

* a **hypergraph** whose vertices are the in-query key attributes
  (equivalence classes under equi-joins) and whose edges are the
  relation occurrences -- unused keys never enter the hypergraph,
  which is the *logical* half of attribute elimination (Rule 1);
* an **aggregation ordering** α of every vertex absent from the output
  (Rule 2);
* per-relation **annotation slots** (Rule 3): each aggregate's inner
  expression is decomposed into a sum of products of single-relation
  factors; each factor becomes an annotation on its relation,
  pre-aggregated over duplicate key tuples (the semiring sum), while
  multi-relation expressions are recombined at the output -- which is
  exactly the "same GHD node, output annotation" requirement since
  slot-carrying relations are pinned to the root bag;
* **group annotations** for non-aggregated attributes (Rule 4's
  metadata container M), validated to be functionally determined by
  their relation's in-query keys.

Tuple multiplicities are handled explicitly: a relation whose in-query
keys do not identify its rows (a *dup* relation, e.g. ``lineitem``
keyed by ``(orderkey, suppkey)``) pre-aggregates each sum factor over
duplicates, and contributes a count annotation to terms in which it has
no factor.  This makes SUM/COUNT/AVG over joins exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import UnsupportedQueryError
from ..sql.ast import (
    AggCall,
    BinOp,
    ColumnRef,
    Expr,
    Literal,
    SelectItem,
    UnaryOp,
    collect_columns,
)
from ..sql.binder import BoundQuery
from ..storage.schema import Kind
from .hypergraph import Hyperedge, Hypergraph


@dataclass
class SlotSpec:
    """One annotation slot on one relation occurrence.

    ``expr`` is a per-row expression over the relation's own columns
    (None for pure multiplicity counts); ``combine`` is how duplicate
    key tuples collapse at trie-build time.
    """

    id: str
    alias: str
    expr: Optional[Expr]
    combine: str  # sum | min | max | count


@dataclass
class Term:
    """One product term of a SUM aggregate: coef * prod(slot values).

    Dup relations without a factor in the term multiply in their count
    slots (added by the physical planner).
    """

    coefficient: float
    factors: Dict[str, str]  # alias -> slot id


@dataclass
class AggregateSpec:
    """One aggregate output: SUM-of-terms, COUNT, or MIN/MAX of a slot."""

    id: str
    func: str  # sum | count | min | max
    terms: List[Term] = field(default_factory=list)
    slot: Optional[str] = None  # for min/max


@dataclass
class GroupAnnotation:
    """A non-aggregated output attribute (metadata container M).

    ``determining_vertices`` is the minimal set of the relation's key
    vertices that functionally determine the expression -- the physical
    planner builds the annotation's fetch trie over exactly these keys
    (an annotation reachable from any level, Section III-B).
    """

    id: str
    alias: str
    expr: Expr
    determining_vertices: Tuple[str, ...] = ()


@dataclass
class CompiledQuery:
    """The logical compilation result consumed by the physical planner."""

    bound: BoundQuery
    hypergraph: Hypergraph
    output_vertices: List[str]
    aggregation_order: List[str]
    slots: List[SlotSpec]
    aggregates: List[AggregateSpec]
    group_annotations: List[GroupAnnotation]
    output_columns: List[Tuple[str, Expr]]
    dup_aliases: Set[str]
    required_root: Set[str]
    is_scan: bool = False
    scan_alias: Optional[str] = None
    #: present when the query had no aggregates: the hidden multiplicity
    #: aggregate whose counts expand output rows to bag semantics.
    row_multiplicity_aggregate: Optional[str] = None
    #: post-aggregation clauses, rewritten over aggregate/group refs.
    having: Optional[Expr] = None
    order_keys: List[Tuple[Expr, bool]] = field(default_factory=list)
    limit: Optional[int] = None

    def slots_of(self, alias: str) -> List[SlotSpec]:
        return [s for s in self.slots if s.alias == alias]


def translate(bound: BoundQuery) -> CompiledQuery:
    """Apply Rules 1-4, producing a :class:`CompiledQuery`."""
    if bound.stmt.parameters:
        raise UnsupportedQueryError(
            "statement contains parameter placeholders; prepare it with "
            "engine.prepare(sql) or pass params= to engine.query()"
        )
    hypergraph = _build_hypergraph(bound)

    # Queries with join vertices require every relation to participate.
    if len(bound.tables) > 1:
        for alias in bound.tables:
            if not bound.alias_keys(alias):
                raise UnsupportedQueryError(
                    f"relation '{alias}' shares no join key with the query "
                    "(cross products are not supported)"
                )

    dup_aliases = {
        alias
        for alias, table in bound.tables.items()
        if bound.alias_keys(alias)
        and not table.keys_are_unique(tuple(bound.alias_keys(alias)))
    }
    # Relations with no in-query keys (pure scans) count as dup when
    # they have multiple rows; only single-table scans reach execution.
    for alias, table in bound.tables.items():
        if not bound.alias_keys(alias) and table.num_rows > 1:
            dup_aliases.add(alias)

    state = _TranslateState(bound, dup_aliases)
    select_items = [_rewrite_avg(item) for item in bound.select_items]

    output_vertices: List[str] = []
    for expr in bound.group_by:
        state.classify_group_expr(expr, output_vertices)
    # Plain (non-aggregate) queries: every select item is an implicit
    # group-by; a hidden count restores bag semantics.
    implicit_multiplicity = None
    if not bound.is_aggregate and not bound.group_by:
        for item in select_items:
            state.classify_group_expr(item.expr, output_vertices)
        implicit_multiplicity = state.add_aggregate(AggCall("count", None))

    output_columns = [
        (item.output_name, state.rewrite_output(item.expr)) for item in select_items
    ]

    having_expr = (
        state.rewrite_output(bound.having) if bound.having is not None else None
    )
    order_keys = [
        (state.rewrite_output(key.expr), key.descending) for key in bound.order_by
    ]
    allowed_refs = {name for name, _ in output_columns}
    allowed_refs.update(state.reference_ids())
    clause_exprs = list(e for e, _ in order_keys)
    if having_expr is not None:
        clause_exprs.append(having_expr)
    for expr in clause_exprs:
        for ref in collect_columns(expr):
            if ref.qualifier is not None or ref.name not in allowed_refs:
                raise UnsupportedQueryError(
                    f"HAVING/ORDER BY reference '{ref}' must be an aggregate, "
                    "a GROUP BY expression, or an output alias"
                )

    aggregation_order = [v for v in hypergraph.vertices if v not in output_vertices]
    required_root = set(output_vertices)
    slot_aliases = {slot.alias for slot in state.slots}
    for alias in slot_aliases:
        required_root.update(bound.edge_vertices(alias))
    for group_ann in state.group_annotations:
        determined_by = state.determining_vertices(group_ann)
        group_ann.determining_vertices = tuple(sorted(determined_by))
        required_root.update(determined_by)

    is_scan = not hypergraph.vertices
    scan_alias = None
    if is_scan:
        if len(bound.tables) != 1:
            raise UnsupportedQueryError(
                "multi-table query with no join keys (cross product)"
            )
        scan_alias = next(iter(bound.tables))

    return CompiledQuery(
        bound=bound,
        hypergraph=hypergraph,
        output_vertices=output_vertices,
        aggregation_order=aggregation_order,
        slots=state.slots,
        aggregates=state.aggregates,
        group_annotations=state.group_annotations,
        output_columns=output_columns,
        dup_aliases=dup_aliases,
        required_root=required_root,
        is_scan=is_scan,
        scan_alias=scan_alias,
        row_multiplicity_aggregate=implicit_multiplicity,
        having=having_expr,
        order_keys=order_keys,
        limit=bound.limit,
    )


def _build_hypergraph(bound: BoundQuery) -> Hypergraph:
    vertices = [v.name for v in bound.vertices]
    edges = []
    for alias, table in bound.tables.items():
        edge_vertices = bound.edge_vertices(alias)
        fully_dense = _completely_dense(bound, alias)
        edges.append(
            Hyperedge(
                alias=alias,
                relation=table.name,
                vertices=edge_vertices,
                cardinality=table.num_rows,
                has_equality_selection=bound.has_equality_selection.get(alias, False),
                fully_dense=fully_dense,
            )
        )
    return Hypergraph(vertices, edges)


def _completely_dense(bound: BoundQuery, alias: str) -> bool:
    """Completely-dense relation detection (from table statistics) for the
    icost-0 rule and BLAS routing."""
    table = bound.tables[alias]
    in_query = bound.alias_keys(alias)
    if tuple(in_query) != table.schema.key_names:
        return False
    if table.catalog is None or bound.filters.get(alias):
        return False
    expected = 1
    for attr_name in in_query:
        domain = table.schema.attribute(attr_name).domain_name
        expected *= max(1, table.catalog.domain_size(domain))
    return table.num_rows == expected and table.keys_are_unique(tuple(in_query))


def _rewrite_avg(item: SelectItem) -> SelectItem:
    """AVG(x) -> SUM(x) / COUNT(*) before slot assignment."""

    def rewrite(expr: Expr) -> Expr:
        if isinstance(expr, AggCall) and expr.func == "avg":
            return BinOp("/", AggCall("sum", expr.arg), AggCall("count", None))
        return expr

    return SelectItem(_map_tree(item.expr, rewrite), item.alias)


def _map_tree(expr: Expr, fn) -> Expr:
    """Bottom-up structural map over an expression tree."""
    from ..sql.ast import (
        Between,
        BoolOp,
        CaseExpr,
        Comparison,
        FuncCall,
        InList,
        Like,
        NotOp,
    )

    if isinstance(expr, BinOp):
        expr = BinOp(expr.op, _map_tree(expr.left, fn), _map_tree(expr.right, fn))
    elif isinstance(expr, UnaryOp):
        expr = UnaryOp(expr.op, _map_tree(expr.operand, fn))
    elif isinstance(expr, FuncCall):
        expr = FuncCall(expr.name, tuple(_map_tree(a, fn) for a in expr.args))
    elif isinstance(expr, AggCall) and expr.arg is not None:
        expr = AggCall(expr.func, _map_tree(expr.arg, fn))
    elif isinstance(expr, CaseExpr):
        whens = tuple((_map_tree(c, fn), _map_tree(r, fn)) for c, r in expr.whens)
        else_ = None if expr.else_ is None else _map_tree(expr.else_, fn)
        expr = CaseExpr(whens, else_)
    elif isinstance(expr, Comparison):
        expr = Comparison(expr.op, _map_tree(expr.left, fn), _map_tree(expr.right, fn))
    elif isinstance(expr, Between):
        expr = Between(
            _map_tree(expr.expr, fn), _map_tree(expr.low, fn), _map_tree(expr.high, fn), expr.negated
        )
    elif isinstance(expr, InList):
        expr = InList(_map_tree(expr.expr, fn), expr.values, expr.negated)
    elif isinstance(expr, Like):
        expr = Like(_map_tree(expr.expr, fn), expr.pattern, expr.negated)
    elif isinstance(expr, BoolOp):
        expr = BoolOp(expr.op, tuple(_map_tree(o, fn) for o in expr.operands))
    elif isinstance(expr, NotOp):
        expr = NotOp(_map_tree(expr.operand, fn))
    return fn(expr)


class _TranslateState:
    """Accumulates slots, aggregates, and group annotations."""

    def __init__(self, bound: BoundQuery, dup_aliases: Set[str]):
        self.bound = bound
        self.dup_aliases = dup_aliases
        self.slots: List[SlotSpec] = []
        self.aggregates: List[AggregateSpec] = []
        self.group_annotations: List[GroupAnnotation] = []
        self._slot_index: Dict[Tuple[str, str, str], str] = {}
        self._agg_index: Dict[Tuple[str, str], str] = {}
        self._group_index: Dict[str, str] = {}  # str(expr) -> ref id

    def reference_ids(self) -> Set[str]:
        """Every internal reference id a rewritten expression may hold."""
        refs = set(self._group_index.values())
        refs.update(self._agg_index.values())
        return refs

    # -- group-by handling -------------------------------------------------

    def classify_group_expr(self, expr: Expr, output_vertices: List[str]) -> str:
        """Classify one GROUP BY (or plain select) expression.

        Key columns become output vertices; single-relation annotation
        expressions become group annotations.  Returns the reference id
        used in output expressions.
        """
        text = str(expr)
        if text in self._group_index:
            return self._group_index[text]
        if isinstance(expr, ColumnRef):
            attribute = self.bound.tables[expr.qualifier].schema.attribute(expr.name)
            if attribute.kind is Kind.KEY:
                vertex = self.bound.vertex_of[(expr.qualifier, expr.name)]
                if vertex not in output_vertices:
                    output_vertices.append(vertex)
                self._group_index[text] = vertex
                return vertex
        refs = collect_columns(expr)
        aliases = {ref.qualifier for ref in refs}
        if len(aliases) != 1:
            raise UnsupportedQueryError(
                f"GROUP BY expression '{expr}' must reference exactly one table"
            )
        alias = aliases.pop()
        for ref in refs:
            attribute = self.bound.tables[alias].schema.attribute(ref.name)
            if attribute.kind is Kind.KEY:
                raise UnsupportedQueryError(
                    f"GROUP BY expression '{expr}' mixes keys and annotations"
                )
        self._validate_group_dependence(alias, refs, expr)
        ref_id = f"g{len(self.group_annotations)}"
        self.group_annotations.append(GroupAnnotation(ref_id, alias, expr))
        self._group_index[text] = ref_id
        return ref_id

    def _validate_group_dependence(self, alias: str, refs, expr) -> None:
        table = self.bound.tables[alias]
        in_query_keys = tuple(self.bound.alias_keys(alias))
        if not in_query_keys:
            return  # scan path groups at row level
        if table.keys_are_unique(in_query_keys):
            return
        columns = tuple(sorted({ref.name for ref in refs}))
        combined = table.distinct_count(in_query_keys + columns)
        if combined != table.distinct_count(in_query_keys):
            raise UnsupportedQueryError(
                f"GROUP BY expression '{expr}' is not functionally determined by "
                f"{alias}'s join keys {in_query_keys}; include a distinguishing key"
            )

    def determining_vertices(self, group_ann: GroupAnnotation) -> Set[str]:
        """The minimal key vertices the root needs to fetch this annotation."""
        alias = group_ann.alias
        table = self.bound.tables[alias]
        keys = self.bound.alias_keys(alias)
        if not keys:
            return set()
        columns = tuple(sorted({ref.name for ref in collect_columns(group_ann.expr)}))
        import itertools as _it

        # smallest key subset S with distinct(S) == distinct(S + columns),
        # i.e. S functionally determines the annotation columns.
        for size in range(1, len(keys) + 1):
            for subset in _it.combinations(keys, size):
                if table.distinct_count(tuple(subset) + columns) == table.distinct_count(
                    tuple(subset)
                ):
                    return {self.bound.vertex_of[(alias, k)] for k in subset}
        return {self.bound.vertex_of[(alias, k)] for k in keys}

    # -- aggregate handling --------------------------------------------------

    def rewrite_output(self, expr: Expr) -> Expr:
        """Replace aggregates and group expressions with reference ids."""
        text = str(expr)
        if text in self._group_index:
            return ColumnRef(None, self._group_index[text])

        def transform(node: Expr) -> Expr:
            if isinstance(node, AggCall):
                return ColumnRef(None, self.add_aggregate(node))
            node_text = str(node)
            if node_text in self._group_index:
                return ColumnRef(None, self._group_index[node_text])
            return node

        return _map_tree(expr, transform)

    def add_aggregate(self, agg: AggCall) -> str:
        token = (agg.func, "*" if agg.arg is None else str(agg.arg))
        if token in self._agg_index:
            return self._agg_index[token]
        agg_id = f"agg{len(self.aggregates)}"
        if agg.func == "count":
            spec = AggregateSpec(agg_id, "count", terms=[Term(1.0, {})])
        elif agg.func == "sum":
            spec = AggregateSpec(agg_id, "sum", terms=self._expand_sum(agg.arg))
        elif agg.func in ("min", "max"):
            spec = AggregateSpec(agg_id, agg.func, slot=self._minmax_slot(agg))
        else:
            raise UnsupportedQueryError(f"unsupported aggregate '{agg.func}'")
        self.aggregates.append(spec)
        self._agg_index[token] = agg_id
        return agg_id

    def _minmax_slot(self, agg: AggCall) -> str:
        aliases = {ref.qualifier for ref in collect_columns(agg.arg)}
        if len(aliases) != 1:
            raise UnsupportedQueryError(
                f"{agg.func.upper()} over columns of multiple tables is not supported"
            )
        return self._make_slot(aliases.pop(), agg.arg, agg.func)

    def _expand_sum(self, expr: Expr) -> List[Term]:
        """Decompose a SUM argument into per-relation product terms."""
        raw_terms = _expand_product_terms(expr)
        terms: List[Term] = []
        for coefficient, factors_by_alias in raw_terms:
            factor_slots: Dict[str, str] = {}
            for alias, factor_exprs in factors_by_alias.items():
                combined = factor_exprs[0]
                for extra in factor_exprs[1:]:
                    combined = BinOp("*", combined, extra)
                factor_slots[alias] = self._make_slot(alias, combined, "sum")
            terms.append(Term(coefficient, factor_slots))
        return terms

    def _make_slot(self, alias: str, expr: Expr, combine: str) -> str:
        self._validate_slot_columns(alias, expr)
        token = (alias, str(expr), combine)
        if token in self._slot_index:
            return self._slot_index[token]
        slot_id = f"s{len(self.slots)}"
        self.slots.append(SlotSpec(slot_id, alias, expr, combine))
        self._slot_index[token] = slot_id
        return slot_id

    def _validate_slot_columns(self, alias: str, expr: Expr) -> None:
        table = self.bound.tables[alias]
        for ref in collect_columns(expr):
            if ref.qualifier != alias:
                raise UnsupportedQueryError(
                    f"slot expression '{expr}' mixes relations (planner bug)"
                )
            attribute = table.schema.attribute(ref.name)
            if attribute.kind is Kind.KEY:
                raise UnsupportedQueryError(
                    f"aggregate over key attribute '{ref}' is not allowed "
                    "(keys cannot be aggregated)"
                )


def _expand_product_terms(expr: Expr) -> List[Tuple[float, Dict[str, List[Expr]]]]:
    """Expand into sum-of-products of single-relation factors.

    Returns ``[(coefficient, {alias: [factor exprs]})]``.  Atomic
    factors (columns, CASE, functions, parenthesized predicates) must
    reference exactly one relation; literals fold into coefficients;
    division is only supported by a literal.
    """
    if isinstance(expr, Literal):
        if not isinstance(expr.value, (int, float)):
            raise UnsupportedQueryError(f"non-numeric literal in aggregate: {expr}")
        return [(float(expr.value), {})]
    # Rule 3 fast path: a sub-expression over a single relation stays one
    # annotation -- only multi-relation expressions are distributed.
    sub_aliases = {ref.qualifier for ref in collect_columns(expr)}
    if len(sub_aliases) == 1:
        return [(1.0, {sub_aliases.pop(): [expr]})]
    if isinstance(expr, UnaryOp) and expr.op == "-":
        return [(-c, f) for c, f in _expand_product_terms(expr.operand)]
    if isinstance(expr, BinOp) and expr.op in ("+", "-"):
        left = _expand_product_terms(expr.left)
        right = _expand_product_terms(expr.right)
        if expr.op == "-":
            right = [(-c, f) for c, f in right]
        return left + right
    if isinstance(expr, BinOp) and expr.op == "*":
        left = _expand_product_terms(expr.left)
        right = _expand_product_terms(expr.right)
        out = []
        for lc, lf in left:
            for rc, rf in right:
                merged: Dict[str, List[Expr]] = {a: list(es) for a, es in lf.items()}
                for alias, exprs in rf.items():
                    merged.setdefault(alias, []).extend(exprs)
                out.append((lc * rc, merged))
        return out
    if isinstance(expr, BinOp) and expr.op == "/":
        left = _expand_product_terms(expr.left)
        right = _expand_product_terms(expr.right)
        if len(right) != 1 or right[0][1]:
            raise UnsupportedQueryError(
                f"division inside SUM only supported by a constant: {expr}"
            )
        divisor = right[0][0]
        return [(c / divisor, f) for c, f in left]
    # atomic factor
    aliases = {ref.qualifier for ref in collect_columns(expr)}
    if len(aliases) != 1:
        raise UnsupportedQueryError(
            f"aggregate factor '{expr}' must reference exactly one relation; "
            "rewrite the expression as a sum of products of per-relation factors"
        )
    return [(1.0, {aliases.pop(): [expr]})]
