"""Physical planning: GHD plans to executable node plans.

A :class:`PhysicalPlan` is a tree of :class:`NodePlan` objects (one per
GHD node), each carrying trie-backed relation bindings in the node's
chosen attribute order, plus the runtime forms of the aggregates, group
annotation fetchers, and output expressions.  Scan queries (no join
keys) and fully dense linear algebra (BLAS routing) get their own plan
shapes.

Planning happens in two steps.  :func:`build_skeleton` does everything
that depends only on the query's shape -- GHD, attribute orders,
unfiltered bindings, group fetchers, aggregates -- and leaves out the
bindings whose selections read a :class:`~repro.sql.ast.Parameter`.
:meth:`PlanSkeleton.bind` then fills them for one set of literal
values and returns a :class:`PhysicalPlan` sharing everything else.
Each parameterized binding memoizes its filtered trie and surviving-row
count on the values of the parameters its own predicates read, and the
skeleton memoizes the node estimates on those counts, so a bind
evaluates predicates and builds tries only for the relations whose own
values changed.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..approx.rewrite import APPROX_POLICIES
from ..errors import PlanningError, UnsupportedQueryError
from ..obs import NULL_TRACER
from ..optimizer import (
    EdgeStats,
    OrderDecision,
    RowEstimate,
    choose_order,
    estimate_node,
)
from ..query.decompose import choose_ghd, single_node_ghd
from ..query.ghd import GHD, GHDNode
from ..query.hypergraph import Hyperedge
from ..query.translate import CompiledQuery, GroupAnnotation
from ..sql.ast import ColumnRef, Expr, Literal, collect_parameters
from ..sql.expressions import evaluate
from ..storage.table import AnnotationRequest, Table
from ..trie.trie import Trie


@dataclass
class EngineConfig:
    """Optimizer and executor toggles (the Table III ablations)."""

    enable_attribute_elimination: bool = True
    enable_attribute_ordering: bool = True
    enable_relaxation: bool = True
    enable_blas: bool = True
    force_single_node_ghd: bool = False
    memory_budget_bytes: Optional[int] = None
    #: pin the root node's attribute order (Figure 5b/5c experiments
    #: compare explicit orders); must be a permutation of the root's
    #: attributes that keeps materialized attributes first, except for
    #: the single relaxed swap of Section V-A2.
    forced_root_order: Optional[Tuple[str, ...]] = None
    #: approximate-query policy (``repro.approx``): ``"never"`` always
    #: runs exact, ``"force"`` runs on samples whenever one covers a
    #: touched table, ``"allow"`` runs exact but lets the governor
    #: degrade an admission-rejected query to approximate instead of
    #: failing it.
    approx: str = "never"

    def __post_init__(self):
        if self.approx not in APPROX_POLICIES:
            raise ValueError(
                f"approx={self.approx!r} is not one of {APPROX_POLICIES}"
            )

    def fingerprint(self) -> Tuple:
        """A hashable token of every toggle, for plan-cache keys.

        Two configs with equal fingerprints produce identical plans for
        the same SQL and catalog state.
        """
        from dataclasses import fields

        return tuple((f.name, getattr(self, f.name)) for f in fields(self))


@dataclass
class RelationBinding:
    """One relation occurrence inside a node: a trie in node attribute order."""

    alias: str
    trie: Trie
    vertices: Tuple[str, ...]  # node attrs restricted to this relation
    slot_ids: Tuple[str, ...] = ()  # annotations to read at the last level
    is_child_result: bool = False


@dataclass
class GroupFetcher:
    """A metadata annotation fetch (Rule 4's container M) at the root."""

    ref_id: str
    trie: Trie
    vertices: Tuple[str, ...]  # determining vertices, fetch-trie order
    fetch_position: int  # root attr index after which all are bound
    dictionary: Optional[object] = None  # decode dictionary for strings


@dataclass
class AggregateRuntime:
    """Executable form of one aggregate."""

    agg_id: str
    func: str  # sum | count | min | max
    #: for sum/count: (coefficient, slot ids to multiply) per term
    terms: Tuple[Tuple[float, Tuple[str, ...]], ...] = ()
    minmax_slot: Optional[str] = None


@dataclass
class NodePlan:
    """One GHD node ready for the generic WCOJ executor."""

    attrs: Tuple[str, ...]
    materialized: Tuple[str, ...]  # subset of attrs (attr order), output keys
    relaxed: bool
    bindings: List[RelationBinding]
    decision: OrderDecision
    bag: frozenset
    children: List["NodePlan"] = field(default_factory=list)
    #: the node's output-row estimate (what the q-error loop scores).
    estimate: RowEstimate = field(default_factory=RowEstimate)
    #: slot id under which this node's aggregated annotation is exposed
    #: to its parent (None for the root).
    result_slot: Optional[str] = None
    #: aggregates this node computes (root: the query's; child: its
    #: single multiplicity sum).
    aggregates: List[AggregateRuntime] = field(default_factory=list)
    #: annotation fetches performed during the walk (their determining
    #: vertices include aggregated attributes).
    group_fetchers: List[GroupFetcher] = field(default_factory=list)
    #: annotation fetches determined entirely by output vertices: they
    #: are decoded vectorized after execution instead of per tuple.
    deferred_fetchers: List[GroupFetcher] = field(default_factory=list)
    #: group-key components produced during the walk, in append order:
    #: ("vertex", name) / ("ann", ref).
    walk_layout: List[Tuple[str, str]] = field(default_factory=list)
    #: full result layout: walk components then deferred annotations.
    group_layout: List[Tuple[str, str]] = field(default_factory=list)
    #: stable tree-position key ("n0", "n0.0", ...): identical across
    #: recompiles of the same SQL/catalog (the GHD shape is
    #: deterministic), so the q-error feedback loop can pair a cached
    #: plan's estimates with actuals observed on an earlier compile.
    node_key: str = "n0"


@dataclass
class ScanPlan:
    """Single-table, no-join aggregation (TPC-H Q1/Q6 path)."""

    alias: str
    table: Table
    filters: List[Expr]
    slot_exprs: Dict[str, Tuple[Optional[Expr], str]]  # slot -> (expr, combine)
    group_exprs: List[GroupAnnotation]
    aggregates: List[AggregateRuntime]
    touch_all_columns: bool = False  # -Attr.Elim ablation
    #: the bound values of the filters' parameters (parameter index ->
    #: literal); empty when the filters hold only literals.
    params: Mapping[int, Literal] = field(default_factory=dict)


@dataclass
class BlasPlan:
    """Dense LA routed to the BLAS substrate (Section III-D)."""

    einsum_spec: str
    operand_bindings: List[Tuple[str, Tuple[str, ...], str]]  # alias, vertices, slot
    output_vertices: Tuple[str, ...]
    aggregates: List[AggregateRuntime]
    slot_exprs: Dict[str, Expr]
    domain_sizes: Dict[str, int]


@dataclass
class PhysicalPlan:
    """An executable plan.

    Plans are **immutable at execution time**: ``execute_plan`` never
    mutates the plan tree, so one plan may be executed any number of
    times (prepared statements, the plan cache, benchmark loops) as
    long as it is still *current* -- ``domain_versions`` records the
    catalog key-domain versions the plan's tries were built against,
    and :meth:`is_current` checks them.  A stale plan must be rebuilt:
    its trie references hold codes from superseded dictionaries.
    """

    compiled: CompiledQuery
    mode: str  # join | scan | blas
    root: Optional[NodePlan] = None
    scan: Optional[ScanPlan] = None
    blas: Optional[BlasPlan] = None
    ghd: Optional[GHD] = None
    config: EngineConfig = field(default_factory=EngineConfig)
    #: key-domain versions captured at build time: domain name -> version.
    domain_versions: Dict[str, int] = field(default_factory=dict)
    #: :class:`~repro.approx.rewrite.ApproxSpec` when this plan was
    #: compiled over samples (``repro.approx``); None for exact plans.
    approx: Optional[object] = None

    def is_current(self, catalog) -> bool:
        """Whether the catalog's key domains still match this plan."""
        return all(
            catalog.domain_version(domain) == version
            for domain, version in self.domain_versions.items()
        )

    def explain(self) -> str:
        lines = [f"mode: {self.mode}"]
        if self.approx is not None:
            samples = ", ".join(
                f"{use.base}->{use.sample}" for use in self.approx.samples
            )
            lines.append(
                f"approx: fraction={self.approx.fraction:g} "
                f"confidence={self.approx.confidence:g} samples=[{samples}]"
            )
        if self.ghd is not None:
            lines.append("GHD:")
            lines.append(self.ghd.describe())
        if self.root is not None:
            for node, depth in _walk_plans(self.root):
                indent = "  " * depth
                corrected = " [feedback-corrected]" if node.estimate.corrected else ""
                lines.append(f"{indent}node attrs={list(node.attrs)} "
                             f"materialized={list(node.materialized)} "
                             f"relaxed={node.relaxed} cost={node.decision.cost} "
                             f"est_rows={node.estimate.est_rows:.0f}{corrected}")
                for binding in node.bindings:
                    lines.append(
                        f"{indent}  {binding.alias}: trie{list(binding.vertices)} "
                        f"slots={list(binding.slot_ids)}"
                    )
        if self.blas is not None:
            lines.append(f"einsum: {self.blas.einsum_spec}")
        if self.scan is not None:
            lines.append(f"scan: {self.scan.alias}")
        return "\n".join(lines)

    def node_summaries(self) -> List[Dict]:
        """Structured per-node summaries for ``explain(format="json")``.

        Each entry carries the node's order cost and its output-row
        estimate (``est_rows``, ``corrected``: whether that estimate was
        pinned by the q-error feedback loop).
        """
        out: List[Dict] = []
        if self.root is None:
            return out
        for node, depth in _walk_plans(self.root):
            out.append(
                {
                    "depth": depth,
                    "node_key": node.node_key,
                    "attrs": list(node.attrs),
                    "materialized": list(node.materialized),
                    "relaxed": node.relaxed,
                    "order_cost": float(node.decision.cost),
                    "est_rows": float(node.estimate.est_rows),
                    "corrected": node.estimate.corrected,
                    "result_slot": node.result_slot,
                    "bindings": [
                        {
                            "alias": b.alias,
                            "vertices": list(b.vertices),
                            "slots": list(b.slot_ids),
                        }
                        for b in node.bindings
                    ],
                }
            )
        return out


def _walk_plans(node: NodePlan, depth: int = 0):
    yield node, depth
    for child in node.children:
        yield from _walk_plans(child, depth + 1)


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------


#: values memoized per parameterized binding (and estimate sets per
#: skeleton): enough for a handful of recurring literal classes to stay
#: resident while a relation whose literal never repeats churns.
BIND_MEMO_SIZE = 8


class _Memo:
    """A small LRU; locked, because one skeleton is bound from many threads."""

    def __init__(self):
        self._items: "OrderedDict[Tuple, object]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._items)

    def get(self, key: Tuple):
        with self._lock:
            item = self._items.get(key)
            if item is not None:
                self._items.move_to_end(key)
            return item

    def put(self, key: Tuple, item) -> None:
        with self._lock:
            self._items[key] = item
            self._items.move_to_end(key)
            while len(self._items) > BIND_MEMO_SIZE:
                self._items.popitem(last=False)


@dataclass
class _BindingRecipe:
    """Everything to build one relation binding but its selection mask."""

    alias: str
    key_order: Tuple[str, ...]
    requests: Tuple[AnnotationRequest, ...]
    vertices: Tuple[str, ...]
    slot_ids: Tuple[str, ...]
    #: indices of the parameters the relation's selections read (its
    #: memo key); empty for a binding the skeleton holds
    params: Tuple[int, ...] = ()
    #: parameter values -> (RelationBinding, surviving rows)
    memo: _Memo = field(default_factory=_Memo)


@dataclass
class _NodeRecipe:
    """What a bind redoes for one GHD node: filtered bindings, estimate."""

    node: GHDNode
    materialized_pool: Tuple[str, ...]
    #: position in ``NodePlan.bindings`` -> the recipe a bind builds it from
    bindings: Dict[int, _BindingRecipe]


@dataclass
class PlanSkeleton:
    """A plan compiled once per query shape, minus its parameterized selections.

    It holds everything a :class:`PhysicalPlan` holds -- GHD, each
    node's attribute order (chosen from the selections of the values it
    was built with), every binding whose selections read no parameter,
    group fetchers, aggregates, layouts, ``domain_versions`` -- except
    the bindings of relations whose selections read a
    :class:`~repro.sql.ast.Parameter`: in ``root`` those positions hold
    None.  :meth:`bind` fills them for one set of values.  It changes
    nothing of the skeleton but its lock-protected memos (each
    parameterized binding's, and ``estimates``), so any number of
    threads may bind one skeleton at once.
    """

    compiled: CompiledQuery
    mode: str  # join | scan | blas
    config: EngineConfig
    domain_versions: Dict[str, int]
    root: Optional[NodePlan] = None
    scan: Optional[ScanPlan] = None
    blas: Optional[BlasPlan] = None
    ghd: Optional[GHD] = None
    #: observed per-node rows of a drifted plan (q-error feedback): they
    #: chose the orders, and every bind pins those nodes' estimates.
    feedback: Dict[str, int] = field(default_factory=dict)
    #: the :class:`~repro.approx.rewrite.ApproxSpec` of a sample plan.
    approx: Optional[object] = None
    nodes: Dict[str, _NodeRecipe] = field(default_factory=dict)
    #: surviving rows of every relation no bind rebuilds
    rows: Dict[str, int] = field(default_factory=dict)
    #: parameterized relations' surviving rows -> node_key -> RowEstimate
    estimates: _Memo = field(default_factory=_Memo)

    is_current = PhysicalPlan.is_current

    @property
    def parameterized(self) -> bool:
        """Whether a bind builds any binding (some selection reads a parameter)."""
        return any(node.bindings for node in self.nodes.values())

    def bind(
        self, values: Optional[Mapping[int, Literal]] = None, tracer=None
    ) -> PhysicalPlan:
        """The executable plan for one set of parameter values."""
        root = self.root
        if self.parameterized:
            builder = _JoinPlanBuilder(
                self.compiled, self.config, self.ghd, values,
                tracer=tracer, feedback=self.feedback,
            )
            root = builder.rebind(self)
        return self._plan(root, values)

    def _plan(
        self, root: Optional[NodePlan], values: Optional[Mapping[int, Literal]]
    ) -> PhysicalPlan:
        scan = self.scan
        if scan is not None and values:
            scan = dataclasses.replace(scan, params=dict(values))
        return PhysicalPlan(
            compiled=self.compiled,
            mode=self.mode,
            root=root,
            scan=scan,
            blas=self.blas,
            ghd=self.ghd,
            config=self.config,
            domain_versions=self.domain_versions,
            approx=self.approx,
        )


def build_plan(
    compiled: CompiledQuery,
    config: Optional[EngineConfig] = None,
    tracer=None,
    feedback: Optional[Dict[str, int]] = None,
) -> PhysicalPlan:
    """Lower a compiled query to a physical plan.

    The skeleton of ``compiled`` bound to no parameter values: the
    query's selections are its own literals.  See
    :func:`build_skeleton` for ``tracer`` and ``feedback``.
    """
    return build_skeleton(compiled, config, tracer=tracer, feedback=feedback)[1]


def build_skeleton(
    compiled: CompiledQuery,
    config: Optional[EngineConfig] = None,
    values: Optional[Mapping[int, Literal]] = None,
    tracer=None,
    feedback: Optional[Dict[str, int]] = None,
) -> Tuple[PlanSkeleton, PhysicalPlan]:
    """Lower a compiled query to a :class:`PlanSkeleton` and its first plan.

    ``values`` binds the parameters of ``compiled``'s selections while
    the attribute orders are chosen (their post-filter cardinalities
    weight the order search); the skeleton keeps the orders, not the
    values.  The plan returned with it is the skeleton bound to
    ``values``, built from the same selection masks.

    ``tracer`` (optional, a :class:`repro.obs.Tracer`) records the
    planning phases -- GHD decomposition, attribute-order search, trie
    builds -- as nested spans.  ``feedback`` (optional) maps
    ``NodePlan.node_key`` to observed actual row counts from a drifted
    cached plan: observations override the catalog/independence
    estimates during attribute-order search (child pseudo-edge
    cardinalities feed the relation-score weights) and pin each node's
    ``est_rows``.
    """
    config = config or EngineConfig()
    tracer = tracer or NULL_TRACER
    skeleton = PlanSkeleton(
        compiled=compiled,
        mode="scan",
        config=config,
        domain_versions=_capture_domain_versions(compiled),
        feedback=dict(feedback) if feedback else {},
    )
    if compiled.is_scan:
        with tracer.span("plan.scan"):
            skeleton.scan = _build_scan(compiled, config)
        return skeleton, skeleton.bind(values)

    with tracer.span("ghd.decompose") as span:
        if config.force_single_node_ghd:
            ghd = single_node_ghd(compiled.hypergraph)
        else:
            ghd = choose_ghd(compiled.hypergraph, required_root=compiled.required_root)
        ghd = _pin_slot_edges_to_root(ghd, compiled)
        if tracer.active:
            span.set(nodes=sum(1 for _ in ghd.root.walk()))
    skeleton.ghd = ghd

    if config.enable_blas and config.enable_attribute_elimination:
        with tracer.span("blas.route") as span:
            blas = _try_blas_route(compiled, ghd)
            span.set(routed=blas is not None)
        if blas is not None:
            skeleton.mode, skeleton.blas = "blas", blas
            return skeleton, skeleton.bind(values)

    builder = _JoinPlanBuilder(
        compiled, config, ghd, values, tracer=tracer, feedback=skeleton.feedback
    )
    skeleton.mode, skeleton.root = "join", builder.build()
    skeleton.nodes = builder.recipes
    skeleton.rows = {
        alias: builder.surviving_rows(alias)
        for alias in compiled.bound.tables
        if alias not in builder.parameterized
    }
    root = skeleton.root
    if skeleton.parameterized:
        # the same builder: the masks the orders were chosen with
        root = builder.rebind(skeleton)
    return skeleton, skeleton._plan(root, values)


def _capture_domain_versions(compiled: CompiledQuery) -> Dict[str, int]:
    """Key-domain versions of every table the plan's tries encode."""
    versions: Dict[str, int] = {}
    for table in compiled.bound.tables.values():
        if table.catalog is None:
            continue
        for attr in table.schema.attributes:
            if attr.is_key:
                domain = attr.domain_name
                versions[domain] = table.catalog.domain_version(domain)
    return versions


def _pin_slot_edges_to_root(ghd: GHD, compiled: CompiledQuery) -> GHD:
    """Move slot-carrying edges to the root bag and prune emptied nodes.

    Aggregate annotations are read at the root (their vertices are in
    the root bag by the translator's ``required_root``); leaving the
    edge assigned to a child would double-count its contribution.
    """
    slot_aliases = {slot.alias for slot in compiled.slots}
    if not slot_aliases:
        return ghd
    moved: List[Hyperedge] = []

    def strip(node: GHDNode) -> Optional[GHDNode]:
        kept = [e for e in node.edges if e.alias not in slot_aliases]
        moved.extend(e for e in node.edges if e.alias in slot_aliases)
        children = [c for c in (strip(child) for child in node.children) if c is not None]
        if not kept and not children and node is not ghd.root:
            return None
        return GHDNode(bag=node.bag, edges=kept, children=children)

    new_root = strip(ghd.root)
    for edge in moved:
        if not edge.vertex_set <= new_root.bag:
            raise PlanningError(
                f"slot-carrying edge {edge} does not fit the root bag "
                f"{sorted(new_root.bag)} (planner invariant violated)"
            )
        new_root.edges.append(edge)
    return GHD(root=new_root, hypergraph=ghd.hypergraph)


class _JoinPlanBuilder:
    def __init__(
        self,
        compiled: CompiledQuery,
        config: EngineConfig,
        ghd: GHD,
        values: Optional[Mapping[int, Literal]] = None,
        tracer=None,
        feedback: Optional[Dict[str, int]] = None,
    ):
        self.compiled = compiled
        self.config = config
        self.ghd = ghd
        self.values = values or {}
        self.tracer = tracer or NULL_TRACER
        self.feedback = feedback or {}
        self.bound = compiled.bound
        #: node_key -> what a bind redoes for that node
        self.recipes: Dict[str, _NodeRecipe] = {}
        self._child_counter = 0
        self._root_order: Optional[Tuple[str, ...]] = None
        self._mask_cache: Dict[str, Optional[np.ndarray]] = {}
        self._rows: Dict[str, int] = {}
        self._estimates: Dict[str, RowEstimate] = {}

    # the two maps below are derived lazily: a bind whose memos all
    # hit reads neither

    @functools.cached_property
    def attr_of(self) -> Dict[str, Dict[str, str]]:
        """vertex -> attribute name, per alias."""
        attr_of: Dict[str, Dict[str, str]] = {}
        for (alias, attr_name), vertex in self.bound.vertex_of.items():
            attr_of.setdefault(alias, {})[vertex] = attr_name
        return attr_of

    @functools.cached_property
    def parameterized(self) -> Dict[str, Tuple[int, ...]]:
        """Relations whose selections read a parameter -> the indices read:
        a bind builds their bindings, the skeleton holds the rest."""
        parameterized: Dict[str, Tuple[int, ...]] = {}
        for alias, predicates in self.bound.filters.items():
            indices = sorted(
                {p.index for predicate in predicates for p in collect_parameters(predicate)}
            )
            if indices:
                parameterized[alias] = tuple(indices)
        return parameterized

    def rebind(self, skeleton: "PlanSkeleton") -> NodePlan:
        """A copy of ``skeleton``'s node tree with this builder's values bound.

        Each parameterized binding comes from its memo when its own
        values repeat (else it is built and memoized), and the node
        estimates from the skeleton's memo when the surviving-row counts
        repeat -- so unchanged values evaluate no predicate.
        """
        self._rows.update(skeleton.rows)
        bound = {
            node_key: {
                position: self._bind(recipe)
                for position, recipe in node.bindings.items()
            }
            for node_key, node in skeleton.nodes.items()
        }
        counts = tuple(
            self._rows[recipe.alias]
            for node in skeleton.nodes.values()
            for recipe in node.bindings.values()
        )
        estimates = skeleton.estimates.get(counts)
        if estimates is None:
            estimates = {
                node_key: self._estimate(node.node, node_key, node.materialized_pool)
                for node_key, node in skeleton.nodes.items()
            }
            skeleton.estimates.put(counts, estimates)

        def copy(template: NodePlan) -> NodePlan:
            bindings = list(template.bindings)
            for position, binding in bound[template.node_key].items():
                bindings[position] = binding
            return dataclasses.replace(
                template,
                bindings=bindings,
                children=[copy(child) for child in template.children],
                estimate=estimates[template.node_key],
            )

        return copy(skeleton.root)

    def _bind(self, recipe: _BindingRecipe) -> RelationBinding:
        """A parameterized binding for this builder's values, memoized."""
        key = tuple(self.values[i] for i in recipe.params)
        memoized = recipe.memo.get(key)
        if memoized is None:
            memoized = self._materialize(recipe), self.surviving_rows(recipe.alias)
            recipe.memo.put(key, memoized)
        binding, self._rows[recipe.alias] = memoized
        return binding

    # -- top level -----------------------------------------------------------

    def build(self) -> NodePlan:
        return self._build_node(
            self.ghd.root, parent_bag=None, is_root=True, node_key="n0"
        )

    def _build_node(
        self,
        node: GHDNode,
        parent_bag: Optional[frozenset],
        is_root: bool,
        node_key: str,
    ) -> NodePlan:
        # The order decision comes first: the root's materialized order is
        # the global ordering every descendant node must respect.
        local_edges = self._local_edges(node, node_key)
        covered = set()
        for edge in local_edges:
            covered.update(edge.vertices)
        attrs_pool = [v for v in node.bag if v in covered]

        if is_root:
            materialized_pool = [
                v for v in self.compiled.output_vertices if v in node.bag
            ]
            missing = set(self.compiled.output_vertices) - set(materialized_pool)
            if missing:
                raise PlanningError(f"output vertices {missing} missing from root bag")
            materialized_pool = self._promote_determined_vertices(
                materialized_pool, set(attrs_pool)
            )
        else:
            materialized_pool = sorted(node.bag & parent_bag)

        allow_relax = (
            self.config.enable_relaxation
            and self.config.enable_attribute_elimination
            and self._relaxation_safe(is_root)
        )
        with self.tracer.span("attribute_order") as span:
            if is_root and self.config.forced_root_order is not None:
                decision = self._forced_decision(
                    self.config.forced_root_order,
                    attrs_pool,
                    materialized_pool,
                    local_edges,
                )
            else:
                decision = choose_order(
                    attrs_pool,
                    materialized=materialized_pool,
                    edges=local_edges,
                    fixed_materialized_order=self._root_order,
                    allow_relaxation=allow_relax,
                    pick_worst=not self.config.enable_attribute_ordering,
                )
            if self.tracer.active:
                span.set(
                    order=list(decision.order),
                    cost=decision.cost,
                    relaxed=decision.relaxed,
                    icost_weight={
                        v: {"icost": c, "weight": w}
                        for v, (c, w) in decision.per_vertex.items()
                    },
                )
        if is_root:
            self._root_order = decision.order

        estimate = self._estimate(node, node_key, tuple(materialized_pool))

        child_plans = [
            self._build_node(
                child,
                parent_bag=node.bag,
                is_root=False,
                node_key=f"{node_key}.{i}",
            )
            for i, child in enumerate(node.children)
        ]
        recipes = [
            self._binding_recipe(edge, decision.order, is_root) for edge in node.edges
        ]
        bindings = [
            None if recipe.alias in self.parameterized else self._materialize(recipe)
            for recipe in recipes
        ]
        self.recipes[node_key] = _NodeRecipe(
            node,
            tuple(materialized_pool),
            {
                i: recipe
                for i, recipe in enumerate(recipes)
                if recipe.alias in self.parameterized
            },
        )
        # -Attr.Elim: unused key attributes remain as trailing trie
        # levels; surface them as extra aggregated attributes so the
        # executor walks (and pays for) them.
        synthetic = tuple(
            v
            for recipe in recipes
            for v in recipe.vertices
            if v.startswith("__elim_")
        )
        plan = NodePlan(
            attrs=decision.order + synthetic,
            materialized=tuple(v for v in decision.order if v in set(materialized_pool)),
            relaxed=decision.relaxed,
            bindings=bindings,
            decision=decision,
            bag=node.bag,
            children=child_plans,
            estimate=estimate,
            node_key=node_key,
        )
        if is_root:
            walk, deferred = self._build_group_fetchers(
                decision.order, set(materialized_pool)
            )
            plan.group_fetchers = walk
            plan.deferred_fetchers = deferred
            plan.aggregates = self._root_aggregates(node, child_plans)
            plan.walk_layout = self._group_layout(plan)
            plan.group_layout = plan.walk_layout + [
                ("ann", fetcher.ref_id) for fetcher in deferred
            ]
        else:
            slot_id = f"__childagg{self._child_counter}"
            self._child_counter += 1
            plan.result_slot = slot_id
            plan.aggregates = [self._child_aggregate(node, plan, child_plans)]
            plan.walk_layout = [("vertex", v) for v in plan.materialized]
            plan.group_layout = list(plan.walk_layout)
        return plan

    def _local_edges(self, node: GHDNode, node_key: str) -> List[Hyperedge]:
        """The node's relations plus one pseudo-edge per child.

        Observed child actuals (feedback from a drifted cached plan)
        override the static estimate: the corrected cardinality flows
        into the relation-score weights of the attribute-order search
        -- the re-rank.
        """
        child_edges = [
            Hyperedge(
                alias=f"__childedge{i}",
                relation=f"__childedge{i}",
                vertices=tuple(sorted(child.bag & node.bag)),
                cardinality=self.feedback.get(
                    f"{node_key}.{i}", self._estimate_child_cardinality(child)
                ),
            )
            for i, child in enumerate(node.children)
        ]
        return list(node.edges) + child_edges

    def _estimate(
        self, node: GHDNode, node_key: str, materialized_pool: Tuple[str, ...]
    ) -> RowEstimate:
        # one estimate per node and builder: a skeleton's first plan is
        # bound by the builder that estimated it
        if node_key in self._estimates:
            return self._estimates[node_key]
        with self.tracer.span("cardinality.estimate") as span:
            estimate = estimate_node(
                [self._edge_stats(edge) for edge in self._local_edges(node, node_key)],
                materialized=materialized_pool,
                observed_rows=self.feedback.get(node_key),
            )
            if self.tracer.active:
                span.set(est_rows=estimate.est_rows, corrected=estimate.corrected)
        self._estimates[node_key] = estimate
        return estimate

    def _forced_decision(self, order, attrs_pool, materialized_pool, local_edges):
        from ..optimizer.attribute_order import order_cost

        order = tuple(order)
        if sorted(order) != sorted(attrs_pool):
            raise PlanningError(
                f"forced order {list(order)} is not a permutation of the root "
                f"attributes {sorted(attrs_pool)}"
            )
        materialized = set(materialized_pool)
        positions = [i for i, v in enumerate(order) if v in materialized]
        relaxed = False
        if positions:
            compact = positions == list(range(len(positions)))
            relaxed_shape = (
                positions == list(range(len(positions) - 1)) + [len(order) - 1]
                and len(order) == len(positions) + 1  # exactly one swap
                and order[-2] not in materialized
            )
            if relaxed_shape:
                relaxed = True
            elif not compact:
                raise PlanningError(
                    f"forced order {list(order)} violates the materialized-first "
                    "rule (only the single V-A2 swap is allowed)"
                )
        cost, breakdown = order_cost(order, local_edges)
        return OrderDecision(order, cost, relaxed, breakdown)

    def _promote_determined_vertices(self, materialized_pool, attrs_pool):
        """Materialize hidden key vertices functionally determined by output.

        A group annotation whose determining keys are aggregated away
        forces a per-tuple fetch during the walk.  When some relation's
        data proves the output keys determine those keys (e.g. a
        voter's key determines its precinct key), materializing them
        adds no groups -- and turns the fetch into a vectorized
        deferred decode.  The extra vertices never reach the output
        columns; they only ride along in the group key.
        """
        if not materialized_pool:
            return materialized_pool
        out = list(materialized_pool)
        out_set = set(out)
        for group in self.compiled.group_annotations:
            missing = [v for v in group.determining_vertices if v not in out_set]
            if not missing or any(v not in attrs_pool for v in missing):
                continue
            for alias, table in self.bound.tables.items():
                alias_vertices = set(self.bound.edge_vertices(alias))
                if not set(missing) <= alias_vertices:
                    continue
                anchors = [v for v in out if v in alias_vertices]
                if not anchors:
                    continue
                vertex_to_attr = self.attr_of[alias]
                anchor_attrs = tuple(vertex_to_attr[v] for v in anchors)
                full_attrs = anchor_attrs + tuple(vertex_to_attr[v] for v in missing)
                if table.distinct_count(anchor_attrs) == table.distinct_count(full_attrs):
                    out.extend(missing)
                    out_set.update(missing)
                    break
        return out

    def _relaxation_safe(self, is_root: bool) -> bool:
        if not is_root:
            return True
        if any(a.func in ("min", "max") for a in self.compiled.aggregates):
            return False
        return True

    def _estimate_child_cardinality(self, child: GHDNode) -> int:
        """Static guess of a child node's output rows: its smallest edge.

        Edge cardinalities are *post-filter*: a pushed-down selection
        that narrows a relation narrows everything joined against it,
        and weighting attributes by raw catalog cardinalities would
        mis-cost exactly the selective fragments.
        """
        cards = []
        for member, _ in child.walk():
            cards.extend(
                rows
                for rows in (self._edge_rows(e) for e in member.edges)
                if rows > 0
            )
        return min(cards) if cards else 1

    def _edge_rows(self, edge: Hyperedge) -> int:
        """One edge's row count after pushed-down selections."""
        if edge.alias not in self.bound.tables:
            return int(edge.cardinality)
        return self.surviving_rows(edge.alias)

    def surviving_rows(self, alias: str) -> int:
        """A relation's row count after its pushed-down selections."""
        rows = self._rows.get(alias)
        if rows is None:
            mask = self._filter_mask(alias)
            rows = self._rows[alias] = (
                int(mask.sum()) if mask is not None
                else int(self.bound.tables[alias].num_rows)
            )
        return rows

    # -- cardinality estimates ------------------------------------------------

    def _edge_stats(self, edge: Hyperedge) -> EdgeStats:
        alias = edge.alias
        table = self.bound.tables.get(alias)
        if table is None:  # child-result pseudo-edge
            card = float(max(edge.cardinality, 1))
            return EdgeStats(
                alias, tuple(edge.vertices), card, {v: card for v in edge.vertices}
            )
        card = float(self.surviving_rows(alias))
        vertex_to_attr = self.attr_of.get(alias, {})
        distinct = {}
        for vertex in edge.vertices:
            attr = vertex_to_attr.get(vertex)
            if attr is None or card == 0.0:
                distinct[vertex] = card
            else:
                distinct[vertex] = float(min(table.distinct_count((attr,)), card))
        return EdgeStats(alias, tuple(edge.vertices), card, distinct)

    # -- bindings ---------------------------------------------------------------

    def _binding_recipe(
        self, edge: Hyperedge, order: Sequence[str], is_root: bool
    ) -> _BindingRecipe:
        alias = edge.alias
        table = self.bound.tables[alias]
        vertex_to_attr = self.attr_of.get(alias, {})
        vertices = tuple(v for v in order if v in edge.vertex_set)
        key_order = [vertex_to_attr[v] for v in vertices]

        if not self.config.enable_attribute_elimination:
            # -Attr.Elim: carry every key attribute as extra trailing
            # trie levels and attach every annotation buffer.
            extra = [k for k in table.schema.key_names if k not in key_order]
            key_order = key_order + extra

        requests: List[AnnotationRequest] = []
        slot_ids: List[str] = []
        arity = len(key_order)
        alias_slots = self.compiled.slots_of(alias) if is_root else []
        for slot in alias_slots:
            values, source = self._slot_values(alias, slot.expr)
            requests.append(
                AnnotationRequest(
                    slot.id, source, level=arity - 1, combine=slot.combine, values=values
                )
            )
            slot_ids.append(slot.id)
        if alias in self.compiled.dup_aliases:
            mult_id = f"__mult_{alias}"
            requests.append(
                AnnotationRequest(mult_id, "*", level=arity - 1, combine="count")
            )
            slot_ids.append(mult_id)
        if not self.config.enable_attribute_elimination:
            for ann_name in table.schema.annotation_names:
                token = f"__all_{ann_name}"
                if all(r.name != token for r in requests):
                    requests.append(
                        AnnotationRequest(token, ann_name, level=arity - 1, combine="first")
                    )

        return _BindingRecipe(
            alias=alias,
            key_order=tuple(key_order),
            requests=tuple(requests),
            vertices=vertices
            + tuple(f"__elim_{alias}_{k}" for k in key_order[len(vertices):]),
            slot_ids=tuple(slot_ids),
            params=self.parameterized.get(alias, ()),
        )

    def _materialize(self, recipe: _BindingRecipe) -> RelationBinding:
        """Build a recipe's trie over the rows its selections keep."""
        table = self.bound.tables[recipe.alias]
        with self.tracer.span("trie.build", alias=recipe.alias) as span:
            trie = table.get_trie(
                recipe.key_order, recipe.requests,
                row_mask=self._filter_mask(recipe.alias),
            )
            if self.tracer.active:
                span.set(key_order=list(recipe.key_order), tuples=trie.num_tuples)
        return RelationBinding(
            alias=recipe.alias,
            trie=trie,
            vertices=recipe.vertices,
            slot_ids=recipe.slot_ids,
        )

    def _slot_values(self, alias: str, expr: Optional[Expr]):
        if expr is None:
            return None, "*"
        if isinstance(expr, ColumnRef):
            return None, expr.name  # let the table encode string columns
        table = self.bound.tables[alias]
        values = evaluate(expr, lambda ref: table.columns[ref.name])
        values = np.asarray(values)
        if values.dtype == object or values.dtype.kind in ("U", "S"):
            raise UnsupportedQueryError(
                f"computed annotation '{expr}' must be numeric"
            )
        if values.ndim == 0:
            values = np.full(table.num_rows, float(values))
        return values, str(expr)

    def _filter_mask(self, alias: str) -> Optional[np.ndarray]:
        if alias in self._mask_cache:
            return self._mask_cache[alias]
        predicates = self.bound.filters.get(alias, [])
        if not predicates:
            mask = None
        else:
            table = self.bound.tables[alias]
            mask = np.ones(table.num_rows, dtype=bool)
            for predicate in predicates:
                value = evaluate(
                    predicate, lambda ref: table.columns[ref.name], self.values
                )
                mask &= np.asarray(value, dtype=bool)
        self._mask_cache[alias] = mask
        return mask

    # -- group fetchers ----------------------------------------------------------

    def _build_group_fetchers(self, order: Sequence[str], output_vertices: Set[str]):
        walk: List[GroupFetcher] = []
        deferred: List[GroupFetcher] = []
        position_of = {v: i for i, v in enumerate(order)}
        for group in self.compiled.group_annotations:
            table = self.bound.tables[group.alias]
            vertex_to_attr = self.attr_of[group.alias]
            vertices = tuple(
                sorted(group.determining_vertices, key=lambda v: position_of[v])
            )
            if not vertices or any(v not in position_of for v in vertices):
                raise PlanningError(
                    f"group annotation '{group.expr}' has unresolvable keys"
                )
            key_order = tuple(vertex_to_attr[v] for v in vertices)
            values, source = self._slot_values(group.alias, group.expr)
            dictionary = None
            if values is None and source != "*":
                attr = table.schema.attribute(source)
                if attr.type.value == "string":
                    dictionary = table.string_dictionary(source)
            request = AnnotationRequest(
                group.id, source, level=len(key_order) - 1, combine="first", values=values
            )
            trie = table.get_trie(key_order, (request,))
            fetcher = GroupFetcher(
                ref_id=group.id,
                trie=trie,
                vertices=vertices,
                fetch_position=max(position_of[v] for v in vertices),
                dictionary=dictionary,
            )
            if set(vertices) <= output_vertices:
                deferred.append(fetcher)
            else:
                walk.append(fetcher)
        return walk, deferred

    # -- aggregates ----------------------------------------------------------------

    def _root_aggregates(
        self, node: GHDNode, child_plans: List[NodePlan]
    ) -> List[AggregateRuntime]:
        root_aliases = {edge.alias for edge in node.edges}
        child_slots = tuple(c.result_slot for c in child_plans)
        out = []
        for spec in self.compiled.aggregates:
            if spec.func in ("min", "max"):
                out.append(
                    AggregateRuntime(spec.id, spec.func, minmax_slot=spec.slot)
                )
                continue
            terms = []
            for term in spec.terms:
                slot_ids = list(term.factors.values())
                for alias in sorted(self.compiled.dup_aliases & root_aliases):
                    if alias not in term.factors:
                        slot_ids.append(f"__mult_{alias}")
                slot_ids.extend(child_slots)
                terms.append((term.coefficient, tuple(slot_ids)))
            out.append(AggregateRuntime(spec.id, spec.func, terms=tuple(terms)))
        return out

    def _child_aggregate(
        self, node: GHDNode, plan: NodePlan, child_plans: List[NodePlan]
    ) -> AggregateRuntime:
        slot_ids = [
            f"__mult_{edge.alias}"
            for edge in node.edges
            if edge.alias in self.compiled.dup_aliases
        ]
        slot_ids.extend(c.result_slot for c in child_plans)
        return AggregateRuntime(
            plan.result_slot, "sum", terms=((1.0, tuple(slot_ids)),)
        )

    def _group_layout(self, plan: NodePlan) -> List[Tuple[str, str]]:
        layout: List[Tuple[str, str]] = []
        materialized = set(plan.materialized)
        for position, attr in enumerate(plan.attrs):
            if attr in materialized:
                layout.append(("vertex", attr))
            for fetcher in plan.group_fetchers:
                if fetcher.fetch_position == position:
                    layout.append(("ann", fetcher.ref_id))
        return layout


# ---------------------------------------------------------------------------
# scan plan
# ---------------------------------------------------------------------------


def _build_scan(compiled: CompiledQuery, config: EngineConfig) -> ScanPlan:
    alias = compiled.scan_alias
    table = compiled.bound.tables[alias]
    slot_exprs = {
        slot.id: (slot.expr, slot.combine) for slot in compiled.slots
    }
    aggregates = []
    for spec in compiled.aggregates:
        if spec.func in ("min", "max"):
            aggregates.append(AggregateRuntime(spec.id, spec.func, minmax_slot=spec.slot))
        else:
            terms = tuple(
                (term.coefficient, tuple(term.factors.values())) for term in spec.terms
            )
            aggregates.append(AggregateRuntime(spec.id, spec.func, terms=terms))
    return ScanPlan(
        alias=alias,
        table=table,
        filters=list(compiled.bound.filters.get(alias, [])),
        slot_exprs=slot_exprs,
        group_exprs=list(compiled.group_annotations),
        aggregates=aggregates,
        touch_all_columns=not config.enable_attribute_elimination,
    )


# ---------------------------------------------------------------------------
# BLAS routing
# ---------------------------------------------------------------------------


def _try_blas_route(compiled: CompiledQuery, ghd: GHD) -> Optional[BlasPlan]:
    """Recognize fully dense sum-product contractions (DMV/DMM).

    Conditions: single-node plan, every edge completely dense, exactly
    one SUM aggregate whose single term multiplies one slot from every
    relation, no filters, no group annotations, no dup relations.
    """
    if ghd.root.children:
        return None
    edges = ghd.root.edges
    if not edges or not all(e.fully_dense for e in edges):
        return None
    if compiled.group_annotations or compiled.dup_aliases:
        return None
    if any(compiled.bound.filters.get(e.alias) for e in edges):
        return None
    sums = [a for a in compiled.aggregates if a.func == "sum"]
    if len(sums) != 1 or len(compiled.aggregates) != 1:
        return None
    agg = sums[0]
    if len(agg.terms) != 1:
        return None
    term = agg.terms[0]
    if set(term.factors) != {e.alias for e in edges}:
        return None
    if len(edges) > 3 or any(len(e.vertices) > 2 for e in edges):
        return None

    letters: Dict[str, str] = {}
    for vertex in compiled.hypergraph.vertices:
        letters[vertex] = chr(ord("a") + len(letters))
    operand_specs = []
    operand_bindings = []
    slot_exprs = {}
    for edge in edges:
        operand_specs.append("".join(letters[v] for v in edge.vertices))
        slot_id = term.factors[edge.alias]
        operand_bindings.append((edge.alias, edge.vertices, slot_id))
        slot = next(s for s in compiled.slots if s.id == slot_id)
        slot_exprs[slot_id] = slot.expr
    output_spec = "".join(letters[v] for v in compiled.output_vertices)
    einsum_spec = ",".join(operand_specs) + "->" + output_spec

    domain_sizes = {}
    for edge in edges:
        table = compiled.bound.tables[edge.alias]
        for vertex, attr_name in zip(
            edge.vertices,
            [a for a in table.schema.key_names],
        ):
            domain = table.schema.attribute(attr_name).domain_name
            domain_sizes[vertex] = table.catalog.domain_size(domain)

    return BlasPlan(
        einsum_spec=einsum_spec,
        operand_bindings=operand_bindings,
        output_vertices=tuple(compiled.output_vertices),
        aggregates=[
            AggregateRuntime(agg.id, "sum", terms=((term.coefficient, ()),))
        ],
        slot_exprs=slot_exprs,
        domain_sizes=domain_sizes,
    )
