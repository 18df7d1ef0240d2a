"""Query hypergraphs (Section II-A).

A query is a hypergraph ``H = (V, E)``: vertices are join attributes
(equivalence classes of equi-joined keys) and hyperedges are relations.
The AGM bound, GHD widths, and the cost-based optimizer all operate on
this structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class Hyperedge:
    """One relation occurrence (alias) and its join vertices.

    ``vertices`` are in the relation's schema key order; ``cardinality``
    is the relation's row count (the optimizer's score input) and
    ``fully_dense`` marks completely dense relations (icost 0).
    """

    alias: str
    relation: str
    vertices: Tuple[str, ...]
    cardinality: int = 0
    has_equality_selection: bool = False
    fully_dense: bool = False

    @cached_property
    def vertex_set(self) -> FrozenSet[str]:
        # computed once per edge (the compiler asks thousands of times);
        # not a field, so equality and hashing ignore it
        return frozenset(self.vertices)

    def __str__(self) -> str:
        return f"{self.alias}({', '.join(self.vertices)})"


@dataclass
class Hypergraph:
    """The query hypergraph: attribute vertices and relation edges."""

    vertices: List[str]
    edges: List[Hyperedge]

    def __post_init__(self):
        declared = set(self.vertices)
        for edge in self.edges:
            missing = set(edge.vertices) - declared
            if missing:
                raise ValueError(f"edge {edge} uses undeclared vertices {missing}")

    def edges_with(self, vertex: str) -> List[Hyperedge]:
        """All edges containing ``vertex`` (``e ∋ v`` in Algorithm 1)."""
        return [e for e in self.edges if vertex in e.vertex_set]

    def edge_for_alias(self, alias: str) -> Hyperedge:
        for edge in self.edges:
            if edge.alias == alias:
                return edge
        raise KeyError(alias)

    def vertex_set(self) -> FrozenSet[str]:
        return frozenset(self.vertices)

    def induced(self, bag: Iterable[str]) -> "Hypergraph":
        """Sub-hypergraph of edges fully contained in ``bag``."""
        bag_set = frozenset(bag)
        edges = [e for e in self.edges if e.vertex_set <= bag_set]
        return Hypergraph(sorted(bag_set), edges)

    def connected_components(self, edges: Sequence[Hyperedge] = None) -> List[List[Hyperedge]]:
        """Group edges into components connected by shared vertices."""
        pool = list(self.edges if edges is None else edges)
        components: List[List[Hyperedge]] = []
        remaining = pool[:]
        while remaining:
            seed = remaining.pop(0)
            component = [seed]
            vertices = set(seed.vertices)
            changed = True
            while changed:
                changed = False
                still = []
                for edge in remaining:
                    if vertices & edge.vertex_set:
                        component.append(edge)
                        vertices |= edge.vertex_set
                        changed = True
                    else:
                        still.append(edge)
                remaining = still
            components.append(component)
        return components

    def __str__(self) -> str:
        return "H(V={" + ", ".join(self.vertices) + "}, E={" + "; ".join(map(str, self.edges)) + "})"
