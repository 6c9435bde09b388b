"""The global adjacency graph and its decomposition into subproblems.

Vertices are marker extremities; an edge is a candidate adjacency
annotated with the internal nodes where it may be placed.  Connected
components are independent: the optimum of the whole instance is the
union of per-component optima, and the set of co-optimal labelings is
the Cartesian product of the per-component sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .core import MICRO, Adjacency, Extremity, Phylogeny, WeightTable, exact_fraction
from .errors import InputError


def threshold_cutoff(threshold_x: object) -> int:
    """Smallest micro weight that passes the threshold ``w >= x``."""
    x = exact_fraction(threshold_x)
    if not 0 <= x <= 1:
        raise InputError(f"threshold must lie in [0, 1], got {x}")
    return -((-x.numerator * MICRO) // x.denominator)


def candidate_adjacencies(tree: Phylogeny) -> frozenset[Adjacency]:
    """The candidates every internal node shares: adjacencies seen in any leaf.

    Ancestral labels never invent adjacencies absent from all extant
    genomes.
    """
    if not tree.leaf_genomes:
        raise InputError("cannot derive candidates: tree has no genomes attached")
    union: set[Adjacency] = set()
    for leaf in tree.leaves():
        union |= tree.leaf_genomes[leaf].adjacencies
    return frozenset(union)


@dataclass(frozen=True, eq=False)
class GlobalAdjacencyGraph:
    """Candidate adjacencies that survived weight thresholding.

    ``edges`` maps each surviving adjacency to the non-empty set of
    internal node ids where it may be chosen.
    """

    edges: Mapping[Adjacency, frozenset[int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", dict(self.edges))
        for adjacency, nodes in self.edges.items():
            if not nodes:
                raise InputError(f"edge {adjacency} has an empty annotation set")


def build_global_graph(
    tree: Phylogeny,
    candidates: frozenset[Adjacency],
    weights: WeightTable,
    threshold_x: object = 0,
) -> GlobalAdjacencyGraph:
    """Annotate candidates with the nodes where their weight passes ``x``.

    The comparison is non-strict (``w >= x``), so the default ``x = 0``
    keeps every candidate at every node, including zero-weight ones.
    Candidates below the threshold everywhere are dropped entirely.
    """
    cutoff = threshold_cutoff(threshold_x)
    internal = tree.internal_ids()
    edges: dict[Adjacency, frozenset[int]] = {}
    for adjacency in sorted(candidates):
        row = weights.row(adjacency)
        annotated = frozenset(v for v in internal if row.get(v, 0) >= cutoff)
        if annotated:
            edges[adjacency] = annotated
    return GlobalAdjacencyGraph(edges)


@dataclass(frozen=True, eq=False)
class Component:
    """One connected component of the global adjacency graph.

    The derived properties are computed at first use and kept; treat
    ``degrees`` as read-only.
    """

    edges: Mapping[Adjacency, frozenset[int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", dict(self.edges))
        if not self.edges:
            raise InputError("a component needs at least one edge")

    @cached_property
    def sorted_edges(self) -> tuple[Adjacency, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def degrees(self) -> dict[Extremity, int]:
        deg: dict[Extremity, int] = {}
        for adjacency in self.edges:
            for x in adjacency:
                deg[x] = deg.get(x, 0) + 1
        return deg

    @cached_property
    def vertices(self) -> frozenset[Extremity]:
        return frozenset(self.degrees)

    @property
    def n_extremities(self) -> int:
        return len(self.degrees)

    @property
    def max_degree(self) -> int:
        return max(self.degrees.values())

    @cached_property
    def label_space_bound(self) -> int:
        """Product of (1 + degree) over extremities.

        Upper bound on the number of joint labels at any node: each
        extremity picks one incident edge or nothing.
        """
        bound = 1
        for d in self.degrees.values():
            bound *= 1 + d
        return bound


def connected_components(graph: GlobalAdjacencyGraph) -> list[Component]:
    """Split the graph into components, ordered by smallest extremity."""
    incident: dict[Extremity, list[Adjacency]] = {}
    for adjacency in graph.edges:
        for x in adjacency:
            incident.setdefault(x, []).append(adjacency)
    seen: set[Extremity] = set()
    components: list[Component] = []
    for start in sorted(incident):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        member_edges: dict[Adjacency, frozenset[int]] = {}
        while queue:
            x = queue.pop()
            for adjacency in incident[x]:
                member_edges[adjacency] = graph.edges[adjacency]
                for y in adjacency:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
        components.append(Component(member_edges))
    components.sort(key=lambda c: min(c.vertices))
    return components
