"""The global adjacency graph and its decomposition into subproblems.

Vertices are marker extremities; an edge is a candidate adjacency
annotated with the internal nodes where it may be placed.  Two
adjacencies can only conflict at a node that annotates both, so the
graph splits into components wherever no such node links them.  The
components are independent: the optimum of the whole instance is the
union of per-component optima, and the set of co-optimal labelings is
the Cartesian product of the per-component sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .core import MICRO, Adjacency, Extremity, Phylogeny, WeightTable, exact_fraction, fmt
from .errors import InputError


def threshold_cutoff(threshold_x: object) -> int:
    """Smallest micro weight that passes the threshold ``w >= x``."""
    x = exact_fraction(threshold_x)
    if not 0 <= x <= 1:
        raise InputError(f"threshold must lie in [0, 1], got {x}")
    return -((-x.numerator * MICRO) // x.denominator)


def candidate_adjacencies(tree: Phylogeny) -> Mapping[Adjacency, int]:
    """The candidates every internal node shares: adjacencies seen in any leaf.

    Each maps to the bitmask of the leaves, in ``tree.leaves()`` order,
    that hold it; the tree computes the map once and keeps it (see
    :meth:`Phylogeny.candidates`).  Ancestral labels never invent
    adjacencies absent from all extant genomes.
    """
    return tree.candidates()


@dataclass(frozen=True, eq=False)
class GlobalAdjacencyGraph:
    """Candidate adjacencies that survived weight thresholding.

    ``edges`` maps each surviving adjacency, in no fixed order, to the
    non-empty set of internal node ids where it may be chosen.
    """

    edges: Mapping[Adjacency, frozenset[int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", dict(self.edges))
        for adjacency, nodes in self.edges.items():
            if not nodes:
                raise InputError(f"edge {fmt(adjacency)} has an empty annotation set")


def build_global_graph(
    tree: Phylogeny,
    candidates: Iterable[Adjacency],
    weights: WeightTable,
    threshold_x: object = 0,
) -> GlobalAdjacencyGraph:
    """Annotate candidates with the nodes where their weight passes ``x``.

    The comparison is non-strict (``w >= x``), so the default ``x = 0``
    keeps every candidate at every node, including zero-weight ones.
    Candidates below the threshold everywhere are dropped entirely.
    Candidates with equal weight rows share one annotation set: a row
    object is looked up by identity first, and by its entries only once.
    """
    cutoff = threshold_cutoff(threshold_x)
    internal = tree.internal_ids()
    by_identity: dict[int, frozenset[int]] = {}
    by_entries: dict[tuple[tuple[int, int], ...], frozenset[int]] = {}
    edges: dict[Adjacency, frozenset[int]] = {}
    candidates = list(candidates)
    for adjacency, identity in zip(candidates, weights.row_identities(candidates)):
        annotated = by_identity.get(identity)
        if annotated is None:
            row = weights.row(adjacency)
            key = tuple(row.items())
            annotated = by_entries.get(key)
            if annotated is None:
                annotated = by_entries[key] = frozenset(
                    v for v in internal if row.get(v, 0) >= cutoff
                )
            by_identity[identity] = annotated
        if annotated:
            edges[adjacency] = annotated
    return GlobalAdjacencyGraph(edges)


@dataclass(frozen=True, eq=False, slots=True)
class Component:
    """One connected component of the global adjacency graph.

    Its extremity count, largest degree and label space bound are taken
    from the edges once, at construction.  The bound is the product of
    (1 + degree) over the extremities: no node can have more joint
    labels, since each extremity picks one incident edge or nothing.
    A one-edge mapping is kept as given: its two extremities have degree
    1, so its counts are 2, 1 and 4.
    """

    edges: Mapping[Adjacency, frozenset[int]]
    n_extremities: int = field(init=False)
    max_degree: int = field(init=False)
    label_space_bound: int = field(init=False)

    def __post_init__(self) -> None:
        if len(self.edges) == 1:
            object.__setattr__(self, "n_extremities", 2)
            object.__setattr__(self, "max_degree", 1)
            object.__setattr__(self, "label_space_bound", 4)
            return
        edges = dict(self.edges)
        if not edges:
            raise InputError("a component needs at least one edge")
        degrees: dict[Extremity, int] = {}
        for adjacency in edges:
            for x in adjacency:
                degrees[x] = degrees.get(x, 0) + 1
        bound = 1
        for d in degrees.values():
            bound *= 1 + d
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "n_extremities", len(degrees))
        object.__setattr__(self, "max_degree", max(degrees.values()))
        object.__setattr__(self, "label_space_bound", bound)

    @property
    def sorted_edges(self) -> tuple[Adjacency, ...]:
        return tuple(sorted(self.edges))


def connected_components(graph: GlobalAdjacencyGraph) -> list[Component]:
    """Split the graph into components, ordered by smallest adjacency.

    Two adjacencies are linked when they share an extremity and a node
    of their annotation sets; a component is a class of the transitive
    closure.  The objective is a sum over adjacencies and a packing row
    holds only at a node that annotates both of its adjacencies, so the
    components can be solved, counted and sampled independently.  Two
    components may share an extremity, never a node where both use it.
    """
    edges = graph.edges
    parent: dict[Adjacency, Adjacency] = {}

    def find(a: Adjacency) -> Adjacency:
        root = a
        while (up := parent.get(root, root)) != root:
            root = up
        while a != root:  # path compression
            parent[a], a = root, parent[a]
        return root

    incident: dict[Extremity, list[Adjacency]] = {}
    for adjacency in edges:
        for x in adjacency:
            incident.setdefault(x, []).append(adjacency)
    for group in incident.values():
        for i in range(1, len(group)):
            a = group[i]
            for b in group[:i]:
                if not edges[a].isdisjoint(edges[b]):
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
    # Adjacencies in sorted order put each component's smallest first,
    # so the components come out ordered by it.
    members: dict[Adjacency, dict[Adjacency, frozenset[int]]] = {}
    for adjacency in sorted(edges):
        root = find(adjacency) if adjacency in parent else adjacency
        members.setdefault(root, {})[adjacency] = edges[adjacency]
    return [Component(part) for part in members.values()]
