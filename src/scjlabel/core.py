"""Markers, adjacencies, genomes, phylogenies and distances between gene orders.

A genome is modeled as a set of adjacencies between oriented marker
extremities.  A set is consistent when every extremity occurs in at most
one adjacency; a consistent set decomposes uniquely into linear and
circular runs of markers (CARs).  All objective arithmetic is exact:
adjacency weights live on a fixed 1e-6 grid and the mixing factor alpha
is a rational with a bounded denominator, so optima and co-optimality
counts never depend on floating point rounding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType
from typing import AbstractSet, Iterable, Iterator, Mapping, NamedTuple

from .errors import InputError

#: Resolution of the weight grid: weights are stored as integer multiples
#: of 1/MICRO in [0, MICRO].
MICRO = 10**6

#: Largest accepted denominator for the mixing factor alpha.
MAX_ALPHA_DENOMINATOR = 10**4

TAIL = 0
HEAD = 1

_ONE = Decimal(1)

#: Decimal exponents of more digits are refused: the exact value of
#: "1e9999" takes 0.2 ms to build, that of "1e10000000" over 8 s.
MAX_EXPONENT_DIGITS = 4


def quoted(text: str) -> str:
    """``repr(text)`` of at most 40 characters, with ``...`` marking a cut."""
    return repr(text if len(text) <= 40 else text[:37] + "...")


def exact_fraction(value: object) -> Fraction:
    """Coerce a number to an exact :class:`Fraction`.

    Floats are read through their shortest decimal representation
    (``str(value)``), so ``0.25`` means exactly 1/4 and ``0.1`` exactly
    1/10.  Strings accept both decimal ("0.5") and ratio ("1/3") forms,
    with an exponent of at most :data:`MAX_EXPONENT_DIGITS` digits.
    NaN, infinities and other non-numbers raise :class:`InputError`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"expected a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # Decimal reads the shortest form exactly, several times faster
        # than Fraction parses it.
        try:
            return Fraction(*Decimal(str(value)).as_integer_ratio())
        except (ValueError, OverflowError) as exc:
            raise InputError(f"not a finite number: {value!r}") from exc
    if isinstance(value, str):
        _, e, power = value.lower().rpartition("e")
        digits = power.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and len(digits) > MAX_EXPONENT_DIGITS:
            raise InputError(f"exponent of {quoted(value)} has over {MAX_EXPONENT_DIGITS} digits")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a finite number: {quoted(value)}") from exc
    raise InputError(f"expected a number, got {type(value).__name__}")


def show_number(value: object) -> str:
    """``str(value)``, or its power of ten past Python's int-to-string digit limit."""
    try:
        return str(value)
    except ValueError:  # an int or a Fraction
        power = (abs(value.numerator).bit_length() - value.denominator.bit_length()) * 0.30103
        return f"{'-' if value < 0 else ''}~1e{round(power)}"


def as_alpha(value: object) -> Fraction:
    """Validate and coerce the mixing factor alpha to an exact rational.

    Alpha weighs discarded adjacency weight against rearrangement cost
    and must lie in [0, 1] with denominator at most 1e4 so that scaled
    objective values stay on an exact integer grid.
    """
    alpha = exact_fraction(value)
    if not 0 <= alpha <= 1:
        raise InputError(f"alpha must lie in [0, 1], got {show_number(alpha)}")
    if alpha.denominator > MAX_ALPHA_DENOMINATOR:
        raise InputError(
            f"alpha denominator {show_number(alpha.denominator)} exceeds {MAX_ALPHA_DENOMINATOR}; "
            f"use a coarser rational"
        )
    return alpha


class ObjectiveUnits(NamedTuple):
    """Integer units of the objective at one alpha.

    Every objective value is an integer multiple of ``1 / scale``: one
    adjacency change costs ``change_unit`` and one micro-unit of
    discarded weight costs ``weight_unit``.
    """

    change_unit: int
    weight_unit: int
    scale: int

    def scaled(self, scj_changes: int, discarded_micro: int) -> int:
        """``scale`` times ``(1 - alpha) * scj + alpha * discarded weight``."""
        return self.change_unit * scj_changes + self.weight_unit * discarded_micro


def objective_units(alpha: object) -> ObjectiveUnits:
    """The scaled-integer units of the objective for mixing factor ``alpha``."""
    alpha = as_alpha(alpha)
    num, den = alpha.numerator, alpha.denominator
    return ObjectiveUnits((den - num) * MICRO, num, den * MICRO)


def quantize_weight(value: object) -> int:
    """Map a weight in [0, 1] to the integer grid 0..MICRO (round half up).

    A float in range is rounded from the shortest decimal form that
    :func:`exact_fraction` reads, without building the fraction.  That
    form and the product ``value * MICRO`` differ by under 2e-10 micro,
    so a product more than 1e-9 from a half micro rounds the same way.
    """
    if type(value) is float and 0 <= value <= 1:
        scaled = value * MICRO
        if abs(scaled - int(scaled) - 0.5) > 1e-9:
            return int(scaled + 0.5)
        return int(Decimal(repr(value)).scaleb(6).quantize(_ONE, ROUND_HALF_UP))  # 6: MICRO
    w = exact_fraction(value)
    if not 0 <= w <= 1:
        raise InputError(f"weight must lie in [0, 1], got {show_number(w)}")
    return (2 * w.numerator * MICRO + w.denominator) // (2 * w.denominator)


class Extremity:
    """One end of an oriented marker: its tail (t) or its head (h).

    Calling the class validates and returns an exact ``(marker, end)``
    tuple, never an instance.  Tail sorts before head, which fixes the
    canonical orientation used everywhere else.
    """

    def __new__(cls, marker: int, end: int) -> tuple[int, int]:  # type: ignore[misc]
        if not isinstance(marker, int) or marker < 1:
            raise InputError(f"marker ids are positive integers, got {marker!r}")
        if end not in (TAIL, HEAD):
            raise InputError(f"extremity end must be TAIL(0) or HEAD(1), got {end!r}")
        return (marker, end)

    @staticmethod
    def parse(text: str) -> tuple[int, int]:
        """Parse the compact form ``"12h"`` / ``"3t"``."""
        text = text.strip()
        try:
            if len(text) < 2 or text[-1] not in "ht" or not text[:-1].isdecimal():
                raise ValueError
            return Extremity(int(text[:-1]), HEAD if text[-1] == "h" else TAIL)
        except ValueError:  # int()'s too, past its digit limit
            raise InputError(f"bad extremity {quoted(text)}, expected e.g. '12h' or '3t'") from None


class Adjacency:
    """An unordered pair of extremities of two distinct markers.

    Calling the class returns an exact ``(first, second)`` tuple with
    ``first < second``.  Pairing the two ends of one marker (a
    single-marker circle) is rejected.
    """

    def __new__(cls, first: Extremity, second: Extremity) -> tuple:  # type: ignore[misc]
        if first[0] == second[0]:
            raise InputError(f"adjacency may not join two extremities of marker {first[0]}")
        return (first, second) if first < second else (second, first)

    @staticmethod
    def of(a: "Extremity | str", b: "Extremity | str") -> tuple:
        """Build from extremities or their compact string forms."""
        if isinstance(a, str):
            a = Extremity.parse(a)
        if isinstance(b, str):
            b = Extremity.parse(b)
        return Adjacency(a, b)


def fmt(item: tuple) -> str:
    """The compact form of an extremity (``"12h"``) or an adjacency (``"3t-5h"``)."""
    if type(item[0]) is int:
        return f"{item[0]}{'th'[item[1]]}"
    (m, e), (n, f) = item
    return f"{m}{'th'[e]}-{n}{'th'[f]}"


def check_consistency(adjacencies: Iterable[Adjacency]) -> tuple[bool, list[Extremity]]:
    """Check that no extremity is used by more than one adjacency.

    Returns ``(True, [])`` for a consistent set, otherwise ``(False,
    offenders)`` with the reused extremities in canonical order.
    """
    adjacencies = tuple(adjacencies)
    if len(set().union(*adjacencies)) == 2 * len(adjacencies):
        return True, []  # only an inconsistent set pays for counting
    seen = Counter(x for adjacency in adjacencies for x in adjacency)
    offenders = sorted(x for x, n in seen.items() if n > 1)
    return (not offenders, offenders)


def _raise_outside(adjacencies: Iterable[Adjacency], universe: AbstractSet[int]) -> None:
    """Name the first adjacency, in iteration order, with a marker outside
    ``universe``; callers find that one exists with a check in C."""
    for adj in adjacencies:
        for m, _ in adj:
            if m not in universe:
                raise InputError(f"adjacency {fmt(adj)} uses marker {m} outside the universe")


@dataclass(frozen=True)
class Genome:
    """A consistent adjacency set over a fixed marker universe."""

    adjacencies: frozenset[Adjacency]
    markers: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "adjacencies", frozenset(self.adjacencies))
        object.__setattr__(self, "markers", frozenset(self.markers))
        # Both checks run in C; only a failing one loops for its message.
        extremities = set().union(*self.adjacencies)
        if not self.markers.issuperset(map(itemgetter(0), extremities)):
            _raise_outside(self.adjacencies, self.markers)
        if len(extremities) != 2 * len(self.adjacencies):
            ok, offenders = check_consistency(self.adjacencies)
            if not ok:
                listed = ", ".join(map(fmt, offenders))
                raise InputError(f"inconsistent adjacency set, reused extremities: {listed}")


def chromosome_adjacencies(
    markers: Iterable[int], circular: bool = False, shared: dict | None = None
) -> frozenset[Adjacency]:
    """Adjacencies of an explicitly ordered signed chromosome.

    Each signed marker is checked once; a marker next to itself is
    rejected.  ``shared`` holds the (tail, head) extremities of each
    marker id and one tuple per distinct adjacency: pass one dict to
    every call of a parse, and all its genomes hold the same objects.
    """
    shared = {} if shared is None else shared
    ends: list[tuple[Extremity, Extremity]] = []
    for signed in markers:
        if type(signed) is not int or not signed:
            raise InputError(f"signed marker ids are non-zero integers, got {signed!r}")
        m = abs(signed)
        pair = shared.get(m)
        if pair is None:
            pair = shared[m] = ((m, TAIL), (m, HEAD))
        ends.append(pair if signed > 0 else pair[::-1])
    if circular and ends:
        ends.append(ends[0])
    pairs = []
    for (_, right), (left, _) in zip(ends, ends[1:]):
        if right[0] == left[0]:
            raise InputError(f"adjacency may not join two extremities of marker {left[0]}")
        adjacency = (right, left) if right < left else (left, right)
        pairs.append(shared.setdefault(adjacency, adjacency))
    return frozenset(pairs)


def extract_cars(
    adjacencies: Iterable[Adjacency], markers: Iterable[int]
) -> list[tuple[str, tuple[int, ...]]]:
    """Decompose a consistent adjacency set over ``markers`` into CARs.

    A CAR is a ``(kind, signed markers)`` pair, kind ``"linear"`` or
    ``"circular"``, in canonical form: of both orientations (and, for a
    circle, all rotations) the smallest under (marker id, positive
    before negative).  Every marker appears in exactly one CAR; markers
    untouched by any adjacency come back as singleton linear CARs.  The
    list is sorted by kind, then first marker, so equal inputs produce
    identical output.  The cost is one pass over the sorted markers,
    plus work per adjacency and per CAR: an untouched marker becomes its
    singleton without a walk.
    """
    adjs = list(adjacencies)
    universe = set(markers)
    if universe and min(universe) < 1:
        raise InputError(f"marker ids are positive, got {min(universe)}")
    link: dict[tuple[int, int], tuple[int, int]] = dict(adjs)
    link.update(zip(map(itemgetter(1), adjs), map(itemgetter(0), adjs)))
    if len(link) != 2 * len(adjs):
        _, offenders = check_consistency(adjs)
        listed = ", ".join(map(fmt, offenders))
        raise InputError(f"cannot extract CARs, reused extremities: {listed}")
    touched = set(map(itemgetter(0), link))
    if not touched <= universe:
        _raise_outside(adjs, universe)

    def walk(marker: int, end: int) -> tuple[tuple[int, ...], bool]:
        # Enter ``marker`` at ``end``; follow internal marker connections
        # and adjacency links until a free end or back at the start.
        seq = []
        m, e = marker, end
        while True:
            seq.append(m if e == TAIL else -m)
            nxt = link.get((m, 1 - e))
            if nxt is None:
                return tuple(seq), False
            m, e = nxt
            if m == marker and e == end:
                return tuple(seq), True

    # Each walk comes out canonical because the markers are visited in
    # increasing order.  A linear run is entered at its end with the
    # smaller marker (the run's other end marker is larger), and a cycle,
    # once the linear runs are used, at its smallest marker's tail.
    used: set[int] = set()
    linear: list[tuple[str, tuple[int, ...]]] = []
    # Linear runs first: start only at free extremities, so a marker in
    # the middle of a run is never mistaken for the start of one.
    for m in sorted(universe):
        if m not in touched:  # no adjacency: a singleton, with no walk
            linear.append(("linear", (m,)))
            continue
        if m in used:
            continue
        if (m, TAIL) not in link:
            seq, _ = walk(m, TAIL)
        elif (m, HEAD) not in link:
            seq, _ = walk(m, HEAD)
        else:
            continue  # interior of a linear run, or on a cycle
        used.update(map(abs, seq))
        linear.append(("linear", seq))
    circular: list[tuple[str, tuple[int, ...]]] = []
    for m in sorted(touched - used):
        if m in used:
            continue
        seq, closed = walk(m, TAIL)
        if not closed:
            raise AssertionError(f"open walk from marker {m} left after the linear pass")
        used.update(map(abs, seq))
        circular.append(("circular", seq))
    # Each pass appends in increasing first marker, and "circular" sorts
    # before "linear".
    return circular + linear


def scj_distance(a: Genome, b: Genome) -> int:
    """Single-cut-or-join distance: size of the symmetric difference."""
    if a.markers != b.markers:
        raise InputError("scj distance needs genomes over the same marker universe")
    return len(a.adjacencies ^ b.adjacencies)


def dcj_distance(a: Genome, b: Genome) -> int:
    """Double-cut-and-join distance between two genomes.

    Computed as N - C - I/2 over the adjacency graph of ``a`` and ``b``,
    where N is the marker count, C the number of cycles and I the number
    of odd paths (odd edge count).  The vertices are the adjacencies and
    telomeres of both genomes, and each extremity is an edge from its
    vertex in ``a`` to its vertex in ``b``.  Every vertex has degree one
    or two, so a component is a cycle exactly when it has as many edges
    as vertices, and otherwise a path with one edge fewer.
    """
    if a.markers != b.markers:
        raise InputError("dcj distance needs genomes over the same marker universe")
    vertex_of: dict[tuple, tuple] = {}
    for side, genome in (("A", a), ("B", b)):
        for adj in genome.adjacencies:
            vertex_of[side, adj[0]] = vertex_of[side, adj[1]] = (side, adj)
    edges = [
        (vertex_of.get(("A", x), ("A", x)), vertex_of.get(("B", x), ("B", x)))
        for m in a.markers
        for x in ((m, TAIL), (m, HEAD))
    ]
    parent: dict[tuple, tuple] = {}

    def find(v: tuple) -> tuple:
        while (up := parent.get(v, v)) != v:
            parent[v] = v = parent.get(up, up)  # path halving
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    n_edges = Counter(find(u) for u, _ in edges)
    n_vertices = Counter(find(v) for v in {w for edge in edges for w in edge})
    cycles = sum(n_edges[r] == n_vertices[r] for r in n_edges)
    odd_paths = sum(n_edges[r] < n_vertices[r] and n_edges[r] % 2 for r in n_edges)
    if odd_paths % 2 != 0:
        raise AssertionError("odd path count must be even")
    return len(a.markers) - cycles - odd_paths // 2


@dataclass(frozen=True)
class Node:
    """One phylogeny node; ``parent`` is None exactly at the root."""

    id: int
    name: str
    parent: int | None
    children: tuple[int, ...]
    length: float | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True, eq=False)
class Phylogeny:
    """A rooted tree with named nodes and genomes attached to the leaves.

    Node ids index the ``nodes`` tuple.  ``leaf_genomes`` maps leaf id to
    :class:`Genome`; it may be empty while a tree is being assembled, but
    solving requires every leaf to carry a genome over one shared marker
    universe.
    """

    nodes: tuple[Node, ...]
    root: int
    leaf_genomes: Mapping[int, Genome] = field(default_factory=dict)
    # Traversal orders, taken once: the tree never changes.
    _preorder: tuple[int, ...] = field(init=False, repr=False)
    _edges: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    _internal: tuple[int, ...] = field(init=False, repr=False)
    _masks: tuple[int, ...] = field(init=False, repr=False)
    _postorder_items: tuple[tuple[int, tuple[int, ...], int], ...] = field(init=False, repr=False)
    _candidates: Mapping[Adjacency, int] | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "leaf_genomes", dict(self.leaf_genomes))
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise InputError(f"node ids must match positions, got {node.id} at {i}")
        roots = [n.id for n in self.nodes if n.parent is None]
        if roots != [self.root]:
            raise InputError(f"expected a single root {self.root}, found {roots}")
        for node in self.nodes:
            for c in node.children:
                if not 0 <= c < len(self.nodes) or self.nodes[c].parent != node.id:
                    raise InputError(f"child link {node.id} -> {c} is not mirrored")
            if node.parent is not None and node.id not in self.nodes[node.parent].children:
                raise InputError(f"parent link {node.id} -> {node.parent} is not mirrored")
        order: list[int] = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(self.nodes[v].children))
        if len(order) != len(self.nodes):
            raise InputError("tree has unreachable nodes")
        object.__setattr__(self, "_preorder", tuple(order))
        object.__setattr__(self, "_edges", tuple(
            (u, v) for u in order for v in self.nodes[u].children
        ))
        object.__setattr__(self, "_internal", tuple(
            v for v in reversed(order) if self.nodes[v].children
        ))
        # Leaf bits in preorder, the order of ``leaves()`` and ``candidates()``.
        bit_of = dict.fromkeys(order, 0)
        bit_of.update((v, 1 << i) for i, v in enumerate(self.leaves()))
        masks = [0] * len(self.nodes)
        for v in reversed(order):  # subtrees are disjoint, so a sum is their union
            masks[v] = bit_of[v] + sum([masks[c] for c in self.nodes[v].children])
        object.__setattr__(self, "_masks", tuple(masks))
        object.__setattr__(self, "_postorder_items", tuple(
            (v, self.nodes[v].children, bit_of[v]) for v in reversed(order)
        ))
        position = {v: p for p, v in enumerate(self._internal)}
        object.__setattr__(self, "_internal_items", tuple(
            (tuple([position[c] for c in self.nodes[v].children if c in position]),
             sum([masks[c] for c in self.nodes[v].children if c not in position]))
            for v in self._internal
        ))
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise InputError(f"duplicate node names: {', '.join(dupes)}")
        if any(not n.name for n in self.nodes):
            raise InputError("every node needs a non-empty name")
        object.__setattr__(self, "_by_name", {n.name: n.id for n in self.nodes})
        if self.leaf_genomes:
            leaf_ids = {n.id for n in self.nodes if n.is_leaf}
            if set(self.leaf_genomes) != leaf_ids:
                raise InputError("leaf_genomes must cover exactly the leaves")
            universes = {g.markers for g in self.leaf_genomes.values()}
            if len(universes) > 1:
                raise InputError("leaf genomes must share one marker universe")

    # -- traversal helpers ------------------------------------------------

    def preorder(self) -> Iterator[int]:
        return iter(self._preorder)

    def postorder_items(self) -> tuple[tuple[int, tuple[int, ...], int], ...]:
        """``(node, children, leaf bit)`` in postorder; the bit is the node's
        in :meth:`subtree_masks`, and 0 at an internal node."""
        return self._postorder_items

    def internal_items(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Per internal node, in :meth:`internal_ids` order: the positions there
        of its internal children, and the :meth:`subtree_masks` of its leaf children."""
        return self._internal_items

    def subtree_masks(self) -> tuple[int, ...]:
        """Per node id, the bitmask of the leaves of its subtree, in
        :meth:`leaves` order (that of :meth:`candidates`)."""
        return self._masks

    def edges(self) -> Iterator[tuple[int, int]]:
        """(parent, child) pairs in preorder of the parent."""
        return iter(self._edges)

    def leaves(self) -> list[int]:
        return [v for v in self._preorder if not self.nodes[v].children]

    def internal_ids(self) -> list[int]:
        """Internal node ids in postorder."""
        return list(self._internal)

    def depths(self) -> dict[int, int]:
        depth = {self.root: 0}
        for u, v in self.edges():
            depth[v] = depth[u] + 1
        return depth

    # -- lookups ----------------------------------------------------------

    def is_leaf(self, node_id: int) -> bool:
        return self.nodes[node_id].is_leaf

    def name_of(self, node_id: int) -> str:
        return self.nodes[node_id].name

    def id_of(self, name: str) -> int:
        try:
            return self._by_name[name]  # type: ignore[attr-defined]
        except KeyError:
            raise InputError(f"unknown node name {name!r}") from None

    def candidates(self) -> Mapping[Adjacency, int]:
        """Adjacencies seen in any leaf, each with the bitmask of the leaves,
        in :meth:`leaves` order, that hold it; read-only, taken once."""
        if self._candidates is None:
            if not self.leaf_genomes:
                raise InputError("cannot derive candidates: tree has no genomes attached")
            held: dict[Adjacency, int] = {}
            for leaf in self.leaves():
                bit = self._masks[leaf]
                for adjacency in self.leaf_genomes[leaf].adjacencies:
                    held[adjacency] = held.get(adjacency, 0) | bit
            object.__setattr__(self, "_candidates", MappingProxyType(held))
        return self._candidates

    @property
    def markers(self) -> frozenset[int]:
        if not self.leaf_genomes:
            raise InputError("tree has no genomes attached")
        return next(iter(self.leaf_genomes.values())).markers

    def with_genomes(self, by_name: Mapping[str, Genome]) -> "Phylogeny":
        """Return a copy with genomes attached to the leaves by name."""
        leaf_names = {self.name_of(v) for v in self.leaves()}
        missing = sorted(leaf_names - set(by_name))
        extra = sorted(set(by_name) - leaf_names)
        if missing:
            raise InputError(f"genomes missing for leaves: {', '.join(missing)}")
        if extra:
            raise InputError(f"genomes given for unknown leaves: {', '.join(extra)}")
        genomes = {self.id_of(name): g for name, g in by_name.items()}
        return Phylogeny(self.nodes, self.root, genomes)


_NO_ROW: dict[int, int] = {}


def _check_micro(micro: object) -> None:
    if not isinstance(micro, int) or not 0 <= micro <= MICRO:
        raise InputError(f"micro weight must be an integer in [0, {MICRO}], got {micro!r}")


class WeightTable:
    """Adjacency confidences per node, on the 1e-6 grid; read-only.

    ``rows`` maps each adjacency to its row, node id -> micro weight.  The
    table keeps the rows uncopied and never writes them, so several
    adjacencies may share one row object.  Each distinct row is checked
    once, and a shared row counts once per adjacency that holds it, in
    ``len`` and in ``total_micro``.  Entries absent read as weight zero.
    """

    __slots__ = ("_rows", "_totals", "_entries")

    def __init__(self, rows: Mapping[Adjacency, Mapping[int, int]] | None = None) -> None:
        self._rows = rows = {} if rows is None else rows
        held = Counter(map(id, rows.values()))
        totals: dict[int, int] = {}
        entries = 0
        for row in rows.values():
            n = held.pop(id(row), 0)  # 0 for a shared row already counted
            if n:
                entries += n * len(row)
                for v, micro in row.items():
                    _check_micro(micro)
                    totals[v] = totals.get(v, 0) + n * micro
        self._totals, self._entries = totals, entries

    def get_micro(self, node_id: int, adjacency: Adjacency) -> int:
        row = self._rows.get(adjacency)
        return 0 if row is None else row.get(node_id, 0)

    def row(self, adjacency: Adjacency) -> Mapping[int, int]:
        """Read-only view of one adjacency's entries, node id -> micro."""
        return MappingProxyType(self._rows.get(adjacency, _NO_ROW))

    def row_identities(self, adjacencies: Iterable[Adjacency]) -> list[int]:
        """Per adjacency, in order, a number that is the same for
        adjacencies that share one stored row object (every absent
        adjacency shares the empty row), fixed while the table lives."""
        get = self._rows.get
        return [id(get(a, _NO_ROW)) for a in adjacencies]

    def total_micro(self, node_id: int) -> int:
        """Sum of the stored micro weights at one node."""
        return self._totals.get(node_id, 0)

    def micro_items(self) -> list[tuple[int, Adjacency, int]]:
        """All stored entries as (node id, adjacency, micro), sorted."""
        return sorted((v, a, w) for a, row in self._rows.items() for v, w in row.items())

    def __len__(self) -> int:
        return self._entries


class ObjectiveValue(NamedTuple):
    """Exact objective of a labeling plus its two components."""

    total: Fraction
    scj_changes: int
    discarded_weight: Fraction


def labeling_objective(
    tree: Phylogeny,
    labeling: Mapping[int, AbstractSet[Adjacency]],
    weights: WeightTable,
    alpha: object,
) -> ObjectiveValue:
    """Evaluate a full labeling of the internal nodes.

    The objective is ``alpha * discarded_weight + (1 - alpha) *
    scj_changes`` where discarded weight sums, over internal nodes, the
    weight of table entries missing from that node's label, and the SCJ
    term sums symmetric differences along every tree edge (leaves count
    with their fixed genomes).  Weight entries at leaf nodes never
    contribute: leaves are not free to discard anything.
    """
    alpha = as_alpha(alpha)
    labels: dict[int, AbstractSet[Adjacency]] = {}
    for v in tree.preorder():
        if tree.is_leaf(v):
            try:
                labels[v] = tree.leaf_genomes[v].adjacencies
            except KeyError:
                raise InputError(f"leaf {tree.name_of(v)} has no genome") from None
        else:
            try:
                label = labeling[v]
            except KeyError:
                raise InputError(f"labeling misses internal node {tree.name_of(v)}") from None
            ok, offenders = check_consistency(label)
            if not ok:
                listed = ", ".join(map(fmt, offenders))
                raise InputError(
                    f"label at {tree.name_of(v)} is inconsistent, reused extremities: {listed}"
                )
            # ``^`` below takes sets; a label of another kind is frozen once.
            labels[v] = label if isinstance(label, (set, frozenset)) else frozenset(label)
    scj = 0
    for u, v in tree.edges():
        scj += len(labels[u] ^ labels[v])
    # Discarded weight is the internal nodes' total less what their labels keep.
    internal = [v for v in labels if not tree.is_leaf(v)]
    kept = sum(weights.get_micro(v, a) for v in internal for a in labels[v])
    discarded_micro = sum(weights.total_micro(v) for v in internal) - kept
    discarded = Fraction(discarded_micro, MICRO)
    total = (1 - alpha) * scj + alpha * discarded
    return ObjectiveValue(total, scj, discarded)
