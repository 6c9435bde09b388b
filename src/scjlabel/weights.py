"""Adjacency weights: Boltzmann posteriors and file I/O.

Weights express per-node confidence that a candidate adjacency is
ancestral.  They can be loaded from a TSV file or computed here from the
leaf presence pattern of each adjacency under a Boltzmann ensemble over
gain/loss histories.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Iterator

from .core import (
    MICRO,
    Adjacency,
    Extremity,
    Phylogeny,
    WeightTable,
    exact_fraction,
    fmt,
    quantize_weight,
    quoted,
)
from .errors import InputError
from .graph import candidate_adjacencies

_INF = float("inf")
#: ``math.exp`` overflows above this; a presence that much less likely weighs 0.
_EXP_MAX = 709.0


def _log_add(a: float, b: float) -> float:
    if a == -_INF:
        return b
    if b == -_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def boltzmann_weights(tree: Phylogeny, adjacency: Adjacency, kt: float) -> dict[int, float]:
    """Posterior presence probability of one adjacency at each internal node.

    A scenario assigns presence to every internal node (leaves are
    clamped to their genomes); its energy is the number of state changes
    along tree edges, every edge counting one unit regardless of branch
    length.  Scenarios are weighted by ``exp(-changes / kt)`` and the
    returned weight is the probability mass of scenarios with presence.
    Computed in log space by an inside-outside sweep, so tiny ``kt``
    does not underflow.
    """
    _check_boltzmann_inputs(tree, kt)
    pattern = tree.candidates().get(adjacency, 0)
    return {v: weights[pattern] for v, weights in _posteriors(tree, [pattern], kt)}


def check_kt(kt: object) -> None:
    """Reject a Boltzmann temperature that is not a finite positive number."""
    if isinstance(kt, bool) or not (isinstance(kt, (int, float)) and 0 < kt < _INF):
        raise InputError(f"temperature kT (--kt) must be a finite positive number, got {kt!r}")


def _check_boltzmann_inputs(tree: Phylogeny, kt: float) -> None:
    check_kt(kt)
    if not tree.leaf_genomes:
        raise InputError("Boltzmann weights need genomes attached to the tree")


def _posteriors(
    tree: Phylogeny, patterns: Iterable[int], kt: float
) -> Iterator[tuple[int, dict[int, float]]]:
    """The inside-outside sweep of :func:`boltzmann_weights` for each leaf
    pattern (a bitmask in ``tree.leaves()`` order): per internal node, in
    preorder, the node and its weight under each pattern.

    A node's inside pair depends only on the pattern within its subtree,
    and its outside pair only on the pattern outside it, so each pair is
    computed once per distinct sub-pattern, and each pattern's weight at
    a node combines one of each.  Every pair takes the float operations
    of a sweep of one pattern, in the same order: children in order,
    sums from 0.0, the sibling sum before the parent's outside term.
    Each weight is the same float as that sweep's.  Each table is
    dropped after its last use, so few outside tables live at once.
    """
    penalty = 1.0 / float(kt)
    patterns = set(patterns)
    nodes = tree.nodes
    masks = tree.subtree_masks()

    # Per node, sub-pattern -> the node's term in its parent's inside sum,
    # per parent state; and per internal node, sub-pattern -> inside pair.
    message: dict[int, dict[int, tuple[float, float]]] = {}
    up: dict[int, dict[int, tuple[float, float]]] = {}
    for v, children, _ in tree.postorder_items():
        mask = masks[v]
        keys = {p & mask for p in patterns}
        if children:
            pairs = up[v] = {}
            for key in keys:
                total0 = total1 = 0.0
                for c in children:
                    m0, m1 = message[c][key & masks[c]]
                    total0 += m0
                    total1 += m1
                pairs[key] = (total0, total1)
        else:
            pairs = {key: (-_INF, 0.0) if key else (0.0, -_INF) for key in keys}
        message[v] = {
            key: (_log_add(c0, c1 - penalty), _log_add(c1, c0 - penalty))
            for key, (c0, c1) in pairs.items()
        }

    # Per internal node, sub-pattern outside its subtree -> outside pair.
    everything = masks[tree.root]
    down: dict[int, dict[int, tuple[float, float]]] = {tree.root: {0: (0.0, 0.0)}}
    for u in reversed(tree.internal_ids()):  # preorder
        children = nodes[u].children
        inside, outside_u = masks[u], everything ^ masks[u]
        up_u, down_u = up.pop(u), down.pop(u)
        for v in children:
            if not nodes[v].children:
                continue
            outside = everything ^ masks[v]
            pairs = down[v] = {}
            for key in {p & outside for p in patterns}:
                sibling0 = sibling1 = 0.0
                for w in children:
                    if w != v:
                        m0, m1 = message[w][key & masks[w]]
                        sibling0 += m0
                        sibling1 += m1
                d0, d1 = down_u[key & outside_u]
                out0 = d0 + sibling0
                out1 = d1 + sibling1
                pairs[key] = (_log_add(out0, out1 - penalty), _log_add(out0 - penalty, out1))
        for v in children:
            del message[v]  # its last use: as a sibling term above
        weights: dict[int, float] = {}
        for p in patterns:
            u0, u1 = up_u[p & inside]
            d0, d1 = down_u[p & outside_u]
            l0 = u0 + d0
            l1 = u1 + d1
            if l1 == -_INF or l0 - l1 > _EXP_MAX:
                weights[p] = 0.0
            elif l0 == -_INF:
                weights[p] = 1.0
            else:
                weights[p] = 1.0 / (1.0 + math.exp(l0 - l1))
        yield u, weights


def boltzmann_weight_table(tree: Phylogeny, kt: float) -> WeightTable:
    """Boltzmann weights of every candidate at every internal node,
    computed once per distinct leaf pattern (see :func:`_posteriors`)."""
    _check_boltzmann_inputs(tree, kt)
    pattern_of = candidate_adjacencies(tree)
    internal = sorted(tree.internal_ids())
    rows = {pattern: dict.fromkeys(internal) for pattern in set(pattern_of.values())}
    micro_of: dict[float, int] = {}  # each distinct weight quantized once
    for v, weights in _posteriors(tree, rows, kt):
        for pattern, w in weights.items():
            micro = micro_of.get(w)
            if micro is None:
                micro = micro_of[w] = quantize_weight(w)
            rows[pattern][v] = micro
    # Candidates with one leaf pattern share that pattern's row object.
    return WeightTable({adjacency: rows[pattern] for adjacency, pattern in pattern_of.items()})


def load_weight_table(path: str | Path, tree: Phylogeny) -> WeightTable:
    """Read a weight TSV: node name, extremity, extremity, weight in [0, 1].

    Whitespace around a column is ignored.  Node names must exist in the
    tree and markers in its universe.  A pair is one adjacency in either
    orientation, and a second row for it at one node is rejected.  Every
    error message carries the offending line number.

    Each distinct column text is checked once: it enters its cache only
    after every check on it has passed, so a bad text still fails at the
    first line that holds it.
    """
    if not tree.leaf_genomes:
        raise InputError("load_weight_table needs genomes attached to the tree")
    universe = tree.markers
    rows: dict[Adjacency, dict[int, int]] = {}
    # Raw column text -> its checked node id, adjacency row or micro weight.
    node_of: dict[str, int] = {}
    row_of: dict[tuple[str, str], dict[int, int]] = {}
    micro_of: dict[str, int] = {}
    shared: dict[Extremity, Extremity] = {}  # one tuple per extremity
    path = Path(path)
    for lineno, line in _numbered_lines(path):
        stripped = line.lstrip()
        if not stripped or stripped[0] == "#":
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise InputError(
                f"{path}:{lineno}: expected 4 tab-separated columns, got {len(parts)}"
            )
        name, ext_a, ext_b, weight_text = parts
        try:
            node = node_of.get(name)
            if node is None:
                node = node_of[name] = tree.id_of(name.strip())
            row = row_of.get((ext_a, ext_b))
            if row is None:
                a = Extremity.parse(ext_a)
                b = Extremity.parse(ext_b)
                for m, _ in (a, b):
                    if m not in universe:
                        raise InputError(f"unknown marker {m}")
                adjacency = Adjacency(shared.setdefault(a, a), shared.setdefault(b, b))
                # Both orientations of a pair share the adjacency's one row.
                row = row_of[ext_a, ext_b] = rows.setdefault(adjacency, {})
            micro = micro_of.get(weight_text)
            if micro is None:
                try:
                    weight = exact_fraction(weight_text.strip())
                except InputError:
                    raise InputError(f"bad weight {quoted(weight_text.strip())}") from None
            if node in row:
                adjacency = Adjacency.of(ext_a, ext_b)
                raise InputError(f"duplicate weight for {name.strip()} {fmt(adjacency)}")
            if micro is None:
                micro = micro_of[weight_text] = quantize_weight(weight)
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        row[node] = micro
    return WeightTable(rows)


def _numbered_lines(path: Path):
    """Numbered lines of a UTF-8 file; a file that cannot be read is an input error."""
    try:
        with path.open("r", encoding="utf-8") as handle:
            yield from enumerate(handle, start=1)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def write_weight_table(path: str | Path, tree: Phylogeny, table: WeightTable) -> None:
    """Write a weight TSV with one row per stored entry, sorted."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as handle:
        for node, (x, y), micro in table.micro_items():
            handle.write(f"{tree.name_of(node)}\t{fmt(x)}\t{fmt(y)}\t{micro / MICRO:.6f}\n")
