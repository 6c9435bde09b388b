"""Brute-force reference implementations the tests pin values against.

Nothing in this module shares logic with the package: label spaces are
listed outright, the DCJ distance comes from breadth-first search over
whole adjacency sets, and Boltzmann marginals from summing every
scenario.  ``fitch_scj`` and ``fitch_scj_labeling``, one parsimony
sweep per adjacency, are the alpha-0 reference, and ``boltzmann_sweep``,
one inside-outside sweep per adjacency, the bit-exact reference of the
package's Boltzmann kernel.  The one exception is
``milp_optimum``, which values the point HiGHS picks with the package's
component evaluator; the enumeration oracles here pin that evaluator.
Guards assert that inputs stay small enough for that to be instant, so
an oversized test input fails loudly instead of hanging.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from scjlabel.core import (
    MICRO,
    Adjacency,
    Extremity,
    Genome,
    Node,
    Phylogeny,
    WeightTable,
    as_alpha,
    check_consistency,
    chromosome_adjacencies,
    exact_fraction,
    fmt,
)
from scjlabel.dp import evaluate_component_labeling
from scjlabel.errors import InputError, InternalInvariantError
from scjlabel.graph import Component, GlobalAdjacencyGraph, candidate_adjacencies

_INF = float("inf")

# ---------------------------------------------------------------------------
# Components linked by shared extremities alone


def union_component(graph: GlobalAdjacencyGraph, adjacency: Adjacency) -> Component:
    """Every adjacency reachable from ``adjacency`` through shared
    extremities, whatever nodes annotate them.

    This is coarser than ``connected_components``, which also asks for
    a shared node.  It is exact all the same, so tests use it to build
    large components for the solvers.
    """
    incident: dict[Extremity, list[Adjacency]] = {}
    for a in graph.edges:
        for x in a:
            incident.setdefault(x, []).append(a)
    members = {adjacency: graph.edges[adjacency]}
    queue = [adjacency]
    while queue:
        for x in queue.pop():
            for b in incident[x]:
                if b not in members:
                    members[b] = graph.edges[b]
                    queue.append(b)
    return Component(members)


def union_components(graph: GlobalAdjacencyGraph) -> list[Component]:
    """Each :func:`union_component` of the graph once, by smallest adjacency."""
    components: list[Component] = []
    seen: set[Adjacency] = set()
    for adjacency in sorted(graph.edges):
        if adjacency not in seen:
            components.append(union_component(graph, adjacency))
            seen.update(components[-1].edges)
    return components

# ---------------------------------------------------------------------------
# Label spaces


def consistent_subsets(adjacencies) -> list[frozenset[Adjacency]]:
    """Every subset of the given adjacencies in which no extremity repeats."""
    adjs = sorted(adjacencies)
    assert len(adjs) <= 16, f"oracle guard: {len(adjs)} candidate adjacencies"
    out = []
    for r in range(len(adjs) + 1):
        for combo in itertools.combinations(adjs, r):
            ends = [x for a in combo for x in a]
            if len(set(ends)) == len(ends):
                out.append(frozenset(combo))
    return out


# ---------------------------------------------------------------------------
# Component objective by full enumeration


def joint_assignment_count(component: Component, tree: Phylogeny) -> int:
    """How many joint assignments full enumeration would visit."""
    total = 1
    for v in tree.internal_ids():
        candidates = [a for a in component.sorted_edges if v in component.edges[a]]
        total *= len(consistent_subsets(candidates))
    return total


def component_profile(
    component: Component, tree: Phylogeny, weights: WeightTable
) -> list[tuple[int, int]]:
    """(scj changes, discarded micro weight) of every joint assignment.

    One entry per way of giving each internal node a consistent subset of
    the component edges annotated there.  Leaves compare with their
    genomes restricted to the component, mirroring how the per-component
    share of the full objective is defined.
    """
    internal = tree.internal_ids()
    per_node: list[list[frozenset[Adjacency]]] = []
    total = 1
    for v in internal:
        candidates = [a for a in component.sorted_edges if v in component.edges[a]]
        labels = consistent_subsets(candidates)
        per_node.append(labels)
        total *= len(labels)
    assert total <= 500_000, f"oracle guard: {total} joint assignments"

    edge_set = set(component.edges)
    fixed = {
        v: tree.leaf_genomes[v].adjacencies & edge_set for v in tree.leaves()
    }
    tree_edges = list(tree.edges())
    annotated = {
        v: [a for a in component.sorted_edges if v in component.edges[a]]
        for v in internal
    }
    profile = []
    for combo in itertools.product(*per_node):
        labels = dict(zip(internal, combo))
        labels.update(fixed)
        scj = sum(len(labels[u] ^ labels[v]) for u, v in tree_edges)
        discarded = sum(
            weights.get_micro(v, a)
            for v in internal
            for a in annotated[v]
            if a not in labels[v]
        )
        profile.append((scj, discarded))
    return profile


def profile_optimum(
    profile: list[tuple[int, int]], alpha
) -> tuple[Fraction, int]:
    """(minimum objective, co-optimum count) for one mixing factor."""
    alpha = as_alpha(alpha)
    best = None
    count = 0
    for scj, discarded in profile:
        value = (1 - alpha) * scj + alpha * Fraction(discarded, MICRO)
        if best is None or value < best:
            best, count = value, 1
        elif value == best:
            count += 1
    assert best is not None
    return best, count


def brute_component_optimum(
    component: Component, tree: Phylogeny, weights: WeightTable, alpha
) -> tuple[Fraction, int]:
    """Minimum component objective and its co-optimum count."""
    return profile_optimum(component_profile(component, tree, weights), alpha)


# ---------------------------------------------------------------------------
# Component optimum by an outside MILP solver


def milp_optimum(model) -> int:
    """Scaled optimum of an ``IlpModel``'s component as HiGHS finds it.

    The program is built here from the component and the tree; of the
    model it takes only the variable order and the packing groups.  It
    has one binary per presence, one continuous change variable per tree
    edge and component adjacency whose two ends can differ, with two rows
    ``c >= +-(parent - child)``, and one row per packing group.  HiGHS's
    vector is rounded, a point that reuses an extremity at a node is
    rejected, and the value is certified exactly by the package's
    ``evaluate_component_labeling``, so the floats only pick the point.
    """
    import numpy as np
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import coo_matrix

    tree, units = model.tree, model.units
    index = {(var.node_id, var.adjacency): j for j, var in enumerate(model.variables)}
    n = len(index)
    cost = [-units.weight_unit * var.weight_micro for var in model.variables]
    rows, cols, vals, lower, upper = [], [], [], [], []

    def row(terms, lo, hi):
        for j, value in terms:
            rows.append(len(lower))
            cols.append(j)
            vals.append(value)
        lower.append(lo)
        upper.append(hi)

    def end(v, adjacency):
        """(variable index or None, constant presence) at one node."""
        if tree.is_leaf(v):
            return None, int(adjacency in tree.leaf_genomes[v].adjacencies)
        return index.get((v, adjacency)), 0

    for u, v in tree.edges():
        for adjacency in model.component.sorted_edges:
            (pu, cu), (pv, cv) = end(u, adjacency), end(v, adjacency)
            if pu is None and pv is None and cu == cv:
                continue
            c = len(cost)
            cost.append(units.change_unit)
            # parent - child = sum(linear) + constant
            linear = [(j, s) for j, s in ((pu, 1), (pv, -1)) if j is not None]
            constant = cu - cv
            row([(c, 1)] + [(j, -s) for j, s in linear], constant, np.inf)
            row([(c, 1)] + linear, -constant, np.inf)
    for group in model.packing_groups:
        row([(j, 1) for j in group], -np.inf, 1)

    matrix = coo_matrix(
        (vals, (rows, cols)), shape=(len(lower), len(cost))
    ).tocsr()
    result = milp(
        np.array(cost, dtype=float),
        integrality=np.array([1] * n + [0] * (len(cost) - n)),
        bounds=(0, 1),
        constraints=LinearConstraint(matrix, lower, upper),
        options={"mip_rel_gap": 0},
    )
    assert result.status == 0, f"HiGHS proved no optimum: {result.message}"
    labels = {v: set() for v in tree.internal_ids()}
    for var, x in zip(model.variables, result.x[:n]):
        if round(x):
            labels[var.node_id].add(var.adjacency)
    for v, label in labels.items():
        ends = [x for adjacency in label for x in adjacency]
        assert len(set(ends)) == len(ends), f"HiGHS reused an extremity at node {v}"
    scj, discarded = evaluate_component_labeling(
        model.component, tree, model.weights,
        {v: frozenset(label) for v, label in labels.items()},
    )
    return units.scaled(scj, discarded)


# ---------------------------------------------------------------------------
# Whole-instance objective by full enumeration


def brute_instance_optimum(
    tree: Phylogeny, weights: WeightTable, alpha, threshold_x=0
) -> tuple[Fraction, int]:
    """Minimize the full objective over all thresholded labelings.

    Labels are restricted, per node, to candidate adjacencies (those seen
    in some leaf) whose weight at that node passes the threshold; the
    objective still charges every discarded table entry at internal nodes
    and compares leaves by their complete genomes.  Returns the minimum
    and the number of labelings attaining it.
    """
    alpha = as_alpha(alpha)
    x = exact_fraction(threshold_x)
    union: set[Adjacency] = set()
    for leaf in tree.leaves():
        union |= tree.leaf_genomes[leaf].adjacencies
    internal = tree.internal_ids()
    per_node: list[list[frozenset[Adjacency]]] = []
    total = 1
    for v in internal:
        allowed = [
            a for a in sorted(union)
            if Fraction(weights.get_micro(v, a), MICRO) >= x
        ]
        labels = consistent_subsets(allowed)
        per_node.append(labels)
        total *= len(labels)
    assert total <= 500_000, f"oracle guard: {total} joint labelings"

    fixed = {v: tree.leaf_genomes[v].adjacencies for v in tree.leaves()}
    tree_edges = list(tree.edges())
    table = [
        (v, a, micro)
        for v, a, micro in weights.micro_items()
        if not tree.is_leaf(v)
    ]
    best = None
    count = 0
    for combo in itertools.product(*per_node):
        labels: dict[int, frozenset[Adjacency]] = dict(zip(internal, combo))
        labels.update(fixed)
        scj = sum(len(labels[u] ^ labels[v]) for u, v in tree_edges)
        discarded = sum(micro for v, a, micro in table if a not in labels[v])
        value = (1 - alpha) * scj + alpha * Fraction(discarded, MICRO)
        if best is None or value < best:
            best, count = value, 1
        elif value == best:
            count += 1
    assert best is not None
    return best, count


# ---------------------------------------------------------------------------
# Presence histories of a single adjacency


class FitchHistory(NamedTuple):
    """One parsimonious gain/loss history of a single adjacency."""

    presence: dict[int, bool]
    changes: int


def fitch_scj(tree: Phylogeny, adjacency: Adjacency) -> FitchHistory:
    """Most parsimonious presence history for one adjacency.

    Bottom-up state costs followed by a top-down sweep.  Ties at the
    root resolve to absence; below the root, ties keep the parent state.
    This tie-breaking makes the per-adjacency histories jointly
    consistent (no two chosen adjacencies share an extremity at a node).
    """
    if not tree.leaf_genomes:
        raise InputError("fitch_scj needs genomes attached to the tree")
    cost: dict[int, list[float]] = {}
    for v in reversed(list(tree.preorder())):
        node = tree.nodes[v]
        if node.is_leaf:
            present = adjacency in tree.leaf_genomes[v].adjacencies
            cost[v] = [_INF if present else 0.0, 0.0 if present else _INF]
        else:
            c0 = c1 = 0.0
            for c in node.children:
                c0 += min(cost[c][0], cost[c][1] + 1)
                c1 += min(cost[c][1], cost[c][0] + 1)
            cost[v] = [c0, c1]
    presence: dict[int, bool] = {}
    root_cost = cost[tree.root]
    presence[tree.root] = root_cost[1] < root_cost[0]
    for u, v in tree.edges():
        parent_state = 1 if presence[u] else 0
        c_keep = cost[v][parent_state]
        c_flip = cost[v][1 - parent_state] + 1
        presence[v] = bool(parent_state if c_keep <= c_flip else 1 - parent_state)
    changes = sum(1 for u, v in tree.edges() if presence[u] != presence[v])
    best = min(root_cost)
    if changes != best:
        raise InternalInvariantError(
            f"fitch history for {fmt(adjacency)} has {changes} changes, expected {best}"
        )
    return FitchHistory(presence, changes)


def fitch_scj_labeling(tree: Phylogeny) -> tuple[dict[int, frozenset[Adjacency]], int]:
    """Per-adjacency Fitch over all candidates, assembled per node.

    Returns the internal labeling and the total change count, which is
    the unweighted SCJ optimum.  A conflict between per-adjacency
    histories would be a bug in the tie-breaking and raises.
    """
    labeling: dict[int, set[Adjacency]] = {v: set() for v in tree.internal_ids()}
    total = 0
    candidates = sorted(candidate_adjacencies(tree))
    for adjacency in candidates:
        history = fitch_scj(tree, adjacency)
        total += history.changes
        for v in labeling:
            if history.presence[v]:
                labeling[v].add(adjacency)
    for v, label in labeling.items():
        ok, offenders = check_consistency(label)
        if not ok:
            listed = ", ".join(map(fmt, offenders))
            raise InternalInvariantError(
                f"fitch labeling conflicts at {tree.name_of(v)}: {listed}"
            )
    return {v: frozenset(label) for v, label in labeling.items()}, total


def brute_min_changes(tree: Phylogeny, adjacency: Adjacency) -> int:
    """Fewest presence flips along edges with leaves clamped to genomes."""
    internal = tree.internal_ids()
    assert len(internal) <= 16, f"oracle guard: {len(internal)} internal nodes"
    state = {
        v: adjacency in tree.leaf_genomes[v].adjacencies for v in tree.leaves()
    }
    tree_edges = list(tree.edges())
    best = None
    for bits in itertools.product((False, True), repeat=len(internal)):
        state.update(zip(internal, bits))
        changes = sum(1 for u, v in tree_edges if state[u] != state[v])
        if best is None or changes < best:
            best = changes
    assert best is not None
    return best


def brute_presence_history(
    tree: Phylogeny,
    own: dict[int, tuple[int | None, int | None]],
    leaf_state: dict[int, int],
    unit: int,
) -> tuple[int, int, dict[int, int]]:
    """Every absent (0) / present (1) history of the internal nodes, listed.

    A history costs each internal node's own cost of its state, where
    ``own[v]`` is (absent, present) and None forbids a state, plus
    ``unit`` per tree edge whose ends differ; the leaves keep
    ``leaf_state``.  Returns the optimum, the number of histories that
    reach it, and the first of those with the internal nodes' states
    listed in preorder, absent before present.
    """
    internal = [v for v in tree.preorder() if not tree.is_leaf(v)]
    assert len(internal) <= 12, f"oracle guard: {len(internal)} internal nodes"
    tree_edges = list(tree.edges())
    state = dict(leaf_state)
    best, count, first = None, 0, None
    for bits in itertools.product((0, 1), repeat=len(internal)):
        state.update(zip(internal, bits))
        costs = [own[v][state[v]] for v in internal]
        if None in costs:
            continue
        cost = sum(costs) + unit * sum(state[u] != state[v] for u, v in tree_edges)
        if best is None or cost < best:
            best, count, first = cost, 1, dict(zip(internal, bits))
        elif cost == best:
            count += 1
    assert best is not None
    return best, count, first


def brute_boltzmann(
    tree: Phylogeny, adjacency: Adjacency, kt: float
) -> dict[int, float]:
    """Presence marginals from summing exp(-changes/kt) over all scenarios."""
    internal = tree.internal_ids()
    assert len(internal) <= 14, f"oracle guard: {len(internal)} internal nodes"
    state = {
        v: adjacency in tree.leaf_genomes[v].adjacencies for v in tree.leaves()
    }
    tree_edges = list(tree.edges())
    mass = {v: 0.0 for v in internal}
    total = 0.0
    for bits in itertools.product((False, True), repeat=len(internal)):
        state.update(zip(internal, bits))
        changes = sum(1 for u, v in tree_edges if state[u] != state[v])
        w = math.exp(-changes / kt)
        total += w
        for v in internal:
            if state[v]:
                mass[v] += w
    return {v: mass[v] / total for v in internal}


def _log_add(a: float, b: float) -> float:
    if a == -_INF:
        return b
    if b == -_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def boltzmann_sweep(tree: Phylogeny, adjacency: Adjacency, kt: float) -> dict[int, float]:
    """Presence marginals of one adjacency by one inside-outside sweep.

    The package computes each inside and outside pair once per distinct
    leaf sub-pattern and promises the same float operations in the same
    order as this plain sweep over the whole tree, so its weights must
    equal these exactly, with no tolerance; ``brute_boltzmann`` pins
    this sweep on small trees.
    """
    present = {v: adjacency in tree.leaf_genomes[v].adjacencies for v in tree.leaves()}
    penalty = 1.0 / float(kt)
    nodes = tree.nodes
    order = list(tree.preorder())

    up: dict[int, tuple[float, float]] = {}
    # Each child's term in its parent's inside sum, per parent state.
    message: dict[int, tuple[float, float]] = {}
    for v in reversed(order):
        children = nodes[v].children
        if not children:
            up[v] = (-_INF, 0.0) if present[v] else (0.0, -_INF)
            continue
        total0 = total1 = 0.0
        for c in children:
            c0, c1 = up[c]
            m = message[c] = (_log_add(c0, c1 - penalty), _log_add(c1, c0 - penalty))
            total0 += m[0]
            total1 += m[1]
        up[v] = (total0, total1)

    # Outside sums, needed at internal nodes only.
    down: dict[int, tuple[float, float]] = {tree.root: (0.0, 0.0)}
    for u in order:
        children = nodes[u].children
        for v in children:
            if not nodes[v].children:
                continue
            sibling0 = sibling1 = 0.0
            for w in children:
                if w != v:
                    sibling0 += message[w][0]
                    sibling1 += message[w][1]
            out0 = down[u][0] + sibling0
            out1 = down[u][1] + sibling1
            down[v] = (_log_add(out0, out1 - penalty), _log_add(out0 - penalty, out1))

    result: dict[int, float] = {}
    for v in reversed(order):
        if not nodes[v].children:
            continue
        l0 = up[v][0] + down[v][0]
        l1 = up[v][1] + down[v][1]
        if l1 == -_INF or l0 - l1 > 709.0:  # math.exp overflows above 709
            result[v] = 0.0
        elif l0 == -_INF:
            result[v] = 1.0
        else:
            result[v] = 1.0 / (1.0 + math.exp(l0 - l1))
    return result


# ---------------------------------------------------------------------------
# Distances


def _dcj_neighbors(state: frozenset[Adjacency], markers) -> list[frozenset[Adjacency]]:
    used = {x for a in state for x in a}
    free = [
        Extremity(m, end)
        for m in sorted(markers)
        for end in (0, 1)
        if Extremity(m, end) not in used
    ]
    out = []

    def join(x: Extremity, y: Extremity) -> Adjacency | None:
        # the genome model has no single-marker circles, so pairing the
        # two ends of one marker is not a reachable state
        if x[0] == y[0]:
            return None
        return Adjacency(x, y)

    adjacencies = sorted(state)
    # cut one adjacency into two telomeres
    for a in adjacencies:
        out.append(state - {a})
    # join two telomeres
    for x, y in itertools.combinations(free, 2):
        a = join(x, y)
        if a is not None:
            out.append(state | {a})
    # excise from one adjacency and rejoin with a telomere
    for a in adjacencies:
        for keep in a:
            for x in free:
                b = join(keep, x)
                if b is not None:
                    out.append((state - {a}) | {b})
    # reassort the four extremities of two adjacencies
    for a, b in itertools.combinations(adjacencies, 2):
        p, q = a
        r, s = b
        for pairing in (((p, r), (q, s)), ((p, s), (q, r))):
            new = [join(x, y) for x, y in pairing]
            if all(n is not None for n in new):
                out.append((state - {a, b}) | set(new))
    return out


def bfs_dcj_distance(a: Genome, b: Genome) -> int:
    """Fewest double-cut-and-join steps from one genome to the other,
    found by breadth-first search over adjacency sets."""
    assert len(a.markers) <= 6, f"oracle guard: {len(a.markers)} markers"
    assert a.markers == b.markers
    start = frozenset(a.adjacencies)
    goal = frozenset(b.adjacencies)
    if start == goal:
        return 0
    frontier = {start}
    seen = {start}
    distance = 0
    while frontier:
        distance += 1
        reached = set()
        for state in frontier:
            for nxt in _dcj_neighbors(state, a.markers):
                if nxt == goal:
                    return distance
                if nxt not in seen:
                    seen.add(nxt)
                    reached.add(nxt)
        frontier = reached
    raise AssertionError("DCJ search exhausted without reaching the target")


def brute_max_weight_micro(candidates, weight_of) -> int:
    """Largest total micro weight over all consistent subsets."""
    best = 0
    for subset in consistent_subsets(candidates):
        best = max(best, sum(weight_of(a) for a in subset))
    return best


# ---------------------------------------------------------------------------
# CARs by the first implementation: every orientation and rotation listed


def _orient_key(seq) -> tuple[tuple[int, int], ...]:
    # positive orientation of a marker sorts before negative
    return tuple((abs(m), 0 if m > 0 else 1) for m in seq)


def reference_car_markers(kind: str, seq: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical signed markers of a CAR: the smallest of both
    orientations (and, for a circle, of all their rotations) under
    (marker id, positive before negative)."""
    flipped = tuple(-m for m in reversed(seq))
    if kind == "linear":
        return min(seq, flipped, key=_orient_key)
    rotations = [o[s:] + o[:s] for o in (seq, flipped) for s in range(len(o))]
    return min(rotations, key=_orient_key)


def reference_extract_cars(adjacencies, markers) -> list[tuple[str, tuple[int, ...]]]:
    """CARs of a consistent adjacency set as sorted (kind, canonical
    markers) pairs, walking ``(marker, end)`` extremities step by step."""
    link: dict[Extremity, Extremity] = {}
    for a, b in adjacencies:
        assert a not in link and b not in link, "oracle guard: inconsistent set"
        link[a] = b
        link[b] = a

    def walk(start: Extremity) -> list[int]:
        seq: list[int] = []
        entry = start
        while True:
            marker, end = entry
            seq.append(marker if end == 0 else -marker)
            nxt = link.get(Extremity(marker, 1 - end))
            if nxt is None or nxt == start:
                return seq
            entry = nxt

    used: set[int] = set()
    cars: list[tuple[str, tuple[int, ...]]] = []
    for m in sorted(markers):
        tail, head = Extremity(m, 0), Extremity(m, 1)
        if m in used:
            continue
        if tail not in link:
            seq = walk(tail)
        elif head not in link:
            seq = walk(head)
        else:
            continue  # interior of a linear run, or on a cycle
        used.update(abs(s) for s in seq)
        cars.append(("linear", reference_car_markers("linear", tuple(seq))))
    for m in sorted(markers):
        if m not in used:
            seq = walk(Extremity(m, 0))
            used.update(abs(s) for s in seq)
            cars.append(("circular", reference_car_markers("circular", tuple(seq))))
    cars.sort(key=lambda car: (car[0], _orient_key(car[1])))
    return cars


# ---------------------------------------------------------------------------
# Sampled labelings, assembled one sample at a time


def per_sample_labelings(
    internal, parts, n_samples: int
) -> tuple[list[dict[int, frozenset[Adjacency]]], dict[tuple[int, Adjacency], Fraction]]:
    """Samples and their frequencies, assembled and tallied per sample.

    ``parts`` are ``(names, draws)`` per component: ``draws`` holds the
    component's ``n_samples`` sampled solutions, and its labels go in
    under ``names`` wherever a solution holds its one adjacency, or as
    they are when ``names`` is None.  Every sample unions the draw of
    every part at every internal node.  Samples that drew the same
    solution object of every part share one labeling object, and each
    (node, adjacency) is counted once per sample whose labeling holds
    it.  This is the pipeline's first sampling loop, kept as the
    reference for its per-component form.
    """
    assembled: dict[tuple[int, ...], dict[int, frozenset[Adjacency]]] = {}
    times: dict[tuple[int, ...], int] = {}
    samples = []
    for s in range(n_samples):
        picks = [draws[s] for _, draws in parts]
        key = tuple(map(id, picks))
        if key not in assembled:
            labels: dict[int, set[Adjacency]] = {v: set() for v in internal}
            for (names, _), solution in zip(parts, picks):
                for v, label in solution.node_labels.items():
                    if label:
                        labels[v].update(label if names is None else names)
            assembled[key] = {v: frozenset(label) for v, label in labels.items()}
        times[key] = times.get(key, 0) + 1
        samples.append(assembled[key])
    tally: dict[tuple[int, Adjacency], int] = {}
    for key, labeling in assembled.items():
        for v in internal:
            for a in labeling[v]:
                tally[(v, a)] = tally.get((v, a), 0) + times[key]
    return samples, {key: Fraction(n, n_samples) for key, n in tally.items()}


# ---------------------------------------------------------------------------
# Random instances


def random_topology(rng, n_leaves: int, *, non_binary: bool = False) -> Phylogeny:
    """Random rooted tree; leaves s1.., internal nodes anc1..

    The tree is binary unless ``non_binary`` is set.  Then a merge joins
    two to four subtrees, and about one merge in five is a unary node
    over one subtree (at most ``n_leaves`` of them), as Newick input
    may hold.  The binary mode draws exactly what it always drew.
    """
    assert n_leaves >= 2
    next_id = 0
    children: dict[int, list[int]] = {}
    parents: dict[int, int] = {}
    roots: list[int] = []
    for _ in range(n_leaves):
        children[next_id] = []
        roots.append(next_id)
        next_id += 1
    unary = 0
    while len(roots) > 1:
        k = 2
        if non_binary:
            if unary < n_leaves and rng.random() < 0.2:
                k, unary = 1, unary + 1
            else:
                k = rng.randint(2, min(4, len(roots)))
        merged = [roots.pop(rng.randrange(len(roots))) for _ in range(k)]
        children[next_id] = merged
        for c in merged:
            parents[c] = next_id
        roots.append(next_id)
        next_id += 1
    root = roots[0]
    order = [root]
    for v in order:
        order.extend(children[v])
    new_id = {old: i for i, old in enumerate(order)}
    names: dict[int, str] = {}
    n_leaf = n_int = 0
    for old in order:
        if children[old]:
            n_int += 1
            names[old] = f"anc{n_int}"
        else:
            n_leaf += 1
            names[old] = f"s{n_leaf}"
    nodes = tuple(
        Node(
            id=new_id[old],
            name=names[old],
            parent=None if old == root else new_id[parents[old]],
            children=tuple(new_id[c] for c in children[old]),
        )
        for old in order
    )
    return Phylogeny(nodes, 0)


def random_genome(rng, markers, *, max_chromosomes: int = 2,
                  circular_rate: float = 0.2) -> Genome:
    """Random signed arrangement of the markers into a few chromosomes."""
    ids = sorted(markers)
    rng.shuffle(ids)
    signed = [m if rng.random() < 0.5 else -m for m in ids]
    n_chromosomes = rng.randint(1, min(max_chromosomes, len(ids)))
    cuts = (
        sorted(rng.sample(range(1, len(ids)), n_chromosomes - 1))
        if n_chromosomes > 1
        else []
    )
    adjacencies: set[Adjacency] = set()
    previous = 0
    for cut in cuts + [len(ids)]:
        piece = signed[previous:cut]
        previous = cut
        circular = len(piece) >= 2 and rng.random() < circular_rate
        adjacencies |= chromosome_adjacencies(piece, circular=circular)
    return Genome(frozenset(adjacencies), frozenset(markers))


def random_instance(
    rng, *, n_leaves: int, n_markers: int, non_binary: bool = False
) -> Phylogeny:
    """Random topology (see :func:`random_topology`) with a random genome at every leaf."""
    topology = random_topology(rng, n_leaves, non_binary=non_binary)
    markers = frozenset(range(1, n_markers + 1))
    genomes = {
        topology.name_of(v): random_genome(rng, markers)
        for v in topology.leaves()
    }
    return topology.with_genomes(genomes)


def random_weights(rng, tree: Phylogeny, *, zero_rate: float = 0.2) -> WeightTable:
    """Random micro-grid weights for every (internal node, candidate) pair."""
    union: set[Adjacency] = set()
    for leaf in tree.leaves():
        union |= tree.leaf_genomes[leaf].adjacencies
    rows: dict[Adjacency, dict[int, int]] = {}
    for v in tree.internal_ids():
        for adjacency in sorted(union):
            if rng.random() < zero_rate:
                continue
            rows.setdefault(adjacency, {})[v] = rng.randint(0, MICRO)
    return WeightTable(rows)
