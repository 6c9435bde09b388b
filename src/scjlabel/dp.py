"""Exact component solver: joint-label dynamic programming over the tree.

A joint label at a node assigns to every extremity of the component one
incident annotated adjacency or nothing, with both ends of a chosen
adjacency agreeing; valid labels are exactly the matchings of the
component edges annotated at that node.  Costs combine per edge as
``(1 - alpha) * |symmetric difference|`` plus each node's discarded
weight, all on an exact integer grid scaled by ``alpha.denominator *
1e6``.  The same table supports counting co-optimal labelings exactly
and sampling them uniformly.  A one-adjacency component fills the same
table by the two-state (absent/present) presence sweep, with the same
tie rule; branch and bound bounds with that sweep too.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Callable, Mapping, Sequence

from .core import Adjacency, ObjectiveUnits, Phylogeny, WeightTable, fmt, objective_units
from .errors import CapacityExceeded, InputError, InternalInvariantError
from .graph import Component

#: Components are routed away from the DP when the square of their label
#: space bound exceeds this (pairwise label comparisons dominate).
DEFAULT_EXPLOSION_CAP = 10**7

_EMPTY: frozenset[Adjacency] = frozenset()


@dataclass(frozen=True)
class ComponentSolution:
    """One optimal (or sampled co-optimal) labeling of a component.

    Both exact routes return it: the DP fills ``cooptimal_count`` and
    leaves ``nodes_explored`` None, branch and bound does the reverse.
    """

    node_labels: dict[int, frozenset[Adjacency]]
    objective: Fraction
    objective_scaled: int
    scale: int
    scj_changes: int
    discarded_micro: int
    cooptimal_count: int | None
    nodes_explored: int | None


@dataclass(frozen=True, eq=False)
class DpTable:
    """Per-node label lists with subtree costs and co-optimum counts.

    Labels are bitmasks over ``edge_order``; ``cost[v][i]`` already
    includes node ``v``'s own discarded-weight term, so the root row
    minimum is the component optimum.
    """

    component: Component
    tree: Phylogeny
    weights: WeightTable
    units: ObjectiveUnits
    edge_order: tuple[Adjacency, ...]
    labels: dict[int, list[int]]
    cost: dict[int, list[int]]
    count: dict[int, list[int]]

    @property
    def optimum_scaled(self) -> int:
        return min(self.cost[self.tree.root])

    @cached_property
    def present_label(self) -> frozenset[Adjacency]:
        """The label that holds every edge; made once per table."""
        return frozenset(self.edge_order)


def _conflict_masks(edges: Sequence[Adjacency]) -> list[int]:
    conflicts = [0] * len(edges)
    for i, e in enumerate(edges):
        for j in range(i + 1, len(edges)):
            f = edges[j]
            if set(e) & set(f):
                conflicts[i] |= 1 << j
                conflicts[j] |= 1 << i
    return conflicts


def _matching_masks(edge_indices: Sequence[int], conflicts: Sequence[int]) -> list[int]:
    """All matchings (as bitmasks) over the given edge indices, ascending."""
    masks = [0]
    for i in edge_indices:
        bit = 1 << i
        conflict = conflicts[i]
        masks.extend([m | bit for m in masks if not m & conflict])
    masks.sort()
    return masks


def solve_component(
    component: Component,
    tree: Phylogeny,
    weights: WeightTable,
    alpha: object,
    *,
    explosion_cap: int = DEFAULT_EXPLOSION_CAP,
) -> tuple[ComponentSolution, DpTable]:
    """Optimal labeling of one component by bottom-up DP.

    Raises :class:`CapacityExceeded` when the squared label space bound
    exceeds ``explosion_cap``; such components belong to the
    branch-and-bound solver instead.
    """
    units = objective_units(alpha)
    bound = component.label_space_bound
    if bound * bound > explosion_cap:
        raise CapacityExceeded(
            f"label space bound {bound} squared exceeds cap {explosion_cap}"
        )
    if not tree.leaf_genomes:
        raise InputError("solve_component needs genomes attached to the tree")
    solve = _sweep if len(component.edges) == 1 else _solve_joint
    return solve(component, tree, weights, units)


def _solve_joint(
    component: Component, tree: Phylogeny, weights: WeightTable, units: ObjectiveUnits
) -> tuple[ComponentSolution, DpTable]:
    """The joint-label DP over the matchings at every node."""
    unit = units.change_unit
    wunit = units.weight_unit

    edges = component.sorted_edges
    conflicts = _conflict_masks(edges)
    # Per internal node, (edge index, micro weight) of the edges it annotates.
    annotated: dict[int, list[tuple[int, int]]] = {v: [] for v in tree.internal_ids()}
    for i, e in enumerate(edges):
        row = weights.row(e)
        for v in component.edges[e]:
            if v in annotated:
                annotated[v].append((i, row.get(v, 0)))

    candidates = tree.candidates()
    held = [(candidates.get(e, 0), 1 << i) for i, e in enumerate(edges)]
    labels: dict[int, list[int]] = {}
    cost: dict[int, list[int]] = {}
    count: dict[int, list[int]] = {}
    for v, children, leaf_bit in tree.postorder_items():
        if not children:
            labels[v], cost[v], count[v] = [sum([b for m, b in held if m & leaf_bit])], [0], [1]
            continue
        here = annotated[v]
        node_labels = _matching_masks([i for i, _ in here], conflicts)
        total_micro = sum(micro for _, micro in here)
        node_cost = []
        node_count = []
        for mask in node_labels:
            kept = sum(micro for i, micro in here if mask >> i & 1)
            c = wunit * (total_micro - kept)
            ways = 1
            for child in children:
                child_labels = labels[child]
                child_cost = cost[child]
                best = None
                best_ways = 0
                for j, child_mask in enumerate(child_labels):
                    t = child_cost[j] + unit * (mask ^ child_mask).bit_count()
                    if best is None or t < best:
                        best = t
                        best_ways = count[child][j]
                    elif t == best:
                        best_ways += count[child][j]
                c += best
                ways *= best_ways
            node_cost.append(c)
            node_count.append(ways)
        labels[v] = node_labels
        cost[v] = node_cost
        count[v] = node_count

    table = DpTable(component, tree, weights, units, edges, labels, cost, count)
    chosen = _walker(table)(lambda v, arg, *_: arg[0])
    return _finish_solution(table, chosen, count_cooptimal(table)), table


def _sweep(
    component: Component, tree: Phylogeny, weights: WeightTable, units: ObjectiveUnits
) -> tuple[ComponentSolution, DpTable]:
    """:func:`_solve_joint`'s table and labeling of one adjacency: absent (0) or present (1)."""
    ((adjacency, annotating),) = component.edges.items()
    unit, row = units.change_unit, weights.row(adjacency)
    items, internal = tree.internal_items(), tree.internal_ids()
    held = tree.candidates().get(adjacency, 0)
    own = [(c0 + units.weight_unit * row.get(v, 0), c1) if v in annotating else (c0, FORBIDDEN)
           for v, (c0, c1) in zip(internal, leaf_costs(items, held, unit))]
    down = presence_sweep(items, own, unit)
    zero, one = [0], [1]  # a leaf's label, cost and count; shared by the leaves
    labels = {v: one if held & bit else zero for v, kids, bit in tree.postorder_items() if not kids}
    cost, count = dict.fromkeys(labels, zero), dict.fromkeys(labels, one)  # as in DpTable
    for v, (c0, c1), (n0, n1) in zip(internal, down, presence_counts(items, down, unit)):
        if v in annotating:
            labels[v], cost[v], count[v] = [0, 1], [c0, c1], [n0, n1]
        else:  # held absent
            labels[v], cost[v], count[v] = zero, [c0], [n0]
    chosen = dict(zip(internal, presence_states(items, down, unit)))
    table = DpTable(component, tree, weights, units, (adjacency,), labels, cost, count)
    return _finish_solution(table, chosen, count_cooptimal(table)), table


# ---------------------------------------------------------------------------
# The presence sweep of one adjacency, absent (0) or present (1), over
# ``Phylogeny.internal_items()``; own costs hold the leaf children's changes.

#: An own cost that forbids its state; above every cost a state can reach.
FORBIDDEN = 1 << 62

Items = Sequence[tuple[tuple[int, ...], int]]
Pairs = list[tuple[int, int]]


def leaf_costs(items: Items, held: int, unit: int) -> Pairs:
    """Each node's changes to its leaf children, absent and present, given
    the bitmask ``held`` of the leaves that hold the adjacency."""
    return [(unit * (held & m).bit_count(), unit * (m & ~held).bit_count()) for _, m in items]


def presence_sweep(items: Items, own: Sequence[tuple[int, int]], unit: int) -> Pairs:
    """Each node's cheapest subtree cost, absent and present, from the own
    costs of its subtree; a change costs ``unit``.  A :data:`FORBIDDEN` own
    cost forbids its state, as long as every node allows one."""
    down: Pairs = []
    for (children, _), (c0, c1) in zip(items, own):
        for c in children:
            b0, b1 = down[c]
            c0 += b0 if b0 <= b1 + unit else b1 + unit
            c1 += b1 if b1 <= b0 + unit else b0 + unit
        down.append((c0, c1))
    return down


def presence_counts(items: Items, down: Pairs, unit: int) -> Pairs:
    """The number of cheapest histories behind each of :func:`presence_sweep`'s costs."""
    ways: Pairs = []
    for children, _ in items:
        n0 = n1 = 1
        for c in children:
            (b0, b1), (m0, m1) = down[c], ways[c]
            n0 *= m0 if b0 < b1 + unit else m1 if b1 + unit < b0 else m0 + m1
            n1 *= m1 if b1 < b0 + unit else m0 if b0 + unit < b1 else m0 + m1
        ways.append((n0, n1))
    return ways


def presence_states(items: Items, down: Pairs, unit: int) -> list[int]:
    """Each node's cheapest state given its parent's, root first; absent on every tie."""
    b0, b1 = down[-1]
    states = [0] * len(down)
    states[-1] = int(b1 < b0)
    for p in range(len(down) - 1, -1, -1):  # parents before children
        up = states[p]
        for c in items[p][0]:
            b0, b1 = down[c]
            states[c] = int(b1 + unit * (1 - up) < b0 + unit * up)
    return states


def _evaluate_one(table: DpTable, chosen: Mapping[int, int]) -> tuple[int, int]:
    """:func:`evaluate_component_labeling` of a one-adjacency labeling,
    given as its state (0 absent, 1 present) at each internal node.

    Leaves take their states from their genomes.  Presence at a node
    that does not annotate the adjacency is an internal fault.
    """
    ((adjacency, annotating),) = table.component.edges.items()
    tree, row = table.tree, table.weights.row(adjacency)
    state: dict[int, bool] = {}
    for v, children, _ in tree.postorder_items():
        if not children:
            state[v] = adjacency in tree.leaf_genomes[v].adjacencies
        elif chosen[v] and v not in annotating:
            raise InternalInvariantError(f"{fmt(adjacency)} held at unannotated {tree.name_of(v)}")
        else:
            state[v] = bool(chosen[v])
    scj = sum([state[u] != state[v] for u, v in tree.edges()])
    return scj, sum([row.get(v, 0) for v in annotating if not state[v]])


def presence_signature(
    held: int, nodes: frozenset[int], row: Mapping[int, int]
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """All that the DP table of a one-adjacency component depends on,
    besides the tree and alpha.

    That is ``held``, the bitmask of the leaves that hold the adjacency
    (see :func:`graph.candidate_adjacencies`), and its micro weight in
    ``row`` at each of ``nodes``, the nodes that annotate it.  Two such
    components with equal signatures have the same labels, costs and
    counts, and a labeling of one is a labeling of the other, of equal
    value, once the adjacency is renamed.
    """
    return held, tuple([(v, row.get(v, 0)) for v in sorted(nodes)])


def _mask_to_set(mask: int, edges: Sequence[Adjacency]) -> frozenset[Adjacency]:
    return frozenset(edges[i] for i in range(len(edges)) if mask >> i & 1)


def _child_argmin(table: DpTable, child: int, parent_mask: int) -> list[int]:
    unit = table.units.change_unit
    best = None
    arg: list[int] = []
    for j, child_mask in enumerate(table.labels[child]):
        t = table.cost[child][j] + unit * (parent_mask ^ child_mask).bit_count()
        if best is None or t < best:
            best = t
            arg = [j]
        elif t == best:
            arg.append(j)
    return arg


def _walker(table: DpTable) -> Callable[..., dict[int, int]]:
    """A function ``walk(pick, chosen=None, k=0)`` that fills ``chosen``, a
    label mask per internal node, from step ``k`` on: the root, then down
    the tree edges.  A step with one co-optimal label takes it; at any
    other, ``pick(v, arg, k, chosen)`` picks one of node ``v``'s co-optimal
    label indices ``arg``.  The walks of one walker share their argmin
    lists, each computed at its first (node, parent label)."""
    tree, labels = table.tree, table.labels
    root_costs = table.cost[tree.root]
    best = min(root_costs)
    steps = [(None, tree.root)] + [(u, v) for u, v in tree.edges() if not tree.is_leaf(v)]
    argmins = {(tree.root, None): [i for i, c in enumerate(root_costs) if c == best]}

    def walk(pick: Callable, chosen: dict | None = None, k: int = 0) -> dict[int, int]:
        chosen = {} if chosen is None else chosen
        for k in range(k, len(steps)):
            u, v = steps[k]
            arg = argmins.get(key := (v, chosen.get(u)))
            if arg is None:
                arg = argmins[key] = _child_argmin(table, v, chosen[u])
            chosen[v] = labels[v][arg[0] if len(arg) == 1 else pick(v, arg, k, chosen)]
        return chosen

    return walk


def _finish_solution(
    table: DpTable,
    chosen_mask: dict[int, int],
    cooptimal_count: int,
) -> ComponentSolution:
    tree = table.tree
    edges = table.edge_order
    if len(edges) == 1:
        held = (_EMPTY, table.present_label)  # by mask
        node_labels = {v: held[chosen_mask[v]] for v in tree.internal_ids()}
        scj, discarded = _evaluate_one(table, chosen_mask)
    else:
        # The empty label, that of most nodes, is shared.
        node_labels = {
            v: _mask_to_set(mask, edges) if (mask := chosen_mask[v]) else _EMPTY
            for v in tree.internal_ids()
        }
        scj, discarded = evaluate_component_labeling(
            table.component, tree, table.weights, node_labels
        )
    scaled = table.units.scaled(scj, discarded)
    if scaled != table.optimum_scaled:
        raise InternalInvariantError(
            f"labeling re-evaluates to {scaled}, table optimum is {table.optimum_scaled}"
        )
    return ComponentSolution(
        node_labels=node_labels,
        objective=Fraction(scaled, table.units.scale),
        objective_scaled=scaled,
        scale=table.units.scale,
        scj_changes=scj,
        discarded_micro=discarded,
        cooptimal_count=cooptimal_count,
        nodes_explored=None,
    )


def count_cooptimal(table: DpTable) -> int:
    """Exact number of co-optimal labelings of the component."""
    root = table.tree.root
    best = min(table.cost[root])
    return sum(n for c, n in zip(table.cost[root], table.count[root]) if c == best)


def sample_component(
    table: DpTable, n_samples: int, seed: int
) -> list[ComponentSolution]:
    """Draw labelings uniformly from the co-optimal set of a solved component.

    Sampling is top-down: the root label is drawn with probability
    proportional to its subtree co-optimum count, then each child's
    argmin label likewise; a choice with more than one option takes one
    ``randrange`` over its summed counts and bisects the running totals.
    Given the same seed the byte sequence of samples is identical across
    runs and platforms.

    The draws so far form a trie: an inner node is a choice point, with
    its running totals and one child per drawn position; a leaf is one
    finished, re-checked labeling, shared by the samples that reach it
    (do not mutate it).  A sample draws down the trie and, where it
    leaves it, walks on from that choice point, so it costs its draws and
    at most one walk.  A single co-optimum is walked once and drawn never.
    """
    if n_samples < 0:
        raise InputError(f"n_samples must be non-negative, got {n_samples}")
    cooptimal = count_cooptimal(table)
    rng = random.Random(seed)
    count, labels, walk = table.count, table.labels, _walker(table)
    at: list = [top := [None], 0]  # the slot a walk fills next; top holds the trie

    def grow(v: int, arg: list[int], k: int, chosen: dict[int, int]) -> int:
        # A new choice point, put in the slot and drawn from.  A walk on from it
        # keeps this walk's ``chosen`` before step k, and rewrites the rest.
        totals = list(accumulate([count[v][j] for j in arg]))
        choice = at[0][at[1]] = (totals, [None] * len(arg), v, arg, k, chosen)
        at[:] = choice[1], bisect_right(totals, rng.randrange(totals[-1]))
        return arg[at[1]]

    samples = []
    for _ in range(n_samples):
        children, i, node = top, 0, top[0]
        while type(node) is tuple:  # a choice point
            choice, children = node, node[1]
            i = bisect_right(node[0], rng.randrange(node[0][-1]))
            node = children[i]
        if node is None:  # new draws: walk on from where the trie ends
            at[:] = children, i
            if children is top:
                chosen = walk(grow)
            else:
                _, _, v, arg, k, above = choice
                chosen = walk(grow, {**above, v: labels[v][arg[i]]}, k + 1)
            node = at[0][at[1]] = _finish_solution(table, chosen, cooptimal)
        samples.append(node)
    return samples


def evaluate_component_labeling(
    component: Component,
    tree: Phylogeny,
    weights: WeightTable,
    node_labels: Mapping[int, frozenset[Adjacency]],
) -> tuple[int, int]:
    """Re-evaluate a component labeling from scratch.

    Returns (scj change count, discarded micro weight), both restricted
    to the component: leaves count with their genomes intersected with
    the component's edges, and the weight term sums over annotated
    (node, adjacency) pairs only.
    """
    edge_set = set(component.edges)
    labels: dict[int, frozenset[Adjacency]] = {}
    for v in tree.preorder():
        if not tree.nodes[v].children:
            labels[v] = frozenset(tree.leaf_genomes[v].adjacencies & edge_set)
        else:
            if v not in node_labels:
                raise InputError(f"no label supplied for {tree.name_of(v)}")
            label = frozenset(node_labels[v])
            if not label <= edge_set:
                raise InputError("label uses adjacencies outside the component")
            unannotated = label and [a for a in label if v not in component.edges[a]]
            if unannotated:
                raise InputError(
                    f"label of {tree.name_of(v)} holds {fmt(min(unannotated))}, which"
                    " the component does not annotate there"
                )
            labels[v] = label
    scj = sum([len(labels[u] ^ labels[v]) for u, v in tree.edges()])
    discarded = 0
    for adjacency, nodes in component.edges.items():
        for v in nodes:
            if adjacency not in labels[v]:
                discarded += weights.get_micro(v, adjacency)
    return scj, discarded
