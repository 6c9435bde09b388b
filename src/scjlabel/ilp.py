"""Per-adjacency presence model of a component plus a branch-and-bound solver.

The model has one binary presence variable per (internal node,
adjacency annotated there), indexed by adjacency: the nodes that hold a
variable for it and the leaves that hold it fixed.  Per-extremity
packing groups keep every node's choice a matching, so the feasible
points are exactly the consistent labelings, valued by the component
objective of :func:`scjlabel.dp.evaluate_component_labeling`.

Branch and bound works on the presence variables only.  Its bound is a
Lagrangian relaxation of the matching constraints (Held, Wolfe &
Crowder 1974; Fisher 1981): each packing group has an integer
multiplier, fitted once at the root by subgradient steps, that every
presence of the group pays while the group can still be violated.  The
rest splits into one exact presence problem per adjacency on the tree.
The search branches only inside packing groups that can still be
violated, absence branch first, with conflicting variables fixed
eagerly; a group that can no longer be violated drops its multiplier,
and where no group can be, the bound is exact.  A search that visits
more than ``NODE_BUDGET`` nodes is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    MICRO,
    Adjacency,
    Extremity,
    ObjectiveUnits,
    Phylogeny,
    WeightTable,
    check_consistency,
    fmt,
    objective_units,
)
from .errors import CapacityExceeded, InputError, InternalInvariantError
from .graph import Component
from .dp import ComponentSolution, evaluate_component_labeling


@dataclass(frozen=True)
class PresenceVar:
    """Binary variable: adjacency kept at an internal node."""

    node_id: int
    adjacency: Adjacency
    weight_micro: int


@dataclass(frozen=True, eq=False)
class IlpModel:
    """Scaled-integer presence model of one component at a fixed alpha.

    ``adjacencies`` are the component's edges in sorted order.  For the
    adjacency at index ``ai``, ``var_at[ai]`` maps each internal node
    where it is annotated to its variable's index; the leaves that hold
    it are those of ``tree.candidates()``.  Variable ``j`` belongs to
    adjacency ``adjacency_of_var[j]``.
    """

    component: Component
    tree: Phylogeny
    weights: WeightTable
    units: ObjectiveUnits
    variables: tuple[PresenceVar, ...]
    packing_groups: tuple[tuple[int, ...], ...]
    adjacencies: tuple[Adjacency, ...]
    var_at: tuple[dict[int, int], ...]
    adjacency_of_var: tuple[int, ...]

    def node_labels(self, vector: Sequence[int]) -> dict[int, frozenset[Adjacency]]:
        labels: dict[int, set[Adjacency]] = {
            v: set() for v in self.tree.internal_ids()
        }
        for var, value in zip(self.variables, vector):
            if value:
                labels[var.node_id].add(var.adjacency)
        return {v: frozenset(s) for v, s in labels.items()}


def build_model(
    component: Component,
    tree: Phylogeny,
    weights: WeightTable,
    alpha: object,
) -> IlpModel:
    """Assemble the presence model of one component.

    Variables go by (depth, node id), then by adjacency; packing groups
    go by node in the same order, then by extremity.
    """
    units = objective_units(alpha)
    if not tree.leaf_genomes:
        raise InputError("build_model needs genomes attached to the tree")
    depths = tree.depths()
    adjacencies = component.sorted_edges
    annotated: dict[int, list[int]] = {v: [] for v in tree.internal_ids()}
    for ai, adjacency in enumerate(adjacencies):
        for v in component.edges[adjacency]:
            annotated[v].append(ai)

    variables: list[PresenceVar] = []
    var_at: list[dict[int, int]] = [{} for _ in adjacencies]
    adjacency_of_var: list[int] = []
    groups: list[tuple[int, ...]] = []
    for v in sorted(annotated, key=lambda v: (depths[v], v)):
        incident: dict[Extremity, list[int]] = {}
        for ai in annotated[v]:
            adjacency = adjacencies[ai]
            j = len(variables)
            variables.append(PresenceVar(v, adjacency, weights.get_micro(v, adjacency)))
            var_at[ai][v] = j
            adjacency_of_var.append(ai)
            for x in adjacency:
                incident.setdefault(x, []).append(j)
        groups.extend(
            tuple(incident[x]) for x in sorted(incident) if len(incident[x]) >= 2
        )

    return IlpModel(
        component=component,
        tree=tree,
        weights=weights,
        units=units,
        variables=tuple(variables),
        packing_groups=tuple(groups),
        adjacencies=adjacencies,
        var_at=tuple(var_at),
        adjacency_of_var=tuple(adjacency_of_var),
    )


# ---------------------------------------------------------------------------
# Branch and bound


#: Most visits one branch-and-bound search may make; past it the
#: component is refused with :class:`CapacityExceeded`.
NODE_BUDGET = 10**6

#: Subgradient steps that fit the root multipliers, and the run of steps
#: without a better bound after which the step length halves.
FIT_ITERATIONS = 100
FIT_PATIENCE = 5


def _repair_conflicts(
    model: IlpModel, conflicts: dict[int, list[int]], vector: list[int]
) -> list[int]:
    """Keep a candidate's presences in descending weight order, zeroing
    any that clash with a presence already kept."""
    chosen = [0] * len(model.variables)
    order = sorted(
        range(len(model.variables)),
        key=lambda j: (-model.variables[j].weight_micro, j),
    )
    for j in order:
        if vector[j] and not any(chosen[k] for k in conflicts.get(j, ())):
            chosen[j] = 1
    return chosen


def solve_bb(model: IlpModel) -> ComponentSolution:
    """Exact minimization by depth-first branch and bound.

    The bound is a Lagrangian relaxation of the one-adjacency-per-extremity
    constraints: packing group ``g`` has an integer multiplier
    ``lam[g] >= 0``, and a presence pays the multipliers of its open
    groups.  The component then splits into one independent
    presence/absence problem per adjacency, each solved exactly on the
    tree by a two-state scan that honors the variables fixed so far, and
    the bound is their sum less the multipliers of the open groups.  It
    is a valid lower bound for any non-negative multipliers and is
    computed in integers throughout.  Fixing a variable re-solves only
    its own adjacency.

    A packing group is open while two or more of its variables are not
    fixed absent.  A closed group holds in every completion, so closing
    it drops its multiplier and re-solves the adjacencies of its live
    variables.  Each visit branches on the first unfixed variable of the
    first open group, in ``packing_groups`` order, the absence branch
    before the presence branch; fixing a presence eagerly zeroes
    everything it conflicts with.  A visit with no open group is a leaf:
    no presence pays a multiplier, every completion of its unfixed
    variables is feasible, so the bound is its exact value, reached by
    setting each unfixed variable to its adjacency's relaxed arg-min
    state (absence on ties).

    The incumbent starts from the better of the all-absent assignment
    and a conflict-repaired copy of the unpriced relaxed optimum,
    all-absent on a tie, and a leaf replaces it only when strictly
    better.  The multipliers are fitted after that, once, by projected
    subgradient steps at the root, and stay fixed for the search.  The
    result is the first optimal leaf in this search order, or the
    starting incumbent if that is optimal, whatever the multipliers.

    Raises :class:`CapacityExceeded` once the search visits more than
    ``NODE_BUDGET`` nodes.
    """
    n = len(model.variables)
    groups = model.packing_groups
    # Two adjacencies at one node share at most one extremity, so every
    # conflicting pair lies in exactly one packing group.  Only variables
    # in some group have conflicts, and only they are fixed or priced.
    conflicts: dict[int, list[int]] = {}
    groups_of: dict[int, list[int]] = {}
    for g, group in enumerate(groups):
        for j in group:
            conflicts.setdefault(j, []).extend(k for k in group if k != j)
            groups_of.setdefault(j, []).append(g)
    for row in conflicts.values():
        row.sort()

    units = model.units
    unit = units.change_unit
    weight_cost = [units.weight_unit * var.weight_micro for var in model.variables]
    assignment = [-1] * n
    # Multipliers, the presence price each variable pays for its open
    # groups, and each group's count of variables not fixed absent.
    lam = [0] * len(groups)
    price = [0] * n
    live = [len(group) for group in groups]

    tree = model.tree
    root = tree.root
    n_nodes = len(tree.nodes)
    internal_postorder = tree.internal_ids()
    internal_preorder = internal_postorder[::-1]
    node_parent = [tree.nodes[v].parent for v in range(n_nodes)]
    internal_children = [
        [c for c in tree.nodes[v].children if not tree.is_leaf(c)]
        for v in range(n_nodes)
    ]
    n_adjacencies = len(model.adjacencies)
    var_at = model.var_at
    adjacency_of_var = model.adjacency_of_var
    # A leaf's state is fixed, so each leaf child adds one change to the
    # state of its parent that differs from it.  Per adjacency, in
    # ``internal_postorder``: the changes to a node's leaf children (a
    # leaf bitmask) when it is absent and when present.
    masks, candidates = tree.subtree_masks(), tree.candidates()
    leaf_children = [
        sum([masks[c] for c in tree.nodes[v].children if tree.is_leaf(c)])
        for v in internal_postorder
    ]
    leaf_changes = [
        [(unit * (held & leaves).bit_count(), unit * (leaves & ~held).bit_count())
         for leaves in leaf_children]
        for held in [candidates.get(a, 0) for a in model.adjacencies]
    ]

    BIG = 1 << 62
    down0 = [0] * n_nodes
    down1 = [0] * n_nodes
    state = [0] * n_nodes

    def adjacency_bound(ai: int) -> int:
        """Cheapest priced presence history of one adjacency given the
        fixed variables; absent everywhere scores 0 plus leaf mismatches."""
        vars_here = var_at[ai]
        for v, (c0, c1) in zip(internal_postorder, leaf_changes[ai]):
            j = vars_here.get(v)
            if j is None:
                c1 = BIG
            elif assignment[j] == -1:
                c0 += weight_cost[j]
                c1 += price[j]
            elif assignment[j] == 0:
                c0 += weight_cost[j]
                c1 = BIG
            else:
                c0 = BIG
            for c in internal_children[v]:
                b0, b1 = down0[c], down1[c]
                c0 += b0 if b0 <= b1 + unit else b1 + unit
                c1 += b1 if b1 <= b0 + unit else b0 + unit
            down0[v] = c0 if c0 < BIG else BIG
            down1[v] = c1 if c1 < BIG else BIG
        return min(down0[root], down1[root])

    def relaxed_states(ai: int) -> tuple[int, dict[int, int]]:
        """Bound and arg-min variable states of one adjacency's priced
        relaxation, absence on ties."""
        bound = adjacency_bound(ai)
        vars_here = var_at[ai]
        chosen: dict[int, int] = {}
        for v in internal_preorder:
            if v == root:
                s = 0 if down0[v] <= down1[v] else 1
            else:
                p = state[node_parent[v]]
                s = 0 if down0[v] + unit * p <= down1[v] + unit * (1 - p) else 1
            state[v] = s
            j = vars_here.get(v)
            if j is not None:
                chosen[j] = s
        return bound, chosen

    bounds = [adjacency_bound(ai) for ai in range(n_adjacencies)]
    future = sum(bounds)

    def settle(i: int, value: int):
        """Fix one variable plus consequences; None signals a conflict.

        Returns an undo trail of ('fix', j) / ('close', g) /
        ('bound', ai, previous) entries; the shared bound total is
        updated in place.
        """
        nonlocal future
        trail: list[tuple] = []
        touched: set[int] = set()
        queue = [(i, value)]
        while queue:
            j, b = queue.pop()
            if assignment[j] != -1:
                if assignment[j] != b:
                    _undo(trail)
                    return None
                continue
            assignment[j] = b
            trail.append(("fix", j))
            touched.add(adjacency_of_var[j])
            if b == 1:
                for k in conflicts[j]:
                    queue.append((k, 0))
                continue
            for g in groups_of[j]:
                live[g] -= 1
                if live[g] == 1 and lam[g]:
                    # The group just closed: its multiplier no longer applies.
                    trail.append(("close", g))
                    future += lam[g]
                    for k in groups[g]:
                        price[k] -= lam[g]
                        if assignment[k] != 0:
                            touched.add(adjacency_of_var[k])
        for ai in sorted(touched):
            updated = adjacency_bound(ai)
            if updated != bounds[ai]:
                trail.append(("bound", ai, bounds[ai]))
                future += updated - bounds[ai]
                bounds[ai] = updated
        return trail

    def _undo(trail) -> None:
        nonlocal future
        for entry in reversed(trail):
            if entry[0] == "fix":
                j = entry[1]
                if assignment[j] == 0:
                    for g in groups_of[j]:
                        live[g] += 1
                assignment[j] = -1
            elif entry[0] == "close":
                g = entry[1]
                future -= lam[g]
                for k in groups[g]:
                    price[k] += lam[g]
            else:
                _, ai, previous = entry
                future += previous - bounds[ai]
                bounds[ai] = previous

    def relaxed_completion() -> list[int]:
        """The fixed values, with every unfixed variable set to its
        adjacency's relaxed arg-min state."""
        vector = [0] * n
        for ai in range(n_adjacencies):
            for j, s in relaxed_states(ai)[1].items():
                vector[j] = s if assignment[j] == -1 else assignment[j]
        return vector

    def open_variable() -> int | None:
        """First unfixed variable of the first packing group with two or
        more variables not fixed absent; None when no group is open."""
        for g, group in enumerate(groups):
            if live[g] >= 2:
                # A present variable would have zeroed the rest of its group.
                for j in group:
                    if assignment[j] != 0:
                        return j
        return None

    def objective(vector: list[int]) -> int:
        return units.scaled(*evaluate_component_labeling(
            model.component, tree, model.weights, model.node_labels(vector)
        ))

    def price_all() -> None:
        for j, own in groups_of.items():
            price[j] = sum(lam[g] for g in own)

    def fit_multipliers() -> list[int]:
        """Root multipliers with the highest bound found by projected
        subgradient steps toward the incumbent (a Polyak step)."""
        best_lam, best_bound = lam[:], future
        theta, stale = 1.0, 0  # the share of the gap to the incumbent to step
        for _ in range(FIT_ITERATIONS):
            price_all()
            value = -sum(lam)
            slope = [-1] * len(groups)
            for ai in range(n_adjacencies):
                bound, chosen = relaxed_states(ai)
                value += bound
                for j, s in chosen.items():
                    if s:
                        for g in groups_of.get(j, ()):
                            slope[g] += 1
            if value > best_bound:
                best_lam, best_bound, stale = lam[:], value, 0
            else:
                stale += 1
                if stale == FIT_PATIENCE:
                    theta, stale = theta / 2, 0
            if best_bound >= best:
                break  # the root is pruned whatever the search does
            for g, m in enumerate(lam):
                if m == 0 and slope[g] < 0:
                    slope[g] = 0
            norm = sum(d * d for d in slope)
            if norm == 0:
                break  # no group is over-full and every priced one is full
            step = theta * (best - value) / norm
            moved = [max(0, m + round(step * d)) for m, d in zip(lam, slope)]
            if moved == lam:
                break  # the same point again gives no larger step
            lam[:] = moved
        return best_lam

    repaired = _repair_conflicts(model, conflicts, relaxed_completion())
    best_vector = [0] * n
    best = objective(best_vector)
    repaired_value = objective(repaired)
    if repaired_value < best:
        best, best_vector = repaired_value, repaired

    lam[:] = fit_multipliers()
    price_all()
    bounds[:] = [adjacency_bound(ai) for ai in range(n_adjacencies)]
    future = sum(bounds) - sum(lam)
    explored = 0

    # Depth-first search over an explicit stack of ("visit",),
    # ("branch", j, value) and ("undo", trail) entries.  A visit pushes
    # its presence branch under its absence branch, and a settled branch
    # pushes its undo under the next visit, so the visiting order is
    # that of the plain recursive search.
    stack: list[tuple] = [("visit",)]
    while stack:
        entry = stack.pop()
        if entry[0] == "undo":
            _undo(entry[1])
            continue
        if entry[0] == "branch":
            _, j, value = entry
            trail = settle(j, value)
            if trail is not None:
                stack.append(("undo", trail))
                stack.append(("visit",))
            continue
        explored += 1
        if explored > NODE_BUDGET:
            alpha = Fraction(units.weight_unit * MICRO, units.scale)
            raise CapacityExceeded(
                f"branch and bound passed its budget of {NODE_BUDGET} nodes"
                f" ({explored} explored) on a component with"
                f" {model.component.n_extremities} extremities, {n} presences"
                f" and {len(groups)} packing groups at alpha {alpha};"
                " raise --threshold or lower --alpha"
            )
        if future >= best:
            continue
        j = open_variable()
        if j is None:
            # No group is open, so no presence pays a multiplier, every
            # completion is feasible and each adjacency's relaxed optimum
            # is exact.
            best = future
            best_vector = relaxed_completion()
            continue
        stack.append(("branch", j, 1))
        stack.append(("branch", j, 0))

    labels = model.node_labels(best_vector)
    for v, label in labels.items():
        ok, reused = check_consistency(label)
        if not ok:
            raise InternalInvariantError(
                f"search result reuses {', '.join(map(fmt, reused))} at node "
                f"{tree.name_of(v)}"
            )
    scj, discarded = evaluate_component_labeling(
        model.component, tree, model.weights, labels
    )
    scaled = units.scaled(scj, discarded)
    if scaled != best:
        raise InternalInvariantError(
            f"bound bookkeeping drifted: search found {best}, re-evaluation {scaled}"
        )
    return ComponentSolution(
        node_labels=labels,
        objective=Fraction(scaled, units.scale),
        objective_scaled=scaled,
        scale=units.scale,
        scj_changes=scj,
        discarded_micro=discarded,
        cooptimal_count=None,
        nodes_explored=explored,
    )
