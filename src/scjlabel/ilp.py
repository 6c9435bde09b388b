"""Per-adjacency presence model of a component plus a branch-and-bound solver.

The model has one binary presence variable per (internal node,
adjacency annotated there), indexed by adjacency: the nodes that hold a
variable for it and the leaves that hold it fixed.  Per-extremity
packing groups keep every node's choice a matching, so the feasible
points are exactly the consistent labelings, valued by the component
objective of :func:`scjlabel.dp.evaluate_component_labeling`.

Branch and bound works on the presence variables only.  Its bound drops
the matching constraints and solves one exact presence problem per
adjacency on the tree.  The search branches only inside packing groups
that can still be violated, absence branch first, with conflicting
variables fixed eagerly; where no group can be, the bound is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    Adjacency,
    Extremity,
    ObjectiveUnits,
    Phylogeny,
    WeightTable,
    check_consistency,
    objective_units,
)
from .errors import InputError, InternalInvariantError
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
    where it is annotated to its variable's index, and
    ``leaf_states[ai]`` maps each leaf to 1 if the leaf holds it, else
    0.  Variable ``j`` belongs to adjacency ``adjacency_of_var[j]``.
    """

    component: Component
    tree: Phylogeny
    weights: WeightTable
    units: ObjectiveUnits
    variables: tuple[PresenceVar, ...]
    packing_groups: tuple[tuple[int, ...], ...]
    adjacencies: tuple[Adjacency, ...]
    var_at: tuple[dict[int, int], ...]
    leaf_states: tuple[dict[int, int], ...]
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

    leaves = [(v, tree.leaf_genomes[v].adjacencies) for v in tree.leaves()]
    return IlpModel(
        component=component,
        tree=tree,
        weights=weights,
        units=units,
        variables=tuple(variables),
        packing_groups=tuple(groups),
        adjacencies=adjacencies,
        var_at=tuple(var_at),
        leaf_states=tuple(
            {v: int(a in held) for v, held in leaves} for a in adjacencies
        ),
        adjacency_of_var=tuple(adjacency_of_var),
    )


# ---------------------------------------------------------------------------
# Branch and bound


def _repair_conflicts(
    model: IlpModel, conflicts: list[list[int]], vector: list[int]
) -> list[int]:
    """Keep a candidate's presences in descending weight order, zeroing
    any that clash with a presence already kept."""
    chosen = [0] * len(model.variables)
    order = sorted(
        range(len(model.variables)),
        key=lambda j: (-model.variables[j].weight_micro, j),
    )
    for j in order:
        if vector[j] and not any(chosen[k] for k in conflicts[j]):
            chosen[j] = 1
    return chosen


def solve_bb(model: IlpModel) -> ComponentSolution:
    """Exact minimization by depth-first branch and bound.

    The admissible bound relaxes the one-adjacency-per-extremity
    constraints, under which the component splits into one independent
    presence/absence problem per adjacency; each is solved exactly on
    the tree by a two-state scan that honors the variables fixed so
    far.  Fixing a variable therefore re-solves only its own adjacency.

    A packing group is open while two or more of its variables are not
    fixed absent.  Each visit branches on the first unfixed variable of
    the first open group, in ``packing_groups`` order, the absence
    branch before the presence branch; fixing a presence eagerly zeroes
    everything it conflicts with.  A visit with no open group is a leaf:
    every completion of its unfixed variables is feasible, so the bound
    is its exact value, reached by setting each unfixed variable to its
    adjacency's relaxed arg-min state (absence on ties).

    The incumbent starts from the better of the all-absent assignment
    and a conflict-repaired copy of the relaxed optimum, all-absent on a
    tie, and a leaf replaces it only when strictly better.  Among
    co-optimal labelings the result is therefore the first one this
    search order reaches, which is deterministic but need not be the
    first in model order.
    """
    n = len(model.variables)
    # Two adjacencies at one node share at most one extremity, so every
    # conflicting pair lies in exactly one packing group.
    conflicts: list[list[int]] = [[] for _ in range(n)]
    for group in model.packing_groups:
        for j in group:
            conflicts[j].extend(k for k in group if k != j)
    for row in conflicts:
        row.sort()

    units = model.units
    unit = units.change_unit
    weight_cost = [units.weight_unit * var.weight_micro for var in model.variables]
    assignment = [-1] * n

    tree = model.tree
    postorder = list(tree.postorder())
    node_children = [tree.nodes[v].children for v in range(len(tree.nodes))]
    n_adjacencies = len(model.adjacencies)
    var_at = model.var_at
    leaf_states = model.leaf_states
    adjacency_of_var = model.adjacency_of_var

    BIG = 1 << 62
    down0 = [0] * len(tree.nodes)
    down1 = [0] * len(tree.nodes)

    def adjacency_bound(ai: int) -> int:
        """Cheapest presence history of one adjacency given the fixed
        variables; absent everywhere scores 0 plus leaf mismatches."""
        vars_here = var_at[ai]
        states = leaf_states[ai]
        for v in postorder:
            children = node_children[v]
            if not children:
                present = states[v]
                down0[v] = BIG if present else 0
                down1[v] = 0 if present else BIG
                continue
            j = vars_here.get(v)
            if j is None:
                c0, c1 = 0, BIG
            elif assignment[j] == -1:
                c0, c1 = weight_cost[j], 0
            elif assignment[j] == 0:
                c0, c1 = weight_cost[j], BIG
            else:
                c0, c1 = BIG, 0
            for c in children:
                b0, b1 = down0[c], down1[c]
                c0 += b0 if b0 <= b1 + unit else b1 + unit
                c1 += b1 if b1 <= b0 + unit else b0 + unit
            down0[v] = min(c0, BIG)
            down1[v] = min(c1, BIG)
        return min(down0[tree.root], down1[tree.root])

    def relaxed_states(ai: int) -> dict[int, int]:
        """Arg-min states of one adjacency's relaxation, absence on ties."""
        adjacency_bound(ai)
        top0 = [down0[v] for v in range(len(tree.nodes))]
        top1 = [down1[v] for v in range(len(tree.nodes))]
        chosen: dict[int, int] = {}
        state = {tree.root: 0 if top0[tree.root] <= top1[tree.root] else 1}
        for v in tree.preorder():
            if v != tree.root:
                s = state[tree.nodes[v].parent]
                zero = top0[v] + unit * s
                one = top1[v] + unit * (1 - s)
                state[v] = 0 if zero <= one else 1
            if v in var_at[ai]:
                chosen[var_at[ai][v]] = state[v]
        return chosen

    bounds = [adjacency_bound(ai) for ai in range(n_adjacencies)]
    future = sum(bounds)

    def settle(i: int, value: int):
        """Fix one variable plus consequences; None signals a conflict.

        Returns an undo trail of ('fix', j) / ('bound', ai, previous)
        entries; the shared bound total is updated in place.
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
                assignment[entry[1]] = -1
            else:
                _, ai, previous = entry
                future += previous - bounds[ai]
                bounds[ai] = previous

    def relaxed_completion() -> list[int]:
        """The fixed values, with every unfixed variable set to its
        adjacency's relaxed arg-min state."""
        vector = list(assignment)
        for ai in range(n_adjacencies):
            for j, s in relaxed_states(ai).items():
                if vector[j] == -1:
                    vector[j] = s
        return vector

    def open_variable() -> int | None:
        """First unfixed variable of the first packing group with two or
        more variables not fixed absent; None when no group is open."""
        for group in model.packing_groups:
            live = [j for j in group if assignment[j] != 0]
            if len(live) >= 2:
                # A present variable has zeroed the rest of its group.
                return live[0]
        return None

    def objective(vector: list[int]) -> int:
        return units.scaled(*evaluate_component_labeling(
            model.component, tree, model.weights, model.node_labels(vector)
        ))

    repaired = _repair_conflicts(model, conflicts, relaxed_completion())
    best_vector = [0] * n
    best = objective(best_vector)
    repaired_value = objective(repaired)
    if repaired_value < best:
        best, best_vector = repaired_value, repaired
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
        if future >= best:
            continue
        j = open_variable()
        if j is None:
            # No group is open, so every completion is feasible and the
            # relaxed optimum of each adjacency is exact.
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
                f"search result reuses {', '.join(map(str, reused))} at node "
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
