"""Per-adjacency presence model of a component plus a branch-and-bound solver.

The model has one binary presence variable per (internal node,
adjacency annotated there), indexed by adjacency: the nodes that hold a
variable for it and the leaves that hold it fixed.  Per-extremity
packing groups keep every node's choice a matching, so the feasible
points are exactly the consistent labelings, valued by the component
objective of :func:`scjlabel.dp.evaluate_component_labeling`.

Branch and bound (:func:`solve_bb`) works on the presence variables
only.  Its bound, a Lagrangian relaxation of the packing groups (Held,
Wolfe & Crowder 1974; Fisher 1981), splits into one presence problem
per adjacency, each solved by the DP's presence sweep
(:func:`scjlabel.dp.presence_sweep`) with the fixings and prices as own
costs.
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
from .dp import FORBIDDEN, ComponentSolution, evaluate_component_labeling, leaf_costs
from .dp import presence_states, presence_sweep


@dataclass(frozen=True)
class PresenceVar:
    """Binary variable: adjacency kept at an internal node."""

    node_id: int
    adjacency: Adjacency
    weight_micro: int


@dataclass(frozen=True, eq=False)
class IlpModel:
    """Scaled-integer presence model of one component at a fixed alpha.

    ``adjacencies`` are the component's edges in sorted order; the
    leaves that hold each are those of ``tree.candidates()``.  Variable
    ``j`` belongs to adjacency ``adjacency_of_var[j]``, at the internal
    node ``variables[j].node_id``.
    """

    component: Component
    tree: Phylogeny
    weights: WeightTable
    units: ObjectiveUnits
    variables: tuple[PresenceVar, ...]
    packing_groups: tuple[tuple[int, ...], ...]
    adjacencies: tuple[Adjacency, ...]
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
    adjacency_of_var: list[int] = []
    groups: list[tuple[int, ...]] = []
    for v in sorted(annotated, key=lambda v: (depths[v], v)):
        incident: dict[Extremity, list[int]] = {}
        for ai in annotated[v]:
            adjacency = adjacencies[ai]
            j = len(variables)
            variables.append(PresenceVar(v, adjacency, weights.get_micro(v, adjacency)))
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
    presence/absence problem per adjacency, each solved exactly by the
    presence sweep, with the fixed variables and prices as own costs, and
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
    assignment = [-1] * n
    # Multipliers, the presence price each variable pays for its open
    # groups, and each group's count of variables not fixed absent.
    lam = [0] * len(groups)
    price = [0] * n
    live = [len(group) for group in groups]

    tree = model.tree
    items = tree.internal_items()
    position = {v: p for p, v in enumerate(tree.internal_ids())}
    adjacency_of_var = model.adjacency_of_var
    # Per adjacency, the own (absent, present) costs of the internal nodes
    # for the presence sweep: the changes to their leaf children, and at a
    # variable its weight, its price and its fixing (see ``refresh``).
    costs = [leaf_costs(items, tree.candidates().get(a, 0), unit) for a in model.adjacencies]
    own = [[(c0, FORBIDDEN) for c0, _ in row] for row in costs]
    own_of = [own[ai] for ai in adjacency_of_var]  # per variable, its adjacency's row
    place = [position[var.node_id] for var in model.variables]  # and its node's place
    # A variable's own costs unfixed and unpriced, and fixed absent and present.
    free = [
        (costs[ai][p][0] + units.weight_unit * var.weight_micro, costs[ai][p][1])
        for var, ai, p in zip(model.variables, adjacency_of_var, place)
    ]
    fixed_own = [((c0, FORBIDDEN), (FORBIDDEN, c1)) for c0, c1 in free]

    def refresh(j: int) -> None:
        """Set variable ``j``'s own costs from its fixing and price."""
        (c0, c1), fixed = free[j], assignment[j]
        own_of[j][place[j]] = fixed_own[j][fixed] if fixed >= 0 else (c0, c1 + price[j])

    for j in range(n):
        refresh(j)

    def relaxed() -> tuple[int, list[int]]:
        """The total bound of the adjacencies' priced relaxations, and each
        variable's arg-min state in them, absence on ties; a fixed
        variable's own costs allow its value alone."""
        total, states = 0, []
        for row in own:
            down = presence_sweep(items, row, unit)
            total += min(down[-1])
            states.append(presence_states(items, down, unit))
        return total, [states[ai][p] for ai, p in zip(adjacency_of_var, place)]

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
            own_of[j][place[j]] = fixed_own[j][b]  # refresh(j), inlined in the hot path
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
                        if assignment[k] != 0:  # a price that counts
                            refresh(k)
                            touched.add(adjacency_of_var[k])
        for ai in sorted(touched):
            updated = min(presence_sweep(items, own[ai], unit)[-1])
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
                refresh(j)
            elif entry[0] == "close":
                g = entry[1]
                future -= lam[g]
                for k in groups[g]:
                    price[k] += lam[g]
                    if assignment[k] != 0:
                        refresh(k)
            else:
                _, ai, previous = entry
                future += previous - bounds[ai]
                bounds[ai] = previous

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
        for j, in_groups in groups_of.items():
            price[j] = sum(lam[g] for g in in_groups)
            refresh(j)

    def fit_multipliers() -> list[int]:
        """Root multipliers with the highest bound found by projected
        subgradient steps toward the incumbent (a Polyak step)."""
        best_lam, best_bound = lam[:], future
        theta, stale = 1.0, 0  # the share of the gap to the incumbent to step
        for _ in range(FIT_ITERATIONS):
            price_all()
            bound, vector = relaxed()
            value = bound - sum(lam)
            slope = [-1] * len(groups)
            for j, in_groups in groups_of.items():
                if vector[j]:
                    for g in in_groups:
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

    future, relaxed_optimum = relaxed()  # unpriced
    repaired = _repair_conflicts(model, conflicts, relaxed_optimum)
    best_vector = [0] * n
    best = objective(best_vector)
    repaired_value = objective(repaired)
    if repaired_value < best:
        best, best_vector = repaired_value, repaired

    lam[:] = fit_multipliers()
    price_all()
    # Each adjacency's cheapest priced presence history given the fixings:
    # the cheaper root state of its sweep.
    bounds = [min(presence_sweep(items, row, unit)[-1]) for row in own]
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
            best_vector = relaxed()[1]
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
