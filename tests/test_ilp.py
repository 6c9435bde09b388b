"""Integer-program model and branch-and-bound solver."""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction

import pytest

from oracles import (
    component_profile,
    joint_assignment_count,
    milp_optimum,
    profile_optimum,
    random_instance,
    random_weights,
    union_components,
)
from scjlabel import ilp, pipeline
from scjlabel.core import (
    MICRO,
    Adjacency,
    Genome,
    WeightTable,
    chromosome_adjacencies,
    objective_units,
)
from scjlabel.dp import (
    DEFAULT_EXPLOSION_CAP,
    ComponentSolution,
    evaluate_component_labeling,
    solve_component,
)
from scjlabel.cli import main
from scjlabel.errors import CapacityExceeded, InternalInvariantError
from scjlabel.formats import parse_newick
from scjlabel.graph import build_global_graph, candidate_adjacencies, connected_components
from scjlabel.ilp import build_model, solve_bb
from scjlabel.sim import SimConfig, evolve
from scjlabel.weights import boltzmann_weight_table


def genome_of(markers, *chromosomes):
    adjacencies = set()
    for chromosome in chromosomes:
        adjacencies |= chromosome_adjacencies(chromosome)
    return Genome(frozenset(adjacencies), frozenset(markers))


def components_of(tree, weights=None, threshold=0):
    weights = weights if weights is not None else WeightTable()
    graph = build_global_graph(
        tree, candidate_adjacencies(tree), weights, threshold
    )
    return connected_components(graph)


def simulated_instance(n_markers, n_leaves, seed, kt=0.1):
    """Tree and Boltzmann weights of a fast-evolving simulated instance."""
    tree = evolve(SimConfig(
        n_markers=n_markers, n_leaves=n_leaves, diameter_factor=0.5, seed=seed
    )).tree
    return tree, boltzmann_weight_table(tree, kt)


def union_components_of(tree, weights, threshold):
    """Components linked by shared extremities alone, which are larger
    than the pipeline's (see ``oracles.union_component``)."""
    return union_components(build_global_graph(
        tree, candidate_adjacencies(tree), weights, threshold
    ))


def largest_model(tree, weights, threshold, alpha):
    """Presence model of the union component with the most presences."""
    return max(
        (build_model(c, tree, weights, alpha)
         for c in union_components_of(tree, weights, threshold)),
        key=lambda m: len(m.variables),
    )


def three_leaf_model(alpha="1/2"):
    tree = parse_newick("((s1,s2)anc2,s3)anc1;")
    markers = {1, 2}
    tree = tree.with_genomes({
        "s1": genome_of(markers, (1, 2)),
        "s2": genome_of(markers, (1, 2)),
        "s3": genome_of(markers, (1,), (2,)),
    })
    a = Adjacency.of("1h", "2t")
    weights = WeightTable({a: {tree.id_of("anc1"): 400_000, tree.id_of("anc2"): 800_000}})
    component = components_of(tree, weights)[0]
    return build_model(component, tree, weights, alpha)


def fork_model(micro=None):
    """Two adjacencies sharing 1h at the root, each held by one leaf;
    ``micro``, if given, is both adjacencies' micro weight at the root."""
    tree = parse_newick("(s1,s2)anc1;")
    markers = {1, 2, 3}
    tree = tree.with_genomes({
        "s1": genome_of(markers, (1, 2), (3,)),
        "s2": genome_of(markers, (1, 3), (2,)),
    })
    rows = {}
    if micro is not None:
        for a in (Adjacency.of("1h", "2t"), Adjacency.of("1h", "3t")):
            rows[a] = {tree.id_of("anc1"): micro}
    weights = WeightTable(rows)
    component = components_of(tree, weights)[0]
    return build_model(component, tree, weights, "1/2")


# ---------------------------------------------------------------------------
# Model assembly


class TestBuildModel:
    def test_variable_inventory_and_order(self):
        model = three_leaf_model()
        a = Adjacency.of("1h", "2t")
        tree = model.tree
        assert [(v.node_id, v.adjacency) for v in model.variables] == [
            (tree.id_of("anc1"), a), (tree.id_of("anc2"), a),
        ]
        assert [v.weight_micro for v in model.variables] == [400_000, 800_000]
        assert model.units.scale == 2 * MICRO
        assert model.units.change_unit == MICRO
        assert model.units.weight_unit == 1

    def test_per_adjacency_index(self):
        model = fork_model()
        tree = model.tree
        anc1, s1, s2 = (tree.id_of(name) for name in ("anc1", "s1", "s2"))
        a, b = Adjacency.of("1h", "2t"), Adjacency.of("1h", "3t")
        assert model.adjacencies == model.component.sorted_edges == (a, b)
        assert model.var_at == ({anc1: 0}, {anc1: 1})
        masks = tree.subtree_masks()
        assert [tree.candidates()[x] for x in model.adjacencies] == [masks[s1], masks[s2]]
        assert model.adjacency_of_var == (0, 1)

    def test_packing_groups_only_for_shared_extremities(self):
        assert three_leaf_model().packing_groups == ()
        model = fork_model()
        assert len(model.packing_groups) == 1
        group = model.packing_groups[0]
        shared = set(model.variables[group[0]].adjacency)
        shared &= set(model.variables[group[1]].adjacency)
        assert shared == {Adjacency.of("1h", "2t")[0]}


class TestEvaluate:
    def test_hand_values(self):
        model = three_leaf_model()
        tree = model.tree
        internal = (tree.id_of("anc1"), tree.id_of("anc2"))
        present = frozenset({Adjacency.of("1h", "2t")})
        for label, want in ((present, MICRO), (frozenset(), 3_200_000)):
            scj, discarded = evaluate_component_labeling(
                model.component, tree, model.weights,
                dict.fromkeys(internal, label),
            )
            assert model.units.scaled(scj, discarded) == want


# ---------------------------------------------------------------------------
# Branch and bound


class TestSolveBb:
    def test_hand_instance(self):
        model = three_leaf_model()
        solution = solve_bb(model)
        assert solution.objective == Fraction(1, 2)
        assert solution.scj_changes == 1
        assert solution.discarded_micro == 0
        a = frozenset({Adjacency.of("1h", "2t")})
        tree = model.tree
        assert solution.node_labels == {tree.id_of("anc1"): a, tree.id_of("anc2"): a}
        assert solution.nodes_explored >= 1

    def test_returns_the_dp_result_type(self):
        model = three_leaf_model()
        bb = solve_bb(model)
        dp, _ = solve_component(model.component, model.tree, model.weights, "1/2")
        assert type(bb) is type(dp) is ComponentSolution
        assert bb.cooptimal_count is None
        assert bb.nodes_explored >= 1
        assert dp.cooptimal_count == 1
        assert dp.nodes_explored is None
        assert bb.node_labels == dp.node_labels
        assert bb.objective_scaled == dp.objective_scaled

    def test_matches_full_enumeration(self):
        rng = random.Random(73)
        checked = 0
        while checked < 40:
            tree = random_instance(
                rng, n_leaves=rng.randint(2, 5), n_markers=4
            )
            weights = random_weights(rng, tree)
            for component in components_of(tree, weights, "0.2"):
                if joint_assignment_count(component, tree) > 20_000:
                    continue
                profile = component_profile(component, tree, weights)
                for alpha in ("0", "1/4", "1/2", "3/4", "1"):
                    want, _ = profile_optimum(profile, alpha)
                    solution = solve_bb(
                        build_model(component, tree, weights, alpha)
                    )
                    assert solution.objective == want
                    checked += 1

    def test_handles_components_the_dp_refuses(self):
        rng = random.Random(79)
        tree = random_instance(rng, n_leaves=4, n_markers=4)
        weights = random_weights(rng, tree)
        component = max(
            components_of(tree, weights), key=lambda c: c.label_space_bound
        )
        bb = solve_bb(build_model(component, tree, weights, "1/2"))
        dp, _ = solve_component(
            component, tree, weights, "1/2", explosion_cap=10**12
        )
        assert bb.objective == dp.objective

    def test_deterministic_outcome(self):
        first = solve_bb(fork_model())
        second = solve_bb(fork_model())
        assert first.node_labels == second.node_labels
        assert first.nodes_explored == second.nodes_explored

    def test_leaves_the_recursion_limit_alone(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("solve_bb changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        assert solve_bb(fork_model()).objective == 1

    def test_branches_only_where_a_packing_group_is_open(self):
        # Its largest union component has 617 presences, 40 of them in packing
        # groups; branching on every presence explored 236,239 nodes, and
        # branching only in open groups under the unpriced bound 2,571.  The
        # exact count pins the search order and the priced bound.
        tree, weights = simulated_instance(200, 12, seed=1)
        model = largest_model(tree, weights, "1/3", "1/2")
        assert len(model.variables) == 617
        solution = solve_bb(model)
        assert solution.nodes_explored == 169
        scj, discarded = evaluate_component_labeling(
            model.component, tree, weights, solution.node_labels
        )
        assert solution.objective_scaled == objective_units("1/2").scaled(
            scj, discarded
        )

    def test_a_result_that_reuses_an_extremity_is_refused(self, monkeypatch):
        # Both presences at the root beat their absence in the relaxation,
        # so without the repair that conflicting point is the incumbent
        # and the root's bound cannot improve on it.
        model = fork_model(micro=MICRO // 2)
        assert solve_bb(model).objective == Fraction(5, 4)
        monkeypatch.setattr(
            ilp, "_repair_conflicts", lambda model, conflicts, vector: vector
        )
        with pytest.raises(InternalInvariantError, match="reuses 1h at node anc1"):
            solve_bb(model)

    def test_a_result_that_re_evaluates_differently_is_refused(self, monkeypatch):
        original = ilp.evaluate_component_labeling

        def drifted(*args):
            scj, discarded = original(*args)
            return scj + 1, discarded

        monkeypatch.setattr(ilp, "evaluate_component_labeling", drifted)
        with pytest.raises(InternalInvariantError, match="drifted"):
            solve_bb(three_leaf_model())

    def test_matches_an_outside_milp_solver(self):
        pytest.importorskip("scipy")
        checked = 0
        for size in ((80, 10, 3), (200, 12, 1)):
            tree, weights = simulated_instance(*size)
            for threshold in ("0.2", "1/3", "1/2"):
                for component in union_components_of(tree, weights, threshold):
                    if component.label_space_bound ** 2 <= DEFAULT_EXPLOSION_CAP:
                        continue  # the DP would take it
                    for alpha in ("0", "1/2", "3/4", "9/10", "1"):
                        model = build_model(component, tree, weights, alpha)
                        assert solve_bb(model).objective_scaled == milp_optimum(model)
                        checked += 1
        assert checked == 3 * 5 * (6 + 7)

    def test_solves_a_dense_component_near_alpha_one(self):
        # 623 presences in 385 packing groups.  Without prices on the
        # packing rows the root bound was 0 at alpha 1 against an optimum
        # of 77,334,049, and the search did not finish.
        pytest.importorskip("scipy")
        tree, weights = simulated_instance(30, 8, seed=2, kt=1)
        for alpha in ("9/10", "1"):
            model = largest_model(tree, weights, "0", alpha)
            assert (len(model.variables), len(model.packing_groups)) == (623, 385)
            assert solve_bb(model).objective_scaled == milp_optimum(model)

    def test_the_dense_component_keeps_its_node_counts(self):
        # The component of the test above, from ``simulate --markers 30
        # --leaves 8 --diameter-factor 0.5 --seed 2`` with Boltzmann weights
        # at kT 1 and threshold 0.  Every bound of the search is a presence
        # sweep, so these counts pin the sweep's values and tie rule.
        tree, weights = simulated_instance(30, 8, seed=2, kt=1)
        for alpha, nodes, optimum in (("9/10", 9_347, 826_658_793), ("1", 3_609, 77_334_049)):
            solution = solve_bb(largest_model(tree, weights, "0", alpha))
            assert (solution.nodes_explored, solution.objective_scaled) == (nodes, optimum)

    def test_a_search_past_the_node_budget_is_refused(self, monkeypatch):
        tree, weights = simulated_instance(200, 12, seed=1)
        model = largest_model(tree, weights, "1/3", "1/2")
        monkeypatch.setattr(ilp, "NODE_BUDGET", 10)
        pattern = (
            rf"budget of 10 nodes \(11 explored\) on a component with"
            rf" {model.component.n_extremities} extremities, 617 presences"
            rf" and {len(model.packing_groups)} packing groups at alpha 1/2;"
            r" raise --threshold or lower --alpha"
        )
        with pytest.raises(CapacityExceeded, match=pattern):
            solve_bb(model)

    def test_the_cli_exits_2_past_the_node_budget(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setattr(ilp, "NODE_BUDGET", 10)
        # The pipeline's own components here are all small enough for the DP.
        monkeypatch.setattr(pipeline, "connected_components", union_components)
        sim = tmp_path / "sim"
        assert main([
            "simulate", "--markers", "200", "--leaves", "12",
            "--diameter-factor", "0.5", "--seed", "1", "--out", str(sim),
        ]) == 0
        code = main([
            "solve", "--tree", str(sim / "tree.nwk"),
            "--genomes", str(sim / "genomes.tsv"), "--boltzmann",
            "--threshold", "1/3", "--alpha", "1/2", "--out", str(tmp_path / "run"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(r"capacity exceeded: component \d+: branch and bound", err)
        assert "raise --threshold or lower --alpha" in err
