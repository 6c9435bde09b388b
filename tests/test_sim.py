"""Rearrangement simulator and reconstruction metrics."""

from __future__ import annotations

import math

import pytest

from scjlabel.core import chromosome_adjacencies
from scjlabel.errors import InputError
from scjlabel.sim import (
    Metrics,
    SimConfig,
    apply_inversion,
    apply_translocation,
    evolve,
    score_labelings,
    simulate_tree,
)

SMALL = SimConfig(n_markers=20, n_leaves=4, seed=3)


# ---------------------------------------------------------------------------
# Rearrangement moves


class TestApplyInversion:
    def test_middle_segment(self):
        genome = ((1, 2, 3, 4),)
        assert apply_inversion(genome, 0, 2, 3) == ((1, -3, -2, 4),)

    def test_whole_chromosome(self):
        genome = ((1, 2, 3),)
        assert apply_inversion(genome, 0, 1, 3) == ((-3, -2, -1),)

    def test_single_marker_flips_sign(self):
        genome = ((1, 2), (5, -6))
        assert apply_inversion(genome, 1, 2, 2) == ((1, 2), (5, 6))

    def test_other_chromosomes_untouched(self):
        genome = ((1, 2), (3, 4))
        assert apply_inversion(genome, 0, 1, 2)[1] == (3, 4)

    def test_rejects_bad_coordinates(self):
        genome = ((1, 2, 3),)
        with pytest.raises(InputError):
            apply_inversion(genome, 1, 1, 1)
        with pytest.raises(InputError):
            apply_inversion(genome, 0, 0, 2)
        with pytest.raises(InputError):
            apply_inversion(genome, 0, 1, 4)
        with pytest.raises(InputError):
            apply_inversion(genome, 0, 3, 2)


class TestApplyTranslocation:
    def test_suffix_exchange(self):
        genome = ((1, 2), (3, 4))
        assert apply_translocation(genome, 0, 1, 1, 1) == ((1, 4), (3, 2))

    def test_cut_zero_moves_everything(self):
        genome = ((1, 2), (3, 4))
        # chromosome a empties out and is dropped
        assert apply_translocation(genome, 0, 0, 1, 2) == ((3, 4, 1, 2),)

    def test_full_cuts_move_nothing(self):
        genome = ((1, 2), (3, 4))
        assert apply_translocation(genome, 0, 2, 1, 2) == genome

    def test_rejects_bad_arguments(self):
        genome = ((1, 2), (3, 4))
        with pytest.raises(InputError):
            apply_translocation(genome, 0, 1, 0, 1)
        with pytest.raises(InputError):
            apply_translocation(genome, 0, 1, 2, 1)
        with pytest.raises(InputError):
            apply_translocation(genome, 0, 3, 1, 1)
        with pytest.raises(InputError):
            apply_translocation(genome, 0, 1, 1, -1)


# ---------------------------------------------------------------------------
# Configuration


class TestSimConfig:
    def test_defaults(self):
        config = SimConfig()
        assert config.n_markers == 100
        assert config.n_leaves == 6
        assert config.p_inversion == 0.9
        assert config.seed == 0

    def test_validation(self):
        with pytest.raises(InputError):
            SimConfig(n_markers=1)
        with pytest.raises(InputError):
            SimConfig(n_leaves=1)
        with pytest.raises(InputError):
            SimConfig(death_rate=0.002)  # above the birth rate
        with pytest.raises(InputError):
            SimConfig(p_inversion=1.5)
        with pytest.raises(InputError):
            SimConfig(diameter_factor=0.0)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf, 1e308])
    def test_a_non_finite_diameter_is_bad_input(self, factor):
        # 1e308 is finite, but times 100 markers it is not.
        with pytest.raises(InputError, match="diameter factor"):
            SimConfig(diameter_factor=factor)


# ---------------------------------------------------------------------------
# Tree growth


def leaf_depths(tree):
    depth = {tree.root: 0.0}
    for u, v in tree.edges():
        depth[v] = depth[u] + (tree.nodes[v].length or 0.0)
    return {v: depth[v] for v in tree.leaves()}


class TestSimulateTree:
    def test_shape_and_names(self):
        tree = simulate_tree(SMALL)
        assert len(tree.leaves()) == 4
        names = {tree.name_of(v) for v in tree.leaves()}
        assert names == {"s1", "s2", "s3", "s4"}
        internal = {tree.name_of(v) for v in tree.internal_ids()}
        assert all(name.startswith("anc") for name in internal)
        assert len(tree.nodes[tree.root].children) == 2

    def test_diameter_matches_target(self):
        tree = simulate_tree(SMALL)
        depth = {tree.root: 0.0}
        parent = {}
        for u, v in tree.edges():
            depth[v] = depth[u] + (tree.nodes[v].length or 0.0)
            parent[v] = u
        leaves = tree.leaves()
        best = 0.0
        for a in leaves:
            chain = {a}
            cur = a
            while cur in parent:
                cur = parent[cur]
                chain.add(cur)
            for b in leaves:
                if b <= a:
                    continue
                lca = b
                while lca not in chain:
                    lca = parent[lca]
                best = max(best, depth[a] + depth[b] - 2 * depth[lca])
        assert best == pytest.approx(SMALL.diameter_factor * SMALL.n_markers)

    def test_deterministic_per_seed(self):
        assert simulate_tree(SMALL).nodes == simulate_tree(SMALL).nodes
        other = simulate_tree(SimConfig(n_markers=20, n_leaves=4, seed=4))
        assert other.nodes != simulate_tree(SMALL).nodes


class TestEvolve:
    def test_root_is_one_linear_chromosome(self):
        result = evolve(SMALL)
        assert result.genomes[result.tree.root] == (tuple(range(1, 21)),)

    def test_event_counts_follow_branch_lengths(self):
        result = evolve(SMALL)
        tree = result.tree
        for u, v in tree.edges():
            length = tree.nodes[v].length or 0.0
            assert result.events_per_edge[v] == math.floor(length + 0.5)
        assert result.total_events == sum(result.events_per_edge.values())
        assert result.total_events > 0

    def test_nodes_share_one_tuple_per_adjacency(self):
        result = evolve(SMALL)
        seen = {}
        labels = [result.tree.leaf_genomes[v].adjacencies for v in result.tree.leaves()]
        for label in labels:
            for adjacency in label:
                assert seen.setdefault(adjacency, adjacency) is adjacency
        assert len(seen) < sum(map(len, labels))  # some adjacency is in two leaves
        for label in result.truth.values():
            for adjacency in label:
                assert seen.setdefault(adjacency, adjacency) is adjacency

    def test_truth_covers_exactly_the_internal_nodes(self):
        result = evolve(SMALL)
        assert set(result.truth) == set(result.tree.internal_ids())

    def test_adjacencies_match_the_stored_genomes(self):
        result = evolve(SMALL)
        for node_id, genome in result.genomes.items():
            expected = set()
            for chromosome in genome:
                expected |= chromosome_adjacencies(chromosome)
            if result.tree.is_leaf(node_id):
                stored = result.tree.leaf_genomes[node_id].adjacencies
            else:
                stored = result.truth[node_id]
            assert stored == frozenset(expected)

    def test_every_genome_keeps_the_marker_set(self):
        result = evolve(SMALL)
        full = set(range(1, 21))
        for genome in result.genomes.values():
            seen = [abs(m) for chromosome in genome for m in chromosome]
            assert sorted(seen) == sorted(full)
        for leaf in result.tree.leaves():
            assert result.tree.leaf_genomes[leaf].markers == frozenset(full)

    def test_deterministic(self):
        first = evolve(SMALL)
        second = evolve(SMALL)
        assert first.genomes == second.genomes
        assert first.truth == second.truth
        assert first.events_per_edge == second.events_per_edge

    def test_inversion_only_keeps_one_chromosome(self):
        config = SimConfig(n_markers=20, n_leaves=4, p_inversion=1.0, seed=5)
        result = evolve(config)
        assert all(len(g) == 1 for g in result.genomes.values())


# ---------------------------------------------------------------------------
# Metrics


class TestMetrics:
    def test_basic_counts(self):
        metrics = Metrics.from_counts(tp=3, fp=1, fn=2)
        assert metrics.sensitivity == pytest.approx(0.6)
        assert metrics.precision == pytest.approx(0.75)
        assert metrics.f1 == pytest.approx(2 / 3)
        assert metrics.f_half == pytest.approx(5 / 7)
        assert not metrics.degenerate

    def test_all_empty_comparison_scores_one(self):
        metrics = Metrics.from_counts(tp=0, fp=0, fn=0)
        assert metrics.sensitivity == 1.0
        assert metrics.precision == 1.0
        assert metrics.f1 == 1.0
        assert metrics.f_half == 1.0
        assert metrics.degenerate

    def test_empty_truth_with_false_positives(self):
        metrics = Metrics.from_counts(tp=0, fp=4, fn=0)
        assert metrics.sensitivity == 1.0
        assert metrics.precision == 0.0
        assert metrics.f1 == 0.0
        assert metrics.degenerate


class TestScoring:
    def test_pools_counts_across_nodes(self):
        a1 = frozenset(chromosome_adjacencies((1, 2)))
        a2 = frozenset(chromosome_adjacencies((1, 2, 3)))
        truth = {0: a2, 1: a1}
        predicted = {0: a1, 1: a1}
        metrics = score_labelings(truth, predicted)
        assert (metrics.tp, metrics.fp, metrics.fn) == (2, 0, 1)

    def test_rejects_mismatched_nodes(self):
        with pytest.raises(InputError):
            score_labelings({0: frozenset()}, {1: frozenset()})

    def test_perfect_reconstruction(self):
        result = evolve(SMALL)
        metrics = score_labelings(result.truth, dict(result.truth))
        assert metrics.sensitivity == 1.0
        assert metrics.precision == 1.0
        assert metrics.fp == 0 and metrics.fn == 0
