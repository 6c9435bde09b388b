"""Global adjacency graph construction and component decomposition."""

from __future__ import annotations

import random
from fractions import Fraction
from collections import Counter

import pytest

from oracles import fitch_scj_labeling, random_instance, random_weights
from scjlabel.core import (
    Adjacency,
    Genome,
    WeightTable,
    chromosome_adjacencies,
    fmt,
)
from scjlabel.errors import InputError
from scjlabel.formats import parse_newick
from scjlabel.graph import (
    Component,
    GlobalAdjacencyGraph,
    build_global_graph,
    candidate_adjacencies,
    connected_components,
    threshold_cutoff,
)
from scjlabel.weights import boltzmann_weight_table


def genome_of(markers, *chromosomes):
    adjacencies = set()
    for chromosome in chromosomes:
        adjacencies |= chromosome_adjacencies(chromosome)
    return Genome(frozenset(adjacencies), frozenset(markers))


def two_leaf_instance():
    tree = parse_newick("(s1,s2)anc1;")
    markers = {1, 2, 3, 4}
    return tree.with_genomes({
        "s1": genome_of(markers, (1, 2), (3, 4)),
        "s2": genome_of(markers, (1, 3), (2, 4)),
    })


# ---------------------------------------------------------------------------
# Thresholding


class TestThreshold:
    def test_cutoff_on_the_micro_grid(self):
        assert threshold_cutoff(0) == 0
        assert threshold_cutoff("0.5") == 500_000
        assert threshold_cutoff(1) == 1_000_000
        # 1/3 is not on the grid; the smallest passing micro weight is
        # the next integer up
        assert threshold_cutoff("1/3") == 333_334

    def test_cutoff_rejects_out_of_range(self):
        with pytest.raises(InputError):
            threshold_cutoff("-0.1")
        with pytest.raises(InputError):
            threshold_cutoff("1.01")

    def test_a_huge_threshold_is_named_by_its_power_of_ten(self):
        # Past the int-to-string digit limit, formatting the value itself fails.
        with pytest.raises(InputError, match=r"got ~1e5000$"):
            threshold_cutoff(Fraction(10**5000))

    def test_comparison_is_non_strict(self):
        tree = two_leaf_instance()
        anc1 = tree.id_of("anc1")
        a = Adjacency.of("1h", "2t")
        weights = WeightTable({a: {anc1: 500_000}})
        graph = build_global_graph(
            tree, candidate_adjacencies(tree), weights, "0.5"
        )
        assert a in graph.edges
        graph = build_global_graph(
            tree, candidate_adjacencies(tree), weights, "0.500001"
        )
        assert a not in graph.edges


# ---------------------------------------------------------------------------
# Candidates and graph assembly


class TestCandidates:
    def test_every_internal_node_sees_the_leaf_union(self):
        tree = random_instance(random.Random(1), n_leaves=4, n_markers=4)
        union = set()
        for leaf in tree.leaves():
            union |= tree.leaf_genomes[leaf].adjacencies
        candidates = candidate_adjacencies(tree)
        assert set(candidates) == union
        for adjacency, held in candidates.items():
            assert held == sum(
                1 << i for i, leaf in enumerate(tree.leaves())
                if adjacency in tree.leaf_genomes[leaf].adjacencies
            )
        graph = build_global_graph(
            tree, candidate_adjacencies(tree), WeightTable(), 0
        )
        assert set(graph.edges) == union
        internal = frozenset(tree.internal_ids())
        assert all(nodes == internal for nodes in graph.edges.values())

    def test_the_tree_keeps_one_read_only_map(self):
        tree = random_instance(random.Random(2), n_leaves=4, n_markers=5)
        candidates = candidate_adjacencies(tree)
        assert candidate_adjacencies(tree) is candidates
        with pytest.raises(TypeError):
            candidates[Adjacency.of("1h", "2t")] = 1
        by_name = {tree.name_of(v): tree.leaf_genomes[v] for v in tree.leaves()}
        again = tree.with_genomes(by_name)
        assert candidate_adjacencies(again) is not candidates
        assert candidate_adjacencies(again) == candidates

    def test_genomes_are_required(self):
        tree = parse_newick("(s1,s2)anc1;")
        with pytest.raises(InputError):
            candidate_adjacencies(tree)

    def test_a_tree_without_internal_nodes(self):
        tree = parse_newick("s1;").with_genomes({"s1": genome_of({1, 2, 3}, (1, 2, 3))})
        candidates = candidate_adjacencies(tree)
        assert set(candidates) == tree.leaf_genomes[tree.root].adjacencies
        assert list(candidates.values()) == [1, 1]
        assert build_global_graph(tree, candidates, WeightTable(), 0).edges == {}
        assert len(boltzmann_weight_table(tree, 0.1)) == 0
        assert fitch_scj_labeling(tree) == ({}, 0)


class TestGlobalGraph:
    def test_zero_weights_survive_a_zero_threshold(self):
        tree = two_leaf_instance()
        graph = build_global_graph(
            tree, candidate_adjacencies(tree), WeightTable(), 0
        )
        assert len(graph.edges) == 4
        anc1 = tree.id_of("anc1")
        assert all(nodes == frozenset({anc1}) for nodes in graph.edges.values())

    def test_below_threshold_everywhere_drops_the_edge(self):
        tree = two_leaf_instance()
        anc1 = tree.id_of("anc1")
        weights = WeightTable({
            Adjacency.of("1h", "2t"): {anc1: 600_000},
            Adjacency.of("1h", "3t"): {anc1: 200_000},
        })
        graph = build_global_graph(
            tree, candidate_adjacencies(tree), weights, "0.5"
        )
        assert set(graph.edges) == {Adjacency.of("1h", "2t")}

    def test_annotations_differ_per_node(self):
        tree = parse_newick("((s1,s2)anc2,s3)anc1;")
        markers = {1, 2}
        tree = tree.with_genomes({
            "s1": genome_of(markers, (1, 2)),
            "s2": genome_of(markers, (1, 2)),
            "s3": genome_of(markers, (1,), (2,)),
        })
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        a = Adjacency.of("1h", "2t")
        weights = WeightTable({a: {anc1: 100_000, anc2: 900_000}})
        graph = build_global_graph(
            tree, candidate_adjacencies(tree), weights, "0.5"
        )
        assert graph.edges[a] == frozenset({anc2})

    def test_equal_rows_share_one_annotation_set(self):
        # One row object shared by two candidates, and an equal row held
        # separately (as a weight file gives), all map to one set.
        tree = two_leaf_instance()
        anc1 = tree.id_of("anc1")
        a, b, c, d = sorted(candidate_adjacencies(tree))
        shared = {anc1: 700_000}
        weights = WeightTable({a: shared, b: shared, c: {anc1: 700_000}, d: {anc1: 100_000}})
        graph = build_global_graph(tree, candidate_adjacencies(tree), weights, "0.5")
        assert graph.edges[a] is graph.edges[b] is graph.edges[c]
        assert graph.edges[a] == frozenset({anc1}) and d not in graph.edges

    def test_empty_annotation_sets_are_rejected(self):
        with pytest.raises(InputError):
            GlobalAdjacencyGraph({Adjacency.of("1h", "2t"): frozenset()})


# ---------------------------------------------------------------------------
# Components


class TestComponents:
    def test_known_split(self):
        tree = two_leaf_instance()
        graph = build_global_graph(
            tree, candidate_adjacencies(tree), WeightTable(), 0
        )
        components = connected_components(graph)
        assert [sorted(map(fmt, c.edges)) for c in components] == [
            ["1h-2t", "1h-3t"],
            ["2h-4t", "3h-4t"],
        ]

    def test_component_statistics(self):
        tree = two_leaf_instance()
        graph = build_global_graph(
            tree, candidate_adjacencies(tree), WeightTable(), 0
        )
        first = connected_components(graph)[0]
        assert first.n_extremities == 3
        assert first.max_degree == 2
        # 1h has degree 2, the two tails degree 1: (1+2)(1+1)(1+1)
        assert first.label_space_bound == 12

    def test_components_partition_the_edges(self):
        rng = random.Random(17)
        for _ in range(20):
            tree = random_instance(
                rng, n_leaves=rng.randint(2, 5), n_markers=rng.randint(2, 6)
            )
            weights = random_weights(rng, tree)
            graph = build_global_graph(
                tree, candidate_adjacencies(tree), weights, "0.3"
            )
            components = connected_components(graph)
            seen: list[Adjacency] = []
            for component in components:
                seen.extend(component.edges)
                assert dict(component.edges) == {
                    a: graph.edges[a] for a in component.edges
                }
            assert sorted(seen) == sorted(graph.edges)
            assert len(seen) == len(set(seen))

    def test_statistics_match_a_recount(self):
        # One-edge components take their counts without a degree count.
        rng = random.Random(23)
        one_edge = 0
        for _ in range(20):
            tree = random_instance(
                rng, n_leaves=rng.randint(2, 5), n_markers=rng.randint(2, 6)
            )
            graph = build_global_graph(
                tree, candidate_adjacencies(tree), random_weights(rng, tree), "0.5"
            )
            for component in connected_components(graph):
                degrees = Counter(x for adjacency in component.edges for x in adjacency)
                bound = 1
                for d in degrees.values():
                    bound *= 1 + d
                assert (
                    component.n_extremities, component.max_degree,
                    component.label_space_bound,
                ) == (len(degrees), max(degrees.values()), bound)
                one_edge += len(component.edges) == 1
        assert one_edge > 0

    def test_empty_component_is_rejected(self):
        with pytest.raises(InputError):
            Component({})
