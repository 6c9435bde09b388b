"""Domain types: extremities, adjacencies, genomes, CARs, distances."""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

import pytest

from oracles import bfs_dcj_distance, random_genome
from scjlabel.core import (
    MICRO,
    Adjacency,
    Car,
    Extremity,
    Genome,
    WeightTable,
    as_alpha,
    check_consistency,
    chromosome_adjacencies,
    dcj_distance,
    exact_fraction,
    extract_cars,
    labeling_objective,
    objective_units,
    quantize_weight,
    scj_distance,
)
from scjlabel.errors import InputError
from scjlabel.formats import parse_newick


def genome_of(markers, *chromosomes, circular=()):
    adjacencies = set()
    for i, chromosome in enumerate(chromosomes):
        adjacencies |= chromosome_adjacencies(chromosome, circular=i in circular)
    return Genome(frozenset(adjacencies), frozenset(markers))


# ---------------------------------------------------------------------------
# Exact numbers


class TestExactNumbers:
    def test_exact_fraction_reads_decimals_and_ratios(self):
        assert exact_fraction("0.25") == Fraction(1, 4)
        assert exact_fraction("1/3") == Fraction(1, 3)
        assert exact_fraction(0.1) == Fraction(1, 10)
        assert exact_fraction(3) == Fraction(3)

    def test_exact_fraction_rejects_junk(self):
        with pytest.raises(InputError):
            exact_fraction("half")
        with pytest.raises(InputError):
            exact_fraction(True)
        with pytest.raises(InputError):
            exact_fraction(None)
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InputError, match="not a finite number"):
                exact_fraction(value)
        with pytest.raises(InputError, match="not a finite number"):
            WeightTable().set(0, Adjacency.of("1h", "2t"), float("nan"))

    def test_alpha_bounds(self):
        assert as_alpha("1/2") == Fraction(1, 2)
        assert as_alpha(0) == 0
        assert as_alpha(1) == 1
        with pytest.raises(InputError):
            as_alpha("-0.1")
        with pytest.raises(InputError):
            as_alpha("1.5")

    def test_alpha_denominator_is_capped(self):
        assert as_alpha(Fraction(9999, 10000)) == Fraction(9999, 10000)
        with pytest.raises(InputError):
            as_alpha(Fraction(1, 10001))

    def test_quantize_walks_the_micro_grid(self):
        assert quantize_weight(0) == 0
        assert quantize_weight(1) == MICRO
        assert quantize_weight("0.5") == 500_000
        assert quantize_weight(Fraction(1, 3)) == 333_333
        # round half up: 0.0000005 sits exactly between 0 and 1 micro
        assert quantize_weight(Fraction(5, 10**7)) == 1

    def test_quantize_rejects_out_of_range(self):
        with pytest.raises(InputError):
            quantize_weight("1.0000001")
        with pytest.raises(InputError):
            quantize_weight(-0.5)

    def test_objective_units_mix_changes_and_discarded_weight(self):
        units = objective_units("1/2")
        assert units == (MICRO, 1, 2 * MICRO)
        # one change and nothing discarded; no change and 0.8 discarded
        assert Fraction(units.scaled(1, 0), units.scale) == Fraction(1, 2)
        assert Fraction(units.scaled(0, 800_000), units.scale) == Fraction(2, 5)
        units = objective_units(0)
        assert Fraction(units.scaled(1, 800_000), units.scale) == 1
        assert objective_units("3/4") == (MICRO, 3, 4 * MICRO)
        with pytest.raises(InputError):
            objective_units("3/2")


# ---------------------------------------------------------------------------
# Extremities and adjacencies


class TestExtremity:
    def test_parse_round_trips(self):
        for text in ("1t", "1h", "12h", "307t"):
            assert str(Extremity.parse(text)) == text

    def test_tail_orders_before_head(self):
        assert Extremity.tail(3) < Extremity.head(3)
        assert Extremity.head(3) < Extremity.tail(4)

    def test_validation(self):
        with pytest.raises(InputError):
            Extremity(0, 0)
        with pytest.raises(InputError):
            Extremity(1, 2)
        with pytest.raises(InputError):
            Extremity.parse("h1")
        with pytest.raises(InputError):
            Extremity.parse("5")


class TestAdjacency:
    def test_constructor_normalizes_order(self):
        a = Adjacency(Extremity.head(2), Extremity.tail(1))
        assert a.first == Extremity.tail(1)
        assert a.second == Extremity.head(2)
        assert Adjacency.of("2h", "1t") == Adjacency.of("1t", "2h")

    def test_same_marker_is_rejected(self):
        with pytest.raises(InputError):
            Adjacency.of("1t", "1h")

    def test_contains_its_extremities(self):
        a = Adjacency.of("1h", "2t")
        assert Extremity.tail(2) in a
        assert Extremity.head(9) not in a

    def test_is_a_plain_tuple(self):
        adj = Adjacency.of("2h", "1t")
        assert isinstance(adj, tuple)
        assert adj == ((1, 0), (2, 1))
        assert hash(adj) == hash(((1, 0), (2, 1)))
        a, b = adj
        assert (a, b) == (Extremity.tail(1), Extremity.head(2))
        adjs = [Adjacency.of("3t", "4h"), Adjacency.of("1h", "5t"), Adjacency.of("1h", "2t")]
        assert sorted(adjs) == sorted(tuple(tuple(x) for x in a) for a in adjs)
        back = pickle.loads(pickle.dumps(adj))
        assert back == adj and type(back) is Adjacency
        assert type(back.first) is Extremity
        with pytest.raises(InputError):
            Adjacency(Extremity.head(3), Extremity.tail(3))

    def test_consistency_reports_offenders_sorted(self):
        adjs = [Adjacency.of("1h", "2t"), Adjacency.of("1h", "3t"),
                Adjacency.of("2t", "4h")]
        ok, offenders = check_consistency(adjs)
        assert not ok
        assert offenders == [Extremity.head(1), Extremity.tail(2)]
        assert check_consistency(adjs[:1]) == (True, [])


# ---------------------------------------------------------------------------
# Genomes


class TestGenome:
    def test_rejects_markers_outside_the_universe(self):
        with pytest.raises(InputError):
            Genome(frozenset({Adjacency.of("1h", "5t")}), frozenset({1, 2}))

    def test_rejects_reused_extremities(self):
        bad = {Adjacency.of("1h", "2t"), Adjacency.of("1h", "3t")}
        with pytest.raises(InputError):
            Genome(frozenset(bad), frozenset({1, 2, 3}))

    def test_empty_genome(self):
        g = Genome(frozenset(), frozenset({1, 2, 3}))
        assert g.adjacencies == frozenset()
        cars = extract_cars(g.adjacencies, g.markers)
        assert [c.markers for c in cars] == [(1,), (2,), (3,)]


# ---------------------------------------------------------------------------
# CARs


class TestCar:
    def test_linear_orientation_is_canonical(self):
        assert Car("linear", (-2, 3, -1)).markers == Car("linear", (1, -3, 2)).markers
        assert Car("linear", (1, -3, 2)).markers == (1, -3, 2)

    def test_circular_rotation_is_canonical(self):
        variants = [(1, 2, -3), (2, -3, 1), (-3, 1, 2), (3, -2, -1)]
        canonical = {Car("circular", v).markers for v in variants}
        assert len(canonical) == 1

    def test_validation(self):
        with pytest.raises(InputError):
            Car("ring", (1, 2))
        with pytest.raises(InputError):
            Car("linear", ())
        with pytest.raises(InputError):
            Car("linear", (1, -1))
        with pytest.raises(InputError):
            Car("circular", (1,))

    def test_str_and_len(self):
        car = Car("linear", (1, -3, 2))
        assert len(car) == 3
        assert str(car) == "[linear 1 -3 2]"


class TestExtractCars:
    def test_untouched_markers_become_singletons(self):
        cars = extract_cars([], {1, 2})
        assert [(c.kind, c.markers) for c in cars] == [
            ("linear", (1,)), ("linear", (2,)),
        ]

    def test_linear_chain(self):
        cars = extract_cars(chromosome_adjacencies((1, -3, 2)), {1, 2, 3, 4})
        assert [(c.kind, c.markers) for c in cars] == [
            ("linear", (1, -3, 2)), ("linear", (4,)),
        ]

    def test_circular_component(self):
        adjacencies = chromosome_adjacencies((1, 2, 3), circular=True)
        cars = extract_cars(adjacencies, {1, 2, 3})
        assert [(c.kind, c.markers) for c in cars] == [("circular", (1, 2, 3))]

    def test_mixed_decomposition_round_trips(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 7)
            genome = random_genome(rng, frozenset(range(1, n + 1)))
            rebuilt = set()
            for car in extract_cars(genome.adjacencies, genome.markers):
                rebuilt |= chromosome_adjacencies(
                    car.markers, car.kind == "circular"
                )
            assert rebuilt == set(genome.adjacencies)

    def test_inconsistent_input_is_rejected(self):
        bad = [Adjacency.of("1h", "2t"), Adjacency.of("1h", "3t")]
        with pytest.raises(InputError):
            extract_cars(bad, {1, 2, 3})

    def test_unknown_marker_is_rejected(self):
        with pytest.raises(InputError):
            extract_cars([Adjacency.of("1h", "9t")], {1, 2})


# ---------------------------------------------------------------------------
# Distances


class TestDistances:
    def test_scj_counts_the_symmetric_difference(self):
        a = genome_of({1, 2, 3}, (1, 2, 3))
        b = genome_of({1, 2, 3}, (1, 3, 2))
        # a has {1h2t, 2h3t}; b has {1h3t, 3h2t}: no overlap
        assert scj_distance(a, b) == 4
        assert scj_distance(a, a) == 0

    def test_scj_needs_one_universe(self):
        a = genome_of({1, 2}, (1, 2))
        b = genome_of({1, 2, 3}, (1, 2, 3))
        with pytest.raises(InputError):
            scj_distance(a, b)

    def test_dcj_single_swap(self):
        a = genome_of({1, 2, 3, 4}, (1, 2), (3, 4))
        b = genome_of({1, 2, 3, 4}, (1, 4), (3, 2))
        assert dcj_distance(a, b) == 1

    def test_dcj_single_inversion(self):
        a = genome_of({1, 2, 3, 4}, (1, 2, 3, 4))
        b = genome_of({1, 2, 3, 4}, (1, -3, -2, 4))
        assert dcj_distance(a, b) == 1

    def test_dcj_matches_breadth_first_search(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 5)
            markers = frozenset(range(1, n + 1))
            a = random_genome(rng, markers)
            b = random_genome(rng, markers)
            assert dcj_distance(a, b) == bfs_dcj_distance(a, b)

    def test_dcj_never_exceeds_scj(self):
        rng = random.Random(29)
        for _ in range(100):
            n = rng.randint(2, 6)
            markers = frozenset(range(1, n + 1))
            a = random_genome(rng, markers)
            b = random_genome(rng, markers)
            assert dcj_distance(a, b) <= scj_distance(a, b)


# ---------------------------------------------------------------------------
# Objective evaluation


def three_leaf_instance():
    tree = parse_newick("((s1,s2)anc2,s3)anc1;")
    markers = {1, 2}
    genomes = {
        "s1": genome_of(markers, (1, 2)),
        "s2": genome_of(markers, (1, 2)),
        "s3": genome_of(markers, (1,), (2,)),
    }
    return tree.with_genomes(genomes)


class TestLabelingObjective:
    def test_hand_computed_mix(self):
        tree = three_leaf_instance()
        a = Adjacency.of("1h", "2t")
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        weights = WeightTable()
        weights.set(anc1, a, "0.4")
        weights.set(anc2, a, "0.8")
        labeling = {anc1: frozenset(), anc2: frozenset({a})}
        value = labeling_objective(tree, labeling, weights, "1/2")
        assert value.scj_changes == 1
        assert value.discarded_weight == Fraction(2, 5)
        assert value.total == Fraction(7, 10)

    def test_alpha_extremes(self):
        tree = three_leaf_instance()
        a = Adjacency.of("1h", "2t")
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        weights = WeightTable()
        weights.set(anc1, a, "0.4")
        labeling = {anc1: frozenset(), anc2: frozenset({a})}
        assert labeling_objective(tree, labeling, weights, 0).total == 1
        assert labeling_objective(tree, labeling, weights, 1).total == Fraction(2, 5)

    def test_weight_entries_at_leaves_never_count(self):
        tree = three_leaf_instance()
        a = Adjacency.of("1h", "2t")
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        weights = WeightTable()
        weights.set(tree.id_of("s3"), a, "0.9")
        labeling = {anc1: frozenset(), anc2: frozenset()}
        value = labeling_objective(tree, labeling, weights, 1)
        assert value.discarded_weight == 0

    def test_missing_and_inconsistent_labels_are_rejected(self):
        tree = three_leaf_instance()
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        with pytest.raises(InputError):
            labeling_objective(tree, {anc1: frozenset()}, WeightTable(), 0)
        clash = frozenset({Adjacency.of("1h", "2t"), Adjacency.of("1h", "2h")})
        with pytest.raises(InputError):
            labeling_objective(
                tree, {anc1: clash, anc2: frozenset()}, WeightTable(), 0
            )
