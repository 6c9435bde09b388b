"""Domain types: extremities, adjacencies, genomes, CARs, distances."""

from __future__ import annotations

import math
import pickle
import random
from fractions import Fraction

import pytest

from oracles import (
    bfs_dcj_distance,
    random_genome,
    random_instance,
    reference_car_markers,
    reference_extract_cars,
)
from scjlabel.core import (
    HEAD,
    MICRO,
    TAIL,
    Adjacency,
    Extremity,
    Genome,
    WeightTable,
    as_alpha,
    check_consistency,
    chromosome_adjacencies,
    dcj_distance,
    exact_fraction,
    extract_cars,
    fmt,
    labeling_objective,
    objective_units,
    quantize_weight,
    quoted,
    scj_distance,
    show_number,
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
        rng = random.Random(31)
        floats = [0.0, -0.0, 1.0, 5e-7, 1e-05, 5e-324, 1 - 2**-53, 1e300, -2.5]
        for x in floats + [rng.random() for _ in range(2000)]:
            assert exact_fraction(x) == Fraction(str(x))

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
            quantize_weight(float("nan"))

    def test_exponents_of_over_four_digits_are_refused_before_the_value_is_built(self):
        assert exact_fraction("1e9999") == 10**9999
        assert exact_fraction(" 2.5E-0_0_9999 ") == Fraction(5, 2 * 10**9999)
        assert exact_fraction("1e00000000004") == 10**4
        for text in ("1e10000", "1e-10000", "1E+1_0000", "1e10000000 ", "0.5e-10000000"):
            with pytest.raises(InputError, match=r"^exponent of '.*' has over 4 digits$"):
                exact_fraction(text)
        long_text = "1" * 3000 + "e" + "9" * 3000
        with pytest.raises(InputError) as caught:
            exact_fraction(long_text)
        assert str(caught.value) == f"exponent of {quoted(long_text)} has over 4 digits"
        assert len(quoted(long_text)) == 42 and quoted("1/3") == "'1/3'"

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

    def test_quantize_float_path_matches_the_exact_fraction_path(self):
        # A float in [0, 1] is rounded by Decimal; the grid point must equal
        # round-half-up of the exact fraction its shortest form reads as.
        rng = random.Random(59)
        floats = [rng.random() for _ in range(200_000)]
        floats += [(k + 0.5) / MICRO for k in range(0, MICRO, 7)]  # half-micro ties
        # Floats a few units in the last place, and 1e-9 micro, from a tie.
        for k in range(0, MICRO, 997):
            below = above = (k + 0.5) / MICRO
            for _ in range(3):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
                floats += [below, above]
            floats += [(k + 0.5 + d) / MICRO for d in (-2e-9, -1e-9, 1e-9, 2e-9)]
        floats += [5e-324, 1 - 2**-53, 0.0, 1.0]
        for x in floats:
            f = exact_fraction(x)
            expected = (2 * f.numerator * MICRO + f.denominator) // (2 * f.denominator)
            assert quantize_weight(x) == expected, x

    def test_quantize_rejects_out_of_range(self):
        with pytest.raises(InputError):
            quantize_weight("1.0000001")
        with pytest.raises(InputError):
            quantize_weight(-0.5)

    def test_out_of_range_messages_survive_huge_values(self):
        # Past Python's 4,300-digit limit str() of the exact value fails.
        huge = Fraction(10**5000)
        with pytest.raises(InputError, match=r"alpha must lie in \[0, 1\], got ~1e5000$"):
            as_alpha(huge)
        with pytest.raises(InputError, match=r"alpha denominator ~1e5000 exceeds"):
            as_alpha(1 / huge)
        with pytest.raises(InputError, match=r"weight must lie in \[0, 1\], got -~1e5000$"):
            quantize_weight(-huge)
        # Values that print stay as they were.
        with pytest.raises(InputError, match=r"got 3/2$"):
            quantize_weight("1.5")
        assert [show_number(x) for x in (Fraction(3, 2), 10**20, "1e5000", 0.5)] == [
            "3/2", str(10**20), "1e5000", "0.5"
        ]
        assert show_number(Fraction(10**5000 + 1, 10**4990)) == "~1e10"

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
            assert fmt(Extremity.parse(text)) == text
        for x in (Extremity(1, TAIL), Extremity(1, HEAD), Extremity(307, TAIL)):
            assert Extremity.parse(fmt(x)) == x

    def test_tail_orders_before_head(self):
        assert Extremity(3, TAIL) < Extremity(3, HEAD)
        assert Extremity(3, HEAD) < Extremity(4, TAIL)

    def test_validation(self):
        with pytest.raises(InputError):
            Extremity(0, 0)
        with pytest.raises(InputError):
            Extremity(1, 2)
        with pytest.raises(InputError):
            Extremity.parse("h1")
        with pytest.raises(InputError):
            Extremity.parse("5")
        with pytest.raises(InputError):
            Adjacency.of("\u00b2h", "2t")  # a digit, but not a decimal one

    def test_a_marker_past_the_int_digit_limit_is_bad_input(self):
        text = "9" * 5000 + "h"
        with pytest.raises(InputError) as caught:
            Extremity.parse(text)
        message = str(caught.value)
        assert message.startswith("bad extremity '999") and len(message) < 100
        assert "...'" in message
        # A short bad token is quoted whole, as before.
        with pytest.raises(InputError, match=r"^bad extremity '12x', expected"):
            Extremity.parse("12x")


class TestAdjacency:
    def test_constructor_normalizes_order(self):
        a = Adjacency(Extremity(2, HEAD), Extremity(1, TAIL))
        assert a[0] == Extremity(1, TAIL)
        assert a[1] == Extremity(2, HEAD)
        assert Adjacency.of("2h", "1t") == Adjacency.of("1t", "2h")

    def test_same_marker_is_rejected(self):
        with pytest.raises(InputError):
            Adjacency.of("1t", "1h")

    def test_contains_its_extremities(self):
        a = Adjacency.of("1h", "2t")
        assert Extremity(2, TAIL) in a
        assert Extremity(9, HEAD) not in a

    def test_is_a_plain_tuple(self):
        adj = Adjacency.of("2h", "1t")
        assert type(adj) is tuple
        assert adj == ((1, 0), (2, 1))
        assert hash(adj) == hash(((1, 0), (2, 1)))
        a, b = adj
        assert (a, b) == (Extremity(1, TAIL), Extremity(2, HEAD))
        adjs = [Adjacency.of("3t", "4h"), Adjacency.of("1h", "5t"), Adjacency.of("1h", "2t")]
        assert sorted(adjs) == sorted(tuple(tuple(x) for x in a) for a in adjs)
        back = pickle.loads(pickle.dumps(adj))
        assert back == adj and type(back) is tuple
        assert type(back[0]) is tuple
        with pytest.raises(InputError):
            Adjacency(Extremity(3, HEAD), Extremity(3, TAIL))

    def test_consistency_reports_offenders_sorted(self):
        adjs = [Adjacency.of("1h", "2t"), Adjacency.of("1h", "3t"),
                Adjacency.of("2t", "4h")]
        ok, offenders = check_consistency(adjs)
        assert not ok
        assert offenders == [Extremity(1, HEAD), Extremity(2, TAIL)]
        assert check_consistency(adjs[:1]) == (True, [])

    def test_consistency_of_any_iterable(self):
        adjs = [Adjacency.of("1h", "2t"), Adjacency.of("1h", "3t"),
                Adjacency.of("2t", "4h")]
        want = (False, [Extremity(1, HEAD), Extremity(2, TAIL)])
        assert check_consistency(iter(adjs)) == want
        assert check_consistency(a for a in adjs) == want
        assert check_consistency(frozenset(adjs)) == want
        assert check_consistency(iter(adjs[:1])) == (True, [])
        assert check_consistency([]) == (True, [])
        # one adjacency listed twice reuses both of its extremities
        assert check_consistency(adjs[:1] * 2) == (
            False, [Extremity(1, HEAD), Extremity(2, TAIL)]
        )


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

    def test_messages_name_extremities_in_the_compact_form(self):
        bad = frozenset({Adjacency.of("1h", "2t"), Adjacency.of("1h", "3t")})
        with pytest.raises(InputError, match="^inconsistent adjacency set, reused extremities: 1h$"):
            Genome(bad, frozenset({1, 2, 3}))
        with pytest.raises(InputError, match="^cannot extract CARs, reused extremities: 1h$"):
            extract_cars(bad, {1, 2, 3})
        outside = frozenset({Adjacency.of("1h", "5t")})
        with pytest.raises(InputError, match="^adjacency 1h-5t uses marker 5 outside the universe$"):
            Genome(outside, frozenset({1, 2}))
        with pytest.raises(InputError, match="^adjacency 1h-5t uses marker 5 outside the universe$"):
            extract_cars(outside, {1, 2})

    def test_universe_is_checked_before_consistency(self):
        # 4h is reused and marker 9 lies outside: the universe check reports.
        both = frozenset({Adjacency.of("4h", "5t"), Adjacency.of("4h", "9t")})
        with pytest.raises(InputError, match="^adjacency 4h-9t uses marker 9 outside the universe$"):
            Genome(both, frozenset(range(1, 8)))
        chain = set(chromosome_adjacencies(range(1, 200)))
        reused = frozenset(chain | {Adjacency.of("3t", "150h")})
        with pytest.raises(InputError, match="^inconsistent adjacency set, reused extremities: 3t, 150h$"):
            Genome(reused, frozenset(range(1, 200)))
        assert Genome(frozenset(chain), range(1, 200)).adjacencies == chain

    def test_empty_genome(self):
        g = Genome(frozenset(), frozenset({1, 2, 3}))
        assert g.adjacencies == frozenset()
        assert extract_cars(g.adjacencies, g.markers) == [
            ("linear", (1,)), ("linear", (2,)), ("linear", (3,)),
        ]


# ---------------------------------------------------------------------------
# CARs


class TestCar:
    """Canonical form of the CARs that ``extract_cars`` returns."""

    @staticmethod
    def cars_of(seq, kind):
        return extract_cars(chromosome_adjacencies(seq, kind == "circular"), map(abs, seq))

    def test_linear_orientation_is_canonical(self):
        assert self.cars_of((-2, 3, -1), "linear") == [("linear", (1, -3, 2))]
        assert self.cars_of((1, -3, 2), "linear") == [("linear", (1, -3, 2))]

    def test_circular_rotation_is_canonical(self):
        variants = [(1, 2, -3), (2, -3, 1), (-3, 1, 2), (3, -2, -1)]
        for seq in variants:
            assert self.cars_of(seq, "circular") == [("circular", (1, 2, -3))]

    def test_canonical_form_matches_the_reference(self):
        rng = random.Random(41)
        for _ in range(2000):
            n = rng.randint(1, 12)
            seq = tuple(m if rng.random() < 0.5 else -m for m in rng.sample(range(1, 31), n))
            kinds = ("linear", "circular") if n > 1 else ("linear",)
            for kind in kinds:
                assert self.cars_of(seq, kind) == [(kind, reference_car_markers(kind, seq))]


class TestChromosomeAdjacencies:
    def test_signs_choose_the_joined_extremities(self):
        assert chromosome_adjacencies((1, -2, 3)) == {
            Adjacency.of("1h", "2h"), Adjacency.of("2t", "3t"),
        }
        assert chromosome_adjacencies((1, 2), circular=True) == {
            Adjacency.of("1h", "2t"), Adjacency.of("2h", "1t"),
        }
        assert chromosome_adjacencies((), circular=True) == frozenset()
        (adjacency,) = chromosome_adjacencies((2, 1))
        assert fmt(adjacency) == "1t-2h"
        assert adjacency[0][0] == 1

    def test_a_shared_dict_gives_one_tuple_per_extremity_and_adjacency(self):
        shared: dict = {}
        (a,) = chromosome_adjacencies((1, 2), shared=shared)
        (b,) = chromosome_adjacencies((-2, -1), shared=shared)
        c, d = sorted(chromosome_adjacencies((3, -1, 4), shared=shared))
        assert a is b and a == Adjacency.of("1h", "2t")
        assert type(a) is tuple and type(a[0]) is tuple
        assert c == Adjacency.of("1t", "4t") and c[0] is shared[1][0]
        assert d == Adjacency.of("1h", "3h") and d[0] is a[0]
        assert chromosome_adjacencies((1, 2)) == {a}

    @pytest.mark.parametrize("markers, circular", [
        ((1, 0), False), ((1, 2.0), False), ((1, 1), False), ((2, -2), False), ((1,), True),
    ])
    def test_rejects_a_bad_marker_or_a_marker_next_to_itself(self, markers, circular):
        with pytest.raises(InputError):
            chromosome_adjacencies(markers, circular=circular)

    @pytest.mark.parametrize("bad", [True, False, 2.0, "3", None])
    def test_a_shared_dict_does_not_admit_a_non_int_marker(self, bad):
        # The dict already holds marker 1 (True == 1) and 2 (2.0 == 2).
        shared: dict = {}
        chromosome_adjacencies((1, 2, 3), shared=shared)
        message = f"^signed marker ids are non-zero integers, got {bad!r}$"
        with pytest.raises(InputError, match=message):
            chromosome_adjacencies((4, bad), shared=shared)


class TestExtractCars:
    def test_untouched_markers_become_singletons(self):
        assert extract_cars([], {1, 2}) == [("linear", (1,)), ("linear", (2,))]

    def test_linear_chain(self):
        assert extract_cars(chromosome_adjacencies((1, -3, 2)), {1, 2, 3, 4}) == [
            ("linear", (1, -3, 2)), ("linear", (4,)),
        ]

    def test_circular_component(self):
        adjacencies = chromosome_adjacencies((1, 2, 3), circular=True)
        assert extract_cars(adjacencies, {1, 2, 3}) == [("circular", (1, 2, 3))]

    def test_mixed_decomposition_round_trips(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 7)
            genome = random_genome(rng, frozenset(range(1, n + 1)))
            rebuilt = set()
            for kind, seq in extract_cars(genome.adjacencies, genome.markers):
                rebuilt |= chromosome_adjacencies(seq, kind == "circular")
            assert rebuilt == set(genome.adjacencies)

    def test_matches_the_reference_walk(self):
        rng = random.Random(43)
        for _ in range(300):
            n = rng.randint(1, 12)
            markers = frozenset(rng.sample(range(1, 40), n))
            genome = random_genome(rng, markers, max_chromosomes=4, circular_rate=0.4)
            # Dropping adjacencies keeps the set consistent and breaks runs.
            kept = [a for a in sorted(genome.adjacencies) if rng.random() < 0.8]
            universe = markers | frozenset(rng.sample(range(40, 50), rng.randint(0, 2)))
            assert extract_cars(kept, universe) == reference_extract_cars(kept, universe)

    @pytest.mark.parametrize("as_markers", [
        list, lambda markers: (m for m in markers), frozenset,
    ], ids=["list", "generator", "frozenset"])
    def test_sparse_labels_over_large_universes_match_the_reference(self, as_markers):
        rng = random.Random(53)
        kinds = {"singleton": 0, "long linear": 0, "circular": 0}
        for _ in range(12):
            n = rng.randint(300, 1500)
            universe = rng.sample(range(1, 10 * n), n)
            adjacencies: set = set()
            start = 0
            while start < n:  # mostly singletons, some long runs and cycles
                size = 1 if rng.random() < 0.8 else rng.randint(2, 80)
                piece = [m if rng.random() < 0.5 else -m for m in universe[start:start + size]]
                adjacencies |= chromosome_adjacencies(piece, len(piece) > 2 and rng.random() < 0.3)
                start += size
            cars = extract_cars(adjacencies, as_markers(universe))
            assert cars == reference_extract_cars(adjacencies, universe)
            for kind, seq in cars:
                if kind == "circular":
                    kinds["circular"] += 1
                elif len(seq) == 1:
                    kinds["singleton"] += 1
                elif len(seq) >= 20:
                    kinds["long linear"] += 1
        assert kinds["singleton"] > 5 * kinds["circular"] > 0
        assert kinds["long linear"] > 0

    def test_error_messages_are_kept(self):
        big = range(1, 1000)
        reused = [Adjacency.of("1h", "2t"), Adjacency.of("3h", "4t"), Adjacency.of("2t", "3t")]
        with pytest.raises(InputError, match="^cannot extract CARs, reused extremities: 2t$"):
            extract_cars(reused, big)
        # A reused extremity is reported before a marker outside the universe.
        with pytest.raises(InputError, match="^cannot extract CARs, reused extremities: 1h$"):
            extract_cars([Adjacency.of("1h", "2t"), Adjacency.of("1h", "2000t")], big)
        # The first adjacency, in the given order, with a marker outside.
        outside = [Adjacency.of(a, b) for a, b in (("5h", "6t"), ("7h", "1200t"), ("1100h", "8t"))]
        message = "^adjacency 7h-1200t uses marker 1200 outside the universe$"
        with pytest.raises(InputError, match=message):
            extract_cars(outside, big)
        for markers, least in (([3, 0, 5], 0), ((m for m in (4, -2, 9, -7)), -7)):
            with pytest.raises(InputError, match=f"^marker ids are positive, got {least}$"):
                extract_cars(outside, markers)

    def test_inconsistent_input_is_rejected(self):
        bad = [Adjacency.of("1h", "2t"), Adjacency.of("1h", "3t")]
        with pytest.raises(InputError):
            extract_cars(bad, {1, 2, 3})

    def test_unknown_marker_is_rejected(self):
        with pytest.raises(InputError):
            extract_cars([Adjacency.of("1h", "9t")], {1, 2})

    @pytest.mark.parametrize("markers", [{-3, 2}, {0, 1}])
    def test_marker_ids_below_1_are_rejected(self, markers):
        with pytest.raises(InputError, match="marker ids are positive"):
            extract_cars([], markers)


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
        weights = WeightTable({a: {anc1: 400_000, anc2: 800_000}})
        labeling = {anc1: frozenset(), anc2: frozenset({a})}
        value = labeling_objective(tree, labeling, weights, "1/2")
        assert value.scj_changes == 1
        assert value.discarded_weight == Fraction(2, 5)
        assert value.total == Fraction(7, 10)

    def test_alpha_extremes(self):
        tree = three_leaf_instance()
        a = Adjacency.of("1h", "2t")
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        weights = WeightTable({a: {anc1: 400_000}})
        labeling = {anc1: frozenset(), anc2: frozenset({a})}
        assert labeling_objective(tree, labeling, weights, 0).total == 1
        assert labeling_objective(tree, labeling, weights, 1).total == Fraction(2, 5)

    def test_labels_of_any_set_kind_give_one_value(self):
        tree = three_leaf_instance()
        a = Adjacency.of("1h", "2t")
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        weights = WeightTable({a: {anc1: 400_000, anc2: 800_000}})
        want = labeling_objective(
            tree, {anc1: frozenset(), anc2: frozenset({a})}, weights, "1/2"
        )
        for kind in (set, tuple, list, lambda labels: dict.fromkeys(labels).keys()):
            labeling = {anc1: kind(()), anc2: kind([a])}
            assert labeling_objective(tree, labeling, weights, "1/2") == want

    def test_weight_entries_at_leaves_never_count(self):
        tree = three_leaf_instance()
        a = Adjacency.of("1h", "2t")
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        weights = WeightTable({a: {tree.id_of("s3"): 900_000}})
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

    def test_matches_the_entry_by_entry_definition(self):
        # Random tables with leaf-node, zero-weight and overwritten entries
        # and adjacencies outside every label; the discarded weight sums,
        # entry by entry, what the internal nodes' labels leave out.
        rng = random.Random(47)
        for _ in range(200):
            tree = random_instance(rng, n_leaves=rng.randint(2, 5), n_markers=rng.randint(2, 6))
            ends = [Extremity(m, e) for m in sorted(tree.markers) for e in (0, 1)]
            pool = sorted(
                {Adjacency(x, y) for x in ends for y in ends if x[0] != y[0]}
            )[: rng.randint(1, 12)]
            rows, entries = {}, {}
            for _ in range(rng.randint(0, 40)):
                v, a = key = (rng.randrange(len(tree.nodes)), rng.choice(pool))
                micro = rng.choice((0, MICRO, rng.randint(0, MICRO)))
                rows.setdefault(a, {})[v] = micro
                entries[key] = micro
            table = WeightTable(rows)
            labeling = {
                v: frozenset(
                    a for a in random_genome(rng, tree.markers).adjacencies if rng.random() < 0.7
                )
                for v in tree.internal_ids()
            }
            alpha = rng.choice(("0", "1/3", "1/2", "1"))
            value = labeling_objective(tree, labeling, table, alpha)
            discarded = Fraction(sum(
                micro for (v, a), micro in entries.items()
                if v in labeling and a not in labeling[v]
            ), MICRO)
            assert value.discarded_weight == discarded
            a = as_alpha(alpha)
            assert value.total == (1 - a) * value.scj_changes + a * discarded


# ---------------------------------------------------------------------------
# Weight table


class TestWeightTable:
    def test_totals_and_length_follow_overwrites(self):
        # A later draw for one (node, adjacency) overwrites the earlier one.
        rng = random.Random(53)
        pool = [Adjacency.of(f"{m}h", f"{m + 1}t") for m in range(1, 6)]
        rows, entries = {}, {}
        for _ in range(400):
            v, a = key = (rng.randrange(4), rng.choice(pool))
            micro = rng.choice((0, MICRO, rng.randint(0, MICRO)))
            rows.setdefault(a, {})[v] = micro
            entries[key] = micro
            table = WeightTable(rows)
            assert len(table) == len(entries)
            for u in range(5):
                assert table.total_micro(u) == sum(
                    w for (n, _), w in entries.items() if n == u
                )
        assert table.micro_items() == sorted((v, a, w) for (v, a), w in entries.items())
        for v, a in entries:
            assert table.get_micro(v, a) == table.row(a)[v] == entries[(v, a)]
        assert table.get_micro(9, pool[0]) == 0

    def test_rows_are_read_only(self):
        a, b = Adjacency.of("1h", "2t"), Adjacency.of("2h", "3t")
        table = WeightTable({a: {0: 250_000}})
        assert dict(table.row(a)) == {0: 250_000}
        assert dict(table.row(b)) == {}
        with pytest.raises(TypeError):
            table.row(a)[1] = 5
        with pytest.raises(TypeError):
            table.row(b)[1] = 5
        assert len(table) == 1 and dict(table.row(b)) == {}
        assert table.get_micro(0, b) == 0 and table.total_micro(1) == 0
        assert len(WeightTable()) == 0 and WeightTable().micro_items() == []

    def test_row_identity_follows_the_stored_row_object(self):
        a, b, c = Adjacency.of("1h", "2t"), Adjacency.of("2h", "3t"), Adjacency.of("3h", "4t")
        shared = {1: 7}
        table = WeightTable({a: shared, b: shared, c: {1: 7}})
        absent, other = Adjacency.of("5h", "6t"), Adjacency.of("6h", "7t")
        id_a, id_b, id_c, id_absent, id_other = table.row_identities(
            iter([a, b, c, absent, other])
        )
        assert id_a == id_b != id_c
        assert id_absent == id_other
        assert id_absent not in {id_a, id_c}
        assert table.row_identities([c, a]) == [id_c, id_a]
        assert table.row_identities([]) == []

    def test_a_shared_row_counts_once_per_adjacency(self):
        a, b, c = Adjacency.of("1h", "2t"), Adjacency.of("2h", "3t"), Adjacency.of("3h", "4t")
        shared = {1: 7, 2: 3}
        table = WeightTable({b: shared, a: shared, c: {1: 5}})
        assert len(table) == 5
        assert table.total_micro(1) == 19 and table.total_micro(2) == 6
        assert table.micro_items() == [(1, a, 7), (1, b, 7), (1, c, 5), (2, a, 3), (2, b, 3)]
        assert shared == {1: 7, 2: 3}

    @pytest.mark.parametrize("micro", [MICRO + 1, -1, 0.5, "1", None])
    def test_micro_values_are_checked_in_every_row(self, micro):
        a, b, c = Adjacency.of("1h", "2t"), Adjacency.of("2h", "3t"), Adjacency.of("3h", "4t")
        shared = {1: 7, 2: micro}
        with pytest.raises(InputError, match="micro weight"):
            WeightTable({a: shared, b: shared})
        with pytest.raises(InputError, match="micro weight"):
            WeightTable({a: {1: 7}, c: {3: micro}})
