"""Fitch baseline, Boltzmann posteriors, matchings, weight file round trip."""

from __future__ import annotations

import random

import pytest

from oracles import (
    boltzmann_sweep,
    brute_boltzmann,
    brute_max_weight_micro,
    brute_min_changes,
    fitch_scj,
    fitch_scj_labeling,
    random_instance,
    random_weights,
)
from scjlabel.core import (
    Adjacency,
    Genome,
    WeightTable,
    chromosome_adjacencies,
    fmt,
    labeling_objective,
    quantize_weight,
)
from scjlabel.errors import InputError
from scjlabel.formats import parse_newick
from scjlabel.graph import candidate_adjacencies
from scjlabel.pipeline import RunConfig, solve_instance
from scjlabel.sim import SimConfig, evolve
from scjlabel.weights import (
    boltzmann_weight_table,
    boltzmann_weights,
    load_weight_table,
    write_weight_table,
)


def genome_of(markers, *chromosomes):
    adjacencies = set()
    for chromosome in chromosomes:
        adjacencies |= chromosome_adjacencies(chromosome)
    return Genome(frozenset(adjacencies), frozenset(markers))


def quartet_instance(present_at):
    """((s1,s2)anc2,(s3,s4)anc3)anc1 with 1h-2t present at the given leaves."""
    tree = parse_newick("((s1,s2)anc2,(s3,s4)anc3)anc1;")
    markers = {1, 2}
    with_adj = genome_of(markers, (1, 2))
    without = genome_of(markers, (1,), (2,))
    return tree.with_genomes({
        name: with_adj if name in present_at else without
        for name in ("s1", "s2", "s3", "s4")
    })


# ---------------------------------------------------------------------------
# Fitch baseline


class TestFitch:
    def test_sister_pair_presence_stays_below_the_root(self):
        tree = quartet_instance({"s1", "s2"})
        a = Adjacency.of("1h", "2t")
        history = fitch_scj(tree, a)
        assert history.changes == 1
        assert history.presence[tree.id_of("anc2")] is True
        assert history.presence[tree.id_of("anc3")] is False
        # the root is ambiguous and the tie breaks to absence
        assert history.presence[tree.id_of("anc1")] is False

    def test_single_leaf_presence_vanishes_above(self):
        tree = quartet_instance({"s3"})
        history = fitch_scj(tree, Adjacency.of("1h", "2t"))
        assert history.changes == 1
        assert all(
            history.presence[v] is False for v in tree.internal_ids()
        )

    def test_change_count_is_minimal(self):
        rng = random.Random(31)
        for _ in range(25):
            tree = random_instance(
                rng, n_leaves=rng.randint(2, 6), n_markers=4
            )
            union = set()
            for leaf in tree.leaves():
                union |= tree.leaf_genomes[leaf].adjacencies
            for adjacency in sorted(union):
                history = fitch_scj(tree, adjacency)
                assert history.changes == brute_min_changes(tree, adjacency)

    def test_labeling_reaches_the_per_adjacency_sum(self):
        rng = random.Random(37)
        for _ in range(10):
            tree = random_instance(rng, n_leaves=4, n_markers=4)
            union = set()
            for leaf in tree.leaves():
                union |= tree.leaf_genomes[leaf].adjacencies
            labeling, total = fitch_scj_labeling(tree)
            assert total == sum(
                brute_min_changes(tree, a) for a in sorted(union)
            )
            assert set(labeling) == set(tree.internal_ids())

    def test_needs_genomes(self):
        tree = parse_newick("(s1,s2)anc1;")
        with pytest.raises(InputError):
            fitch_scj(tree, Adjacency.of("1h", "2t"))


# ---------------------------------------------------------------------------
# Boltzmann posteriors


#: Temperatures from parsimony-like (0.001) to nearly uniform (10).
BOLTZMANN_KTS = (0.001, 0.05, 0.1, 1, 10)


class TestBoltzmann:
    def test_even_split_is_exactly_half(self):
        tree = parse_newick("(s1,s2)anc1;")
        markers = {1, 2}
        tree = tree.with_genomes({
            "s1": genome_of(markers, (1, 2)),
            "s2": genome_of(markers, (1,), (2,)),
        })
        for kt in (0.1, 1.0, 10.0):
            w = boltzmann_weights(tree, Adjacency.of("1h", "2t"), kt)
            assert abs(w[tree.id_of("anc1")] - 0.5) < 1e-12

    def test_matches_scenario_enumeration(self):
        rng = random.Random(41)
        for _ in range(12):
            tree = random_instance(
                rng, n_leaves=rng.randint(2, 6), n_markers=3
            )
            union = set()
            for leaf in tree.leaves():
                union |= tree.leaf_genomes[leaf].adjacencies
            for kt in (0.1, 1.0):
                for adjacency in sorted(union)[:3]:
                    got = boltzmann_weights(tree, adjacency, kt)
                    want = brute_boltzmann(tree, adjacency, kt)
                    for v in want:
                        assert abs(got[v] - want[v]) < 1e-9
                    assert boltzmann_sweep(tree, adjacency, kt) == got

    @pytest.mark.parametrize("non_binary", [False, True])
    def test_equals_the_plain_sweep_exactly(self, non_binary):
        # Equal floats, no tolerance: the kernel shares inside and outside
        # pairs across patterns but keeps the sweep's float operations.
        rng = random.Random(53 if non_binary else 59)
        arities = set()
        for _ in range(15):
            tree = random_instance(
                rng, n_leaves=rng.randint(2, 9), n_markers=rng.randint(3, 8),
                non_binary=non_binary,
            )
            arities |= {len(tree.nodes[v].children) for v in tree.internal_ids()}
            for kt in BOLTZMANN_KTS:
                table = boltzmann_weight_table(tree, kt)
                for a in candidate_adjacencies(tree):
                    want = boltzmann_sweep(tree, a, kt)
                    assert boltzmann_weights(tree, a, kt) == want
                    assert dict(table.row(a)) == {
                        v: quantize_weight(w) for v, w in want.items()
                    }
        if non_binary:
            assert {1, 3} <= arities  # unary and multifurcating nodes were drawn
        else:
            assert arities == {2}

    def test_unanimous_presence_pins_the_weight_high(self):
        tree = quartet_instance({"s1", "s2", "s3", "s4"})
        w = boltzmann_weights(tree, Adjacency.of("1h", "2t"), 0.1)
        for v in tree.internal_ids():
            assert w[v] > 0.999

    def test_tiny_kt_gives_the_parsimonious_presence(self):
        # At kt 0.001 one change costs e^-1000, past the float range.
        tree = quartet_instance({"s1", "s2"})
        w = boltzmann_weights(tree, Adjacency.of("1h", "2t"), 0.001)
        assert w[tree.id_of("anc2")] == 1.0
        assert w[tree.id_of("anc3")] == 0.0
        table = boltzmann_weight_table(tree, 0.001)
        assert table.get_micro(tree.id_of("anc3"), Adjacency.of("1h", "2t")) == 0

    def test_kt_must_be_positive(self):
        tree = quartet_instance({"s1"})
        with pytest.raises(InputError):
            boltzmann_weights(tree, Adjacency.of("1h", "2t"), 0)

    def test_table_covers_every_candidate_everywhere(self):
        tree = quartet_instance({"s1", "s3"})
        table = boltzmann_weight_table(tree, 0.5)
        a = Adjacency.of("1h", "2t")
        for v in tree.internal_ids():
            assert v in table.row(a)
            assert 0 <= table.get_micro(v, a) <= 10**6

    def test_table_checks_its_inputs_before_weighing(self):
        bare = parse_newick("(s1,s2)anc1;")
        with pytest.raises(InputError, match="genomes"):
            boltzmann_weight_table(bare, 0.1)
        no_adjacencies = bare.with_genomes({
            "s1": genome_of({1, 2}, (1,), (2,)),
            "s2": genome_of({1, 2}, (1,), (2,)),
        })
        with pytest.raises(InputError, match="kt"):
            boltzmann_weight_table(no_adjacencies, 0)


def sorted_candidates(tree):
    return sorted(candidate_adjacencies(tree))


class TestBoltzmannTable:
    def test_entries_match_the_per_adjacency_weights(self):
        tree = evolve(SimConfig(n_markers=200, n_leaves=8, seed=0)).tree
        kt = 0.1
        table = boltzmann_weight_table(tree, kt)
        candidates = sorted_candidates(tree)
        internal = sorted(tree.internal_ids())
        for a in candidates:
            weights = boltzmann_sweep(tree, a, kt)
            for v in internal:
                assert table.get_micro(v, a) == quantize_weight(weights[v])
        assert [(v, a) for v, a, _ in table.micro_items()] == [
            (v, a) for v in internal for a in candidates
        ]

    @pytest.mark.parametrize("kt", BOLTZMANN_KTS)
    def test_one_row_per_leaf_pattern_equals_the_plain_sweep(self, kt):
        tree = evolve(SimConfig(n_markers=100, n_leaves=6, seed=0)).tree
        table = boltzmann_weight_table(tree, kt)
        candidates = sorted_candidates(tree)
        genomes = [tree.leaf_genomes[v].adjacencies for v in tree.leaves()]
        by_pattern = {}
        for a in candidates:
            by_pattern.setdefault(tuple(a in g for g in genomes), []).append(a)
        assert len(candidates) == 420
        assert len(by_pattern) == 27
        for group in by_pattern.values():
            (row,) = {id(table._rows[a]): table._rows[a] for a in group}.values()
            want = boltzmann_sweep(tree, group[0], kt)
            assert row == {v: quantize_weight(w) for v, w in want.items()}

    def test_one_row_object_per_leaf_pattern(self):
        tree = evolve(SimConfig(n_markers=100, n_leaves=6, seed=0)).tree
        table = boltzmann_weight_table(tree, 0.1)
        genomes = [tree.leaf_genomes[v].adjacencies for v in tree.leaves()]
        by_pattern = {}
        for a in sorted_candidates(tree):
            by_pattern.setdefault(tuple(a in g for g in genomes), []).append(a)
        rows = table._rows
        assert len({id(row) for row in rows.values()}) == len(by_pattern) == 27
        for group in by_pattern.values():
            assert len({id(rows[a]) for a in group}) == 1
        internal = tree.internal_ids()
        assert len(table) == len(rows) * len(internal)
        for v in internal:
            assert table.total_micro(v) == sum(row[v] for row in rows.values())

    def test_insertion_order_does_not_change_the_solution(self):
        tree = evolve(SimConfig(n_markers=100, n_leaves=6, seed=0)).tree
        forward = boltzmann_weight_table(tree, 0.1)
        rows = {}
        for v, a, micro in reversed(forward.micro_items()):
            rows.setdefault(a, {})[v] = micro
        # The Boltzmann table holds its candidates in sorted order.
        assert list(rows) == sorted(rows, reverse=True)
        backward = WeightTable(rows)
        assert backward.micro_items() == forward.micro_items()
        config = RunConfig(alpha="1/2", threshold_x="0.6")
        want = solve_instance(tree, forward, config)
        got = solve_instance(tree, backward, config)
        assert want.filtered_weight_micro > 0
        assert got.objective == want.objective
        assert got.filtered_weight_micro == want.filtered_weight_micro
        assert got.labeling == want.labeling
        assert labeling_objective(tree, want.labeling, backward, config.alpha) == (
            labeling_objective(tree, want.labeling, forward, config.alpha)
        )


# ---------------------------------------------------------------------------
# Maximum-weight matchings


def alpha_one_labeling(tree, weights, threshold=0):
    config = RunConfig(alpha=1, threshold_x=threshold)
    return solve_instance(tree, weights, config).labeling


class TestMatching:
    """At alpha 1 only discarded weight counts, so the solver keeps a
    maximum-weight matching of the admitted candidates at every node."""

    def build(self):
        tree = parse_newick("(s1,s2)anc1;")
        markers = {1, 2, 3, 4}
        return tree.with_genomes({
            "s1": genome_of(markers, (1, 2), (3, 4)),
            "s2": genome_of(markers, (1, 3), (2, 4)),
        })

    def test_hand_picked_matching(self):
        tree = self.build()
        anc1 = tree.id_of("anc1")
        weights = WeightTable({
            Adjacency.of("1h", "2t"): {anc1: 600_000},
            Adjacency.of("1h", "3t"): {anc1: 900_000},
            Adjacency.of("2h", "4t"): {anc1: 300_000},
            Adjacency.of("3h", "4t"): {anc1: 350_000},
        })
        labeling = alpha_one_labeling(tree, weights)
        assert labeling[anc1] == frozenset({
            Adjacency.of("1h", "3t"), Adjacency.of("3h", "4t"),
        })
        assert sum(weights.get_micro(anc1, a) for a in labeling[anc1]) == 1_250_000

    def test_threshold_excludes_weak_candidates(self):
        tree = self.build()
        anc1 = tree.id_of("anc1")
        weights = WeightTable({
            Adjacency.of("1h", "2t"): {anc1: 600_000},
            Adjacency.of("1h", "3t"): {anc1: 900_000},
        })
        labeling = alpha_one_labeling(tree, weights, "0.7")
        assert labeling[anc1] == frozenset({Adjacency.of("1h", "3t")})

    def test_kept_weight_is_maximal(self):
        rng = random.Random(43)
        for _ in range(20):
            tree = random_instance(
                rng, n_leaves=rng.randint(2, 5), n_markers=4
            )
            weights = random_weights(rng, tree)
            union = set()
            for leaf in tree.leaves():
                union |= tree.leaf_genomes[leaf].adjacencies
            labeling = alpha_one_labeling(tree, weights)
            for v in tree.internal_ids():
                kept = sum(weights.get_micro(v, a) for a in labeling[v])
                want = brute_max_weight_micro(
                    sorted(union), lambda a: weights.get_micro(v, a)
                )
                assert kept == want


# ---------------------------------------------------------------------------
# Weight files


class TestWeightFiles:
    def test_round_trip(self, tmp_path):
        rng = random.Random(47)
        tree = random_instance(rng, n_leaves=3, n_markers=4)
        table = random_weights(rng, tree)
        path = tmp_path / "weights.tsv"
        write_weight_table(path, tree, table)
        back = load_weight_table(path, tree)
        assert back.micro_items() == table.micro_items()

    def test_loaded_adjacencies_share_their_extremities(self, tmp_path):
        markers = {1, 2, 3}
        tree = parse_newick("((s1,s2)anc2,s3)anc1;").with_genomes({
            "s1": genome_of(markers, (1, 2, 3)),
            "s2": genome_of(markers, (2, 1, 3)),
            "s3": genome_of(markers, (1,), (2, 3)),
        })
        path = tmp_path / "weights.tsv"
        path.write_text("anc1\t1h\t2t\t0.5\nanc2\t3t\t1h\t0.25\nanc2\t2t\t1h\t0.5\n")
        items = load_weight_table(path, tree).micro_items()
        (_, a, _), (_, _, _), (_, c, _) = items
        assert [(v, fmt(x), w) for v, x, w in items] == [
            (tree.id_of("anc1"), "1h-2t", 500_000),
            (tree.id_of("anc2"), "1h-2t", 500_000),
            (tree.id_of("anc2"), "1h-3t", 250_000),
        ]
        assert type(a) is tuple and a[0] is c[0]

    def test_errors_carry_line_numbers(self, tmp_path):
        tree = quartet_instance({"s1"})
        path = tmp_path / "weights.tsv"

        cases = [
            ("anc1\t1h\t2t", "columns"),
            ("nope\t1h\t2t\t0.5", "nope"),
            ("anc1\t1x\t2t\t0.5", "extremity"),
            ("anc1\t\u00b2h\t2t\t0.5", "extremity"),
            ("anc1\t9h\t2t\t0.5", "marker"),
            ("anc1\t1h\t2t\theavy", "weight"),
        ]
        for row, needle in cases:
            path.write_text("# comment\n\n" + row + "\n", encoding="utf-8")
            with pytest.raises(InputError) as err:
                load_weight_table(path, tree)
            assert ":3:" in str(err.value)
            assert needle in str(err.value)

    def test_duplicate_rows_are_rejected(self, tmp_path):
        tree = quartet_instance({"s1"})
        path = tmp_path / "weights.tsv"
        path.write_text(
            "anc1\t1h\t2t\t0.5\nanc1\t2t\t1h\t0.7\n", encoding="utf-8"
        )
        with pytest.raises(InputError) as err:
            load_weight_table(path, tree)
        assert ":2:" in str(err.value)
        assert "duplicate" in str(err.value)

    @pytest.mark.parametrize("row, needle", [
        ("nope\t1h\t2t\t0.5", "unknown node name 'nope'"),
        ("anc2\t1h\t3t\t0.5", "unknown marker 3"),
        ("anc2\t1h\t1t\t0.5", "adjacency may not join two extremities of marker 1"),
        ("anc2\t1h\t2t\t1.5", "weight must lie in [0, 1], got 3/2"),
        ("anc1\t2t\t1h\t0.5", "duplicate weight for anc1 1h-2t"),
    ])
    def test_cached_columns_never_skip_a_check(self, tmp_path, row, needle):
        """Every other column of the failing row was checked on line 1."""
        tree = quartet_instance({"s1"})
        path = tmp_path / "weights.tsv"
        path.write_text("anc1\t1h\t2t\t0.5\n" + row + "\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            load_weight_table(path, tree)
        assert str(err.value) == f"{path}:2: {needle}"

    @pytest.mark.parametrize("weight, needle", [("heavy", "bad weight"), ("1.5", "must lie")])
    def test_a_repeated_bad_weight_fails_at_its_first_line(self, tmp_path, weight, needle):
        tree = quartet_instance({"s1"})
        path = tmp_path / "weights.tsv"
        path.write_text(
            f"anc3\t1h\t2t\t0.5\nanc1\t1h\t2t\t{weight}\nanc2\t1h\t2t\t{weight}\n",
            encoding="utf-8",
        )
        with pytest.raises(InputError) as err:
            load_weight_table(path, tree)
        assert ":2:" in str(err.value)
        assert needle in str(err.value)

    def test_both_orientations_are_one_adjacency(self, tmp_path):
        tree = quartet_instance({"s1"})
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        path = tmp_path / "weights.tsv"
        path.write_text("anc1\t1h\t2t\t0.5\nanc2\t2t\t1h\t0.25\n", encoding="utf-8")
        table = load_weight_table(path, tree)
        assert dict(table.row(Adjacency.of("1h", "2t"))) == {anc1: 500_000, anc2: 250_000}
        assert len(table) == 2
        path.write_text("anc1\t1h\t2t\t0.5\nanc1\t2t\t1h\t0.25\n", encoding="utf-8")
        with pytest.raises(InputError, match=":2: duplicate"):
            load_weight_table(path, tree)

    def test_whitespace_around_columns_is_ignored(self, tmp_path):
        tree = quartet_instance({"s1"})
        plain = tmp_path / "plain.tsv"
        padded = tmp_path / "padded.tsv"
        plain.write_text("anc1\t1h\t2t\t0.5\nanc2\t1t\t2h\t1/3\n", encoding="utf-8")
        padded.write_text(
            " anc1 \t 1h\t2t  \t 0.5 \n  \t \t\t\nanc2\t 1t \t2h\t1/3  \n", encoding="utf-8"
        )
        loaded = load_weight_table(padded, tree)
        assert loaded.micro_items() == load_weight_table(plain, tree).micro_items()
        assert len(loaded) == 2

    def test_loaded_entries_match_the_files_rows(self, tmp_path):
        tree = parse_newick("((s1,s2)anc2,(s3,s4)anc3)anc1;").with_genomes({
            name: genome_of({1, 2, 3, 4}, (1, 2), (3, 4)) for name in ("s1", "s2", "s3", "s4")
        })
        rows = [("anc2", "3h", "4t", 100), ("anc1", "1h", "2t", 200),
                ("anc1", "4t", "3h", 300), ("anc3", "1h", "2t", 400), ("s1", "1h", "2t", 500)]
        path = tmp_path / "weights.tsv"
        path.write_text(
            "".join(f"{n}\t{a}\t{b}\t{w / 10**6}\n" for n, a, b, w in rows), encoding="utf-8"
        )
        expected = {}
        for n, a, b, w in rows:
            expected.setdefault(Adjacency.of(a, b), {})[tree.id_of(n)] = w
        loaded = load_weight_table(path, tree)
        assert loaded.micro_items() == WeightTable(expected).micro_items()
        assert dict(loaded.row(Adjacency.of("3h", "4t"))) == {
            tree.id_of("anc2"): 100, tree.id_of("anc1"): 300
        }
        # A row that names a leaf is kept and counted, but never weighs in the objective.
        s1 = tree.id_of("s1")
        assert len(loaded) == 5 and loaded.get_micro(s1, Adjacency.of("1h", "2t")) == 500
        labeling = {v: frozenset() for v in tree.internal_ids()}
        value = labeling_objective(tree, labeling, loaded, 1)
        assert value.discarded_weight * 10**6 == 100 + 200 + 300 + 400

    def test_round_trip_of_a_200x12_boltzmann_table(self, tmp_path):
        tree = evolve(SimConfig(n_markers=200, n_leaves=12, diameter_factor=0.5, seed=1)).tree
        table = boltzmann_weight_table(tree, 0.1)
        path = tmp_path / "weights.tsv"
        write_weight_table(path, tree, table)
        back = load_weight_table(path, tree)
        assert len(back) == len(table) == 8646
        assert back.micro_items() == table.micro_items()
        for v in range(len(tree.nodes)):
            assert back.total_micro(v) == table.total_micro(v)
