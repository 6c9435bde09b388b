"""Newick trees and the tab-separated genome and labeling files."""

from __future__ import annotations

import gc
import sys

import pytest

from scjlabel.core import Adjacency, Genome, chromosome_adjacencies
from scjlabel.errors import InputError
from scjlabel.formats import (
    parse_genomes,
    parse_labeling,
    parse_newick,
    parse_tree,
    write_genomes,
    write_labeling,
    write_newick,
)


def genome_of(markers, *chromosomes):
    adjacencies = set()
    for chromosome in chromosomes:
        adjacencies |= chromosome_adjacencies(chromosome)
    return Genome(frozenset(adjacencies), frozenset(markers))


# ---------------------------------------------------------------------------
# Newick


class TestParseNewick:
    def test_named_tree(self):
        tree = parse_newick("((s1,s2)anc2,s3)anc1;")
        assert tree.name_of(tree.root) == "anc1"
        assert [tree.name_of(v) for v in tree.preorder()] == [
            "anc1", "anc2", "s1", "s2", "s3",
        ]
        assert tree.nodes[tree.id_of("s1")].parent == tree.id_of("anc2")
        assert all(n.length is None for n in tree.nodes)

    def test_multifurcation(self):
        tree = parse_newick("(s1,s2,s3)r;")
        assert len(tree.nodes[tree.root].children) == 3

    def test_branch_lengths(self):
        tree = parse_newick("((s1:1.5,s2:2)x:0.5,s3:3)r;")
        assert tree.nodes[tree.id_of("s1")].length == pytest.approx(1.5)
        assert tree.nodes[tree.id_of("x")].length == pytest.approx(0.5)
        assert tree.nodes[tree.root].length is None

    def test_unnamed_internals_are_numbered_in_postorder(self):
        tree = parse_newick("((s1,s2),s3);")
        assert tree.name_of(tree.root) == "anc2"
        inner = tree.nodes[tree.id_of("s1")].parent
        assert tree.name_of(inner) == "anc1"

    def test_whitespace_is_tolerated(self):
        tree = parse_newick(" ( (s1 , s2) anc2 , s3 ) anc1 ;\n")
        assert {tree.name_of(v) for v in tree.leaves()} == {"s1", "s2", "s3"}

    def test_errors(self):
        with pytest.raises(InputError, match="empty input"):
            parse_newick("   ")
        with pytest.raises(InputError, match="leaf has no name"):
            parse_newick("((,s2)x,s3)r;")
        with pytest.raises(InputError, match="bad branch length"):
            parse_newick("(s1:abc,s2)r;")
        with pytest.raises(InputError, match="trailing characters"):
            parse_newick("(s1,s2)r; x")
        with pytest.raises(InputError, match="expected ',' or '\\)'"):
            parse_newick("(s1,s2;")

    def test_parse_tree_reports_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read tree file"):
            parse_tree(tmp_path / "nope.nwk")


class TestWriteNewick:
    def test_round_trip_without_lengths(self):
        text = "((s1,s2)anc2,s3)anc1;"
        assert write_newick(parse_newick(text)) == text

    def test_lengths_use_six_decimals(self):
        tree = parse_newick("(s1:1.5,s2:2)r;")
        assert write_newick(tree) == "(s1:1.500000,s2:2.000000)r;"

    def test_a_deep_caterpillar_round_trips_without_recursion(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("the Newick code changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        bare = named = "L0"
        for i in range(1, 2000):
            bare = f"({bare},L{i}:1)"
            named = f"({named},L{i}:1.000000)anc{i}"
        tree = parse_newick(bare + ";")
        assert write_newick(tree) == named + ";"
        assert write_newick(parse_newick(named + ";")) == named + ";"
        # Ids in preorder: the root, then down the spine to L0, L1, L2, ...
        assert tuple(tree.preorder()) == tuple(range(len(tree.nodes)))
        assert [tree.name_of(v) for v in (0, 1, 1998, 1999, 2000, 3998)] == [
            "anc1999", "anc1998", "anc1", "L0", "L1", "L1999",
        ]

    def test_round_trip_preserves_structure(self):
        tree = parse_newick("((s1:1.25,s2:2)x:0.5,s3:3)r;")
        again = parse_newick(write_newick(tree))
        assert [n.name for n in again.nodes] == [n.name for n in tree.nodes]
        for a, b in zip(again.nodes, tree.nodes):
            if a.length is None:
                assert b.length is None
            else:
                assert a.length == pytest.approx(b.length)


# ---------------------------------------------------------------------------
# Genome files


def write_text(path, *lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestParseGenomes:
    def test_signs_choose_the_joined_extremities(self, tmp_path):
        path = write_text(tmp_path / "g.tsv", "g\tL\t1 -2 3")
        genomes = parse_genomes(path)
        assert genomes["g"].adjacencies == frozenset({
            Adjacency.of("1h", "2h"), Adjacency.of("2t", "3t"),
        })
        assert genomes["g"].markers == frozenset({1, 2, 3})

    def test_circular_rows_close_the_loop(self, tmp_path):
        path = write_text(tmp_path / "g.tsv", "g\tC\t1 2")
        genomes = parse_genomes(path)
        assert genomes["g"].adjacencies == frozenset(
            chromosome_adjacencies((1, 2), circular=True)
        )

    def test_rows_with_one_name_form_one_genome(self, tmp_path):
        path = write_text(
            tmp_path / "g.tsv",
            "# two genomes over markers 1..3",
            "a\tL\t1 2",
            "a\tL\t3",
            "",
            "b\tL\t1 2 3",
        )
        genomes = parse_genomes(path)
        assert set(genomes) == {"a", "b"}
        assert genomes["a"].markers == genomes["b"].markers

    def test_genomes_share_untracked_tuples(self, tmp_path):
        # The tuples are exact, so the collector stops tracking them, and
        # an adjacency held by two genomes is one object.
        path = write_text(tmp_path / "g.tsv", "a\tL\t1 2 3", "b\tL\t3 1 2", "c\tC\t-2 -1 3")
        genomes = parse_genomes(path)
        (a12,) = [x for x in genomes["a"].adjacencies if x == Adjacency.of("1h", "2t")]
        (b12,) = [x for x in genomes["b"].adjacencies if x == a12]
        (c12,) = [x for x in genomes["c"].adjacencies if x == a12]
        assert a12 is b12 is c12
        # A pass untracks a tuple only if its items already are, and it may
        # reach an adjacency before its extremities: the second pass ends it.
        gc.collect()
        gc.collect()
        held = [adj for g in genomes.values() for adj in g.adjacencies]
        assert len(held) == 7
        for adjacency in held:
            assert type(adjacency) is tuple and not gc.is_tracked(adjacency)
            for x in adjacency:
                assert type(x) is tuple and not gc.is_tracked(x)

    def test_marker_content_must_match(self, tmp_path):
        path = write_text(tmp_path / "g.tsv", "a\tL\t1 2", "b\tL\t1 3")
        with pytest.raises(InputError, match="different marker content"):
            parse_genomes(path)

    def test_duplicate_marker_reports_the_line(self, tmp_path):
        path = write_text(tmp_path / "g.tsv", "a\tL\t1 2", "a\tL\t-1")
        with pytest.raises(InputError, match=r"g\.tsv:2: marker 1 repeats"):
            parse_genomes(path)

    def test_row_validation(self, tmp_path):
        cases = [
            ("a\tL", "expected 3 tab-separated columns"),
            ("\tL\t1", "empty name column"),
            ("a\tX\t1", "kind must be L or C"),
            ("a\tL\t", "empty marker order"),
            ("a\tL\t1 x", "bad marker id"),
            ("a\tL\t1 0", "must be non-zero"),
        ]
        for row, message in cases:
            path = write_text(tmp_path / "bad.tsv", row)
            with pytest.raises(InputError, match=message):
                parse_genomes(path)

    @pytest.mark.parametrize("rows, message", [
        (["a\tL\t1 0 x"], ":1: marker ids must be non-zero"),
        (["a\tL\t1 x 0"], ":1: bad marker id 'x'"),
        (["a\tL\t1 2 x3 y"], ":1: bad marker id 'x3'"),
        (["# comment", "a\tL\t2 1 -2 3"], ":2: marker 2 repeats in genome a"),
        (["a\tL\t1 2", "b\tL\t1 2", "", "a\tL\t3 4 3 -2"], ":4: marker 3 repeats in genome a"),
        (["a\tL\t1 2", "a\tL\t3 -1 -1"], ":2: marker 1 repeats in genome a"),
        (["a\tL\t1 2 3", "b\tL\t1 2", "b\tL\t4"], ": genome b has different marker content than a"),
        (["a\tL\t1 2", "b\tL\t1 2", "c\tL\t1"], ": genome c has different marker content than a"),
        (["a\tL\t1", "b\tC\t1"], ": genome b: adjacency may not join two extremities of marker 1"),
    ])
    def test_errors_keep_their_message_and_line(self, tmp_path, rows, message):
        path = write_text(tmp_path / "bad.tsv", *rows)
        with pytest.raises(InputError) as info:
            parse_genomes(path)
        assert str(info.value) == f"{path}{message}"

    def test_genomes_share_one_universe_object(self, tmp_path):
        path = write_text(tmp_path / "g.tsv", "a\tL\t1 2 3", "b\tL\t3", "b\tC\t-2 1")
        genomes = parse_genomes(path)
        assert genomes["a"].markers is genomes["b"].markers == frozenset({1, 2, 3})
        assert genomes["b"].adjacencies == chromosome_adjacencies((-2, 1), circular=True)
        assert genomes["a"].adjacencies == chromosome_adjacencies((1, 2, 3))

    def test_empty_file_is_rejected(self, tmp_path):
        path = write_text(tmp_path / "g.tsv", "# nothing here")
        with pytest.raises(InputError, match="no genome rows"):
            parse_genomes(path)

    def test_missing_file_is_reported(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            parse_genomes(tmp_path / "nope.tsv")


class TestWriteGenomes:
    def test_round_trip(self, tmp_path):
        genomes = {
            "a": genome_of({1, 2, 3}, (1, -2), (3,)),
            "b": genome_of({1, 2, 3}, (2, 3, 1)),
        }
        path = tmp_path / "out.tsv"
        write_genomes(path, genomes)
        again = parse_genomes(path)
        assert set(again) == {"a", "b"}
        for name in genomes:
            assert again[name].adjacencies == genomes[name].adjacencies
            assert again[name].markers == genomes[name].markers

    def test_circular_chromosomes_survive(self, tmp_path):
        adjacencies = frozenset(chromosome_adjacencies((1, 2, 3), circular=True))
        genomes = {"c": Genome(adjacencies, frozenset({1, 2, 3}))}
        path = tmp_path / "out.tsv"
        write_genomes(path, genomes)
        assert parse_genomes(path)["c"].adjacencies == adjacencies


# ---------------------------------------------------------------------------
# Labeling files


def labeled_tree():
    tree = parse_newick("((s1,s2)anc2,s3)anc1;")
    markers = {1, 2, 3}
    return tree.with_genomes({
        "s1": genome_of(markers, (1, 2, 3)),
        "s2": genome_of(markers, (1, 2), (3,)),
        "s3": genome_of(markers, (1,), (2, 3)),
    })


class TestParseLabeling:
    def test_rows_become_internal_labels(self, tmp_path):
        tree = labeled_tree()
        path = write_text(tmp_path / "lab.tsv", "anc2\tL\t1 2")
        labeling = parse_labeling(path, tree)
        assert labeling[tree.id_of("anc2")] == frozenset({Adjacency.of("1h", "2t")})
        assert labeling[tree.id_of("anc1")] == frozenset()

    def test_unknown_node_name(self, tmp_path):
        path = write_text(tmp_path / "lab.tsv", "ghost\tL\t1 2")
        with pytest.raises(InputError, match="unknown node name"):
            parse_labeling(path, labeled_tree())

    def test_leaf_rows_are_rejected(self, tmp_path):
        path = write_text(tmp_path / "lab.tsv", "s1\tL\t1 2")
        with pytest.raises(InputError, match="s1 is a leaf"):
            parse_labeling(path, labeled_tree())

    def test_unknown_marker(self, tmp_path):
        path = write_text(tmp_path / "lab.tsv", "anc2\tL\t1 5")
        with pytest.raises(InputError, match="unknown marker 5"):
            parse_labeling(path, labeled_tree())

    @pytest.mark.parametrize("rows, message", [
        (["anc2\tL\t1 2", "anc1\tL\t3 5 7"], ":2: unknown marker 5"),
        (["anc2\tL\t1 0 x"], ":1: marker ids must be non-zero"),
        (["anc2\tL\t1 x 0"], ":1: bad marker id 'x'"),
        (["anc2\tL\t1 2", "# c", "s1\tL\t1 2"], ":3: s1 is a leaf, not an internal node"),
        (["anc2\tC\t2"], ":1: adjacency may not join two extremities of marker 2"),
        (["anc2\tL\t1 -3", "anc2\tL\t2 -3"], ": rows for anc2 reuse extremities: 3h"),
    ])
    def test_errors_keep_their_message_and_line(self, tmp_path, rows, message):
        path = write_text(tmp_path / "lab.tsv", *rows)
        with pytest.raises(InputError) as info:
            parse_labeling(path, labeled_tree())
        assert str(info.value) == f"{path}{message}"

    def test_extremity_reuse_across_rows(self, tmp_path):
        path = write_text(
            tmp_path / "lab.tsv", "anc2\tL\t1 2", "anc2\tL\t1 3"
        )
        with pytest.raises(InputError, match="reuse extremities.*1h"):
            parse_labeling(path, labeled_tree())


class TestWriteLabeling:
    def test_round_trip(self, tmp_path):
        tree = labeled_tree()
        labeling = {
            tree.id_of("anc1"): frozenset(chromosome_adjacencies((1, 2, 3))),
            tree.id_of("anc2"): frozenset({Adjacency.of("2h", "3t")}),
        }
        path = tmp_path / "lab.tsv"
        write_labeling(path, tree, labeling)
        assert parse_labeling(path, tree) == labeling

    def test_empty_labels_round_trip(self, tmp_path):
        tree = labeled_tree()
        labeling = {v: frozenset() for v in tree.internal_ids()}
        path = tmp_path / "lab.tsv"
        write_labeling(path, tree, labeling)
        assert parse_labeling(path, tree) == labeling
