"""End-to-end solving, output files, and determinism."""

from __future__ import annotations

import errno
import importlib.util
import json
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (
    brute_instance_optimum,
    joint_assignment_count,
    random_instance,
    random_weights,
)
from scjlabel.core import (
    Adjacency,
    Genome,
    WeightTable,
    chromosome_adjacencies,
    extract_cars,
    labeling_objective,
)
from scjlabel.dp import sample_component, solve_component
from scjlabel.errors import CapacityExceeded, InputError
from scjlabel.formats import parse_labeling, parse_newick, write_labeling
from scjlabel.graph import build_global_graph, candidate_adjacencies, connected_components
from scjlabel import pipeline
from scjlabel.pipeline import RunConfig, run_solve, solve_instance, write_outputs
from scjlabel.rng import derive_seed
from scjlabel.sim import SimConfig, evolve
from scjlabel.weights import boltzmann_weight_table


def genome_of(markers, *chromosomes):
    adjacencies = set()
    for chromosome in chromosomes:
        adjacencies |= chromosome_adjacencies(chromosome)
    return Genome(frozenset(adjacencies), frozenset(markers))


def two_component_instance():
    tree = parse_newick("((s1,s2)anc2,s3)anc1;")
    markers = {1, 2, 3}
    return tree.with_genomes({
        "s1": genome_of(markers, (1, 2), (3,)),
        "s2": genome_of(markers, (1, 2), (3,)),
        "s3": genome_of(markers, (1,), (2, 3)),
    })


def two_fork_instance():
    """Two components with three co-optima each, over three internal nodes."""
    markers = set(range(1, 7))
    left = genome_of(markers, (1, 2), (3,), (4, 5), (6,))
    right = genome_of(markers, (1, 3), (2,), (4, 6), (5,))
    tree = parse_newick("((s1,s2)anc2,(s3,s4)anc3)anc1;")
    return tree.with_genomes({"s1": left, "s2": right, "s3": left, "s4": right})


def enumerable(tree, weights, threshold):
    graph = build_global_graph(
        tree, candidate_adjacencies(tree), weights, threshold
    )
    return all(
        joint_assignment_count(c, tree) <= 20_000
        for c in connected_components(graph)
    )


# ---------------------------------------------------------------------------
# Configuration


class TestRunConfig:
    def test_alpha_and_threshold_become_fractions(self):
        config = RunConfig(alpha="0.3", threshold_x="0.25")
        assert config.alpha == Fraction(3, 10)
        assert config.threshold_x == Fraction(1, 4)

    def test_validation(self):
        with pytest.raises(InputError, match="threshold"):
            RunConfig(threshold_x="1.5")
        with pytest.raises(InputError, match="not a finite number"):
            RunConfig(threshold_x=float("inf"))
        with pytest.raises(InputError, match="not a finite number"):
            RunConfig(alpha=float("nan"))
        with pytest.raises(InputError, match="kT"):
            RunConfig(kt=0.0)
        with pytest.raises(InputError, match="kT"):
            RunConfig(kt=float("nan"))
        with pytest.raises(InputError, match="kT"):
            RunConfig(kt=float("inf"))
        with pytest.raises(InputError, match="sample count"):
            RunConfig(n_samples=-1)
        with pytest.raises(InputError, match="capacity"):
            RunConfig(explosion_cap=0)
        with pytest.raises(InputError, match="thread count"):
            RunConfig(threads=0)
        with pytest.raises(InputError, match="one weight source"):
            RunConfig(weights_path="w.tsv", boltzmann=True)


# ---------------------------------------------------------------------------
# Solving


class TestSolveInstance:
    def test_matches_full_enumeration(self):
        rng = random.Random(101)
        checked = 0
        while checked < 30:
            tree = random_instance(
                rng, n_leaves=rng.randint(2, 4), n_markers=4
            )
            weights = random_weights(rng, tree)
            for threshold in ("0", "0.3"):
                if not enumerable(tree, weights, threshold):
                    continue
                for alpha in ("0", "1/2", "1"):
                    want, want_count = brute_instance_optimum(
                        tree, weights, alpha, threshold
                    )
                    report = solve_instance(tree, weights, RunConfig(
                        alpha=alpha,
                        threshold_x=threshold,
                        explosion_cap=10**12,
                    ))
                    assert report.objective == want
                    assert report.cooptimal_count == want_count
                    checked += 1

    def test_reports_unsupported_and_filtered_weight(self):
        tree = parse_newick("(s1,s2)anc1;")
        markers = {1, 2}
        tree = tree.with_genomes({
            "s1": genome_of(markers, (1, 2)),
            "s2": genome_of(markers, (1,), (2,)),
        })
        weights = WeightTable({next(iter(chromosome_adjacencies((1, 2)))): {0: 800_000}})
        report = solve_instance(
            tree, weights, RunConfig(alpha="1/2", threshold_x="0.9")
        )
        # the lone candidate fell below the threshold: its weight is
        # forfeited and the s1 copy costs one unavoidable change
        assert report.unsupported_leaf_scj == 1
        assert report.filtered_weight_micro == 800_000
        assert report.objective == Fraction(1, 2) * 1 + Fraction(1, 2) * Fraction(4, 5)
        assert report.labeling == {0: frozenset()}
        assert report.components == ()

    def test_requires_genomes(self):
        tree = parse_newick("(s1,s2)anc1;")
        with pytest.raises(InputError, match="no genomes"):
            solve_instance(tree, WeightTable(), RunConfig())

    def test_a_tree_without_internal_nodes(self):
        # A lone leaf has no tree edge, so its adjacencies cost nothing.
        tree = parse_newick("s1;").with_genomes({"s1": genome_of({1, 2, 3}, (1, 2, 3))})
        report = solve_instance(tree, WeightTable(), RunConfig())
        assert report.objective == 0
        assert report.unsupported_leaf_scj == 0
        assert report.labeling == {}
        assert report.components == ()

    def test_solver_routing(self):
        tree = two_component_instance()
        auto = solve_instance(tree, WeightTable(), RunConfig())
        assert [c.solver for c in auto.components] == ["dp", "dp"]
        assert [c.bb_nodes for c in auto.components] == [None, None]
        forced = solve_instance(
            tree, WeightTable(), RunConfig(explosion_cap=1)
        )
        assert [c.solver for c in forced.components] == ["ilp", "ilp"]
        assert all(c.bb_nodes >= 1 for c in forced.components)
        assert forced.cooptimal_count is None
        assert forced.objective == auto.objective

    def test_sampling_on_the_ilp_route_is_refused(self):
        tree = two_component_instance()
        with pytest.raises(CapacityExceeded, match="cannot sample"):
            solve_instance(
                tree, WeightTable(),
                RunConfig(explosion_cap=1, n_samples=5),
            )


class TestSignatureMemo:
    def test_a_memoised_part_matches_its_own_dp_solution(self):
        tree = evolve(SimConfig(n_markers=30, n_leaves=5, seed=2)).tree
        weights = boltzmann_weight_table(tree, 0.1)
        config = RunConfig(alpha=0, threshold_x="0.5", n_samples=20, seed=5)
        graph = build_global_graph(
            tree, candidate_adjacencies(tree), weights, config.threshold_x
        )
        parts = [c for c in connected_components(graph) if len(c.edges) == 1]
        leaves = [tree.leaf_genomes[v].adjacencies for v in tree.leaves()]
        solved = {}
        internal = tree.internal_ids()

        def labels(part, solutions):
            return [pipeline._assemble(internal, [part], [s]) for s in solutions]

        shared = []
        for i, part in enumerate(parts):
            route, solution, samples, _ = pipeline._solve_one(
                part, tree, weights, config, i, leaves, solved
            )
            own, own_table = solve_component(part, tree, weights, config.alpha)
            assert route == "dp"
            assert labels(part, [solution]) == labels(part, [own])
            assert solution.cooptimal_count == own.cooptimal_count
            assert solution.objective_scaled == own.objective_scaled
            seed = derive_seed(config.seed, "component", i)
            assert labels(part, samples) == labels(
                part, sample_component(own_table, 20, seed)
            )
            shared.append(solution)
        # Most parts were answered from the memo, many of them with
        # several co-optima to sample from.
        assert (len(parts), len(solved)) == (47, 6)
        assert sum(solution.cooptimal_count > 1 for solution in shared) == 30

    def test_a_run_solves_each_signature_once(self, monkeypatch):
        tree = evolve(SimConfig(n_markers=30, n_leaves=5, seed=2)).tree
        weights = boltzmann_weight_table(tree, 0.1)
        solved = []
        original = pipeline.solve_component

        def counted(component, *args, **kwargs):
            solved.append(component)
            return original(component, *args, **kwargs)

        monkeypatch.setattr(pipeline, "solve_component", counted)
        config = RunConfig(alpha=0, threshold_x="0.5", n_samples=5, seed=1)
        report = solve_instance(tree, weights, config)
        # 47 one-adjacency components with 6 signatures (see above).
        assert (len(report.components), len(solved)) == (47, 6)

    def test_equal_leaves_with_other_weights_are_solved_apart(self):
        tree = parse_newick("((s1,s2)anc2,s3)anc1;")
        markers = {1, 2, 3, 4}
        tree = tree.with_genomes({
            "s1": genome_of(markers, (1, 2), (3, 4)),
            "s2": genome_of(markers, (1,), (2,), (3,), (4,)),
            "s3": genome_of(markers, (1,), (2,), (3,), (4,)),
        })
        anc1, anc2 = tree.id_of("anc1"), tree.id_of("anc2")
        weights = WeightTable({
            Adjacency.of("1h", "2t"): {anc1: 900_000, anc2: 900_000},
            Adjacency.of("3h", "4t"): {anc1: 100_000, anc2: 100_000},
        })
        config = RunConfig(alpha="1/2")
        graph = build_global_graph(tree, candidate_adjacencies(tree), weights, 0)
        parts = connected_components(graph)
        leaves = [tree.leaf_genomes[v].adjacencies for v in tree.leaves()]
        solved = {}
        got = [
            pipeline._solve_one(part, tree, weights, config, i, leaves, solved)[1].objective
            for i, part in enumerate(parts)
        ]
        want = [
            solve_component(part, tree, weights, config.alpha)[0].objective
            for part in parts
        ]
        assert len(solved) == 2
        assert got == want == [1, Fraction(3, 5)]


class TestSampling:
    def test_samples_are_cooptimal_and_tallied_exactly(self):
        tree = two_component_instance()
        config = RunConfig(alpha="1/2", n_samples=12, seed=7)
        report = solve_instance(tree, WeightTable(), config)
        assert len(report.samples) == 12
        for sample in report.samples:
            value = labeling_objective(tree, sample, WeightTable(), "1/2")
            assert value.total == report.objective
        for (v, a), fraction in report.sample_frequencies.items():
            hits = sum(1 for sample in report.samples if a in sample[v])
            assert fraction == Fraction(hits, 12)

    def test_same_seed_same_samples(self):
        tree = two_component_instance()
        first = solve_instance(tree, WeightTable(), RunConfig(n_samples=6, seed=3))
        second = solve_instance(tree, WeightTable(), RunConfig(n_samples=6, seed=3))
        assert first.samples == second.samples


# ---------------------------------------------------------------------------
# Trace contract


def load_spans():
    """The benchmark's tracer module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTraceContract:
    """The traced benchmark run wraps names in ``scjlabel.pipeline`` and
    counts work from what they return; these runs read every solver
    result the way it does."""

    def traced_counts(self, config):
        tracer = load_spans().Tracer(pipeline)
        tracer.install()
        try:
            pipeline.solve_instance(two_component_instance(), WeightTable(), config)
        finally:
            tracer.remove()
        return tracer.take()[1]

    def test_branch_and_bound_counts(self):
        counts = self.traced_counts(RunConfig(explosion_cap=1))
        assert counts["graph.components"] == 2
        assert counts["ilp.components"] == 2
        assert counts["ilp.vars"] > 0
        assert counts["ilp.bb_nodes"] > 0
        assert counts["dp.components"] == 0

    def test_sample_counts(self):
        counts = self.traced_counts(RunConfig(n_samples=4, seed=1))
        assert counts["dp.components"] == 2
        assert counts["dp.label_pairs"] > 0
        assert counts["dp.component_samples"] == 2 * 4
        assert counts["ilp.components"] == 0


# ---------------------------------------------------------------------------
# File-level run and outputs


TREE_TEXT = "((s1,s2)anc2,s3)anc1;"
GENOME_ROWS = [
    "s1\tL\t1 2",
    "s1\tL\t3",
    "s2\tL\t1 2",
    "s2\tL\t3",
    "s3\tL\t1",
    "s3\tL\t2 3",
]


def write_instance(tmp_path):
    tree_path = tmp_path / "tree.nwk"
    tree_path.write_text(TREE_TEXT + "\n", encoding="utf-8")
    genomes_path = tmp_path / "genomes.tsv"
    genomes_path.write_text("\n".join(GENOME_ROWS) + "\n", encoding="utf-8")
    return tree_path, genomes_path


class TestRunSolve:
    def test_requires_paths(self):
        with pytest.raises(InputError, match="required"):
            run_solve(RunConfig())

    def test_solves_from_files(self, tmp_path):
        tree_path, genomes_path = write_instance(tmp_path)
        report = run_solve(RunConfig(
            tree_path=str(tree_path), genomes_path=str(genomes_path)
        ))
        assert report.n_markers == 3
        assert report.n_nodes == 5
        assert len(report.components) == 2

    def test_writes_the_output_inventory(self, tmp_path):
        tree_path, genomes_path = write_instance(tmp_path)
        out = tmp_path / "run"
        run_solve(RunConfig(
            tree_path=str(tree_path),
            genomes_path=str(genomes_path),
            n_samples=4,
            out_dir=str(out),
        ))
        assert (out / "cars.tsv").is_file()
        assert (out / "stats.tsv").is_file()
        assert (out / "manifest.json").is_file()
        assert (out / "frequency.tsv").is_file()
        samples = sorted(p.name for p in (out / "samples").iterdir())
        assert samples == [f"sample_{i:04d}.tsv" for i in range(4)]

    def test_no_sampling_means_no_sample_files(self, tmp_path):
        tree_path, genomes_path = write_instance(tmp_path)
        out = tmp_path / "run"
        run_solve(RunConfig(
            tree_path=str(tree_path),
            genomes_path=str(genomes_path),
            out_dir=str(out),
        ))
        assert not (out / "frequency.tsv").exists()
        assert not (out / "samples").exists()

    def test_a_reused_directory_keeps_no_stale_outputs(self, tmp_path):
        tree_path, genomes_path = write_instance(tmp_path)
        out = tmp_path / "run"

        def run(n_samples):
            run_solve(RunConfig(
                tree_path=str(tree_path),
                genomes_path=str(genomes_path),
                n_samples=n_samples,
                out_dir=str(out),
            ))

        run(20)
        run(5)
        samples = sorted(p.name for p in (out / "samples").iterdir())
        assert samples == [f"sample_{i:04d}.tsv" for i in range(5)]
        run(0)
        assert not (out / "frequency.tsv").exists()
        assert not (out / "samples").exists()
        # only the files the program names are removed
        run(3)
        (out / "samples" / "notes.txt").write_text("kept\n", encoding="utf-8")
        run(0)
        assert [p.name for p in (out / "samples").iterdir()] == ["notes.txt"]


def output_files(base):
    return {
        str(path.relative_to(base)): path.read_bytes()
        for path in sorted(base.rglob("*"))
        if path.is_file()
    }


class TestOutputFiles:
    def run(self, tmp_path, **overrides):
        tree = two_component_instance()
        config = RunConfig(out_dir=str(tmp_path / "run"), **overrides)
        report = solve_instance(tree, WeightTable(), config)
        write_outputs(report, tree, config)
        return tree, report, tmp_path / "run"

    def test_cars_file_round_trips_the_labeling(self, tmp_path):
        tree, report, out = self.run(tmp_path)
        assert parse_labeling(out / "cars.tsv", tree) == report.labeling

    def test_stats_header_values(self, tmp_path):
        tree, report, out = self.run(tmp_path)
        text = (out / "stats.tsv").read_text(encoding="utf-8")
        header = dict(
            line[2:].split("\t", 1)
            for line in text.splitlines()
            if line.startswith("# ")
        )
        num, den = header["objective_exact"].split("/")
        assert Fraction(int(num), int(den)) == report.objective
        assert header["scj_total"] == str(report.scj_total)
        assert header["cooptimal_count"] == str(report.cooptimal_count)
        assert header["components"] == "2"
        assert header["component_solvers"] == "dp,dp"

    def test_stats_node_rows(self, tmp_path):
        tree, report, out = self.run(tmp_path)
        lines = [
            line
            for line in (out / "stats.tsv").read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")
        ]
        assert lines[0] == "node\tn_cars\tn_adjacencies\tscj_to_parent\tscj_leaf_edges"
        rows = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
        assert set(rows) == {"anc1", "anc2"}
        # the root has no parent edge
        assert rows["anc1"][3] == ""
        assert rows["anc2"][3] != ""

    def test_manifest_content_and_exclusions(self, tmp_path):
        _, _, out = self.run(tmp_path, n_samples=3, seed=9, threads=2)
        payload = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert payload["tool"] == "scjlabel"
        assert payload["config"]["alpha"] == "1/2"
        assert payload["config"]["n_samples"] == 3
        assert payload["config"]["seed"] == 9
        assert payload["config"]["weights"] == "none"
        assert "threads" not in payload["config"]
        assert "networkx" not in payload
        blob = json.dumps(payload)
        assert "out_dir" not in blob and str(out) not in blob

    def test_frequencies_match_the_report(self, tmp_path):
        tree, report, out = self.run(tmp_path, n_samples=10, seed=2)
        lines = (out / "frequency.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "node\textremity_a\textremity_b\tfrequency"
        assert len(lines) - 1 == len(report.sample_frequencies)
        for line in lines[1:]:
            _, _, _, frequency = line.split("\t")
            assert 0.0 < float(frequency) <= 1.0

    def test_byte_identical_across_threads_and_repeats(self, tmp_path):
        runs = []
        for i, threads in enumerate((1, 4, 1)):
            tree = two_component_instance()
            config = RunConfig(
                n_samples=5, seed=4, threads=threads,
                out_dir=str(tmp_path / f"run{i}"),
            )
            report = solve_instance(tree, WeightTable(), config)
            write_outputs(report, tree, config)
            runs.append(output_files(tmp_path / f"run{i}"))
        assert runs[0] == runs[1] == runs[2]

    def test_a_reused_directory_matches_a_fresh_one(self, tmp_path):
        tree = two_fork_instance()

        def write(out, n_samples, seed):
            config = RunConfig(n_samples=n_samples, seed=seed, out_dir=str(out))
            write_outputs(solve_instance(tree, WeightTable(), config), tree, config)

        reused = tmp_path / "reused"
        write(reused, 40, 1)
        write(reused, 25, 2)
        fresh = tmp_path / "fresh"
        write(fresh, 25, 2)
        assert output_files(reused) == output_files(fresh)
        contents = {}
        for path in (reused / "samples").iterdir():
            contents.setdefault(path.stat().st_ino, set()).add(path.read_bytes())
        # files share an inode only when their bytes are equal
        assert all(len(found) == 1 for found in contents.values())
        assert len(contents) < 25


class TestSharedRendering:
    """Files written from shared samples and cached CAR rows equal what
    the plain one-labeling writer and a plain tally give."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_files_match_the_plain_writer(self, tmp_path, threads):
        self.check_files(tmp_path, threads)

    @pytest.mark.parametrize(
        "code, every", [(errno.EPERM, 1), (errno.EMLINK, 3)], ids=["EPERM", "EMLINK"]
    )
    def test_a_failed_link_writes_the_file(self, tmp_path, monkeypatch, code, every):
        calls = []
        link = os.link

        def flaky_link(source, path):
            calls.append((Path(source), Path(path)))
            if len(calls) % every == 0:
                raise OSError(code, os.strerror(code))
            link(source, path)

        monkeypatch.setattr(os, "link", flaky_link)
        report, out = self.check_files(tmp_path, 1)
        assert calls
        linked = {path: source for source, path in calls}
        failed = {path for i, (_, path) in enumerate(calls, 1) if i % every == 0}
        sources = {}
        for i, sample in enumerate(report.samples):
            path = out / "samples" / f"sample_{i:04d}.tsv"
            if id(sample) not in sources:
                assert path not in linked
                sources[id(sample)] = path
                continue
            # a repeat links to the newest file written for its labeling
            assert linked[path] == sources[id(sample)]
            if path in failed:
                assert not path.samefile(sources[id(sample)])
                sources[id(sample)] = path
            else:
                assert path.samefile(sources[id(sample)])

    def check_files(self, tmp_path, threads):
        tree = two_fork_instance()
        n = 60
        out = tmp_path / "out"
        config = RunConfig(n_samples=n, seed=1, threads=threads, out_dir=str(out))
        report = solve_instance(tree, WeightTable(), config)
        assert [c.cooptimal_count for c in report.components] == [3, 3]
        write_outputs(report, tree, config)
        plain = tmp_path / "plain.tsv"

        def plain_bytes(labeling):
            write_labeling(plain, tree, labeling)
            return plain.read_bytes()

        assert (out / "cars.tsv").read_bytes() == plain_bytes(report.labeling)
        files = sorted((out / "samples").iterdir())
        assert len(files) == n
        for path, sample in zip(files, report.samples):
            assert path.read_bytes() == plain_bytes(sample)

        internal = tree.internal_ids()
        tally = {}
        for sample in report.samples:
            for v in internal:
                for a in sample[v]:
                    tally[(v, a)] = tally.get((v, a), 0) + 1
        want = ["node\textremity_a\textremity_b\tfrequency"]
        for v in internal:
            for a in sorted(a for node, a in tally if node == v):
                x, y = a
                want.append(f"{tree.name_of(v)}\t{x}\t{y}\t{tally[(v, a)] / n:.6f}")
        assert (out / "frequency.tsv").read_text(encoding="utf-8").splitlines() == want

        stats = (out / "stats.tsv").read_text(encoding="utf-8").splitlines()
        n_cars = {line.split("\t")[0]: line.split("\t")[1] for line in stats[14:]}
        assert n_cars == {
            tree.name_of(v): str(len(extract_cars(report.labeling[v], tree.markers)))
            for v in internal
        }
        return report, out
