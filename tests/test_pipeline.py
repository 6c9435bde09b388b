"""End-to-end solving, output files, and determinism."""

from __future__ import annotations

import errno
import importlib.util
import json
import os
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from oracles import (
    brute_instance_optimum,
    joint_assignment_count,
    per_sample_labelings,
    per_walk_samples,
    random_genome,
    random_instance,
    random_topology,
    random_weights,
)
from scjlabel.core import (
    Adjacency,
    Genome,
    WeightTable,
    chromosome_adjacencies,
    extract_cars,
    fmt,
    labeling_objective,
)
from scjlabel.dp import count_cooptimal, sample_component, solve_component
from scjlabel.errors import CapacityExceeded, InputError
from scjlabel.formats import parse_labeling, parse_newick, write_labeling
from scjlabel.graph import build_global_graph, candidate_adjacencies, connected_components
from scjlabel.ilp import build_model, solve_bb
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
        with pytest.raises(InputError, match="kT"):
            RunConfig(kt=True)
        for n_samples in (-1, 1.5, True):
            with pytest.raises(InputError, match="sample count"):
                RunConfig(n_samples=n_samples)
        for seed in (1.5, "x", True, None):
            with pytest.raises(InputError, match="^seed must be an integer"):
                RunConfig(seed=seed)
        for cap in (0, 2.5, True, "4"):
            with pytest.raises(InputError, match="^capacity must be an integer of at least 1"):
                RunConfig(explosion_cap=cap)
        with pytest.raises(InputError, match="thread count"):
            RunConfig(threads=0)
        with pytest.raises(InputError, match="one weight source"):
            RunConfig(weights_path="w.tsv", boltzmann=True)

    def test_a_huge_threshold_is_bad_input(self):
        # Its exact value has too many digits for str().
        for value in (10**5000, Fraction(10**5000, 3)):
            with pytest.raises(InputError, match=r"threshold must lie in \[0, 1\], got ~1e"):
                RunConfig(threshold_x=value)
        with pytest.raises(InputError, match=r"got 1.5$"):
            RunConfig(threshold_x="1.5")


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
        # Two signatures, so one solve each.
        assert [c.indices for c in auto.components] == [(0,), (1,)]
        assert [c.solver for c in auto.components] == ["dp", "dp"]
        assert [c.solution.nodes_explored for c in auto.components] == [None, None]
        forced = solve_instance(
            tree, WeightTable(), RunConfig(explosion_cap=1)
        )
        assert [c.indices for c in forced.components] == [(0,), (1,)]
        assert [c.solver for c in forced.components] == ["ilp", "ilp"]
        assert all(c.solution.nodes_explored >= 1 for c in forced.components)
        assert forced.cooptimal_count is None
        assert forced.objective == auto.objective

    def test_sampling_on_the_ilp_route_is_refused(self):
        tree = two_component_instance()
        with pytest.raises(CapacityExceeded, match="cannot sample"):
            solve_instance(
                tree, WeightTable(),
                RunConfig(explosion_cap=1, n_samples=5),
            )


def solve_each_alone(tree, weights, config):
    """``solve_instance``'s answer with every component solved on its own.

    Routes as the pipeline does: ``solve_component`` and
    ``sample_component`` with the component's own seed stream on the DP
    route, ``solve_bb`` otherwise.  Returns the labeling, the co-optimal
    count, the route of each component, the samples and the summed
    objective and discarded weight of the components.
    """
    graph = build_global_graph(
        tree, candidate_adjacencies(tree), weights, config.threshold_x
    )
    internal = tree.internal_ids()
    labeling = {v: set() for v in internal}
    samples = [{v: set() for v in internal} for _ in range(config.n_samples)]
    solvers, cooptimal, scaled, discarded = [], 1, 0, 0
    for i, part in enumerate(connected_components(graph)):
        if part.label_space_bound ** 2 <= config.explosion_cap:
            solution, table = solve_component(
                part, tree, weights, config.alpha, explosion_cap=config.explosion_cap
            )
            drawn = sample_component(
                table, config.n_samples, derive_seed(config.seed, "component", i)
            )
            solvers.append("dp")
        else:
            if config.n_samples:
                raise CapacityExceeded(f"component {i} cannot sample")
            solution, drawn = solve_bb(build_model(part, tree, weights, config.alpha)), []
            solvers.append("ilp")
        for v, label in solution.node_labels.items():
            labeling[v] |= label
        for sample, sampled in zip(samples, drawn):
            for v, label in sampled.node_labels.items():
                sample[v] |= label
        if cooptimal is not None and solution.cooptimal_count is not None:
            cooptimal *= solution.cooptimal_count
        else:
            cooptimal = None
        scaled += solution.objective_scaled
        discarded += solution.discarded_micro

    def frozen(labels):
        return {v: frozenset(label) for v, label in labels.items()}

    return (
        frozen(labeling), cooptimal, solvers, [frozen(s) for s in samples],
        scaled, discarded,
    )


def derived_instance(rng):
    """A random tree whose leaves mostly hold parts of one genome.

    Most leaves keep each adjacency of a random base genome with
    probability 0.9, so many candidates are one-adjacency components
    with the same leaves; a quarter of the leaves hold a random genome
    of their own, whose adjacencies conflict with the base's.
    """
    topology = random_topology(rng, rng.randint(3, 6))
    markers = frozenset(range(1, rng.randint(5, 12)))
    base = random_genome(rng, markers)
    genomes = {}
    for v in topology.leaves():
        if rng.random() < 0.25:
            genome = random_genome(rng, markers)
        else:
            kept = frozenset(a for a in base.adjacencies if rng.random() < 0.9)
            genome = Genome(kept, markers)
        genomes[topology.name_of(v)] = genome
    return topology.with_genomes(genomes)


def per_component_totals(report):
    """Objective and discarded weight of the components, from the reports."""
    parts = report.components
    return (
        sum(len(c.indices) * c.solution.objective_scaled for c in parts),
        sum(len(c.indices) * c.solution.discarded_micro for c in parts),
    )


class TestSignatureMemo:
    def test_a_memoised_part_matches_its_own_dp_solution(self):
        tree = evolve(SimConfig(n_markers=30, n_leaves=5, seed=2)).tree
        weights = boltzmann_weight_table(tree, 0.1)
        config = RunConfig(alpha=0, threshold_x="0.5", n_samples=20, seed=5)
        report = solve_instance(tree, weights, config)
        graph = build_global_graph(
            tree, candidate_adjacencies(tree), weights, config.threshold_x
        )
        parts = connected_components(graph)
        assert all(len(part.edges) == 1 for part in parts)

        def restricted(labeling, part):
            return {v: label & part.edges.keys() for v, label in labeling.items()}

        own_counts = []
        for i, part in enumerate(parts):
            own, own_table = solve_component(part, tree, weights, config.alpha)
            assert restricted(report.labeling, part) == own.node_labels
            seed = derive_seed(config.seed, "component", i)
            own_samples = sample_component(own_table, 20, seed)
            assert [restricted(sample, part) for sample in report.samples] == [
                sample.node_labels for sample in own_samples
            ]
            own_counts.append(own.cooptimal_count)
        # One solve per signature stands for its whole class; many of
        # the parts have several co-optima to sample from.
        assert (len(parts), len(report.components)) == (47, 6)
        assert sorted(i for c in report.components for i in c.indices) == list(range(47))
        assert report.component_solvers == ["dp"] * 47
        assert sum(count > 1 for count in own_counts) == 30
        assert sum(
            len(c.indices) for c in report.components if c.solution.cooptimal_count > 1
        ) == 30
        cooptimal = 1
        for count in own_counts:
            cooptimal *= count
        assert report.cooptimal_count == cooptimal

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
        assert (len(report.component_solvers), len(solved)) == (47, 6)
        assert len(report.components) == 6

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
        report = solve_instance(tree, weights, config)
        parts = connected_components(
            build_global_graph(tree, candidate_adjacencies(tree), weights, 0)
        )
        want = [
            solve_component(part, tree, weights, config.alpha)[0]
            for part in parts
        ]
        assert [c.indices for c in report.components] == [(0,), (1,)]
        assert [c.solution.objective_scaled for c in report.components] == [
            solution.objective_scaled for solution in want
        ]
        assert [solution.objective for solution in want] == [1, Fraction(3, 5)]

    def test_matches_every_component_solved_alone(self):
        rng = random.Random(22)
        grouped = ilp_parts = sampled = refused = 0
        for _ in range(40):
            tree = derived_instance(rng)
            # Sparse weights of one value, so that signatures repeat.
            weights = WeightTable({
                a: {v: rng.choice((0, 0, 800_000)) for v in tree.internal_ids()}
                for a in candidate_adjacencies(tree)
            })
            threshold = rng.choice(("0", "0.5"))
            alpha = rng.choice(("0", "1/2", "9/10"))
            # Cap 15 sends every component to branch and bound, cap 16
            # only those with several adjacencies.
            for cap in (15, 16, 10**7):
                for n_samples in (0, 6):
                    config = RunConfig(
                        alpha=alpha, threshold_x=threshold, explosion_cap=cap,
                        n_samples=n_samples, seed=3,
                    )
                    try:
                        want = solve_each_alone(tree, weights, config)
                    except CapacityExceeded:
                        with pytest.raises(CapacityExceeded, match="cannot sample"):
                            solve_instance(tree, weights, config)
                        refused += 1
                        continue
                    labeling, cooptimal, solvers, samples, scaled, discarded = want
                    report = solve_instance(tree, weights, config)
                    assert report.labeling == labeling
                    direct = labeling_objective(tree, labeling, weights, alpha)
                    assert report.objective == direct.total
                    assert report.discarded_weight == direct.discarded_weight
                    assert report.cooptimal_count == cooptimal
                    assert report.component_solvers == solvers
                    assert list(report.samples) == samples
                    assert per_component_totals(report) == (scaled, discarded)
                    grouped += any(len(c.indices) > 1 for c in report.components)
                    ilp_parts += solvers.count("ilp")
                    sampled += bool(samples)
        # Every path ran: classes, branch and bound, sampling, refusal.
        assert min(grouped, ilp_parts, sampled, refused) > 0


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


def sharing(samples):
    """The indices of ``samples``, grouped by shared labeling object."""
    groups = {}
    for i, sample in enumerate(samples):
        groups.setdefault(id(sample), []).append(i)
    return sorted(groups.values())


class TestPerSampleReference:
    """``report.samples`` and ``sample_frequencies`` equal what
    :func:`oracles.per_sample_labelings` assembles and tallies sample by
    sample from every component solved and sampled on its own, with its
    own seed stream: the labelings by value, which samples share one
    labeling object, and the frequencies."""

    def check(self, tree, weights, config):
        """Compare one run; return the kinds of solve it held, or None
        where a component is too large to sample (the run must refuse)."""
        graph = build_global_graph(
            tree, candidate_adjacencies(tree), weights, config.threshold_x
        )
        components = connected_components(graph)
        if any(c.label_space_bound ** 2 > config.explosion_cap for c in components):
            with pytest.raises(CapacityExceeded, match="cannot sample"):
                solve_instance(tree, weights, config)
            return None
        report = solve_instance(tree, weights, config)
        parts = []
        for i, component in enumerate(components):
            _, table = solve_component(component, tree, weights, config.alpha)
            seed = derive_seed(config.seed, "component", i)
            parts.append((None, sample_component(table, config.n_samples, seed)))
        samples, frequencies = per_sample_labelings(
            tree.internal_ids(), parts, config.n_samples
        )
        assert isinstance(report.samples, tuple)
        assert list(report.samples) == samples
        assert sharing(report.samples) == sharing(samples)
        assert report.sample_frequencies == frequencies
        kinds = set()
        for c in report.components:
            if c.solution.cooptimal_count == 1:
                kinds.add("one co-optimum")
            elif len(c.indices) > 1:
                kinds.add("varying class")
            elif len(c.component.edges) > 1:
                kinds.add("varying joint")
        return kinds

    def test_instances_that_mix_every_kind_of_part(self):
        rng = random.Random(26)
        compared = mixed = 0
        seen = set()
        for _ in range(30):
            tree = derived_instance(rng)
            # Sparse weights of one value, so that signatures repeat.
            weights = WeightTable({
                a: {v: rng.choice((0, 0, 800_000)) for v in tree.internal_ids()}
                for a in candidate_adjacencies(tree)
            })
            config = RunConfig(
                alpha=rng.choice(("0", "1/2")), threshold_x="0.5",
                n_samples=rng.choice((1, 7, 40)), seed=rng.randrange(100),
            )
            kinds = self.check(tree, weights, config)
            if kinds is not None:
                compared += 1
                seen |= kinds
                mixed += len(kinds) == 3
        assert seen == {"one co-optimum", "varying class", "varying joint"}
        assert mixed > 0 and compared >= 20

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_generator_sweep(self, seed):
        rng = random.Random(seed)
        compared = 0
        for _ in range(8):
            tree = random_instance(
                rng, n_leaves=rng.randint(3, 6), n_markers=rng.randint(3, 5),
                non_binary=rng.random() < 0.3,
            )
            config = RunConfig(
                alpha=rng.choice(("0", "1/4", "1/2", "1")),
                threshold_x=rng.choice(("0.6", "0.8")),
                n_samples=rng.randint(1, 25), seed=rng.randrange(1000),
            )
            compared += self.check(tree, random_weights(rng, tree), config) is not None
        assert compared >= 5

    def test_samples_without_components(self):
        tree = parse_newick("((s1,s2)anc2,s3)anc1;")
        markers = {1, 2}
        tree = tree.with_genomes({
            name: genome_of(markers, (1,), (2,)) for name in ("s1", "s2", "s3")
        })
        config = RunConfig(n_samples=4, seed=2)
        assert self.check(tree, WeightTable(), config) == set()
        report = solve_instance(tree, WeightTable(), config)
        assert report.components == ()
        assert sharing(report.samples) == [[0, 1, 2, 3]]
        assert report.samples[0] == {v: frozenset() for v in tree.internal_ids()}
        assert report.sample_frequencies == {}


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
        # Two two-adjacency components, each solved on its own.
        assert [c.indices for c in report.components] == [(0,), (1,)]
        assert [c.solution.cooptimal_count for c in report.components] == [3, 3]
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
                want.append(f"{tree.name_of(v)}\t{fmt(x)}\t{fmt(y)}\t{tally[(v, a)] / n:.6f}")
        assert (out / "frequency.tsv").read_text(encoding="utf-8").splitlines() == want

        stats = (out / "stats.tsv").read_text(encoding="utf-8").splitlines()
        n_cars = {line.split("\t")[0]: line.split("\t")[1] for line in stats[14:]}
        assert n_cars == {
            tree.name_of(v): str(len(extract_cars(report.labeling[v], tree.markers)))
            for v in internal
        }
        return report, out


def link_groups(out):
    """The sample files of ``out``, grouped by inode."""
    groups = {}
    for path in sorted((out / "samples").iterdir()):
        groups.setdefault(path.stat().st_ino, []).append(path.name)
    return sorted(groups.values())


class TestSingleCooptimumSolves:
    # At threshold 0.5, 30 of the 47 components have several co-optima
    # (see TestSignatureMemo), and the 20 samples are distinct.  At 0.6,
    # 3 do, one-co-optimum classes of 14 and 3 components do not, and
    # the 20 samples hold 7 labelings.
    @pytest.mark.parametrize("threshold, varying, distinct", [("0.5", 30, 20), ("0.6", 3, 7)])
    def test_no_sampler_call_and_the_same_files(
        self, tmp_path, monkeypatch, threshold, varying, distinct
    ):
        tree = evolve(SimConfig(n_markers=30, n_leaves=5, seed=2)).tree
        weights = boltzmann_weight_table(tree, 0.1)
        n = 20
        config = RunConfig(
            alpha=0, threshold_x=threshold, n_samples=n, seed=5, out_dir=str(tmp_path / "run")
        )
        sampled = []
        original = pipeline.sample_component

        def counted(table, *args):
            sampled.append(count_cooptimal(table))
            return original(table, *args)

        monkeypatch.setattr(pipeline, "sample_component", counted)
        report = solve_instance(tree, weights, config)
        write_outputs(report, tree, config)
        single = [c for c in report.components if c.solution.cooptimal_count == 1]
        assert any(len(c.indices) > 1 for c in single)
        assert min(sampled) > 1
        assert len(sampled) == varying == sum(
            len(c.indices) for c in report.components if c.solution.cooptimal_count > 1
        )

        # The same files as when every component, one co-optimum or
        # not, drew its samples by one walk per sample.
        graph = build_global_graph(tree, candidate_adjacencies(tree), weights, config.threshold_x)
        parts = []
        for i, component in enumerate(connected_components(graph)):
            _, table = solve_component(component, tree, weights, config.alpha)
            shared = {}  # equal draws are one solution object, as the sampler's
            parts.append((None, [
                shared.setdefault(frozenset(labels.items()), SimpleNamespace(node_labels=labels))
                for labels in per_walk_samples(table, n, derive_seed(config.seed, "component", i))
            ]))
        samples, frequencies = per_sample_labelings(tree.internal_ids(), parts, n)
        before = replace(config, out_dir=str(tmp_path / "before"))
        write_outputs(
            replace(report, samples=tuple(samples), sample_frequencies=frequencies), tree, before
        )
        assert output_files(tmp_path / "run") == output_files(tmp_path / "before")
        assert link_groups(tmp_path / "run") == link_groups(tmp_path / "before")
        assert len(link_groups(tmp_path / "run")) == distinct
