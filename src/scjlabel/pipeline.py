"""End-to-end solving: decompose, route, solve, assemble, report.

The candidate adjacencies are thresholded into a global graph whose
connected components are independent subproblems.  Each component goes
to the dynamic program when the square of its label space bound is at
most ``explosion_cap`` and to branch and bound otherwise; that bound is
the only thing that picks the route.  The per-component optima are
then assembled into one labeling whose objective is re-checked against
the direct definition before anything is written.

Everything here is deterministic for a fixed (inputs, config, seed):
iteration orders are sorted, the components are solved one after
another in a fixed order, and sampling uses seeds derived per component.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from . import __version__
from .core import (
    MICRO,
    Adjacency,
    Phylogeny,
    WeightTable,
    as_alpha,
    exact_fraction,
    fmt,
    labeling_objective,
    objective_units,
    show_number,
)
from .dp import (
    DEFAULT_EXPLOSION_CAP,
    ComponentSolution,
    presence_signature,
    sample_component,
    solve_component,
)
from .errors import CapacityExceeded, InputError, InternalInvariantError
from .formats import labeling_rows, node_rows, parse_genomes, parse_tree, write_lines
from .graph import Component, build_global_graph, candidate_adjacencies, connected_components
from .ilp import build_model, solve_bb
from .rng import derive_seed
from .weights import boltzmann_weight_table, check_kt, load_weight_table

Labeling = dict[int, frozenset[Adjacency]]


@dataclass(frozen=True)
class RunConfig:
    """Everything one run depends on, file locations included."""

    alpha: object = Fraction(1, 2)
    threshold_x: object = 0
    kt: float = 0.1
    n_samples: int = 0
    seed: int = 0
    explosion_cap: int = DEFAULT_EXPLOSION_CAP
    # Has no effect: components are solved in order.  Kept, with its
    # check, because the benchmark harness still passes threads=1.
    threads: int = 1
    tree_path: str | None = None
    genomes_path: str | None = None
    weights_path: str | None = None
    boltzmann: bool = False
    out_dir: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_alpha(self.alpha))
        x = exact_fraction(self.threshold_x)
        if not 0 <= x <= 1:
            raise InputError(f"threshold must lie in [0, 1], got {show_number(self.threshold_x)}")
        object.__setattr__(self, "threshold_x", x)
        check_kt(self.kt)
        if type(self.n_samples) is not int or self.n_samples < 0:  # bool too
            raise InputError(f"sample count must be a non-negative integer, got {self.n_samples!r}")
        if type(self.seed) is not int:  # bool too: True would draw as "True"
            raise InputError(f"seed must be an integer, got {self.seed!r}")
        if type(self.explosion_cap) is not int or self.explosion_cap < 1:
            raise InputError(
                f"capacity must be an integer of at least 1, got {self.explosion_cap!r}"
            )
        if self.threads < 1:
            raise InputError(f"thread count must be at least 1, got {self.threads}")
        if self.weights_path is not None and self.boltzmann:
            raise InputError("pick one weight source: a weights file or --boltzmann")


@dataclass(frozen=True, slots=True)
class ComponentReport:
    """What the solver did in one solve.

    ``indices`` are the components the solve stands for, by their rank
    in :func:`graph.connected_components`: the one component solved, or
    every one-adjacency component of a signature class on the DP route
    (see :func:`solve_instance`).  ``component`` is the first of them
    and ``solution`` its solution on route ``solver``; each of the
    others has the same size, route and solution values under its own
    adjacency.
    """

    indices: tuple[int, ...]
    component: Component
    solver: str
    solution: ComponentSolution
    seconds: float  # wall clock; kept out of all written outputs


@dataclass(frozen=True)
class SolveReport:
    """Assembled outcome of one solve run."""

    alpha: Fraction
    threshold_x: Fraction
    n_markers: int
    n_nodes: int
    max_component_extremities: int
    max_degree: int
    objective: Fraction
    scj_total: int
    discarded_micro: int
    cooptimal_count: int | None
    unsupported_leaf_scj: int
    filtered_weight_micro: int
    components: tuple[ComponentReport, ...]
    labeling: Labeling
    # Equal samples are one shared labeling object; do not mutate them.
    samples: tuple[Labeling, ...] = ()
    sample_frequencies: dict[tuple[int, Adjacency], Fraction] = field(
        default_factory=dict
    )

    @property
    def discarded_weight(self) -> Fraction:
        return Fraction(self.discarded_micro, MICRO)

    @property
    def component_solvers(self) -> list[str]:
        """The route of every component, by index."""
        solvers = [""] * sum(len(c.indices) for c in self.components)
        for c in self.components:
            for i in c.indices:
                solvers[i] = c.solver
        return solvers


def _on_dp_route(component: Component, config: RunConfig) -> bool:
    bound = component.label_space_bound
    return bound * bound <= config.explosion_cap


def _solve_one(
    component: Component,
    members: list[int],
    tree: Phylogeny,
    weights: WeightTable,
    config: RunConfig,
) -> tuple[ComponentReport, list[list[ComponentSolution]]]:
    """Report and samples per member of one solve.

    ``members`` are the indices of the components that ``component``
    stands for: itself, or its whole signature class.  Each member draws
    its samples from the class table with its own seed stream, so it
    gets the labelings its own table would give, under the class's
    adjacency.
    """
    started = time.perf_counter()
    samples = []
    if _on_dp_route(component, config):
        route = "dp"
        solution, table = solve_component(
            component, tree, weights, config.alpha,
            explosion_cap=config.explosion_cap,
        )
        if config.n_samples > 0:
            samples = [
                sample_component(
                    table, config.n_samples, derive_seed(config.seed, "component", i)
                )
                for i in members
            ]
    else:
        route = "ilp"
        (index,) = members
        if config.n_samples > 0:
            raise CapacityExceeded(
                f"component {index} needs the ilp route"
                f" (label bound {component.label_space_bound}),"
                " which cannot sample; raise --cap or drop --samples"
            )
        try:
            solution = solve_bb(build_model(component, tree, weights, config.alpha))
        except CapacityExceeded as exc:
            raise CapacityExceeded(f"component {index}: {exc}") from exc
    seconds = time.perf_counter() - started
    return ComponentReport(tuple(members), component, route, solution, seconds), samples


def _assemble(
    internal: list[int],
    parts: Iterable[tuple[tuple[Adjacency, ...] | None, ComponentSolution]],
    base: Labeling | None = None,
) -> Labeling:
    """Union of the part labels at every internal node, over ``base``'s
    labels, whose objects stay wherever the parts add nothing.

    A part is ``(names, solution)``.  With ``names`` None the solution's
    own labels go in.  Otherwise ``names`` are the adjacencies of a
    signature class, and all of them go wherever the class solution
    holds its one adjacency.
    """
    labels: dict[int, set[Adjacency]] = {}
    for names, solution in parts:
        for v, label in solution.node_labels.items():
            if label:
                labels.setdefault(v, set()).update(label if names is None else names)
    base = base or dict.fromkeys(internal, frozenset())
    return {v: base[v].union(labels[v]) if v in labels else base[v] for v in internal}


def _draw_labelings(
    internal: list[int],
    parts: list[tuple[tuple[Adjacency, ...] | None, list[ComponentSolution]]],
    n_samples: int,
) -> tuple[list[Labeling], dict[tuple[int, Adjacency], Fraction]]:
    """The samples and their frequencies, from each ``(names, draws)`` part.

    Parts with one co-optimum drew one solution object each time: they
    form one base labeling, tallied once at ``n_samples``.  Samples that
    drew the same solutions of the varying parts share one labeling, the
    base plus their labels.  Parts hold disjoint adjacencies, so tallies add.
    """
    varying = [(names, drawn) for names, drawn in parts if drawn[0].cooptimal_count != 1]
    base = _assemble(internal, [(n, d[0]) for n, d in parts if d[0].cooptimal_count == 1])
    tally = dict.fromkeys([(v, a) for v in internal for a in base[v]], n_samples)
    for names, drawn in varying:
        draws: dict[int, list] = {}  # by id: [solution, times drawn]
        for solution in drawn:
            draws.setdefault(id(solution), [solution, 0])[1] += 1
        for solution, n in draws.values():
            for v, label in solution.node_labels.items():
                for a in (label if names is None else names) if label else ():
                    tally[(v, a)] = tally.get((v, a), 0) + n
    labeled: dict[tuple[int, ...], Labeling] = {}
    samples = []
    for s in range(n_samples):
        picks = [(names, drawn[s]) for names, drawn in varying]
        key = tuple([id(solution) for _, solution in picks])
        if key not in labeled:
            labeled[key] = _assemble(internal, picks, base)
        samples.append(labeled[key])
    return samples, {key: Fraction(n, n_samples) for key, n in tally.items()}


def solve_instance(
    tree: Phylogeny, weights: WeightTable, config: RunConfig
) -> SolveReport:
    """Solve one labeled instance end to end (no file output).

    A one-adjacency component's DP table depends only on its presence
    signature (see :func:`dp.presence_signature`), so the components
    on the DP route that hold one adjacency are grouped by signature in
    one ordered pass, and each class is solved once, through its first
    member.  Its objective, discarded and annotated weight count once
    per member, and its co-optimal count multiplies in once per member.
    Every other component is solved on its own.
    """
    if not tree.leaf_genomes:
        raise InputError("the tree has no genomes attached")
    candidates = candidate_adjacencies(tree)
    graph = build_global_graph(tree, candidates, weights, config.threshold_x)
    components = connected_components(graph)
    solves: list[tuple[Component, list[int]]] = []
    classes: dict[tuple, list[int]] = {}
    # One held mask, annotation set object and row object make one
    # signature, so it is built once per such triple.  A component's
    # row identity is that of its first adjacency.
    by_identity: dict[tuple[int, int, int], list[int]] = {}
    row_identities = weights.row_identities([next(iter(c.edges)) for c in components])
    for i, (component, row_identity) in enumerate(zip(components, row_identities)):
        edges = component.edges
        if len(edges) == 1 and _on_dp_route(component, config):
            ((adjacency, nodes),) = edges.items()
            held = candidates[adjacency]
            identity = (held, id(nodes), row_identity)
            members = by_identity.get(identity)
            if members is None:
                key = presence_signature(held, nodes, weights.row(adjacency))
                members = classes.get(key)
                if members is None:
                    members = classes[key] = []
                    solves.append((component, members))
                by_identity[identity] = members
            members.append(i)
        else:
            solves.append((component, [i]))
    internal = tree.internal_ids()
    reports: list[ComponentReport] = []
    parts: list[tuple[tuple[Adjacency, ...] | None, ComponentSolution]] = []
    # When sampling, every component's draws, each under its own name: a
    # class member's is its own adjacency.
    drawn: list[tuple[tuple[Adjacency, ...] | None, list[ComponentSolution]]] = []
    scaled_sum = discarded_micro = annotated_micro = 0
    cooptimal: int | None = 1
    for component, members in solves:
        report, per_member = _solve_one(component, members, tree, weights, config)
        reports.append(report)
        solution = report.solution
        k = len(members)
        # A solve of one component names its own adjacencies.
        names = None if k == 1 else tuple([a for i in members for a in components[i].edges])
        parts.append((names, solution))
        if per_member:
            own = [None] if k == 1 else [tuple(components[i].edges) for i in members]
            drawn.extend(zip(own, per_member))
        scaled_sum += k * solution.objective_scaled
        discarded_micro += k * solution.discarded_micro
        for a, nodes in component.edges.items():
            row = weights.row(a)
            annotated_micro += k * sum(row.get(v, 0) for v in nodes)
        if cooptimal is not None and solution.cooptimal_count is not None:
            cooptimal *= solution.cooptimal_count**k
        else:
            cooptimal = None
    labeling = _assemble(internal, parts)

    alpha = config.alpha
    edge_set = set(graph.edges)
    # Each leaf adjacency outside the graph is absent at the leaf's parent.
    unsupported = sum(
        len(tree.leaf_genomes[v].adjacencies - edge_set)
        for _, v in tree.edges()
        if tree.is_leaf(v)
    )
    # Filtered weight: the internal nodes' total less the annotated weight.
    filtered_micro = sum(weights.total_micro(v) for v in internal) - annotated_micro

    units = objective_units(alpha)
    total = Fraction(
        scaled_sum + units.scaled(unsupported, filtered_micro), units.scale
    )
    direct = labeling_objective(tree, labeling, weights, alpha)
    if direct.total != total:
        raise InternalInvariantError(
            f"assembled objective {total} disagrees with direct evaluation "
            f"{direct.total}"
        )

    samples, frequencies = _draw_labelings(internal, drawn, config.n_samples)

    return SolveReport(
        alpha=alpha,
        threshold_x=config.threshold_x,
        n_markers=len(tree.markers),
        n_nodes=len(tree.nodes),
        max_component_extremities=max((r.component.n_extremities for r in reports), default=0),
        max_degree=max((r.component.max_degree for r in reports), default=0),
        objective=direct.total,
        scj_total=direct.scj_changes,
        discarded_micro=discarded_micro + filtered_micro,
        cooptimal_count=cooptimal,
        unsupported_leaf_scj=unsupported,
        filtered_weight_micro=filtered_micro,
        components=tuple(reports),
        labeling=labeling,
        samples=tuple(samples),
        sample_frequencies=frequencies,
    )


def build_weights(tree: Phylogeny, config: RunConfig) -> WeightTable:
    """Weight source resolution: file, Boltzmann, or all zeros."""
    if config.weights_path is not None:
        return load_weight_table(config.weights_path, tree)
    if config.boltzmann:
        return boltzmann_weight_table(tree, config.kt)
    return WeightTable()


def run_solve(config: RunConfig) -> SolveReport:
    """File-level entry: parse, solve, and (if configured) write outputs."""
    if config.tree_path is None or config.genomes_path is None:
        raise InputError("a tree file and a genomes file are required")
    out = config.out_dir
    if out is not None and Path(out).exists() and not Path(out).is_dir():
        raise InputError(f"cannot write to {out}: it exists and is not a directory")
    tree = parse_tree(config.tree_path)
    genomes = parse_genomes(config.genomes_path)
    tree = tree.with_genomes(genomes)
    weights = build_weights(tree, config)
    report = solve_instance(tree, weights, config)
    if config.out_dir is not None:
        write_outputs(report, tree, config)
    return report


# ---------------------------------------------------------------------------
# Output files


def _fmt(value) -> str:
    return f"{float(value):.6f}"


def write_outputs(report: SolveReport, tree: Phylogeny, config: RunConfig) -> None:
    """Write cars.tsv, stats.tsv, frequency.tsv, samples/, manifest.json.

    Content depends only on (inputs, config, seed): no timestamps, no
    wall-clock times and no output directory paths appear in any file.

    A sample file is written the first time its labeling appears in
    ``report.samples``; every repeat is a hard link to that file, so
    equal sample files share one inode (copy one before editing it in
    place).  Where a link fails (no hard links on the filesystem, or the
    per-inode link limit reached) the repeat is written in full and
    becomes the file later repeats link to.  In a ``samples/`` that an
    earlier run made, every sample path is unlinked before it is made,
    and the sample files, ``frequency.tsv`` and ``samples/`` that such a
    run left beyond this run's samples are removed.
    """
    out = Path(config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    _remove_stale_samples(out, len(report.samples))
    # One cache of CAR rows per (node, label) serves every file below.
    rows: dict[tuple[int, frozenset[Adjacency]], list[str]] = {}
    write_lines(out / "cars.tsv", labeling_rows(tree, report.labeling, rows))
    _write_stats(out / "stats.tsv", report, tree, rows)
    if report.samples:
        _write_frequency(out / "frequency.tsv", report, tree)
        samples_dir = out / "samples"
        reused = samples_dir.is_dir()
        samples_dir.mkdir(exist_ok=True)
        # Equal samples are one shared labeling object (see SolveReport).
        written: dict[int, str] = {}
        for i, sample in enumerate(report.samples):
            path = f"{samples_dir}{os.sep}sample_{i:04d}.tsv"
            if reused:  # a stale file here may share its inode with one written above
                Path(path).unlink(missing_ok=True)
            source = written.get(id(sample))
            if source is not None:
                try:
                    os.link(source, path)
                    continue
                except OSError:
                    pass  # no hard links here, or past the link limit
            write_lines(path, labeling_rows(tree, sample, rows))
            written[id(sample)] = path
    _write_manifest(out / "manifest.json", config)


def _remove_stale_samples(out: Path, n_samples: int) -> None:
    """Delete what an earlier run into ``out`` wrote past ``n_samples``."""
    samples_dir = out / "samples"
    if samples_dir.is_dir():
        for path in list(samples_dir.glob("sample_*.tsv")):
            index = path.name[len("sample_"):-len(".tsv")]
            if index.isdecimal() and int(index) >= n_samples:
                path.unlink()
    if n_samples == 0:
        (out / "frequency.tsv").unlink(missing_ok=True)
        if samples_dir.is_dir() and not any(samples_dir.iterdir()):
            samples_dir.rmdir()


def _write_stats(
    path: Path,
    report: SolveReport,
    tree: Phylogeny,
    rows: dict[tuple[int, frozenset[Adjacency]], list[str]],
) -> None:
    solvers = report.component_solvers
    lines = [
        f"# objective\t{_fmt(report.objective)}",
        f"# objective_exact\t{report.objective.numerator}/{report.objective.denominator}",
        f"# scj_total\t{report.scj_total}",
        f"# discarded_weight\t{_fmt(report.discarded_weight)}",
        f"# alpha\t{report.alpha.numerator}/{report.alpha.denominator}",
        f"# threshold\t{_fmt(report.threshold_x)}",
        f"# cooptimal_count\t{report.cooptimal_count if report.cooptimal_count is not None else 'NA'}",
        f"# components\t{len(solvers)}",
        f"# component_solvers\t{','.join(solvers) or '-'}",
        f"# max_component_extremities\t{report.max_component_extremities}",
        f"# max_degree\t{report.max_degree}",
        f"# unsupported_leaf_scj\t{report.unsupported_leaf_scj}",
        f"# filtered_weight\t{_fmt(Fraction(report.filtered_weight_micro, MICRO))}",
        "node\tn_cars\tn_adjacencies\tscj_to_parent\tscj_leaf_edges",
    ]
    labels = report.labeling
    for v in tree.internal_ids():
        label = labels[v]
        n_cars = len(node_rows(tree, v, label, rows))
        node = tree.nodes[v]
        if node.parent is None:
            up = ""
        else:
            up = str(len(label ^ labels[node.parent]))
        # ``label & leaf`` hashes only the label's adjacencies, where
        # ``label ^ leaf`` would hash all of the leaf's.
        leaf_scj = 0
        for c in node.children:
            if tree.is_leaf(c):
                leaf = tree.leaf_genomes[c].adjacencies
                leaf_scj += len(label) + len(leaf) - 2 * len(label & leaf)
        lines.append(
            f"{tree.name_of(v)}\t{n_cars}\t{len(label)}\t{up}\t{leaf_scj}"
        )
    write_lines(path, lines)


def _write_frequency(path: Path, report: SolveReport, tree: Phylogeny) -> None:
    by_node: dict[int, list[tuple[Adjacency, Fraction]]] = {}
    for (v, a), fraction in report.sample_frequencies.items():
        by_node.setdefault(v, []).append((a, fraction))
    lines = ["node\textremity_a\textremity_b\tfrequency"]
    for v in tree.internal_ids():
        for a, fraction in sorted(by_node.get(v, ())):
            x, y = a
            lines.append(f"{tree.name_of(v)}\t{fmt(x)}\t{fmt(y)}\t{_fmt(fraction)}")
    write_lines(path, lines)


def _write_manifest(path: Path, config: RunConfig) -> None:
    alpha = config.alpha
    payload = {
        "tool": "scjlabel",
        "version": __version__,
        "python": ".".join(str(p) for p in sys.version_info[:3]),
        "config": {
            "alpha": f"{alpha.numerator}/{alpha.denominator}",
            "threshold": f"{config.threshold_x.numerator}/{config.threshold_x.denominator}",
            "kt": config.kt,
            "n_samples": config.n_samples,
            "seed": config.seed,
            "explosion_cap": config.explosion_cap,
            "weights": (
                "file" if config.weights_path is not None
                else "boltzmann" if config.boltzmann
                else "none"
            ),
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
