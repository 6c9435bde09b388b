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

from . import __version__
from .core import (
    MICRO,
    Adjacency,
    Phylogeny,
    WeightTable,
    as_alpha,
    exact_fraction,
    labeling_objective,
    objective_units,
)
from .dp import (
    DEFAULT_EXPLOSION_CAP,
    ComponentSolution,
    DpTable,
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
            raise InputError(f"threshold must lie in [0, 1], got {self.threshold_x}")
        object.__setattr__(self, "threshold_x", x)
        check_kt(self.kt)
        if self.n_samples < 0:
            raise InputError(f"sample count must be non-negative, got {self.n_samples}")
        if self.explosion_cap < 1:
            raise InputError(f"capacity must be at least 1, got {self.explosion_cap}")
        if self.threads < 1:
            raise InputError(f"thread count must be at least 1, got {self.threads}")
        if self.weights_path is not None and self.boltzmann:
            raise InputError("pick one weight source: a weights file or --boltzmann")


@dataclass(frozen=True, slots=True)
class ComponentReport:
    """What the solver did with one component."""

    index: int
    n_edges: int
    n_extremities: int
    max_degree: int
    label_space_bound: int
    solver: str
    objective_scaled: int
    scj_changes: int
    discarded_micro: int
    cooptimal_count: int | None
    bb_nodes: int | None  # branch-and-bound visits; None on the dp route
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


def _solve_one(
    component: Component,
    tree: Phylogeny,
    weights: WeightTable,
    config: RunConfig,
    index: int,
    leaves: list[frozenset[Adjacency]],
    solved: dict[tuple, tuple[ComponentSolution, DpTable | None]],
) -> tuple[str, ComponentSolution, list[ComponentSolution], float]:
    """Route, solution, samples and wall-clock seconds of one component.

    On the DP route a one-adjacency component with the signature of one
    solved before gets that component's solution and table from
    ``solved``, whose labels name the other adjacency; :func:`_assemble`
    puts its own in their place.  So the table and the solution's
    re-check are made once per signature.  Those tables are kept only
    when the run samples.
    """
    bound = component.label_space_bound
    started = time.perf_counter()
    if bound * bound <= config.explosion_cap:
        key = None
        if len(component.edges) == 1:
            ((adjacency, nodes),) = component.edges.items()
            key = presence_signature(adjacency, nodes, leaves, weights)
        if key in solved:
            solution, table = solved[key]
        else:
            solution, table = solve_component(
                component, tree, weights, config.alpha,
                explosion_cap=config.explosion_cap,
            )
            if key is not None:
                solved[key] = (solution, table if config.n_samples > 0 else None)
        samples = []
        if config.n_samples > 0:
            samples = sample_component(
                table, config.n_samples, derive_seed(config.seed, "component", index)
            )
        return "dp", solution, samples, time.perf_counter() - started
    if config.n_samples > 0:
        raise CapacityExceeded(
            f"component {index} needs the ilp route (label bound {bound}),"
            " which cannot sample; raise --cap or drop --samples"
        )
    try:
        solution = solve_bb(build_model(component, tree, weights, config.alpha))
    except CapacityExceeded as exc:
        raise CapacityExceeded(f"component {index}: {exc}") from exc
    return "ilp", solution, [], time.perf_counter() - started


def _assemble(
    internal: list[int],
    components: list[Component],
    solutions: list[ComponentSolution],
) -> Labeling:
    """Union of the component labels at every internal node.

    A one-adjacency component's solution may come from another component
    with its signature (see :func:`_solve_one`), so its own adjacency
    goes wherever that solution holds one.
    """
    labels: dict[int, set[Adjacency]] = {v: set() for v in internal}
    for component, solution in zip(components, solutions):
        edges = component.edges
        if len(edges) == 1:
            (adjacency,) = edges
            for v, label in solution.node_labels.items():
                if label:
                    labels[v].add(adjacency)
        else:
            for v, label in solution.node_labels.items():
                labels[v].update(label)
    return {v: frozenset(label) for v, label in labels.items()}


def solve_instance(
    tree: Phylogeny, weights: WeightTable, config: RunConfig
) -> SolveReport:
    """Solve one labeled instance end to end (no file output)."""
    if not tree.leaf_genomes:
        raise InputError("the tree has no genomes attached")
    candidates = candidate_adjacencies(tree)
    graph = build_global_graph(tree, candidates, weights, config.threshold_x)
    components = connected_components(graph)
    leaves = [tree.leaf_genomes[v].adjacencies for v in tree.leaves()]
    solved: dict[tuple, tuple[ComponentSolution, DpTable | None]] = {}
    outcomes = [
        _solve_one(component, tree, weights, config, i, leaves, solved)
        for i, component in enumerate(components)
    ]

    solutions = [solution for _, solution, _, _ in outcomes]
    internal = tree.internal_ids()
    labeling = _assemble(internal, components, solutions)

    alpha = config.alpha
    edge_set = set(graph.edges)
    # Each leaf adjacency outside the graph is absent at the leaf's parent.
    unsupported = sum(
        len(tree.leaf_genomes[v].adjacencies - edge_set)
        for _, v in tree.edges()
        if tree.is_leaf(v)
    )
    # Filtered weight: the internal nodes' total less the annotated weight.
    annotated_micro = 0
    for a, nodes in graph.edges.items():
        row = weights.row(a)
        annotated_micro += sum(row.get(v, 0) for v in nodes)
    filtered_micro = sum(weights.total_micro(v) for v in internal) - annotated_micro

    units = objective_units(alpha)
    scaled_sum = sum(sol.objective_scaled for sol in solutions)
    total = Fraction(
        scaled_sum + units.scaled(unsupported, filtered_micro), units.scale
    )
    direct = labeling_objective(tree, labeling, weights, alpha)
    if direct.total != total:
        raise InternalInvariantError(
            f"assembled objective {total} disagrees with direct evaluation "
            f"{direct.total}"
        )

    cooptimal: int | None = 1
    for solution in solutions:
        if solution.cooptimal_count is None:
            cooptimal = None
            break
        cooptimal *= solution.cooptimal_count

    samples: tuple[Labeling, ...] = ()
    frequencies: dict[tuple[int, Adjacency], Fraction] = {}
    if config.n_samples > 0:
        # Samples that drew the same solution of every component share
        # one assembled labeling; the sampler shares the solution objects.
        assembled: dict[tuple[int, ...], Labeling] = {}
        drawn: dict[tuple[int, ...], int] = {}
        per_component = [sampled for _, _, sampled, _ in outcomes]
        picked = []
        for s in range(config.n_samples):
            picks = [sampled[s] for sampled in per_component]
            key = tuple(map(id, picks))
            if key not in assembled:
                assembled[key] = _assemble(internal, components, picks)
            drawn[key] = drawn.get(key, 0) + 1
            picked.append(assembled[key])
        samples = tuple(picked)
        tally: dict[tuple[int, Adjacency], int] = {}
        for key, merged in assembled.items():
            for v in internal:
                for a in merged[v]:
                    tally[(v, a)] = tally.get((v, a), 0) + drawn[key]
        frequencies = {
            key: Fraction(count, config.n_samples)
            for key, count in tally.items()
        }

    return SolveReport(
        alpha=alpha,
        threshold_x=config.threshold_x,
        n_markers=len(tree.markers),
        n_nodes=len(tree.nodes),
        max_component_extremities=max(
            (c.n_extremities for c in components), default=0
        ),
        max_degree=max((c.max_degree for c in components), default=0),
        objective=direct.total,
        scj_total=direct.scj_changes,
        discarded_micro=sum(sol.discarded_micro for sol in solutions) + filtered_micro,
        cooptimal_count=cooptimal,
        unsupported_leaf_scj=unsupported,
        filtered_weight_micro=filtered_micro,
        components=tuple(
            ComponentReport(
                index=i,
                n_edges=len(component.edges),
                n_extremities=component.n_extremities,
                max_degree=component.max_degree,
                label_space_bound=component.label_space_bound,
                solver=route,
                objective_scaled=solution.objective_scaled,
                scj_changes=solution.scj_changes,
                discarded_micro=solution.discarded_micro,
                cooptimal_count=solution.cooptimal_count,
                bb_nodes=solution.nodes_explored,
                seconds=seconds,
            )
            for i, (component, (route, solution, _, seconds)) in enumerate(
                zip(components, outcomes)
            )
        ),
        labeling=labeling,
        samples=samples,
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
    becomes the file later repeats link to.  Every sample path is
    unlinked before it is made, and the sample files, ``frequency.tsv``
    and ``samples/`` that an earlier run into the same directory left
    beyond this run's samples are removed.
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
        samples_dir.mkdir(exist_ok=True)
        # Equal samples are one shared labeling object (see SolveReport).
        written: dict[int, Path] = {}
        for i, sample in enumerate(report.samples):
            path = samples_dir / f"sample_{i:04d}.tsv"
            # A stale file here may share its inode with one written above.
            path.unlink(missing_ok=True)
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
    lines = [
        f"# objective\t{_fmt(report.objective)}",
        f"# objective_exact\t{report.objective.numerator}/{report.objective.denominator}",
        f"# scj_total\t{report.scj_total}",
        f"# discarded_weight\t{_fmt(report.discarded_weight)}",
        f"# alpha\t{report.alpha.numerator}/{report.alpha.denominator}",
        f"# threshold\t{_fmt(report.threshold_x)}",
        f"# cooptimal_count\t{report.cooptimal_count if report.cooptimal_count is not None else 'NA'}",
        f"# components\t{len(report.components)}",
        f"# component_solvers\t{','.join(c.solver for c in report.components) or '-'}",
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
        leaf_scj = sum(
            len(label ^ tree.leaf_genomes[c].adjacencies)
            for c in node.children
            if tree.is_leaf(c)
        )
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
            lines.append(f"{tree.name_of(v)}\t{x}\t{y}\t{_fmt(fraction)}")
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
