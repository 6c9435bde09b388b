"""Command line interface.

Subcommands: solve (single optimum), sample (solve plus co-optimal
samples), weigh (emit a Boltzmann weight table), simulate (benchmark
instance generator), evaluate (score a reconstruction against a truth
labeling).  Exit codes: 0 success, 1 bad input, 2 capacity exceeded,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .dp import DEFAULT_EXPLOSION_CAP
from .errors import CapacityExceeded, InputError, InternalInvariantError
from .formats import parse_genomes, parse_labeling, parse_tree, write_genomes, write_labeling, write_newick
from .pipeline import RunConfig, run_solve
from .sim import BIRTH_RATE, SimConfig, evolve, score_labelings
from .weights import boltzmann_weight_table, write_weight_table


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors (exit 1), not argparse's exit 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scjlabel",
        description="Ancestral gene order reconstruction on a phylogeny "
        "by weighted adjacency labeling.",
    )
    parser.add_argument("--version", action="version", version=f"scjlabel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="reconstruct one optimal labeling", parents=[_solve_options()]
    )
    solve.set_defaults(func=_cmd_solve, default_samples=0)

    sample = sub.add_parser(
        "sample",
        help="reconstruct and sample co-optimal labelings uniformly",
        parents=[_solve_options()],
    )
    sample.set_defaults(func=_cmd_solve, default_samples=500)

    weigh = sub.add_parser("weigh", help="write Boltzmann adjacency weights")
    weigh.add_argument("--tree", required=True, help="Newick tree file")
    weigh.add_argument("--genomes", required=True, help="leaf genome table")
    weigh.add_argument("--kt", type=float, default=0.1, help="temperature (default 0.1)")
    weigh.add_argument("--out", required=True, help="output weight table path")
    weigh.set_defaults(func=_cmd_weigh)

    simulate = sub.add_parser("simulate", help="generate a benchmark instance")
    simulate.add_argument("--markers", type=int, default=100, help="marker count (default 100)")
    simulate.add_argument("--leaves", type=int, default=6, help="leaf count (default 6)")
    simulate.add_argument(
        "--death", type=float, default=0.0,
        help=f"death rate, at most the birth rate {BIRTH_RATE} (default 0)",
    )
    simulate.add_argument(
        "--p-inversion", type=float, default=0.9, dest="p_inversion",
        help="inversion probability per event (default 0.9)",
    )
    simulate.add_argument(
        "--diameter-factor", type=float, default=2.0, dest="diameter_factor",
        help="tree diameter as a multiple of the marker count (default 2)",
    )
    simulate.add_argument("--seed", type=int, default=0, help="random seed")
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.set_defaults(func=_cmd_simulate)

    evaluate = sub.add_parser("evaluate", help="score a reconstruction against truth")
    evaluate.add_argument("--tree", required=True, help="Newick tree file")
    evaluate.add_argument("--genomes", required=True, help="leaf genome table")
    evaluate.add_argument("--truth", required=True, help="true internal labeling (CAR rows)")
    evaluate.add_argument("--predicted", required=True, help="predicted labeling (CAR rows)")
    evaluate.set_defaults(func=_cmd_evaluate)

    return parser


def _solve_options() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--tree", required=True, help="Newick tree file")
    common.add_argument("--genomes", required=True, help="leaf genome table")
    common.add_argument("--weights", help="adjacency weight table (TSV)")
    common.add_argument(
        "--boltzmann", action="store_true",
        help="derive weights from per-adjacency presence probabilities",
    )
    common.add_argument(
        "--alpha", default="0.5",
        help="weight given to discarded confidence, 0..1 (default 0.5)",
    )
    common.add_argument(
        "--threshold", default="0",
        help="drop candidate adjacencies below this weight (default 0: keep all)",
    )
    common.add_argument("--kt", type=float, default=0.1, help="Boltzmann temperature (default 0.1)")
    common.add_argument("--samples", type=int, default=None, help="number of co-optimal samples")
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument(
        "--cap", type=int, default=DEFAULT_EXPLOSION_CAP,
        help="route a component to branch and bound when the square of its label "
        "space bound exceeds this (default %(default)s; 1 routes every component there)",
    )
    common.add_argument("--out", required=True, help="output directory")
    return common


def _cmd_solve(args: argparse.Namespace) -> int:
    samples = args.samples if args.samples is not None else args.default_samples
    if args.default_samples > 0 and samples < 1:
        raise InputError("sample needs --samples of at least 1")
    config = RunConfig(
        alpha=args.alpha,
        threshold_x=args.threshold,
        kt=args.kt,
        n_samples=samples,
        seed=args.seed,
        explosion_cap=args.cap,
        tree_path=args.tree,
        genomes_path=args.genomes,
        weights_path=args.weights,
        boltzmann=args.boltzmann,
        out_dir=args.out,
    )
    report = run_solve(config)
    co = report.cooptimal_count
    print(
        f"objective {float(report.objective):.6f} "
        f"(scj {report.scj_total}, discarded weight {float(report.discarded_weight):.6f})"
    )
    print(
        f"{len(report.component_solvers)} components, "
        f"co-optimal labelings: {co if co is not None else 'not counted (ilp route)'}"
    )
    if report.samples:
        print(f"wrote {len(report.samples)} samples")
    return 0


def _cmd_weigh(args: argparse.Namespace) -> int:
    tree = parse_tree(args.tree).with_genomes(parse_genomes(args.genomes))
    table = boltzmann_weight_table(tree, args.kt)
    write_weight_table(args.out, tree, table)
    print(f"wrote {len(table)} weights to {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = SimConfig(
        n_markers=args.markers,
        n_leaves=args.leaves,
        death_rate=args.death,
        diameter_factor=args.diameter_factor,
        p_inversion=args.p_inversion,
        seed=args.seed,
    )
    result = evolve(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "tree.nwk", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(write_newick(result.tree) + "\n")
    write_genomes(
        out / "genomes.tsv",
        {
            result.tree.name_of(v): result.tree.leaf_genomes[v]
            for v in result.tree.leaves()
        },
    )
    write_labeling(out / "truth.tsv", result.tree, result.truth)
    print(
        f"simulated {args.leaves} leaves, {args.markers} markers, "
        f"{result.total_events} events"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    tree = parse_tree(args.tree).with_genomes(parse_genomes(args.genomes))
    truth = parse_labeling(args.truth, tree)
    predicted = parse_labeling(args.predicted, tree)
    metrics = score_labelings(truth, predicted)
    print("tp\tfp\tfn\tsensitivity\tprecision\tf1\tf0.5\tdegenerate")
    print(
        f"{metrics.tp}\t{metrics.fp}\t{metrics.fn}\t"
        f"{metrics.sensitivity:.6f}\t{metrics.precision:.6f}\t"
        f"{metrics.f1:.6f}\t{metrics.f_half:.6f}\t"
        f"{'yes' if metrics.degenerate else 'no'}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityExceeded as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # every reader raises InputError, so this is a write
        print(f"error: cannot write: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
