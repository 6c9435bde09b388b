"""Ancestral gene order reconstruction by weighted adjacency labeling.

Given a phylogeny with gene orders at the leaves, adjacency confidence
weights at the internal nodes, and a mixing factor alpha, the solvers
here find internal labelings that are conflict-free and minimize

    alpha * (total weight of discarded adjacencies)
    + (1 - alpha) * (total rearrangement cost between neighboring nodes),

count the co-optimal labelings exactly, and sample from them uniformly.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityExceeded,
    InputError,
    InternalInvariantError,
    ScjLabelError,
)
from .core import (
    Adjacency,
    Extremity,
    Genome,
    Node,
    ObjectiveValue,
    Phylogeny,
    WeightTable,
    check_consistency,
    dcj_distance,
    extract_cars,
    labeling_objective,
    scj_distance,
)
from .graph import (
    Component,
    GlobalAdjacencyGraph,
    build_global_graph,
    candidate_adjacencies,
    connected_components,
)
from .weights import (
    boltzmann_weight_table,
    boltzmann_weights,
    load_weight_table,
    write_weight_table,
)
from .dp import (
    ComponentSolution,
    DpTable,
    count_cooptimal,
    sample_component,
    solve_component,
)
from .ilp import IlpModel, build_model, solve_bb
from .sim import Metrics, SimConfig, SimResult, evolve, score_labelings, simulate_tree
from .formats import (
    parse_genomes,
    parse_labeling,
    parse_newick,
    parse_tree,
    write_genomes,
    write_labeling,
    write_newick,
)
from .pipeline import RunConfig, SolveReport, run_solve, solve_instance

__all__ = [
    "Adjacency",
    "CapacityExceeded",
    "Component",
    "ComponentSolution",
    "DpTable",
    "Extremity",
    "Genome",
    "GlobalAdjacencyGraph",
    "IlpModel",
    "InputError",
    "InternalInvariantError",
    "Metrics",
    "Node",
    "ObjectiveValue",
    "Phylogeny",
    "RunConfig",
    "ScjLabelError",
    "SimConfig",
    "SimResult",
    "SolveReport",
    "WeightTable",
    "boltzmann_weight_table",
    "boltzmann_weights",
    "build_global_graph",
    "build_model",
    "candidate_adjacencies",
    "check_consistency",
    "connected_components",
    "count_cooptimal",
    "dcj_distance",
    "evolve",
    "extract_cars",
    "labeling_objective",
    "load_weight_table",
    "parse_genomes",
    "parse_labeling",
    "parse_newick",
    "parse_tree",
    "run_solve",
    "sample_component",
    "scj_distance",
    "score_labelings",
    "simulate_tree",
    "solve_bb",
    "solve_component",
    "solve_instance",
    "write_genomes",
    "write_labeling",
    "write_newick",
    "write_weight_table",
    "__version__",
]
