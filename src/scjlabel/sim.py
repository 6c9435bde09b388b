"""Rearrangement simulator and reconstruction metrics.

A birth-death tree is grown until it has the requested number of leaf
lineages, branch lengths are rescaled so the tree diameter equals
``diameter_factor * n_markers``, and genomes evolve down the branches
by inversions and reciprocal translocations (one event per rounded unit
of branch length).  The simulated internal genomes are kept as ground
truth for scoring reconstructions.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field

from .core import Adjacency, Genome, Node, Phylogeny, chromosome_adjacencies
from .errors import InputError, InternalInvariantError
from .rng import derive_seed

#: Birth rate of the tree's lineages.  The tree is rescaled to its target
#: diameter, so only the death rate's share of events changes it.
BIRTH_RATE = 0.001
#: The largest tree diameter, in events, so that a simulation ends in bounded time.
MAX_DIAMETER = 10**6

Chromosome = tuple[int, ...]
MultiChromosome = tuple[Chromosome, ...]


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulation run."""

    n_markers: int = 100
    n_leaves: int = 6
    death_rate: float = 0.0
    diameter_factor: float = 2.0
    p_inversion: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_markers < 2:
            raise InputError(f"need at least 2 markers, got {self.n_markers}")
        if self.n_leaves < 2:
            raise InputError(f"need at least 2 leaves, got {self.n_leaves}")
        if not 0 <= self.death_rate <= BIRTH_RATE:
            raise InputError(f"death rate must lie in [0, {BIRTH_RATE}], the birth rate")
        if not 0 <= self.p_inversion <= 1:
            raise InputError("inversion probability must lie in [0, 1]")
        if not 0 < self.diameter_factor * self.n_markers <= MAX_DIAMETER:  # NaN fails too
            raise InputError(f"diameter factor times the marker count must lie in (0, {MAX_DIAMETER}]")


@dataclass(frozen=True)
class SimResult:
    """Tree with leaf genomes attached plus the hidden internal states."""

    tree: Phylogeny
    truth: dict[int, frozenset[Adjacency]]
    genomes: dict[int, MultiChromosome]
    events_per_edge: dict[int, int]

    @property
    def total_events(self) -> int:
        return sum(self.events_per_edge.values())


# ---------------------------------------------------------------------------
# Rearrangement moves


def apply_inversion(
    genome: MultiChromosome, chromosome: int, i: int, j: int
) -> MultiChromosome:
    """Reverse and sign-flip marker positions i..j (1-based, inclusive).

    Inverting 1 2 3 4 at [2..3] gives 1 -3 -2 4.
    """
    if not 0 <= chromosome < len(genome):
        raise InputError(f"no chromosome {chromosome}")
    markers = genome[chromosome]
    if not 1 <= i <= j <= len(markers):
        raise InputError(
            f"segment [{i}..{j}] out of range for {len(markers)} markers"
        )
    flipped = tuple(map(operator.neg, reversed(markers[i - 1 : j])))  # negated in C
    replaced = markers[: i - 1] + flipped + markers[j:]
    return genome[:chromosome] + (replaced,) + genome[chromosome + 1 :]


def apply_translocation(
    genome: MultiChromosome, chr_a: int, i: int, chr_b: int, j: int
) -> MultiChromosome:
    """Exchange suffixes of two chromosomes cut after positions i and j.

    Cuts count kept prefix markers, so 0 moves the whole chromosome and
    the full length moves nothing; chromosomes emptied by the exchange
    are dropped.
    """
    if chr_a == chr_b:
        raise InputError("translocation needs two distinct chromosomes")
    for k in (chr_a, chr_b):
        if not 0 <= k < len(genome):
            raise InputError(f"no chromosome {k}")
    if not 0 <= i <= len(genome[chr_a]):
        raise InputError(f"cut {i} out of range")
    if not 0 <= j <= len(genome[chr_b]):
        raise InputError(f"cut {j} out of range")
    new_a = genome[chr_a][:i] + genome[chr_b][j:]
    new_b = genome[chr_b][:j] + genome[chr_a][i:]
    out = list(genome)
    out[chr_a] = new_a
    out[chr_b] = new_b
    return tuple(c for c in out if c)


def _random_inversion(genome: MultiChromosome, rng: random.Random) -> MultiChromosome:
    """Invert a uniformly chosen nonempty segment.

    Segments are counted across all chromosomes, so longer chromosomes
    are proportionally more likely to be hit.
    """
    totals = [len(c) * (len(c) + 1) // 2 for c in genome]
    r = rng.randrange(sum(totals))
    target = 0
    while r >= totals[target]:
        r -= totals[target]
        target += 1
    cut_a, cut_b = sorted(rng.sample(range(len(genome[target]) + 1), 2))
    return apply_inversion(genome, target, cut_a + 1, cut_b)


def _random_translocation(genome: MultiChromosome, rng: random.Random) -> MultiChromosome:
    a, b = rng.sample(range(len(genome)), 2)
    i = rng.randrange(len(genome[a]) + 1)
    j = rng.randrange(len(genome[b]) + 1)
    return apply_translocation(genome, a, i, b, j)


def _evolve_genome(
    genome: MultiChromosome,
    n_events: int,
    rng: random.Random,
    p_inversion: float,
) -> MultiChromosome:
    """Apply random rearrangements; translocations fall back to
    inversions on single-chromosome genomes."""
    for _ in range(n_events):
        use_inversion = rng.random() < p_inversion
        if not use_inversion and len(genome) < 2:
            use_inversion = True
        if use_inversion:
            genome = _random_inversion(genome, rng)
        else:
            genome = _random_translocation(genome, rng)
    return genome


# ---------------------------------------------------------------------------
# Tree growth


@dataclass
class _Lineage:
    parent: int | None
    length: float = 0.0
    children: list[int] = field(default_factory=list)
    alive: bool = True
    extinct: bool = False


def _grow_tree(config: SimConfig, rng: random.Random) -> list[_Lineage]:
    """One birth-death growth attempt, root at index 0.

    Returns the node pool with exactly n_leaves live tips, or raises
    InternalInvariantError on extinction so the caller can retry with
    the next stretch of the stream.
    """
    nodes = [_Lineage(parent=None, alive=False), _Lineage(parent=0), _Lineage(parent=0)]
    nodes[0].children = [1, 2]
    active = [1, 2]
    total_rate = BIRTH_RATE + config.death_rate
    while len(active) < config.n_leaves:
        if not active:
            raise InternalInvariantError("all lineages died")
        dt = rng.expovariate(len(active) * total_rate)
        for k in active:
            nodes[k].length += dt
        pick = active[rng.randrange(len(active))]
        if rng.random() < BIRTH_RATE / total_rate:
            left = len(nodes)
            nodes.append(_Lineage(parent=pick))
            right = len(nodes)
            nodes.append(_Lineage(parent=pick))
            nodes[pick].children = [left, right]
            nodes[pick].alive = False
            active.remove(pick)
            active.extend([left, right])
        else:
            nodes[pick].alive = False
            nodes[pick].extinct = True
            active.remove(pick)
    dt = rng.expovariate(len(active) * total_rate)
    for k in active:
        nodes[k].length += dt
    return nodes


def _prune_extinct(nodes: list[_Lineage]) -> None:
    """Drop extinct subtrees and splice out the unary nodes they leave.

    The root (index 0) is never spliced; callers check that it still
    has two children afterwards.
    """
    changed = True
    while changed:
        changed = False
        for k, node in enumerate(nodes):
            if k == 0 or node.parent is None:
                continue
            if node.extinct and not node.children:
                nodes[node.parent].children.remove(k)
                node.parent = None
                changed = True
            elif not node.alive and not node.extinct and not node.children:
                # internal node whose children all detached
                node.extinct = True
                changed = True
            elif not node.alive and len(node.children) == 1:
                child = node.children[0]
                parent = node.parent
                nodes[child].length += node.length
                nodes[child].parent = parent
                nodes[parent].children[nodes[parent].children.index(k)] = child
                node.children = []
                node.parent = None
                changed = True


def _diameter(nodes: list[_Lineage]) -> float:
    depth: dict[int, float] = {0: 0.0}
    order = [0]
    for k in order:
        for c in nodes[k].children:
            depth[c] = depth[k] + nodes[c].length
            order.append(c)
    chains: dict[int, list[int]] = {}
    for k in depth:
        chain = []
        cur: int | None = k
        while cur is not None:
            chain.append(cur)
            cur = nodes[cur].parent
        chains[k] = chain
    leaves = [k for k in depth if not nodes[k].children]
    best = 0.0
    for a in leaves:
        ancestors = set(chains[a])
        for b in leaves:
            if b <= a:
                continue
            lca = next(x for x in chains[b] if x in ancestors)
            best = max(best, depth[a] + depth[b] - 2 * depth[lca])
    return best


def simulate_tree(config: SimConfig) -> Phylogeny:
    """Birth-death tree with n_leaves tips, scaled to the target diameter.

    Deterministic given config.seed; the tree stream is independent of
    the rearrangement stream used by :func:`evolve`.
    """
    rng = random.Random(derive_seed(config.seed, "tree"))
    for _ in range(1000):
        try:
            nodes = _grow_tree(config, rng)
        except InternalInvariantError:
            continue
        _prune_extinct(nodes)
        if len(nodes[0].children) == 2:
            break
    else:
        raise InputError("simulation kept going extinct; lower the death rate")

    target = config.diameter_factor * config.n_markers
    diameter = _diameter(nodes)
    if diameter <= 0:
        raise InternalInvariantError("degenerate tree diameter")
    factor = target / diameter

    reachable = [0]
    for k in reachable:
        reachable.extend(nodes[k].children)
    new_id = {k: i for i, k in enumerate(reachable)}
    names: dict[int, str] = {}
    leaf_counter = 0
    for k in reachable:
        if not nodes[k].children:
            leaf_counter += 1
            names[k] = f"s{leaf_counter}"
    internal_counter = 0
    for k in reversed(reachable):
        if nodes[k].children:
            internal_counter += 1
            names[k] = f"anc{internal_counter}"

    built = tuple(
        Node(
            id=new_id[k],
            name=names[k],
            parent=None if nodes[k].parent is None else new_id[nodes[k].parent],
            children=tuple(new_id[c] for c in nodes[k].children),
            length=nodes[k].length * factor if nodes[k].parent is not None else None,
        )
        for k in reachable
    )
    return Phylogeny(nodes=built, root=0)


def evolve(config: SimConfig) -> SimResult:
    """Full simulation: tree shape, branch scaling, genome evolution.

    The root starts as the single linear chromosome 1..n_markers; each
    branch applies round-half-up(length) events drawn from its own
    stretch of the event stream.
    """
    tree = simulate_tree(config)
    event_rng = random.Random(derive_seed(config.seed, "events"))
    root_genome: MultiChromosome = (tuple(range(1, config.n_markers + 1)),)
    genomes: dict[int, MultiChromosome] = {tree.root: root_genome}
    events: dict[int, int] = {}
    for u, v in tree.edges():
        length = tree.nodes[v].length or 0.0
        n_events = math.floor(length + 0.5)
        events[v] = n_events
        genomes[v] = _evolve_genome(
            genomes[u], n_events, event_rng, config.p_inversion
        )

    markers = frozenset(range(1, config.n_markers + 1))
    leaf_genomes: dict[str, Genome] = {}
    truth: dict[int, frozenset[Adjacency]] = {}
    shared: dict = {}  # one tuple per extremity and per adjacency, for every node
    for v in tree.preorder():
        adjacencies = _genome_adjacencies(genomes[v], shared)
        if tree.is_leaf(v):
            leaf_genomes[tree.name_of(v)] = Genome(
                adjacencies=adjacencies, markers=markers
            )
        else:
            truth[v] = adjacencies
    return SimResult(
        tree=tree.with_genomes(leaf_genomes),
        truth=truth,
        genomes=genomes,
        events_per_edge=events,
    )


def _genome_adjacencies(genome: MultiChromosome, shared: dict) -> frozenset[Adjacency]:
    adjacencies: set[Adjacency] = set()
    for chromosome in genome:
        adjacencies.update(chromosome_adjacencies(chromosome, shared=shared))
    return frozenset(adjacencies)


# ---------------------------------------------------------------------------
# Scoring


@dataclass(frozen=True)
class Metrics:
    """Adjacency-level confusion counts over the internal nodes."""

    tp: int
    fp: int
    fn: int
    sensitivity: float
    precision: float
    f1: float
    f_half: float
    degenerate: bool

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "Metrics":
        degenerate = False
        if tp + fn == 0:
            sensitivity = 1.0
            degenerate = True
        else:
            sensitivity = tp / (tp + fn)
        if tp + fp == 0:
            precision = 1.0
            degenerate = True
        else:
            precision = tp / (tp + fp)
        return cls(
            tp=tp,
            fp=fp,
            fn=fn,
            sensitivity=sensitivity,
            precision=precision,
            f1=_f_beta(precision, sensitivity, 1.0, tp, fp, fn),
            f_half=_f_beta(precision, sensitivity, 0.5, tp, fp, fn),
            degenerate=degenerate,
        )


def _f_beta(
    precision: float, recall: float, beta: float, tp: int, fp: int, fn: int
) -> float:
    """F-measure; an all-empty comparison scores 1.0, matching the
    degenerate handling in from_counts."""
    if tp + fp + fn == 0:
        return 1.0
    b2 = beta * beta
    denominator = b2 * precision + recall
    if denominator == 0:
        return 0.0
    return (1 + b2) * precision * recall / denominator


def score_labelings(
    truth: dict[int, frozenset[Adjacency]],
    predicted: dict[int, frozenset[Adjacency]],
) -> Metrics:
    """Pool adjacency hits and misses across all internal nodes."""
    if set(truth) != set(predicted):
        raise InputError("truth and prediction cover different nodes")
    tp = fp = fn = 0
    for node_id, expected in truth.items():
        got = predicted[node_id]
        tp += len(expected & got)
        fp += len(got - expected)
        fn += len(expected - got)
    return Metrics.from_counts(tp, fp, fn)
