"""Independent checks of scjlabel output directories.

Nothing here imports scjlabel: the file formats are parsed again, the
objective is evaluated again from its definition, and the optimum is
bracketed by bounds and, for the branch-and-bound workload, compared
with the optimum HiGHS finds on a model built here.  A failed check
raises :class:`CheckFailed` with a message that names the file.

Encoding used throughout: extremity ``2 * marker + 1`` for a head and
``2 * marker`` for a tail; an adjacency is the sorted pair of its two
extremities; a labeling maps a node index to a frozenset of adjacencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

#: The weight grid of the file formats: weights are multiples of 1e-6.
MICRO = 10**6


class CheckFailed(Exception):
    """An output violates the problem's definition."""


# ---------------------------------------------------------------------------
# Parsing


def _left(signed: int) -> int:
    return 2 * signed if signed > 0 else -2 * signed + 1


def _right(signed: int) -> int:
    return 2 * signed + 1 if signed > 0 else -2 * signed


def row_adjacencies(signed: list[int], circular: bool) -> list[tuple[int, int]]:
    """Adjacencies of one signed marker row, in reading order."""
    pairs = [(_right(a), _left(b)) for a, b in zip(signed, signed[1:])]
    if circular and len(signed) > 1:
        pairs.append((_right(signed[-1]), _left(signed[0])))
    return [(min(p), max(p)) for p in pairs]


def read_rows(path: Path) -> list[tuple[str, bool, list[int]]]:
    rows = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3 or parts[1] not in ("L", "C"):
            raise CheckFailed(f"{path}:{lineno}: malformed row {line[:60]!r}")
        try:
            signed = [int(t) for t in parts[2].split()]
        except ValueError:
            raise CheckFailed(f"{path}:{lineno}: non-integer marker") from None
        if not signed or 0 in signed:
            raise CheckFailed(f"{path}:{lineno}: empty row or marker 0")
        rows.append((parts[0], parts[1] == "C", signed))
    return rows


@dataclass
class Tree:
    names: list[str]
    parent: list[int]
    children: list[list[int]]

    @property
    def root(self) -> int:
        return self.parent.index(-1)

    def postorder(self) -> list[int]:
        order, stack = [], [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(self.children[v])
        return order[::-1]

    def edges(self) -> list[tuple[int, int]]:
        return [(p, v) for v, p in enumerate(self.parent) if p >= 0]

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]


def parse_newick(text: str) -> Tree:
    """Newick with every node named; branch lengths are ignored."""
    tree = Tree([], [], [])
    stack: list[int] = []
    i, text = 0, text.strip()
    if not text.endswith(";"):
        raise CheckFailed("newick text does not end with ';'")
    last = -1
    while i < len(text) - 1:
        ch = text[i]
        if ch == "(":
            node = len(tree.names)
            tree.names.append("")
            tree.parent.append(stack[-1] if stack else -1)
            tree.children.append([])
            if stack:
                tree.children[stack[-1]].append(node)
            stack.append(node)
            i += 1
            continue
        if ch in ",)":
            if ch == ")":
                last = stack.pop()
            i += 1
            continue
        j = i
        while j < len(text) - 1 and text[j] not in ",();":
            j += 1
        token = text[i:j].split(":")[0].strip()
        if text[i - 1] == ")":
            tree.names[last] = token
        else:
            node = len(tree.names)
            tree.names.append(token)
            tree.parent.append(stack[-1])
            tree.children.append([])
            tree.children[stack[-1]].append(node)
        i = j
    if stack or not all(tree.names) or len(set(tree.names)) != len(tree.names):
        raise CheckFailed("newick tree is unbalanced or has unnamed or repeated nodes")
    return tree


def read_labeling(path: Path, tree: Tree, markers: frozenset[int]) -> dict[int, frozenset]:
    """Internal-node labeling from CAR rows; any conflict fails the check."""
    index = {name: v for v, name in enumerate(tree.names)}
    used: dict[int, set[int]] = {}
    labels: dict[int, set] = {v: set() for v in range(len(tree.names)) if not tree.is_leaf(v)}
    for name, circular, signed in read_rows(path):
        v = index.get(name)
        if v is None or tree.is_leaf(v):
            raise CheckFailed(f"{path}: {name!r} is not an internal node")
        seen = used.setdefault(v, set())
        for m in signed:
            if abs(m) not in markers or abs(m) in seen:
                raise CheckFailed(f"{path}: marker {abs(m)} unknown or repeated at {name}")
            seen.add(abs(m))
        labels[v].update(row_adjacencies(signed, circular))
    for v, label in labels.items():
        ends = [x for a in label for x in a]
        if len(ends) != len(set(ends)):
            raise CheckFailed(f"{path}: conflicting adjacencies at {tree.names[v]}")
    return {v: frozenset(label) for v, label in labels.items()}


def parse_extremity(text: str) -> int:
    if len(text) < 2 or text[-1] not in "ht" or not text[:-1].isdigit():
        raise CheckFailed(f"bad extremity {text!r}")
    return 2 * int(text[:-1]) + (text[-1] == "h")


def read_weights(path: Path, tree: Tree) -> dict[tuple[int, tuple[int, int]], int]:
    index = {name: v for v, name in enumerate(tree.names)}
    weights = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        parts = line.split("\t")
        if len(parts) != 4 or parts[0] not in index:
            raise CheckFailed(f"{path}:{lineno}: malformed weight row")
        x, y = parse_extremity(parts[1]), parse_extremity(parts[2])
        whole, _, decimals = parts[3].partition(".")
        if not (whole.isdigit() and decimals.isdigit() and len(decimals) <= 6):
            raise CheckFailed(f"{path}:{lineno}: weight {parts[3]!r} off the 1e-6 grid")
        micro = int(whole) * MICRO + int(decimals.ljust(6, "0"))
        key = (index[parts[0]], (min(x, y), max(x, y)))
        if micro > MICRO or key in weights:
            raise CheckFailed(f"{path}:{lineno}: weight above 1 or duplicate row")
        weights[key] = micro
    return weights


def read_stats(path: Path) -> dict[str, str]:
    stats = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("\t")
            stats[key] = value
    return stats


# ---------------------------------------------------------------------------
# The instance and the objective


class Instance:
    """Leaf genomes, weights, alpha and threshold, read from files."""

    def __init__(self, directory: Path, weights_path: Path, alpha: Fraction,
                 threshold: Fraction) -> None:
        self.tree = parse_newick((directory / "tree.nwk").read_text(encoding="utf-8"))
        index = {name: v for v, name in enumerate(self.tree.names)}
        self.leaf: dict[int, frozenset] = {}
        universe: set[int] = set()
        for name, circular, signed in read_rows(directory / "genomes.tsv"):
            v = index.get(name)
            if v is None or not self.tree.is_leaf(v):
                raise CheckFailed(f"genomes.tsv: {name!r} is not a leaf")
            self.leaf[v] = self.leaf.get(v, frozenset()) | frozenset(
                row_adjacencies(signed, circular))
            universe.update(abs(m) for m in signed)
        self.markers = frozenset(universe)
        self.internal = [v for v in self.tree.postorder() if not self.tree.is_leaf(v)]
        self.candidates = sorted(set().union(*self.leaf.values()))
        self.weights = read_weights(weights_path, self.tree)
        self.alpha = alpha
        # w >= x on the 1e-6 grid
        self.cutoff = math.ceil(threshold * MICRO)
        self.unit = (alpha.denominator - alpha.numerator) * MICRO
        self.admitted = {
            (v, a) for v in self.internal for a in self.candidates
            if self.weights.get((v, a), 0) >= self.cutoff
        }

    def read(self, path: Path) -> dict[int, frozenset]:
        return read_labeling(path, self.tree, self.markers)

    def scaled(self, labeling: dict[int, frozenset]) -> int:
        """Objective times ``alpha.denominator * MICRO``, by its definition:
        (1 - alpha) * SCJ changes + alpha * weight of discarded entries."""
        labels = {**self.leaf, **labeling}
        changes = sum(len(labels[u] ^ labels[v]) for u, v in self.tree.edges())
        discarded = sum(w for (v, a), w in self.weights.items()
                        if v in labeling and a not in labeling[v])
        return self.unit * changes + self.alpha.numerator * discarded

    def objective(self, labeling: dict[int, frozenset]) -> Fraction:
        return Fraction(self.scaled(labeling), self.alpha.denominator * MICRO)

    def check_admitted(self, labeling: dict[int, frozenset], where: str) -> None:
        for v, label in labeling.items():
            for a in label:
                if (v, a) not in self.admitted:
                    raise CheckFailed(
                        f"{where}: {self.tree.names[v]} keeps an adjacency that is not "
                        f"a candidate passing the threshold")

    def lower_bound(self) -> Fraction:
        """Each adjacency on its own, conflicts ignored: a relaxation."""
        keys = sorted(set(self.candidates) | {a for _, a in self.weights})
        col = {a: i for i, a in enumerate(keys)}
        by_node: dict[int, dict[tuple[int, int], int]] = {v: {} for v in self.internal}
        for (v, a), w in self.weights.items():
            if v in by_node:
                by_node[v][a] = w
        big = np.int64(1) << 60
        cost0: dict[int, np.ndarray] = {}
        cost1: dict[int, np.ndarray] = {}
        for v in self.tree.postorder():
            if self.tree.is_leaf(v):
                present = np.zeros(len(keys), dtype=bool)
                present[[col[a] for a in self.leaf[v]]] = True
                cost0[v] = np.where(present, big, 0)
                cost1[v] = np.where(present, 0, big)
                continue
            c0 = np.zeros(len(keys), dtype=np.int64)
            c0[[col[a] for a in by_node[v]]] = [self.alpha.numerator * w
                                                for w in by_node[v].values()]
            c1 = np.full(len(keys), big, dtype=np.int64)
            c1[[col[a] for a in self.candidates if (v, a) in self.admitted]] = 0
            for c in self.tree.children[v]:
                c0 = c0 + np.minimum(cost0[c], cost1[c] + self.unit)
                c1 = c1 + np.minimum(cost1[c], cost0[c] + self.unit)
            cost0[v], cost1[v] = np.minimum(c0, big), np.minimum(c1, big)
        root = self.tree.root
        total = int(np.minimum(cost0[root], cost1[root]).sum(dtype=np.int64))
        return Fraction(total, self.alpha.denominator * MICRO)

    def milp_optimum(self) -> tuple[Fraction, dict[int, frozenset]]:
        """Optimum found by HiGHS on a model built here, re-evaluated exactly."""
        from scipy.optimize import LinearConstraint, milp
        from scipy.sparse import coo_matrix

        pairs = sorted(self.admitted)
        var = {p: i for i, p in enumerate(pairs)}
        cost = [-self.alpha.numerator * self.weights.get(p, 0) for p in pairs]
        rows, cols, vals, lo, hi = [], [], [], [], []

        def row(terms, lower, upper):
            for j, value in terms:
                rows.append(len(lo))
                cols.append(j)
                vals.append(value)
            lo.append(lower)
            hi.append(upper)

        for v in self.internal:
            by_end: dict[int, list[int]] = {}
            for a in self.candidates:
                if (v, a) in var:
                    for x in a:
                        by_end.setdefault(x, []).append(var[(v, a)])
            for group in by_end.values():
                if len(group) > 1:
                    row([(j, 1) for j in group], -np.inf, 1)
        for u, v in self.tree.edges():
            for a in self.candidates:
                pu, pv = var.get((u, a)), var.get((v, a))
                if pu is None and pv is None:
                    continue
                if pu is not None and pv is not None:
                    d = len(cost)
                    cost.append(self.unit)
                    row([(d, 1), (pu, -1), (pv, 1)], 0, np.inf)
                    row([(d, 1), (pu, 1), (pv, -1)], 0, np.inf)
                    continue
                j = pu if pu is not None else pv
                fixed = self.tree.is_leaf(v) and a in self.leaf[v]
                # |x - 1| = 1 - x; the constant part does not move the argmin
                cost[j] += -self.unit if fixed else self.unit
        n = len(cost)
        matrix = coo_matrix((vals, (rows, cols)), shape=(len(lo), n)).tocsr()
        integrality = np.array([1] * len(pairs) + [0] * (n - len(pairs)))
        result = milp(
            np.array(cost, dtype=float),
            integrality=integrality,
            bounds=(0, 1),
            constraints=LinearConstraint(matrix, lo, hi),
            options={"mip_rel_gap": 0, "time_limit": 120},
        )
        if result.status != 0:
            raise CheckFailed(f"HiGHS did not prove an optimum: {result.message}")
        labels: dict[int, set] = {v: set() for v in self.internal}
        for (v, a), x in zip(pairs, result.x):
            if x > 0.5:
                labels[v].add(a)
        labeling = {v: frozenset(s) for v, s in labels.items()}
        for v, label in labeling.items():
            ends = [x for a in label for x in a]
            if len(ends) != len(set(ends)):
                raise CheckFailed("HiGHS solution has conflicting adjacencies")
        return self.objective(labeling), labeling


def boltzmann_probabilities(instance: Instance, kt: float) -> dict[tuple[int, tuple], float]:
    """Presence probability of every candidate at every internal node.

    A forward-backward pass in probability space over all candidates at
    once: a scenario's weight is ``exp(-changes / kt)``, each row is
    renormalised at every node so nothing underflows.
    """
    tree, keys = instance.tree, instance.candidates
    q = math.exp(-1.0 / kt)
    trans = np.array([[1.0, q], [q, 1.0]])
    col = {a: i for i, a in enumerate(keys)}
    up: dict[int, np.ndarray] = {}
    toward: dict[int, np.ndarray] = {}  # child's message to its parent
    for v in tree.postorder():
        if tree.is_leaf(v):
            m = np.zeros((len(keys), 2))
            m[:, 0] = 1.0
            idx = [col[a] for a in instance.leaf[v]]
            m[idx, 0], m[idx, 1] = 0.0, 1.0
        else:
            m = np.ones((len(keys), 2))
            for c in tree.children[v]:
                m = m * toward[c]
        up[v] = m / m.sum(axis=1, keepdims=True)
        toward[v] = up[v] @ trans
    down = {tree.root: np.ones((len(keys), 2))}
    result = {}
    for v in reversed(tree.postorder()):
        if tree.is_leaf(v):
            continue
        post = up[v] * down[v]
        p = post[:, 1] / post.sum(axis=1)
        for a, i in col.items():
            result[(v, a)] = float(p[i])
        for c in tree.children[v]:
            outside = down[v].copy()
            for s in tree.children[v]:
                if s != c:
                    outside = outside * toward[s]
            outside = outside @ trans
            down[c] = outside / outside.sum(axis=1, keepdims=True)
    return result


# ---------------------------------------------------------------------------
# Checks on one output directory


def check_output(instance: Instance, out: Path, *, truth: Path, milp: bool = False,
                 kt: float | None = None) -> dict[str, object]:
    """All checks that apply to one run's output directory."""
    stats = read_stats(out / "stats.tsv")
    try:
        optimum = Fraction(stats["objective_exact"])
    except (KeyError, ValueError):
        raise CheckFailed(f"{out}/stats.tsv: no exact objective") from None

    cars = instance.read(out / "cars.tsv")
    instance.check_admitted(cars, "cars.tsv")
    if instance.objective(cars) != optimum:
        raise CheckFailed(
            f"cars.tsv evaluates to {instance.objective(cars)}, stats.tsv says {optimum}")

    lower = instance.lower_bound()
    truth_labels = instance.read(truth)
    upper = instance.objective({
        v: frozenset(a for a in label if (v, a) in instance.admitted)
        for v, label in truth_labels.items()
    })
    if not lower <= optimum <= upper:
        raise CheckFailed(f"objective {optimum} outside [{lower}, {upper}]")
    report: dict[str, object] = {"objective": optimum, "lower": lower, "upper": upper}

    if milp:
        found, _ = instance.milp_optimum()
        if found != optimum:
            raise CheckFailed(f"HiGHS optimum {found} differs from {optimum}")
        report["milp"] = found

    if kt is not None:
        worst = 0.0
        probabilities = boltzmann_probabilities(instance, kt)
        if probabilities.keys() != instance.weights.keys():
            raise CheckFailed("weight table does not cover every candidate at every node")
        for key, p in probabilities.items():
            worst = max(worst, abs(p * MICRO - instance.weights[key]))
        if worst > 1.0:
            raise CheckFailed(f"Boltzmann weight off by {worst:.3f} micro-units")
        report["weight_error_micro"] = worst

    samples_dir = out / "samples"
    if samples_dir.is_dir():
        report.update(_check_samples(instance, out, stats, optimum))
    return report


def _check_samples(instance: Instance, out: Path, stats: dict[str, str],
                   optimum: Fraction) -> dict[str, object]:
    files = sorted((out / "samples").glob("sample_*.tsv"))
    if not files:
        raise CheckFailed(f"{out}/samples holds no sample files")
    tally: dict[tuple[int, tuple[int, int]], int] = {}
    distinct = set()
    for path in files:
        labeling = instance.read(path)
        instance.check_admitted(labeling, path.name)
        if instance.objective(labeling) != optimum:
            raise CheckFailed(f"{path.name} is not co-optimal")
        distinct.add(tuple(sorted(labeling.items())))
        for v, label in labeling.items():
            for a in label:
                tally[(v, a)] = tally.get((v, a), 0) + 1
    count = int(stats["cooptimal_count"])
    if len(distinct) > count:
        raise CheckFailed(f"{len(distinct)} distinct samples, only {count} co-optimal")

    index = {name: v for v, name in enumerate(instance.tree.names)}
    listed: dict[tuple[int, tuple[int, int]], Fraction] = {}
    lines = (out / "frequency.tsv").read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        name, x, y, value = line.split("\t")
        a = tuple(sorted((parse_extremity(x), parse_extremity(y))))
        listed[(index[name], a)] = Fraction(value)
    if listed.keys() != tally.keys():
        raise CheckFailed("frequency.tsv lists other adjacencies than the samples hold")
    for key, n in tally.items():
        if abs(listed[key] - Fraction(n, len(files))) > Fraction(1, 2 * MICRO):
            raise CheckFailed("frequency.tsv disagrees with the sample files")
    return {"samples": len(files), "distinct_samples": len(distinct), "cooptimal": count}

