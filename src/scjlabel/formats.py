"""Tree, genome, and labeling file formats.

Trees are Newick; genomes and labelings are tab-separated files with
one row per chromosome: name, kind (L linear / C circular), and the
signed marker order separated by spaces.  Blank lines and lines
starting with '#' are skipped everywhere, and parse errors carry the
file name and line number.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from .core import (
    Adjacency,
    Genome,
    Node,
    Phylogeny,
    check_consistency,
    chromosome_adjacencies,
    extract_cars,
    fmt,
    quoted,
)
from .errors import InputError


# ---------------------------------------------------------------------------
# Newick trees

_NAME_STOP = set("(),:;")


class _NewickScanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def fail(self, message: str) -> None:
        raise InputError(f"newick error at offset {self.pos}: {message}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def name(self) -> str:
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in _NAME_STOP or ch.isspace():
                break
            self.pos += 1
        return self.text[start : self.pos]

    def number(self) -> float:
        start = self.pos
        token = self.name()  # the same stops end a number
        try:
            return float(token)
        except ValueError:
            self.pos = start
            self.fail(f"bad branch length {quoted(token)}")
            raise AssertionError  # unreachable


def parse_newick(text: str) -> Phylogeny:
    """Parse one Newick tree; unnamed internal nodes get anc1, anc2, ...

    Auto-names are assigned in postorder so they are stable across
    runs, and branch lengths are kept but never used by the solvers.
    """
    scanner = _NewickScanner(text)
    scanner.skip_ws()
    if not scanner.peek():
        scanner.fail("empty input")
    root = _clade(scanner)
    scanner.skip_ws()
    if scanner.peek() == ";":
        scanner.take()
        scanner.skip_ws()
    if scanner.pos != len(scanner.text):
        scanner.fail("trailing characters after the tree")

    # Node ids in preorder, taken with a stack: any depth parses.
    preorder: list[dict] = []
    stack: list[tuple[dict, int | None]] = [(root, None)]
    while stack:
        clade, parent = stack.pop()
        if not clade["children"] and not clade["name"]:
            raise InputError("newick error: a leaf has no name")
        clade["id"], clade["parent"] = len(preorder), parent
        preorder.append(clade)
        stack.extend((child, clade["id"]) for child in reversed(clade["children"]))
    nodes = tuple(
        Node(id=c["id"], name=c["name"], parent=c["parent"], length=c["length"],
             children=tuple(child["id"] for child in c["children"]))
        for c in preorder
    )
    return Phylogeny(nodes=nodes, root=0)


def _clade(scanner: _NewickScanner) -> dict:
    """The root clade; unnamed internal clades are named as they close.

    The child lists of the clades still open are kept on a stack, not in
    recursive calls, so nesting depth is not bounded by the recursion
    limit.  Clades close in postorder.
    """
    open_children: list[list[dict]] = []
    counter = 0
    while True:
        scanner.skip_ws()
        if scanner.peek() == "(":
            scanner.take()
            open_children.append([])
            continue
        children: list[dict] = []
        while True:  # close clades until a sibling follows
            scanner.skip_ws()
            name = scanner.name()
            if children and not name:
                counter += 1
                name = f"anc{counter}"
            length = None
            scanner.skip_ws()
            if scanner.peek() == ":":
                scanner.take()
                scanner.skip_ws()
                length = scanner.number()
            clade = {"name": name, "children": children, "length": length}
            if not open_children:
                return clade
            open_children[-1].append(clade)
            scanner.skip_ws()
            if scanner.peek() == ",":
                scanner.take()
                break
            if scanner.peek() != ")":
                scanner.fail("expected ',' or ')'")
            scanner.take()
            children = open_children.pop()


def parse_tree(path: str | Path) -> Phylogeny:
    """Read a Newick file; see :func:`parse_newick`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read tree file {path}: {exc}") from exc
    return parse_newick(text)


def write_newick(tree: Phylogeny) -> str:
    """Render the tree with names and any stored branch lengths."""
    out: list[str] = []
    stack: list[int | str] = [tree.root]  # node ids to render, text to emit
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node = tree.nodes[item]
        tail = node.name if node.length is None else f"{node.name}:{node.length:.6f}"
        if node.children:
            stack.append(")" + tail)
            for c in reversed(node.children):
                stack.extend((c, ","))
            stack[-1] = "("  # the comma before the first child opens the list
        else:
            out.append(tail)
    return "".join(out) + ";"


# ---------------------------------------------------------------------------
# Genome / labeling tables

_KINDS = {"L": False, "C": True}


def _iter_rows(path: str | Path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, raw.rstrip("\n")


def _parse_marker_row(path, lineno: int, row: str) -> tuple[str, bool, tuple[int, ...]]:
    parts = row.split("\t")
    if len(parts) != 3:
        raise InputError(f"{path}:{lineno}: expected 3 tab-separated columns")
    name, kind, order = parts[0].strip(), parts[1].strip(), parts[2].strip()
    if not name:
        raise InputError(f"{path}:{lineno}: empty name column")
    if kind not in _KINDS:
        raise InputError(f"{path}:{lineno}: chromosome kind must be L or C, got {quoted(kind)}")
    if not order:
        raise InputError(f"{path}:{lineno}: empty marker order")
    tokens = order.split()
    try:
        markers = tuple(map(int, tokens))
    except ValueError:
        markers = (0,)  # sends the read below to the bad token
    if 0 in markers:  # name the first bad token, as a token-by-token read does
        for token in tokens:
            try:
                value = int(token)
            except ValueError:
                raise InputError(f"{path}:{lineno}: bad marker id {quoted(token)}") from None
            if value == 0:
                raise InputError(f"{path}:{lineno}: marker ids must be non-zero")
    return name, _KINDS[kind], markers


def parse_genomes(path: str | Path) -> dict[str, Genome]:
    """Read genomes from chromosome rows and validate shared content.

    Signs choose the joined extremities, so "1 -2 3" yields the
    adjacencies (1h,2h) and (2t,3t).
    """
    chromosomes: dict[str, list[tuple[tuple[int, ...], bool]]] = {}
    seen_markers: dict[str, set[int]] = {}
    for lineno, row in _iter_rows(path):
        name, circular, markers = _parse_marker_row(path, lineno, row)
        seen = seen_markers.get(name)
        if seen is None:
            chromosomes[name] = []
            seen = seen_markers[name] = set()
        ids = set(map(abs, markers))
        if len(ids) != len(markers) or not seen.isdisjoint(ids):
            for m in markers:  # find the first repeat for the message
                if abs(m) in seen:
                    raise InputError(
                        f"{path}:{lineno}: marker {abs(m)} repeats in genome {name}"
                    )
                seen.add(abs(m))
        seen |= ids
        chromosomes[name].append((markers, circular))
    if not chromosomes:
        raise InputError(f"{path}: no genome rows found")
    first, *others = chromosomes
    universe = frozenset(seen_markers[first])  # one object, shared by every genome
    for name in others:
        if seen_markers[name] != universe:
            raise InputError(
                f"{path}: genome {name} has different marker content than {first}"
            )
    genomes: dict[str, Genome] = {}
    shared: dict = {}  # every genome holds the same extremity and adjacency tuples
    for name, rows in chromosomes.items():
        try:
            parts = [chromosome_adjacencies(m, circular, shared) for m, circular in rows]
        except InputError as exc:
            raise InputError(f"{path}: genome {name}: {exc}") from exc
        # A one-chromosome genome keeps its frozenset uncopied.
        adjacencies = parts[0] if len(parts) == 1 else frozenset().union(*parts)
        genomes[name] = Genome(adjacencies=adjacencies, markers=universe)
    return genomes


def parse_labeling(path: str | Path, tree: Phylogeny) -> dict[int, frozenset[Adjacency]]:
    """Read per-node marker orders keyed by internal node name.

    The file uses the genome row format with the node name in column 1.
    Nodes without rows get the empty label; unknown names are rejected.
    """
    per_node: dict[int, set[Adjacency]] = {v: set() for v in tree.internal_ids()}
    shared: dict = {}
    for lineno, row in _iter_rows(path):
        name, circular, markers = _parse_marker_row(path, lineno, row)
        node_id = tree.id_of(name)
        if tree.is_leaf(node_id):
            raise InputError(f"{path}:{lineno}: {name} is a leaf, not an internal node")
        universe = tree.markers
        for m in markers:
            if abs(m) not in universe:
                raise InputError(f"{path}:{lineno}: unknown marker {abs(m)}")
        try:
            per_node[node_id].update(chromosome_adjacencies(markers, circular, shared))
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    for v, adjacencies in per_node.items():
        ok, offenders = check_consistency(adjacencies)
        if not ok:
            raise InputError(
                f"{path}: rows for {tree.name_of(v)} reuse extremities: "
                + ", ".join(map(fmt, offenders))
            )
    return {v: frozenset(s) for v, s in per_node.items()}


def _car_rows(name: str, adjacencies: frozenset[Adjacency], markers) -> list[str]:
    # Most CARs of a sparse label are single markers, formatted without a join.
    start = {"linear": f"{name}\tL\t", "circular": f"{name}\tC\t"}
    return [
        start[kind] + (str(seq[0]) if len(seq) == 1 else " ".join(map(str, seq)))
        for kind, seq in extract_cars(adjacencies, markers)
    ]


def write_genomes(path: str | Path, genomes: Mapping[str, Genome]) -> None:
    """Write genomes as chromosome rows, normalized through their CARs."""
    lines = []
    for name in sorted(genomes):
        genome = genomes[name]
        lines.extend(_car_rows(name, genome.adjacencies, genome.markers))
    write_lines(path, lines)


def labeling_rows(
    tree: Phylogeny,
    labeling: Mapping[int, frozenset[Adjacency]],
    cache: dict[tuple[int, frozenset[Adjacency]], list[str]] | None = None,
) -> list[str]:
    """Internal-node labels as CAR rows (genome format, node name first);
    nodes appear in postorder.

    ``cache`` maps (node, label) to that node's rows and is filled as
    rows are built; pass one dict to calls on many labelings so each
    distinct (node, label) has its CARs extracted once.
    """
    cache = {} if cache is None else cache
    lines = []
    for v in tree.internal_ids():
        lines.extend(node_rows(tree, v, labeling[v], cache))
    return lines


def node_rows(
    tree: Phylogeny,
    v: int,
    label: frozenset[Adjacency],
    cache: dict[tuple[int, frozenset[Adjacency]], list[str]],
) -> list[str]:
    """CAR rows of internal node ``v`` labeled ``label``, built once per
    (node, label) through ``cache``."""
    rows = cache.get((v, label))
    if rows is None:
        rows = cache[(v, label)] = _car_rows(tree.name_of(v), label, tree.markers)
    return rows


def write_labeling(
    path: str | Path, tree: Phylogeny, labeling: Mapping[int, frozenset[Adjacency]]
) -> None:
    """Write :func:`labeling_rows` of ``labeling`` to ``path``."""
    write_lines(path, labeling_rows(tree, labeling))


def write_lines(path: str | Path, lines: list[str]) -> None:
    """Write ``lines`` as UTF-8 text, each ending in a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("".join(line + "\n" for line in lines))
