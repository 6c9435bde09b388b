"""Spans around the public functions that ``scjlabel.pipeline`` calls.

The tracer replaces names in the pipeline module's namespace with
wrappers while it is installed and puts the originals back when it is
removed, so untraced operations run the program's own code.  A span is
(name, parent span, start, end); a layer's self time is its span minus
its child spans.  Counts are taken after an operation from the values
the wrapped functions returned, outside every span.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

#: pipeline attribute -> layer name reported for its self time
LAYERS = {
    "run_solve": "pipeline.run_solve_s",
    "parse_tree": "formats.parse_s",
    "parse_genomes": "formats.parse_s",
    "boltzmann_weight_table": "weights.boltzmann_s",
    "load_weight_table": "weights.load_s",
    "solve_instance": "pipeline.assemble_s",
    "candidate_adjacencies": "graph.candidates_s",
    "build_global_graph": "graph.build_s",
    "connected_components": "graph.components_s",
    "solve_component": "dp.solve_s",
    "sample_component": "dp.sample_s",
    "build_model": "ilp.build_s",
    "solve_bb": "ilp.bb_s",
    "labeling_objective": "core.recheck_s",
    "write_outputs": "pipeline.write_s",
}

TIME_METRICS = sorted(set(LAYERS.values()))

COUNT_METRICS = [
    "weights.entries", "weights.load_rows", "graph.edges", "graph.components",
    "graph.max_extremities", "dp.components", "dp.label_pairs",
    "dp.component_samples", "ilp.components", "ilp.vars", "ilp.bb_nodes",
    "core.recheck_entries", "pipeline.files_written", "pipeline.bytes_written",
]


def _label_pairs(table) -> int:
    labels = table.labels
    return sum(len(labels[u]) * len(labels[v]) for u, v in table.tree.edges())


def count_call(counts: dict[str, int], attr: str, args: tuple, result) -> None:
    """Add one call's work to the per-operation counts."""
    if attr == "boltzmann_weight_table":
        counts["weights.entries"] += len(result)
    elif attr == "load_weight_table":
        counts["weights.load_rows"] += len(result)
    elif attr == "build_global_graph":
        counts["graph.edges"] += len(result.edges)
    elif attr == "connected_components":
        counts["graph.components"] += len(result)
        counts["graph.max_extremities"] = max(
            [counts["graph.max_extremities"]] + [c.n_extremities for c in result])
    elif attr == "solve_component":
        counts["dp.components"] += 1
        counts["dp.label_pairs"] += _label_pairs(result[1])
    elif attr == "sample_component":
        counts["dp.component_samples"] += len(result)
    elif attr == "build_model":
        counts["ilp.vars"] += len(result.variables)
    elif attr == "solve_bb":
        counts["ilp.components"] += 1
        counts["ilp.bb_nodes"] += result.nodes_explored
    elif attr == "labeling_objective":
        counts["core.recheck_entries"] += len(args[2])


class Tracer:
    """Collects spans and returned values for the operations it wraps."""

    def __init__(self, module) -> None:
        self.module = module
        self.originals = {attr: getattr(module, attr) for attr in LAYERS}
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.calls: list[tuple[str, tuple, object]] = []
        self._stack: list[int] = []
        self._taken = 0

    def _wrap(self, attr: str, original):
        spans, stack, calls = self.spans, self._stack, self.calls

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([attr, stack[-1] if stack else -1, time.perf_counter(), 0.0])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index][3] = time.perf_counter()
                stack.pop()
            calls.append((attr, args, result))
            return result

        return traced

    def install(self) -> None:
        for attr, original in self.originals.items():
            setattr(self.module, attr, self._wrap(attr, original))

    def remove(self) -> None:
        for attr, original in self.originals.items():
            setattr(self.module, attr, original)

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time per layer and counts of the spans since the last take."""
        spans = self.spans[self._taken:]
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= self._taken:
                child_time[parent - self._taken] += end - start
        times = dict.fromkeys(TIME_METRICS, 0.0)
        for (name, _, start, end), inner in zip(spans, child_time):
            times[LAYERS[name]] += end - start - inner
        counts = dict.fromkeys(COUNT_METRICS, 0)
        for attr, args, result in self.calls:
            count_call(counts, attr, args, result)
        self._taken = len(self.spans)
        self.calls.clear()
        return times, counts

    def dump(self, path: Path) -> None:
        """Every span recorded; spans without a parent start an operation."""
        path.write_text(json.dumps(
            [{"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in self.spans]))
