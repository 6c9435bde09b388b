"""The benchmark's own test: the harness on a tiny instance, and the
checker rejecting corrupted outputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import shutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import run  # noqa: E402

TINY = run.Workload(24, 5, sim_seed=3, alpha="1/2", threshold="0.6",
                    weights_file=True, milp=True)
TINY_SAMPLE = run.Workload(24, 5, sim_seed=3, alpha="0", threshold="0.6",
                           samples=20, sample_seed=7)


@pytest.fixture(scope="module")
def solved(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("tiny")
    result = run.run_workload(TINY, seed=5, seconds=0, trace=False, work=work)
    assert result["correct"], result
    return work


def _instance(work: Path, w: run.Workload = TINY) -> checker.Instance:
    return checker.Instance(work / "instance", work / "instance" / "weights.tsv",
                            Fraction(w.alpha), Fraction(w.threshold))


def _check(work: Path, out: Path) -> None:
    checker.check_output(_instance(work), out, truth=work / "instance" / "truth.tsv",
                         milp=True, kt=run.KT)


def test_harness_reports_every_metric(solved, tmp_path):
    for w in (TINY, TINY_SAMPLE):
        for trace in (False, True):
            work = tmp_path / f"{w.samples}-{trace}"
            result = run.run_workload(w, seed=2, seconds=0, trace=trace, work=work)
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] == (2 if trace else 1)
            names = set(result["metrics"])
            if trace:
                assert {"dp.label_pairs", "ilp.bb_nodes", "trace.overhead_s"} <= names
            else:
                assert names == set(run.END_TO_END)


def test_checker_accepts_the_program_output(solved):
    _check(solved, solved / "op0")


def test_checker_rejects_one_flipped_adjacency(solved, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(solved / "op0", out)
    lines = (out / "cars.tsv").read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if len(line.split("\t")[2].split()) >= 3)
    name, kind, order = lines[row].split("\t")
    markers = order.split()
    markers[-1] = str(-int(markers[-1]))  # changes only the last adjacency
    lines[row] = "\t".join((name, kind, " ".join(markers)))
    (out / "cars.tsv").write_text("\n".join(lines) + "\n")
    with pytest.raises(checker.CheckFailed):
        _check(solved, out)


def test_checker_rejects_a_changed_objective(solved, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(solved / "op0", out)
    stats = (out / "stats.tsv").read_text()
    exact = next(line for line in stats.splitlines() if line.startswith("# objective_exact"))
    value = Fraction(exact.split("\t")[1]) + Fraction(1, 2 * 10**6)
    (out / "stats.tsv").write_text(
        stats.replace(exact, f"# objective_exact\t{value.numerator}/{value.denominator}"))
    with pytest.raises(checker.CheckFailed):
        _check(solved, out)
