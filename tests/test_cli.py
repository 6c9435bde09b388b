"""Command line entry points and exit codes."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scjlabel
from scjlabel.cli import main
from scjlabel.formats import parse_genomes, parse_labeling, parse_tree
from scjlabel.weights import load_weight_table

SRC = str(Path(scjlabel.__file__).resolve().parent.parent)
TREE_TEXT = "((s1,s2)anc2,s3)anc1;"
GENOME_ROWS = [
    "s1\tL\t1 2",
    "s1\tL\t3",
    "s2\tL\t1 2",
    "s2\tL\t3",
    "s3\tL\t1",
    "s3\tL\t2 3",
]


def read_stats(out: Path) -> dict[str, str]:
    """The ``# key<TAB>value`` header lines of a run's stats.tsv."""
    return dict(
        line[2:].split("\t", 1)
        for line in (out / "stats.tsv").read_text(encoding="utf-8").splitlines()
        if line.startswith("# ")
    )


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    """``python -m scjlabel`` in a fresh interpreter, output captured."""
    return subprocess.run(
        [sys.executable, "-m", "scjlabel", *args],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
    )


@pytest.fixture
def instance(tmp_path):
    tree = tmp_path / "tree.nwk"
    tree.write_text(TREE_TEXT + "\n", encoding="utf-8")
    genomes = tmp_path / "genomes.tsv"
    genomes.write_text("\n".join(GENOME_ROWS) + "\n", encoding="utf-8")
    return str(tree), str(genomes)


class TestImports:
    def test_cli_imports_no_third_party_solver_packages(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        code = (
            "import sys, scjlabel.cli\n"
            "print(sorted(m for m in ('networkx', 'numpy', 'scipy') if m in sys.modules))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "[]"


def global_state_calls(source: str) -> list[str]:
    """Calls in ``source`` that change interpreter-wide state: any
    ``sys.set*`` and any function of the shared ``random`` generator
    (a ``random.Random(seed)`` instance is local, so it is allowed)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [(node.module, alias.name) for alias in node.names]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
        ):
            names = [(node.func.value.id, node.func.attr)]
        else:
            continue
        for module, name in names:
            if (module == "sys" and name.startswith("set")) or (
                module == "random" and name != "Random"
            ):
                found.append(f"line {node.lineno}: {module}.{name}")
    return found


class TestInterpreterState:
    """No module of the package mutates interpreter-global state."""

    def test_no_module_calls_sys_setters_or_the_shared_random(self):
        package = Path(SRC) / "scjlabel"
        found = {
            path.name: calls
            for path in sorted(package.glob("*.py"))
            if (calls := global_state_calls(path.read_text(encoding="utf-8")))
        }
        assert len(list(package.glob("*.py"))) > 10
        assert found == {}

    def test_the_check_sees_each_kind_of_call(self):
        source = (
            "import random, sys\n"
            "from random import shuffle\n"
            "sys.setrecursionlimit(10**5)\n"
            "def f(xs):\n"
            "    random.seed(1)\n"
            "    rng = random.Random(2)\n"
            "    rng.shuffle(xs)\n"
            "    return sys.getrecursionlimit()\n"
        )
        assert global_state_calls(source) == [
            "line 2: random.shuffle",
            "line 3: sys.setrecursionlimit",
            "line 5: random.seed",
        ]


class TestParsing:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("scjlabel ")

    def test_missing_subcommand_is_an_input_error(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_is_an_input_error(self, capsys):
        assert main(["solve", "--bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_option(self, capsys):
        assert main(["solve", "--tree", "t.nwk"]) == 1

    def test_threads_is_not_an_option(self, instance, tmp_path, capsys):
        # Components are solved in one ordered pass; there is no pool to size.
        tree, genomes = instance
        for command in ("solve", "sample"):
            code = main([
                command, "--tree", tree, "--genomes", genomes,
                "--threads", "2", "--out", str(tmp_path / command),
            ])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "--threads" in err
            assert len(err.splitlines()) == 1
            assert not (tmp_path / command).exists()


class TestSolve:
    def test_happy_path(self, instance, tmp_path, capsys):
        tree, genomes = instance
        out = tmp_path / "run"
        code = main([
            "solve", "--tree", tree, "--genomes", genomes, "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "objective" in printed
        assert "2 components" in printed
        assert (out / "cars.tsv").is_file()
        assert (out / "stats.tsv").is_file()
        assert json.loads((out / "manifest.json").read_text())["tool"] == "scjlabel"

    def test_no_weight_source_weighs_every_candidate_zero(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main([
            "simulate", "--markers", "20", "--leaves", "4",
            "--seed", "3", "--out", str(sim),
        ]) == 0
        out = tmp_path / "run"
        code = main([
            "solve", "--tree", str(sim / "tree.nwk"),
            "--genomes", str(sim / "genomes.tsv"), "--alpha", "1", "--out", str(out),
        ])
        assert code == 0
        stats = read_stats(out)
        assert stats["objective_exact"] == "0/1"
        assert stats["discarded_weight"] == "0.000000"
        assert int(stats["scj_total"]) > 0

    def test_nan_temperature_is_an_input_error(self, instance, tmp_path, capsys):
        tree, genomes = instance
        out = tmp_path / "run"
        code = main([
            "solve", "--tree", tree, "--genomes", genomes,
            "--kt", "nan", "--out", str(out),
        ])
        assert code == 1
        assert "kT" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_missing_tree_file(self, instance, tmp_path, capsys):
        _, genomes = instance
        code = main([
            "solve", "--tree", str(tmp_path / "nope.nwk"),
            "--genomes", genomes, "--out", str(tmp_path / "run"),
        ])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_capacity_exit_code(self, instance, tmp_path, capsys):
        tree, genomes = instance
        code = main([
            "sample", "--tree", tree, "--genomes", genomes,
            "--samples", "2", "--cap", "1", "--out", str(tmp_path / "run"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "capacity exceeded" in err
        assert "--cap" in err


class TestRouteControl:
    """``--cap`` is the one control over which solver a component gets."""

    def test_cap_1_sends_every_component_to_branch_and_bound(
        self, instance, tmp_path, capsys
    ):
        tree, genomes = instance
        runs = {}
        for name, extra in (("default", []), ("squeezed", ["--cap", "1"])):
            out = tmp_path / name
            assert main([
                "solve", "--tree", tree, "--genomes", genomes, "--boltzmann",
                *extra, "--out", str(out),
            ]) == 0
            runs[name] = read_stats(out)
        assert set(runs["default"]["component_solvers"].split(",")) == {"dp"}
        assert set(runs["squeezed"]["component_solvers"].split(",")) == {"ilp"}
        assert runs["squeezed"]["objective_exact"] == runs["default"]["objective_exact"]

    def test_there_is_no_solver_option(self, instance, tmp_path, capsys):
        tree, genomes = instance
        code = main([
            "solve", "--tree", tree, "--genomes", genomes,
            "--solver", "dp", "--out", str(tmp_path / "run"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_the_manifest_names_no_solver(self, instance, tmp_path, capsys):
        tree, genomes = instance
        out = tmp_path / "run"
        assert main(["solve", "--tree", tree, "--genomes", genomes, "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert "solver" not in config
        assert config["explosion_cap"] == 10**7


class TestFileErrors:
    """A file that cannot be read or written is bad input: exit 1 with one
    ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("case", [
        "missing weights",
        "weights directory",
        "non-UTF-8 tree",
        "non-UTF-8 genomes",
        "non-UTF-8 weights",
        "solve into a file",
        "weigh into a missing directory",
    ])
    def test_exits_1_without_a_traceback(self, case, instance, tmp_path):
        tree, genomes = instance
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("s1\tL\t1 2 3\n# Gen\xe8ve\n".encode("latin-1"))
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        out = ["--out", str(tmp_path / "run")]
        solve = ["solve", "--tree", tree, "--genomes", genomes]
        args = {
            "missing weights": solve + ["--weights", str(tmp_path / "missing.tsv"), *out],
            "weights directory": solve + ["--weights", str(tmp_path), *out],
            "non-UTF-8 tree": ["solve", "--tree", str(latin1), "--genomes", genomes, *out],
            "non-UTF-8 genomes": ["solve", "--tree", tree, "--genomes", str(latin1), *out],
            "non-UTF-8 weights": solve + ["--weights", str(latin1), *out],
            "solve into a file": solve + ["--out", str(taken)],
            "weigh into a missing directory": [
                "weigh", "--tree", tree, "--genomes", genomes,
                "--out", str(tmp_path / "missing" / "w.tsv"),
            ],
        }[case]
        result = run_cli(args)
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr

    def test_solve_into_a_file_fails_before_parsing(self, instance, tmp_path, capsys,
                                                    monkeypatch):
        tree, genomes = instance
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        calls = []
        monkeypatch.setattr(scjlabel.pipeline, "parse_genomes", lambda *a: calls.append(a))
        assert main(["solve", "--tree", tree, "--genomes", genomes, "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert "not a directory" in err
        assert calls == []


class TestSample:
    def test_writes_samples_and_frequencies(self, instance, tmp_path, capsys):
        tree, genomes = instance
        out = tmp_path / "run"
        code = main([
            "sample", "--tree", tree, "--genomes", genomes,
            "--samples", "6", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        assert "wrote 6 samples" in capsys.readouterr().out
        assert (out / "frequency.tsv").is_file()
        names = sorted(p.name for p in (out / "samples").iterdir())
        assert names == [f"sample_{i:04d}.tsv" for i in range(6)]

    def test_zero_samples_is_rejected(self, instance, tmp_path, capsys):
        tree, genomes = instance
        code = main([
            "sample", "--tree", tree, "--genomes", genomes,
            "--samples", "0", "--out", str(tmp_path / "run"),
        ])
        assert code == 1
        assert "at least 1" in capsys.readouterr().err


class TestWeigh:
    def test_writes_a_loadable_table(self, instance, tmp_path, capsys):
        tree, genomes = instance
        out = tmp_path / "weights.tsv"
        code = main([
            "weigh", "--tree", tree, "--genomes", genomes,
            "--kt", "0.5", "--out", str(out),
        ])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        parsed_tree = parse_tree(tree).with_genomes(parse_genomes(genomes))
        table = load_weight_table(out, parsed_tree)
        assert len(table) > 0

    def test_bad_temperature(self, instance, tmp_path):
        tree, genomes = instance
        code = main([
            "weigh", "--tree", tree, "--genomes", genomes,
            "--kt", "0", "--out", str(tmp_path / "w.tsv"),
        ])
        assert code == 1


class TestSimulate:
    def test_writes_a_solvable_instance(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main([
            "simulate", "--markers", "12", "--leaves", "3",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        assert "simulated 3 leaves, 12 markers" in capsys.readouterr().out
        tree = parse_tree(out / "tree.nwk")
        genomes = parse_genomes(out / "genomes.tsv")
        assert {tree.name_of(v) for v in tree.leaves()} == set(genomes)
        tree = tree.with_genomes(genomes)
        truth = parse_labeling(out / "truth.tsv", tree)
        assert set(truth) == set(tree.internal_ids())

    def test_bad_config(self, tmp_path, capsys):
        code = main([
            "simulate", "--markers", "1", "--out", str(tmp_path / "sim"),
        ])
        assert code == 1
        assert "at least 2 markers" in capsys.readouterr().err


class TestEvaluate:
    def test_truth_against_itself_is_perfect(self, tmp_path, capsys):
        out = tmp_path / "sim"
        main([
            "simulate", "--markers", "12", "--leaves", "3",
            "--seed", "2", "--out", str(out),
        ])
        capsys.readouterr()
        code = main([
            "evaluate", "--tree", str(out / "tree.nwk"),
            "--genomes", str(out / "genomes.tsv"),
            "--truth", str(out / "truth.tsv"),
            "--predicted", str(out / "truth.tsv"),
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("\t")[:3] == ["tp", "fp", "fn"]
        row = lines[1].split("\t")
        assert row[1] == "0" and row[2] == "0"
        assert row[3] == "1.000000" and row[4] == "1.000000"

    def test_missing_labeling_file(self, tmp_path, capsys):
        out = tmp_path / "sim"
        main([
            "simulate", "--markers", "12", "--leaves", "3",
            "--seed", "2", "--out", str(out),
        ])
        capsys.readouterr()
        code = main([
            "evaluate", "--tree", str(out / "tree.nwk"),
            "--genomes", str(out / "genomes.tsv"),
            "--truth", str(out / "truth.tsv"),
            "--predicted", str(out / "missing.tsv"),
        ])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err
