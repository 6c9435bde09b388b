"""Benchmark harness for scjlabel.

One operation is one ``scjlabel.pipeline.run_solve`` call: parse the
input files, weigh, solve, re-check and write an output directory, as
``scjlabel solve`` and ``scjlabel sample`` do without interpreter
start-up.  Every workload runs in its own process with ``--threads 1``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer ones.  ``all`` runs every workload untraced and traced, each
in a fresh process, and prints a table.  A single workload prints one
JSON object as its last line of standard output.  Outputs of every
operation are checked by ``perfbench/checker.py``, which shares no code
with the program.  See perfbench/README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run that has not finished by then is aborted without a result.
DEADLINE_S = 170
SETUP_REPEATS = 3
KT = 0.1


@dataclass(frozen=True)
class Workload:
    """``scjlabel simulate`` flags, then ``solve``/``sample`` flags."""

    markers: int
    leaves: int
    sim_seed: int
    alpha: str
    threshold: str
    diameter_factor: float = 2.0
    weights_file: bool = False  # weigh once in set-up, solve with --weights
    samples: int = 0
    sample_seed: int = 0
    milp: bool = False  # compare the optimum with HiGHS


WORKLOADS = {
    "weigh-solve-1000x12": Workload(1000, 12, sim_seed=1, alpha="1/2", threshold="0.6"),
    "bb-200x12": Workload(200, 12, sim_seed=1, alpha="1/2", threshold="1/3",
                          diameter_factor=0.5, weights_file=True, milp=True),
    "sample-100x6": Workload(100, 6, sim_seed=0, alpha="0", threshold="0.6",
                             samples=500, sample_seed=7),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Deadline(BaseException):
    """Raised by the alarm; not an operation failure, so not an Exception."""


def load_program():
    """Import scjlabel from the checkout's own ``src``, nowhere else."""
    src = ROOT / "src"
    if not (src / "scjlabel" / "pipeline.py").is_file():
        raise SystemExit(f"perfbench: no scjlabel sources under {src}")
    sys.path.insert(0, str(src))
    import scjlabel.cli
    import scjlabel.pipeline

    if Path(scjlabel.pipeline.__file__).resolve().parent != src / "scjlabel":
        raise SystemExit(f"perfbench: scjlabel imported from {scjlabel.pipeline.__file__}")
    return scjlabel


def cli(program, *args: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = program.cli.main([str(a) for a in args])
    if code != 0:
        raise RuntimeError(f"scjlabel {args[0]} exited with {code}")


def renumber(path: Path, mapping: dict[int, int]) -> None:
    """Rewrite the signed markers of a CAR/genome table through ``mapping``."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        name, kind, order = line.split("\t")
        order = " ".join(str(mapping[abs(m)] * (1 if m > 0 else -1))
                         for m in map(int, order.split()))
        lines.append(f"{name}\t{kind}\t{order}")
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def build_instance(program, w: Workload, seed: int, inst: Path) -> None:
    """Simulate the workload's instance and renumber its markers.

    The simulation seed is part of the workload; ``seed`` draws an
    increasing renumbering of the markers, so each seed gives other
    input bytes but the same problem, explored in the same order.
    """
    cli(program, "simulate", "--markers", w.markers, "--leaves", w.leaves,
        "--diameter-factor", w.diameter_factor, "--seed", w.sim_seed, "--out", inst)
    ids = sorted(random.Random(seed).sample(range(1, 10 * w.markers + 1), w.markers))
    mapping = dict(zip(range(1, w.markers + 1), ids))
    for name in ("genomes.tsv", "truth.tsv"):
        renumber(inst / name, mapping)
    if w.weights_file:
        weigh(program, inst)


def weigh(program, inst: Path) -> None:
    cli(program, "weigh", "--tree", inst / "tree.nwk", "--genomes", inst / "genomes.tsv",
        "--kt", KT, "--out", inst / "weights.tsv")


def solve_config(program, w: Workload, inst: Path, out: Path):
    return program.pipeline.RunConfig(
        alpha=w.alpha,
        threshold_x=w.threshold,
        kt=KT,
        n_samples=w.samples,
        seed=w.sample_seed,
        threads=1,
        tree_path=str(inst / "tree.nwk"),
        genomes_path=str(inst / "genomes.tsv"),
        weights_path=str(inst / "weights.tsv") if w.weights_file else None,
        boltzmann=not w.weights_file,
        out_dir=str(out),
    )


def digest(directory: Path) -> tuple[str, int, int]:
    """(hash of every file's path and bytes, file count, byte count)."""
    h = hashlib.sha256()
    files = size = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(directory)).encode() + b"\0" + data)
        files += 1
        size += len(data)
    return h.hexdigest(), files, size


def reference_s() -> float:
    """Wall time of the reference kernel, run in a fresh child process."""
    proc = subprocess.run([sys.executable, str(HERE / "reference.py")],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
                 trace_path: Path | None = None) -> dict:
    """Set up, measure whole rounds for ``seconds``, check, and report.

    Every timing is scaled by ``REFERENCE_S`` over the mean time of the
    reference kernel, run once before set-up and once after each
    operation: on a shared two-vCPU virtual machine the processor's speed
    drifts by a factor of two over minutes, and the kernel drifts with it.
    """
    program = load_program()
    import_s = time.perf_counter() - STARTED
    import checker
    from reference import REFERENCE_S
    from spans import COUNT_METRICS, TIME_METRICS, Tracer

    inst = work / "instance"
    references = [reference_s()]
    setup_times, setup_digests = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inst, ignore_errors=True)
        started = time.perf_counter()
        build_instance(program, w, seed, inst)
        setup_times.append(time.perf_counter() - started)
        setup_digests.add(digest(inst)[0])
    problems = [] if len(setup_digests) == 1 else ["set-up is not deterministic"]

    tracer = Tracer(program.pipeline) if trace else None
    modes = (False, True) if trace else (False,)
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: list[float] = []
    layer_times: list[dict[str, float]] = []
    layer_counts: list[dict[str, int]] = []
    attempted = failed = 0
    first: tuple[str, int, int] | None = None
    first_out: Path | None = None
    begun = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        for traced in modes:
            out = work / f"op{attempted}"
            gc.collect()
            if traced:
                tracer.install()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                program.pipeline.run_solve(solve_config(program, w, inst, out))
                ok = True
            except Exception:
                traceback.print_exc()
                ok = False
            finally:
                wall = time.perf_counter() - wall0
                cpu = time.process_time() - cpu0
                if traced:
                    tracer.remove()
            references.append(reference_s())
            attempted += 1
            if not ok:
                failed += 1
                shutil.rmtree(out, ignore_errors=True)
                continue
            walls[traced].append(wall)
            if not traced:
                cpus.append(cpu)
            written = digest(out)
            if traced:
                times, counts = tracer.take()
                counts["pipeline.files_written"] = written[1]
                counts["pipeline.bytes_written"] = written[2]
                layer_times.append(times)
                layer_counts.append(counts)
            if first is None:
                first, first_out = written, out
                continue
            if written != first:
                problems.append(f"{out.name} differs from {first_out.name}")
            shutil.rmtree(out)
        elapsed = time.perf_counter() - begun
        if elapsed + (time.perf_counter() - round_started) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report: dict[str, object] = {}
    if first_out is not None:
        if not w.weights_file:
            weigh(program, inst)
        instance = checker.Instance(inst, inst / "weights.tsv", Fraction(w.alpha),
                                    Fraction(w.threshold))
        try:
            report = checker.check_output(instance, first_out, truth=inst / "truth.tsv",
                                          milp=w.milp, kt=KT)
        except checker.CheckFailed as exc:
            problems.append(str(exc))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"checks: {', '.join(f'{k}={v}' for k, v in report.items())}", file=sys.stderr)
    print("operation wall times as measured: "
          + " ".join(f"{t:.3f}" for t in walls[False] + walls[True])
          + "\nreference kernel times: " + " ".join(f"{t:.3f}" for t in references),
          file=sys.stderr)

    scale = REFERENCE_S / statistics.fmean(references)
    if not walls[False] or (trace and not walls[True]):
        problems.append("no operation succeeded")
        metrics, units = {}, {}
    elif not trace:
        metrics = {
            "wall_s": statistics.median(walls[False]) * scale,
            "cpu_s": statistics.median(cpus) * scale,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": (import_s + statistics.median(setup_times)) * scale,
        }
        units = END_TO_END
    else:
        metrics, units = {}, {}
        for name in TIME_METRICS:
            metrics[name] = statistics.fmean(t[name] for t in layer_times) * scale
            units[name] = "s"
        for name in COUNT_METRICS:
            values = {c[name] for c in layer_counts}
            if len(values) != 1:
                print(f"note: {name} varies between operations: {sorted(values)}",
                      file=sys.stderr)
            metrics[name] = values.pop() if len(values) == 1 else statistics.fmean(
                c[name] for c in layer_counts)
            units[name] = "bytes" if name.endswith("bytes_written") else "count"
        metrics["trace.wall_s"] = statistics.fmean(walls[True]) * scale
        metrics["trace.untraced_wall_s"] = statistics.fmean(walls[False]) * scale
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                      "trace.overhead_s": "s"})
        if trace_path is not None:
            tracer.dump(trace_path)
    return {
        "correct": not problems and first_out is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=DEADLINE_S + 10,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            results[trace] = json.loads(lines[-1])
        for trace, result in results.items():
            print(f"{name}  trace={trace}  correct={result['correct']}  "
                  f"attempted={result['attempted']}  failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"    {metric:28s} {entry['value']:>16} {entry['unit']}")
            status |= not result["correct"] or result["failed"] > 0
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="scjlabel benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    # The operations and the reference kernel share one processor.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def expire(signum, frame):
        raise Deadline(f"no result within {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    out_root = HERE / "out"
    work = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    trace_path = out_root / f"trace-{args.workload}-seed{args.seed}.json"
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), work, trace_path if args.trace else None)
    except Deadline as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
