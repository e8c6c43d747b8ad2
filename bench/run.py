"""Benchmark of the star-frobenius decision pipeline.

Runs one seeded workload for a fixed time and prints, as its last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 the run is traced and
reports the per-layer metrics instead.  Without --workload, every workload
runs in turn, each in its own process, and a summary is printed.

    python3 bench/run.py --workload sat-window --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seconds 20            # all five workloads

The program is imported from src/ next to this directory, as source.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# One thread per workload process: numpy must not start a BLAS pool.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 5
PREPARE_REPEATS = 3
TRACED_MEMORY_CASES = 48  # witness calls measured under tracemalloc


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import star_frobenius"],
            env=env,
            cwd=ROOT,
            check=True,
            timeout=60,
        )
        times.append(perf_counter() - start)
    return statistics.median(times)


def prepare_all(workload, cases):
    """Set-up: the cases' texts as program inputs, converted several times;
    returns the inputs and the median conversion time."""
    times = []
    for _ in range(PREPARE_REPEATS):
        start = perf_counter()
        inputs = [workload.prepare(case.text) for case in cases]
        times.append(perf_counter() - start)
    return inputs, statistics.median(times)


class Outcomes:
    """Results of the operations: the first round's outputs, and every
    later output that differs from the first round's."""

    def __init__(self, size: int):
        self.first: list[object] = [None] * size
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.attempted = 0

    def record(self, round_no: int, j: int, output, error: Exception | None):
        self.attempted += 1
        if error is not None:
            self.failures.append(f"case {j}: {type(error).__name__}: {error}")
        elif round_no == 0:
            self.first[j] = output
        elif output != self.first[j]:
            self.errors.append(f"case {j}: round {round_no} result differs")


def attempt(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # counted as a failed operation
        return None, exc


def timed_rounds(seconds: float, size: int, step) -> None:
    """Calls step(round_no, j) for j in 0..size-1, round after round, until
    the round that ends past the deadline."""
    deadline = perf_counter() + seconds
    round_no = 0
    while True:
        for j in range(size):
            step(round_no, j)
        round_no += 1
        if perf_counter() >= deadline:
            return


def run_untraced(workload, inputs, seconds):
    outcomes = Outcomes(len(inputs))
    times: list[float] = []

    def step(round_no, j):
        start = perf_counter()
        output, error = attempt(workload.operate, inputs[j])
        times.append(perf_counter() - start)
        outcomes.record(round_no, j, output, error)

    gc.collect()
    start = perf_counter()
    timed_rounds(seconds, len(inputs), step)
    wall = perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_ms_p50": statistics.median(times) * 1e3,
        "throughput_ops_s": len(times) / wall,
        "peak_rss_mb": peak_kb / 1024,
    }
    return outcomes, metrics


def run_traced(workload, cases, seconds, seed):
    import tracing
    from star_frobenius import decide_cofinite

    traced_prepare, traced_operate = tracing.TRACED[workload.name]
    tracer = tracing.Tracer()
    inputs = []
    for j, case in enumerate(cases):
        tracer.op = f"setup-{j}"
        inputs.append(traced_prepare(tracer, case.text))

    outcomes = Outcomes(len(inputs))
    untraced: dict[int, float] = {}
    first_round: set[int] = set()

    def step(round_no, j):
        op = len(untraced)
        tracer.op = op
        if round_no == 0:
            first_round.add(op)
        start = perf_counter()
        output, error = attempt(workload.operate, inputs[j])
        untraced[op] = (perf_counter() - start) * 1e3
        outcomes.record(round_no, j, output, error)
        if error is not None:
            return
        traced, source = tracer.call("op", traced_operate, tracer, inputs[j])
        if traced != output:
            outcomes.errors.append(f"case {j}: traced result differs")
        if source is not None:
            whole = tracer.call(
                "frobenius.decide_cofinite", decide_cofinite, source
            )
            if whole != output:
                outcomes.errors.append(f"case {j}: decide_cofinite differs")

    gc.collect()
    timed_rounds(seconds, len(inputs), step)
    metrics = tracing.layer_metrics(tracer, first_round, untraced)

    probe = tracing.MemoryProbe()
    for x in inputs[:TRACED_MEMORY_CASES]:
        attempt(traced_operate, probe, x)
    for metric in tracing.WITNESS_SPANS.values():
        metrics[metric] = probe.peaks[metric]

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.tsv.gz")
    return outcomes, metrics


def run_workload(args, workload) -> dict:
    cases = workload.make_cases(random.Random(f"{args.workload}:{args.seed}"))
    if args.trace:
        outcomes, metrics = run_traced(workload, cases, args.seconds, args.seed)
    else:
        load_s = import_seconds()
        inputs, prepare_s = prepare_all(workload, cases)
        outcomes, metrics = run_untraced(workload, inputs, args.seconds)
        metrics["setup_s"] = load_s + prepare_s
    done = [(c, out) for c, out in zip(cases, outcomes.first) if out is not None]
    outcomes.errors += workload.check([c for c, _ in done], [out for _, out in done])
    for failure in outcomes.failures[:20]:
        print(f"{args.workload}: FAILED {failure}", file=sys.stderr)
    for error in outcomes.errors[:20]:
        print(f"{args.workload}: CHECK FAILED {error}", file=sys.stderr)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    for metric, unit in units.items():
        print(f"{args.workload:14} {metric:28} {metrics[metric]:14.4f} {unit}")
    failed = len(outcomes.failures)
    print(f"{args.workload:14} attempted {outcomes.attempted} failed {failed}")
    return {
        "correct": not outcomes.errors,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the end-to-end or per-layer metrics BENCHMARK.json
    declares; a run reports exactly these."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def run_all(args, names) -> dict:
    """Every workload, one after another, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        command = [
            sys.executable,
            __file__,
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=600
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "star_frobenius" / "__init__.py").is_file():
        print(f"error: no star_frobenius package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload is None:
        result = run_all(args, list(WORKLOADS))
    elif args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {list(WORKLOADS)}")
    else:
        result = run_workload(args, WORKLOADS[args.workload])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
