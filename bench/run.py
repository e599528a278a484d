#!/usr/bin/env python3
"""Benchmark of discordium: closed forms, figure datasets and the measurement oracle.

    python3 bench/run.py --workload closed_form --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root (it imports discordium from ./src). One process
runs one workload, single-threaded: set-up (import and seeded inputs), a warm-up
call of every op class, then a fixed number of whole rounds of the workload's
ops, sized so the rounds take about --seconds. Every output is checked against
bench/reference.py or a property of the method. The last line of stdout is one
JSON object: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. `--workload all` runs the three workloads one after another, one
process each.
"""

import os

# Before numpy loads: numpy's OpenBLAS can be threaded, and a steady single-core
# measurement needs one thread. The dense cap is left at the package default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DISCORDIUM_DENSE_CAP", None)

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("closed_form", "figures", "oracle")
SETUP_REPEATS = 5
# Seconds one round takes, set from timings on the reference machine (see
# README). A run does round(--seconds / this) whole rounds, so it does a fixed
# amount of work.
NOMINAL_ROUND_S = {"closed_form": 0.62, "figures": 3.3, "oracle": 21.0}
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_discordium():
    """Import discordium from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import discordium
    import discordium.cli  # noqa: F401  (the figures workload calls cli.main)

    if src.resolve() not in Path(discordium.__file__).resolve().parents:
        raise ImportError(f"discordium was imported from {discordium.__file__}, not from {src}")
    return discordium


def set_up(workload: str, seed: int, smoke: bool):
    """Import discordium, build the seeded inputs and their references."""
    start = time.perf_counter()
    dc = load_discordium()
    import workloads

    ops = workloads.build(workload, dc, seed, OUT_DIR, smoke)
    return dc, ops, time.perf_counter() - start


def set_up_elsewhere(workload: str, seed: int) -> float:
    """The same set-up in a fresh interpreter; returns its seconds."""
    out = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Run:
    """Timed rounds of one workload, with output checks."""

    def __init__(self, ops, tracer):
        self.ops = ops
        self.tracer = tracer
        self.first_output = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.latencies: list[list[float | None]] = []  # per round, per op
        self.round_wall: list[float] = []
        self.round_cpu: list[float] = []
        self.round_out_bytes: list[int] = []

    def _record(self, index, op, result, error) -> int:
        """Check one op's outcome; returns the output bytes it wrote."""
        if error is not None:
            if type(error).__name__ != op.expect_failure:
                self.problems.append(f"{op.name}: unexpected {type(error).__name__}: {error}")
            return 0
        output = op.collect(result)
        self.problems += op.check(output)
        if index not in self.first_output:
            self.first_output[index] = output
        elif output != self.first_output[index]:
            self.problems.append(f"{op.name}: output differs from the first run of the same inputs")
        # a cli op's output is (exit code, stderr, bytes written to --out)
        return len(output[2]) if isinstance(output, tuple) else 0

    def warm_up(self) -> None:
        """One untimed call of every op class."""
        seen = set()
        for index, op in enumerate(self.ops):
            if op.klass in seen:
                continue
            seen.add(op.klass)
            if op.warm is not None:
                op.warm()
                continue
            try:
                result, error = op.run(), None
            except Exception as exc:  # recorded and checked like a timed op
                result, error = None, exc
            self._record(index, op, result, error)

    def round(self) -> None:
        round_index = len(self.round_wall)
        outcomes, latencies, cpus = [], [], []
        for index, op in enumerate(self.ops):
            if self.tracer is not None:
                self.tracer.request = (round_index, index)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # an op that fails is counted, not fatal
                result, error = None, exc
            t1 = time.perf_counter()
            c1 = time.process_time()
            latencies.append(t1 - t0 if error is None else None)
            cpus.append(c1 - c0)
            outcomes.append((t1 - t0, result, error))
        if self.tracer is not None:
            self.tracer.request = None
        out_bytes = 0
        for index, (op, (_, result, error)) in enumerate(zip(self.ops, outcomes)):
            self.attempted += 1
            self.failed += error is not None
            out_bytes += self._record(index, op, result, error)
        self.latencies.append(latencies)
        self.round_wall.append(sum(t for t, _, _ in outcomes))
        self.round_cpu.append(sum(cpus))
        self.round_out_bytes.append(out_bytes)

    def per_op_latencies(self) -> list[float]:
        """Each op's median latency over the rounds, for the ops that did not fail."""
        per_op = []
        for index in range(len(self.ops)):
            times = [lat[index] for lat in self.latencies if lat[index] is not None]
            if times:
                per_op.append(statistics.median(times))
        return per_op

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        import numpy as np

        per_op = self.per_op_latencies()
        return {
            "setup_s": setup_s,
            "wall_s": statistics.median(self.round_wall),
            "cpu_s": statistics.median(self.round_cpu),
            "latency_p50_ms": 1e3 * float(np.percentile(per_op, 50)),
            "latency_tail_ms": 1e3 * float(np.percentile(per_op, tail_percentile(len(per_op)))),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def tail_percentile(n_ops: int) -> int:
    """Highest whole percentile that leaves at least ten ops beyond it (p50
    when there are fewer than 20 ops, as in the smoke run)."""
    return max(50, math.floor(100 * (1 - 10 / n_ops)))


def run_workload(args) -> int:
    dc, ops, setup_main = set_up(args.workload, args.seed, args.smoke)
    repeats = 1 if args.smoke else SETUP_REPEATS
    setups = [setup_main] + [set_up_elsewhere(args.workload, args.seed) for _ in range(repeats - 1)]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    bench = Run(ops, tracer)
    bench.warm_up()
    if tracer is not None:
        tracer.install(dc)

    rounds = 1 if args.smoke else max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    for _ in range(rounds):
        gc.collect()
        bench.round()

    if tracer is not None:
        per_round = [tracer.round_metrics(i) for i in range(len(bench.round_wall))]
        for layer, out_bytes, wall in zip(per_round, bench.round_out_bytes, bench.round_wall):
            layer["cli.out_bytes"] = out_bytes
            layer["traced.wall_s"] = wall
        values = tracing.median_rounds(per_round)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = bench.end_to_end(statistics.median(setups))
        units = END_TO_END_UNITS

    for problem in bench.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} rounds={len(bench.round_wall)} "
          f"ops_per_round={len(ops)} tail=p{tail_percentile(len(bench.per_op_latencies()))}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summary = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"{workload}: exit code {out.returncode}", file=sys.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        summary[workload] = result
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one op per class, one round")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        if args.setup_only:
            print(set_up(args.workload, args.seed, False)[2])
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except ImportError as exc:
        print(f"error: cannot import discordium from this checkout: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
