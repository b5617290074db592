"""heatmetric benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload flow-matrix --seed 1 --seconds 15 --trace 0

Run from the repository root. The workload's operations go through
heatmetric.cli.run (or a library report call) in this process, in whole
rounds, until --seconds have passed. Every output is checked against
perfbench/reference.py. With --trace 0 the last line of standard output
carries the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of perfbench/spans.py. Metric names and units come from
BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path
from typing import NamedTuple

SETUP_REPEATS = 7
# The load is this one process, with one BLAS thread (at or below nproc
# everywhere): with two, eigh stalled for seconds whenever another process
# held the second core of a 2-core host.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CHILD = (
    "import sys; sys.path[:0] = ['src', 'perfbench']\n"
    "import heatmetric, heatmetric.cli, inputs\n"
    "inputs.generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])\n"
)


def limit_blas_threads():
    """Must run before numpy is imported; the setup children inherit it."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def time_setup(workload, seed, work):
    """Median wall time of a fresh interpreter that imports heatmetric with
    its numpy/scipy stack and generates the workload's inputs."""
    times = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CHILD, workload, str(seed),
                        str(work / f"setup{k}")], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def execute(op, out: Path):
    """Run one operation; returns (wall seconds, value, error line or None)."""
    out.mkdir(parents=True, exist_ok=True)
    sink_out, sink_err = io.StringIO(), io.StringIO()
    value, error = None, None
    with redirect_stdout(sink_out), redirect_stderr(sink_err):
        t0 = time.perf_counter()
        try:
            value = op.call(out)
        except Exception as exc:  # a failure never stops the workload
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    if error is None and op.argv is not None and value != 0:
        lines = [ln for ln in sink_err.getvalue().splitlines() if ln.strip()]
        lines += [ln for ln in sink_out.getvalue().splitlines() if ln.startswith("FAIL")]
        error = f"exit {value}: " + (lines[0] if lines else "no message")
    return wall, value, error


class Round(NamedTuple):
    walls: list        # seconds per operation
    results: int       # checked results of the operations that did not fail
    failed: int
    checks_ok: bool    # every failure was a known fault failing its own way
    traced: bool


def run_round(name, ops, work, rnd, traced):
    walls, results, failed = [], 0, 0
    checks_ok = True
    for k, op in enumerate(ops):
        out = work / f"op{k}"
        op_wall, value, error = execute(op, out)
        walls.append(op_wall)
        if error is None:
            try:
                problems = op.check(out, value)
            except Exception as exc:  # missing or malformed output
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                error = f"check failed: {problems[0]}"
        if error is None:
            results += op.results
        else:
            failed += 1
            # a failure is correct behaviour only for a known fault, and only
            # with that fault's own error
            checks_ok = checks_ok and op.known_fault is not None and op.known_fault in error
            args = " ".join(op.argv) if op.argv else op.label
            print(f"FAILED workload={name} round={rnd} op={op.label!r} args={args!r} "
                  f"error={error.splitlines()[0]!r}")
    return Round(walls, results, failed, checks_ok, traced)


def round_wall(rounds):
    """Wall time of one round: per operation the median over the rounds, so
    a slow spell of the host during one operation weighs little."""
    return sum(statistics.median(op) for op in zip(*(r.walls for r in rounds)))


def machine_record(seed):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="heatmetric benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "heatmetric" / "__init__.py").is_file():
        print("error: run from the repository root; src/heatmetric not found", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    limit_blas_threads()
    sys.path.insert(0, str(root / "src"))
    import heatmetric  # noqa: F401  (compiles bytecode before the setup timing)
    import heatmetric.cli  # noqa: F401

    import spans
    import workloads

    print("machine " + json.dumps(machine_record(args.seed)), flush=True)
    work = root / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s = time_setup(args.workload, args.seed, work)
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        ops = workload.ops()
        tracer = spans.Tracer() if args.trace else None
        rounds = []
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.round = len(rounds)
                tracer.install()
            try:
                rounds.append(run_round(args.workload, ops, work, len(rounds), traced))
            finally:
                if traced:
                    tracer.uninstall()
            enough = time.perf_counter() - start >= args.seconds
            if enough and (tracer is None or len(rounds) >= 2):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            trace_dir = root / "perfbench" / "_traces"
            trace_dir.mkdir(exist_ok=True)
            tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):  # leave _work/ only while another run uses it
            work.parent.rmdir()

    # attempted and failed count one round, so they do not depend on how
    # many rounds fit in --seconds; every round must fail the same operations
    attempted = len(ops)
    failed = rounds[0].failed
    steady = all(r.failed == failed and r.results == rounds[0].results for r in rounds)
    if not steady:
        print(f"rounds differ in failed operations: {[r.failed for r in rounds]}", flush=True)
    correct = steady and all(r.checks_ok for r in rounds)
    results = rounds[0].results
    print(f"workload={args.workload} rounds={len(rounds)} attempted={attempted} "
          f"failed={failed} total_attempted={attempted * len(rounds)} "
          f"total_failed={sum(r.failed for r in rounds)} results_per_round={results} "
          f"round_walls_s={[round(sum(r.walls), 4) for r in rounds]}", flush=True)

    if tracer is None:
        wall = round_wall(rounds)
        values = {"setup_s": setup_s, "wall_s": wall,
                  "results_per_s": results / wall, "peak_rss_mb": peak_rss_mb}
        specs = spec["end_to_end"]
    else:
        traced = [i for i, r in enumerate(rounds) if r.traced]
        per_round = [tracer.round_stats(i) for i in traced]
        names = {k for stats in per_round for k in stats}
        values = {k: statistics.median(s.get(k, 0) for s in per_round) for k in names}
        wall_traced = round_wall([r for r in rounds if r.traced])
        wall_untraced = round_wall([r for r in rounds if not r.traced])
        values.update({"bench.wall_s_traced": wall_traced, "bench.wall_s_untraced": wall_untraced,
                       "bench.trace_overhead_s": wall_traced - wall_untraced})
        # every operation makes exactly one root span
        for op, (_, wall, layers) in zip(ops, tracer.op_breakdown(traced[0])):
            top = ", ".join(f"{n} {s:.3f}s" for n, s in layers)
            print(f"trace {op.label!r} {wall:.3f}s, largest self times: {top}", file=sys.stderr)
        specs = spec["per_layer"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in specs}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
