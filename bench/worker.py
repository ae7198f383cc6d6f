"""Measuring process of the benchmark: set-up, timed passes, checks, metrics.

Started by run.py. It prints READY once its imports and warm-up are done;
with --setup-only it exits there. Otherwise it runs whole rounds of the
workload until the time budget is spent, checks every operation's output
after its round, and prints one JSON line with the metrics.

With --trace 1 it runs half the budget untraced and half traced, and reports
the per-layer metrics of the traced half: seconds and counts per round, taken
from spans around the public calls, and the tracing overhead against the
untraced half.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import dpcp  # noqa: E402
from dpcp import analysis, dataset, rsgm, solver  # noqa: E402
from tracing import NullTracer, Tracer, layer_totals  # noqa: E402
from workloads import OUT, WORKLOADS  # noqa: E402

KERNEL_REPEATS = 31


def warm_up() -> None:
    """One tiny call of each public function the workloads use, so lazy
    set-up such as the first LAPACK call is not timed."""
    if not os.path.abspath(dpcp.__file__).startswith(SRC + os.sep):
        raise ImportError(f"dpcp imported from {dpcp.__file__}, not from {SRC}")
    model = dataset.sample_haar_subspace(200, 195, 0)
    matrix = dataset.generate_dataset(model, 50, 50, 1)
    basis = solver.psgm_multi(matrix, solver.SolverConfig(c_prime=2, max_iters=5))
    analysis.recovery_report(basis, model=model, matrix=matrix)
    rsgm.rsgm_run(matrix, 2, solver.MBLS(), max_iters=5)


class Pass:
    """Timings and outcomes of consecutive rounds."""

    def __init__(self):
        self.rounds: list[float] = []
        self.op_times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []


def run_pass(workload, tracer, budget: float) -> Pass:
    """Whole rounds until the next one would end past `budget` seconds; at
    least one. Checks run after each round, outside its timing."""
    out = Pass()
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        outcomes = []
        for label, fn in workload.ops():
            tracer.op = f"{len(out.rounds)}:{label}"
            tracer.results = []
            t0 = time.perf_counter()
            try:
                result = fn(tracer)
            except Exception as e:  # noqa: BLE001 - a raising operation counts as failed
                result = e
            out.op_times.setdefault(label, []).append(time.perf_counter() - t0)
            outcomes.append((label, result, tracer.results))
        out.rounds.append(time.perf_counter() - r0)
        tracer.results = []
        for label, result, results in outcomes:
            out.attempted += 1
            if isinstance(result, Exception):
                out.failed += 1
                out.errors.append(f"{label}: {result!r}")
                continue
            try:
                bad = workload.check(label, result, results)
            except Exception as e:  # noqa: BLE001 - an output the check cannot read is wrong
                bad = [f"{label}: check raised {e!r}"]
            if bad:
                out.failed += 1
                out.wrong += bad
        now = time.perf_counter()
        if now - start + (now - r0) > budget:
            return out


def kernel_ms(shape) -> tuple[float, float]:
    """Median milliseconds of one solver.objective and one solver.subgradient
    call on a dataset of the given (D, N, M) shape."""
    D, N, M = shape
    matrix = dataset.generate_dataset(dataset.sample_haar_subspace(D, D - 5, 0), N, M, 1)
    b = np.random.default_rng(2).standard_normal(D)
    b /= np.linalg.norm(b)

    def median_ms(fn):
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            fn(matrix, b)
            times.append(time.perf_counter() - t0)
        return 1e3 * statistics.median(times)

    return median_ms(solver.objective), median_ms(solver.subgradient)


def end_to_end(p: Pass) -> dict:
    """wall_s is the median round; cell_s_p50 the median over the round's
    operations of each one's median time across rounds."""
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "wall_s": (statistics.median(p.rounds), "s"),
        "cell_s_p50": (statistics.median(statistics.median(t) for t in p.op_times.values()), "s"),
        "peak_rss_mb": (usage / 1024.0, "MB"),
    }


def per_layer(traced: Pass, untraced: Pass, spans, kernels, csv_path) -> dict:
    """Seconds and counts per traced round; iterations_max is the largest over
    the traced pass and the kernel times are single calls."""
    selfs, durations, counts = layer_totals(spans)
    n = len(traced.rounds)
    ps = counts.get("solver.psgm_multi", {})
    iters, backs = ps.get("iterations", 0), ps.get("backtracks", 0)
    psgm_s = selfs.get("solver.psgm_multi", 0.0)
    traced_wall = statistics.median(traced.rounds)
    return {
        "dataset.generate_s": (selfs.get("dataset.generate", 0.0) / n, "s"),
        "dataset.save_csv_s": (selfs.get("dataset.save_csv", 0.0) / n, "s"),
        "dataset.load_csv_s": (selfs.get("dataset.load_csv", 0.0) / n, "s"),
        "dataset.csv_mb": (os.path.getsize(csv_path) / 1e6 if csv_path else 0.0, "MB"),
        "solver.psgm_multi_s": (psgm_s / n, "s"),
        "solver.iterations": (iters / n, "count"),
        "solver.iterations_max": (ps.get("iterations_max", 0), "count"),
        "solver.capped_instances": (ps.get("capped", 0) / n, "count"),
        "solver.backtracks": (backs / n, "count"),
        "solver.accept_ratio": (iters / (iters + backs) if iters else 0.0, "ratio"),
        "solver.products": (ps.get("products", 0) / n, "count"),
        "solver.gb_moved": (ps.get("bytes", 0) / 1e9 / n, "GB"),
        "solver.gflops": (ps.get("flops", 0) / 1e9 / psgm_s if psgm_s else 0.0, "GFLOP/s"),
        "solver.objective_ms": (kernels[0], "ms"),
        "solver.subgradient_ms": (kernels[1], "ms"),
        "rsgm.rsgm_run_s": (selfs.get("rsgm.rsgm_run", 0.0) / n, "s"),
        "rsgm.iterations": (counts.get("rsgm.rsgm_run", {}).get("iterations", 0) / n, "count"),
        "analysis.recovery_report_s": (selfs.get("analysis.recovery_report", 0.0) / n, "s"),
        "harness.cell_s": (durations.get("harness.cell", 0.0) / n, "s"),
        "harness.self_s": (selfs.get("harness.cell", 0.0) / n, "s"),
        "harness.persist_s": (selfs.get("harness.persist", 0.0) / n, "s"),
        "cli.gen_s": (durations.get("cli.gen", 0.0) / n, "s"),
        "cli.solve_s": (durations.get("cli.solve", 0.0) / n, "s"),
        "cli.startup_s": (selfs.get("cli.startup", 0.0) / n, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - statistics.median(untraced.rounds), "s"),
        "trace.coverage": (sum(selfs.values()) / sum(traced.rounds), "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    workload = WORKLOADS[args.workload](args.seed, args.size)
    if not args.trace:
        p = run_pass(workload, NullTracer(), args.seconds)
        passes, metrics = [p], end_to_end(p)
    else:
        untraced = run_pass(workload, NullTracer(), args.seconds / 2)
        tracer = Tracer(keep_results=True)
        tracer.install()
        try:
            traced = run_pass(workload, tracer, args.seconds / 2)
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(OUT, args.workload, "spans.json"))
        passes = [untraced, traced]
        metrics = per_layer(traced, untraced, tracer.spans, kernel_ms(workload.kernel_shape),
                            getattr(workload, "data", None))
    for p in passes:
        for msg in p.errors + p.wrong:
            print(f"failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not any(p.wrong for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
