"""Layered benchmark of the dpcp package.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload from the checkout's own `src/` and prints, as the last line
of standard output, one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 they are its per-layer ones. Exits 2 without a
result when the program cannot be imported or the run fails.

Set-up time is measured from outside: the time from starting a fresh
interpreter until it reports that its imports and warm-up are done, median of
SETUP_SAMPLES starts. One of them goes on to measure the workload; the others
are spread before and after it, so the median does not rest on one moment of
the machine's load.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("codim_r06", "baselines", "cli_roundtrip")
MASTER = 20260819
SETUP_SAMPLES = 9
TIMEOUT_S = 170.0


def start_worker(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns it with its set-up seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker to end, killing it when it runs out of time."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ran out of time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def setup_probe(common: list[str], deadline: float) -> float:
    proc, setup = start_worker(common + ["--seconds", "0", "--setup-only"])
    finish(proc, deadline - time.perf_counter())
    return setup


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=MASTER)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shapes for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be at least 1 and --seed non-negative")
    if not os.path.isdir(os.path.join(ROOT, "src", "dpcp")):
        print(f"error: no dpcp package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    deadline = time.perf_counter() + TIMEOUT_S
    try:
        probes = 0 if args.trace else (SETUP_SAMPLES - 1) // 2
        setups = [setup_probe(common, deadline) for _ in range(probes)]
        proc, setup = start_worker(common + ["--seconds", str(args.seconds),
                                             "--trace", str(args.trace)])
        setups.append(setup)
        out = finish(proc, deadline - time.perf_counter())
        result = json.loads(out.strip().splitlines()[-1])
        setups += [setup_probe(common, deadline) for _ in range(probes)]
    except (RuntimeError, OSError, ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
