"""The benchmark's workloads: the operations of one round and their checks.

A round runs the same operations on the same inputs every time; the inputs
come from the seed alone. An operation is one ``harness.run_experiment``
call followed by ``harness.persist`` of its table, or one ``dpcp`` command
run as its own process. Each workload also names the data shape at which the
solver kernels are timed in the traced run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import checks
from dpcp import harness

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# The full sizes are the acceptance shapes (grid 04 and the phase cell of
# gates 03 and 06); the tiny ones serve the benchmark's own tests.
CODIM = {
    "full": dict(D=200, N=1500, c_prime=30, codims=(10, 12, 14, 16, 18, 20)),
    "tiny": dict(D=20, N=300, c_prime=8, codims=(3, 4)),
}
PHASE = {
    "full": dict(D=200, d=195, N=1500, M=1500, c_prime=10),
    "tiny": dict(D=20, d=15, N=150, M=150, c_prime=10),
}


def run_grid(tracer, config, path):
    """One harness operation: run a grid and persist its table, as `dpcp codim
    --out` does."""
    with tracer.span("harness.cell"):
        table = harness.run_experiment(config)
        with tracer.span("harness.persist"):
            harness.persist(table, path)
    return table


class CodimR06:
    """Codimension sweep at outlier ratio 0.6, one cell per operation.

    Ratio 0.7 is left out: there, on some seeds, a cell's estimated
    codimension is more than 2 from the truth and an instance stops early
    away from the complement, so its checks would fail on some seeds only.
    """

    ratio = 0.6

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.p = CODIM[size]
        self.kernel_shape = (self.p["D"], self.p["N"],
                             harness.ratio_to_counts(self.p["N"], self.ratio))
        os.makedirs(os.path.join(OUT, "codim_r06"), exist_ok=True)

    def ops(self):
        return [(f"c{c}", lambda tracer, c=c: self._cell(tracer, c)) for c in self.p["codims"]]

    def _cell(self, tracer, c):
        config = harness.ExperimentConfig(
            kind="codim_sweep", D=self.p["D"], N=self.p["N"], c_prime=self.p["c_prime"],
            codim_grid=(c,), r_grid=(self.ratio,), trials=1, seed=self.seed,
        )
        return run_grid(tracer, config, os.path.join(OUT, "codim_r06", f"c{c}.csv")).rows

    def check(self, label, rows, results) -> list[str]:
        if len(rows) != 1:
            return [f"{label}: {len(rows)} rows"]
        bad = checks.codim_row(rows[0], self.p["c_prime"])
        if bad or not results:
            return bad
        model = next(out for n, _, out in results if n == "dataset.generate"
                     and hasattr(out, "basis_Sperp"))
        (_, args, basis), = [r for r in results if r[0] == "solver.psgm_multi"]
        return checks.psgm_basis(basis.columns, basis.traces, args[1].max_iters,
                                 model, rows[0].report)


class Baselines:
    """The phase cell with psgm and rsgm_over, and the outlier-pursuit proxy.

    psgm on the proxy is left out: on some seeds it overestimates the
    codimension and its F1 falls below 0.98, at r=0.8 as well as at r=0.9.
    """

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.p = PHASE[size]
        self.kernel_shape = (self.p["D"], self.p["N"], self.p["M"])
        os.makedirs(os.path.join(OUT, "baselines"), exist_ok=True)

    def ops(self):
        return [("phase", self._phase), ("proxy", self._proxy)]

    def _phase(self, tracer):
        p = self.p
        config = harness.ExperimentConfig(
            kind="phase_transition", D=p["D"], d=p["d"], c_prime=p["c_prime"],
            N_grid=(p["N"],), M_grid=(p["M"],), methods=("psgm", "rsgm_over"),
            trials=1, seed=self.seed,
        )
        return run_grid(tracer, config, os.path.join(OUT, "baselines", "phase.csv")).rows

    def _proxy(self, tracer):
        config = harness.ExperimentConfig(
            kind="outlier_pursuit", D=10, c_prime=10, r_grid=(0.8, 0.9),
            methods=("rsgm", "rsgm_known"), trials=1, seed=self.seed,
        )
        return run_grid(tracer, config, os.path.join(OUT, "baselines", "proxy.csv")).rows

    def check(self, label, rows, results) -> list[str]:
        bad = []
        for row in rows:
            width = 5 if row.method == "rsgm_known" else 10
            bad += checks.row_basics(row, width)
        if bad:
            return bad
        codim = self.p["D"] - self.p["d"]
        for row in rows:
            if label == "phase" and row.method == "psgm" and row.report["estimated_codim"] != codim:
                bad.append(f"phase psgm: estimated codimension {row.report['estimated_codim']}")
            if label != "phase" and row.method == "rsgm_known":
                bad += checks.f1_at_least(row, f"{label} r={row.cell['r']} {row.method}")
        return bad + self._check_bases(label, results)

    def _check_bases(self, label, results) -> list[str]:
        bad, model, matrix = [], None, None
        for name, args, out in results:
            if name == "dataset.generate" and hasattr(out, "basis_Sperp"):
                model = out
            elif name == "dataset.generate" and hasattr(out, "labels"):
                matrix = out
            elif name == "rsgm.rsgm_run" and label == "phase":
                bad += checks.rsgm_over_basis(out.columns, model)
            elif label != "phase" and name == "rsgm.rsgm_run" and out.n_columns == 5:
                bad += checks.outlier_scores_separate(
                    out.columns, matrix.points, matrix.labels == "outlier", 5,
                    f"{label} {name}")
        return bad


class CliRoundtrip:
    """`dpcp gen` writes a labeled CSV and `dpcp solve` reads it back, each
    command in its own process."""

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.p = PHASE[size]
        self.kernel_shape = (self.p["D"], self.p["N"], self.p["M"])
        self.dir = os.path.join(OUT, "cli_roundtrip")
        os.makedirs(self.dir, exist_ok=True)
        self.data = os.path.join(self.dir, "data.csv")
        self.basis = os.path.join(self.dir, "basis.csv")
        self.report = os.path.join(self.dir, "report.json")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self._complement = None

    def ops(self):
        p = self.p
        gen = ["gen", "--D", str(p["D"]), "--d", str(p["d"]), "--N", str(p["N"]),
               "--M", str(p["M"]), "--seed", str(self.seed), "--out", self.data]
        solve = ["solve", "--in", self.data, "--cprime", str(p["c_prime"]),
                 "--seed", str(self.seed), "--out-basis", self.basis,
                 "--out-report", self.report]
        return [("gen", lambda tracer: self._command(tracer, gen)),
                ("solve", lambda tracer: self._command(tracer, solve))]

    def _command(self, tracer, argv):
        """Run one dpcp command as the installed console script does."""
        spans = os.path.join(self.dir, f"spans_{argv[0]}.json")
        t0 = time.perf_counter()
        with tracer.span(f"cli.{argv[0]}"):
            if tracer.traced:
                cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), spans, repr(t0)]
            else:
                cmd = [sys.executable, "-c", "from dpcp.cli import main; main()"]
            proc = subprocess.run(cmd + argv, env=self.env, capture_output=True, text=True,
                                  timeout=60)
            if tracer.traced and proc.returncode == 0:
                with open(spans) as fh:
                    tracer.adopt(json.load(fh))
        return proc

    def check(self, label, proc, results) -> list[str]:
        if proc.returncode != 0:
            return [f"dpcp {label} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        p = self.p
        if label == "gen":
            bad, self._complement = checks.generated_csv(self.data, p["D"], p["d"], p["N"], p["M"])
            return bad
        return checks.solve_outputs(self.report, self.basis, self._complement, p["D"] - p["d"])


WORKLOADS = {"codim_r06": CodimR06, "baselines": Baselines, "cli_roundtrip": CliRoundtrip}
