"""Experiment harness: seeded grids of recovery runs with persistable tables.

Four experiment kinds share one config and result schema:

  phase_transition : grid over (N, M) cells, several methods per cell
  codim_sweep      : grid over (codimension, outlier ratio) at fixed N
  outlier_pursuit  : corruption sweep on a low-dimensional proxy cube
  continuous_check : closed-form limit vs simulator agreement

Every cell derives its own seeds by hashing the cell parameters (not grid
position), so sub-grids reproduce the matching rows of larger grids. Each
(cell, trial)'s data is built once and solved by every method of the cell,
each with its own solver seed. A solved row's report is the
analysis.RecoveryReport of its basis, minus the basis itself. Rows are sorted
canonically before persistence; two runs of the same config write
byte-identical tables.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import analysis, rsgm, solver
from .continuous import (
    ContinuousProblem,
    continuous_psgm_run,
    continuous_span_check,
)
from .dataset import (
    DataMatrix,
    INLIER,
    SubspaceModel,
    corrupt_with_outliers,
    generate_dataset,
    sample_haar_subspace,
    unit_sphere_columns,
)
from .serialize import as_plain, fields_from_json, to_json

# the cell keys of each kind's rows, in the order the solver seed hashes them
CELL_KEYS = {
    "phase_transition": ("N", "M"),
    "codim_sweep": ("c", "r"),
    "outlier_pursuit": ("r",),
    "continuous_check": ("trial_cell",),
}
# the methods a kind may run, all of them by default; the other kinds run one each
_METHODS = {
    "phase_transition": ("psgm", "rsgm", "rsgm_over"),
    "outlier_pursuit": ("psgm", "rsgm", "rsgm_known"),
}
_ONE_METHOD = {"codim_sweep": "psgm", "continuous_check": "continuous"}
# the config fields only some kinds read; a config that sets one its kind does
# not read away from its default is rejected
_READS = {
    "phase_transition": {"d", "N_grid", "M_grid", "schedule_kind"},
    "codim_sweep": {"N", "codim_grid", "r_grid", "schedule_kind"},
    "outlier_pursuit": {"r_grid", "n_columns", "proxy_inlier_dim", "schedule_kind"},
    "continuous_check": {"d", "p"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment grid; validated eagerly so bad cells fail before any run."""

    kind: str
    D: int
    seed: int = 0
    trials: int = 1
    c_prime: int = 10
    d: int | None = None
    # phase_transition
    N_grid: tuple[int, ...] = ()
    M_grid: tuple[int, ...] = ()
    methods: tuple[str, ...] = ()
    # codim_sweep
    N: int | None = None
    codim_grid: tuple[int, ...] = ()
    r_grid: tuple[float, ...] = ()
    # outlier_pursuit proxy
    n_columns: int = 10000
    proxy_inlier_dim: int = 5
    # continuous_check
    p: float | None = None
    # solver knobs
    schedule_kind: str = "mbls"
    mu0: float | None = None
    beta: float = solver.ScheduleParams.beta
    K0: int = solver.ScheduleParams.K0
    K_star: int = solver.ScheduleParams.K_star
    max_iters: int = solver.SolverConfig.max_iters
    stop_tol: float = solver.SolverConfig.stop_tol

    def __post_init__(self):
        if self.kind not in CELL_KEYS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.D < 2 or self.trials < 1 or self.c_prime < 1:
            raise ValueError("invalid config: D >= 2, trials >= 1, c_prime >= 1")
        solver.check_limits(self.max_iters, self.stop_tol)
        _schedule(self)  # a bad step rule raises here, before any run
        if self.kind == "phase_transition":
            if not self.N_grid or not self.M_grid:
                raise ValueError("phase grid needs N_grid and M_grid")
            if any(n < 1 for n in self.N_grid) or any(m < 0 for m in self.M_grid):
                raise ValueError("invalid grid: every N >= 1 and M >= 0")
            if self.d is None or not 1 <= self.d < self.D:
                raise ValueError("phase grid needs 1 <= d < D")
        elif self.kind == "codim_sweep":
            if self.N is None or self.N < 1:
                raise ValueError("codim sweep needs N >= 1")
            if not self.codim_grid or not self.r_grid:
                raise ValueError("codim sweep needs codim_grid and r_grid")
            if any(not 1 <= c < self.D for c in self.codim_grid):
                raise ValueError("invalid grid: every codimension in [1, D)")
            if max(self.codim_grid) > self.c_prime:
                raise ValueError("c_prime must cover the largest codimension in the grid")
            if any(not 0.0 < r < 1.0 for r in self.r_grid):
                raise ValueError("invalid ratio: every r in (0, 1)")
        elif self.kind == "outlier_pursuit":
            if not self.r_grid or any(not 0.0 < r < 1.0 for r in self.r_grid):
                raise ValueError("outlier pursuit needs ratios in (0, 1)")
            if not 1 <= self.proxy_inlier_dim < self.D:
                raise ValueError("invalid proxy dimensions")
            if self.n_columns < 1:
                raise ValueError(f"outlier pursuit needs n_columns >= 1, got {self.n_columns}")
        elif self.kind == "continuous_check":
            if self.p is None or not 0.0 < self.p <= 1.0:
                raise ValueError("invalid ratio: continuous check needs 0 < p <= 1")
            if self.d is None or not 1 <= self.d < self.D:
                raise ValueError("continuous check needs 1 <= d < D")
            if self.c_prime < self.D - self.d:
                raise ValueError("c_prime must be at least the codimension")
        foreign = [f.name for f in fields(self) if getattr(self, f.name) != f.default
                   and f.name in set().union(*_READS.values()) - _READS[self.kind]]
        if foreign:
            raise ValueError(f"a {self.kind} config does not read {foreign}")
        allowed = _METHODS.get(self.kind) or (_ONE_METHOD[self.kind],)
        bad = set(self.methods) - set(allowed)
        if bad:
            raise ValueError(f"unknown methods {sorted(bad)}")
        if self.kind in _METHODS:
            object.__setattr__(self, "methods", tuple(self.methods or allowed))


def config_to_json(config: ExperimentConfig, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(to_json(config))


def config_from_json(path: str) -> ExperimentConfig:
    return ExperimentConfig(**fields_from_json(ExperimentConfig, path))


def derive_seed(master: int, *parts) -> int:
    """Stable 64-bit seed from the master seed and a canonical part tuple."""
    toks = [str(int(master))] + [_encode_cell_value(p) for p in parts]
    digest = hashlib.sha256("|".join(toks).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ResultRow:
    """One (cell, method, trial) outcome; report holds flattened metrics."""

    cell: dict
    method: str
    trial: int
    seed: int
    report: dict
    wall_time: float
    error: str | None = None


@dataclass
class ResultTable:
    kind: str
    rows: list[ResultRow] = field(default_factory=list)

    def sorted_rows(self) -> list[ResultRow]:
        return sorted(self.rows, key=_row_order)


def _row_order(row: ResultRow) -> tuple:
    return json.dumps(row.cell, sort_keys=True), row.method, row.trial


def _schedule(config: ExperimentConfig) -> solver.StepSchedule:
    """The step rule every solve of config runs: its schedule_kind, or for a
    continuous check a PGD step whose open mu0 is 0.3."""
    kind, mu0 = config.schedule_kind, config.mu0
    if config.kind == "continuous_check":
        kind, mu0 = "pgd", 0.3 if mu0 is None else mu0
    return solver.schedule_from(kind, mu0, config.beta, config.K0, config.K_star)


def _solve_and_report(config: ExperimentConfig, model, matrix: DataMatrix, method: str,
                      seed: int, rsgm_c: int) -> dict:
    """Solve with psgm (c' instances) or rsgm (width rsgm_c) and return the
    RecoveryReport as a row report: its fields without the basis, plus the
    true codimension when the model is known."""
    schedule = _schedule(config)
    if method == "psgm":
        basis = solver.psgm_multi(matrix, solver.SolverConfig(
            c_prime=config.c_prime, max_iters=config.max_iters, stop_tol=config.stop_tol,
            schedule=schedule, seed=seed))
    else:
        basis = rsgm.rsgm_run(matrix, rsgm_c, schedule, max_iters=config.max_iters,
                              stop_tol=config.stop_tol)
    rep = analysis.recovery_report(basis, model=model, matrix=matrix)
    report = {k: as_plain(v) for k, v in vars(rep).items() if k != "orthonormalized_complement"}
    if model is not None:
        report["true_codim"] = model.codim
    return report


def cell_data_seeds(config: ExperimentConfig, *cell_parts) -> tuple[int, int]:
    """(model seed, data seed) for one cell+trial; method-independent so every
    method in a cell runs on identical data."""
    return (
        derive_seed(config.seed, config.kind, *cell_parts, "model"),
        derive_seed(config.seed, config.kind, *cell_parts, "data"),
    )


def ratio_to_counts(N: int, r: float) -> int:
    """Outlier count M giving outlier fraction r against N inliers."""
    return round(r * N / (1.0 - r))


def hsi_proxy(D: int = 10, inlier_dim: int = 5, n_columns: int = 10000,
              seed: int = 0) -> tuple[SubspaceModel, DataMatrix]:
    """Low-dimensional proxy cube: unit columns near a d-dimensional subspace
    with a coefficient spectrum decaying by 0.6 per direction and relative
    noise 1e-3, mimicking a flattened hyperspectral block."""
    ss = np.random.SeedSequence(seed).spawn(2)
    model = sample_haar_subspace(D, inlier_dim, int(ss[0].generate_state(1)[0]))
    rng = np.random.default_rng(ss[1])
    weights = 0.6 ** np.arange(inlier_dim)
    z = rng.standard_normal((inlier_dim, n_columns)) * weights[:, None]
    x = model.basis_S @ z
    x /= np.linalg.norm(x, axis=0)
    x += 1e-3 * rng.standard_normal(x.shape)
    x /= np.linalg.norm(x, axis=0)
    x.flags.writeable = False  # frozen, so the container adopts it uncopied
    return model, DataMatrix(points=x, labels=np.full(n_columns, INLIER, dtype="U7"),
                             unit_normalized=True)


def _continuous_report(config: ExperimentConfig, model: SubspaceModel, seed: int) -> dict:
    problem = ContinuousProblem(subspace=model, p=config.p)
    B0 = unit_sphere_columns(np.random.default_rng(seed), config.D, config.c_prime)
    if config.p == 1.0:
        return {"tag": "every direction is fixed at p=1; span check skipped"}
    schedule = _schedule(config)
    B_star, rank, spans = continuous_span_check(model, B0)
    errs = []
    for b0, ref in zip(B0.T, np.ascontiguousarray(B_star.T)):  # a strided ref rounds @ otherwise
        b_star, _ = continuous_psgm_run(problem, b0, schedule,
                                        max_iters=config.max_iters, stop_tol=config.stop_tol)
        errs.append(float(np.arccos(np.clip(b_star @ ref, -1.0, 1.0))))
    return {
        "max_fixed_point_angle_error": max(errs),
        "estimated_codim": int(rank),
        "spans_complement": bool(spans),
    }


def _cell_solver(config: ExperimentConfig, vals: tuple, trial: int, proxy):
    """Build the data of one (cell, trial) and return solve(method, seed) -> report
    over it. Every rsgm method runs at c' but phase rsgm, at the true codimension,
    and outlier-pursuit rsgm_known, at the proxy's D - proxy_inlier_dim."""
    k = config.kind
    if k == "continuous_check":
        model = sample_haar_subspace(config.D, config.d, cell_data_seeds(config, trial)[0])
        return lambda method, seed: _continuous_report(config, model, seed)
    if k == "outlier_pursuit":
        model, widths = None, {"rsgm_known": config.D - config.proxy_inlier_dim}
        corrupt_seed = derive_seed(config.seed, k, *vals, trial, "corrupt")
        matrix = corrupt_with_outliers(proxy(), vals[0], corrupt_seed)
    else:
        model_seed, data_seed = cell_data_seeds(config, *vals, trial)
        if k == "phase_transition":
            (N, M), d = vals, config.d
        else:
            (c, r), N = vals, config.N
            M, d = ratio_to_counts(N, r), config.D - c
        model = sample_haar_subspace(config.D, d, model_seed)
        matrix = generate_dataset(model, N, M, data_seed)
        widths = {"rsgm": model.codim}
    return lambda method, seed: _solve_and_report(config, model, matrix, method, seed,
                                                  widths.get(method, config.c_prime))


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Run the grid in this process: each (cell, trial)'s data is built once and
    solved by every method of the cell, one row each with its own solver seed
    (for a continuous check, the seed of the trial's starts), and the first row
    also times the build. The outlier-pursuit proxy base is built once per grid.
    A ValueError (LinAlgError included) fails only the rows it reaches: one from
    a solve, or every row from the build, which each retries."""
    k = config.kind
    proxy = functools.cache(lambda: hsi_proxy(
        D=config.D, inlier_dim=config.proxy_inlier_dim, n_columns=config.n_columns,
        seed=derive_seed(config.seed, k, "proxy"))[1])
    axes = {"phase_transition": (config.N_grid, config.M_grid),
            "codim_sweep": (config.codim_grid, config.r_grid),
            "outlier_pursuit": (config.r_grid,)}
    trials = range(config.trials)
    cells = ([((t,), t) for t in trials] if k == "continuous_check"
             else [(vals, t) for vals in itertools.product(*axes[k]) for t in trials])
    rows = []
    for vals, trial in cells:
        cell, solve = dict(zip(CELL_KEYS[k], vals)), None
        for method in config.methods or (_ONE_METHOD[k],):
            seed = (cell_data_seeds(config, trial)[1] if k == "continuous_check"
                    else derive_seed(config.seed, k, *vals, trial, method, "solver"))
            t0 = time.perf_counter()
            try:
                solve = solve or _cell_solver(config, vals, trial, proxy)
                report, error = solve(method, seed), None
            except ValueError as e:
                report, error = {}, str(e)
            rows.append(ResultRow(cell=cell, method=method, trial=trial, seed=seed,
                                  report=report, wall_time=time.perf_counter() - t0,
                                  error=error))
    return ResultTable(kind=k, rows=sorted(rows, key=_row_order))


def exact_recovery_rates(table: ResultTable) -> dict[tuple, float]:
    """Per-cell fraction of trials that recovered the codimension exactly.

    The target codimension is the cell's own c for a sweep and the config-level
    truth otherwise, which phase rows carry in report["true_codim"].
    """
    hits: dict[tuple, list[int]] = {}
    for row in table.rows:
        key = tuple(row.cell[k] for k in sorted(row.cell)) + (row.method,)
        true_c = row.cell.get("c", row.report.get("true_codim"))
        ok = int(not row.error and true_c is not None
                 and row.report.get("estimated_codim") == true_c)
        hits.setdefault(key, []).append(ok)
    return {k: sum(v) / len(v) for k, v in sorted(hits.items())}


# ---------------------------------------------------------------------------
# persistence


def _encode_cell_value(v):
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _decode_cell_value(s: str):
    try:
        return int(s)
    except ValueError:
        return float(s)


def _csv_path(path) -> str:
    path = os.fspath(path)
    if not path.lower().endswith(".csv"):
        raise ValueError(f"unknown format {os.path.splitext(path)[1]!r}: result tables are .csv")
    return path


def persist(table: ResultTable, path: str, include_timing: bool = False) -> None:
    """Write a table as CSV: the cell columns of its kind, then the row fields
    with the report as a sorted-key JSON column.

    Timing is volatile, so wall_time is written as 0 unless include_timing is
    set; this keeps repeated runs of the same seed byte-identical.
    """
    cell_keys = sorted(CELL_KEYS[table.kind])
    with open(_csv_path(path), "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow([f"cell_{k}" for k in cell_keys]
                     + ["method", "trial", "seed", "wall_time", "error", "report"])
        for r in table.sorted_rows():
            wall = format(r.wall_time, ".17g") if include_timing else "0"
            out.writerow([_encode_cell_value(r.cell.get(k, "")) for k in cell_keys]
                         + [r.method, str(r.trial), str(r.seed), wall,
                            r.error or "", json.dumps(r.report, sort_keys=True)])


def load_results(path: str) -> ResultTable:
    """Read back a persisted table; the lossless inverse of persist."""
    with open(_csv_path(path), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cell_keys = {h[5:] for h in header if h.startswith("cell_")}
        kind = next((k for k, keys in CELL_KEYS.items() if set(keys) == cell_keys), None)
        if kind is None:
            raise ValueError(f"cell columns {sorted(cell_keys)} name no table kind")
        rows = []
        for rec in reader:
            if len(rec) != len(header):
                raise ValueError(f"{path}: line {reader.line_num} has {len(rec)} fields, "
                                 f"the header has {len(header)}")
            m = dict(zip(header, rec))
            cell = {k: _decode_cell_value(m[f"cell_{k}"])
                    for k in CELL_KEYS[kind] if m[f"cell_{k}"]}
            rows.append(ResultRow(
                cell=cell, method=m["method"], trial=int(m["trial"]), seed=int(m["seed"]),
                report=json.loads(m["report"]), wall_time=float(m["wall_time"]),
                error=m["error"] or None,
            ))
    return ResultTable(kind=kind, rows=rows)


# per kind: the TSV header, and the value a row adds to its cell's mean (None
# leaves the row out); a kind that runs several methods keeps them apart
_PLOT = {
    "phase_transition": ("N\tM\tmethod\tmean_projection_distance\tn",
                         lambda r: None if r.error else r.report.get("projection_distance")),
    "codim_sweep": ("c\tr\texact_fraction\tn",
                    lambda r: int(not r.error and r.report.get("estimated_codim") == r.cell["c"])),
    "outlier_pursuit": ("r\tmethod\tmean_f1\tn",
                        lambda r: None if r.error else r.report.get("outlier_f1")),
}


def write_plotdata(table: ResultTable, path: str) -> None:
    """Aggregate a table into the TSV series its figure is drawn from: the mean
    per cell (and method) for a grid, the row listing for a continuous check."""
    rows = table.sorted_rows()
    if table.kind == "continuous_check":
        lines = ["trial\tmax_fixed_point_angle_error\testimated_codim\tspans_complement"]
        for r in rows:
            if r.error or "tag" in r.report:
                continue
            lines.append(
                f"{r.trial}\t{r.report['max_fixed_point_angle_error']:.17g}"
                f"\t{r.report['estimated_codim']}\t{int(r.report['spans_complement'])}"
            )
    else:
        header, value = _PLOT[table.kind]
        agg: dict[tuple, list] = {}
        for r in rows:
            v = value(r)
            if v is not None:
                key = tuple(r.cell[k] for k in CELL_KEYS[table.kind])
                agg.setdefault(key + ((r.method,) if table.kind in _METHODS else ()), []).append(v)
        lines = [header] + ["\t".join([_encode_cell_value(c) for c in key]
                                      + [format(np.mean(vals), ".17g"), str(len(vals))])
                            for key, vals in sorted(agg.items())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
