"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 runtime failure,
3 a theory condition check was evaluated and does not hold.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import analysis, geometry, harness, rsgm, solver
from .dataset import (
    generate_dataset,
    load_csv,
    normalize_columns,
    sample_haar_subspace,
    save_csv,
    DataMatrix,
    SubspaceModel,
)
from .serialize import fields_from_json, to_json, to_kv


def _resolve_seed(value) -> int:
    if value is None:
        return int(np.random.SeedSequence().entropy % (1 << 64))
    return int(value)


def _mu0_or_auto(text: str) -> float | None:
    try:
        return None if text == "auto" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}") from None


def _schedule_from_args(args) -> solver.StepSchedule:
    return solver.schedule_from(args.schedule, args.mu0, args.beta, args.K0, args.K_star)


def _add_step_flags(p: argparse.ArgumentParser, beta: float = solver.ScheduleParams.beta,
                    K0: int = solver.ScheduleParams.K0, K_star: int = solver.ScheduleParams.K_star,
                    stop_tol: float = solver.SolverConfig.stop_tol,
                    schedule: bool = True, descent: bool = True) -> None:
    """The step-rule flags at this command's defaults, ScheduleParams' and
    SolverConfig's unless it names its own: --schedule when it picks a rule,
    and --max-iters and --stop-tol when it runs a descent."""
    if schedule:
        p.add_argument("--schedule", choices=solver.SCHEDULE_KINDS, default="mbls")
    p.add_argument("--mu0", type=_mu0_or_auto, default="auto", help="initial step, or 'auto'")
    p.add_argument("--beta", type=float, default=beta)
    p.add_argument("--K0", type=int, default=K0)
    p.add_argument("--Kstar", dest="K_star", type=int, default=K_star)
    if descent:
        p.add_argument("--max-iters", type=int, default=solver.SolverConfig.max_iters)
        p.add_argument("--stop-tol", type=float, default=stop_tol)


def _add_input_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--in", dest="input", required=required, help="dataset CSV")
    p.add_argument("--orientation", choices=["points", "dims"], default="points")
    p.add_argument("--normalize", action="store_true")


def _add_table_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out")
    p.add_argument("--plotdata")
    p.add_argument("--timing", action="store_true",
                   help="write each row's wall_time to --out (default 0, so reruns keep their bytes)")


def _add_basis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cprime", type=int, required=True)
    p.add_argument("--out-basis")
    p.add_argument("--out-report")


def _cmd_gen(args) -> int:
    seed = _resolve_seed(args.seed)
    print(f"seed={seed}")
    model = sample_haar_subspace(args.D, args.d, derive(seed, "model"))
    matrix = generate_dataset(model, args.N, args.M, derive(seed, "data"))
    save_csv(matrix, args.out, orientation=args.orientation)
    print(f"wrote {matrix.ambient_dim} x {matrix.n_points} dataset to {args.out}")
    return 0


def derive(seed: int, tag: str) -> int:
    return harness.derive_seed(seed, "cli", tag)


def _load_input(args) -> DataMatrix:
    matrix = load_csv(args.input, orientation=args.orientation)
    if not matrix.unit_normalized and args.normalize:
        matrix = normalize_columns(matrix)
    return matrix


def _cmd_solve(args) -> int:
    seed = _resolve_seed(args.seed)
    print(f"seed={seed}")
    matrix = _load_input(args)
    config = solver.SolverConfig(
        c_prime=args.cprime, max_iters=args.max_iters, stop_tol=args.stop_tol,
        schedule=_schedule_from_args(args), seed=seed,
    )
    basis = solver.psgm_multi(matrix, config)
    _finish_basis(basis, matrix, args)
    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
        for i, trace in enumerate(basis.traces):
            solver.trace_to_csv(trace, os.path.join(args.trace, f"trace_{i}.csv"))
        print(f"wrote {len(basis.traces)} traces to {args.trace}")
    return 0


def _cmd_rsgm(args) -> int:
    print("seed=deterministic (spectral initialization)")
    matrix = _load_input(args)
    basis = rsgm.rsgm_run(
        matrix, args.cprime, _schedule_from_args(args),
        max_iters=args.max_iters, stop_tol=args.stop_tol,
    )
    _finish_basis(basis, matrix, args)
    return 0


def _finish_basis(basis, matrix: DataMatrix, args) -> None:
    """Report the estimated codimension and write the requested outputs."""
    report = analysis.recovery_report(basis, matrix=matrix)
    print(f"estimated_codim={report.estimated_codim}")
    if args.out_basis:
        save_csv(DataMatrix(points=basis.columns, unit_normalized=True), args.out_basis)
        print(f"wrote basis to {args.out_basis}")
    if args.out_report:
        with open(args.out_report, "w") as fh:
            fh.write(to_json(report))
        print(f"wrote report to {args.out_report}")


def _estimate_model(matrix: DataMatrix, d: int | None):
    """Inlier basis from the labeled columns (SVD), for diagnostics."""
    if matrix.labels is None:
        raise ValueError("geometry statistics need a labeled dataset (in/out column)")
    X, _ = matrix.split()
    if not X.shape[1]:
        raise ValueError("the inlier class is empty: no column is labeled 'in'")
    u, s, _ = np.linalg.svd(X, full_matrices=True)
    if d is None:
        d = analysis.numerical_rank(s)
    if not 1 <= d < matrix.ambient_dim:
        raise ValueError(f"invalid inlier dimension {d}")
    return SubspaceModel(basis_S=u[:, :d], basis_Sperp=u[:, d:])


def _stats_from_input(args) -> tuple[DataMatrix, geometry.GeometryStats]:
    """Print the resolved seed, load --in, check that its columns are unit and
    estimate the stats against the model of its labeled inliers."""
    seed = _resolve_seed(args.seed)
    print(f"seed={seed}")
    matrix = _load_input(args)
    if not matrix.unit_normalized:
        raise ValueError("geometry statistics expect unit columns; pass --normalize")
    return matrix, geometry.estimate_stats(matrix, _estimate_model(matrix, args.d), seed=seed)


def _cmd_geometry(args) -> int:
    _, stats = _stats_from_input(args)
    sys.stdout.write(to_kv(stats))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(to_json(stats))
        print(f"wrote stats to {args.out}")
    return 0


def _cmd_theory(args) -> int:
    if not 0.0 <= args.theta0 <= np.pi / 2:
        raise ValueError(f"--theta0 must lie in [0, pi/2], got {args.theta0}")
    if not 1 <= args.cprime <= args.D:
        raise ValueError(f"need 1 <= --cprime <= --D, got {args.cprime} and {args.D}")
    if args.stats:
        print("seed=deterministic (condition evaluation)")
        stats = geometry.GeometryStats(**fields_from_json(geometry.GeometryStats, args.stats))
        N, M = args.N, args.M
        if N is None or M is None:
            raise ValueError("--N and --M are required with --stats")
        if N < 0 or M < 0:
            raise ValueError(f"--N and --M must be >= 0, got {N} and {M}")
    elif args.input:
        matrix, stats = _stats_from_input(args)
        mask = matrix.inlier_mask()
        N, M = int(mask.sum()), int((~mask).sum())
    else:
        raise ValueError("pass --stats stats.json or --in data.csv")
    mu0 = args.mu0 if args.mu0 is not None else geometry.mu_prime(stats, N, M)
    schedule = solver.ScheduleParams(mu0=mu0, beta=args.beta, K0=args.K0, K_star=args.K_star)
    try:
        report = geometry.theory_report(
            stats, N, M, args.cprime, args.D, args.theta0, schedule,
            C1=args.C1, C2=args.C2, epsilon=args.epsilon,
        )
    except ValueError as e:
        print(f"condition failed during evaluation: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(to_kv(report))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(to_json(report))
        print(f"wrote report to {args.out}")
    return 0 if report.condition_holds else 3


def _cmd_continuous(args) -> int:
    seed = _resolve_seed(args.seed)
    print(f"seed={seed}")
    config = harness.ExperimentConfig(
        kind="continuous_check", D=args.D, d=args.d, p=args.p, c_prime=args.cprime,
        trials=args.trials, seed=seed, max_iters=args.max_iters,
        beta=args.beta, K0=args.K0, K_star=args.K_star,
        mu0=args.mu0, stop_tol=args.stop_tol,
    )
    _run_table(config, args)
    return 0


def _cmd_grid(args) -> int:
    config = harness.config_from_json(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=int(args.seed))
    print(f"seed={config.seed}")
    expected = {"phase": "phase_transition", "codim": "codim_sweep", "pursuit": "outlier_pursuit"}
    if config.kind != expected[args.command]:
        raise ValueError(f"config kind {config.kind!r} does not match the {args.command} command")
    _run_table(config, args)
    return 0


def _run_table(config: harness.ExperimentConfig, args) -> None:
    """Run the grid and write the requested outputs; a bad --out fails before the run."""
    if args.out:
        harness._csv_path(args.out)
    table = harness.run_experiment(config)
    if args.out:
        harness.persist(table, args.out, include_timing=args.timing)
        print(f"wrote {len(table.rows)} rows to {args.out}")
    if args.plotdata:
        harness.write_plotdata(table, args.plotdata)
        print(f"wrote plot data to {args.plotdata}")
    errors = [r for r in table.rows if r.error]
    if errors:
        print(f"{len(errors)} of {len(table.rows)} cells failed; first: {errors[0].error}",
              file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dpcp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic labeled dataset")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--orientation", choices=["points", "dims"], default="points")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="multi-instance subgradient pursuit on a CSV dataset")
    _add_input_flags(p)
    _add_basis_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--trace", metavar="DIR",
                   help="write instance i's per-iteration trace to DIR/trace_<i>.csv")
    _add_step_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("rsgm", help="orthogonality-constrained baseline on a CSV dataset")
    _add_input_flags(p)
    _add_basis_flags(p)
    _add_step_flags(p)
    p.set_defaults(func=_cmd_rsgm)

    p = sub.add_parser("geometry", help="estimate permeance/coverage statistics")
    _add_input_flags(p)
    p.add_argument("--d", type=int, help="inlier dimension (default: numerical rank)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_geometry)

    p = sub.add_parser("theory", help="evaluate the recovery conditions")
    p.add_argument("--stats", help="stats JSON produced by the geometry command")
    _add_input_flags(p, required=False)
    p.add_argument("--d", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--cprime", type=int, required=True)
    p.add_argument("--theta0", type=float, default=0.0)
    _add_step_flags(p, schedule=False, descent=False)
    p.add_argument("--C1", type=float, default=1.0)
    p.add_argument("--C2", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("continuous", help="closed-form limit vs simulator check")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--cprime", type=int, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int)
    _add_step_flags(p, beta=0.5, K0=50, K_star=5, stop_tol=1e-14, schedule=False)
    _add_table_flags(p)
    p.set_defaults(func=_cmd_continuous)

    for name, help_text in (
        ("phase", "phase-transition grid from a config JSON"),
        ("codim", "codimension sweep from a config JSON"),
        ("pursuit", "outlier-pursuit sweep from a config JSON"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int)
        _add_table_flags(p)
        p.set_defaults(func=_cmd_grid)

    return ap


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
