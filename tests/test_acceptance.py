"""Acceptance gates for the toolkit.

Each numbered test checks one end-to-end claim at full scale and prints a
single verdict line (bypassing capture so the line always reaches the
terminal). The heavy experiment tables are computed once in session fixtures
and shared; the determinism gate at the end re-runs them from the same master
seed and compares persisted bytes.
"""

import dataclasses
import time

import numpy as np
import pytest

from helpers import fd_directional, grid_procrustes, mc_hemisphere_height, rand_orthonormal
from dpcp import analysis, geometry, harness, rsgm, solver
from dpcp.continuous import (
    ContinuousProblem,
    continuous_fixed_point,
    continuous_psgm_run,
    continuous_span_check,
)
from dpcp.dataset import (
    DataMatrix,
    generate_dataset,
    sample_haar_subspace,
    unit_sphere_columns,
)

MASTER = 20260819

PHASE_CFG = harness.ExperimentConfig(
    kind="phase_transition", D=200, d=195, c_prime=10,
    N_grid=(1500,), M_grid=(1500,), methods=("psgm", "rsgm_over"),
    trials=10, seed=MASTER,
)
CODIM_R6_CFG = harness.ExperimentConfig(
    kind="codim_sweep", D=200, N=1500, c_prime=30,
    codim_grid=(10, 12, 14, 16, 18, 20), r_grid=(0.6,),
    trials=10, seed=MASTER,
)
CODIM_R7_CFG = dataclasses.replace(CODIM_R6_CFG, r_grid=(0.7,))
PURSUIT_CFG = harness.ExperimentConfig(
    kind="outlier_pursuit", D=10, r_grid=(0.8, 0.9), trials=1, seed=7, c_prime=10,
)


@pytest.fixture
def verdict(capfd):
    """Verdict printer that escapes capture, so one line per criterion always
    reaches the terminal."""
    def emit(num: int, name: str, ok: bool, detail: str = "") -> None:
        with capfd.disabled():
            print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}",
                  flush=True)
        assert ok, f"criterion {num} ({name}): {detail}"
    return emit


def _fixed_point_angles() -> list[float]:
    """Simulator limit vs closed form over 50 (subspace, start) pairs."""
    schedule = geometry.ScheduleParams(mu0=0.3, beta=0.5, K0=500, K_star=5)
    angles = []
    for child in np.random.SeedSequence(MASTER).spawn(50):
        rng = np.random.default_rng(child)
        sub = sample_haar_subspace(20, 15, int(rng.integers(2**31)))
        b0 = unit_sphere_columns(rng, 20, 1)[:, 0]
        problem = ContinuousProblem(subspace=sub, p=0.5)
        b_star, _ = continuous_psgm_run(problem, b0, schedule,
                                        max_iters=2000, stop_tol=1e-14)
        ref = continuous_fixed_point(sub, b0)
        angles.append(float(np.arccos(np.clip(b_star @ ref, -1.0, 1.0))))
    return angles


def _span_recovery_results() -> tuple[list[int], list[float]]:
    """Closed-form limits of 8 starts against a codim-5 complement, 50 trials."""
    ranks, dists = [], []
    for child in np.random.SeedSequence(MASTER + 2).spawn(50):
        rng = np.random.default_rng(child)
        sub = sample_haar_subspace(20, 15, int(rng.integers(2**31)))
        B0 = unit_sphere_columns(rng, 20, 8)
        B_star, rank, _ = continuous_span_check(sub, B0)
        ranks.append(int(rank))
        dists.append(analysis.projection_distance(B_star, sub.basis_Sperp))
    return ranks, dists


@pytest.fixture(scope="session")
def c1_run():
    t0 = time.perf_counter()
    angles = _fixed_point_angles()
    return angles, time.perf_counter() - t0


@pytest.fixture(scope="session")
def c2_run():
    return _span_recovery_results()


@pytest.fixture(scope="session")
def phase_run():
    t0 = time.perf_counter()
    table = harness.run_experiment(PHASE_CFG)
    return table, time.perf_counter() - t0


@pytest.fixture(scope="session")
def codim_r6_run():
    t0 = time.perf_counter()
    table = harness.run_experiment(CODIM_R6_CFG)
    return table, time.perf_counter() - t0


@pytest.fixture(scope="session")
def codim_r7_run():
    return harness.run_experiment(CODIM_R7_CFG)


@pytest.fixture(scope="session")
def pursuit_run():
    return harness.run_experiment(PURSUIT_CFG)


def test_01_continuous_limit_matches_closed_form_fixed_point(c1_run, verdict):
    angles, elapsed = c1_run
    worst = max(angles)
    ok = worst < 1e-6 and elapsed < 10.0
    verdict(1, "continuous fixed point", ok,
             f"worst angle {worst:.3g} (tol 1e-6), elapsed {elapsed:.1f}s (limit 10s)")


def test_02_continuous_multistart_spans_the_complement(c2_run, verdict):
    ranks, dists = c2_run
    n_rank = sum(r == 5 for r in ranks)
    n_dist = sum(d < 1e-8 for d in dists)
    ok = n_rank == 50 and n_dist == 50
    verdict(2, "continuous span recovery", ok,
             f"rank=5 in {n_rank}/50, projection_distance<1e-8 in {n_dist}/50 "
             f"(worst {max(dists):.3g})")


def test_03_discrete_recovery_at_scale(phase_run, verdict):
    table, elapsed = phase_run
    rows = [r for r in table.rows if r.method == "psgm"]
    hits = sum(
        r.error is None
        and r.report["estimated_codim"] == 5
        and r.report["projection_distance"] < 1e-2
        for r in rows
    )
    ok = len(rows) == 10 and hits >= 9 and elapsed < 300.0
    verdict(3, "discrete recovery at D=200", ok,
             f"{hits}/10 seeds recovered, elapsed {elapsed:.0f}s (limit 300s)")


def test_04_codim_sweep_exact_recovery_at_r06(codim_r6_run, verdict):
    table, elapsed = codim_r6_run
    rates = harness.exact_recovery_rates(table)
    ok = len(rates) == 6 and all(v == 1.0 for v in rates.values()) and elapsed < 1800.0
    verdict(4, "codimension sweep r=0.6", ok,
             f"rates {sorted(rates.items())}, elapsed {elapsed:.0f}s")


def test_05_codim_sweep_near_recovery_at_r07(codim_r7_run, verdict):
    table = codim_r7_run
    rows = [r for r in table.rows if r.error is None]
    close = sum(abs(r.report["estimated_codim"] - r.cell["c"]) <= 2 for r in rows)
    ok = len(rows) == 60 and close >= 48
    verdict(5, "codimension sweep r=0.7", ok,
             f"|chat - c| <= 2 in {close}/60 trials (need 48)")


def test_06_orthogonality_constraint_fails_when_overparameterized(phase_run, verdict):
    table, _ = phase_run
    ps = {r.trial: r.report for r in table.rows if r.method == "psgm"}
    over = {r.trial: r.report for r in table.rows if r.method == "rsgm_over"}
    worse = all(
        over[t]["outlier_f1"] < ps[t]["outlier_f1"]
        and over[t]["projection_distance"] > ps[t]["projection_distance"]
        for t in ps
    )
    # per-column angles need the raw basis; rerun the baseline on trial-0 data
    model_seed, data_seed = harness.cell_data_seeds(PHASE_CFG, 1500, 1500, 0)
    model = sample_haar_subspace(200, 195, model_seed)
    matrix = generate_dataset(model, 1500, 1500, data_seed)
    basis = rsgm.rsgm_run(matrix, 10, solver.MBLS(), max_iters=1000, stop_tol=1e-9)
    n_off = int(np.sum(analysis.principal_angles(basis, model) > np.deg2rad(10.0)))
    ok = worse and n_off >= 5
    verdict(6, "overparameterized orthogonal baseline fails", ok,
             f"strictly worse in every cell: {worse}; "
             f"{n_off} of 10 columns leave the complement by >10 degrees (need 5)")


def test_07_outlier_pursuit_proxy_f1(pursuit_run, verdict):
    table = pursuit_run
    f1 = {(r.cell["r"], r.method): r.report["outlier_f1"] for r in table.rows}
    ok = all(
        f1[(r, "psgm")] >= 0.98
        and f1[(r, "rsgm")] <= 0.1
        and f1[(r, "rsgm_known")] >= 0.98
        for r in (0.8, 0.9)
    )
    verdict(7, "outlier pursuit proxy", ok, f"f1 table {sorted(f1.items())}")


def test_08_hemisphere_heights_closed_form_and_monte_carlo(verdict):
    exact = (
        geometry.hemisphere_height(2) == 2.0 / np.pi
        and geometry.hemisphere_height(3) == 0.5
        and geometry.hemisphere_height(5) == 3.0 / 8.0
    )
    errs = {
        d: abs(mc_hemisphere_height(d, n_samples=1_000_000, seed=d)
               - geometry.hemisphere_height(d))
        for d in (2, 3, 5, 10, 50)
    }
    ok = exact and all(e < 3e-3 for e in errs.values())
    verdict(8, "hemisphere heights", ok,
             f"closed forms exact: {exact}; MC errors {errs}")


def test_09_subgradient_matches_finite_differences(verdict):
    rng = np.random.default_rng(MASTER)
    worst = 0.0
    for _ in range(100):
        D = int(rng.integers(3, 12))
        n = int(rng.integers(5, 40))
        matrix = DataMatrix(points=unit_sphere_columns(rng, D, n), unit_normalized=True)
        while True:  # stay away from sign boundaries so f is locally linear
            b = unit_sphere_columns(rng, D, 1)[:, 0]
            if np.min(np.abs(matrix.points.T @ b)) > 1e-4:
                break
        v = unit_sphere_columns(rng, D, 1)[:, 0]
        fd = fd_directional(lambda x: float(np.abs(matrix.points.T @ x).sum()), b, v)
        exact = float(solver.subgradient(matrix, b) @ v)
        worst = max(worst, abs(fd - exact))
    ok = worst < 1e-5
    verdict(9, "subgradient vs finite differences", ok,
             f"worst deviation {worst:.3g} over 100 triples (tol 1e-5)")


def test_10_scaled_perturbed_recursion_identity(verdict):
    model = sample_haar_subspace(20, 15, 77)
    matrix = generate_dataset(model, 300, 100, 78)
    M = 100
    c_D = geometry.hemisphere_height(20)
    Sp = model.basis_Sperp
    proj = lambda v: Sp @ (Sp.T @ v)
    config = solver.SolverConfig(
        c_prime=1, max_iters=40, stop_tol=0.0, seed=0, record_iterates=True,
        schedule=geometry.ScheduleParams(mu0=0.05, beta=0.5, K0=10, K_star=5),
    )
    starts = unit_sphere_columns(np.random.default_rng(MASTER + 10), 20, 10)
    worst = 0.0
    for j in range(10):
        _, trace = solver.psgm_single(matrix, starts[:, j], config)
        for k in range(trace.n_iterations):
            b = trace.iterates[k]
            mu = trace.step[k]
            _, o_avg = solver.average_terms(matrix, b)
            b_pre = b - mu * solver.subgradient(matrix, b)
            e_O = o_avg - c_D * b
            res = proj(b_pre) - (1.0 - mu * M * c_D) * proj(b) + mu * M * proj(e_O)
            worst = max(worst, float(np.linalg.norm(res)))
    ok = worst < 1e-10
    verdict(10, "scaled-perturbed recursion", ok,
             f"worst residual {worst:.3g} along 10 traces of 40 steps (tol 1e-10)")


def test_11_procrustes_distance_identities(verdict):
    rng = np.random.default_rng(MASTER + 11)
    self_ok = all(
        analysis.subspace_distance(A, A) <= 1e-12
        for A in (rand_orthonormal(rng, 10, 3) for _ in range(5))
    )
    orth_ok = True
    for _ in range(5):
        Q = rand_orthonormal(rng, 10, 6)
        d = analysis.subspace_distance(Q[:, 3:], Q[:, :3])
        orth_ok = orth_ok and abs(d - np.sqrt(6.0)) <= 1e-9
    grid_ok = True
    for _ in range(3):
        A = rand_orthonormal(rng, 4, 2)
        B = rand_orthonormal(rng, 4, 2)
        grid_ok = grid_ok and abs(
            analysis.subspace_distance(B, A) - grid_procrustes(A, B)
        ) < 1e-3
    ok = self_ok and orth_ok and grid_ok
    verdict(11, "procrustes identities", ok,
             f"self {self_ok}, orthogonal sqrt(2c) {orth_ok}, grid oracle {grid_ok}")


def test_12_recovery_condition_in_the_continuous_limit(verdict):
    stats = geometry.continuous_limit_stats(200, 200)
    schedule = geometry.ScheduleParams(mu0=1e-4, beta=0.5, K0=10, K_star=10)
    kappa, _ = geometry.kappa_and_r(schedule, stats, 1000, 1000)
    reports = [geometry.recovery_condition(cp, 200, stats, kappa)
               for cp in range(1, 51)]
    rhs_zero = all(abs(r.delta_bound) <= 1e-12 for r in reports)
    holds = all(r.condition_holds for r in reports)
    margins = [r.margin for r in reports]
    decreasing = all(m1 > m2 for m1, m2 in zip(margins, margins[1:]))
    ok = rhs_zero and holds and decreasing
    verdict(12, "continuous-limit recovery condition", ok,
             f"rhs zero {rhs_zero}, holds up to c'=50 {holds}, "
             f"margin strictly decreasing {decreasing}")


def test_13_same_master_seed_reproduces_tables_bytewise(
    c1_run, c2_run, phase_run, codim_r6_run, codim_r7_run, pursuit_run,
    tmp_path, verdict
):
    same_lists = (
        _fixed_point_angles() == c1_run[0]
        and _span_recovery_results() == c2_run
    )
    tables_ok = True
    reruns = [
        (phase_run[0], PHASE_CFG),
        (codim_r6_run[0], CODIM_R6_CFG),
        (codim_r7_run, CODIM_R7_CFG),
        (pursuit_run, PURSUIT_CFG),
    ]
    for i, (table, cfg) in enumerate(reruns):
        p1 = tmp_path / f"run{i}_a.csv"
        p2 = tmp_path / f"run{i}_b.csv"
        harness.persist(table, p1)
        harness.persist(harness.run_experiment(cfg), p2)
        tables_ok = tables_ok and p1.read_bytes() == p2.read_bytes()
    ok = same_lists and tables_ok
    verdict(13, "determinism under the master seed", ok,
             f"recomputed float lists identical: {same_lists}; "
             f"persisted tables byte-identical: {tables_ok}")
