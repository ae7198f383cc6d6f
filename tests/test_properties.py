"""Invariants of the objective, the solver and the harness, as hypothesis properties."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from dpcp import harness
from dpcp.dataset import DataMatrix, generate_dataset, sample_haar_subspace, unit_sphere_columns
from dpcp.geometry import ScheduleParams
from dpcp.solver import MBLS, Constant, SolverConfig, objective, psgm_single, subgradient

from helpers import rand_orthonormal

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _points_and_start(seed, D, n):
    rng = np.random.default_rng(seed)
    return rng, unit_sphere_columns(rng, D, n), unit_sphere_columns(rng, D, 1)[:, 0]


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=40))
def test_objective_and_subgradient_ignore_column_signs(seed, D, n):
    rng, pts, b = _points_and_start(seed, D, n)
    flipped = pts * np.where(rng.random(n) < 0.5, -1.0, 1.0)
    a, f = DataMatrix(points=pts), DataMatrix(points=flipped)
    assert abs(objective(a, b) - objective(f, b)) <= 1e-12 * n
    assert np.allclose(subgradient(a, b), subgradient(f, b), rtol=0.0, atol=1e-12 * n)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=40))
def test_objective_doubles_when_every_column_repeats(seed, D, n):
    _, pts, b = _points_and_start(seed, D, n)
    once = objective(DataMatrix(points=pts), b)
    twice = objective(DataMatrix(points=np.hstack([pts, pts])), b)
    assert abs(twice - 2.0 * once) <= 1e-12 * n


_SCHEDULES = (Constant(0.01), ScheduleParams(mu0=None, beta=0.5, K0=2, K_star=1), MBLS())


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(min_value=3, max_value=8), st.sampled_from(_SCHEDULES))
def test_psgm_single_is_rotation_equivariant(seed, D, schedule):
    # rotating the data and the start by R rotates every iterate by R
    rng = np.random.default_rng(seed)
    model = sample_haar_subspace(D, D - 1, int(rng.integers(2**31)))
    data = generate_dataset(model, 40, 20, int(rng.integers(2**31)))
    R = rand_orthonormal(rng, D, D)
    b0 = unit_sphere_columns(rng, D, 1)[:, 0]
    cfg = SolverConfig(schedule=schedule, max_iters=5, stop_tol=0.0, record_iterates=True)
    _, trace = psgm_single(data, b0, cfg)
    _, turned = psgm_single(DataMatrix(points=R @ data.points), R @ b0, cfg)
    assert turned.n_iterations == trace.n_iterations == 5
    assert np.allclose(turned.iterates, trace.iterates @ R.T, rtol=0.0, atol=1e-9)
    assert np.allclose(turned.objective, trace.objective, rtol=1e-9, atol=0.0)


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2),
       st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6),
       st.integers(min_value=1, max_value=6))
@example(seed=0, D=2, d_pick=0, N=1, M=0, c_prime=3)
def test_small_cells_give_rows_or_error_rows(seed, D, d_pick, N, M, c_prime):
    # degenerate corners (D=2, no outliers, one inlier, c' > D) end in a report
    # or an error row, never in an exception out of run_experiment
    cfg = harness.ExperimentConfig(kind="phase_transition", D=D, d=1 + d_pick % (D - 1),
                                   c_prime=c_prime, N_grid=(N,), M_grid=(M,), trials=1,
                                   seed=seed, max_iters=30)
    table = harness.run_experiment(cfg)
    assert len(table.rows) == len(cfg.methods)
    for row in table.rows:
        assert (row.error is None and row.report) or (isinstance(row.error, str)
                                                      and row.report == {})
