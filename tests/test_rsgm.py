import math

import numpy as np
import pytest

from dpcp.analysis import max_subspace_angle, principal_angles, projection_distance
from dpcp.dataset import INLIER, DataMatrix, generate_dataset, sample_haar_subspace
from dpcp.geometry import ScheduleParams
from dpcp.rsgm import (
    OrthoBasis,
    _group_objective,
    _riemannian_subgradient,
    rsgm_run,
    spectral_init,
)
from dpcp.solver import MBLS


def _auto_pgd(beta=0.6, K0=30, K_star=10):
    return ScheduleParams(mu0=None, beta=beta, K0=K0, K_star=K_star)


def test_ortho_basis_validation():
    OrthoBasis(columns=np.eye(4)[:, :2])
    with pytest.raises(ValueError, match="orthonormal"):
        OrthoBasis(columns=np.ones((4, 2)))
    with pytest.raises(ValueError, match="tall"):
        OrthoBasis(columns=np.eye(2)[:1, :])
    b = OrthoBasis(columns=np.eye(3))
    assert not b.columns.flags.writeable
    assert b.ambient_dim == 3 and b.n_columns == 3


def test_spectral_init_bottom_eigenvectors():
    # data concentrated along e1 and e2: the two smallest-variance directions
    # are e3, e4 up to sign
    rng = np.random.default_rng(0)
    pts = np.zeros((4, 100))
    pts[0] = rng.standard_normal(100) * 2.0
    pts[1] = rng.standard_normal(100)
    pts[2] = rng.standard_normal(100) * 1e-3
    pts[3] = rng.standard_normal(100) * 1e-4
    init = spectral_init(DataMatrix(points=pts), 2)
    overlap = np.abs(np.eye(4)[:, 2:].T @ init.columns)
    assert np.min(np.max(overlap, axis=0)) > 0.999
    # sign canonicalization keeps the call deterministic
    again = spectral_init(DataMatrix(points=pts), 2)
    assert np.array_equal(init.columns, again.columns)
    assert np.all(init.columns[np.argmax(np.abs(init.columns), axis=0),
                               np.arange(2)] > 0)
    with pytest.raises(ValueError, match="invalid dimensions"):
        spectral_init(DataMatrix(points=pts), 5)


def test_rsgm_recovers_complement_at_true_codim():
    model = sample_haar_subspace(10, 7, seed=1)
    data = generate_dataset(model, N=400, M=100, seed=2)
    result = rsgm_run(data, c_prime=3, schedule=_auto_pgd(), max_iters=300)
    angle = max_subspace_angle(result.columns, model.basis_Sperp)
    assert angle < 1e-3
    assert projection_distance(result.columns, model.basis_Sperp) < 1e-3
    assert angle < max_subspace_angle(spectral_init(data, 3).columns, model.basis_Sperp)


def test_rsgm_overestimated_codim_invades_inlier_subspace():
    # with c' > c the orthogonality constraint forces c' - c columns to carry
    # inlier directions: their principal angle from the complement stays large
    model = sample_haar_subspace(10, 7, seed=3)
    data = generate_dataset(model, N=400, M=100, seed=4)
    result = rsgm_run(data, c_prime=5, schedule=_auto_pgd(), max_iters=300)
    ang = principal_angles(result.columns, model, against="Sperp")
    assert int(np.sum(ang > math.pi / 18)) >= 2  # c' - c = 2 invaders
    assert projection_distance(result.columns, model.basis_Sperp) > 0.5


def test_rsgm_deterministic_and_monotone_mbls():
    model = sample_haar_subspace(8, 5, seed=5)
    data = generate_dataset(model, N=200, M=60, seed=6)
    a = rsgm_run(data, c_prime=3, schedule=MBLS(), max_iters=150)
    b = rsgm_run(data, c_prime=3, schedule=MBLS(), max_iters=150)
    assert np.array_equal(a.columns, b.columns)
    assert np.all(np.diff(a.trace.objective) <= 1e-9)
    assert len(a.trace.objective) == len(a.trace.step) + 1


def test_rsgm_automatic_pgd_first_step():
    # f(B0)/||G(B0)||^2 at the spectral start, with G the tangent projection
    # of the Euclidean subgradient A (row-normalized A^T B0), computed on B0^T
    # in the row layout the run uses, so the bits match exactly
    model = sample_haar_subspace(12, 9, seed=3)
    data = generate_dataset(model, N=150, M=100, seed=4)
    A = data.points
    Bt = spectral_init(data, 3).columns.T
    St = Bt @ A
    rn = np.sqrt(np.sum(St * St, axis=0))
    Gt = (A @ (St / rn).T).T
    Gt = Gt - (0.5 * (Bt @ Gt.T + Gt @ Bt.T)) @ Bt
    g = Gt.reshape(1, -1)  # descend's ||G||^2: the row flattened, one einsum
    expected = float(rn.sum()) / float(np.einsum("ij,ij->i", g, g)[0])
    basis = rsgm_run(data, 3, _auto_pgd(), max_iters=5)
    assert basis.trace.step[0] == expected


def test_rsgm_iterates_stay_orthonormal():
    model = sample_haar_subspace(6, 4, seed=7)
    data = generate_dataset(model, N=150, M=50, seed=8)
    result = rsgm_run(data, c_prime=2, schedule=_auto_pgd(K0=10), max_iters=40)
    G = result.columns.T @ result.columns
    assert np.max(np.abs(G - np.eye(2))) < 1e-10
    with pytest.raises(ValueError, match="invalid solver limits"):
        rsgm_run(data, c_prime=2, schedule=MBLS(), stop_tol=-1.0)


@pytest.mark.parametrize("zero_column", [False, True])
def test_rsgm_final_objective_is_the_group_norm_of_its_basis(zero_column):
    # the trace's last value must be ||A^T B||_{1,2} of the returned basis,
    # recomputed in the column layout; an all-zero point gives a zero row of
    # A^T B, which must add nothing to the subgradient and raise no warning
    model = sample_haar_subspace(30, 25, seed=11)
    data = generate_dataset(model, N=300, M=200, seed=12)
    if zero_column:
        data = DataMatrix(points=np.hstack([data.points, np.zeros((30, 1))]),
                          labels=np.append(data.labels, INLIER))
    basis = rsgm_run(data, c_prime=5, schedule=MBLS(), max_iters=200)
    B = basis.columns
    expected = np.linalg.norm(data.points.T @ B, axis=1).sum()
    assert abs(basis.trace.objective[-1] - expected) <= 1e-12 * expected
    assert np.max(np.abs(B.T @ B - np.eye(5))) < 1e-10


def test_rsgm_candidates_keep_full_rank():
    # B^T G is skew after the tangent projection, so (B - mu G)^T (B - mu G)
    # = I + mu^2 G^T G: every candidate's singular values are >= 1 and the
    # polar retraction never meets a rank-deficient one
    model = sample_haar_subspace(30, 25, seed=11)
    data = generate_dataset(model, N=300, M=200, seed=12)
    A = data.points
    for B in (spectral_init(data, 5).columns, rsgm_run(data, 5, MBLS(), max_iters=200).columns):
        Bt = np.ascontiguousarray(B.T)
        Gt = _riemannian_subgradient(A, Bt, *_group_objective(A, Bt)[1])
        for mu in 10.0 ** np.arange(-6, 7):
            assert np.linalg.svd(Bt - mu * Gt, compute_uv=False).min() >= 1 - 1e-12
