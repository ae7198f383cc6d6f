import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpcp.analysis import (
    check_full_rank_condition,
    classify_outliers,
    estimate_rank,
    f1_score,
    max_subspace_angle,
    numerical_rank,
    orthonormal_column_space,
    principal_angles,
    projection_distance,
    recovery_report,
    subspace_distance,
)
from dpcp.dataset import (
    INLIER,
    OUTLIER,
    DataMatrix,
    generate_dataset,
    sample_haar_subspace,
)
from dpcp.solver import SolverConfig, psgm_multi

from helpers import grid_procrustes, rand_orthonormal


def _with_singular_values(svals, D=6, seed=0):
    rng = np.random.default_rng(seed)
    k = len(svals)
    U = rand_orthonormal(rng, D, k)
    V = rand_orthonormal(rng, k, k)
    return U @ np.diag(svals) @ V.T


def test_estimate_rank_gap():
    B = _with_singular_values([1.0, 0.9, 1e-6, 1e-7])
    rank, s = estimate_rank(B)
    assert rank == 2
    assert np.allclose(sorted(s, reverse=True), s)
    flat = _with_singular_values([1.0, 0.9, 0.8])
    assert estimate_rank(flat)[0] == 3  # no ratio reaches the gap factor
    assert estimate_rank(np.ones((4, 1)))[0] == 1
    zero_tail = _with_singular_values([1.0, 0.0])
    assert estimate_rank(zero_tail)[0] == 1  # infinite ratio counts as a gap
    with pytest.raises(ValueError, match="basis"):
        estimate_rank(np.empty((3, 0)))


def test_orthonormal_column_space():
    B = _with_singular_values([2.0, 1.0, 1e-12])
    Q = orthonormal_column_space(B)
    assert Q.shape == (6, 2)  # rank inferred, the 1e-12 direction dropped
    assert np.allclose(Q.T @ Q, np.eye(2), atol=1e-12)
    Q3 = orthonormal_column_space(B, rank=3)
    assert Q3.shape == (6, 3)
    with pytest.raises(ValueError, match="invalid rank"):
        orthonormal_column_space(B, rank=4)
    # the numerical rank counts singular values strictly above 1e-8 of the largest
    assert numerical_rank(np.array([2.0, 1.0, 1e-12])) == 2
    assert numerical_rank(np.array([1.0, 1.0000001e-8, 1e-8])) == 2


def test_subspace_distance_identities():
    rng = np.random.default_rng(1)
    A = rand_orthonormal(rng, 7, 3)
    assert subspace_distance(A, A) < 1e-14
    # same span, rotated basis
    Q = rand_orthonormal(rng, 3, 3)
    assert subspace_distance(A @ Q, A) < 1e-12
    # fully orthogonal spans: sqrt(2k)
    B = np.eye(6)[:, :2]
    C = np.eye(6)[:, 2:4]
    assert abs(subspace_distance(B, C) - math.sqrt(4.0)) < 1e-12
    assert abs(subspace_distance(B, C) - subspace_distance(C, B)) < 1e-14
    with pytest.raises(ValueError, match="shape mismatch"):
        subspace_distance(A, rand_orthonormal(rng, 7, 2))
    with pytest.raises(ValueError, match="orthonormal"):
        subspace_distance(np.ones((4, 2)), np.eye(4)[:, :2])


def test_subspace_distance_matches_grid_oracle():
    rng = np.random.default_rng(2)
    A = rand_orthonormal(rng, 4, 2)
    B = rand_orthonormal(rng, 4, 2)
    assert abs(subspace_distance(B, A) - grid_procrustes(A, B)) < 1e-3


def test_projection_distance():
    rng = np.random.default_rng(3)
    A = rand_orthonormal(rng, 5, 2)
    assert projection_distance(A, A) < 1e-12
    assert projection_distance(3.0 * A, A) < 1e-7  # only the span matters
    B = np.eye(5)[:, :2]
    C = np.eye(5)[:, 2:4]
    assert abs(projection_distance(B, C) - 2.0) < 1e-12  # sqrt(k_B + k_A)
    # widths may differ: span(B) inside span(wide) leaves one projector axis
    wide = np.eye(5)[:, :3]
    assert abs(projection_distance(wide, B) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="ambient"):
        projection_distance(A, rand_orthonormal(rng, 4, 2))
    with pytest.raises(ValueError, match="degenerate basis"):
        projection_distance(np.zeros((5, 2)), A)


def test_principal_angles_per_column():
    model = sample_haar_subspace(6, 4, seed=4)
    t = 0.3
    mixed = math.cos(t) * model.basis_Sperp[:, 0] + math.sin(t) * model.basis_S[:, 0]
    B = np.column_stack([model.basis_Sperp[:, 1], mixed])
    ang = principal_angles(B, model, against="Sperp")
    assert abs(ang[0]) < 1e-15
    assert abs(ang[1] - t) < 1e-12
    flipped = principal_angles(B, model, against="S")
    assert abs(flipped[1] - (math.pi / 2 - t)) < 1e-12
    with pytest.raises(ValueError, match="unknown subspace 'bogus'"):
        principal_angles(B, model, against="bogus")


def test_angles_resolve_below_the_arccos_floor():
    # arccos(cos 1e-10) is 0: one ulp of the cosine near 1 is 1.49e-8 rad
    model = sample_haar_subspace(6, 4, seed=4)
    t = 1e-10
    tilted = model.basis_Sperp.copy()
    tilted[:, 1] = math.cos(t) * tilted[:, 1] + math.sin(t) * model.basis_S[:, 0]
    ang = principal_angles(tilted, model)
    assert abs(ang[1] - t) < 1e-14 and ang[0] < 1e-15  # the basis is orthonormal to ~1e-16
    assert abs(max_subspace_angle(tilted, model.basis_Sperp) - t) < 1e-14


def test_max_subspace_angle():
    model = sample_haar_subspace(6, 4, seed=5)
    assert max_subspace_angle(model.basis_Sperp, model.basis_Sperp) < 1e-15
    assert max_subspace_angle(model.basis_S[:, :1], model.basis_Sperp) > 1.5
    # wider candidate than target: pi/2 by convention
    assert max_subspace_angle(np.eye(6)[:, :3], np.eye(6)[:, :2]) == math.pi / 2


def test_classify_outliers_auto_threshold():
    model = sample_haar_subspace(8, 5, seed=6)
    data = generate_dataset(model, N=60, M=30, seed=7)
    predicted = classify_outliers(data, model.basis_Sperp)
    assert np.array_equal(predicted, data.labels)  # clean data: exact split
    with pytest.raises(ValueError, match="ambient"):
        classify_outliers(data, np.eye(5)[:, :2])


def test_classify_outliers_scale_invariant():
    # the no-outlier cut is relative to the largest score, so scaling the
    # points leaves every label
    model = sample_haar_subspace(20, 17, seed=3)
    data = generate_dataset(model, N=300, M=100, seed=4)
    assert np.array_equal(classify_outliers(data, model.basis_Sperp), data.labels)
    for scale in (1e-7, 1e7):
        scaled = DataMatrix(points=scale * data.points, labels=data.labels)
        assert np.array_equal(classify_outliers(scaled, model.basis_Sperp), data.labels)
    # all-zero scores stay on the no-outlier branch, with no log(0)
    zero = classify_outliers(DataMatrix(points=np.eye(3)[:, 1:]), np.eye(3)[:, :1])
    assert set(zero) == {INLIER}


def test_classify_outliers_flat_scores_mean_no_outliers():
    pts = np.eye(4)  # every score equal under the full-complement basis
    m = DataMatrix(points=pts)
    predicted = classify_outliers(m, np.eye(4))
    assert set(predicted) == {INLIER}


def test_classify_outliers_exact_zero_scores():
    m = DataMatrix(points=np.eye(3))
    basis = np.eye(3)[:, :1]  # scores 1, 0, 0: the zeros are floored, then split off
    predicted = classify_outliers(m, basis)
    assert list(predicted) == [OUTLIER, INLIER, INLIER]


def test_classify_outliers_log_gap_beats_tail_spacings():
    # inlier scores sit orders of magnitude below outlier scores, but the
    # largest absolute spacing lives in the outliers' right tail; the
    # multiplicative gap must still split at the boundary
    rng = np.random.default_rng(8)
    scores_in = rng.uniform(1e-9, 5e-8, 500)
    scores_out = np.sort(rng.uniform(3e-3, 1.0, 1500))
    pts = np.zeros((2, 2000))
    pts[0, :500] = scores_in
    pts[0, 500:] = scores_out
    pts[1] = np.sqrt(1.0 - pts[0] ** 2)
    truth = np.array([INLIER] * 500 + [OUTLIER] * 1500)
    m = DataMatrix(points=pts, labels=truth, unit_normalized=True)
    assert np.diff(scores_out).max() > scores_out[0]  # tail spacing dominates
    predicted = classify_outliers(m, np.eye(2)[:, :1])
    assert np.array_equal(predicted, truth)


def test_f1_score():
    t = [INLIER, OUTLIER, OUTLIER, INLIER]
    assert f1_score(t, t) == (1.0, 1.0, 1.0)
    p = [OUTLIER, OUTLIER, INLIER, INLIER]
    prec, rec, f1 = f1_score(p, t)
    assert (prec, rec) == (0.5, 0.5) and abs(f1 - 0.5) < 1e-15
    assert f1_score([INLIER, INLIER], [OUTLIER, OUTLIER])[2] == 0.0
    assert f1_score([INLIER], [INLIER]) == (1.0, 1.0, 1.0)  # no positives anywhere
    assert f1_score(np.array([True, False]), np.array([False, False]))[0] == 0.0
    with pytest.raises(ValueError, match="same length"):
        f1_score([INLIER], [INLIER, OUTLIER])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=30), st.data())
def test_f1_score_bounds(pred, data):
    truth = data.draw(st.lists(st.booleans(), min_size=len(pred), max_size=len(pred)))
    prec, rec, f1 = f1_score(np.array(pred), np.array(truth))
    assert 0.0 <= prec <= 1.0 and 0.0 <= rec <= 1.0 and 0.0 <= f1 <= 1.0
    assert f1 <= max(prec, rec) + 1e-15


def test_check_full_rank_condition():
    ok, smin = check_full_rank_condition(np.eye(5)[:, :3], 0.5)
    assert ok and abs(smin - 1.0) < 1e-12
    bad, _ = check_full_rank_condition(np.eye(5)[:, :3], 1.5)
    assert not bad
    with pytest.raises(ValueError, match="tall"):
        check_full_rank_condition(np.ones((2, 4)), 0.1)


def test_recovery_report_end_to_end():
    model = sample_haar_subspace(6, 4, seed=9)
    data = generate_dataset(model, N=200, M=60, seed=10)
    basis = psgm_multi(data, SolverConfig(c_prime=4, seed=1, max_iters=300,
                                          stop_tol=1e-12))
    rep = recovery_report(basis, model=model, matrix=data)
    assert rep.estimated_codim == 2
    assert rep.orthonormalized_complement.shape == (6, 2)
    assert rep.procrustes_distance is not None and rep.procrustes_distance < 1e-3
    assert rep.projection_distance < 1e-3
    assert rep.max_principal_angle < 1e-3
    assert rep.outlier_f1 == rep.outlier_precision == rep.outlier_recall == 1.0
    assert len(rep.singular_values) == 4


def test_recovery_report_partial_inputs():
    basis = np.eye(5)[:, :2]
    bare = recovery_report(basis)
    assert bare.estimated_codim == 2
    assert bare.procrustes_distance is None and bare.projection_distance is None
    assert bare.outlier_f1 is None
    model = sample_haar_subspace(5, 3, seed=11)
    narrow = recovery_report(np.eye(5)[:, :1], model=model)
    # estimated codim 1 != true codim 2: no aligned distance, others defined
    assert narrow.estimated_codim == 1
    assert narrow.procrustes_distance is None
    assert narrow.projection_distance is not None
