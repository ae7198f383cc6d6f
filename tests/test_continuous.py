import math

import numpy as np
import pytest

from dpcp.continuous import (
    ContinuousProblem,
    continuous_fixed_point,
    continuous_objective,
    continuous_psgm_run,
    continuous_span_check,
)
from dpcp.dataset import sample_haar_subspace, unit_sphere_columns
from dpcp.geometry import ScheduleParams, hemisphere_height
from dpcp.solver import MBLS, Constant

from helpers import angle_between, rand_unit


def _problem(D=8, d=5, p=0.4, seed=0):
    return ContinuousProblem(subspace=sample_haar_subspace(D, d, seed), p=p)


def _angles(problem, trace):
    """Angle of each recorded iterate from the complement, from its complement norm."""
    return np.array([math.acos(min(float(np.linalg.norm(problem.subspace.basis_Sperp.T @ b)), 1.0))
                     for b in trace.iterates])


def test_a_converged_run_moved_less_than_stop_tol():
    # an arccos of the dot product reads moves below about 1.5e-8 as none
    rng = np.random.default_rng(3)
    for p in (0.3, 0.6):
        pr = _problem(p=p, seed=1)
        for b0 in unit_sphere_columns(rng, 8, 4).T:
            for sched in (ScheduleParams(mu0=0.3, beta=0.5, K0=50, K_star=5),
                          ScheduleParams(mu0=None, beta=0.5, K0=20, K_star=10)):
                _, trace = continuous_psgm_run(pr, b0, sched, max_iters=2000, stop_tol=1e-12,
                                               record_iterates=True)
                assert trace.stop_reason == "converged"
                assert np.linalg.norm(trace.iterates[-1] - trace.iterates[-2]) < 1e-12


def test_problem_heights_and_validation():
    pr = _problem()
    assert pr.c_d == hemisphere_height(5)
    assert pr.c_D == hemisphere_height(8)
    with pytest.raises(ValueError, match="invalid ratio"):
        ContinuousProblem(subspace=pr.subspace, p=1.2)


def test_continuous_objective_closed_form():
    pr = _problem()
    b = rand_unit(np.random.default_rng(1), 8)
    cos_phi = float(np.linalg.norm(pr.subspace.basis_S.T @ b))
    expect = pr.p * pr.c_D + (1.0 - pr.p) * pr.c_d * cos_phi
    assert abs(continuous_objective(pr, b) - expect) < 1e-15
    # extremes: b in S maximizes, b in the complement minimizes
    s_dir = pr.subspace.basis_S[:, 0]
    n_dir = pr.subspace.basis_Sperp[:, 0]
    assert continuous_objective(pr, n_dir) < continuous_objective(pr, b)
    assert continuous_objective(pr, b) < continuous_objective(pr, s_dir)
    with pytest.raises(ValueError, match="unit norm"):
        continuous_objective(pr, 2.0 * b)


def test_fixed_point_is_normalized_complement_projection():
    sub = sample_haar_subspace(7, 4, seed=3)
    b0 = rand_unit(np.random.default_rng(2), 7)
    fp = continuous_fixed_point(sub, b0)
    manual = sub.project_Sperp(b0)
    manual /= np.linalg.norm(manual)
    assert np.allclose(fp, manual, atol=1e-14)
    assert abs(np.linalg.norm(fp) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="measure-zero"):
        continuous_fixed_point(sub, sub.basis_S[:, 1])


def test_run_converges_to_closed_form_limit():
    pr = _problem(seed=5)
    b0 = rand_unit(np.random.default_rng(4), 8)
    fp = continuous_fixed_point(pr.subspace, b0)
    sched = ScheduleParams(mu0=0.3, beta=0.5, K0=50, K_star=5)
    b, trace = continuous_psgm_run(pr, b0, sched, max_iters=1000, stop_tol=1e-15,
                                   record_iterates=True)
    assert angle_between(b, fp) < 1e-9
    assert _angles(pr, trace)[-1] < 1e-9  # ends in the complement
    assert trace.objective[-1] <= trace.objective[0]


def test_run_complement_component_stays_collinear():
    pr = _problem(D=6, d=3, p=0.5, seed=6)
    b0 = rand_unit(np.random.default_rng(7), 6)
    fp = continuous_fixed_point(pr.subspace, b0)
    _, trace = continuous_psgm_run(pr, b0, Constant(0.05), max_iters=200,
                                   record_iterates=True)
    for bk in trace.iterates:
        comp = pr.subspace.project_Sperp(bk)
        assert np.linalg.norm(comp - np.linalg.norm(comp) * fp) < 1e-10


def test_run_angle_monotone_above_constant_step_floor():
    # a constant step mu contracts the angle only while
    # sin(angle) > mu (1-p) c_d / (2 (1 - mu p c_D)); below that it overshoots
    pr = _problem(D=9, d=6, p=0.3, seed=8)
    b0 = rand_unit(np.random.default_rng(9), 9)
    mu = 0.02
    _, trace = continuous_psgm_run(pr, b0, Constant(mu), max_iters=400, record_iterates=True)
    angle = _angles(pr, trace)
    floor = math.asin(mu * (1.0 - pr.p) * pr.c_d / (2.0 * (1.0 - mu * pr.p * pr.c_D)))
    above = angle[:-1] > floor + 1e-12
    assert np.all(np.diff(angle)[above] <= 1e-12)
    # once inside, the worst single-step rebound is about twice the floor
    assert angle[-1] <= 2.2 * floor


def test_run_start_in_complement_returns_immediately():
    pr = _problem(seed=10)
    b0 = pr.subspace.basis_Sperp[:, 0]
    b, trace = continuous_psgm_run(pr, b0, Constant(0.1))
    assert np.array_equal(b, b0)
    assert trace.n_iterations == 0
    assert len(trace.objective) == 1


def test_run_stop_reasons():
    pr = _problem(seed=10)
    _, trace = continuous_psgm_run(pr, pr.subspace.basis_Sperp[:, 0], Constant(0.1))
    assert trace.stop_reason == "stationary"
    b0 = rand_unit(np.random.default_rng(4), 8)
    _, trace = continuous_psgm_run(pr, b0, Constant(0.05), max_iters=5)
    assert trace.stop_reason == "max_iters"


def test_run_rejections():
    pr = _problem(seed=11)
    with pytest.raises(ValueError, match="measure-zero"):
        continuous_psgm_run(pr, pr.subspace.basis_S[:, 0], Constant(0.1))
    forbidden = 1.0 / (pr.p * pr.c_D)
    b0 = rand_unit(np.random.default_rng(12), 8)
    with pytest.raises(ValueError, match="forbidden step"):
        continuous_psgm_run(pr, b0, Constant(forbidden))
    # a decaying schedule fails at the first step that lands in S: here the
    # first decay, at k = K0 = 3, halves 2/(p c_D)
    decaying = ScheduleParams(mu0=2.0 * forbidden, beta=0.5, K0=3, K_star=2)
    with pytest.raises(ValueError, match="forbidden step"):
        continuous_psgm_run(pr, b0, decaying, max_iters=4)
    continuous_psgm_run(pr, b0, decaying, max_iters=3)
    with pytest.raises(TypeError, match="Constant and ScheduleParams"):
        continuous_psgm_run(pr, b0, MBLS())
    with pytest.raises(ValueError, match="unit norm"):
        continuous_psgm_run(pr, 2.0 * b0, Constant(0.1))
    with pytest.raises(ValueError, match="invalid solver limits"):
        continuous_psgm_run(pr, b0, Constant(0.1), stop_tol=-1.0)


def test_run_rejects_steps_near_the_forbidden_one():
    # not only the exact 1/(p c_D): any step whose candidate lands in S, here
    # one ulp above, 1e-9 below and 1.5 times it, fails in the run
    pr = _problem(seed=11)
    b0 = rand_unit(np.random.default_rng(12), 8)
    forbidden = 1.0 / (pr.p * pr.c_D)
    for mu in (np.nextafter(forbidden, np.inf), forbidden * (1 - 1e-9), 1.5 * forbidden):
        with pytest.raises(ValueError, match="forbidden step"):
            continuous_psgm_run(pr, b0, Constant(mu))


def test_run_resolves_open_first_step():
    # an open mu0 becomes f(b0)/||g(b0)||^2, the first step descend takes,
    # and the run equals one given that mu0
    pr = ContinuousProblem(subspace=sample_haar_subspace(30, 20, 3), p=0.4)
    b0 = rand_unit(np.random.default_rng(7), 30)
    open_step = ScheduleParams(mu0=None, beta=0.5, K0=20, K_star=10)
    b, trace = continuous_psgm_run(pr, b0, open_step)
    sproj = pr.subspace.project_S(b0)
    g = pr.p * pr.c_D * b0 + (1.0 - pr.p) * pr.c_d * sproj / np.linalg.norm(sproj)
    mu0 = continuous_objective(pr, b0) / (g @ g)
    assert trace.step[0] == mu0
    b_num, trace_num = continuous_psgm_run(
        pr, b0, ScheduleParams(mu0=mu0, beta=0.5, K0=20, K_star=10))
    assert np.array_equal(b, b_num)
    assert np.array_equal(trace.step, trace_num.step)
    assert trace.stop_reason == "converged"
    assert angle_between(b, continuous_fixed_point(pr.subspace, b0)) < 1e-6


def test_run_pure_inlier_mass():
    # p = 0: no outlier term, the decaying schedule still lands the iterate
    # exactly on the complement
    pr = _problem(D=5, d=3, p=0.0, seed=13)
    b0 = rand_unit(np.random.default_rng(14), 5)
    fp = continuous_fixed_point(pr.subspace, b0)
    # the flat phase must carry enough step mass (K0 mu0 c_d > theta0) before
    # the decay takes over, or the iterate freezes short of the complement
    sched = ScheduleParams(mu0=0.1, beta=0.5, K0=80, K_star=10)
    b, _ = continuous_psgm_run(pr, b0, sched, max_iters=800, stop_tol=1e-15)
    assert angle_between(b, fp) < 1e-6


def test_span_check_recovers_complement():
    sub = sample_haar_subspace(12, 7, seed=15)  # codim 5
    rng = np.random.default_rng(16)
    B0 = unit_sphere_columns(rng, 12, 8)
    B_star, rank, spans = continuous_span_check(sub, B0)
    assert B_star.shape == (12, 8)
    assert rank == 5 and spans
    # every limit column is a unit vector in the complement
    assert np.allclose(np.linalg.norm(B_star, axis=0), 1.0, atol=1e-12)
    assert np.max(np.abs(sub.basis_S.T @ B_star)) < 1e-12


def test_span_check_validation():
    sub = sample_haar_subspace(6, 3, seed=17)
    rng = np.random.default_rng(18)
    with pytest.raises(ValueError, match="invalid dimensions"):
        continuous_span_check(sub, unit_sphere_columns(rng, 6, 2))
    with pytest.raises(ValueError, match="unit norm"):
        continuous_span_check(sub, 3.0 * unit_sphere_columns(rng, 6, 4))
    bad = unit_sphere_columns(rng, 6, 4)
    bad[:, 2] = sub.basis_S[:, 0]
    with pytest.raises(ValueError, match="column 2: measure-zero"):
        continuous_span_check(sub, bad)
