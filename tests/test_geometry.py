import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpcp.dataset import (
    DataMatrix,
    SubspaceModel,
    generate_dataset,
    sample_haar_subspace,
    unit_sphere_columns,
)
from dpcp.geometry import (
    GeometryStats,
    ScheduleParams,
    beta_upper_bound,
    check_init_condition,
    continuous_limit_stats,
    estimate_eta,
    estimate_extremal_average,
    estimate_stats,
    hemisphere_height,
    k_diamond,
    kappa_and_r,
    mu_prime,
    recovery_condition,
    theory_report,
)

from helpers import count_products, mc_hemisphere_height, summed_kappa

HAND_STATS = GeometryStats(
    c_X_min=0.4, c_X_max=0.6, c_O_min=0.2, c_O_max=0.5,
    eta_X=0.05, eta_O=0.1, c_d=0.5, c_D=0.25,
)


def test_hemisphere_height_closed_forms():
    assert hemisphere_height(1) == 1.0
    assert abs(hemisphere_height(2) - 2.0 / math.pi) < 1e-15
    assert abs(hemisphere_height(3) - 0.5) < 1e-15
    assert abs(hemisphere_height(4) - 4.0 / (3.0 * math.pi)) < 1e-15
    assert abs(hemisphere_height(5) - 3.0 / 8.0) < 1e-15
    with pytest.raises(ValueError, match="invalid dimension"):
        hemisphere_height(0)


@pytest.mark.parametrize("k", [2, 3, 8])
def test_hemisphere_height_matches_monte_carlo(k):
    mc = mc_hemisphere_height(k, n_samples=200_000, seed=k)
    assert abs(hemisphere_height(k) - mc) < 4e-3


def test_hemisphere_height_asymptotics():
    # c_k ~ sqrt(2 / (pi k)) for large k
    k = 10_000
    assert abs(hemisphere_height(k) * math.sqrt(math.pi * k / 2.0) - 1.0) < 1e-3


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=199))
def test_hemisphere_height_strictly_decreasing(k):
    assert hemisphere_height(k) > hemisphere_height(k + 1)


def test_continuous_limit_stats_fields():
    s = continuous_limit_stats(10, 30)
    assert s.c_X_min == s.c_X_max == s.c_d == hemisphere_height(10)
    assert s.c_O_min == s.c_O_max == s.c_D == hemisphere_height(30)
    assert s.eta_X == 0.0 and s.eta_O == 0.0
    assert s.estimation_meta["source"] == "continuous-limit"


def test_geometry_stats_validation():
    ok = dict(c_X_min=0.3, c_X_max=0.4, c_O_min=0.1, c_O_max=0.2,
              eta_X=0.0, eta_O=0.0, c_d=0.5, c_D=0.25)
    GeometryStats(**ok)
    with pytest.raises(ValueError, match="outside"):
        GeometryStats(**{**ok, "c_X_max": 1.5})
    with pytest.raises(ValueError, match="min > max"):
        GeometryStats(**{**ok, "c_X_min": 0.41})
    with pytest.raises(ValueError, match="nonnegative"):
        GeometryStats(**{**ok, "eta_O": -0.1})
    with pytest.raises(ValueError, match="c_D <= c_d"):
        GeometryStats(**{**ok, "c_D": 0.6})


def test_schedule_params_resolution_and_validation():
    s = ScheduleParams(mu0=(0.1, 0.2), beta=0.5, K0=3, K_star=2)
    assert s.mu0_for(0) == 0.1 and s.mu0_for(1) == 0.2
    assert s.mu0_list() == (0.1, 0.2)
    scalar = ScheduleParams(mu0=0.3, beta=0.5, K0=1, K_star=1)
    assert scalar.mu0_for(5) == 0.3
    assert scalar.mu0_list() == (0.3,)
    unresolved = ScheduleParams(mu0=None, beta=0.5, K0=1, K_star=1)
    assert unresolved.mu0_for() is None
    with pytest.raises(ValueError, match="unresolved"):
        unresolved.mu0_list()
    with pytest.raises(ValueError, match="invalid step"):
        ScheduleParams(mu0=0.0, beta=0.5, K0=1, K_star=1)
    with pytest.raises(ValueError, match="invalid decay"):
        ScheduleParams(mu0=0.1, beta=1.0, K0=1, K_star=1)
    with pytest.raises(ValueError, match="invalid schedule"):
        ScheduleParams(mu0=0.1, beta=0.5, K0=0, K_star=1)


def test_extremal_average_two_point_closed_form():
    # points e1, e2 in the plane: mean |<e_j, b>| has min 1/2 on an axis and
    # max sqrt(2)/2 on the diagonal
    A = np.eye(2)
    lo = estimate_extremal_average(A, "min", seed=1)
    hi = estimate_extremal_average(A, "max", seed=1)
    assert abs(lo - 0.5) < 1e-6
    assert abs(hi - math.sqrt(2.0) / 2.0) < 1e-6


def test_extremal_average_restricted_to_subspace():
    S = np.eye(4)[:, :2]
    model = SubspaceModel(basis_S=S, basis_Sperp=np.eye(4)[:, 2:])
    pts = S  # the same two points embedded in R^4
    lo = estimate_extremal_average(pts, "min", restrict_to_subspace=model, seed=2)
    hi = estimate_extremal_average(pts, "max", restrict_to_subspace=model, seed=2)
    assert abs(lo - 0.5) < 1e-6
    assert abs(hi - math.sqrt(2.0) / 2.0) < 1e-6
    with pytest.raises(ValueError, match="mode"):
        estimate_extremal_average(pts, "median")
    with pytest.raises(ValueError, match="non-empty"):
        estimate_extremal_average(np.ones(3), "min")


def test_extremal_average_accepts_data_matrix():
    d = DataMatrix(points=np.eye(3))
    v = estimate_extremal_average(d, "min", seed=0)
    assert abs(v - 1.0 / 3.0) < 1e-6  # min of (|b1|+|b2|+|b3|)/3 on the sphere


def test_extremal_refinement_spends_two_products_per_iteration():
    model = sample_haar_subspace(6, 4, seed=1)
    counts = []
    for iters in (50, 60):
        data = generate_dataset(model, N=60, M=40, seed=2)
        products = count_products(data)
        estimate_extremal_average(data, "max", n_samples=16, n_restarts=1,
                                  refine_iters=iters, seed=3)
        counts.append(products[0])
    # one product for the probes, two at the start of the refinement, two per step
    assert counts == [1 + 2 + 2 * 50, 1 + 2 + 2 * 60]


def test_refinement_panel_spends_the_products_of_one_restart():
    model = sample_haar_subspace(6, 4, seed=1)
    for estimate, probe_products in ((estimate_extremal_average, 1), (estimate_eta, 2)):
        counts = []
        for restarts in (1, 3, 6):
            data = generate_dataset(model, N=60, M=40, seed=2)
            products = count_products(data)
            args = (data, "max") if estimate is estimate_extremal_average else (data,)
            estimate(*args, n_samples=16, n_restarts=restarts, refine_iters=40, seed=3)
            counts.append(products[0])
        # the restarts step as the rows of one panel: two block products per step
        assert counts == [probe_products + 2 + 2 * 40] * 3


@pytest.mark.parametrize("arg", ["n_samples", "n_restarts", "refine_iters"])
@pytest.mark.parametrize("bad", [0, -3])
def test_estimators_reject_search_sizes_below_one(arg, bad):
    model = sample_haar_subspace(6, 4, seed=1)
    data = generate_dataset(model, N=60, M=40, seed=2)
    for call in (lambda **kw: estimate_extremal_average(data, "min", **kw),
                 lambda **kw: estimate_eta(data, **kw),
                 lambda **kw: estimate_stats(data, model, **kw)):
        with pytest.raises(ValueError, match=f"{arg} must be >= 1, got {bad}"):
            call(**{arg: bad})


def test_estimate_stats_needs_inliers_and_zeroes_outlier_stats_without_outliers():
    model = sample_haar_subspace(6, 4, seed=1)
    with pytest.raises(ValueError, match="inlier class is empty"):
        estimate_stats(generate_dataset(model, N=0, M=40, seed=2), model)
    s = estimate_stats(generate_dataset(model, N=60, M=0, seed=2), model, n_samples=16)
    assert s.c_O_min == s.c_O_max == s.eta_O == 0.0
    assert s.c_X_min > 0 and s.eta_X > 0


def test_estimate_eta_against_grid_oracle():
    # in the plane the objective can be maximized by brute force over angles;
    # the hybrid search is a lower bound and should land within 5e-3 of it
    rng = np.random.default_rng(7)
    A = unit_sphere_columns(rng, 2, 25)
    n = A.shape[1]
    th = np.linspace(0.0, 2.0 * np.pi, 200_000, endpoint=False)
    B = np.vstack([np.cos(th), np.sin(th)])
    W = A @ np.sign(A.T @ B) / n
    resid = W - B * np.einsum("ij,ij->j", B, W)
    grid_max = float(np.linalg.norm(resid, axis=0).max())
    est = estimate_eta(A, seed=11, n_samples=1024, n_restarts=12)
    assert grid_max - 5e-3 <= est <= grid_max + 1e-3


def test_estimate_eta_single_point_near_one():
    # one point: sup_b ||(I - b b^T) p sgn(<p, b>)|| approaches 1 near b _|_ p
    est = estimate_eta(np.array([[1.0], [0.0]]), seed=0)
    assert 0.99 <= est <= 1.0 + 1e-9


def test_estimate_stats_fields_and_convergence():
    model = sample_haar_subspace(3, 2, seed=0)
    data = generate_dataset(model, N=4000, M=0, seed=1)
    s = estimate_stats(data, model, n_samples=128, n_restarts=4)
    assert s.c_d == hemisphere_height(2) and s.c_D == hemisphere_height(3)
    # with 4000 inliers the extremal averages hug the hemisphere height
    assert abs(s.c_X_min - s.c_d) < 0.02
    assert abs(s.c_X_max - s.c_d) < 0.02
    assert s.c_X_min <= s.c_X_max
    assert s.estimation_meta["bound_side"]["c_X_min"] == "upper"
    assert s.estimation_meta["bound_side"]["eta_O"] == "lower"
    unlabeled = DataMatrix(points=data.points)
    with pytest.raises(ValueError, match="labeled"):
        estimate_stats(unlabeled, model)


def test_check_init_condition():
    holds, margin = check_init_condition(1.0, HAND_STATS, N=100, M=50)
    # limit = arctan(40 / 10), level margin 30
    assert holds
    assert abs(margin - min(math.atan(4.0) - 1.0, 30.0)) < 1e-12
    fails, neg = check_init_condition(1.4, HAND_STATS, N=100, M=50)
    assert not fails and neg < 0
    s = continuous_limit_stats(5, 10)
    holds, margin = check_init_condition(1.5, s, N=10, M=10)
    assert holds  # eta = 0 pushes the angle limit to pi/2
    assert abs(margin - (math.pi / 2 - 1.5)) < 1e-12
    with pytest.raises(ValueError, match="theta0"):
        check_init_condition(-0.1, s, 10, 10)


def test_mu_prime():
    assert mu_prime(HAND_STATS, N=100, M=50) == 1.0 / (4.0 * 40.0)
    assert mu_prime(HAND_STATS, N=1, M=50) == 1.0 / (4.0 * 25.0)
    degenerate = GeometryStats(c_X_min=0.0, c_X_max=0.0, c_O_min=0.0, c_O_max=0.0,
                               eta_X=0.0, eta_O=0.0, c_d=0.5, c_D=0.25)
    with pytest.raises(ValueError, match="undefined scale"):
        mu_prime(degenerate, N=10, M=10)


def test_k_diamond_scaling_and_failure():
    kd1 = k_diamond(0.01, 0.8, HAND_STATS, N=100, M=50)
    kd2 = k_diamond(0.02, 0.8, HAND_STATS, N=100, M=50)
    assert kd1 > 0
    assert abs(kd1 - 2.0 * kd2) < 1e-9 * kd1  # denominator is linear in mu
    with pytest.raises(ValueError, match="invalid step"):
        k_diamond(0.0, 0.8, HAND_STATS, 100, 50)
    weak = GeometryStats(c_X_min=0.05, c_X_max=0.6, c_O_min=0.2, c_O_max=0.5,
                         eta_X=0.05, eta_O=0.1, c_d=0.5, c_D=0.25)
    with pytest.raises(ValueError, match="condition violated"):
        k_diamond(0.01, 0.8, weak, N=100, M=50)


def test_beta_upper_bound():
    b1 = beta_upper_bound(1e-3, HAND_STATS, N=100, M=50, K_star=1)
    b2 = beta_upper_bound(1e-3, HAND_STATS, N=100, M=50, K_star=2)
    assert 0 < b1 < 1
    assert abs(b2 - b1**2) < 1e-15
    assert beta_upper_bound(0.0, HAND_STATS, 100, 50, K_star=3) == 1.0
    with pytest.raises(ValueError, match="invalid step"):
        beta_upper_bound(0.09, HAND_STATS, N=100, M=50, K_star=1)  # mu0*M*c_D > 1
    with pytest.raises(ValueError, match="invalid step"):
        beta_upper_bound(-1e-3, HAND_STATS, 100, 50, K_star=1)
    with pytest.raises(ValueError, match="invalid schedule"):
        beta_upper_bound(1e-3, HAND_STATS, 100, 50, K_star=0)


def test_kappa_matches_series_summation():
    stats = continuous_limit_stats(50, 100)
    N = M = 1000
    sched = ScheduleParams(mu0=1e-4, beta=0.5, K0=10, K_star=10)
    kappa, r_list = kappa_and_r(sched, stats, N, M)
    growth = N * (stats.eta_X + stats.c_X_max) + M * (stats.eta_O + stats.c_O_max)
    shrink = 1.0 - 1e-4 * M * stats.c_D
    oracle = summed_kappa(1e-4, 0.5, 10, 10, growth, shrink, M)
    assert abs(kappa - oracle) <= 1e-9 * oracle
    assert len(r_list) == 1 and 0 < r_list[0] < 1


def test_kappa_divergence_and_multi_instance():
    bad = ScheduleParams(mu0=1e-4, beta=0.5, K0=10, K_star=10)
    with pytest.raises(ValueError, match="divergent series: instance 0"):
        kappa_and_r(bad, continuous_limit_stats(5, 10), N=1000, M=1000)
    stats = continuous_limit_stats(50, 100)
    multi = ScheduleParams(mu0=(1e-4, 2e-4), beta=0.5, K0=10, K_star=10)
    kappa, r_list = kappa_and_r(multi, stats, N=1000, M=1000)
    assert len(r_list) == 2 and r_list[0] < r_list[1] < 1
    solo = ScheduleParams(mu0=2e-4, beta=0.5, K0=10, K_star=10)
    assert kappa == kappa_and_r(solo, stats, 1000, 1000)[0]  # max over instances
    huge = ScheduleParams(mu0=20.0, beta=0.5, K0=10, K_star=10)
    with pytest.raises(ValueError, match="invalid step"):
        kappa_and_r(huge, stats, N=1000, M=1000)


def test_recovery_condition_arithmetic():
    # eta_O + c_O_max - c_d = 0 zeroes the bound, so the margin is the pure
    # dimension term 1 - sqrt(c'/D) - eps/sqrt(D)
    flat = GeometryStats(c_X_min=0.5, c_X_max=0.5, c_O_min=0.5, c_O_max=0.5,
                         eta_X=0.0, eta_O=0.0, c_d=0.5, c_D=0.25)
    rep = recovery_condition(10, 200, flat, kappa=3.0)
    assert rep.delta_bound == 0.0
    assert abs(rep.margin - (1.0 - math.sqrt(0.05) - 1.0 / math.sqrt(200))) < 1e-15
    assert rep.condition_holds
    assert rep.probability_lower_bound == 0.0  # 1 - 2 exp(-0.5) < 0, floored
    strong = recovery_condition(10, 200, flat, kappa=3.0, epsilon=3.0)
    assert abs(strong.probability_lower_bound - (1.0 - 2.0 * math.exp(-4.5))) < 1e-15
    wide = recovery_condition(199, 200, flat, kappa=3.0)
    assert not wide.condition_holds and wide.margin < 0


def test_recovery_condition_validation():
    flat = continuous_limit_stats(5, 10)
    with pytest.raises(ValueError, match="invalid dimensions"):
        recovery_condition(0, 10, flat, kappa=1.0)
    with pytest.raises(ValueError, match="invalid dimensions"):
        recovery_condition(11, 10, flat, kappa=1.0)
    with pytest.raises(ValueError, match="kappa"):
        recovery_condition(2, 10, flat, kappa=math.inf)
    with pytest.raises(ValueError, match="kappa"):
        recovery_condition(2, 10, flat, kappa=-0.5)


def test_theory_report_assembles_extremes_over_instances():
    stats = continuous_limit_stats(50, 100)
    N = M = 1000
    sched = ScheduleParams(mu0=(1e-4, 2e-4), beta=0.5, K0=10, K_star=10)
    rep = theory_report(stats, N, M, c_prime=10, D=100, theta0=1.0, schedule=sched)
    assert rep.mu_prime == mu_prime(stats, N, M)
    kd = max(k_diamond(m, 1.0, stats, N, M) for m in (1e-4, 2e-4))
    bm = min(beta_upper_bound(m, stats, N, M, 10) for m in (1e-4, 2e-4))
    assert rep.K_diamond == kd and rep.beta_max == bm
    assert rep.kappa == kappa_and_r(sched, stats, N, M)[0]
    assert len(rep.r_list) == 2
    assert rep.delta_bound < 0  # c_O_max < c_d here
    assert rep.condition_holds and rep.margin > 0
