"""Geometric statistics of a dataset and evaluators for the recovery guarantees.

The quantities here summarize how well inliers permeate their subspace and how
evenly outliers cover the sphere: extremal averages c_min/c_max of |<x, b>|
over unit directions b, the tangential-residual maxima eta, and the
closed-form hemisphere height c_k that both approach as sample counts grow.
Every estimate comes from one search: probe the sphere with random unit
directions, then refine from the best probes by projected subgradient steps.
On top of them sit the sufficient-condition evaluators: the initial-angle
test, the certified step cap mu', the iteration threshold K_diamond, the decay
bound on beta, the accumulated-step constant kappa, and the spectral recovery
condition with its probability floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, SubspaceModel, unit_sphere_columns


def hemisphere_height(k: int) -> float:
    """Average height E|<b, z>| of a uniform unit vector z in R^k against any fixed b.

    Equals ((k-2)!!/(k-1)!!) times 2/pi for even k and 1 for odd k, with the
    conventions 0!! = (-1)!! = 1. Strictly decreasing in k; c_1 = 1.
    """
    if k < 1:
        raise ValueError(f"invalid dimension: need k >= 1, got {k}")
    t = 1.0
    num, den = k - 2, k - 1
    while num > 0:
        t *= num / den
        num -= 2
        den -= 2
    return t * (2.0 / math.pi) if k % 2 == 0 else t


@dataclass(frozen=True)
class GeometryStats:
    """Permeance / coverage statistics of one labeled dataset.

    c_X_* are averages of |<x, b>| over inliers with b ranging over the unit
    sphere of S; c_O_* the same over outliers with b ranging over the full
    sphere. eta_X and eta_O are the worst-case tangential residuals of the
    sign-weighted sums (normalized by N and M respectively). c_d and c_D are
    hemisphere heights at the inlier and ambient dimensions.
    """

    c_X_min: float
    c_X_max: float
    c_O_min: float
    c_O_max: float
    eta_X: float
    eta_O: float
    c_d: float
    c_D: float
    estimation_meta: dict | None = None

    def __post_init__(self):
        slack = 1e-9
        for name in ("c_X_min", "c_X_max", "c_O_min", "c_O_max"):
            v = getattr(self, name)
            if not -slack <= v <= 1.0 + slack:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.c_X_min > self.c_X_max + slack or self.c_O_min > self.c_O_max + slack:
            raise ValueError("extremal averages out of order (min > max)")
        if self.eta_X < -slack or self.eta_O < -slack:
            raise ValueError("eta values must be nonnegative")
        if not 0.0 < self.c_D <= self.c_d <= 1.0:
            raise ValueError("need 0 < c_D <= c_d <= 1")


def continuous_limit_stats(d: int, D: int) -> GeometryStats:
    """Stats in the infinite-sample limit: averages collapse to hemisphere
    heights and the tangential residuals vanish."""
    c_d = hemisphere_height(d)
    c_D = hemisphere_height(D)
    return GeometryStats(
        c_X_min=c_d, c_X_max=c_d, c_O_min=c_D, c_O_max=c_D,
        eta_X=0.0, eta_O=0.0, c_d=c_d, c_D=c_D,
        estimation_meta={"source": "continuous-limit"},
    )


@dataclass(frozen=True)
class ScheduleParams:
    """Piecewise-geometric step rule: mu0 for k < K0, then mu0 * beta^(floor((k-K0)/K_star)+1).

    mu0 may be a scalar, a per-instance tuple, or None (resolved by the solver
    from the first iterate).
    """

    mu0: float | tuple[float, ...] | None
    beta: float
    K0: int
    K_star: int

    def __post_init__(self):
        if self.mu0 is not None:
            vals = self.mu0 if isinstance(self.mu0, tuple) else (self.mu0,)
            if any(not v > 0 for v in vals):
                raise ValueError("invalid step: every mu0 must be > 0")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"invalid decay: need 0 < beta < 1, got {self.beta}")
        if self.K0 < 1 or self.K_star < 1:
            raise ValueError("invalid schedule: need K0 >= 1 and K_star >= 1")

    def mu0_for(self, instance: int = 0) -> float | None:
        if self.mu0 is None:
            return None
        if isinstance(self.mu0, tuple):
            return self.mu0[instance]
        return float(self.mu0)

    def mu0_list(self) -> tuple[float, ...]:
        if self.mu0 is None:
            raise ValueError("mu0 is unresolved; supply a numeric value")
        return self.mu0 if isinstance(self.mu0, tuple) else (float(self.mu0),)


@dataclass(frozen=True)
class TheoryReport:
    """Outcome of the sufficient-condition evaluators.

    margin > 0 iff condition_holds; fields that a given evaluation cannot
    supply are None.
    """

    condition_holds: bool
    margin: float
    probability_lower_bound: float | None
    kappa: float | None
    r_list: list[float] | None
    delta_bound: float | None
    mu_prime: float | None
    K_diamond: float | None
    beta_max: float | None


# ---------------------------------------------------------------------------
# sphere estimators: probe the sphere, then refine from the best probes

_TOL = 1e-9  # the step the refinements decay to


def _columns(points) -> np.ndarray:
    a = points.points if isinstance(points, DataMatrix) else np.asarray(points, dtype=float)
    if a.ndim != 2 or a.shape[1] == 0:
        raise ValueError("points must be a non-empty (dim, n) array")
    return a


def _probe_and_refine(fg, probes, vals, mode, n_restarts, n_iters) -> float:
    """The min or max (mode) of f over the probe columns, where vals holds f,
    and over projected subgradient descents or ascents of n_iters normalized
    steps, decaying from 0.2 to _TOL, from the n_restarts best probes. fg(b)
    returns (f, g), g=None at a stationary point."""
    sign = 1.0 if mode == "max" else -1.0
    order = np.argsort(vals)[::-1] if mode == "max" else np.argsort(vals)
    found = [float(vals[order[0]])]
    decay = (_TOL / 0.2) ** (1.0 / max(n_iters - 1, 1))
    for j in order[: max(n_restarts, 1)]:
        b = probes[:, j].copy()
        best, g = fg(b)
        mu = 0.2
        for _ in range(n_iters):
            if g is None:
                break
            gt = g - (g @ b) * b
            ng = np.linalg.norm(gt)
            if ng < 1e-16:
                break
            b = b + sign * mu * gt / ng
            b /= np.linalg.norm(b)
            f, g = fg(b)
            if sign * f > sign * best:
                best = f
            mu *= decay
        found.append(best)
    return max(found) if mode == "max" else min(found)


def estimate_extremal_average(
    points,
    mode: str,
    restrict_to_subspace: SubspaceModel | None = None,
    n_samples: int = 256,
    n_restarts: int = 6,
    seed: int = 0,
    refine_iters: int = 250,
) -> float:
    """Estimate min or max over unit b of mean_j |<p_j, b>|.

    With restrict_to_subspace, b ranges over the unit sphere of that subspace.
    Sphere probes seed local subgradient refinements, so the result is an
    upper bound of the true min (mode="min") and a lower bound of the true max
    (mode="max").
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    A = _columns(points)
    W = restrict_to_subspace.basis_S.T @ A if restrict_to_subspace is not None else A
    dim, n = W.shape

    def fg(b):
        s = W.T @ b
        return float(np.abs(s).mean()), W @ np.sign(s) / n

    probes = unit_sphere_columns(np.random.default_rng(seed), dim, n_samples)
    vals = np.abs(W.T @ probes).mean(axis=0)
    return _probe_and_refine(fg, probes, vals, mode, n_restarts, refine_iters)


def estimate_eta(
    points,
    subspace: SubspaceModel | None = None,
    n_samples: int = 256,
    n_restarts: int = 6,
    seed: int = 0,
    refine_iters: int = 250,
) -> float:
    """Estimate max over unit b of ||(P - b b^T) A sgn(A^T b)||_2 / n.

    P projects onto the given subspace (identity when subspace is None). The
    probe-and-refine search gives a lower bound of the true maximum.
    """
    A = _columns(points)
    n = A.shape[1]
    proj = subspace.project_S if subspace is not None else (lambda V: V)

    def fg(b):
        w = A @ np.sign(A.T @ b) / n
        u = proj(w) - (b @ w) * b
        hb = float(np.linalg.norm(u))
        return hb, None if hb < 1e-18 else (-(u @ b) * w - (b @ w) * u) / hb

    B = unit_sphere_columns(np.random.default_rng(seed), A.shape[0], n_samples)
    W = A @ np.sign(A.T @ B) / n
    U = proj(W) - B * np.einsum("ij,ij->j", B, W)
    h = np.linalg.norm(U, axis=0)
    return _probe_and_refine(fg, B, h, "max", n_restarts, refine_iters)


def estimate_stats(
    matrix: DataMatrix,
    model: SubspaceModel,
    n_samples: int = 256,
    n_restarts: int = 6,
    seed: int = 0,
    refine_iters: int = 250,
) -> GeometryStats:
    """Estimate all geometry statistics of a labeled dataset against its model."""
    if matrix.labels is None:
        raise ValueError("estimate_stats needs a labeled dataset")
    X, O = matrix.split()
    kw = dict(n_samples=n_samples, n_restarts=n_restarts, refine_iters=refine_iters)
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(6)]
    c_X_min = estimate_extremal_average(X, "min", model, seed=seeds[0], **kw) if X.size else 0.0
    c_X_max = estimate_extremal_average(X, "max", model, seed=seeds[1], **kw) if X.size else 0.0
    c_O_min = estimate_extremal_average(O, "min", None, seed=seeds[2], **kw) if O.size else 0.0
    c_O_max = estimate_extremal_average(O, "max", None, seed=seeds[3], **kw) if O.size else 0.0
    eta_X = estimate_eta(X, model, seed=seeds[4], **kw) if X.size else 0.0
    eta_O = estimate_eta(O, None, seed=seeds[5], **kw) if O.size else 0.0
    return GeometryStats(
        c_X_min=c_X_min, c_X_max=c_X_max, c_O_min=c_O_min, c_O_max=c_O_max,
        eta_X=eta_X, eta_O=eta_O,
        c_d=hemisphere_height(model.inlier_dim),
        c_D=hemisphere_height(model.ambient_dim),
        estimation_meta={
            "n_samples": n_samples,
            "n_restarts": n_restarts,
            "achieved_tol": _TOL,
            "bound_side": {
                "c_X_min": "upper", "c_X_max": "lower",
                "c_O_min": "upper", "c_O_max": "lower",
                "eta_X": "lower", "eta_O": "lower",
            },
        },
    )


# ---------------------------------------------------------------------------
# sufficient-condition evaluators


def check_init_condition(theta0: float, stats: GeometryStats, N: int, M: int) -> tuple[bool, float]:
    """Initial-angle test: theta0 < arctan(N c_X_min / (N eta_X + M eta_O))
    and N c_X_min >= N eta_X + M eta_O. Returns (holds, min of the two margins)."""
    if not 0.0 <= theta0 <= math.pi / 2:
        raise ValueError(f"theta0 must lie in [0, pi/2], got {theta0}")
    num = N * stats.c_X_min
    den = N * stats.eta_X + M * stats.eta_O
    limit = math.pi / 2 if den == 0 else math.atan(num / den)
    angle_margin = limit - theta0
    level_margin = num - den
    return theta0 < limit and level_margin >= 0, min(angle_margin, level_margin)


def mu_prime(stats: GeometryStats, N: int, M: int) -> float:
    """Certified constant step cap: 1 / (4 max(N c_X_min, M c_O_max))."""
    scale = max(N * stats.c_X_min, M * stats.c_O_max)
    if scale <= 0:
        raise ValueError("undefined scale: both N*c_X_min and M*c_O_max vanish")
    return 1.0 / (4.0 * scale)


def k_diamond(mu: float, theta0: float, stats: GeometryStats, N: int, M: int) -> float:
    """Iterations guaranteed to bring a constant-step run into the decay regime:
    tan(theta0) / (mu (N c_X_min - max(1, tan theta0)(N eta_X + M eta_O)))."""
    if mu <= 0:
        raise ValueError("invalid step: mu must be > 0")
    t = math.tan(theta0)
    den = mu * (N * stats.c_X_min - max(1.0, t) * (N * stats.eta_X + M * stats.eta_O))
    if den <= 0:
        raise ValueError("condition violated: nonpositive denominator, premises do not hold")
    return t / den


def k_star_lower_bound(beta: float, stats: GeometryStats, N: int, M: int) -> float:
    """Smallest admissible decay period K_star for a given beta."""
    if not 0.0 < beta < 1.0:
        raise ValueError("need 0 < beta < 1")
    den = math.sqrt(2.0) * beta * mu_prime(stats, N, M) * (
        N * stats.c_X_min - (N * stats.eta_X + M * stats.eta_O)
    )
    if den <= 0:
        raise ValueError("condition violated: nonpositive denominator, premises do not hold")
    return 1.0 / den


def beta_upper_bound(mu0: float, stats: GeometryStats, N: int, M: int, K_star: int) -> float:
    """Largest certified decay factor for one instance:
    ((1 - mu0 M c_D) / (1 + mu0 (N(eta_X + c_X_max) + M(eta_O + c_O_max))))^K_star."""
    if mu0 < 0:
        raise ValueError("invalid step: mu0 must be >= 0")
    if K_star < 1:
        raise ValueError("invalid schedule: K_star >= 1")
    num = 1.0 - mu0 * M * stats.c_D
    if num <= 0:
        raise ValueError(f"invalid step: mu0*M*c_D = {mu0 * M * stats.c_D:.6g} must be < 1")
    den = 1.0 + mu0 * (N * (stats.eta_X + stats.c_X_max) + M * (stats.eta_O + stats.c_O_max))
    return (num / den) ** K_star


def kappa_and_r(schedule: ScheduleParams, stats: GeometryStats, N: int, M: int) -> tuple[float, list[float]]:
    """Accumulated-step constant kappa = max_i M mu0_i / (beta^(K0/K_star) (1 - r_i))
    and the per-instance ratios r_i; every r_i must be < 1 for the underlying
    geometric series to converge."""
    r_list: list[float] = []
    kappas: list[float] = []
    growth = N * (stats.eta_X + stats.c_X_max) + M * (stats.eta_O + stats.c_O_max)
    for i, mu0 in enumerate(schedule.mu0_list()):
        shrink = 1.0 - mu0 * M * stats.c_D
        if shrink <= 0:
            raise ValueError(f"invalid step: instance {i} has mu0*M*c_D >= 1")
        r = (1.0 + mu0 * growth) / shrink * schedule.beta ** (1.0 / schedule.K_star)
        if r >= 1.0:
            raise ValueError(f"divergent series: instance {i} has r = {r:.6g} >= 1")
        r_list.append(r)
        kappas.append(M * mu0 / (schedule.beta ** (schedule.K0 / schedule.K_star) * (1.0 - r)))
    return max(kappas), r_list


def recovery_condition(
    c_prime: int,
    D: int,
    stats: GeometryStats,
    kappa: float,
    C1: float = 1.0,
    C2: float = 0.5,
    epsilon: float = 1.0,
) -> TheoryReport:
    """Spectral recovery test for a c_prime-instance run in ambient dimension D:

        1 - C1 sqrt(c_prime / D) - epsilon / sqrt(D)
            > sqrt(c_prime) * kappa * (eta_O + c_O_max - c_d)

    holding with probability at least 1 - 2 exp(-epsilon^2 C2). C1 and C2 are
    heuristic absolute constants; the defaults are ours, not certified values.
    """
    if not 1 <= c_prime <= D:
        raise ValueError(f"invalid dimensions: need 1 <= c_prime <= D, got {c_prime}, {D}")
    if not math.isfinite(kappa) or kappa < 0:
        raise ValueError(f"kappa must be finite and nonnegative, got {kappa}")
    lhs = 1.0 - C1 * math.sqrt(c_prime / D) - epsilon / math.sqrt(D)
    delta_bound = math.sqrt(c_prime) * kappa * (stats.eta_O + stats.c_O_max - stats.c_d)
    margin = lhs - delta_bound
    prob = max(0.0, 1.0 - 2.0 * math.exp(-(epsilon**2) * C2))
    return TheoryReport(
        condition_holds=margin > 0,
        margin=margin,
        probability_lower_bound=prob,
        kappa=kappa,
        r_list=None,
        delta_bound=delta_bound,
        mu_prime=None,
        K_diamond=None,
        beta_max=None,
    )


def theory_report(
    stats: GeometryStats,
    N: int,
    M: int,
    c_prime: int,
    D: int,
    theta0: float,
    schedule: ScheduleParams,
    C1: float = 1.0,
    C2: float = 0.5,
    epsilon: float = 1.0,
) -> TheoryReport:
    """Assemble the full report: initial-angle test, step cap, iteration
    threshold, decay bound, kappa, and the spectral recovery condition.
    condition_holds requires both the initial-angle and recovery tests."""
    init_ok, init_margin = check_init_condition(theta0, stats, N, M)
    mu_p = mu_prime(stats, N, M)
    mu_list = schedule.mu0_list()
    kd = max(k_diamond(m, theta0, stats, N, M) for m in mu_list)
    bmax = min(beta_upper_bound(m, stats, N, M, schedule.K_star) for m in mu_list)
    kappa, r_list = kappa_and_r(schedule, stats, N, M)
    rec = recovery_condition(c_prime, D, stats, kappa, C1=C1, C2=C2, epsilon=epsilon)
    return TheoryReport(
        condition_holds=init_ok and rec.condition_holds,
        margin=min(init_margin, rec.margin),
        probability_lower_bound=rec.probability_lower_bound,
        kappa=kappa,
        r_list=r_list,
        delta_bound=rec.delta_bound,
        mu_prime=mu_p,
        K_diamond=kd,
        beta_max=bmax,
    )
