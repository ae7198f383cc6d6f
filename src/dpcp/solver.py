"""Projected subgradient pursuit of normal directions on the unit sphere.

Each instance minimizes f(b) = sum_j |<p_j, b>| over unit b by stepping along
the negative subgradient and renormalizing. Run several independently seeded
instances and the columns jointly span the complement of the inlier subspace;
no orthogonality constraint ties the instances together, so they parallelize
and decouple completely.

Step rules: a constant step, a piecewise-geometric decay (flat for K0
iterations, then decaying by beta every K_star), or a monotone backtracking
line search (MBLS) that accepts a step only on sufficient decrease.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import _basis_array
from .dataset import DataMatrix, SubspaceModel, unit_sphere_columns
from .geometry import GeometryStats, ScheduleParams, mu_prime

_UNIT_TOL = 1e-8


@dataclass(frozen=True)
class Constant:
    """Fixed step size."""

    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"invalid step: need mu > 0, got {self.mu}")


@dataclass(frozen=True)
class PiecewiseGeometric:
    """Piecewise-geometric decay driven by ScheduleParams."""

    params: ScheduleParams


@dataclass(frozen=True)
class MBLS:
    """Monotone backtracking line search.

    A candidate step mu is accepted iff
        f(project(b - mu g)) <= f(b) - alpha * mu * ||g||^2;
    on rejection mu shrinks, after an accept the next trial step grows.
    mu_init=None resolves to f(b0) / ||g(b0)||^2.
    """

    mu_init: float | None = None
    alpha: float = 1e-3
    shrink: float = 0.5
    grow: float = 1.5
    max_backtracks: int = 50

    def __post_init__(self):
        if self.mu_init is not None and not self.mu_init > 0:
            raise ValueError("invalid step: mu_init must be > 0")
        if not 0 < self.shrink < 1 or not self.grow >= 1 or not self.alpha > 0:
            raise ValueError("invalid MBLS parameters")
        if self.max_backtracks < 1:
            raise ValueError("invalid MBLS parameters: max_backtracks >= 1")


StepSchedule = Constant | PiecewiseGeometric | MBLS


def step_size(schedule: StepSchedule, k: int, instance: int = 0) -> float | None:
    """Step at iteration k for open-loop schedules; None for MBLS, whose step
    is resolved inside the solver loop by the accept test."""
    if isinstance(schedule, Constant):
        return schedule.mu
    if isinstance(schedule, PiecewiseGeometric):
        p = schedule.params
        mu0 = p.mu0_for(instance)
        if mu0 is None:
            raise ValueError("mu0 is unresolved; supply a numeric value or run the solver")
        if k < p.K0:
            return mu0
        return mu0 * p.beta ** ((k - p.K0) // p.K_star + 1)
    if isinstance(schedule, MBLS):
        return None
    raise TypeError(f"unknown schedule {type(schedule).__name__}")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by every instance of a pursuit run."""

    c_prime: int = 1
    max_iters: int = 2000
    stop_tol: float = 1e-8
    schedule: StepSchedule = field(default_factory=MBLS)
    seed: int = 0
    record_iterates: bool = False

    def __post_init__(self):
        if self.c_prime < 1:
            raise ValueError(f"invalid dimensions: c_prime >= 1, got {self.c_prime}")
        if self.max_iters < 1 or self.stop_tol < 0:
            raise ValueError("invalid solver limits")


@dataclass
class Trace:
    """Per-iteration record of one instance.

    objective[k] = f at iterate k (length K+1); step[k] = step taken from
    iterate k (length K); angle[k] = principal angle of iterate k from the
    known complement, when a model was supplied; iterates rows are the b-hat
    sequence when recorded; backtracks counts MBLS rejections per iteration.
    stop_reason is "converged" (the last step moved less than stop_tol),
    "backtracks_exhausted" (so did the last step, but it failed the MBLS
    descent test), "max_iters" or "stationary" (no descent direction left).
    """

    objective: np.ndarray
    step: np.ndarray
    angle: np.ndarray | None = None
    iterates: np.ndarray | None = None
    backtracks: np.ndarray | None = None
    notes: tuple[str, ...] = ()
    stop_reason: str | None = None

    @property
    def n_iterations(self) -> int:
        return len(self.step)


def trace_to_csv(trace: Trace, path: str) -> None:
    """Write iteration, objective, step, angle columns (blank when unknown)."""
    with open(path, "w") as fh:
        fh.write("iteration,objective,step,angle\n")
        K = len(trace.objective)
        for k in range(K):
            step = format(trace.step[k], ".17g") if k < len(trace.step) else ""
            angle = format(trace.angle[k], ".17g") if trace.angle is not None else ""
            fh.write(f"{k},{format(trace.objective[k], '.17g')},{step},{angle}\n")


@dataclass(frozen=True)
class DualBasis:
    """Stacked results of c_prime independent instances (unit columns)."""

    columns: np.ndarray
    traces: tuple[Trace, ...] = ()

    def __post_init__(self):
        B = np.asarray(self.columns, dtype=float)
        if B.ndim != 2 or B.shape[1] < 1:
            raise ValueError("columns must be a (D, c') array with c' >= 1")
        norms = np.linalg.norm(B, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("every column must have unit norm within 1e-9")
        B = B.copy()
        B.flags.writeable = False
        object.__setattr__(self, "columns", B)

    @property
    def ambient_dim(self) -> int:
        return self.columns.shape[0]

    @property
    def n_instances(self) -> int:
        return self.columns.shape[1]


def objective(matrix: DataMatrix, basis) -> float:
    """f(B) = sum of |<p_j, b_i>| over all points j and columns i."""
    B = _basis_array(basis)
    if B.shape[0] != matrix.ambient_dim:
        raise ValueError(
            f"dimension mismatch: basis has {B.shape[0]} rows, data has {matrix.ambient_dim}"
        )
    return float(np.abs(matrix.points.T @ B).sum())


def subgradient(matrix: DataMatrix, b: np.ndarray, sgn_zero_is_zero: bool = True) -> np.ndarray:
    """g = A sgn(A^T b) for unit b; the zero-crossing rows contribute zero by default."""
    b = np.asarray(b, dtype=float)
    if b.shape != (matrix.ambient_dim,):
        raise ValueError("b must be a vector matching the ambient dimension")
    if abs(np.linalg.norm(b) - 1.0) > _UNIT_TOL:
        raise ValueError("b must have unit norm")
    s = matrix.points.T @ b
    return matrix.points @ (np.sign(s) if sgn_zero_is_zero else np.where(s >= 0, 1.0, -1.0))


def average_terms(matrix: DataMatrix, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign-weighted averages (x_avg, o_avg) of inliers and outliers at b;
    N x_avg + M o_avg equals the subgradient."""
    if matrix.labels is None:
        raise ValueError("average_terms needs a labeled dataset")
    b = np.asarray(b, dtype=float)
    X, O = matrix.split()
    x_avg = X @ np.sign(X.T @ b) / X.shape[1] if X.shape[1] else np.zeros(matrix.ambient_dim)
    o_avg = O @ np.sign(O.T @ b) / O.shape[1] if O.shape[1] else np.zeros(matrix.ambient_dim)
    return x_avg, o_avg


def default_mu0(matrix: DataMatrix, b0: np.ndarray, stats: GeometryStats | None = None) -> float:
    """Initial step f(b0)/||g(b0)||^2, clipped to mu_prime when stats are given."""
    g = subgradient(matrix, b0)
    n2 = float(g @ g)
    mu = objective(matrix, b0) / n2 if n2 > 0 else 1.0
    if stats is not None and matrix.labels is not None:
        m = matrix.inlier_mask()
        mu = min(mu, mu_prime(stats, int(m.sum()), int((~m).sum())))
    return mu


def schedule_from(kind: str, mu0: float | None, beta: float, K0: int, K_star: int) -> StepSchedule:
    """The step schedule named kind ("const", "pgd" or "mbls"). mu0=None leaves
    the first step to descend, which a constant schedule does not allow."""
    if kind == "const":
        if mu0 is None:
            raise ValueError("schedule 'const' needs a numeric --mu0 (config field mu0)")
        return Constant(mu0)
    if kind == "pgd":
        return PiecewiseGeometric(ScheduleParams(mu0=mu0, beta=beta, K0=K0, K_star=K_star))
    return MBLS(mu_init=mu0)


def _resolve_step(schedule: StepSchedule, mu_auto: float):
    """Step rule for descend: an MBLS with a numeric first trial step, or a
    function k -> mu. mu_auto fills a first step the schedule leaves open."""
    if isinstance(schedule, MBLS):
        if schedule.mu_init is None:
            schedule = dataclasses.replace(schedule, mu_init=mu_auto)
        return schedule
    if isinstance(schedule, PiecewiseGeometric) and schedule.params.mu0_for(0) is None:
        schedule = PiecewiseGeometric(dataclasses.replace(schedule.params, mu0=mu_auto))
    return functools.partial(step_size, schedule)


def sphere_retract(c: np.ndarray) -> np.ndarray | None:
    """Normalize back onto the unit sphere; None when the step hit zero."""
    nc = np.linalg.norm(c)
    return c / nc if nc > 0 else None


def sphere_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Arc length between unit vectors."""
    return math.acos(min(max(float(x @ y), -1.0), 1.0))


def sphere_sqnorm(g: np.ndarray) -> float:
    """||g||^2 as the MBLS descent test of the sphere methods computes it."""
    return float(g @ g)


def descend(x0, value, grad, retract, distance, sqnorm, step, max_iters, stop_tol,
            angle=None, record_iterates=False) -> tuple[np.ndarray, Trace]:
    """The projected subgradient loop x <- retract(x - mu g) behind every method.

    value(x) returns (f, aux) and grad(x, aux) the subgradient at x, or None
    at a stationary point. retract(c) maps a step back onto the feasible set,
    or returns None for a degenerate step, which raises ValueError. step is a
    StepSchedule or a function k -> mu; a first step the schedule leaves open
    becomes f(x0)/sqnorm(g(x0)), or 1 when that norm is 0, from the loop's own
    first value and subgradient. MBLS reuses its accepted candidate's value as
    the next iterate's. sqnorm(g) is the ||g||^2 of the first step and the
    MBLS descent test, passed in because each method rounds it its own way
    and the accept decisions depend on those bits. The run stops when
    distance(x, x_new) < stop_tol or after max_iters steps. angle(x), when
    given, is recorded for every iterate.
    """
    mbls = isinstance(step, MBLS)
    rule = step if callable(step) else None
    x = x0
    f, aux = value(x)
    objs: list[float] = []
    steps: list[float] = []
    backs: list[int] = []
    angles: list[float] | None = [] if angle is not None else None
    iterates: list[np.ndarray] | None = [] if record_iterates else None

    def record():
        objs.append(f)
        if angles is not None:
            angles.append(angle(x))
        if iterates is not None:
            iterates.append(x.copy())

    record()
    stop_reason = "max_iters"
    for k in range(max_iters):
        g = grad(x, aux)
        if g is None:
            stop_reason = "stationary"
            break
        if mbls or rule is None:
            gn2 = sqnorm(g)
        if rule is None:  # first iterate: an open first step comes from its f and g
            rule = _resolve_step(step, f / gn2 if gn2 > 0 else 1.0)
            mu_ls = rule.mu_init if mbls else None
        if mbls:
            mu = mu_ls
            n_back = 0
            while True:
                cand = retract(x - mu * g)
                descent = False
                if cand is not None:
                    f_new, aux_new = value(cand)
                    descent = f_new <= f - step.alpha * mu * gn2
                if descent or n_back >= step.max_backtracks:
                    break
                mu *= step.shrink
                n_back += 1
            mu_ls = mu * step.grow
            backs.append(n_back)
        else:
            mu = rule(k)
            cand = retract(x - mu * g)
        if cand is None:
            raise ValueError("degenerate step: update collapsed to the zero vector")
        if not mbls:
            f_new, aux_new = value(cand)
        steps.append(mu)
        movement = distance(x, cand)
        x, f, aux = cand, f_new, aux_new
        record()
        if movement < stop_tol:
            stop_reason = "backtracks_exhausted" if mbls and not descent else "converged"
            break

    trace = Trace(
        objective=np.asarray(objs),
        step=np.asarray(steps),
        angle=np.asarray(angles) if angles is not None else None,
        iterates=np.asarray(iterates) if iterates is not None else None,
        backtracks=np.asarray(backs, dtype=int) if mbls else None,
        stop_reason=stop_reason,
    )
    return x, trace


def psgm_single(
    matrix: DataMatrix,
    b0: np.ndarray,
    config: SolverConfig,
    model: SubspaceModel | None = None,
) -> tuple[np.ndarray, Trace]:
    """Run one projected subgradient instance from b0.

    Iterates b <- normalize(b - mu g) until the rotation between successive
    iterates drops below config.stop_tol or max_iters is reached. Returns the
    final unit vector and the full trace.
    """
    A = matrix.points
    b = np.asarray(b0, dtype=float).copy()
    if b.shape != (matrix.ambient_dim,):
        raise ValueError("b0 must match the ambient dimension")
    nb = np.linalg.norm(b)
    if abs(nb - 1.0) > _UNIT_TOL:
        raise ValueError("b0 must have unit norm")
    b /= nb

    def value(x):
        s = A.T @ x
        return float(np.abs(s).sum()), s

    def angle(x):
        h = np.linalg.norm(model.basis_Sperp.T @ x)
        return float(np.arccos(min(max(h, -1.0), 1.0)))

    return descend(
        b, value, lambda x, s: A @ np.sign(s), sphere_retract, sphere_distance, sphere_sqnorm,
        config.schedule, config.max_iters, config.stop_tol,
        angle=angle if model is not None else None, record_iterates=config.record_iterates,
    )


def psgm_multi(
    matrix: DataMatrix,
    config: SolverConfig,
    model: SubspaceModel | None = None,
) -> DualBasis:
    """Run config.c_prime independent instances from uniform random unit starts.

    Instance i draws its start from the i-th child of SeedSequence(config.seed),
    so runs are reproducible and any sub-list of instances matches a smaller
    c_prime run with the same master seed.
    """
    schedule = config.schedule
    mu0 = schedule.params.mu0 if isinstance(schedule, PiecewiseGeometric) else None
    if isinstance(mu0, tuple) and len(mu0) != config.c_prime:
        raise ValueError(
            f"per-instance mu0 has {len(mu0)} entries for c_prime = {config.c_prime} instances"
        )
    children = np.random.SeedSequence(config.seed).spawn(config.c_prime)
    cols: list[np.ndarray] = []
    traces: list[Trace] = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        b0 = unit_sphere_columns(rng, matrix.ambient_dim, 1)[:, 0]
        if isinstance(mu0, tuple):
            schedule = PiecewiseGeometric(dataclasses.replace(config.schedule.params, mu0=mu0[i]))
        cfg_i = dataclasses.replace(config, schedule=schedule)
        try:
            b, tr = psgm_single(matrix, b0, cfg_i, model=model)
        except ValueError as e:
            raise ValueError(f"instance {i}: {e}") from e
        cols.append(b)
        traces.append(tr)
    return DualBasis(columns=np.column_stack(cols), traces=tuple(traces))
