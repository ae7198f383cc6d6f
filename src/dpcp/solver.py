"""Projected subgradient pursuit of normal directions on the unit sphere.

Each instance minimizes f(b) = sum_j |<p_j, b>| over unit b by stepping along
the negative subgradient and renormalizing. Run several independently seeded
instances and the columns jointly span the complement of the inlier subspace;
no orthogonality constraint ties the instances together, so they parallelize
and decouple completely.

Step rules (StepSchedule): a constant step (Constant), the piecewise-geometric
decay of geometry.ScheduleParams (flat for K0 iterations, then decaying by
beta every K_star), or a monotone backtracking line search (MBLS) with fixed
constants that accepts a step only on sufficient decrease. A step whose
candidate collapses to the zero vector raises ValueError under every rule.

The instances share their products but stay numerically independent. They
run as a panel of PANEL_WIDTH rows, one instance per row, so one block
product X A gives every row's A^T b and one sgn(S) A^T every row's
subgradient; when an instance stops, the next start takes its row. The
width is fixed, not an option, because a BLAS product rounds a row the same
way whatever slot it sits in and whatever its neighbours hold, but not
whatever the width. At one fixed width an instance's bits therefore depend
on its own start alone: psgm_single equals the matching column of
psgm_multi, and a smaller c_prime run is a prefix of a larger one. The bits
can still change with the BLAS build and its thread count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .analysis import _basis_array, principal_angles
from .dataset import DataMatrix, SubspaceModel, unit_sphere_columns
from .geometry import ScheduleParams

_UNIT_TOL = 1e-8
PANEL_WIDTH = 16  # rows of a psgm panel; see the module docstring for why it is fixed


@dataclass(frozen=True)
class Constant:
    """Fixed step size."""

    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"invalid step: need mu > 0, got {self.mu}")


@dataclass(frozen=True)
class MBLS:
    """Monotone backtracking line search.

    A candidate step mu is accepted iff
        f(project(b - mu g)) <= f(b) - alpha * mu * ||g||^2;
    on rejection mu shrinks, at most max_backtracks times per iteration, and
    the next trial step grows from the one taken. alpha, shrink, grow and
    max_backtracks are fixed; mu_init=None resolves to f(b0) / ||g(b0)||^2.
    """

    mu_init: float | None = None
    alpha: ClassVar[float] = 1e-3
    shrink: ClassVar[float] = 0.5
    grow: ClassVar[float] = 1.5
    max_backtracks: ClassVar[int] = 50

    def __post_init__(self):
        if self.mu_init is not None and not self.mu_init > 0:
            raise ValueError("invalid step: mu_init must be > 0")


StepSchedule = Constant | ScheduleParams | MBLS


def step_size(schedule: StepSchedule, k: int, instance: int = 0) -> float | None:
    """Step at iteration k for open-loop schedules; None for MBLS, whose step
    is resolved inside the solver loop by the accept test."""
    if isinstance(schedule, Constant):
        return schedule.mu
    if isinstance(schedule, ScheduleParams):
        mu0 = schedule.mu0_for(instance)
        if mu0 is None:
            raise ValueError("mu0 is unresolved; supply a numeric value or run the solver")
        if k < schedule.K0:
            return mu0
        return mu0 * schedule.beta ** ((k - schedule.K0) // schedule.K_star + 1)
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

    objective[k] = f at iterate k (length K+1); a psgm iterate reached by an
    MBLS backtrack takes it from two images its panel already holds (see
    _psgm_panel), so it can differ from a product's f in the last bits.
    step[k] = step taken from iterate k (length K); angle[k] = principal
    angle of iterate k from the known complement, when a model was supplied;
    iterates rows are the b-hat sequence when recorded; backtracks counts
    MBLS rejections per iteration.
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


def subgradient(matrix: DataMatrix, b: np.ndarray) -> np.ndarray:
    """g = A sgn(A^T b) for unit b; the zero-crossing rows contribute zero."""
    b = np.asarray(b, dtype=float)
    if b.shape != (matrix.ambient_dim,):
        raise ValueError("b must be a vector matching the ambient dimension")
    if abs(np.linalg.norm(b) - 1.0) > _UNIT_TOL:
        raise ValueError("b must have unit norm")
    return matrix.points @ np.sign(matrix.points.T @ b)


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


def schedule_from(kind: str, mu0: float | None, beta: float, K0: int, K_star: int) -> StepSchedule:
    """The step schedule named kind ("const", "pgd" or "mbls"). mu0=None leaves
    the first step to descend, which a constant schedule does not allow."""
    if kind == "const":
        if mu0 is None:
            raise ValueError("schedule 'const' needs a numeric --mu0 (config field mu0)")
        return Constant(mu0)
    if kind == "pgd":
        return ScheduleParams(mu0=mu0, beta=beta, K0=K0, K_star=K_star)
    return MBLS(mu_init=mu0)


class _Run:
    """What the loop keeps of one problem while it holds a panel slot."""

    def __init__(self, index: int, rule: StepSchedule, angle, record_iterates: bool):
        self.index = index
        self.k = 0
        self.rule = rule  # the schedule, with an open first step filled in once known
        self.objs: list[float] = []
        self.steps: list[float] = []
        self.backs: list[int] = []
        self.angles: list[float] | None = [] if angle is not None else None
        self.iterates: list[np.ndarray] | None = [] if record_iterates else None


def descend(starts, value, grad, retract, distance, sqnorm, step, max_iters, stop_tol,
            width=1, shrunk=None, angle=None,
            record_iterates=False) -> list[tuple[np.ndarray, Trace]]:
    """The projected subgradient loop x <- retract(x - mu g) behind every method.

    The loop steps a panel: an array of `width` slots, one problem per row,
    each with its own value, step, MBLS accept mask, stop test and Trace. The
    starts wait in a queue; when a problem stops, the next start takes its
    slot. The callbacks act on the panel, and `rows` names its live slots:
    value(X, rows) returns (f of those rows, aux), where aux[s] keeps what
    grad needs at row s; grad(X, AUX, rows) returns the subgradients of those
    rows from AUX, the list of every slot's aux at X, or None when every one
    of them is stationary; retract(C) maps stepped rows back onto the
    feasible set, a row of NaN marking a degenerate step; distance(X, Y) and
    sqnorm(G) act row by row. value and grad may spend one product on the
    whole panel, so an idle slot keeps its last iterate and step. A row's aux
    is set only when that row takes a slot or a step, never by a neighbour's.

    step is a StepSchedule. A first step it leaves open becomes
    f(x0)/sqnorm(g(x0)), or 1 when that norm is 0, from the loop's own first
    value and subgradient, in the round the start takes its slot. Each round
    values every live row's first candidate in one value call; an open-loop
    step stops there. MBLS then shrinks the step of each row that fails the
    descent test and values only those rows' new candidates, written into C,
    with shrunk(C, rows, X, G, mu, mu1, AUX, first): G, mu and mu1 are those
    rows' subgradients, steps and first-trial steps, first the first value
    call's aux, and it returns (f, aux) as value does; by default it is
    value(C, rows), which values the retracted candidates. A row keeps its
    accepted candidate's f and aux for the next iterate. A degenerate
    candidate raises ValueError under every schedule; MBLS does not shrink
    its way past it. sqnorm(g) is the ||g||^2 of the first step and the MBLS
    descent test, passed in because each method rounds it its own way and
    the accept decisions depend on those bits. A problem stops when
    distance(x, x_new) < stop_tol or after max_iters steps. angle(x), when
    given, is recorded for every iterate.
    Returns (x, Trace) per start, in the order of `starts`.
    """
    if max_iters < 1:
        raise ValueError(f"invalid solver limits: max_iters >= 1, got {max_iters}")
    if shrunk is None:
        shrunk = lambda C, rows, *_: value(C, rows)
    mbls = isinstance(step, MBLS)
    X = np.zeros((width,) + np.shape(starts[0]))
    F = np.zeros(width)
    MU = np.zeros(width)
    AUX: list = [None] * width
    bshape = (-1,) + (1,) * (X.ndim - 1)
    slots: list[_Run | None] = [None] * width
    queue = iter(range(len(starts)))
    results: list = [None] * len(starts)

    def record(s):
        run = slots[s]
        run.objs.append(F[s])
        if angle is not None:
            run.angles.append(angle(X[s]))
        if record_iterates:
            run.iterates.append(X[s].copy())

    def finish(s, reason):
        run = slots[s]
        results[run.index] = (X[s].copy(), Trace(
            objective=np.asarray(run.objs),
            step=np.asarray(run.steps),
            angle=np.asarray(run.angles) if angle is not None else None,
            iterates=np.asarray(run.iterates) if record_iterates else None,
            backtracks=np.asarray(run.backs, dtype=int) if mbls else None,
            stop_reason=reason,
        ))
        slots[s] = AUX[s] = None

    def candidates(rows, G, mu):
        moved = retract(X[rows] - mu.reshape(bshape) * G)
        lost = np.isnan(moved.reshape(len(rows), -1)).any(axis=1)
        if lost.any():
            raise ValueError(f"degenerate step: the update of start "
                             f"{slots[rows[lost][0]].index} collapsed to the zero vector")
        return moved

    while True:
        new = []
        for s in range(width):
            if slots[s] is None and (i := next(queue, None)) is not None:
                slots[s] = _Run(i, step, angle, record_iterates)
                X[s] = starts[i]
                new.append(s)
        if new:
            F[new], aux = value(X, np.array(new))
            for s in new:
                AUX[s] = aux[s]
                record(s)
        act = np.array([s for s, run in enumerate(slots) if run is not None], dtype=int)
        if not act.size:
            return results
        G = grad(X, AUX, act)
        if G is None:
            for s in act:
                finish(s, "stationary")
            continue
        gn2 = sqnorm(G)
        for s, j in zip(new, np.searchsorted(act, new)):  # an open first step from f and g at x0
            mu_auto = F[s] / gn2[j] if gn2[j] > 0 else 1.0
            if mbls:
                MU[s] = mu_auto if step.mu_init is None else step.mu_init
            elif isinstance(step, ScheduleParams) and step.mu0 is None:
                slots[s].rule = dataclasses.replace(step, mu0=mu_auto)
        if mbls:
            mu, alpha, max_back = MU[act], step.alpha, step.max_backtracks
        else:
            runs = [slots[s] for s in act]
            mu, alpha, max_back = np.array([step_size(r.rule, r.k, r.index) for r in runs]), 0.0, 0
        mu1 = mu.copy()
        C = X.copy()
        C[act] = moved = candidates(act, G, mu)
        f_new, first = value(C, act)
        cand = list(first)
        nback = np.zeros(len(act), dtype=int)
        while True:
            descent = f_new <= F[act] - alpha * mu * gn2
            searching = ~descent & (nback < max_back)
            if not searching.any():
                break
            mu[searching] *= step.shrink
            nback[searching] += 1
            j = np.flatnonzero(searching)
            rows = act[j]
            C[rows] = moved[j] = candidates(rows, G[j], mu[j])
            f_new[j], aux = shrunk(C, rows, X, G[j], mu[j], mu1[j], AUX, first)
            for s in rows:
                cand[s] = aux[s]
        if mbls:
            MU[act] = mu * step.grow
        stopped = (distance(X[act], moved) < stop_tol).tolist()
        X[act] = moved
        F[act] = f_new
        for s in act:
            AUX[s] = cand[s]
        for s, mu_s, n_s, desc_s, stop_s in zip(
                act.tolist(), mu.tolist(), nback.tolist(), descent.tolist(), stopped):
            run = slots[s]
            run.steps.append(mu_s)
            if mbls:
                run.backs.append(n_s)
            run.k += 1
            record(s)
            if stop_s:
                finish(s, "backtracks_exhausted" if mbls and not desc_s else "converged")
            elif run.k >= max_iters:
                finish(s, "max_iters")


def _sphere_retract(C: np.ndarray) -> np.ndarray:
    """Normalize each row back onto the unit sphere; a row that hit zero comes
    back NaN."""
    nc = np.linalg.norm(C, axis=1, keepdims=True)
    return np.divide(C, nc, out=np.full_like(C, np.nan), where=nc > 0)


def _row_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", X, Y)


def _sphere_distance(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Arc length between matching unit rows."""
    return np.arccos(np.clip(_row_dots(X, Y), -1.0, 1.0))


def _unit_start(matrix: DataMatrix, b0) -> np.ndarray:
    b = np.asarray(b0, dtype=float)
    if b.shape != (matrix.ambient_dim,):
        raise ValueError("b0 must match the ambient dimension")
    nb = np.linalg.norm(b)
    if abs(nb - 1.0) > _UNIT_TOL:
        raise ValueError("b0 must have unit norm")
    return b / nb


def _psgm_panel(matrix: DataMatrix, starts: list[np.ndarray], config: SolverConfig,
                model: SubspaceModel | None) -> list[tuple[np.ndarray, Trace]]:
    """Run one psgm instance per start through a panel of PANEL_WIDTH rows.

    The two products, S = X A for the values and A sgn(S)^T for the
    subgradients, always span the whole panel and read the C-contiguous
    points in place, without a copy of A^T; signs, sums and everything else
    act on live rows only. A row's aux is its image S.

    A backtracking candidate takes no product. The retraction only rescales,
    so the candidate (x - mu g)/n of a row whose first trial was
    (x - mu1 g)/n1 has the image ((1 - t) S_x + t n1 S_1)/n with t = mu/mu1,
    from the iterate's image S_x and the first trial's S_1. Every shrunk
    candidate is valued from those two, never from an earlier shrunk one,
    so rounding does not build up within an iteration.
    """
    A = matrix.points
    signs = np.zeros((PANEL_WIDTH, A.shape[1]))

    def value(X, rows):
        S = X @ A
        return np.abs(S[rows]).sum(axis=1), S

    def grad(X, aux, rows):
        for s in rows:
            np.sign(aux[s], out=signs[s])
        return (A @ signs.T).T[rows]

    def shrunk(C, rows, X, G, mu, mu1, aux, first):
        n, n1 = (np.linalg.norm(X[rows] - m[:, None] * G, axis=1) for m in (mu, mu1))
        t = mu / mu1
        S = np.array([aux[s] for s in rows])  # in place, to hold two row blocks at most
        S *= (1.0 - t)[:, None]
        S1 = first[rows]
        S1 *= (t * n1)[:, None]
        S += S1
        del S1
        S /= n[:, None]
        return np.abs(S).sum(axis=1), dict(zip(rows, S))

    return descend(
        starts, value, grad, _sphere_retract, _sphere_distance,
        lambda G: _row_dots(G, G), config.schedule, config.max_iters, config.stop_tol,
        width=PANEL_WIDTH, shrunk=shrunk,
        angle=(lambda x: float(principal_angles(x, model)[0])) if model is not None else None,
        record_iterates=config.record_iterates,
    )


def psgm_single(
    matrix: DataMatrix,
    b0: np.ndarray,
    config: SolverConfig,
    model: SubspaceModel | None = None,
) -> tuple[np.ndarray, Trace]:
    """Run one projected subgradient instance from b0: the one-start case of
    psgm_multi's panel, so its bits equal that instance's column and trace.

    Iterates b <- normalize(b - mu g) until the rotation between successive
    iterates drops below config.stop_tol or max_iters is reached. Returns the
    final unit vector and the full trace.
    """
    return _psgm_panel(matrix, [_unit_start(matrix, b0)], config, model)[0]


def psgm_multi(
    matrix: DataMatrix,
    config: SolverConfig,
    model: SubspaceModel | None = None,
) -> DualBasis:
    """Run config.c_prime independent instances from uniform random unit starts.

    Instance i draws its start from the i-th child of SeedSequence(config.seed),
    so runs are reproducible and any prefix of instances matches a smaller
    c_prime run with the same master seed, bit for bit.
    """
    schedule = config.schedule
    mu0 = schedule.mu0 if isinstance(schedule, ScheduleParams) else None
    if isinstance(mu0, tuple) and len(mu0) != config.c_prime:
        raise ValueError(
            f"per-instance mu0 has {len(mu0)} entries for c_prime = {config.c_prime} instances"
        )
    starts = [
        _unit_start(matrix, unit_sphere_columns(np.random.default_rng(child),
                                                matrix.ambient_dim, 1)[:, 0])
        for child in np.random.SeedSequence(config.seed).spawn(config.c_prime)
    ]
    runs = _psgm_panel(matrix, starts, config, model)
    return DualBasis(columns=np.column_stack([b for b, _ in runs]),
                     traces=tuple(tr for _, tr in runs))
