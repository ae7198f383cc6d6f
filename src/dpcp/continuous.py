"""Infinite-sample limit of the pursuit: closed-form dynamics on the sphere.

With infinitely many unit inliers in S (fraction 1-p of the data) and uniform
outliers (fraction p), the objective collapses to

    F(b) = p c_D + (1 - p) c_d cos(phi),   cos(phi) = ||P_S b||,

with c_k the hemisphere height. The subgradient flow then admits a closed-form
fixed point: the normalized complement projection of the start. The simulator
here iterates the exact update so runs can be checked against that limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import numerical_rank, projection_distance
from .dataset import SubspaceModel
from .geometry import hemisphere_height
from .solver import MBLS, SolverConfig, StepSchedule, Trace, descend

_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class ContinuousProblem:
    """Subspace plus outlier fraction p, with the two hemisphere heights."""

    subspace: SubspaceModel
    p: float
    c_d: float = field(init=False)
    c_D: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"invalid ratio: need 0 <= p <= 1, got {self.p}")
        object.__setattr__(self, "c_d", hemisphere_height(self.subspace.inlier_dim))
        object.__setattr__(self, "c_D", hemisphere_height(self.subspace.ambient_dim))


def continuous_objective(problem: ContinuousProblem, b: np.ndarray) -> float:
    """F(b) = p c_D + (1 - p) c_d ||P_S b|| for unit b."""
    b = np.asarray(b, dtype=float)
    if abs(np.linalg.norm(b) - 1.0) > 1e-9:
        raise ValueError("b must have unit norm")
    return problem.p * problem.c_D + (1.0 - problem.p) * problem.c_d * float(
        np.linalg.norm(problem.subspace.basis_S.T @ b)
    )


def continuous_fixed_point(subspace: SubspaceModel, b0: np.ndarray) -> np.ndarray:
    """Limit of the flow from b0: the normalized complement projection of b0."""
    b0 = np.asarray(b0, dtype=float)
    n = subspace.project_Sperp(b0)
    nn = np.linalg.norm(n)
    if nn <= _ZERO_TOL * max(np.linalg.norm(b0), 1.0):
        raise ValueError(
            "measure-zero initialization: b0 lies in the inlier subspace"
        )
    return n / nn


def continuous_psgm_run(
    problem: ContinuousProblem,
    b0: np.ndarray,
    schedule: StepSchedule,
    max_iters: int = SolverConfig.max_iters,
    stop_tol: float = 1e-12,
    record_iterates: bool = False,
) -> tuple[np.ndarray, Trace]:
    """Iterate b <- normalize(b - mu (p c_D b + (1-p) c_d s)) with s the unit
    projection of b onto S.

    A start in S has no well-defined limit and is rejected; a start already in
    the complement has no subgradient direction left, so it is returned
    unchanged after 0 iterations with stop_reason "stationary". An open
    first step (ScheduleParams with mu0=None) becomes f(b0)/||g(b0)||^2, as in
    descend. A step scales the complement component by 1 - mu p c_D: the
    step 1/(p c_D) annihilates it, and steps near or above it drive the
    iterate into S. The first normalized candidate whose complement norm is
    at most 1e-14 raises "forbidden step", during the run. The complement
    component stays collinear with the start's, so a run that reaches the
    complement with every step keeping 1 - mu p c_D > 0 ends at
    continuous_fixed_point(b0). Those steps need not reach it: a decay that
    sets in early freezes the iterate short of it, still stopping "converged"
    (on an (8, 5) problem at p = 0.4, ScheduleParams(0.9/(p c_D), 0.5, K0=3,
    K_star=2) stops at complement norm 0.0074).
    """
    if isinstance(schedule, MBLS):
        raise TypeError("the continuous simulator supports Constant and ScheduleParams steps")
    sub = problem.subspace
    b = np.asarray(b0, dtype=float).copy()
    if abs(np.linalg.norm(b) - 1.0) > 1e-9:
        raise ValueError("b0 must have unit norm")

    def comp_norm(v):
        return float(np.linalg.norm(sub.basis_Sperp.T @ v))

    if comp_norm(b) <= _ZERO_TOL:
        raise ValueError("measure-zero initialization: b0 lies in the inlier subspace")

    def grad(X, _, rows):
        x = X[0]
        sproj = sub.project_S(x)
        ns = np.linalg.norm(sproj)
        if ns <= _ZERO_TOL:
            return None  # already in the complement: fixed point reached
        return (problem.p * problem.c_D * x + (1.0 - problem.p) * problem.c_d * sproj / ns)[None]

    def retract(C):
        nc = np.linalg.norm(C[0])
        C = C / nc if nc > 0 else np.full_like(C, np.nan)
        if comp_norm(C[0]) <= _ZERO_TOL:  # False for NaN: descend reports the zero vector
            raise ValueError("forbidden step: the candidate lies in the inlier subspace; a step "
                             "near or above mu = 1/(p c_D) kills the complement component")
        return C

    def value(X, rows):
        return np.array([continuous_objective(problem, X[0])]), [None]

    (b, trace), = descend([b], value, grad, retract, schedule, max_iters, stop_tol,
                          record_iterates=record_iterates)
    return b, trace


def continuous_span_check(subspace: SubspaceModel,
                          B0: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Map every start column to its closed-form limit and test whether the
    limits span the complement.

    Returns (B_star, numerical rank of B_star, rank == codim and the spans
    agree within 1e-8 in projection distance).
    """
    B0 = np.asarray(B0, dtype=float)
    if B0.ndim != 2 or B0.shape[0] != subspace.ambient_dim:
        raise ValueError("B0 must be a (D, c') array")
    c = subspace.codim
    if B0.shape[1] < c:
        raise ValueError(f"invalid dimensions: need c' >= codim, got {B0.shape[1]} < {c}")
    norms = np.linalg.norm(B0, axis=0)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("every start column must have unit norm")
    cols = []
    for j in range(B0.shape[1]):
        try:
            cols.append(continuous_fixed_point(subspace, B0[:, j]))
        except ValueError as e:
            raise ValueError(f"column {j}: {e}") from e
    B_star = np.column_stack(cols)
    rank = numerical_rank(np.linalg.svd(B_star, compute_uv=False))
    spans = False
    if rank == c:
        spans = projection_distance(B_star, subspace.basis_Sperp) <= 1e-8
    return B_star, rank, spans
