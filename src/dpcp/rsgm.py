"""Orthogonality-constrained baseline: Riemannian subgradient on the Stiefel manifold.

Minimizes the group-sparse objective ||A^T B||_{1,2} (sum of row norms) over
D x c' matrices with orthonormal columns. The search direction is the
Euclidean subgradient projected onto the tangent space, and iterates return to
the manifold through the polar retraction. The spectral initializer seeds B
with the bottom eigenvectors of the data covariance. The iterate is stored as
B^T, c' rows of length D as in the psgm panel, so neither product (B^T A, A W^T)
transposes A and the row norms of A^T B are contiguous column sums over B^T A.

Because the columns are forced to stay jointly orthonormal, overestimating the
codimension drags part of the basis into the inlier subspace; that failure
mode is exactly what the unconstrained pursuit avoids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, _frozen_array
from .solver import SolverConfig, StepSchedule, Trace, descend

_ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class OrthoBasis:
    """Orthonormal D x c' iterate with its optimization trace."""

    columns: np.ndarray
    trace: Trace | None = None

    def __post_init__(self):
        B = np.asarray(self.columns, dtype=float)
        if B.ndim != 2 or B.shape[1] < 1 or B.shape[0] < B.shape[1]:
            raise ValueError("columns must be a tall (D, c') array")
        if np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) > _ORTHO_TOL:
            raise ValueError("columns must be orthonormal within 1e-8")
        object.__setattr__(self, "columns", _frozen_array(B))

    @property
    def ambient_dim(self) -> int:
        return self.columns.shape[0]

    @property
    def n_columns(self) -> int:
        return self.columns.shape[1]


def spectral_init(matrix: DataMatrix, c_prime: int) -> OrthoBasis:
    """Eigenvectors of A A^T with the c' smallest eigenvalues, in ascending
    eigenvalue order, each column's largest-magnitude entry made positive so
    the initializer is deterministic."""
    if not 1 <= c_prime <= matrix.ambient_dim:
        raise ValueError(
            f"invalid dimensions: need 1 <= c_prime <= D, got {c_prime}, D={matrix.ambient_dim}"
        )
    A = matrix.points
    _, vecs = np.linalg.eigh(A @ A.T)
    B = vecs[:, :c_prime].copy()
    lead = np.argmax(np.abs(B), axis=0)
    flip = B[lead, np.arange(B.shape[1])] < 0
    B[:, flip] *= -1.0
    return OrthoBasis(columns=B)


def _group_objective(A: np.ndarray, Bt: np.ndarray) -> tuple[float, tuple]:
    """f(B) and what the subgradient at B needs: S^T = B^T A and its column norms."""
    St = Bt @ A
    rn = np.sqrt(np.einsum("ij,ij->j", St, St))
    return float(rn.sum()), (St, rn)


def _riemannian_subgradient(A: np.ndarray, Bt: np.ndarray, St: np.ndarray,
                            rn: np.ndarray) -> np.ndarray:
    Wt = np.divide(St, rn, out=np.zeros_like(St), where=rn > 0)
    Gt = (A @ Wt.T).T
    return Gt - 0.5 * (Bt @ Gt.T + Gt @ Bt.T) @ Bt


def _polar_retract(Ct: np.ndarray) -> np.ndarray:
    """Orthonormal polar factor. B^T G is skew after the tangent projection, so
    (B - mu G)^T (B - mu G) = I + mu^2 G^T G: a candidate's singular values are >= 1."""
    u, _, vt = np.linalg.svd(Ct, full_matrices=False)
    return u @ vt


def rsgm_run(
    matrix: DataMatrix,
    c_prime: int,
    schedule: StepSchedule,
    max_iters: int = SolverConfig.max_iters,
    stop_tol: float = SolverConfig.stop_tol,
) -> OrthoBasis:
    """Riemannian subgradient descent from the spectral initializer.

    Stops when the Frobenius movement between successive iterates drops below
    stop_tol or after max_iters, whose defaults are SolverConfig's.
    Deterministic: no randomness enters the run.
    """
    A = matrix.points
    Bt = spectral_init(matrix, c_prime).columns.T

    def value(X, rows):
        f, aux = _group_objective(A, X[0])
        return np.array([f]), [aux]

    def grad(X, aux, rows):
        return _riemannian_subgradient(A, X[0], *aux[0])[None]

    (Bt, trace), = descend([Bt], value, grad, lambda C: _polar_retract(C[0])[None],
                           schedule, max_iters, stop_tol)
    return OrthoBasis(columns=Bt.T, trace=trace)
