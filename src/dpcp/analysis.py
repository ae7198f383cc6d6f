"""Post-solve analysis: codimension estimation, subspace distances, outlier calls.

Everything here consumes a candidate basis (the stacked instance results) and,
when available, the ground-truth model and labeled data, and condenses them
into a RecoveryReport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, INLIER, OUTLIER, SubspaceModel

_GAP_FACTOR = 10.0
_RANK_EPS = 1e-8


@dataclass(frozen=True)
class RecoveryReport:
    """Summary of one recovery attempt."""

    estimated_codim: int
    singular_values: tuple[float, ...]
    orthonormalized_complement: np.ndarray | None
    procrustes_distance: float | None
    projection_distance: float | None
    max_principal_angle: float | None
    outlier_f1: float | None
    outlier_precision: float | None
    outlier_recall: float | None


def _basis_array(basis) -> np.ndarray:
    B = getattr(basis, "columns", basis)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if B.ndim != 2 or B.shape[1] < 1:
        raise ValueError("basis must be a (D, k) array with k >= 1")
    return B


def estimate_rank(basis, strategy: str = "gap", tau: float = 0.05) -> tuple[int, np.ndarray]:
    """Estimate how many directions of the candidate basis are independent.

    strategy="gap": the rank is the index of the largest successive singular
    value ratio s_i / s_(i+1); if no ratio reaches 10 the basis is taken at
    full width. strategy="threshold": count singular values above tau * s_1.
    Returns (rank, descending singular values).
    """
    B = _basis_array(basis)
    s = np.linalg.svd(B, compute_uv=False)
    if strategy == "gap":
        if len(s) == 1:
            return 1, s
        ratios = np.where(
            s[1:] > 0, s[:-1] / np.where(s[1:] > 0, s[1:], 1.0),
            np.where(s[:-1] > 0, np.inf, 1.0),
        )
        best = int(np.argmax(ratios))
        if not ratios[best] >= _GAP_FACTOR:
            return len(s), s
        return best + 1, s
    if strategy == "threshold":
        if not 0 < tau < 1:
            raise ValueError(f"invalid threshold: need 0 < tau < 1, got {tau}")
        return int(np.sum(s > tau * s[0])), s
    raise ValueError(f"unknown rank strategy {strategy!r}; use 'gap' or 'threshold'")


def orthonormal_column_space(basis, rank: int | None = None) -> np.ndarray:
    """Orthonormal basis of the leading column space (left singular vectors)."""
    B = _basis_array(basis)
    u, s, _ = np.linalg.svd(B, full_matrices=False)
    if rank is None:
        rank = int(np.sum(s > _RANK_EPS * s[0]))
    if not 1 <= rank <= B.shape[1]:
        raise ValueError(f"invalid rank {rank} for a {B.shape[1]}-column basis")
    return u[:, :rank]


def _check_orthonormal(A: np.ndarray, name: str) -> None:
    if np.max(np.abs(A.T @ A - np.eye(A.shape[1]))) > 1e-8:
        raise ValueError(f"{name} must have orthonormal columns within 1e-8")


def subspace_distance(B, A) -> float:
    """min over orthogonal Q of ||B - A Q||_F for orthonormal same-shape bases.

    The optimal Q is U V^T from the SVD of A^T B; equals sqrt(2k - 2 sum of
    singular values of A^T B). Symmetric, zero for equal spans, sqrt(2k) for
    orthogonal spans.
    """
    B = _basis_array(B)
    A = _basis_array(A)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    _check_orthonormal(A, "A")
    _check_orthonormal(B, "B")
    u, _, vt = np.linalg.svd(A.T @ B)
    return float(np.linalg.norm(B - A @ (u @ vt)))


def projection_distance(B, A) -> float:
    """Frobenius distance between the orthogonal projectors onto span(B) and
    span(A); defined for bases of different widths. B may be any nonzero
    matrix; its numerical column space is used."""
    B = _basis_array(B)
    A = _basis_array(A)
    if A.shape[0] != B.shape[0]:
        raise ValueError("ambient dimension mismatch")
    if not np.linalg.norm(B):
        raise ValueError("degenerate basis: B is the zero matrix")
    _check_orthonormal(A, "A")
    QB = orthonormal_column_space(B)
    # two-residual form of ||P_B - P_A||_F: the trace expression
    # k_B + k_A - 2||A^T QB||^2 cancels catastrophically near zero
    r1 = QB - A @ (A.T @ QB)
    r2 = A - QB @ (QB.T @ A)
    return math.sqrt(np.linalg.norm(r1) ** 2 + np.linalg.norm(r2) ** 2)


def principal_angles(basis, model: SubspaceModel, against: str = "Sperp") -> np.ndarray:
    """Per-column principal angle (radians) from the chosen subspace, the
    atan2 of the column's norms in the other subspace and in the chosen one:
    unlike an arccos of the cosine, it resolves angles below 1.5e-8."""
    B = _basis_array(basis)
    target, other = ((model.basis_Sperp, model.basis_S) if against == "Sperp"
                     else (model.basis_S, model.basis_Sperp))
    return np.arctan2(np.linalg.norm(other.T @ B, axis=0), np.linalg.norm(target.T @ B, axis=0))


def max_subspace_angle(basis, target: np.ndarray) -> float:
    """Largest principal angle between span(basis) and span(target), the atan2
    of its sine and cosine, sigma_max(Q - T T^T Q) and sigma_min(T^T Q); pi/2
    when span(basis) is wider than the target."""
    Q = _basis_array(basis)
    T = _basis_array(target)
    if Q.shape[1] > T.shape[1]:
        return math.pi / 2
    C = T.T @ Q
    return math.atan2(np.linalg.norm(Q - T @ C, 2), np.linalg.svd(C, compute_uv=False).min())


def classify_outliers(matrix: DataMatrix, complement_basis) -> np.ndarray:
    """Label each column by its coherence with the recovered complement.

    score_j = ||basis^T p_j||_2; a column is an outlier iff score > t, where t
    splits the largest gap in the sorted log scores (scores floored at 1e-9 of
    the largest, so exact zeros cluster together); if no raw gap exceeds 1e-6
    of the largest score, no column is called an outlier, whatever the scale of
    the data. The gap is taken multiplicatively because inlier scores sit orders
    of magnitude below outlier scores, while absolute spacings are largest
    among the top order statistics of the outliers.
    """
    B = _basis_array(complement_basis)
    if B.shape[0] != matrix.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    scores = np.linalg.norm(B.T @ matrix.points, axis=0)
    order = np.sort(scores)
    gaps = np.diff(order)
    if gaps.size == 0 or gaps.max() <= 1e-6 * order[-1]:
        t = np.inf
    else:
        floored = np.maximum(order, 1e-9 * order[-1])
        i = int(np.argmax(np.diff(np.log(floored))))
        t = math.sqrt(floored[i] * floored[i + 1])
    return np.where(scores > t, OUTLIER, INLIER)


def _outlier_mask(labels) -> np.ndarray:
    a = np.asarray(labels)
    if a.dtype.kind in "Ub":
        return a == OUTLIER if a.dtype.kind == "U" else a.astype(bool)
    return a.astype(bool)


def f1_score(predicted, truth) -> tuple[float, float, float]:
    """(precision, recall, f1) with outliers as the positive class.

    A zero denominator yields 0 when positives exist somewhere; if neither the
    truth nor the prediction contains a positive, all three are 1.
    """
    p = _outlier_mask(predicted)
    t = _outlier_mask(truth)
    if p.shape != t.shape:
        raise ValueError("predicted and truth must have the same length")
    tp = int(np.sum(p & t))
    fp = int(np.sum(p & ~t))
    fn = int(np.sum(~p & t))
    if not (t.any() or p.any()):
        return 1.0, 1.0, 1.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def check_full_rank_condition(B0, delta_bound: float) -> tuple[bool, float]:
    """Spectral margin test on the stacked starts: holds iff the smallest
    singular value of B0 exceeds delta_bound."""
    B = _basis_array(B0)
    if B.shape[0] < B.shape[1]:
        raise ValueError("invalid dimensions: B0 must be tall (D >= c')")
    s = np.linalg.svd(B, compute_uv=False)
    smin = float(s[-1])
    return smin > delta_bound, smin


def recovery_report(
    basis,
    model: SubspaceModel | None = None,
    matrix: DataMatrix | None = None,
    strategy: str = "gap",
    tau: float = 0.05,
) -> RecoveryReport:
    """Condense a solve into estimated codimension, distances, and outlier scores.

    procrustes_distance is only defined when the estimated codimension matches
    the model's; classification metrics require a labeled matrix.
    """
    rank, svals = estimate_rank(basis, strategy=strategy, tau=tau)
    Q = orthonormal_column_space(basis, rank)
    proc = proj = ang = None
    prec = rec = f1 = None
    if model is not None:
        proj = projection_distance(Q, model.basis_Sperp)
        ang = max_subspace_angle(Q, model.basis_Sperp)
        if rank == model.codim:
            proc = subspace_distance(Q, model.basis_Sperp)
    if matrix is not None and matrix.labels is not None:
        predicted = classify_outliers(matrix, Q)
        prec, rec, f1 = f1_score(predicted, matrix.labels)
    return RecoveryReport(
        estimated_codim=rank,
        singular_values=tuple(float(v) for v in svals),
        orthonormalized_complement=Q,
        procrustes_distance=proc,
        projection_distance=proj,
        max_principal_angle=ang,
        outlier_f1=f1,
        outlier_precision=prec,
        outlier_recall=rec,
    )
