"""Correctness checks on the program's outputs, computed apart from the program.

Every check returns a list of failure messages; an empty list is a pass. The
checks use numpy alone and the benchmark's own CSV reader, never the
program's analysis or I/O code, so a fault in those shows here.
"""

from __future__ import annotations

import json
import math

import numpy as np

UNIT_TOL = 1e-9
ORTHO_TOL = 1e-8
CONVERGED_ANGLE = 1e-4      # rad from the complement, for an instance that stopped early
REPORT_MATCH = 1e-8         # own projector distance against the report's
OBJECTIVE_RTOL = 1e-12      # the final objective is recomputed, so allow rounding
OFF_ANGLE = math.radians(10.0)
F1_MIN = 0.98
CLI_DISTANCE = 1e-2
RECOVERY_DISTANCE = 1e-2   # gate 04's bound on the projection distance


def read_points_csv(path: str) -> tuple[np.ndarray, list[str] | None]:
    """Rows of a points-orientation CSV (header x0..x{D-1}[,label]) as floats,
    with the label column when there is one."""
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        rows = [line.rstrip("\r\n").split(",") for line in fh if line.strip()]
    if header[-1] == "label":
        return np.array([r[:-1] for r in rows], dtype=float), [r[-1] for r in rows]
    return np.array(rows, dtype=float), None


def angle_from_complement(B: np.ndarray, basis_S: np.ndarray) -> np.ndarray:
    """Per column, the angle between b and the orthogonal complement of S."""
    inside = np.linalg.norm(basis_S.T @ B, axis=0)
    outside = np.linalg.norm(B - basis_S @ (basis_S.T @ B), axis=0)
    return np.arctan2(inside, outside)


def leading_directions(B: np.ndarray, k: int) -> np.ndarray:
    return np.linalg.svd(B, full_matrices=False)[0][:, :k]


def projector_distance(P: np.ndarray, Q: np.ndarray) -> float:
    """Frobenius norm of P P^T - Q Q^T for orthonormal P and Q."""
    return float(np.linalg.norm(P @ P.T - Q @ Q.T))


def complement_of_rows(X: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis of the complement of the span of the rows of X."""
    return np.linalg.svd(X, full_matrices=True)[2][rank:].T


def numerical_rank(X: np.ndarray, rtol: float = 1e-8) -> int:
    s = np.linalg.svd(X, compute_uv=False)
    return int(np.sum(s > rtol * s[0]))


def unit_columns(B: np.ndarray, what: str) -> list[str]:
    err = float(np.max(np.abs(np.linalg.norm(B, axis=0) - 1.0)))
    return [] if err <= UNIT_TOL else [f"{what}: a column norm is off by {err:.2e}"]


def orthonormal_columns(B: np.ndarray, what: str) -> list[str]:
    err = float(np.max(np.abs(B.T @ B - np.eye(B.shape[1]))))
    return [] if err <= ORTHO_TOL else [f"{what}: columns off orthonormal by {err:.2e}"]


def objective_never_rises(objective: np.ndarray, what: str) -> list[str]:
    rise = np.diff(objective) - OBJECTIVE_RTOL * np.abs(objective[:-1])
    if np.any(rise > 0):
        k = int(np.argmax(rise))
        return [f"{what}: objective rises at iteration {k + 1}"]
    return []


def row_basics(row, c_prime: int) -> list[str]:
    """A harness row ran without error and estimated 1 <= c-hat <= c'."""
    where = f"{row.method} {row.cell} trial {row.trial}"
    if row.error:
        return [f"{where}: error {row.error}"]
    chat = row.report.get("estimated_codim")
    if not isinstance(chat, int) or not 1 <= chat <= c_prime:
        return [f"{where}: estimated codimension {chat} outside [1, {c_prime}]"]
    return []


def codim_row(row, c_prime: int) -> list[str]:
    """Gate-04 property at r=0.6: c-hat = c and the leading c-hat directions
    lie within RECOVERY_DISTANCE of the complement."""
    bad = row_basics(row, c_prime)
    if bad:
        return bad
    c, chat = row.cell["c"], row.report["estimated_codim"]
    if chat != c:
        return [f"c={c}: estimated codimension {chat}"]
    dist = row.report["projection_distance"]
    if not dist < RECOVERY_DISTANCE:
        return [f"c={c}: projection distance {dist:.3e}"]
    return []


def psgm_basis(B, traces, max_iters: int, model, report: dict) -> list[str]:
    """A psgm_multi basis against its ground-truth model and its report row."""
    B = np.asarray(B)
    bad = unit_columns(B, "psgm basis")
    angles = angle_from_complement(B, model.basis_S)
    for i, tr in enumerate(traces):
        if tr.n_iterations < max_iters and angles[i] > CONVERGED_ANGLE:
            bad.append(f"instance {i} stopped at iteration {tr.n_iterations} "
                       f"{angles[i]:.2e} rad from the complement")
        bad += objective_never_rises(tr.objective, f"instance {i}")
    own = projector_distance(leading_directions(B, report["estimated_codim"]),
                             model.basis_Sperp)
    if not abs(own - report["projection_distance"]) <= REPORT_MATCH:
        bad.append(f"projection distance {report['projection_distance']:.3e} in the "
                   f"report, {own:.3e} recomputed")
    return bad


def rsgm_over_basis(B, model) -> list[str]:
    """Gate 06: the orthonormal baseline at c' > c leaves the complement."""
    B = np.asarray(B)
    bad = orthonormal_columns(B, "rsgm_over basis")
    off = int(np.sum(angle_from_complement(B, model.basis_S) > OFF_ANGLE))
    if off < 5:
        bad.append(f"rsgm_over: only {off} columns more than 10 degrees from the complement")
    return bad


def outlier_scores_separate(B, points: np.ndarray, is_outlier: np.ndarray, k: int,
                            what: str) -> list[str]:
    """Scores against the leading k directions put every outlier above every inlier."""
    scores = np.linalg.norm(leading_directions(np.asarray(B), k).T @ points, axis=0)
    low, high = float(scores[is_outlier].min()), float(scores[~is_outlier].max())
    return [] if low > high else [f"{what}: outlier score {low:.3g} <= inlier score {high:.3g}"]


def f1_at_least(row, what: str) -> list[str]:
    f1 = row.report.get("outlier_f1")
    return [] if f1 is not None and f1 >= F1_MIN else [f"{what}: F1 {f1} below {F1_MIN}"]


def generated_csv(path: str, D: int, d: int, N: int, M: int) -> tuple[list[str], np.ndarray | None]:
    """The dataset CSV of `dpcp gen`; returns the failures and, when the
    inliers parse, an orthonormal basis of the complement of their span."""
    values, labels = read_points_csv(path)
    if values.shape != (N + M, D) or labels is None:
        return [f"data CSV has shape {values.shape}, labels {labels is not None}"], None
    bad = unit_columns(values.T, "data CSV")
    if labels.count("in") != N or labels.count("out") != M:
        bad.append(f"data CSV labels: {labels.count('in')} in, {labels.count('out')} out")
        return bad, None
    X = values[np.array(labels) == "in"]
    rank = numerical_rank(X)
    if rank != d:
        bad.append(f"inliers have rank {rank}, expected {d}")
    return bad, complement_of_rows(X, d)


def solve_outputs(report_path: str, basis_path: str, complement: np.ndarray | None,
                  c: int) -> list[str]:
    """The report and basis CSV of `dpcp solve` against the data's complement."""
    with open(report_path) as fh:
        chat = json.load(fh).get("estimated_codim")
    bad = [] if chat == c else [f"report estimated_codim {chat}, expected {c}"]
    B = read_points_csv(basis_path)[0].T
    if complement is None or B.shape[0] != complement.shape[0]:
        return bad + [f"basis CSV has {B.shape[0]} rows"]
    dist = projector_distance(leading_directions(B, c), complement)
    if not dist < CLI_DISTANCE:
        bad.append(f"leading {c} basis directions {dist:.3e} from the inlier complement")
    return bad
