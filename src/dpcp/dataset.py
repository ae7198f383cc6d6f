"""Datasets of unit-norm column points, ground-truth subspaces, and CSV I/O.

A dataset is a D x (N+M) matrix whose columns are points: N inliers spanning a
d-dimensional subspace S and M outliers spread over the full ambient sphere.
Generation is seeded and reproducible bit for bit, and builds each dataset
in one D x n array that the container adopts. All containers are frozen
after construction. CSV files are written with one "%.17g" row format and
read with one np.loadtxt call, so a saved dataset loads back bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INLIER = "inlier"
OUTLIER = "outlier"

_UNIT_TOL = 1e-9
_ORTHO_TOL = 1e-10


class CsvFormatError(ValueError):
    """Malformed CSV input: bad row length, non-numeric cell, or bad label."""


def _frozen_array(a, dtype=float) -> np.ndarray:
    """A read-only C-contiguous copy of a, or a itself when it already is a
    read-only, C-contiguous array of that dtype that owns its data."""
    if (isinstance(a, np.ndarray) and a.dtype == np.dtype(dtype) and a.flags.owndata
            and a.flags.c_contiguous and not a.flags.writeable):
        return a
    out = np.array(a, dtype=dtype, order="C", copy=True)
    out.flags.writeable = False
    return out


def _freeze(a: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only, so a container adopts it uncopied."""
    a.flags.writeable = False
    return a


def _unit_columns(P: np.ndarray) -> bool:
    """Whether every column norm is within 1e-9 of 1; the einsum needs no D x n temporary."""
    return bool(np.all(np.abs(np.sqrt(np.einsum("ij,ij->j", P, P)) - 1.0) <= _UNIT_TOL))


@dataclass(frozen=True)
class DataMatrix:
    """Column-point dataset.

    points : (D, n) array, one point per column.
    labels : optional per-column array with values "inlier" / "outlier".
    unit_normalized : certifies every column norm is within 1e-9 of 1.

    Points and labels that are read-only, C-contiguous, of the field's dtype
    and own their data are adopted as they are, so a builder that freezes its
    fresh array hands it over uncopied. Anything else is copied: later writes
    to a caller's writeable array leave the container unchanged.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    unit_normalized: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array with one point per column")
        if pts.shape[1] == 0 or pts.shape[0] == 0:
            raise ValueError("empty dataset: points must have at least one row and column")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite entries")
        object.__setattr__(self, "points", _frozen_array(pts))
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != (pts.shape[1],):
                raise ValueError(f"labels length {lab.shape} does not match {pts.shape[1]} columns")
            bad = set(lab.tolist()) - {INLIER, OUTLIER}  # before the U7 cast can truncate one
            if bad:
                raise ValueError(f"labels must be {INLIER!r} or {OUTLIER!r}, got {sorted(bad, key=str)}")
            object.__setattr__(self, "labels", _frozen_array(lab, dtype="U7"))
        if self.unit_normalized and not _unit_columns(self.points):
            raise ValueError("unit_normalized is set but a column norm is off by more than 1e-9")

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[0]

    @property
    def n_points(self) -> int:
        return self.points.shape[1]

    def inlier_mask(self) -> np.ndarray:
        if self.labels is None:
            raise ValueError("dataset has no labels")
        return self.labels == INLIER

    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (inlier columns, outlier columns); requires labels."""
        m = self.inlier_mask()
        return self.points[:, m], self.points[:, ~m]


def _columns(a, vector: bool = True) -> np.ndarray:
    """The (D, k) array, k >= 1, of a DataMatrix's points, as they are, or of
    a basis's columns or an array, as floats; a vector is one column unless
    vector is False."""
    if isinstance(a, DataMatrix):
        return a.points
    a = np.asarray(getattr(a, "columns", a), dtype=float)
    if vector and a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[1] < 1:
        raise ValueError("a basis or point array must be a non-empty (D, k) array")
    return a


@dataclass(frozen=True)
class SubspaceModel:
    """Orthonormal basis of an inlier subspace S and of its complement.

    basis_S : (D, d) orthonormal columns spanning S.
    basis_Sperp : (D, c) orthonormal columns spanning the complement, c = D - d.
    """

    basis_S: np.ndarray
    basis_Sperp: np.ndarray

    def __post_init__(self):
        S = np.asarray(self.basis_S, dtype=float)
        P = np.asarray(self.basis_Sperp, dtype=float)
        if S.ndim != 2 or P.ndim != 2 or S.shape[0] != P.shape[0]:
            raise ValueError("basis_S and basis_Sperp must share the ambient dimension")
        D = S.shape[0]
        if S.shape[1] + P.shape[1] != D or S.shape[1] < 1 or P.shape[1] < 1:
            raise ValueError("invalid dimensions: need d >= 1, c >= 1, d + c = D")
        J = np.column_stack([S, P])
        if np.max(np.abs(J.T @ J - np.eye(D))) > _ORTHO_TOL:
            raise ValueError("bases are not jointly orthonormal within 1e-10")
        object.__setattr__(self, "basis_S", _frozen_array(S))
        object.__setattr__(self, "basis_Sperp", _frozen_array(P))

    @property
    def ambient_dim(self) -> int:
        return self.basis_S.shape[0]

    @property
    def inlier_dim(self) -> int:
        return self.basis_S.shape[1]

    @property
    def codim(self) -> int:
        return self.basis_Sperp.shape[1]

    def project_S(self, v: np.ndarray) -> np.ndarray:
        return self.basis_S @ (self.basis_S.T @ v)

    def project_Sperp(self, v: np.ndarray) -> np.ndarray:
        return self.basis_Sperp @ (self.basis_Sperp.T @ v)


def unit_sphere_columns(rng: np.random.Generator, dim: int, n: int) -> np.ndarray:
    """n independent uniform draws from the unit sphere in R^dim, as columns."""
    g = rng.standard_normal((dim, n))
    return g / np.linalg.norm(g, axis=0)


def sample_haar_subspace(D: int, d: int, seed: int) -> SubspaceModel:
    """Draw a uniformly random d-dimensional subspace of R^D with its complement.

    QR of a Gaussian matrix with the R-diagonal sign fix, so the draw is
    uniform over the Grassmannian and reproducible for a fixed seed.
    """
    if not 1 <= d < D:
        raise ValueError(f"invalid dimensions: need 1 <= d < D, got d={d}, D={D}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((D, d))
    q, r = np.linalg.qr(g, mode="complete")
    signs = np.sign(np.diag(r)[:d])
    signs[signs == 0] = 1.0
    q[:, :d] *= signs
    return SubspaceModel(basis_S=q[:, :d], basis_Sperp=q[:, d:])


def generate_dataset(model: SubspaceModel, N: int, M: int, seed: int) -> DataMatrix:
    """N unit inliers in span(model.basis_S), M unit outliers on the full sphere.

    Inliers are Gaussian coefficient draws pushed through basis_S and
    normalized; outliers are uniform sphere points. A seeded permutation drawn
    last shuffles the columns. One D x n array holds them all: the product
    for the inliers is written straight into its first N columns, the
    outliers are drawn row by row into the rest (the stream of one D x M
    draw), each block is normalized in place, and each row is then permuted
    in place. No block or second D x n array exists beside it, and the bits
    are those of concatenate-then-permute. Labels travel with their columns.
    """
    if N < 0 or M < 0 or N + M < 1:
        raise ValueError("empty dataset: need N + M >= 1 with N, M >= 0")
    rng = np.random.default_rng(seed)
    pts = np.empty((model.ambient_dim, N + M))
    inliers, outliers = pts[:, :N], pts[:, N:]
    np.matmul(model.basis_S, rng.standard_normal((model.inlier_dim, N)), out=inliers)
    inliers /= np.linalg.norm(inliers, axis=0)
    for row in outliers:
        rng.standard_normal(out=row)
    outliers /= np.linalg.norm(outliers, axis=0)
    perm = rng.permutation(N + M)
    for row in pts:
        row[:] = row[perm]
    labels = np.where(perm < N, INLIER, OUTLIER)
    return DataMatrix(points=_freeze(pts), labels=_freeze(labels), unit_normalized=True)


def corrupt_with_outliers(matrix: DataMatrix, ratio: float, seed: int) -> DataMatrix:
    """Replace ceil(ratio * n) randomly chosen columns with uniform sphere points.

    The returned labels mark exactly the replaced columns as outliers. The
    ceiling is taken after snapping away float noise of order 1e-12 so that
    ratios like 0.07 on round counts do not overshoot by one.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"invalid ratio: need 0 <= r < 1, got {ratio}")
    n = matrix.n_points
    k = math.ceil(ratio * n - 1e-12)
    k = max(k, 0)
    rng = np.random.default_rng(seed)
    pts = matrix.points.copy()
    labels = np.full(n, INLIER, dtype="U7")
    if k:
        idx = rng.choice(n, size=k, replace=False)
        pts[:, idx] = unit_sphere_columns(rng, matrix.ambient_dim, k)
        labels[idx] = OUTLIER
    return DataMatrix(points=_freeze(pts), labels=_freeze(labels),
                      unit_normalized=matrix.unit_normalized)


def normalize_columns(matrix: DataMatrix) -> DataMatrix:
    """Scale every column to unit norm; a zero column is a hard error. A column
    whose plain norm overflows, or underflows below sqrt(tiny) where it loses
    digits, is first divided by its largest |entry|; the others keep their bits."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(matrix.points, axis=0)
    odd = (norms < np.sqrt(np.finfo(float).tiny)) | np.isinf(norms)
    norms[odd] = np.abs(matrix.points[:, odd]).max(axis=0)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"degenerate column: column {zero[0]} has zero norm")
    pts = matrix.points / norms
    pts[:, odd] /= np.linalg.norm(pts[:, odd], axis=0)
    return DataMatrix(points=pts, labels=matrix.labels, unit_normalized=True)


_LABEL_SHORT = {INLIER: "in", OUTLIER: "out"}
_LABEL_CODE = {"in": 1.0, "out": 0.0}


def save_csv(matrix: DataMatrix, path: str, orientation: str = "points") -> None:
    """Write a dataset as CSV at 17 significant digits with CRLF line ends.

    orientation="points" (default): one row per point, header x0..x{D-1} and a
    trailing "label" column when labels are present. orientation="dims": one
    row per ambient dimension, no header and no labels.
    """
    pts = matrix.points
    if orientation == "points":
        rows, header = pts.T, [f"x{i}" for i in range(pts.shape[0])]
    elif orientation == "dims":
        rows, header = pts, []
    else:
        raise ValueError(f"unknown orientation {orientation!r}; use 'points' or 'dims'")
    fmt = ",".join(["%.17g"] * rows.shape[1])
    tags = [()] * rows.shape[0]
    if orientation == "points" and matrix.labels is not None:
        header.append("label")
        fmt += ",%s"
        tags = [(_LABEL_SHORT[label],) for label in matrix.labels]
    fmt += "\r\n"
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(",".join(header) + "\r\n")
        fh.writelines(fmt % (*row.tolist(), *tag) for row, tag in zip(rows, tags))


def _next_line(fh) -> tuple[str, int]:
    """The next non-blank line ("" at the end of the file) and how many lines were read."""
    line, read = fh.readline(), 1
    while line == "\n":
        line, read = fh.readline(), read + 1
    return line, read


def load_csv(path: str, orientation: str = "points") -> DataMatrix:
    """Read a dataset written by save_csv (or hand-built in the same format).

    A first row whose leading cell does not parse as a number is treated as a
    header. In "points" orientation a trailing "label" column (values in/out)
    is recognized either from the header or, headerless, from the first row.
    The rows go to one np.loadtxt call: blank lines are skipped, cells may be
    quoted or padded with spaces, and "#" does not start a comment. Malformed
    rows raise CsvFormatError. The unit_normalized flag is recomputed from the
    loaded column norms.
    """
    if orientation not in ("points", "dims"):
        raise ValueError(f"unknown orientation {orientation!r}; use 'points' or 'dims'")
    with open(path) as fh:
        line, skip = _next_line(fh)
        if not line:
            raise CsvFormatError("empty file")
        first = [cell.strip().strip('"') for cell in line.split(",")]
        try:
            float(first[0])
            header = False
            skip -= 1  # the first line is data
        except ValueError:
            header = True
        if header and not _next_line(fh)[0]:
            raise CsvFormatError("no data rows after header")
        has_label = orientation == "points" and (
            first[-1].lower() == "label" if header else first[-1] in _LABEL_CODE
        )
        fh.seek(0)
        try:
            values = np.loadtxt(
                fh, delimiter=",", comments=None, quotechar='"', ndmin=2, skiprows=skip,
                converters={-1: lambda cell: _LABEL_CODE[cell.strip()]} if has_label else None,
            )
        except ValueError as e:
            raise CsvFormatError(str(e)) from None

    labels = None
    if has_label:
        labels = np.where(values[:, -1] == _LABEL_CODE["in"], INLIER, OUTLIER)
        values = values[:, :-1]
    pts = values.T if orientation == "points" else values
    return DataMatrix(points=pts, labels=labels, unit_normalized=_unit_columns(pts))
