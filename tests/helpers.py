"""Shared oracles for the test suite.

Everything here is an independent re-derivation of a quantity the package
computes in closed form: Monte Carlo means, finite differences, brute-force
grids, and direct series summation. Slow but obviously correct. The
exceptions are CountingArray, which counts the matrix products a run spends,
and panel_value_and_grad/default_mu0, which repeat the solver's own
width-PANEL_WIDTH arithmetic so tests can compare against it bit for bit.
"""
import numpy as np

from dpcp.solver import PANEL_WIDTH


def mc_hemisphere_height(k, n_samples=1_000_000, seed=0, chunk=100_000):
    """Monte Carlo E|z_1| for z uniform on the unit sphere in R^k.

    By rotation invariance this is the mean absolute inner product with any
    fixed unit vector. Chunked so large k stays within memory.
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        g = rng.standard_normal((m, k))
        total += np.sum(np.abs(g[:, 0]) / np.linalg.norm(g, axis=1))
        done += m
    return total / n_samples


def fd_directional(f, b, v, h=1e-6):
    """Central finite difference of f along unit direction v at b."""
    return (f(b + h * v) - f(b - h * v)) / (2.0 * h)


def brute_objective(points, B):
    """Double-loop sum of |<p_j, b_i>|."""
    total = 0.0
    for i in range(B.shape[1]):
        for j in range(points.shape[1]):
            total += abs(float(points[:, j] @ B[:, i]))
    return total


def grid_procrustes(A, B, n=10_000):
    """Brute-force min over 2x2 orthogonal Q of ||B - A Q||_F.

    Q is parameterized as all rotations plus all reflections over n angles.
    Only valid for two-column bases.
    """
    assert A.shape[1] == 2 and B.shape[1] == 2
    best = np.inf
    for t in np.linspace(0.0, 2.0 * np.pi, n, endpoint=False):
        c, s = np.cos(t), np.sin(t)
        for Q in (np.array([[c, -s], [s, c]]), np.array([[c, s], [s, -c]])):
            d = np.linalg.norm(B - A @ Q)
            if d < best:
                best = d
    return best


def grid_min_angle_objective(points, n=1_000_000):
    """Argmin over n grid angles of sum_j |<p_j, b(theta)>| for 2-D points.

    Returns (theta_star, value); b(theta) = (cos theta, sin theta).
    """
    thetas = np.linspace(0.0, np.pi, n, endpoint=False)
    B = np.vstack([np.cos(thetas), np.sin(thetas)])
    vals = np.abs(points.T @ B).sum(axis=0)
    i = int(np.argmin(vals))
    return float(thetas[i]), float(vals[i])


def summed_kappa(mu0, beta, K0, K_star, growth, shrink, M, n_terms=100_000):
    """kappa for one instance by direct numeric summation.

    Sums M mu0 / beta^(K0/K_star) * sum_t r^t with
    r = ((1 + mu0 * growth) / shrink) * beta^(1/K_star), truncated once the
    tail is below machine precision.
    """
    r = (1.0 + mu0 * growth) / shrink * beta ** (1.0 / K_star)
    assert r < 1.0
    total = 0.0
    term = 1.0
    for _ in range(n_terms):
        total += term
        term *= r
        if term < 1e-18 * total:
            break
    return M * mu0 / beta ** (K0 / K_star) * total


def rand_unit(rng, D):
    v = rng.standard_normal(D)
    return v / np.linalg.norm(v)


def rand_orthonormal(rng, D, k):
    q, r = np.linalg.qr(rng.standard_normal((D, k)))
    return q * np.sign(np.diag(r))


def angle_between(u, v):
    return float(np.arccos(np.clip(abs(float(u @ v)), 0.0, 1.0)))


class CountingArray(np.ndarray):
    """ndarray view that counts the matrix products it enters; views of it
    (such as its transpose) share one counter."""

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.counter[0] += 1
        inputs = [x.view(np.ndarray) if isinstance(x, CountingArray) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def count_products(matrix):
    """Replace matrix.points by a counting view; returns its one-element counter."""
    view = matrix.points.view(CountingArray)
    view.counter = [0]
    object.__setattr__(matrix, "points", view)
    return view.counter


def panel_value_and_grad(matrix, b):
    """f(b), g(b) and ||g(b)||^2 of unit b as a psgm panel computes them: b in
    one row of a PANEL_WIDTH-row block, both products at that width."""
    A = matrix.points
    X = np.zeros((PANEL_WIDTH, A.shape[0]))
    X[0] = b
    S = X @ A
    g = (np.sign(S) @ A.T)[:1]
    return np.abs(S[:1]).sum(axis=1)[0], g[0], np.einsum("ij,ij->i", g, g)[0]


def default_mu0(matrix, b0):
    """The automatic first step f(b0)/||g(b0)||^2 of a psgm instance, or 1
    when g(b0) = 0."""
    f, _, n2 = panel_value_and_grad(matrix, b0)
    return f / n2 if n2 > 0 else 1.0
