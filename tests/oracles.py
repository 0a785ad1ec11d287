"""Independent oracle implementations used to cross-check the library.

Everything here deliberately takes a different computational route from the
package code: one-sided Jacobi instead of LAPACK SVD, bisection instead of
sort-and-threshold projections, accelerated gradient instead of Newton, nested
grid search instead of any solver.  The SRHT oracle transforms every padded
row with the Walsh-Hadamard butterflies, allocating fresh sums and differences
at every stage, where the package multiplies by the selected signed Hadamard
columns in closed form; the two sum in different orders, so they agree to
rounding.  The risk oracle
keeps the per-trial Monte-Carlo loop (one noise draw and one Cholesky solve per
trial and direction) that the package replaced by one multi-right-hand-side
solve per direction.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from subsketch.embeddings import build_sketch
from subsketch.numkit import ResidualOperator, spectral_norm, thin_svd


def jacobi_singular_values(M: np.ndarray, sweeps: int = 60, tol: float = 1e-14) -> np.ndarray:
    """Singular values by one-sided Jacobi rotations on the columns."""
    W = np.array(M, dtype=float, copy=True)
    if W.shape[0] < W.shape[1]:
        W = W.T.copy()
    p = W.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for i in range(p - 1):
            for j in range(i + 1, p):
                a = float(W[:, i] @ W[:, i])
                b = float(W[:, j] @ W[:, j])
                c = float(W[:, i] @ W[:, j])
                if abs(c) <= tol * np.sqrt(a * b) or a * b == 0.0:
                    continue
                off = max(off, abs(c))
                theta = 0.5 * np.arctan2(2.0 * c, a - b)
                cs, sn = np.cos(theta), np.sin(theta)
                wi = cs * W[:, i] + sn * W[:, j]
                wj = -sn * W[:, i] + cs * W[:, j]
                W[:, i], W[:, j] = wi, wj
        if off == 0.0:
            break
    s = np.linalg.norm(W, axis=0)
    return np.sort(s)[::-1]


def central_difference_gradient(f, w: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.empty_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


def nested_grid_minimize(f, lows, highs, rounds: int = 8, pts: int = 41):
    """Zooming grid search for smooth objectives over a box; returns (x, value).

    Each round evaluates a full grid and shrinks the box around the best point,
    clipped to the original bounds, which also resolves optima on the boundary.
    """
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    lo, hi = lows.copy(), highs.copy()
    best_x, best_v = None, np.inf
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], pts) for i in range(lo.size)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts_arr = np.stack([m.ravel() for m in mesh], axis=1)
        vals = np.array([f(x) for x in pts_arr])
        k = int(np.argmin(vals))
        if vals[k] < best_v:
            best_v = float(vals[k])
            best_x = pts_arr[k]
        span = (hi - lo) * (2.0 / (pts - 1))
        lo = np.maximum(lows, best_x - span)
        hi = np.minimum(highs, best_x + span)
    return best_x, best_v


def simplex_projection_bisection(v: np.ndarray, radius: float = 1.0,
                                 iters: int = 200) -> np.ndarray:
    """Projection onto {u >= 0, sum u = radius} by bisecting the threshold."""
    v = np.asarray(v, dtype=float)
    lo = float(v.min()) - radius / v.size - 1.0
    hi = float(v.max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        total = np.maximum(v - mid, 0.0).sum()
        if total > radius:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return np.maximum(v - theta, 0.0)


def accelerated_gradient(grad, lipschitz: float, x0: np.ndarray, iters: int = 20_000,
                         tol: float = 1e-14) -> np.ndarray:
    """Nesterov's accelerated gradient method with fixed step 1/L."""
    x = x0.copy()
    z = x0.copy()
    t = 1.0
    for _ in range(iters):
        g = grad(z)
        x_next = z - g / lipschitz
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_next + (t - 1.0) / t_next * (x_next - x)
        if np.linalg.norm(x_next - x) <= tol * (1.0 + np.linalg.norm(x)):
            return x_next
        x, t = x_next, t_next
    return x


def ridge_solution(A: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form minimizer of 0.5 ||A x - b||^2 + lam/2 ||x||^2."""
    d = A.shape[1]
    return np.linalg.solve(A.T @ A + lam * np.eye(d), A.T @ b)


def allocating_fwht_rows(M: np.ndarray) -> np.ndarray:
    """Orthonormal Walsh-Hadamard transform of each row, one whole-matrix
    stage at a time, with fresh arrays for the sums and differences."""
    M = np.array(M, dtype=float, copy=True, order="C")
    n = M.shape[1]
    h = 1
    while h < n:
        M = M.reshape(M.shape[0], -1, 2, h)
        top = M[:, :, 0, :] + M[:, :, 1, :]
        bot = M[:, :, 0, :] - M[:, :, 1, :]
        M[:, :, 0, :] = top
        M[:, :, 1, :] = bot
        M = M.reshape(M.shape[0], n)
        h *= 2
    return M / np.sqrt(n)


def allocating_apply_srht(M: np.ndarray, m: int, rng) -> np.ndarray:
    """``M @ S`` for the SRHT ``S = sqrt(p_tilde / m) * D @ H @ R``: signs, then
    columns, from one generator; the padded, sign-flipped copy of ``M`` is
    transformed in full by :func:`allocating_fwht_rows`."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    p = M.shape[1]
    pt = 1 << (p - 1).bit_length()
    gen = rng.generator()
    signs = gen.integers(0, 2, size=pt) * 2.0 - 1.0
    cols = gen.choice(pt, size=m, replace=False)
    Mp = np.zeros((M.shape[0], pt))
    Mp[:, :p] = M
    Mp *= signs
    return np.sqrt(pt / m) * allocating_fwht_rows(Mp)[:, cols]


def loop_risk_zero_order(A, spec, noise_var, lam, trials, rng):
    """``analysis.risk_zero_order`` with a fresh noise draw and a Cholesky solve
    for every trial of every direction: ``(mc_risk, analytic_limit)``."""
    A = np.asarray(A, dtype=float)
    n, d = A.shape
    sketch = build_sketch(A, spec)
    B = sketch.a_qs  # n x r
    r = B.shape[1]

    f = thin_svd(A)
    directions = [f.vt[j] for j in range(min(3, f.rank))]
    gen = rng.generator()
    for _ in range(5):
        v = gen.standard_normal(d)
        directions.append(v / np.linalg.norm(v))

    resid = spectral_norm(ResidualOperator(thin_svd(B).u, A), tol=1e-10)
    analytic = noise_var * r / n + resid**2

    gram = B.T @ B
    gram[np.diag_indices_from(gram)] += lam
    factor = cho_factor(gram)
    noise_scale = np.sqrt(noise_var / n)
    mc_risk = 0.0
    for v in directions:
        signal = A @ v
        total = 0.0
        for tr in range(trials):
            w = noise_scale * rng.derive(tr).generator().standard_normal(n)
            b = signal + w
            beta = cho_solve(factor, B.T @ b)
            err = B @ beta - signal
            total += float(err @ err)
        mc_risk = max(mc_risk, total / trials)
    return mc_risk, float(analytic)
