"""Kernel-space formulation: Gram matrices, sketched kernel solves in weight
space, RKHS metrics, and random Fourier features.

Sketching the n x n Gram matrix ``K`` with an oblivious ``s_tilde`` is
structurally identical to sketching the feature matrix with the adaptive
embedding built from the same ``s_tilde``; the solvers here only ever touch
``K``, never the features.
"""

from __future__ import annotations

import numpy as np

from subsketch.embeddings import _whiten_svd
from subsketch.losses import SmoothLoss
from subsketch.numkit import SeededRng
from subsketch.solvers import SolveOptions, SolveResult, solve_sketched

DEFAULT_PSD_TOLERANCE = 1e-10


def gram_from_features(A: np.ndarray) -> np.ndarray:
    """Linear-kernel Gram matrix ``A @ A.T``, symmetrized against roundoff."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        raise ValueError("feature matrix must be nonempty")
    K = A @ A.T
    return 0.5 * (K + K.T)


def gram_gaussian_kernel(X: np.ndarray, gamma: float) -> np.ndarray:
    """Gaussian-kernel Gram matrix ``exp(-gamma ||x_i - x_j||^2)`` over the rows of X."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    K = np.exp(-gamma * d2)
    return 0.5 * (K + K.T)


def kernel_root(K: np.ndarray, psd_tolerance: float = DEFAULT_PSD_TOLERANCE) -> np.ndarray:
    """A square root ``K_h`` with ``K_h @ K_h.T = K``, via symmetric
    eigendecomposition with eigenvalues clamped at zero."""
    K = np.asarray(K, dtype=float)
    evals, evecs = np.linalg.eigh(0.5 * (K + K.T))
    top = float(evals[-1]) if evals.size else 0.0
    if top <= 0.0:
        raise ValueError("Gram matrix has no positive eigenvalue")
    if float(evals[0]) < -psd_tolerance * top:
        raise ValueError("Gram matrix is not positive semidefinite within tolerance")
    keep = evals > psd_tolerance * top
    return evecs[:, keep] * np.sqrt(evals[keep])


def solve_sketched_kernel(K: np.ndarray, s_tilde: np.ndarray, loss: SmoothLoss, lam: float,
                          opts: SolveOptions = SolveOptions(),
                          psd_tolerance: float = DEFAULT_PSD_TOLERANCE) -> SolveResult:
    """Minimize f(K s_tilde a) + lam/2 * a.T s_tilde.T K s_tilde a.

    Solved in the whitened factor space: with ``K = K_h K_h.T`` the program is
    the sketched ridge problem for the data ``K_h.T`` and embedding
    ``K_h.T @ s_tilde``, so the smooth solvers apply verbatim after the change
    of variables; the returned minimizer is mapped back to the original
    coordinates.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    s_tilde = np.asarray(s_tilde, dtype=float)
    K_h = kernel_root(K, psd_tolerance)
    S_k = K_h.T @ s_tilde
    f, q = _whiten_svd(S_k)
    res = solve_sketched(K_h @ q, loss, lam, opts)
    # coordinates of q @ beta in the left singular basis, then S_k @ alpha = q @ beta
    beta_u = f.vt @ res.minimizer if f.rank == S_k.shape[1] else res.minimizer
    alpha = f.vt.T @ (beta_u / f.singular_values)
    return SolveResult(alpha, res.objective, res.grad_norm, res.iterations, res.converged)


def kernel_zero_order(s_tilde: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Weight-space linear reconstruction ``s_tilde @ alpha``."""
    return np.asarray(s_tilde, dtype=float) @ np.asarray(alpha, dtype=float)


def kernel_first_order(K: np.ndarray, s_tilde: np.ndarray, alpha: np.ndarray,
                       loss: SmoothLoss, lam: float) -> np.ndarray:
    """Weight-space dual map ``-(1/lam) grad_f(K s_tilde alpha)``."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    K = np.asarray(K, dtype=float)
    inner = K @ (np.asarray(s_tilde, dtype=float) @ np.asarray(alpha, dtype=float))
    return -loss.gradient(inner) / lam


def rkhs_distance(K: np.ndarray, w: np.ndarray, v: np.ndarray) -> float:
    """RKHS norm ``sqrt((w-v).T K (w-v))`` of the kernel expansion difference."""
    K = np.asarray(K, dtype=float)
    delta = np.asarray(w, dtype=float) - np.asarray(v, dtype=float)
    return float(np.sqrt(max(float(delta @ (K @ delta)), 0.0)))


def rff_features(X: np.ndarray, feature_count: int, gamma: float, rng: SeededRng) -> np.ndarray:
    """Random cosine features approximating the Gaussian kernel.

    ``psi(x) = sqrt(2/D) cos(W x + u)`` with rows of W drawn N(0, 2*gamma*I)
    and phases u uniform on [0, 2*pi], so that the feature inner products
    concentrate around ``exp(-gamma ||x - x'||^2)``.
    """
    if feature_count < 1:
        raise ValueError("feature_count must be >= 1")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    gen = rng.generator()
    W = gen.normal(0.0, np.sqrt(2.0 * gamma), size=(feature_count, X.shape[1]))
    u = gen.uniform(0.0, 2.0 * np.pi, size=feature_count)
    return np.sqrt(2.0 / feature_count) * np.cos(X @ W.T + u)
