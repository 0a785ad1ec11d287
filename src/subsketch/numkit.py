"""Dense linear-algebra kernels: thin SVD, spectral norms, seeded sampling.

Matrices are plain float64 numpy arrays in C (row-major) order.  Spectral
norms come from Golub-Kahan-Lanczos bidiagonalization with full
reorthogonalization, of a dense matrix or of an operator that is applied to
vectors only, such as the projection residual :class:`ResidualOperator`.

All sampling goes through :class:`SeededRng`, a thin wrapper around numpy's
counter-based Philox bit generator, so every draw is reproducible from a
``(seed, stream_id)`` pair across platforms.

The numpy and scipy wheels each bundle an OpenBLAS with its own thread pool.
Importing this module holds scipy's pool at one thread for the whole process,
because the spinning workers of two multi-threaded pools compete for the same
cores and slow numpy's work down.  numpy's pool keeps following
``OPENBLAS_NUM_THREADS``.  The package splits its dense work between the two:

- scipy's one-thread LAPACK runs every factorization: the thin SVD here
  (``gesdd``, with a ``gesvd`` fallback), the QR of
  :func:`sample_haar_frame`, the SVDs of ``analysis.condition_numbers``, the
  ``syevd`` of ``kernelize.kernel_root``, the least squares (``gelsd``) that
  backs up a singular Newton step, and the dual finisher's factor of its
  face (a pivoted QR, ``geqp3``, then triangular solves, ``trtrs``, and
  Givens deletions, ``qr_delete``); also L-BFGS-B in the non-smooth dual and
  ``dstebz`` on a k x k tridiagonal here.
- numpy's pool runs the matrix products (the sketch draws, among them the
  product with the SRHT's signed Hadamard columns, ``A @ q_s``, the Newton
  Hessians, the finisher's gradients) and the LU solves of the Newton steps.

The reason is measured (2 vCPU, numpy's pool at 2 threads): at these sizes a
factorization is up to twice as fast at one thread as at two (``gesdd`` of
400 x 64 1.3-1.9 against 2.8-3.8 ms, of 2000 x 128 18-23 against 37-38 ms; QR
of 600 x 300 7-10 against 14-17 ms), while the products still gain from two.
The exception is ``syevd`` above n = 100 (1000 x 1000: 175-197 against
111-119 ms), which ``kernel_root`` runs once per kernel config.  Moving the LU
solves too broke the byte-for-byte match of 12 golden CSVs, so they stay in
numpy.
"""

from __future__ import annotations

import ctypes
import glob
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.random import Generator, Philox
from scipy.linalg.lapack import dstebz

# where scipy's wheel bundles its OpenBLAS; absent when scipy shares numpy's BLAS
_SCIPY_LIBS = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")


def _cap_scipy_openblas() -> None:
    """Set scipy's bundled OpenBLAS, if there is one, to one thread."""
    for path in glob.glob(os.path.join(_SCIPY_LIBS, "libscipy_openblas*.so")):
        set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


_cap_scipy_openblas()


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to converge within its iteration cap."""

    def __init__(self, message: str, iterations: int, last_estimate=None):
        super().__init__(message)
        self.iterations = iterations
        self.last_estimate = last_estimate


_MASK64 = (1 << 64) - 1


def mix64(*values: int) -> int:
    """Collapse integers into one 64-bit stream id with a splitmix64 chain.

    Deterministic and platform-independent; used to derive independent
    sub-streams from a base seed.
    """
    x = 0x9E3779B97F4A7C15
    for v in values:
        x = (x ^ (int(v) & _MASK64)) & _MASK64
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        x = z ^ (z >> 31)
    return x


@dataclass(frozen=True)
class SeededRng:
    """Reproducible random source keyed by a 64-bit (seed, stream_id) pair."""

    seed: int
    stream_id: int = 0

    def generator(self) -> Generator:
        return Generator(Philox(key=[self.seed & _MASK64, self.stream_id & _MASK64]))

    def derive(self, *indices: int) -> "SeededRng":
        """A statistically independent sub-stream for the same seed."""
        return SeededRng(self.seed, mix64(self.stream_id, *indices))


@dataclass(frozen=True)
class ThinSvd:
    """Thin singular value decomposition ``M = u @ diag(s) @ vt`` truncated at rank."""

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray

    @property
    def rank(self) -> int:
        return self.singular_values.size


DEFAULT_RANK_TOLERANCE = 1e-10


def _check_finite(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return M


def thin_svd(M: np.ndarray, rank_tolerance: float = DEFAULT_RANK_TOLERANCE) -> ThinSvd:
    """Thin SVD of a dense matrix, truncated at ``rank_tolerance`` relative to sigma_1.

    A zero matrix yields rank 0 with empty factors.  Raises
    :class:`ConvergenceError` if the underlying LAPACK iteration fails.
    """
    M = _check_finite(M)
    if not 0 <= rank_tolerance < 1:
        raise ValueError("rank_tolerance must lie in [0, 1)")
    try:
        u, s, vt = scipy.linalg.svd(M, full_matrices=False, check_finite=False)
    except np.linalg.LinAlgError as exc:
        # gesdd occasionally fails where the slower gesvd succeeds
        try:
            u, s, vt = scipy.linalg.svd(M, full_matrices=False, check_finite=False,
                                        lapack_driver="gesvd")
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                f"SVD did not converge for shape {M.shape}: {exc}", iterations=-1
            ) from exc
    if s.size == 0 or s[0] <= 0.0:
        r = 0
    else:
        r = int(np.count_nonzero(s > rank_tolerance * s[0]))
    return ThinSvd(
        u=np.ascontiguousarray(u[:, :r]),
        singular_values=s[:r].copy(),
        vt=np.ascontiguousarray(vt[:r, :]),
    )


class _Basis:
    """Orthonormal vectors of one length, stored as rows of a buffer that
    doubles when full, up to ``cap`` rows."""

    def __init__(self, length: int, cap: int):
        self.rows = np.empty((min(8, cap), length))
        self.count = 0
        self.cap = cap

    def append(self, x: np.ndarray) -> None:
        if self.count == self.rows.shape[0]:
            grown = np.empty((min(2 * self.count, self.cap), self.rows.shape[1]))
            grown[: self.count] = self.rows
            self.rows = grown
        self.rows[self.count] = x
        self.count += 1

    def orthogonalize(self, x: np.ndarray) -> float:
        """Remove from ``x``, in place, its part in the span of the rows: two
        classical Gram-Schmidt passes.  Returns the norm of what is left."""
        if self.count:
            Q = self.rows[: self.count]
            for _ in range(2):
                x -= Q.T @ (Q @ x)
        return float(np.linalg.norm(x))


def _top_singular_value(alphas: list, betas: list) -> float:
    """Largest singular value of the lower bidiagonal with diagonal ``alphas``
    and subdiagonal ``betas`` (one shorter for the square matrix): the root of
    the top eigenvalue of its tridiagonal Gram matrix, by LAPACK bisection."""
    a = np.array(alphas)
    b = np.zeros(a.size)
    b[: len(betas)] = betas
    k = a.size
    if k == 1:
        return float(np.hypot(a[0], b[0]))
    # range 3 selects eigenvalues by index: here only the k-th, the largest
    _, top, _, _, info = dstebz(a * a + b * b, a[1:] * b[:-1], 3, 0.0, 0.0, k, k, 0.0, b"E")
    if info != 0:
        raise ConvergenceError(f"tridiagonal bisection failed (info={info})", iterations=k)
    return float(np.sqrt(top[0]))


def spectral_norm(M, tol: float = 1e-8, max_iters: int = 10_000) -> float:
    """Largest singular value of ``M`` by Golub-Kahan-Lanczos bidiagonalization
    with full reorthogonalization.

    ``M`` is a dense matrix or an operator: any object with ``.shape``, ``@``
    on vectors and a ``.T`` that applies the transpose, such as
    :class:`ResidualOperator`.  The bidiagonalization runs on the smaller side
    from a start vector drawn from one fixed stream, so the result is
    deterministic.  It stops once the top singular values of successive
    bidiagonals agree to relative ``tol``, and with the exact value on
    breakdown or once the step count reaches the smaller dimension.  Raises
    :class:`ConvergenceError` if ``max_iters`` steps do not settle, and
    ``ValueError`` if an entry, or a product reached through an operator, is
    NaN or Inf.
    """
    if isinstance(M, np.ndarray) or not hasattr(M, "T"):
        M = _check_finite(M)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if min(M.shape) == 0:
        return 0.0
    work, work_t = (M, M.T) if M.shape[1] <= M.shape[0] else (M.T, M)
    rows, dim = work.shape
    v = SeededRng(0x5EED, 0).generator().standard_normal(dim)
    v /= np.linalg.norm(v)
    V, U = _Basis(dim, dim), _Basis(rows, dim)
    alphas: list[float] = []
    betas: list[float] = []
    estimate = 0.0
    for step in range(1, max_iters + 1):
        # work V = U B with B upper bidiagonal; each new vector is taken
        # against every stored one, which also removes the three-term part
        V.append(v)
        u = work @ v
        alpha = U.orthogonalize(u)
        if not np.isfinite(alpha):
            raise ValueError("matrix contains NaN or Inf entries")
        if alpha == 0.0:
            return estimate
        u /= alpha
        U.append(u)
        alphas.append(alpha)
        if step == dim:
            return _top_singular_value(alphas, betas)
        v = work_t @ u
        beta = V.orthogonalize(v)
        if not np.isfinite(beta):
            raise ValueError("matrix contains NaN or Inf entries")
        betas.append(beta)
        new = _top_singular_value(alphas, betas)
        if beta == 0.0 or abs(new - estimate) <= tol * new:
            return new
        estimate = new
        v /= beta
    raise ConvergenceError(
        f"Lanczos bidiagonalization did not settle within {max_iters} steps",
        iterations=max_iters,
        last_estimate=estimate,
    )


class ResidualOperator:
    """The operator ``(I - q q.T) [X; 0]``: ``X`` zero-padded to the row count
    of the orthonormal basis ``q``, less its part in ``range(q)``.  It is
    applied to vectors only, so neither the padded copy nor the residual is
    formed; ``.T`` is the transpose."""

    def __init__(self, q: np.ndarray, X: np.ndarray, transposed: bool = False):
        if q.shape[0] < X.shape[0]:
            raise ValueError("basis and data dimensions are incompatible")
        self.q, self.X, self.transposed = q, X, transposed
        shape = (q.shape[0], X.shape[1])
        self.shape = shape[::-1] if transposed else shape

    @property
    def T(self) -> "ResidualOperator":
        return ResidualOperator(self.q, self.X, not self.transposed)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        q, X = self.q, self.X
        p = X.shape[0]
        if self.transposed:
            return X.T @ (x[:p] - q[:p] @ (q.T @ x))
        y = X @ x
        out = q @ (q[:p].T @ y)
        np.negative(out, out=out)
        out[:p] += y
        return out


def sample_gaussian_matrix(rows: int, cols: int, variance: float, rng: SeededRng) -> np.ndarray:
    """i.i.d. normal matrix with mean zero and the given entry variance."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    return rng.generator().normal(0.0, np.sqrt(variance), size=(rows, cols))


def sample_haar_frame(p: int, r: int, rng: SeededRng) -> np.ndarray:
    """p x r matrix with orthonormal columns whose range is uniformly distributed.

    QR of a Gaussian matrix with the R-diagonal sign correction, which makes the
    distribution invariant under left rotations.
    """
    if r > p:
        raise ValueError(f"need r <= p, got r={r}, p={p}")
    G = rng.generator().standard_normal((p, r))
    Q, R = scipy.linalg.qr(G, mode="economic", check_finite=False)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs
