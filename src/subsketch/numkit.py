"""Dense linear-algebra kernels: thin SVD, spectral norms, seeded sampling.

Matrices are plain float64 numpy arrays in C (row-major) order.  All sampling
goes through :class:`SeededRng`, a thin wrapper around numpy's counter-based
Philox bit generator, so every draw is reproducible from a ``(seed, stream_id)``
pair across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox


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
        u, s, vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        # gesdd occasionally fails where the slower gesvd succeeds
        try:
            import scipy.linalg

            u, s, vt = scipy.linalg.svd(M, full_matrices=False, lapack_driver="gesvd")
        except Exception:
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


def spectral_norm(M: np.ndarray, tol: float = 1e-8, max_iters: int = 10_000) -> float:
    """Largest singular value of ``M`` by power iteration on ``M.T @ M``.

    Stops once successive Rayleigh quotients agree to relative ``tol``.  The
    start vector comes from one fixed stream, so the estimate is deterministic.
    """
    M = _check_finite(M)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if min(M.shape) == 0:
        return 0.0
    gen = SeededRng(0x5EED, 0).generator()
    # iterate on the smaller Gram side
    work = M if M.shape[1] <= M.shape[0] else M.T
    v = gen.standard_normal(work.shape[1])
    nv = np.linalg.norm(v)
    v /= nv
    y = work @ v
    rayleigh = float(y @ y)
    if rayleigh == 0.0:
        return 0.0
    for it in range(max_iters):
        v = work.T @ y
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
        v /= nv
        y = work @ v
        new = float(y @ y)
        if abs(new - rayleigh) <= tol * max(new, np.finfo(float).tiny):
            return float(np.sqrt(new))
        rayleigh = new
    raise ConvergenceError(
        f"power iteration did not stabilize within {max_iters} iterations",
        iterations=max_iters,
        last_estimate=float(np.sqrt(rayleigh)),
    )


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
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def save_matrix(path, M: np.ndarray) -> None:
    """Write a matrix in the dense text format: header ``rows cols``, one row per line."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M:
            fh.write(" ".join(format(x, ".17g") for x in row))
            fh.write("\n")


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix`."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("matrix file must start with a 'rows cols' header")
        rows, cols = int(header[0]), int(header[1])
        data = np.loadtxt(fh, ndmin=2)
    if data.shape != (rows, cols):
        raise ValueError(f"matrix body {data.shape} does not match header ({rows}, {cols})")
    return data
