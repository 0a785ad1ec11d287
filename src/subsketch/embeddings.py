"""Random embedding construction: oblivious Gaussian / SRHT, column subsampling,
data-adaptive sketches with optional power iterations, whitening, and
projection-residual measurement.

A right-embedding for a data matrix ``A`` (n x d) is a ``d x m`` matrix ``S``.
Adaptive embeddings have the form ``S = (A.T A)^q A.T S_tilde`` where the inner
``S_tilde`` (n x m) is itself oblivious.  Whitening replaces ``S`` by an
orthonormal basis ``q_s`` of its range, which leaves the recovered estimators
unchanged but makes the low-dimensional program well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from subsketch.numkit import (
    DEFAULT_RANK_TOLERANCE,
    SeededRng,
    sample_gaussian_matrix,
    spectral_norm,
    thin_svd,
)

OBLIVIOUS_GAUSSIAN = "oblivious-gaussian"
OBLIVIOUS_SRHT = "oblivious-srht"
COLUMN_SUBSAMPLE = "column-subsample"
ADAPTIVE_GAUSSIAN = "adaptive-gaussian"
ADAPTIVE_SRHT = "adaptive-srht"

KINDS = frozenset(
    {OBLIVIOUS_GAUSSIAN, OBLIVIOUS_SRHT, COLUMN_SUBSAMPLE, ADAPTIVE_GAUSSIAN, ADAPTIVE_SRHT}
)
ADAPTIVE_KINDS = frozenset({ADAPTIVE_GAUSSIAN, ADAPTIVE_SRHT})


class DegenerateSketch(ValueError):
    """The drawn embedding has rank zero and cannot be whitened."""


@dataclass(frozen=True)
class EmbeddingSpec:
    """How to draw an embedding: family, sketch size, power iterations, seed."""

    kind: str
    m: int
    q: int = 0
    seed: SeededRng = field(default_factory=lambda: SeededRng(0))

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown embedding kind {self.kind!r}; expected one of {sorted(KINDS)}")
        if self.m < 1:
            raise ValueError("sketch size m must be >= 1")
        if self.q < 0:
            raise ValueError("power q must be >= 0")
        if self.q != 0 and self.kind not in ADAPTIVE_KINDS:
            raise ValueError(f"power q > 0 is only valid for adaptive kinds, not {self.kind!r}")


@dataclass(frozen=True)
class Sketch:
    """An embedding together with its whitened basis and the sketched data.

    ``s`` is the raw embedding, ``q_s`` an orthonormal basis of its range
    (the polar factor for full column rank), and ``a_qs = A @ q_s``.  When the
    oblivious SRHT pads the feature dimension to a power of two, ``s`` and
    ``q_s`` live in the padded dimension and ``a_qs`` uses the zero-padded data.
    """

    s: np.ndarray
    q_s: np.ndarray
    a_qs: np.ndarray
    spec: EmbeddingSpec

    @property
    def rank(self) -> int:
        return self.q_s.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.q_s.shape[0]


def next_pow2(p: int) -> int:
    if p < 1:
        raise ValueError("dimension must be positive")
    return 1 << (p - 1).bit_length()


def fwht_rows(M: np.ndarray) -> np.ndarray:
    """Orthonormal fast Walsh-Hadamard transform applied to each row.

    The number of columns must be a power of two; the transform matrix H
    satisfies ``H.T @ H = I``.
    """
    M = np.array(M, dtype=float, copy=True, order="C")
    if M.ndim != 2:
        raise ValueError("expected a 2-D array")
    n = M.shape[1]
    if n & (n - 1):
        raise ValueError(f"column count {n} is not a power of two")
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


def apply_srht(M: np.ndarray, m: int, rng: SeededRng) -> np.ndarray:
    """Right-multiply ``M`` by an implicit SRHT: ``M @ S`` with
    ``S = sqrt(p_tilde / m) * D @ H @ R``.

    ``M``'s columns are zero-padded to the next power of two ``p_tilde``; ``D``
    is a random sign flip, ``H`` the orthonormal Walsh-Hadamard transform and
    ``R`` selects ``m`` distinct columns uniformly without replacement.  The
    implied embedding satisfies ``S.T @ S = (p_tilde / m) * I`` exactly.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    p = M.shape[1]
    pt = next_pow2(p)
    if m > pt:
        raise ValueError(f"sketch size m={m} exceeds padded dimension {pt}")
    gen = rng.generator()
    signs = gen.integers(0, 2, size=pt) * 2.0 - 1.0
    cols = gen.choice(pt, size=m, replace=False)
    if pt > p:
        Mp = np.zeros((M.shape[0], pt))
        Mp[:, :p] = M
    else:
        Mp = M.copy()
    Mp *= signs
    T = fwht_rows(Mp)
    return np.sqrt(pt / m) * T[:, cols]


def build_oblivious_gaussian(d: int, spec: EmbeddingSpec) -> np.ndarray:
    """d x m embedding with i.i.d. N(0, 1/m) entries."""
    if spec.kind != OBLIVIOUS_GAUSSIAN:
        raise ValueError(f"spec kind must be {OBLIVIOUS_GAUSSIAN!r}")
    return sample_gaussian_matrix(d, spec.m, 1.0 / spec.m, spec.seed)


def _draw_inner(A: np.ndarray, spec: EmbeddingSpec) -> np.ndarray:
    """The product A.T @ S_tilde for the inner oblivious matrix of an adaptive sketch."""
    n = A.shape[0]
    if spec.kind == ADAPTIVE_GAUSSIAN:
        s_tilde = sample_gaussian_matrix(n, spec.m, 1.0 / spec.m, spec.seed)
        return A.T @ s_tilde
    if spec.kind == ADAPTIVE_SRHT:
        # implicit n x m SRHT applied to the columns of A.T, row-wise fast transforms
        return apply_srht(A.T, spec.m, spec.seed)
    if spec.kind == COLUMN_SUBSAMPLE:
        idx = spec.seed.generator().choice(n, size=spec.m, replace=False)
        return A.T[:, idx].copy()
    raise ValueError(f"not an adaptive-style kind: {spec.kind!r}")


def build_adaptive(A: np.ndarray, spec: EmbeddingSpec) -> np.ndarray:
    """Adaptive embedding ``(A.T A)^q A.T S_tilde`` by repeated multiplication.

    ``A.T A`` is never materialized; each power costs two passes over ``A``.
    """
    if spec.kind not in ADAPTIVE_KINDS and spec.kind != COLUMN_SUBSAMPLE:
        raise ValueError(f"spec kind must be adaptive, got {spec.kind!r}")
    S = _draw_inner(A, spec)
    for _ in range(spec.q):
        S = A.T @ (A @ S)
    return S


def _whiten_svd(S: np.ndarray, rank_tolerance: float = DEFAULT_RANK_TOLERANCE):
    """The thin SVD of S and the orthonormal basis :func:`whiten` returns."""
    f = thin_svd(S, rank_tolerance)
    if f.rank == 0:
        raise DegenerateSketch("embedding has rank zero; nothing to whiten")
    return f, (f.u @ f.vt if f.rank == S.shape[1] else f.u)


def whiten(S: np.ndarray, rank_tolerance: float = DEFAULT_RANK_TOLERANCE) -> np.ndarray:
    """Orthonormal basis of range(S): the polar factor ``U_S @ V_S.T`` when S has
    full column rank, the left factor ``U_S`` otherwise.

    Raises :class:`DegenerateSketch` for a rank-zero embedding.
    """
    return _whiten_svd(S, rank_tolerance)[1]


def build_sketch(A: np.ndarray, spec: EmbeddingSpec,
                 rank_tolerance: float = DEFAULT_RANK_TOLERANCE) -> Sketch:
    """Draw the embedding described by ``spec`` for data ``A``, whiten it and
    form the sketched data ``A @ q_s``."""
    A = np.asarray(A, dtype=float)
    d = A.shape[1]
    if spec.kind == OBLIVIOUS_GAUSSIAN:
        S = build_oblivious_gaussian(d, spec)
    elif spec.kind == OBLIVIOUS_SRHT:
        S = apply_srht(np.eye(next_pow2(d)), spec.m, spec.seed)
    else:
        S = build_adaptive(A, spec)
    q_s = whiten(S, rank_tolerance)
    a_qs = A @ q_s[:d, :]
    return Sketch(s=S, q_s=q_s, a_qs=a_qs, spec=spec)


def projection_residual_norm(A: np.ndarray, q_s: np.ndarray, tol: float = 1e-9) -> float:
    """Operator norm of ``(I - q_s q_s.T) A.T``: how much of the row space of A
    escapes the embedding's range.  An empty basis returns ``||A.T||_2``."""
    At = np.asarray(A, dtype=float).T
    if q_s.shape[1] == 0:
        return spectral_norm(At, tol=tol)
    if q_s.shape[0] < At.shape[0]:
        raise ValueError("basis and data dimensions are incompatible")
    if q_s.shape[0] > At.shape[0]:
        # padded oblivious SRHT basis: compare against zero-padded rows
        At = np.vstack([At, np.zeros((q_s.shape[0] - At.shape[0], At.shape[1]))])
    R = At - q_s @ (q_s.T @ At)
    return spectral_norm(R, tol=tol)
