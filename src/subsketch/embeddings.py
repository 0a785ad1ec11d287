"""Random embedding construction: oblivious Gaussian / SRHT (kinds ``gaussian``,
``srht``), column subsampling (``nystrom``), data-adaptive sketches with optional
power iterations (``adaptive-gaussian``, ``adaptive-srht``), whitening, and
projection-residual measurement.  Each family's one name is its
:class:`EmbeddingSpec` kind, which the command line's ``--embedding`` also takes.

A right-embedding for a data matrix ``A`` (n x d) is a ``d x m`` matrix ``S``.
Adaptive embeddings have the form ``S = (A.T A)^q A.T S_tilde`` where the inner
``S_tilde`` (n x m) is itself oblivious.  Whitening replaces ``S`` by an
orthonormal basis ``q_s`` of its range, which leaves the recovered estimators
unchanged but makes the low-dimensional program well conditioned.

An SRHT is ``m`` signed columns of the Walsh-Hadamard matrix, formed in closed
form from the bits of their indices; no transform runs.  Its columns are
orthonormal up to one common scale, so the oblivious SRHT is whitened without
an SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from subsketch.numkit import (
    ResidualOperator,
    SeededRng,
    sample_gaussian_matrix,
    spectral_norm,
    thin_svd,
)

OBLIVIOUS_GAUSSIAN = "gaussian"
OBLIVIOUS_SRHT = "srht"
COLUMN_SUBSAMPLE = "nystrom"
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
    (the polar factor for full column rank), and ``a_qs = A @ q_s``.  The
    oblivious SRHT (:func:`srht_matrix`) lives in the padded dimension
    ``next_pow2(d)``, and so do its ``s`` and ``q_s``; ``a_qs`` uses the
    zero-padded data, that is, only the first ``d`` rows of ``q_s``.  Its
    ``q_s`` is the signed Hadamard columns themselves, the polar factor of
    ``s``, with no SVD.
    """

    s: np.ndarray
    q_s: np.ndarray
    a_qs: np.ndarray


def next_pow2(p: int) -> int:
    if p < 1:
        raise ValueError("dimension must be positive")
    return 1 << (p - 1).bit_length()


def _srht_draw(pt: int, m: int, rng: SeededRng) -> tuple[np.ndarray, np.ndarray]:
    """The signs of ``D``, then the ``m`` distinct coordinates ``R`` keeps, for an
    SRHT on ``pt`` coordinates, from one generator."""
    if m > pt:
        raise ValueError(f"sketch size m={m} exceeds padded dimension {pt}")
    gen = rng.generator()
    signs = gen.integers(0, 2, size=pt) * 2.0 - 1.0
    return signs, gen.choice(pt, size=m, replace=False)


def _srht_columns(p: int, m: int, rng: SeededRng) -> np.ndarray:
    """The ``p_tilde x m`` orthonormal columns ``D @ H @ R`` of an SRHT,
    ``p_tilde = next_pow2(p)``, in closed form: the Hadamard entry of row ``i``
    and column ``j`` is ``(-1)^popcount(i & j) / sqrt(p_tilde)``, so entry
    ``(i, k)`` is ``signs[i] * (-1)^popcount(i & cols[k]) / sqrt(p_tilde)``."""
    pt = next_pow2(p)
    signs, cols = _srht_draw(pt, m, rng)
    index = np.min_scalar_type(pt - 1)
    # bit 0 of the popcount, flipped where signs[i] < 0, is the sign of the entry
    flip = np.bitwise_count(np.arange(pt, dtype=index)[:, None] & cols.astype(index))
    flip ^= (signs < 0).astype(np.uint8)[:, None]
    flip &= 1
    return (1 - 2 * flip.view(np.int8)) * (1.0 / np.sqrt(pt))


def apply_srht(M: np.ndarray, m: int, rng: SeededRng) -> np.ndarray:
    """Right-multiply ``M`` by an SRHT: ``M @ S`` with
    ``S = sqrt(p_tilde / m) * D @ H @ R``.

    ``M`` is read as zero-padded to ``p_tilde = next_pow2(p)`` columns; ``D``
    is a random sign flip, ``H`` the orthonormal Walsh-Hadamard transform and
    ``R`` selects ``m`` distinct columns uniformly without replacement.  The
    implied embedding satisfies ``S.T @ S = (p_tilde / m) * I`` exactly.  Only
    the first ``p`` rows of ``S`` meet ``M``, so the product is one matrix
    product with them; the adaptive SRHT draws its inner matrix
    ``A.T @ S_tilde`` this way.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    p = M.shape[1]
    return M @ srht_matrix(p, m, rng)[:p]


def srht_matrix(p: int, m: int, rng: SeededRng) -> np.ndarray:
    """The ``p_tilde x m`` oblivious SRHT ``S`` that :func:`apply_srht` applies,
    ``p_tilde = next_pow2(p)``: ``sqrt(p_tilde / m)`` times the signed Hadamard
    columns of :func:`_srht_columns`.  Each row of the identity picks one entry
    of ``S`` exactly, so ``S`` equals ``apply_srht(np.eye(p_tilde), m, rng)``
    bit for bit."""
    S = _srht_columns(p, m, rng)
    S *= np.sqrt(next_pow2(p) / m)
    return S


def build_adaptive(A: np.ndarray, spec: EmbeddingSpec) -> np.ndarray:
    """Adaptive embedding ``(A.T A)^q A.T S_tilde`` by repeated multiplication.

    ``A.T A`` is never materialized; each power costs two passes over ``A``.
    """
    n = A.shape[0]
    if spec.kind == ADAPTIVE_GAUSSIAN:
        S = A.T @ sample_gaussian_matrix(n, spec.m, 1.0 / spec.m, spec.seed)
    elif spec.kind == ADAPTIVE_SRHT:
        # n x m SRHT applied to the columns of A.T
        S = apply_srht(A.T, spec.m, spec.seed)
    elif spec.kind == COLUMN_SUBSAMPLE:
        S = A.T[:, spec.seed.generator().choice(n, size=spec.m, replace=False)].copy()
    else:
        raise ValueError(f"spec kind must be adaptive, got {spec.kind!r}")
    for _ in range(spec.q):
        S = A.T @ (A @ S)
    return S


def _whiten_svd(S: np.ndarray):
    """The thin SVD of S and the orthonormal basis :func:`whiten` returns."""
    f = thin_svd(S)
    if f.rank == 0:
        raise DegenerateSketch("embedding has rank zero; nothing to whiten")
    return f, (f.u @ f.vt if f.rank == S.shape[1] else f.u)


def whiten(S: np.ndarray) -> np.ndarray:
    """Orthonormal basis of range(S): the polar factor ``U_S @ V_S.T`` when S has
    full column rank, the left factor ``U_S`` otherwise.

    Raises :class:`DegenerateSketch` for a rank-zero embedding.
    """
    return _whiten_svd(S)[1]


def build_sketch(A: np.ndarray, spec: EmbeddingSpec) -> Sketch:
    """Draw the embedding described by ``spec`` for data ``A``, whiten it and
    form the sketched data ``A @ q_s``."""
    A = np.asarray(A, dtype=float)
    d = A.shape[1]
    if spec.kind == OBLIVIOUS_SRHT:
        # S is a multiple of orthonormal columns, and they are its polar factor
        q_s = _srht_columns(d, spec.m, spec.seed)
        S = np.sqrt(next_pow2(d) / spec.m) * q_s
    else:
        if spec.kind == OBLIVIOUS_GAUSSIAN:
            S = sample_gaussian_matrix(d, spec.m, 1.0 / spec.m, spec.seed)
        else:
            S = build_adaptive(A, spec)
        q_s = whiten(S)
    a_qs = A @ q_s[:d, :]
    return Sketch(s=S, q_s=q_s, a_qs=a_qs)


def projection_residual_norm(A: np.ndarray, q_s: np.ndarray) -> float:
    """Operator norm of ``(I - q_s q_s.T) A.T``, by Lanczos bidiagonalization to
    relative 1e-9: how much of the row space of A escapes the embedding's
    range.  A padded basis (the oblivious SRHT) is compared against the
    zero-padded rows of ``A.T``; an empty basis returns ``||A.T||_2``.  The
    residual goes in as an operator and is never formed."""
    A = np.asarray(A, dtype=float)
    return spectral_norm(ResidualOperator(q_s, A.T), tol=1e-9)
