"""Spectral and statistical diagnostics: spectral residual, statistical
dimension, condition numbers, Monte-Carlo risk and scaling fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from subsketch.embeddings import EmbeddingSpec, build_sketch
from subsketch.numkit import ResidualOperator, SeededRng, spectral_norm, thin_svd


@dataclass(frozen=True)
class SpectralSummary:
    """Non-zero singular values of a data matrix, sorted nonincreasing."""

    singular_values: np.ndarray
    n: int
    d: int

    def __post_init__(self):
        s = np.asarray(self.singular_values, dtype=float)
        if s.size and (np.any(s <= 0) or np.any(np.diff(s) > 0)):
            raise ValueError("singular values must be positive and nonincreasing")
        object.__setattr__(self, "singular_values", s)

    @property
    def rank(self) -> int:
        return self.singular_values.size


def spectral_residual(summary: SpectralSummary, delta: float) -> float:
    """Tail measure sigma_{k+1} + sqrt(sum_{j>k} sigma_j^2 / k) at k = floor(delta).

    This is the error currency of adaptive sketching: a sketch of size ~2k
    captures the row space up to a constant times this quantity.
    """
    k = int(np.floor(delta))
    if k < 1:
        raise ValueError("delta must be at least 1")
    s = summary.singular_values
    if k >= s.size:
        return 0.0
    tail = s[k:]
    return float(tail[0] + np.sqrt(np.sum(tail * tail) / k))


def statistical_dimension(summary: SpectralSummary, noise_var: float, n: int) -> int:
    """Smallest k >= 1 with noise_var * k / n >= sigma_{k+1}^2 (sigma beyond the
    rank counts as zero, so the rank always qualifies)."""
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    s2 = summary.singular_values**2
    rho = s2.size
    for k in range(1, rho):
        if noise_var * k / n >= s2[k]:
            return k
    return rho


def condition_numbers(A: np.ndarray, q_s: np.ndarray, lam: float) -> tuple[float, float]:
    """Condition numbers of the quadratic-loss primal and its whitened sketched
    program: (lam + largest eig) / (lam + smallest eig) of the respective
    Gram matrices, with the smallest eig taken as zero when d exceeds the rank."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    A = np.asarray(A, dtype=float)
    d = A.shape[1]
    s = scipy.linalg.svd(A, compute_uv=False)
    smallest = s[-1] ** 2 if d <= len(s) else 0.0
    kappa = (lam + s[0] ** 2) / (lam + smallest)
    sb = scipy.linalg.svd(A @ q_s[: A.shape[1], :], compute_uv=False)
    small_b = sb[-1] ** 2 if sb.size == q_s.shape[1] else 0.0
    kappa_dag = (lam + sb[0] ** 2) / (lam + small_b)
    return float(kappa), float(kappa_dag)


def risk_zero_order(A: np.ndarray, spec: EmbeddingSpec, noise_var: float, lam: float,
                    trials: int, rng: SeededRng) -> tuple[float, float]:
    """Monte-Carlo estimation risk of the linear reconstruction under Gaussian
    observation noise, against its small-regularization analytic limit.

    One embedding is drawn from ``spec``.  The supremum over unit-norm planted
    vectors is approximated by the top three right singular directions plus
    five random unit vectors; the analytic limit is ``noise_var * m / n`` plus
    the squared residual of projecting the columns of A onto the range of the
    sketched data.
    """
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
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

    # analytic limit: variance of the in-range noise plus the worst-case bias
    resid = spectral_norm(ResidualOperator(thin_svd(B).u, A), tol=1e-10)
    analytic = noise_var * r / n + resid**2

    # trial tr's noise w is the stream rng.derive(tr) in every direction: keep B.T @ w
    noise_scale = np.sqrt(noise_var / n)
    bt_noise = np.column_stack([B.T @ (noise_scale * rng.derive(tr).generator().standard_normal(n))
                                for tr in range(trials)])
    gram = B.T @ B
    gram[np.diag_indices_from(gram)] += lam
    mc_risk = 0.0
    for v in directions:
        signal = A @ v
        beta = np.linalg.solve(gram, (B.T @ signal)[:, None] + bt_noise)
        total = 0.0
        for lo in range(0, trials, 64):  # blocks of trials: no n x trials array is held
            err = B @ beta[:, lo:lo + 64] - signal[:, None]
            total += float(np.vdot(err, err))
        mc_risk = max(mc_risk, total / trials)
    return mc_risk, float(analytic)


def sketched_range_residual(A: np.ndarray, spec: EmbeddingSpec) -> float:
    """Operator norm of (I - P) A where P projects onto the range of the
    sketched data A S; the bias term of the zero-order risk."""
    A = np.asarray(A, dtype=float)
    sketch = build_sketch(A, spec)
    B = sketch.a_qs
    return spectral_norm(ResidualOperator(thin_svd(B).u, A), tol=1e-10)


def aligned_error_floor(sigma1: float, d: int, m: int, lam: float) -> float:
    """Worst-case mean-squared relative error floor for the dual-map estimator
    with an oblivious Gaussian embedding: (1 - m/d)^3 sigma1^4 / (sigma1^2 + 2 lam)^2."""
    frac = max(0.0, 1.0 - m / d)
    return frac**3 * sigma1**4 / (sigma1**2 + 2.0 * lam) ** 2


def aligned_instance_check(A: np.ndarray, lam: float, m: int, trials: int, rng: SeededRng):
    """Monte-Carlo check that the aligned quadratic instance meets the oblivious
    error floor.

    The target is chosen as the top left singular vector so the reference
    solution aligns with the top right singular direction; the mean squared
    relative error of the dual-map estimator over oblivious Gaussian draws must
    stay above the floor minus three standard errors.  Returns
    ``(passed, mc_mean, floor, standard_error)``.
    """
    from subsketch.embeddings import OBLIVIOUS_GAUSSIAN
    from subsketch.estimators import recover_whitened
    from subsketch.losses import QuadraticLoss
    from subsketch.solvers import solve_primal_reference

    A = np.asarray(A, dtype=float)
    d = A.shape[1]
    f = thin_svd(A)
    loss = QuadraticLoss(f.u[:, 0])
    x_star = solve_primal_reference(A, loss, lam).minimizer
    sq_errors = np.empty(trials)
    for tr in range(trials):
        spec = EmbeddingSpec(kind=OBLIVIOUS_GAUSSIAN, m=m, seed=rng.derive(tr))
        rep = recover_whitened(A, loss, lam, spec, x_star=x_star, compute_residual=False)
        sq_errors[tr] = rep.rel_err_x1**2
    mc = float(sq_errors.mean())
    se = float(sq_errors.std(ddof=1) / np.sqrt(trials))
    floor = aligned_error_floor(float(f.singular_values[0]), d, m, lam)
    return mc >= floor - 3.0 * se, mc, floor, se


def loglog_slope_fit(ms, errors) -> tuple[float, float, float]:
    """Least-squares fit of log(error) against log(m): (slope, intercept, r2)."""
    ms = np.asarray(ms, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ms.size < 3:
        raise ValueError("need at least 3 points")
    if np.any(ms <= 0) or np.any(errors <= 0):
        raise ValueError("inputs must be positive for a log-log fit")
    x = np.log(ms)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2
