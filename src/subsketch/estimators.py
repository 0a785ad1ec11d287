"""Recovery maps from low-dimensional solutions back to the full space.

The zero-order estimate is the linear reconstruction ``q_s @ alpha``; the
first-order estimate applies the dual map ``-(1/lam) A.T grad_f(A x)``, one
implicit gradient step that provably contracts the error whenever the
regularization dominates the squared projection residual.  One round loop runs
the smooth pipelines: the single-shot whitened recovery (any embedding family,
column subsampling included), its iterative refinement reusing one sketch, and
the unbiased oblivious baseline.  Non-smooth losses recover through the
restricted sketched dual.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from subsketch.embeddings import (
    ADAPTIVE_KINDS,
    OBLIVIOUS_GAUSSIAN,
    EmbeddingSpec,
    build_sketch,
    projection_residual_norm,
)
from subsketch.losses import NonSmoothLoss, SmoothLoss
from subsketch.numkit import sample_gaussian_matrix
from subsketch.solvers import (
    DUAL_OPTIONS,
    SolveOptions,
    SolveResult,
    solve_dual_projected,
    solve_nonsmooth_primal_reference,
    solve_primal_reference,
    solve_sketched,
    solve_sketched_shifted,
)

@dataclass
class RecoveryReport:
    """Per-trial record of a recovery run and its bound certificate."""

    x0: np.ndarray
    x1: np.ndarray
    rel_err_x0: float
    rel_err_x1: float
    residual_norm: float
    bound_rhs: float
    condition_ok: bool
    runtime_ms: float
    x_star_norm: float = float("nan")
    objective: float = float("nan")
    converged: bool = True
    t: int = 0


@dataclass
class NonsmoothRecovery:
    """Recovery report plus the dual solution, the objective of the plain
    (unrestricted) dual, the larger relative duality gap of the plain and the
    restricted dual, and the arbitrary-subgradient error."""

    report: RecoveryReport
    y_star: np.ndarray
    dual_objective_plain: float
    dual_gap: float
    rel_err_arbitrary: float


def zero_order(q_s: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Linear reconstruction ``q_s @ alpha`` of a low-dimensional solution."""
    q_s = np.asarray(q_s, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if q_s.shape[1] != alpha.shape[0]:
        raise ValueError(f"basis has {q_s.shape[1]} columns but alpha has length {alpha.shape[0]}")
    return q_s @ alpha


def first_order(A: np.ndarray, loss: SmoothLoss, lam: float, v: np.ndarray) -> np.ndarray:
    """Dual-map reconstruction ``-(1/lam) A.T grad_f(A v)``.

    Equals ``v - (1/lam) grad F(v)`` for the ridge objective F, i.e. one exact
    gradient step of length 1/lam from v.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    A = np.asarray(A, dtype=float)
    return -(A.T @ loss.gradient(A @ v)) / lam


def _rel_err(x, x_star, x_star_norm):
    if x_star_norm == 0.0:
        return float("nan")
    return float(np.linalg.norm(x - x_star)) / x_star_norm


def _pad(vec, dim):
    if vec.shape[0] == dim:
        return vec
    out = np.zeros(dim)
    out[: vec.shape[0]] = vec
    return out


def _ensure_reference(A, loss, lam, opts: SolveOptions, x_star=None):
    """``(x_star, converged)``: ``x_star`` as an array (converged), or the
    full-dimensional reference solve with ``opts`` and its status."""
    if x_star is not None:
        return np.asarray(x_star, dtype=float), True
    if loss.smooth:
        res = solve_primal_reference(A, loss, lam, opts)
        return res.minimizer, res.converged
    x_star, res = solve_nonsmooth_primal_reference(A, loss, lam, opts)
    return x_star, res.converged


def _report(loss, lam, x_star, residual, res: SolveResult, x0, x1, runtime_ms, converged,
            t=0) -> RecoveryReport:
    """The report of one recovery, ``converged`` as given: the errors of ``x0`` and
    ``x1`` against ``x_star`` and, when the ``residual`` was measured (finite), its bound.
    A smooth loss is bounded by sqrt(mu/2 lam) * residual * min(1, rel_err_x0)
    under the condition lam >= 2 mu residual^2; a non-smooth one
    unconditionally by ||x1 - x*|| <= sqrt(6) (L/lam) * residual."""
    x_star_norm = float(np.linalg.norm(x_star))
    rel0 = _rel_err(x0, x_star, x_star_norm)
    rel1 = _rel_err(x1, x_star, x_star_norm)
    if not np.isfinite(residual):
        bound, cond_ok = np.nan, False
    elif loss.smooth:
        mu = loss.smoothness
        bound = np.sqrt(mu / (2.0 * lam)) * residual * min(1.0, rel0)
        cond_ok = bool(lam >= 2.0 * mu * residual**2)
    else:
        bound, cond_ok = np.sqrt(6.0) * loss.lipschitz / lam * residual, True
    return RecoveryReport(
        x0=x0, x1=x1, rel_err_x0=rel0, rel_err_x1=rel1, residual_norm=residual,
        bound_rhs=float(bound), condition_ok=cond_ok, runtime_ms=runtime_ms,
        x_star_norm=x_star_norm, objective=res.objective, converged=converged, t=t,
    )


def _smooth_rounds(A, loss: SmoothLoss, lam, q_s, a_qs, residual, opts, x_star, t0,
                   T=None, error_floor=0.0):
    """The smooth recovery loop in the coordinates ``q_s`` (``a_qs = A @ q_s``).

    Round 1 solves the sketched program; every later round solves it shifted by
    the previous first-order iterate.  Each round maps back through the dual
    map and yields one report; a measured ``residual`` adds the bound and the
    regularization condition.  ``T=None`` is the single-shot pipeline: one
    round, reported as ``t=0``.  A round's runtime starts where the previous
    one ended, the first at ``t0``.  A report has converged only if its round's
    solve did, and the reference solve too when no ``x_star`` is given.
    """
    dim = q_s.shape[0]
    x_star, reference_ok = _ensure_reference(A, loss, lam, opts, x_star)
    x_star = _pad(x_star, dim)
    reports: list[RecoveryReport] = []
    x_hat = None
    for t in range(1, (T or 1) + 1):
        if x_hat is None:
            res = solve_sketched(a_qs, loss, lam, opts)
            v = zero_order(q_s, res.minimizer)
            inner = a_qs @ res.minimizer
        else:
            image = A @ x_hat[: A.shape[1]]
            res = solve_sketched_shifted(a_qs, image, q_s.T @ x_hat, loss, lam, opts)
            v = x_hat + zero_order(q_s, res.minimizer)
            inner = a_qs @ res.minimizer + image
        x_hat = _pad(-(A.T @ loss.gradient(inner)) / lam, dim)
        t1 = time.perf_counter()
        reports.append(_report(loss, lam, x_star, residual, res, v, x_hat, (t1 - t0) * 1e3,
                               res.converged and reference_ok, t if T else 0))
        t0 = t1
        if not res.converged or reports[-1].rel_err_x1 < error_floor:
            break
    return reports


def _sketch_rounds(A, loss, lam, spec: EmbeddingSpec, opts, x_star, compute_residual,
                   T=None, error_floor=0.0):
    """Draw and whiten the embedding of ``spec``, then run the round loop in its basis."""
    t0 = time.perf_counter()
    A = np.asarray(A, dtype=float)
    sketch = build_sketch(A, spec)
    residual = projection_residual_norm(A, sketch.q_s) if compute_residual else float("nan")
    return _smooth_rounds(A, loss, lam, sketch.q_s, sketch.a_qs, residual, opts, x_star, t0,
                          T, error_floor)


def recover_whitened(A, loss: SmoothLoss, lam: float, spec: EmbeddingSpec,
                     opts: SolveOptions = SolveOptions(), x_star=None,
                     compute_residual: bool = True) -> RecoveryReport:
    """Whitened recovery pipeline for a smooth loss and any embedding family.

    Draws the embedding, whitens it, solves the low-dimensional program with
    the isotropic regularizer, and returns both estimators together with the
    certificate quantities (projection residual, bound right-hand side, and
    whether the regularization condition held).
    """
    return _sketch_rounds(A, loss, lam, spec, opts, x_star, compute_residual)[0]


def recover_iterative(A, loss: SmoothLoss, lam: float, spec: EmbeddingSpec, T: int,
                      opts: SolveOptions = SolveOptions(), x_star=None,
                      error_floor: float = 1e-12) -> list[RecoveryReport]:
    """Iterative refinement reusing a single sketch.

    Each round solves the low-dimensional program shifted by the previous
    iterate and applies the dual map; the relative error contracts geometrically
    while the regularization condition holds.  Stops early once the error falls
    below ``error_floor`` or a shifted solve fails to converge.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    return _sketch_rounds(A, loss, lam, spec, opts, x_star, True, T, error_floor)


def recover_oblivious_dagger(A, loss: SmoothLoss, lam: float, spec: EmbeddingSpec,
                             opts: SolveOptions = SolveOptions(),
                             x_star=None) -> RecoveryReport:
    """Unbiased oblivious baseline: the plain Gaussian Q of a ``gaussian`` spec with
    the isotropic regularizer and no whitening.  Reports no residual and no bound."""
    if spec.kind != OBLIVIOUS_GAUSSIAN:
        raise ValueError(f"the oblivious baseline draws a gaussian spec, not {spec.kind!r}")
    t0 = time.perf_counter()
    A = np.asarray(A, dtype=float)
    Q = sample_gaussian_matrix(A.shape[1], spec.m, 1.0 / spec.m, spec.seed)
    return _smooth_rounds(A, loss, lam, Q, A @ Q, float("nan"), opts, x_star, t0)[0]


def recover_nonsmooth(A, loss: NonSmoothLoss, lam: float, spec: EmbeddingSpec,
                      opts: SolveOptions = DUAL_OPTIONS, x_star=None,
                      warm_start=None) -> NonsmoothRecovery:
    """Recovery for a non-smooth loss through the restricted sketched dual.

    The plain dual f*(y) + (1/2 lam)||Q.T A.T y||^2 over the whole conjugate
    domain gives the sketched primal point.  The same objective is then
    re-solved over the subdifferential of f at that point, which pins every
    coordinate where f is differentiable and resolves the set-valued dual map.
    Returns the recovery report plus the dual solution and the plain objective;
    the report has converged only if both dual solves did, and the reference
    solve too when no ``x_star`` is given.
    """
    if spec.kind not in ADAPTIVE_KINDS:
        raise ValueError("non-smooth recovery expects an adaptive embedding")
    t0 = time.perf_counter()
    A = np.asarray(A, dtype=float)
    sketch = build_sketch(A, spec)
    residual = projection_residual_norm(A, sketch.q_s)
    x_star, reference_ok = _ensure_reference(A, loss, lam, opts, x_star)

    B = sketch.a_qs.T
    plain = solve_dual_projected(B, loss.b, lam, loss.conjugate_domain(), opts,
                                 y0=warm_start)
    alpha = -(B @ plain.minimizer) / lam
    w = sketch.a_qs @ alpha
    feas = loss.subgradient_partition(w)
    res = solve_dual_projected(B, loss.b, lam, feas, opts, y0=feas.project(plain.minimizer))

    x1 = -(A.T @ res.minimizer) / lam
    x_arb = -(A.T @ loss.arbitrary_subgradient(w)) / lam
    report = _report(loss, lam, x_star, residual, res, zero_order(sketch.q_s, alpha), x1,
                     (time.perf_counter() - t0) * 1e3,
                     plain.converged and res.converged and reference_ok)
    return NonsmoothRecovery(
        report=report, y_star=res.minimizer, dual_objective_plain=plain.objective,
        dual_gap=max(plain.grad_norm, res.grad_norm),
        rel_err_arbitrary=_rel_err(x_arb, x_star, report.x_star_norm),
    )
