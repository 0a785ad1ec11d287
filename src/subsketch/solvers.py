"""Deterministic optimizers for the full, sketched and dual programs.

Smooth programs are solved by damped Newton (Armijo backtracking, an LU solve
of the regularized Hessian in numpy's LAPACK: scipy bundles a second OpenBLAS
with its own thread pool, and handing each step between the two costs more
than the arithmetic).  The non-smooth losses are handled entirely through their
Fenchel duals, convex quadratics over the feasible set each loss hands over (a
box, a signed simplex face or the L1 ball).  One primal active-set routine
solves all three, as bounds plus at most one equality (the ball through its
lifting to a simplex), in one pass: each face by LU, or by a thin SVD of its
columns when LU is not exact.  The pass is certified by its duality gap
relative to the objective, which, like Newton's test, ignores its scale.

A box dual starts from scipy's L-BFGS-B, run for a fixed 300 iterations: it
only has to find the face, which the finisher then solves exactly (at n=1000,
200 and 250 iterations left faces on which LAPACK's least squares failed).
L-BFGS-B's BLAS work is small and serial; it runs in scipy's OpenBLAS pool,
which :mod:`subsketch.numkit` holds at one thread so that it does not compete
for cores with numpy's pool.  It keeps scipy's default of 10 correction pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from subsketch.losses import BoxSet, L1BallSet, NonSmoothLoss, SimplexFaceSet, SmoothLoss
from subsketch.numkit import ConvergenceError, thin_svd

@dataclass(frozen=True)
class SolveOptions:
    grad_tolerance: float = 1e-10
    max_iters: int = 500

    def __post_init__(self):
        if self.grad_tolerance <= 0:
            raise ValueError("grad_tolerance must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SolveResult:
    """``grad_norm``: Newton's gradient norm, or a dual's relative duality gap."""

    minimizer: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    converged: bool


DUAL_OPTIONS = SolveOptions(grad_tolerance=1e-9)


def _lstsq(K, rhs):
    # gelsd in scipy's one-thread LAPACK, at numpy's rcond=None cutoff (scipy's is plain eps)
    return scipy.linalg.lstsq(K, rhs, cond=np.finfo(float).eps * max(K.shape))[0]


# ---------------------------------------------------------------------------
# smooth programs: f(B x + c) + lam/2 ||x + t||^2


def _newton_step_direct(B, h, lam, g, G=None):
    # (B.T diag(h) B + lam G) delta = -g, G the regularizer's Gram matrix (None: identity)
    H = (B * h[:, None]).T @ B
    if G is None:
        H[np.diag_indices_from(H)] += lam
    else:
        H += lam * G
    try:
        return -np.linalg.solve(H, g)
    except np.linalg.LinAlgError:
        return -_lstsq(H, g)


def _newton_step_dual_space(B, BBt, h, lam, g):
    # (lam I + B.T diag(h) B)^-1 g via the matrix-inversion lemma on the n x n side
    c = np.sqrt(h)
    N = np.outer(c, c)
    N *= BBt  # in place: one n x n temporary per step, not two
    N[np.diag_indices_from(N)] += lam
    inner = np.linalg.solve(N, c * (B @ g))
    return -(g - B.T @ (c * inner)) / lam


def _minimize_smooth(B, loss: SmoothLoss, lam, opts: SolveOptions,
                     shift_image=None, shift_coords=None, use_dual_space=False,
                     reg_gram=None) -> SolveResult:
    """Minimize f(B x + c) + lam/2 ||x + t||^2 (or lam/2 x.T G x with ``reg_gram=G``)."""
    B = np.asarray(B, dtype=float)
    n, p = B.shape
    c = np.zeros(n) if shift_image is None else np.asarray(shift_image, dtype=float)
    t = np.zeros(p) if shift_coords is None else np.asarray(shift_coords, dtype=float)
    if p == 0:
        x = np.zeros(0)
        obj = loss.value(c) + 0.5 * lam * float(t @ t)
        return SolveResult(x, obj, 0.0, 0, True)

    G = reg_gram  # Gram matrix of the regularizer; None means identity

    def ridge_val(x):
        if G is None:
            xt = x + t
            return 0.5 * lam * float(xt @ xt)
        return 0.5 * lam * float(x @ (G @ x))

    def ridge_grad(x):
        if G is None:
            return lam * (x + t)
        return lam * (G @ x)

    x = np.zeros(p)
    w = c.copy()
    obj = loss.value(w) + ridge_val(x)
    g = B.T @ loss.gradient(w) + ridge_grad(x)
    g0 = max(1.0, float(np.linalg.norm(g)))
    BBt = B @ B.T if use_dual_space else None
    iterations = 0
    grad_norm = float(np.linalg.norm(g))
    for iterations in range(1, opts.max_iters + 1):
        if grad_norm <= opts.grad_tolerance * g0:
            return SolveResult(x, obj, grad_norm, iterations - 1, True)
        h = loss.hessian_diag(w)
        if use_dual_space:
            delta = _newton_step_dual_space(B, BBt, h, lam, g)
        else:
            delta = _newton_step_direct(B, h, lam, g, G)
        slope = float(g @ delta)
        if slope >= 0:  # numerical breakdown; fall back to steepest descent
            delta = -g
            slope = -float(g @ g)
        Bd = B @ delta
        eta = 1.0
        while eta > 1e-20:
            x_try = x + eta * delta
            obj_try = loss.value(w + eta * Bd) + ridge_val(x_try)
            if obj_try <= obj + 1e-4 * eta * slope:
                break
            if 1e-4 * eta * abs(slope) <= 4.0 * np.finfo(float).eps * max(1.0, abs(obj)):
                break  # predicted decrease below float resolution; take the step
            eta *= 0.5
        # in place, so the minimizer a caller keeps was allocated before the
        # loop's large temporaries rather than among the blocks they free
        x += eta * delta
        w += eta * Bd
        obj = loss.value(w) + ridge_val(x)
        g = B.T @ loss.gradient(w) + ridge_grad(x)
        grad_norm = float(np.linalg.norm(g))
    converged = grad_norm <= opts.grad_tolerance * g0
    return SolveResult(x, obj, grad_norm, iterations, converged)


def solve_primal_reference(A, loss: SmoothLoss, lam: float,
                           opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Minimize f(A x) + lam/2 ||x||^2 over the full dimension.

    When d substantially exceeds n, the Newton systems are solved on the n x n
    side through the matrix-inversion lemma.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    A = np.asarray(A, dtype=float)
    n, d = A.shape
    return _minimize_smooth(A, loss, lam, opts, use_dual_space=d > int(1.5 * n))


def solve_sketched(a_qs, loss: SmoothLoss, lam: float,
                   opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Minimize f(AQ alpha) + lam/2 ||alpha||^2 in the whitened coordinates."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    return _minimize_smooth(a_qs, loss, lam, opts)


def solve_sketched_shifted(a_qs, shift_image, shift_coords, loss: SmoothLoss, lam: float,
                           opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Minimize f(AQ alpha + shift_image) + lam/2 ||alpha + shift_coords||^2.

    The shifts are the images A @ x_prev and Q.T @ x_prev of a previous iterate.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    a_qs = np.asarray(a_qs, dtype=float)
    shift_image = np.asarray(shift_image, dtype=float)
    shift_coords = np.asarray(shift_coords, dtype=float)
    if shift_image.shape[0] != a_qs.shape[0] or shift_coords.shape[0] != a_qs.shape[1]:
        raise ValueError("shift vectors are dimensionally inconsistent with the sketch")
    return _minimize_smooth(a_qs, loss, lam, opts, shift_image=shift_image,
                            shift_coords=shift_coords)


def solve_sketched_raw(a_s, s, loss: SmoothLoss, lam: float,
                       opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Minimize f(AS alpha) + lam/2 ||S alpha||^2 with the raw (unwhitened) embedding.

    Exists for equivalence checks against the whitened route; the regularizer
    Gram matrix S.T S may be badly conditioned.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    s = np.asarray(s, dtype=float)
    return _minimize_smooth(a_s, loss, lam, opts, reg_gram=s.T @ s)


# ---------------------------------------------------------------------------
# the dual quadratic over a box, a simplex face or the L1 ball


def _dual_objective(y, By, b_linear, lam):
    return float(y @ b_linear) + float(By @ By) / (2.0 * lam)


def _lbfgsb_box(B, b_linear, lam, lows, highs, y0):
    from scipy.optimize import minimize

    def fun_grad(y):
        By = B @ y
        return _dual_objective(y, By, b_linear, lam), b_linear + (B.T @ By) / lam

    # 300 iterations find the face that the finisher solves (module docstring)
    res = minimize(fun_grad, y0, jac=True, method="L-BFGS-B",
                   bounds=np.column_stack([lows, highs]),
                   options={"maxiter": 300, "ftol": 1e-18, "gtol": 1e-14})
    return res.x


def _active_set(B, b_linear, lam, lows, highs, y, a=None):
    """Primal active-set solve of min b.y + ||B y||^2 / (2 lam) over
    ``lows <= y <= highs``, with ``a.y`` held at its value at the feasible start
    ``y`` when ``a`` is given.

    Each round solves the KKT system of the free coordinates F by LU if that
    leaves a relative residual of at most 1e-12, else through a thin SVD of
    B_F (B_F.T B_F squares its condition), with B_F and g_F projected off a_F:
    the Newton step -lam V S^-2 V.T g_F if g_F lies in B_F's row space, else a
    descent along the rest of g_F, of zero curvature.  A step blocked by a bound
    pins that coordinate; after a full Newton step the pinned coordinate whose
    multiplier has the wrong sign is freed, until none has, for at most
    2 len(y) + 20 rounds."""
    y = np.array(y, dtype=float)
    near = 1e-12 * (1.0 + np.abs(y))
    side = np.where(y - lows <= near, -1, np.where(highs - y <= near, 1, 0))
    y = np.where(side < 0, lows, np.where(side > 0, highs, y))
    g = b_linear + (B.T @ (B @ y)) / lam
    for _ in range(2 * y.size + 20):
        free = np.flatnonzero(side == 0)
        if free.size:
            Bf = B[:, free]
            K = (Bf.T @ Bf) / lam
            rhs = -g[free]
            if a is not None:  # the equality row scaled to the Hessian's
                c = float(np.abs(K).max()) or 1.0
                K = np.block([[K, c * a[free, None]], [c * a[None, free], np.zeros((1, 1))]])
                rhs = np.append(rhs, 0.0)
            try:  # LU in numpy's LAPACK
                sol = np.linalg.solve(K, rhs)
                resid = rhs - K @ sol
                solved = resid @ resid <= 1e-24 * (rhs @ rhs)  # False for a non-finite sol
            except np.linalg.LinAlgError:
                solved = False
            t_full = 1.0
            if solved:
                d = sol[:free.size]
            else:
                Bp, gp = Bf, g[free]
                if a is not None:
                    af = a[free] / np.linalg.norm(a[free])
                    Bp, gp = Bp - np.outer(Bp @ af, af), gp - af * float(af @ gp)
                # at gelsd's cutoff, in scipy's one-thread LAPACK (numkit docstring)
                svd = thin_svd(Bp, np.finfo(float).eps * max(Bp.shape))
                coef = svd.vt @ gp
                d = svd.vt.T @ coef - gp  # minus the part of g_F outside the row space
                solved = d @ d <= 1e-16 * (gp @ gp)
                if solved:
                    d = -lam * (svd.vt.T @ (coef / svd.singular_values ** 2))
                else:  # exact line search
                    Bd = Bf @ d
                    curv = float(Bd @ Bd)
                    t_full = -lam * float(g[free] @ d) / curv if curv > 0 else np.inf
            if a is not None:  # the face solve holds a.d = 0 only to its residual
                d = d - a[free] * (float(a[free] @ d) / float(a[free] @ a[free]))
            with np.errstate(divide="ignore", invalid="ignore"):
                t_bound = np.where(d < 0, (lows[free] - y[free]) / d,
                                   np.where(d > 0, (highs[free] - y[free]) / d, np.inf))
            j = int(np.argmin(t_bound))
            blocked = t_bound[j] < t_full
            if blocked:
                y[free] += max(t_bound[j], 0.0) * d
                side[free[j]] = 1 if d[j] > 0 else -1
                y[free[j]] = highs[free[j]] if d[j] > 0 else lows[free[j]]
            else:
                y[free] = np.clip(y[free] + t_full * d, lows[free], highs[free])
            g = b_linear + (B.T @ (B @ y)) / lam
            if blocked or not solved:  # the face is not solved yet
                continue
        nu = 0.0
        if a is not None and free.size:
            nu = float(a[free] @ g[free]) / float(a[free] @ a[free])
        mult = g if a is None else g - nu * a
        wrong = np.where((lows < highs) & (side != 0), side * mult, -np.inf)
        j = int(np.argmax(wrong))
        if wrong[j] <= 1e-12 * (1.0 + abs(nu) + float(np.abs(g).max())):
            break
        side[j] = 0
    return y


def solve_dual_projected(B, b_linear, lam: float, feasible_set,
                         opts: SolveOptions = DUAL_OPTIONS, y0=None) -> SolveResult:
    """Minimize f*(y) + (1/2 lam) ||B y||^2 over ``feasible_set``, f* being the
    linear term ``b_linear @ y`` plus the set's indicator, in one pass: the
    start ``y0`` (default 0) is projected, a box runs L-BFGS-B from it, and the
    active-set finisher solves the face, its point kept only if no worse.  A
    simplex face is the box of its signs with the sum pinned; the L1 ball of
    radius r is the image of {z >= 0, sum z = r} in 2n + 1 coordinates under
    y = z[:n] - z[n:2n], z[2n] the slack of an interior optimum.  Converged when
    the duality gap of y and -B y / lam, g.y + sigma(-g) = P + D (g the
    gradient, sigma the set's support function), is at most ``grad_tolerance``
    max(|D|, |P|)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    B = np.asarray(B, dtype=float)
    b_linear = np.asarray(b_linear, dtype=float)
    feas = feasible_set
    y = feas.project(np.zeros(b_linear.size) if y0 is None else np.asarray(y0, float))
    try:  # a face SVD that fails in gesdd and gesvd leaves the start to the gap test
        if isinstance(feas, BoxSet):
            start = feas.project(_lbfgsb_box(B, b_linear, lam, feas.lows, feas.highs, y))
            y1 = _active_set(B, b_linear, lam, feas.lows, feas.highs, start)
        elif isinstance(feas, SimplexFaceSet):
            s = feas.signs
            y1 = _active_set(B, b_linear, lam, np.where(s < 0, -np.inf, 0.0),
                             np.where(s > 0, np.inf, 0.0), y, s)
        elif isinstance(feas, L1BallSet):
            n = y.size
            z = _active_set(np.hstack([B, -B, np.zeros((B.shape[0], 1))]),
                            np.concatenate([b_linear, -b_linear, [0.0]]), lam,
                            np.zeros(2 * n + 1), np.full(2 * n + 1, np.inf),
                            np.concatenate([np.maximum(y, 0.0), np.maximum(-y, 0.0),
                                            [feas.radius - np.abs(y).sum()]]),
                            np.ones(2 * n + 1))
            y1 = z[:n] - z[n:2 * n]
        else:
            raise TypeError(f"no dual solver for a {type(feas).__name__}")
    except ConvergenceError:
        y1 = y
    By, By1 = B @ y, B @ y1
    objective = _dual_objective(y, By, b_linear, lam)
    objective1 = _dual_objective(y1, By1, b_linear, lam)
    if objective1 <= objective:  # else the start, which the finisher could not improve
        y, By, objective = y1, By1, objective1
    g = b_linear + (B.T @ By) / lam
    sigma = feas.support(-g)
    primal = sigma + float(By @ By) / (2.0 * lam)
    gap = float(g @ y) + sigma
    rel_gap = gap / max(abs(objective), abs(primal), np.finfo(float).tiny)
    return SolveResult(y, objective, rel_gap, 0, rel_gap <= opts.grad_tolerance)


def solve_nonsmooth_primal_reference(A, loss: NonSmoothLoss, lam: float,
                                     opts: SolveOptions = DUAL_OPTIONS):
    """Reference solve of min f(A x) + lam/2 ||x||^2 for a non-smooth loss.

    Goes through the Fenchel dual (a smooth quadratic over a simple set), then
    maps back with x* = -A.T z* / lam.  Returns ``(x_star, dual_result)``.
    """
    A = np.asarray(A, dtype=float)
    res = solve_dual_projected(A.T, loss.b, lam, loss.conjugate_domain(), opts)
    x_star = -(A.T @ res.minimizer) / lam
    return x_star, res
