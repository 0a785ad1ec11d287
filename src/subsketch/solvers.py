"""Deterministic optimizers for the full, sketched and dual programs.

Smooth programs are solved by damped Newton (Armijo backtracking, an LU solve
of the regularized Hessian in numpy's LAPACK: scipy bundles a second OpenBLAS
with its own thread pool, and handing each step between the two costs more
than the arithmetic).  The non-smooth losses are handled entirely through their
Fenchel duals, convex quadratics over the feasible set each loss hands over (a
box, a signed simplex face or the L1 ball), solved exactly on active sets first
and every 200 iterations of fixed-step projected gradient.  Box and simplex-face
duals need no more: on the ``nonsmooth-dual`` benchmark (seed 42) each returns
after 0 projected-gradient iterations.

The box duals' accelerator is scipy's L-BFGS-B, whose own BLAS work is small
and serial; it runs in scipy's OpenBLAS pool, which :mod:`subsketch.numkit`
holds at one thread so that it does not compete for cores with numpy's pool,
where the objective's products run.  It keeps scipy's default of 10 correction
pairs: at n=300, 30 pairs cost more per iteration than they saved in
iterations (one l1 cell at m=64: 1123 iterations at 199 us against 1198 at
100 us).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from subsketch.losses import BoxSet, L1BallSet, NonSmoothLoss, SimplexFaceSet, SmoothLoss
from subsketch.numkit import spectral_norm

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
    minimizer: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    converged: bool


DUAL_OPTIONS = SolveOptions(grad_tolerance=1e-9, max_iters=200_000)


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
        return -np.linalg.lstsq(H, g, rcond=None)[0]


def _newton_step_dual_space(B, BBt, h, lam, g):
    # (lam I + B.T diag(h) B)^-1 g via the matrix-inversion lemma on the n x n side
    c = np.sqrt(h)
    N = BBt * np.outer(c, c)
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
        x = x + eta * delta
        w = w + eta * Bd
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
# projected gradient on the dual quadratic


def _dual_objective(y, By, b_linear, lam):
    return float(y @ b_linear) + float(By @ By) / (2.0 * lam)


def _line_searched_move(B, b_linear, lam, y, By, cand):
    """Exact minimization of the quadratic objective along [y, cand]; returns
    the new point (never worse than y)."""
    dy = cand - y
    Bd = B @ dy
    q = float(Bd @ Bd) / lam
    slope = float(b_linear @ dy) + float(By @ Bd) / lam
    if q <= 0.0:
        theta = 1.0 if slope < 0 else 0.0
    else:
        theta = min(max(-slope / q, 0.0), 1.0)
    if theta == 0.0:
        return y, By
    return y + theta * dy, By + theta * Bd


def _face_rounds_box(B, b_linear, lam, lows, highs, y, By, rounds=30):
    """Repeated exact solves on the currently pinned box face, moved into by
    exact line search; descends monotonically and lands on the optimum once
    the face is identified."""
    for _ in range(rounds):
        grad = b_linear + (B.T @ By) / lam
        at_low = y <= lows + 1e-12 * (1.0 + np.abs(lows))
        at_high = y >= highs - 1e-12 * (1.0 + np.abs(highs))
        pinned = (at_low & (grad > 0)) | (at_high & (grad < 0)) | (lows == highs)
        free = np.flatnonzero(~pinned)
        if free.size == 0:
            break
        Bf = B[:, free]
        img_fixed = By - Bf @ y[free]
        rhs = -(lam * b_linear[free] + Bf.T @ img_fixed)
        sol = np.linalg.lstsq(Bf.T @ Bf, rhs, rcond=None)[0]
        cand = y.copy()
        cand[free] = np.clip(sol, lows[free], highs[free])
        y_new, By_new = _line_searched_move(B, b_linear, lam, y, By, cand)
        if np.array_equal(y_new, y):
            break
        y, By = y_new, By_new
    return y, By


def _lbfgsb_box(B, b_linear, lam, lows, highs, y0):
    from scipy.optimize import minimize

    def fun_grad(y):
        By = B @ y
        return (float(y @ b_linear) + float(By @ By) / (2.0 * lam),
                b_linear + (B.T @ By) / lam)

    res = minimize(fun_grad, y0, jac=True, method="L-BFGS-B",
                   bounds=np.column_stack([lows, highs]),
                   options={"maxiter": 20_000, "ftol": 1e-18, "gtol": 1e-14})
    return res.x


def _solve_simplex_face(B, b_linear, lam, signs, radius, y, By, max_rounds=None):
    """Active-set solve of the quadratic over {signs * u : u >= 0, sum u = radius}.

    Solves the equality-constrained KKT system on the working set, moves by
    exact line search (dropping coordinates driven negative), and enters the
    off-set coordinate that most violates the multiplier condition.  Returns
    the new iterate; monotone by construction.
    """
    sup = np.flatnonzero(signs)
    if sup.size == 0:
        return y, By
    if max_rounds is None:
        max_rounds = 4 * sup.size + 20
    u = signs[sup] * y[sup]
    active = np.flatnonzero(u > 1e-14 * radius)
    if active.size == 0:
        active = np.array([int(np.argmax(-signs[sup] * (b_linear[sup])))])
        # feasible start: all mass on one active coordinate
        y = np.zeros_like(y)
        y[sup[active[0]]] = signs[sup[active[0]]] * radius
        By = B @ y
    for _ in range(max_rounds):
        idx = sup[active]
        s_a = signs[idx]
        Bu = B[:, idx] * s_a
        k = idx.size
        K = np.zeros((k + 1, k + 1))
        K[:k, :k] = (Bu.T @ Bu) / lam
        K[:k, k] = 1.0
        K[k, :k] = 1.0
        rhs = np.concatenate([-(s_a * b_linear[idx]), [radius]])
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
        u_cand = sol[:k]
        cand = np.zeros_like(y)
        cand[idx] = s_a * np.maximum(u_cand, 0.0)
        if np.any(u_cand < 0):
            # partial move to the first coordinate hitting zero, then drop it
            u_cur = s_a * y[idx]
            shrink = u_cur - u_cand
            with np.errstate(divide="ignore", invalid="ignore"):
                thetas = np.where(u_cand < 0, u_cur / np.maximum(shrink, 1e-300), np.inf)
            theta = float(min(1.0, np.min(thetas)))
            u_new = np.maximum(u_cur + theta * (u_cand - u_cur), 0.0)
            y_new = np.zeros_like(y)
            y_new[idx] = s_a * u_new
            y, By = y_new, B @ y_new
            active = active[u_new > 1e-14 * radius]
            if active.size == 0:
                break
            continue
        y, By = cand, B @ cand
        active = active[u_cand > 1e-14 * radius]
        if active.size == 0:
            break
        # multiplier condition on the dropped support coordinates
        grad = b_linear + (B.T @ By) / lam
        act_idx = sup[active]
        nu = float(np.mean(-signs[act_idx] * grad[act_idx]))
        g_u = signs[sup] * grad[sup]
        violations = g_u + nu < -1e-12 * (1.0 + abs(nu))
        in_active = np.zeros(sup.size, dtype=bool)
        in_active[active] = True
        candidates = np.flatnonzero(violations & ~in_active)
        if candidates.size == 0:
            break
        enter = candidates[np.argmin(g_u[candidates])]
        active = np.sort(np.append(active, enter))
    return y, By


def _solve_l1_ball(B, b_linear, lam, radius, y, By, max_rounds=60):
    """Active-set solve over the L1 ball: try the unconstrained minimum, else
    optimize on boundary faces, entering coordinates that violate the
    subdifferential condition |grad_i| <= nu."""
    # interior candidate
    sol = np.linalg.lstsq(B.T @ B, -lam * b_linear, rcond=None)[0]
    grad_at_sol = b_linear + (B.T @ (B @ sol)) / lam
    if np.abs(sol).sum() <= radius and np.linalg.norm(grad_at_sol) <= 1e-10 * (
            1.0 + np.linalg.norm(b_linear)):
        cand, Bc = _line_searched_move(B, b_linear, lam, y, By, sol)
        return cand, Bc
    grad = b_linear + (B.T @ By) / lam
    signs = np.where(np.abs(y) > 1e-14 * radius, np.sign(y), 0.0)
    if not np.any(signs):
        i = int(np.argmax(np.abs(grad)))
        signs[i] = -np.sign(grad[i])
    for _ in range(max_rounds):
        y, By = _solve_simplex_face(B, b_linear, lam, signs, radius, y, By)
        grad = b_linear + (B.T @ By) / lam
        on = np.abs(y) > 1e-14 * radius
        if not np.any(on):
            break
        nu = float(np.mean(-np.sign(y[on]) * grad[on]))
        if nu < -1e-10:
            break  # boundary multiplier negative: interior handled above
        off_viol = (np.abs(grad) > nu + 1e-12 * (1.0 + abs(nu))) & ~on
        if not np.any(off_viol):
            break
        j = int(np.argmax(np.abs(grad) * off_viol))
        signs = np.where(on, np.sign(y), 0.0)
        signs[j] = -np.sign(grad[j])
    return y, By


def _accelerate(B, b_linear, lam, feas, y, By):
    """Gated accelerator: exact active-set solves for the supported feasible
    sets; never increases the objective."""
    obj0 = _dual_objective(y, By, b_linear, lam)
    if isinstance(feas, BoxSet):
        cand = _lbfgsb_box(B, b_linear, lam, feas.lows, feas.highs, y)
        cand = feas.project(cand)
        y1, By1 = _line_searched_move(B, b_linear, lam, y, By, cand)
        y1, By1 = _face_rounds_box(B, b_linear, lam, feas.lows, feas.highs, y1, By1)
    elif isinstance(feas, SimplexFaceSet):
        y1, By1 = _solve_simplex_face(B, b_linear, lam, feas.signs, feas.radius, y, By)
    elif isinstance(feas, L1BallSet):
        y1, By1 = _solve_l1_ball(B, b_linear, lam, feas.radius, y, By)
    else:
        return y, By
    if _dual_objective(y1, By1, b_linear, lam) <= obj0:
        return y1, By1
    return y, By


def solve_dual_projected(B, b_linear, lam: float, feasible_set,
                         opts: SolveOptions = DUAL_OPTIONS, y0=None,
                         polish: bool = True, callback=None) -> SolveResult:
    """Minimize f*(y) + (1/2 lam) ||B y||^2 over ``feasible_set`` by projected
    gradient with the fixed step 1/Lip.

    On the closed-world losses f* reduces to the linear term ``b_linear @ y``
    plus the indicator of the set.  With ``polish`` enabled, an exact
    active-set accelerator (bounded quasi-Newton plus face solves) runs before
    and periodically between the projected-gradient iterations; accelerator
    output is accepted only when it lowers the objective, so descent stays
    monotone.  Stops when the projected-gradient norm falls below
    ``grad_tolerance`` relative to its initial value.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    B = np.asarray(B, dtype=float)
    b_linear = np.asarray(b_linear, dtype=float)
    lip = spectral_norm(B) ** 2 / lam
    step = 1.0 / max(lip, 1e-30)
    y = feasible_set.project(np.zeros(b_linear.size) if y0 is None else np.asarray(y0, float))
    By = B @ y
    if polish:
        y, By = _accelerate(B, b_linear, lam, feasible_set, y, By)
    obj = _dual_objective(y, By, b_linear, lam)
    pg_ref = None
    grad_norm = np.inf
    iterations = 0
    next_polish = 200
    for iterations in range(1, opts.max_iters + 1):
        grad = b_linear + (B.T @ By) / lam
        y_next = feasible_set.project(y - step * grad)
        pg_norm = float(np.linalg.norm(y - y_next)) / step
        if pg_ref is None:
            pg_ref = max(1.0, pg_norm)
        if callback is not None:
            callback(iterations, obj)
        if pg_norm <= opts.grad_tolerance * pg_ref:
            return SolveResult(y, obj, pg_norm, iterations - 1, True)
        y = y_next
        By = B @ y
        obj = _dual_objective(y, By, b_linear, lam)
        grad_norm = pg_norm
        if polish and iterations >= next_polish:
            next_polish += 200
            y, By = _accelerate(B, b_linear, lam, feasible_set, y, By)
            obj = _dual_objective(y, By, b_linear, lam)
    converged = grad_norm <= opts.grad_tolerance * (pg_ref or 1.0)
    return SolveResult(y, obj, grad_norm, iterations, converged)


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
