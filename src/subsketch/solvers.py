"""Deterministic optimizers for the full, sketched and dual programs.

Smooth programs are solved by damped Newton (Armijo backtracking, an LU solve
of the regularized Hessian in numpy's LAPACK: scipy bundles a second OpenBLAS
with its own thread pool, and handing each step between the two costs more
than the arithmetic).  The non-smooth losses are handled entirely through their
Fenchel duals, convex quadratics over the feasible set each loss hands over (a
box, a signed simplex face or the L1 ball).  One primal active-set routine
solves all three, as bounds plus at most one equality (the ball through its
lifting to a simplex), in one pass that keeps one factorization of its free
columns: a pivoted QR of the starting face, whose triangle is then updated as
each bound is freed or pinned (Gill, Golub, Murray & Saunders, Math. Comp.
1974).  The pass is certified by its duality gap relative to the objective,
which, like Newton's test, ignores its scale.

A box dual starts from scipy's L-BFGS-B, run for a fixed 100 iterations: it
only has to find the face, which the finisher then solves exactly.  Of the
caps 300, 150, 125, 100, 75 and 50, 100 took the least time on the box duals
of perfbench's nonsmooth-dual, and in the nonsmooth-bound certificate it beat
300 as 150 and 125 did; fewer iterations leave the finisher more rounds, and
the finisher alone from the projected start is slower still and leaves cold
duals unconverged at its round limit (BENCH_active_set.json).
L-BFGS-B's BLAS work is small and serial; it runs in scipy's OpenBLAS pool,
which :mod:`subsketch.numkit` holds at one thread so that it does not compete
for cores with numpy's pool.  It keeps scipy's default of 10 correction pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtrtrs as _trtrs

from subsketch.losses import BoxSet, L1BallSet, NonSmoothLoss, SimplexFaceSet, SmoothLoss

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
                     shift_image=None, shift_coords=None, reg_gram=None) -> SolveResult:
    """Minimize f(B x + c) + lam/2 ||x + t||^2 (or lam/2 x.T G x with ``reg_gram=G``),
    lam > 0.  Newton steps on the n x n side (matrix-inversion lemma) when the
    regularizer is isotropic and B (n x p) is wide, p > 1.5 n."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    B = np.asarray(B, dtype=float)
    n, p = B.shape
    dual_space = reg_gram is None and p > int(1.5 * n)
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
    BBt = B @ B.T if dual_space else None
    iterations = 0
    grad_norm = float(np.linalg.norm(g))
    for iterations in range(1, opts.max_iters + 1):
        if grad_norm <= opts.grad_tolerance * g0:
            return SolveResult(x, obj, grad_norm, iterations - 1, True)
        h = loss.hessian_diag(w)
        if dual_space:
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
    """Minimize f(A x) + lam/2 ||x||^2 over the full dimension; for d > 1.5 n
    Newton steps on the n x n side (:func:`_minimize_smooth`)."""
    return _minimize_smooth(A, loss, lam, opts)


def solve_sketched(a_qs, loss: SmoothLoss, lam: float,
                   opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Minimize f(AQ alpha) + lam/2 ||alpha||^2 in the whitened coordinates."""
    return _minimize_smooth(a_qs, loss, lam, opts)


def solve_sketched_shifted(a_qs, shift_image, shift_coords, loss: SmoothLoss, lam: float,
                           opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Minimize f(AQ alpha + shift_image) + lam/2 ||alpha + shift_coords||^2.

    The shifts are the images A @ x_prev and Q.T @ x_prev of a previous iterate.
    """
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
    s = np.asarray(s, dtype=float)
    return _minimize_smooth(a_s, loss, lam, opts, reg_gram=s.T @ s)


# ---------------------------------------------------------------------------
# the dual quadratic over a box, a simplex face or the L1 ball


def _dual_objective(y, By, b_linear, lam):
    return float(y @ b_linear) + float(By @ By) / (2.0 * lam)


def _lbfgsb_box(B, b_linear, lam, lows, highs, y0):
    from scipy.optimize import Bounds, minimize

    def fun_grad(y):
        By = B @ y
        return _dual_objective(y, By, b_linear, lam), b_linear + (B.T @ By) / lam

    # 100 iterations find the face that the finisher solves (module docstring)
    res = minimize(fun_grad, y0, jac=True, method="L-BFGS-B", bounds=Bounds(lows, highs),
                   options={"maxiter": 100, "ftol": 1e-18, "gtol": 1e-14})
    return res.x


class _Face:
    """The free columns of M, which is B with the row ``arow`` appended when
    one is given: a basis of independent columns, kept as M_b in ``cols`` and
    as the triangle R with R.T R = M_b.T M_b (no orthogonal factor), and the
    non-basis columns, each within ``tol`` of its span."""

    def __init__(self, B, arow, free, tol):
        self.B, self.arow, self.tol, k = B, arow, tol, 0
        rows = B.shape[0] + (arow is not None)
        self.cols = np.empty((rows, min(rows, B.shape[1])), order="F")
        if free.size:  # the basis that the pivoted QR (geqp3) picks
            R, perm = scipy.linalg.qr(self.columns(free), mode="r", pivoting=True,
                                      check_finite=False)
            k = int(np.count_nonzero(np.minimum.accumulate(np.abs(np.diagonal(R))) > tol))
            free = free[perm]
            self.cols[:, :k] = self.columns(free[:k])
        self.R = np.asfortranarray(R[:k, :k]) if k else np.zeros((0, 0), order="F")
        self.basis, self.nonbasis = list(free[:k]), list(free[k:])

    def columns(self, idx):  # M[:, idx], formed on demand
        return self.B[:, idx] if self.arow is None else np.vstack([self.B[:, idx], self.arow[idx]])

    def solve(self, x):  # (M_b.T M_b)^-1 x by two triangular solves
        return _trtrs(self.R, _trtrs(self.R, x, trans=1)[0])[0] if self.basis else 0 * x

    def add(self, j):
        # column j joins the basis as one new row and column of R, in O(m k + k^2),
        # if its residual on the basis (least squares, refined once) exceeds tol
        c, k, rho = self.columns([j])[:, 0], len(self.basis), 0.0
        if k < self.cols.shape[1]:
            Mb, coef, resid = self.cols[:, :k], np.zeros(k), c
            for _ in range(2):
                coef = coef + self.solve(Mb.T @ resid)
                resid = c - Mb @ coef
            rho = float(np.linalg.norm(resid))
        if not rho > self.tol:
            self.nonbasis.append(j)
            return
        R = np.zeros((k + 1, k + 1), order="F")
        R[:k, :k], R[:k, k], R[k, k] = self.R, self.R @ coef, rho
        self.R, self.cols[:, k] = R, c
        self.basis.append(j)

    def remove(self, j):
        # a basis column leaves R through Givens rotations (qr_delete, the identity
        # standing in for Q); the non-basis column with the largest coefficient on
        # it, in row p of M_b^+ M_r, is then offered in its place
        if j in self.nonbasis:
            self.nonbasis.remove(j)
            return
        p, k, R, promoted = self.basis.index(j), len(self.basis), self.R, None
        if self.nonbasis:
            u = self.cols[:, :k] @ self.solve(np.eye(1, k, p)[0])
            promoted = self.nonbasis.pop(int(np.argmax(np.abs(self.columns(self.nonbasis).T @ u))))
        if p < k - 1:
            R = scipy.linalg.qr_delete(np.eye(k, order="F"), R, p, which="col",
                                       overwrite_qr=True, check_finite=False)[1]
        self.R = np.asfortranarray(R[:k - 1, :k - 1])
        self.cols[:, p:k - 1] = self.cols[:, p + 1:k]
        del self.basis[p]
        if promoted is not None:
            self.add(promoted)


def _active_set(B, b_linear, lam, lows, highs, y, a=None):
    """Primal active-set solve of min b.y + ||B y||^2 / (2 lam) over
    ``lows <= y <= highs``, with ``a.y`` held at its value at the feasible start
    ``y`` when ``a`` is given.

    The free coordinates F are factored once as a :class:`_Face` of M = B, or
    of B with the row a appended, so that M_F's null directions keep a.y; each
    bound freed or pinned then updates that factor.  While g_F has a part in
    that null space, the round takes d = N v, N = [-M_b^+ M_r; I] and
    v = -N.T g_F, a descent of zero curvature, with an exact line search; else
    the basis's Newton step, its multiplier for a from a second solve with the
    factor.  A Newton step with a normwise backward error above 1e-10
    refactors the face, and one from a fresh factor ends the solve.  A step
    blocked by a bound pins that coordinate; after a full Newton step the
    pinned coordinate whose multiplier has the wrong sign is freed, until none
    has, for at most 2 len(y) + 20 rounds."""
    y = np.array(y, dtype=float)
    near = 1e-12 * (1.0 + np.abs(y))
    side = np.where(y - lows <= near, -1, np.where(highs - y <= near, 1, 0))
    y = np.where(side < 0, lows, np.where(side > 0, highs, y))
    scale = float(np.sqrt(np.max(np.einsum("ij,ij->j", B, B), initial=0.0))) or 1.0
    arow = None if a is None else scale * a  # the equality row, scaled to B's columns
    tol = np.finfo(float).eps * max(B.shape[0] + 1, B.shape[1]) * scale  # gelsd's cutoff
    face, fresh = _Face(B, arow, np.flatnonzero(side == 0), tol), True
    g = b_linear + (B.T @ (B @ y)) / lam
    for _ in range(2 * y.size + 20):
        basis, rest = np.array(face.basis, dtype=int), np.array(face.nonbasis, dtype=int)
        free, k, solved = np.concatenate([basis, rest]), basis.size, True
        Mb = face.cols[:, :k]
        if free.size:
            af = None if a is None else a[free] / np.linalg.norm(a[free])
            gp = g[free] if af is None else g[free] - af * (af @ g[free])
            if rest.size:
                Mr = face.columns(rest)
                v = Mr.T @ (Mb @ face.solve(gp[:k])) - gp[k:]
            if rest.size and v @ v > 1e-16 * (gp @ gp):  # a null-space part of g_F
                d = np.concatenate([-face.solve(Mb.T @ (Mr @ v)), v])
                if af is not None:  # N v keeps a.d = 0 only to the factor's accuracy
                    d -= af * (af @ d)
                Bd = B[:, free] @ d
                curv, slope = float(Bd @ Bd), float(g[free] @ d)
                if slope < 0:  # else the Newton step below
                    t_full, solved = (-lam * slope / curv if curv > 0 else np.inf), False
            if solved:
                ab = np.zeros(k) if a is None else a[basis]
                step, nu = face.solve(g[basis]), 0.0
                if a is not None and k:
                    sa = face.solve(ab)
                    nu = float(ab @ step) / float(ab @ sa)
                    step -= nu * sa
                step *= -lam
                Bb = Mb if a is None else Mb[:-1]
                resid = np.linalg.norm(g[basis] - nu * ab + Bb.T @ (Bb @ step) / lam)
                if not resid <= 1e-10 * (np.linalg.norm(g[basis]) + abs(nu) * np.linalg.norm(ab)
                                         + k * scale ** 2 * np.linalg.norm(step) / lam):
                    if fresh:  # also for a non-finite step
                        break
                    face, fresh = _Face(B, arow, free, tol), True
                    continue
                d, t_full = np.concatenate([step, np.zeros(rest.size)]), 1.0
                if af is not None:  # the face solve keeps a.d = 0 only to its residual
                    d -= af * (af @ d)
            with np.errstate(divide="ignore", invalid="ignore"):
                t_bound = np.where(d < 0, (lows[free] - y[free]) / d,
                                   np.where(d > 0, (highs[free] - y[free]) / d, np.inf))
            j = int(np.argmin(t_bound))
            blocked = t_bound[j] < t_full
            if blocked:
                y[free] += max(t_bound[j], 0.0) * d
                side[free[j]] = 1 if d[j] > 0 else -1
                y[free[j]] = highs[free[j]] if d[j] > 0 else lows[free[j]]
                face.remove(free[j])
                fresh = False
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
        face.add(j)
        fresh = False
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
