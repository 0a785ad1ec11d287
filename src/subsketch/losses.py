"""Loss models: smooth (quadratic, logistic, ReLU-type) and non-smooth (L1, Linf, hinge).

Each model carries the constants the recovery bounds need (gradient-smoothness
for the smooth family, a Lipschitz constant for the non-smooth one) and enough
Fenchel-conjugate structure to state the dual programs exactly.  The family is
closed-world on purpose: conjugates, conjugate domains and subdifferentials
are all exact, and each non-smooth loss returns the last two as the feasible
sets of its dual programs, with their Euclidean projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

QUADRATIC = "quadratic"
LOGISTIC = "logistic"
RELU = "relu"
L1 = "l1"
LINF = "linf"
HINGE = "hinge"

SMOOTH_KINDS = (QUADRATIC, LOGISTIC, RELU)
NONSMOOTH_KINDS = (L1, LINF, HINGE)


def default_tie_tolerance(w: np.ndarray) -> float:
    """Tolerance under which a coordinate counts as sitting on a kink."""
    return 1e-7 * (1.0 + float(np.max(np.abs(w), initial=0.0)))


def _check_vector(w, n: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"expected a vector of length {n}, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("input contains NaN or Inf")
    return w


def _check_signs(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be a vector of +/-1 entries")
    return y


# ---------------------------------------------------------------------------
# Euclidean projections and the feasible sets of the dual programs


def project_box(v, lows, highs) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    if np.any(lows > highs):
        raise ValueError("box is empty: some low exceeds its high")
    return np.clip(v, lows, highs)


def _project_simplex(v, radius):
    # Euclidean projection onto {u >= 0, sum u = radius}, sort-and-threshold
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - radius
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u * idx > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def project_scaled_simplex(v, signs, radius: float) -> np.ndarray:
    """Projection onto {signs * u : u >= 0, sum(u) = radius}."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    v = np.asarray(v, dtype=float)
    signs = np.asarray(signs, dtype=float)
    return signs * _project_simplex(signs * v, radius)


def project_l1_ball(v, radius: float = 1.0) -> np.ndarray:
    """Projection onto {y : ||y||_1 <= radius}."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    return np.sign(v) * _project_simplex(a, radius)


@dataclass(frozen=True)
class BoxSet:
    """{y : lows <= y <= highs}; a coordinate with low == high is pinned."""

    lows: np.ndarray
    highs: np.ndarray

    def project(self, v):
        return project_box(v, self.lows, self.highs)

    def contains(self, z, tol: float) -> bool:
        return bool(np.all(z >= self.lows - tol) and np.all(z <= self.highs + tol))

    def support(self, r) -> float:
        return float(np.maximum(self.lows * r, self.highs * r).sum())


@dataclass(frozen=True)
class SimplexFaceSet:
    """{signs * u : u >= 0 supported on signs != 0, sum u = radius}"""

    signs: np.ndarray
    radius: float = 1.0

    def project(self, v):
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        sup = np.flatnonzero(self.signs)
        if sup.size == 0:
            raise ValueError("simplex face has empty support")
        out[sup] = project_scaled_simplex(v[sup], self.signs[sup], self.radius)
        return out

    def support(self, r) -> float:
        return self.radius * float((self.signs * r)[self.signs != 0].max())


@dataclass(frozen=True)
class L1BallSet:
    radius: float = 1.0

    def project(self, v):
        return project_l1_ball(v, self.radius)

    def contains(self, z, tol: float) -> bool:
        return bool(np.abs(z).sum() <= self.radius + tol)

    def support(self, r) -> float:
        return self.radius * float(np.abs(r).max())


class _LossBase:
    kind: str
    n: int

    def value(self, w) -> float:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class SmoothLoss(_LossBase):
    """Convex differentiable loss with a gradient-Lipschitz constant."""

    smooth = True
    smoothness: float

    def gradient(self, w) -> np.ndarray:
        raise NotImplementedError

    def hessian_diag(self, w) -> np.ndarray:
        raise NotImplementedError


class NonSmoothLoss(_LossBase):
    """Convex Lipschitz loss with f*(z) = z @ b on its conjugate domain, the
    feasible set of the plain dual; the restricted dual's is the subdifferential."""

    smooth = False
    lipschitz: float

    def conjugate_domain(self):
        raise NotImplementedError

    def subgradient_partition(self, w):
        """The subdifferential at ``w`` as a subset of the conjugate domain,
        with ties to a kink decided by :func:`default_tie_tolerance`."""
        raise NotImplementedError

    def conjugate_value(self, z) -> float:
        z = _check_vector(z, self.n)
        if self.conjugate_domain().contains(z, default_tie_tolerance(z)):
            return float(z @ self.b)
        return np.inf

    def arbitrary_subgradient(self, w) -> np.ndarray:
        """Deterministic cheap selection: the midpoint of the subdifferential box."""
        box = self.subgradient_partition(w)
        return 0.5 * (box.lows + box.highs)

    def _pinned(self, pinned, values) -> BoxSet:
        # the conjugate-domain box with the coordinates in ``pinned`` fixed at ``values``
        dom = self.conjugate_domain()
        return BoxSet(np.where(pinned, values, dom.lows), np.where(pinned, values, dom.highs))


class QuadraticLoss(SmoothLoss):
    """f(w) = 0.5 * ||w - b||^2"""

    kind = QUADRATIC

    def __init__(self, b):
        self.b = np.asarray(b, dtype=float)
        self.n = self.b.size
        self.smoothness = 1.0

    def value(self, w):
        w = _check_vector(w, self.n)
        r = w - self.b
        return 0.5 * float(r @ r)

    def gradient(self, w):
        w = _check_vector(w, self.n)
        return w - self.b

    def hessian_diag(self, w):
        _check_vector(w, self.n)
        return np.ones(self.n)

    def conjugate_value(self, z):
        z = _check_vector(z, self.n)
        return 0.5 * float(z @ z) + float(z @ self.b)


class LogisticLoss(SmoothLoss):
    """f(w) = n^-1 * sum_i log(1 + exp(-y_i w_i)) with labels y in {+/-1}^n"""

    kind = LOGISTIC

    def __init__(self, y):
        self.y = _check_signs(y)
        self.n = self.y.size
        self.smoothness = 1.0 / (4.0 * self.n)

    def value(self, w):
        w = _check_vector(w, self.n)
        return float(np.logaddexp(0.0, -self.y * w).mean())

    def gradient(self, w):
        w = _check_vector(w, self.n)
        return -self.y * expit(-self.y * w) / self.n

    def hessian_diag(self, w):
        w = _check_vector(w, self.n)
        s = expit(self.y * w)
        return s * (1.0 - s) / self.n


class ReluTypeLoss(SmoothLoss):
    """f(w) = (2n)^-1 * sum_i [ max(w_i, 0)^2 - 2 w_i y_i ]

    C^1 but not C^2: the curvature jumps at w_i = 0, where the Hessian diagonal
    takes the value 0.
    """

    kind = RELU

    def __init__(self, y):
        self.y = _check_signs(y)
        self.n = self.y.size
        self.smoothness = 1.0 / self.n

    def value(self, w):
        w = _check_vector(w, self.n)
        wp = np.maximum(w, 0.0)
        return float(np.sum(wp * wp - 2.0 * w * self.y)) / (2.0 * self.n)

    def gradient(self, w):
        w = _check_vector(w, self.n)
        return (np.maximum(w, 0.0) - self.y) / self.n

    def hessian_diag(self, w):
        w = _check_vector(w, self.n)
        return (w > 0.0).astype(float) / self.n


class L1Loss(NonSmoothLoss):
    """f(w) = ||w - b||_1; conjugate domain is the unit sup-norm box."""

    kind = L1

    def __init__(self, b):
        self.b = np.asarray(b, dtype=float)
        self.n = self.b.size
        self.lipschitz = float(np.sqrt(self.n))

    def value(self, w):
        w = _check_vector(w, self.n)
        return float(np.abs(w - self.b).sum())

    def conjugate_domain(self):
        return BoxSet(-np.ones(self.n), np.ones(self.n))

    def subgradient_partition(self, w):
        """A box: sign(w - b) off the kinks, [-1, 1] on them."""
        w = _check_vector(w, self.n)
        r = w - self.b
        return self._pinned(np.abs(r) > default_tie_tolerance(w), np.sign(r))


class HingeLoss(NonSmoothLoss):
    """f(w) = sum_i max(0, 1 - w_i b_i) with labels b in {+/-1}^n."""

    kind = HINGE

    def __init__(self, b):
        self.b = _check_signs(b)
        self.n = self.b.size
        self.lipschitz = float(np.sqrt(self.n))

    def value(self, w):
        w = _check_vector(w, self.n)
        return float(np.maximum(0.0, 1.0 - w * self.b).sum())

    def conjugate_domain(self):
        # the interval [0, -b_i] sorted per coordinate
        return BoxSet(np.minimum(0.0, -self.b), np.maximum(0.0, -self.b))

    def subgradient_partition(self, w):
        """A box: -b where the margin is violated, 0 where it holds strictly,
        the interval [0, -b] on the margin."""
        w = _check_vector(w, self.n)
        tol = default_tie_tolerance(w)
        margin = 1.0 - w * self.b
        return self._pinned(np.abs(margin) > tol, np.where(margin > tol, -self.b, 0.0))


class LinfLoss(NonSmoothLoss):
    """f(w) = ||w - b||_inf; conjugate domain is the unit L1-ball."""

    kind = LINF

    def __init__(self, b):
        self.b = np.asarray(b, dtype=float)
        self.n = self.b.size
        self.lipschitz = 1.0

    def value(self, w):
        w = _check_vector(w, self.n)
        return float(np.max(np.abs(w - self.b)))

    def conjugate_domain(self):
        return L1BallSet(1.0)

    def _active(self, w):
        # the coordinates of w - b that tie for the largest magnitude, and the signs of w - b
        w = _check_vector(w, self.n)
        r = w - self.b
        top = float(np.max(np.abs(r)))
        return np.abs(r) >= top - default_tie_tolerance(w), np.sign(r)

    def subgradient_partition(self, w):
        """The simplex face of the signed active coordinates, or the whole
        conjugate domain when the residual is identically zero."""
        active, signs = self._active(w)
        signs = np.where(active, signs, 0.0)
        if not np.any(signs):
            return self.conjugate_domain()
        return SimplexFaceSet(signs, 1.0)

    def arbitrary_subgradient(self, w):
        """The first active coordinate, with its sign."""
        active, signs = self._active(w)
        first = int(np.argmax(active))
        g = np.zeros(self.n)
        g[first] = signs[first]
        return g


def make_loss(name: str, *, b=None, y=None) -> _LossBase:
    """Construct a loss model by its harness name.

    ``b`` is the regression target (quadratic, l1, linf) or the labels (hinge);
    ``y`` holds the labels for logistic and relu.
    """
    name = name.lower()
    if name == QUADRATIC:
        return QuadraticLoss(b)
    if name == LOGISTIC:
        return LogisticLoss(y)
    if name == RELU:
        return ReluTypeLoss(y)
    if name == L1:
        return L1Loss(b)
    if name == LINF:
        return LinfLoss(b)
    if name == HINGE:
        return HingeLoss(b if b is not None else y)
    raise ValueError(f"unknown loss {name!r}; expected one of {SMOOTH_KINDS + NONSMOOTH_KINDS}")
