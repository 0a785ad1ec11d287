"""Loss models: smooth (quadratic, logistic, ReLU-type) and non-smooth (L1, Linf, hinge).

Each model carries the constants the recovery bounds need (gradient-smoothness
for the smooth family, a Lipschitz constant for the non-smooth one) and enough
Fenchel-conjugate structure to state the dual programs exactly.  The family is
closed-world on purpose: conjugates, conjugate domains and subdifferential
partitions are all exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class SubgradientPartition:
    """Coordinatewise structure of a subdifferential at a point.

    For the separable losses (L1, hinge) every coordinate is either fixed to a
    single value or free within a closed interval.  For the max-type loss the
    subdifferential is the convex hull of signed canonical vectors on the
    ``active`` index set; non-active coordinates are fixed at zero.
    """

    kind: str
    fixed_mask: np.ndarray
    fixed_values: np.ndarray
    free_low: np.ndarray
    free_high: np.ndarray
    active: np.ndarray | None = None
    signs: np.ndarray | None = None

    @property
    def n_free(self) -> int:
        return int(np.count_nonzero(~self.fixed_mask))


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
    """Convex Lipschitz loss with exact subdifferential bookkeeping."""

    smooth = False
    lipschitz: float

    def conjugate_value(self, z, tol: float | None = None) -> float:
        raise NotImplementedError

    def subgradient_partition(self, w, tie_tolerance: float | None = None) -> SubgradientPartition:
        raise NotImplementedError

    def arbitrary_subgradient(self, w) -> np.ndarray:
        """Deterministic cheap selection: midpoints of free intervals, or the
        first active coordinate for the max-type loss."""
        raise NotImplementedError


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

    def conjugate_value(self, z, tol: float | None = None):
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
        from scipy.special import expit

        return -self.y * expit(-self.y * w) / self.n

    def hessian_diag(self, w):
        w = _check_vector(w, self.n)
        from scipy.special import expit

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


def _conjugate_tol(z, tol):
    return 1e-7 * (1.0 + float(np.max(np.abs(z), initial=0.0))) if tol is None else tol


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

    def conjugate_value(self, z, tol: float | None = None):
        z = _check_vector(z, self.n)
        if np.max(np.abs(z), initial=0.0) > 1.0 + _conjugate_tol(z, tol):
            return np.inf
        return float(z @ self.b)

    def subgradient_partition(self, w, tie_tolerance=None):
        w = _check_vector(w, self.n)
        tol = default_tie_tolerance(w) if tie_tolerance is None else tie_tolerance
        r = w - self.b
        fixed = np.abs(r) > tol
        return SubgradientPartition(
            kind=self.kind,
            fixed_mask=fixed,
            fixed_values=np.where(fixed, np.sign(r), 0.0),
            free_low=np.where(fixed, 0.0, -1.0),
            free_high=np.where(fixed, 0.0, 1.0),
        )

    def arbitrary_subgradient(self, w):
        p = self.subgradient_partition(w)
        return p.fixed_values + (1 - p.fixed_mask) * 0.5 * (p.free_low + p.free_high)


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

    def conjugate_value(self, z, tol: float | None = None):
        z = _check_vector(z, self.n)
        t = self.b * z
        eps = _conjugate_tol(z, tol)
        if np.any(t > eps) or np.any(t < -1.0 - eps):
            return np.inf
        return float(z @ self.b)

    def subgradient_partition(self, w, tie_tolerance=None):
        w = _check_vector(w, self.n)
        tol = default_tie_tolerance(w) if tie_tolerance is None else tie_tolerance
        margin = 1.0 - w * self.b
        lo_iv = np.minimum(0.0, -self.b)  # interval [0, -b] sorted per coordinate
        hi_iv = np.maximum(0.0, -self.b)
        fixed = np.abs(margin) > tol
        values = np.where(margin > tol, -self.b, 0.0)
        return SubgradientPartition(
            kind=self.kind,
            fixed_mask=fixed,
            fixed_values=np.where(fixed, values, 0.0),
            free_low=np.where(fixed, 0.0, lo_iv),
            free_high=np.where(fixed, 0.0, hi_iv),
        )

    def arbitrary_subgradient(self, w):
        p = self.subgradient_partition(w)
        mid = 0.5 * (p.free_low + p.free_high)  # -b/2 on tied coordinates
        return p.fixed_values + (1 - p.fixed_mask) * mid


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

    def conjugate_value(self, z, tol: float | None = None):
        z = _check_vector(z, self.n)
        if np.abs(z).sum() > 1.0 + _conjugate_tol(z, tol):
            return np.inf
        return float(z @ self.b)

    def subgradient_partition(self, w, tie_tolerance=None):
        w = _check_vector(w, self.n)
        tol = default_tie_tolerance(w) if tie_tolerance is None else tie_tolerance
        r = w - self.b
        top = float(np.max(np.abs(r)))
        active_mask = np.abs(r) >= top - tol
        active = np.flatnonzero(active_mask)
        return SubgradientPartition(
            kind=self.kind,
            fixed_mask=~active_mask,
            fixed_values=np.zeros(self.n),
            free_low=np.zeros(self.n),
            free_high=np.zeros(self.n),
            active=active,
            signs=np.sign(r[active]),
        )

    def arbitrary_subgradient(self, w):
        p = self.subgradient_partition(w)
        g = np.zeros(self.n)
        g[p.active[0]] = p.signs[0]
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
