"""Synthetic instance generation: matrices with prescribed spectral decay and
Haar-distributed singular vectors, sign labels, noisy linear observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from subsketch.analysis import SpectralSummary
from subsketch.losses import HINGE, LOGISTIC, RELU, make_loss
from subsketch.numkit import SeededRng, sample_haar_frame

POLYNOMIAL = "poly"
EXPONENTIAL = "exp"
GEOMETRIC = "geom"


@dataclass(frozen=True)
class SpectrumSpec:
    """Spectral decay profile for a synthetic data matrix.

    Polynomial: sigma_j = scale * j^(-(1+nu)/2).  Exponential:
    sigma_j = scale * exp(-nu j / 2).  Geometric: sigma_j = scale * ratio^j.
    The scale defaults to sqrt(n) for the polynomial and exponential families
    and 1 for the geometric one, matching the standard synthetic benchmarks.
    """

    kind: str
    nu: float = 0.0
    ratio: float = 0.0
    scale: float | None = None

    def __post_init__(self):
        if self.kind not in (POLYNOMIAL, EXPONENTIAL, GEOMETRIC):
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        if self.kind in (POLYNOMIAL, EXPONENTIAL) and not 0 < self.nu < np.inf:
            raise ValueError("decay exponent nu must be positive and finite")
        if self.kind == GEOMETRIC and not 0 < self.ratio < 1:
            raise ValueError("geometric ratio must lie in (0, 1)")

    def generate(self, n: int, d: int) -> np.ndarray:
        j = np.arange(1, min(n, d) + 1, dtype=float)
        if self.kind == POLYNOMIAL:
            base = j ** (-(1.0 + self.nu) / 2.0)
        elif self.kind == EXPONENTIAL:
            base = np.exp(-self.nu * j / 2.0)
        else:
            base = self.ratio**j
        default_scale = np.sqrt(n) if self.kind in (POLYNOMIAL, EXPONENTIAL) else 1.0
        return base * (self.scale if self.scale is not None else default_scale)


def synth_matrix(n: int, d: int, spec: SpectrumSpec, rng: SeededRng):
    """Matrix with the requested singular values and Haar singular vectors.

    Returns ``(A, summary)`` where the summary carries the exact spectrum.
    """
    sigma = spec.generate(n, d)
    rho = sigma.size
    U = sample_haar_frame(n, rho, rng.derive(0))
    V = sample_haar_frame(d, rho, rng.derive(1))
    A = (U * sigma) @ V.T
    return A, SpectralSummary(singular_values=sigma, n=n, d=d)


def synth_labels(n: int, rng: SeededRng) -> np.ndarray:
    """i.i.d. uniform +/-1 labels."""
    return rng.generator().integers(0, 2, size=n) * 2.0 - 1.0


def synth_observation(A: np.ndarray, x_pl: np.ndarray, noise_var: float,
                      rng: SeededRng) -> np.ndarray:
    """Noisy linear observation ``b = A x_pl + w`` with ``w ~ N(0, noise_var/n I)``."""
    A = np.asarray(A, dtype=float)
    x_pl = np.asarray(x_pl, dtype=float)
    if np.linalg.norm(x_pl) > 1.0 + 1e-12:
        raise ValueError("planted vector must have norm at most 1")
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    n = A.shape[0]
    w = rng.generator().normal(0.0, np.sqrt(noise_var / n), size=n)
    return A @ x_pl + w


def synth_loss(name: str, A: np.ndarray, base: SeededRng, noise_var: float = 1.0):
    """The loss ``name`` on the fixed synthetic targets of data ``A`` under ``base``.

    Logistic, relu and hinge get sign labels from stream ``0xB``; quadratic, l1
    and linf a noisy observation (noise from stream ``0xD``) of a random unit
    planted vector (stream ``0xC``).
    """
    if name in (LOGISTIC, RELU, HINGE):
        y = synth_labels(A.shape[0], base.derive(0xB))
        return make_loss(name, b=y, y=y)
    x_pl = base.derive(0xC).generator().standard_normal(A.shape[1])
    x_pl /= np.linalg.norm(x_pl)
    return make_loss(name, b=synth_observation(A, x_pl, noise_var, base.derive(0xD)))
