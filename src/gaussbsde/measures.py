"""Measure arithmetic: the sorted-sample and Gaussian W2 distances, relative
entropy between Gaussians, and the entropy functional of a Gaussian law."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import NonpositiveMass

# nodes of the Gauss-Hermite rule of the entropy functional; exact for
# polynomials of degree below 160 (Golub & Welsch 1969)
_HERMITE_NODES = 80


@dataclass(frozen=True)
class GaussianLaw1D:
    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be nonnegative")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class LawFeatures:
    """First moments of a joint (x, y, z) law.

    This is the computable reduction of the measure argument consumed by the
    scenario DSL: generators and terminals only read componentwise means.
    """

    mean_x: float = 0.0
    mean_y: float = 0.0
    mean_z: float = 0.0


def sorted_w2(a: np.ndarray, b: np.ndarray) -> float:
    """W_2 between equal-size sample arrays (sorted coupling), no wrappers.

    For 2-D input each row is one sample and the largest of the per-row
    distances is returned; NaN when any row distance is NaN.
    """
    a = np.asarray(a, dtype=float)
    rows_a = a.reshape(-1, a.shape[-1])
    rows_b = np.asarray(b, dtype=float).reshape(rows_a.shape)
    dist = []
    # one row at a time, so no full-size temporary is made
    for a_row, b_row in zip(rows_a, rows_b):
        diff = np.sort(a_row) - np.sort(b_row)
        diff *= diff
        dist.append(math.sqrt(np.mean(diff)))
    # np.max, unlike max(), keeps a NaN row distance
    return float(np.max(dist, initial=0.0))


def gaussian_w2(a: GaussianLaw1D, b: GaussianLaw1D) -> float:
    """Closed-form W_2 between scalar Gaussians."""
    return math.hypot(a.mean - b.mean, a.std - b.std)


def gaussian_kl(nu: GaussianLaw1D, mu: GaussianLaw1D) -> float:
    """Relative entropy H(nu | mu) between scalar Gaussians.

    Returns +inf when mu is degenerate and the laws differ, or when nu is a
    Dirac mass (no density with respect to mu).
    """
    if mu.variance == 0.0:
        return 0.0 if (nu.variance == 0.0 and nu.mean == mu.mean) else math.inf
    if nu.variance == 0.0:
        return math.inf
    # the mean's term apart: added to the variance's, one below its rounding would be lost
    r = nu.variance / mu.variance
    return 0.5 * (r - 1.0 - math.log(r)) + (nu.mean - mu.mean) ** 2 / (2.0 * mu.variance)


def _xlogx(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    pos = v > 0
    out[pos] = v[pos] * np.log(v[pos])
    return out


@functools.lru_cache(maxsize=1)
def _standard_normal_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for E f(U), U ~ N(0, 1)."""
    nodes, weights = hermegauss(_HERMITE_NODES)
    return nodes, weights / math.sqrt(2.0 * math.pi)


def entropy_functional(mu: GaussianLaw1D, F: Callable[[np.ndarray], np.ndarray]) -> float:
    """Ent_mu(F) = int F log F dmu - int F dmu * log int F dmu, for F >= 0,
    by Gauss-Hermite quadrature against the Gaussian law ``mu``."""
    if mu.variance == 0.0:
        return 0.0  # Dirac mass: F is constant mu-a.s.
    nodes, weights = _standard_normal_rule()
    values = np.asarray(F(mu.mean + mu.std * nodes), dtype=float)
    mass = float(weights @ values)
    if mass <= 0:
        raise NonpositiveMass("integral of the test function is nonpositive")
    return float(weights @ _xlogx(values) - mass * math.log(mass))
