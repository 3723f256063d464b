"""Measure arithmetic: the sorted-sample and Gaussian W2 distances, relative
entropy between Gaussians, and the entropy functional of a Gaussian law."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonpositiveMass


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
    distances is returned.
    """
    diff = np.sort(np.asarray(a, dtype=float), axis=-1)
    # b is sorted one row at a time, so diff is the only full-size temporary
    rows = diff.reshape(-1, diff.shape[-1])
    for row, b_row in zip(rows, np.asarray(b, dtype=float).reshape(rows.shape)):
        row -= np.sort(b_row)
    diff *= diff
    return float(np.max(np.sqrt(np.mean(diff, axis=-1))))


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
    return (
        math.log(mu.std / nu.std)
        + (nu.variance + (nu.mean - mu.mean) ** 2) / (2.0 * mu.variance)
        - 0.5
    )


def _xlogx(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    pos = v > 0
    out[pos] = v[pos] * np.log(v[pos])
    return out


def entropy_functional(mu: GaussianLaw1D, F: Callable[[np.ndarray], np.ndarray]) -> float:
    """Ent_mu(F) = int F log F dmu - int F dmu * log int F dmu, for F >= 0,
    by adaptive quadrature against the Gaussian law ``mu``."""
    # imported here: scipy.integrate is slow to import and only this
    # function, reached by the LSI check alone, needs it
    from scipy import integrate

    if mu.variance == 0.0:
        return 0.0  # Dirac mass: F is constant mu-a.s.
    m, s = mu.mean, mu.std
    # 40 standardized units: the Gaussian weight is ~1e-350 there, which
    # truncates the tails before a growing test function can overflow
    u_max = 40.0

    def density(u):
        return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)

    def f_at(u):
        return float(F(np.asarray([m + s * u]))[0])

    mass, _ = integrate.quad(lambda u: f_at(u) * density(u), -u_max, u_max, limit=200)
    if mass <= 0:
        raise NonpositiveMass("integral of the test function is nonpositive")
    ent_part, _ = integrate.quad(
        lambda u: float(_xlogx(np.asarray([f_at(u)]))[0]) * density(u),
        -u_max,
        u_max,
        limit=200,
    )
    return float(ent_part - mass * math.log(mass))
