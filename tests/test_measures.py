import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats as sstats

from gaussbsde.errors import NonpositiveMass
from gaussbsde.measures import (
    GaussianLaw1D,
    entropy_functional,
    gaussian_kl,
    gaussian_w2,
    sorted_w2,
)


def brute_force_w2_two_atoms(a, b):
    """Exact W2 of two 2-atom clouds: minimum over both couplings."""
    costs = []
    for perm in itertools.permutations(range(2)):
        costs.append(np.mean([(a[i] - b[perm[i]]) ** 2 for i in range(2)]))
    return math.sqrt(min(costs))


def kl_by_quadrature(nu: GaussianLaw1D, mu: GaussianLaw1D) -> float:
    """Numerical integration of the log-density ratio."""

    def integrand(x):
        return sstats.norm.pdf(x, nu.mean, nu.std) * (
            sstats.norm.logpdf(x, nu.mean, nu.std) - sstats.norm.logpdf(x, mu.mean, mu.std)
        )

    lo = nu.mean - 40 * nu.std
    hi = nu.mean + 40 * nu.std
    val, _ = integrate.quad(integrand, lo, hi, limit=200)
    return val


class TestWasserstein1D:
    """``sorted_w2``: W2 between equal-size samples, the oracle of the Picard stop statistic."""

    def test_shift_by_one(self):
        assert sorted_w2(np.array([0.0, 1.0]), np.array([1.0, 2.0])) == pytest.approx(1.0, abs=1e-14)

    def test_two_atom_case_against_brute_force(self):
        a, b = np.array([0.0, 2.0]), np.array([1.0, 1.0])
        got = sorted_w2(a, b)
        assert got == pytest.approx(brute_force_w2_two_atoms(a, b), abs=1e-14)
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_identity(self):
        a = np.array([3.0, -1.0, 0.5])
        assert sorted_w2(a, a) == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a, b, c = (rng.normal(size=32) for _ in range(3))
            assert sorted_w2(a, c) <= sorted_w2(a, b) + sorted_w2(b, c) + 1e-12

    def test_nan_row_is_not_dropped(self):
        # a NaN row distance makes the largest row distance NaN, so NaN input
        # never reads as a small change
        assert math.isnan(sorted_w2(np.array([[np.nan, 1.0]]), np.array([[0.0, 1.0]])))
        a = np.array([[0.0, 1.0], [np.nan, 1.0], [0.0, 3.0]])
        assert math.isnan(sorted_w2(a, np.array([[0.0, 1.0]] * 3)))


class TestGaussianW2:
    def test_mean_shift(self):
        assert gaussian_w2(GaussianLaw1D(0, 1), GaussianLaw1D(1, 1)) == pytest.approx(1.0)

    def test_scale_change_against_quantile_coupling(self):
        # oracle: quantile-coupling integral int |F^-1 - G^-1|^2 dq
        a, b = GaussianLaw1D(0, 1), GaussianLaw1D(0, 4)
        val, _ = integrate.quad(
            lambda q: (sstats.norm.ppf(q, 0, 1) - sstats.norm.ppf(q, 0, 2)) ** 2, 1e-12, 1 - 1e-12, limit=300
        )
        assert gaussian_w2(a, b) == pytest.approx(math.sqrt(val), rel=1e-6)
        assert gaussian_w2(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_self_distance(self):
        assert gaussian_w2(GaussianLaw1D(2.0, 3.0), GaussianLaw1D(2.0, 3.0)) == 0.0

    def test_agrees_with_empirical(self):
        a, b = GaussianLaw1D(0.3, 1.0), GaussianLaw1D(-0.2, 2.5)
        rng = np.random.default_rng(12)
        xa = rng.normal(a.mean, a.std, size=100_000)
        xb = rng.normal(b.mean, b.std, size=100_000)
        emp = sorted_w2(xa, xb)
        assert emp == pytest.approx(gaussian_w2(a, b), rel=0.02)


class TestGaussianKL:
    def test_identical(self):
        assert gaussian_kl(GaussianLaw1D(0, 1), GaussianLaw1D(0, 1)) == 0.0

    def test_mean_shift_against_quadrature(self):
        nu, mu = GaussianLaw1D(1, 1), GaussianLaw1D(0, 1)
        assert gaussian_kl(nu, mu) == pytest.approx(0.5, abs=1e-12)
        assert gaussian_kl(nu, mu) == pytest.approx(kl_by_quadrature(nu, mu), abs=1e-9)

    def test_variance_ratio_against_quadrature(self):
        nu, mu = GaussianLaw1D(0, 1), GaussianLaw1D(0, math.e ** 2)
        expected = 1.0 + 1.0 / (2 * math.e ** 2) - 0.5
        assert gaussian_kl(nu, mu) == pytest.approx(expected, abs=1e-12)
        assert gaussian_kl(nu, mu) == pytest.approx(kl_by_quadrature(nu, mu), abs=1e-9)

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            nu = GaussianLaw1D(rng.normal(), rng.uniform(0.1, 3))
            mu = GaussianLaw1D(rng.normal(), rng.uniform(0.1, 3))
            kl = gaussian_kl(nu, mu)
            assert kl >= 0
            if abs(kl) < 1e-12:
                assert nu.mean == pytest.approx(mu.mean) and nu.variance == pytest.approx(mu.variance)

    def test_degenerate_reference(self):
        assert gaussian_kl(GaussianLaw1D(1, 1), GaussianLaw1D(0, 0)) == math.inf
        assert gaussian_kl(GaussianLaw1D(0, 0), GaussianLaw1D(0, 0)) == 0.0
        assert gaussian_kl(GaussianLaw1D(0, 0), GaussianLaw1D(0, 1)) == math.inf


class TestEntropyFunctional:
    def test_constant_function(self):
        assert entropy_functional(GaussianLaw1D(0.7, 2.0), lambda x: np.ones_like(x)) == pytest.approx(0.0, abs=1e-10)

    def test_exponential_against_mgf_identity(self):
        # Ent(e^{lam x}) = (lam^2 s^2 / 2) e^{lam^2 s^2 / 2} for centered laws
        got = entropy_functional(GaussianLaw1D(0.0, 1.0), lambda x: np.exp(x))
        assert got == pytest.approx(0.5 * math.exp(0.5), abs=1e-9)
        assert got == pytest.approx(0.8244, abs=1e-4)

    def test_nonnegative(self):
        for mu in (GaussianLaw1D(0.0, 1.0), GaussianLaw1D(-0.4, 2.5)):
            for f in (np.abs, lambda x: x ** 2 + 0.1, lambda x: np.exp(0.3 * x)):
                assert entropy_functional(mu, f) >= -1e-10

    def test_nonpositive_mass(self):
        with pytest.raises(NonpositiveMass):
            entropy_functional(GaussianLaw1D(1.0, 2.0), lambda x: np.zeros_like(x))
