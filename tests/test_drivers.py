import numpy as np
import pytest
from scipy import stats as sstats

from gaussbsde import drivers
from gaussbsde.drivers import (
    GaussianDriverSpec,
    VarianceClock,
    build_clock,
    covariance,
    sample_paths,
)
from gaussbsde.errors import CholeskyFailure, NonMonotoneVariance, OutOfRange
from gaussbsde.rng import standard_normal_blocks, standard_normals


def bisect_inverse(clock, s, lo=0.0, hi=None, iters=80):
    """Independent inverse of the clock table by bisection."""
    hi = clock.T if hi is None else hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if clock.value(mid) < s:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestClock:
    def test_brownian_clock_is_identity(self):
        clock = build_clock(GaussianDriverSpec.brownian(1.0), 17)
        assert clock.value(0.5) == pytest.approx(0.5, abs=1e-15)
        assert clock.invert(0.3) == pytest.approx(0.3, abs=1e-15)

    def test_fbm_quarter_clock_matches_sampled_variance(self):
        # oracle: Monte-Carlo variance of sampled paths at t = 0.5
        spec = GaussianDriverSpec.fbm(0.25, 1.0)
        clock = build_clock(spec, 33)
        paths = sample_paths(spec, np.array([0.0, 0.5]), 100_000, seed=42)
        sample_var = float(np.var(paths.samples[:, 1]))
        se = sample_var * np.sqrt(2.0 / paths.n_paths)
        assert abs(clock.value(0.5) - 0.5 ** 0.5) < 1e-12
        assert abs(sample_var - clock.value(0.5)) < 3 * se

    def test_fbm_half_equals_brownian(self):
        c1 = build_clock(GaussianDriverSpec.fbm(0.5, 1.0), 33)
        c2 = build_clock(GaussianDriverSpec.brownian(1.0), 33)
        np.testing.assert_allclose(c1.grid_V, c2.grid_V, atol=1e-14)

    def test_invert_fbm_quarter(self):
        # analytic inverse of V(t) = sqrt(t) is s -> s^2; cross-check bisection
        clock = build_clock(GaussianDriverSpec.fbm(0.25, 1.0), 257)
        direct = clock.invert(0.5)
        assert direct == pytest.approx(0.25, abs=1e-5)
        assert direct == pytest.approx(bisect_inverse(clock, 0.5), abs=1e-9)

    def test_invert_at_zero(self):
        for spec in (GaussianDriverSpec.brownian(1.0), GaussianDriverSpec.fbm(0.7, 1.0)):
            clock = build_clock(spec, 17)
            assert clock.invert(0.0) == 0.0

    @pytest.mark.parametrize("hurst", [0.25, 0.5, 0.7])
    def test_round_trip_on_nodes(self, hurst):
        clock = build_clock(GaussianDriverSpec.fbm(hurst, 1.0), 65)
        for t in clock.grid_t:
            assert abs(clock.invert(clock.value(t)) - t) <= 1e-9

    def test_out_of_range(self):
        clock = build_clock(GaussianDriverSpec.brownian(1.0), 9)
        with pytest.raises(OutOfRange):
            clock.value(1.5)
        with pytest.raises(OutOfRange):
            clock.invert(-0.1)
        with pytest.raises(OutOfRange):
            clock.invert(1.1)

    def test_non_monotone_custom_rejected(self):
        grid = np.array([0.25, 0.5, 0.75])
        rows = [[1.0], [0.5, 0.5], [0.2, 0.2, 0.4]]  # decreasing diagonal
        spec = GaussianDriverSpec.custom(grid, rows, T=1.0)
        with pytest.raises(NonMonotoneVariance):
            build_clock(spec, 4)


class TestCovariance:
    def test_brownian_is_min(self):
        spec = GaussianDriverSpec.fbm(0.5, 1.0)
        assert covariance(spec, 0.3, 0.7) == pytest.approx(0.3, abs=1e-14)

    def test_fbm_variance_against_sampler(self):
        spec = GaussianDriverSpec.fbm(0.75, 1.0)
        assert covariance(spec, 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)
        paths = sample_paths(spec, np.array([0.0, 1.0]), 100_000, seed=3)
        var = float(np.var(paths.samples[:, 1]))
        assert abs(var - 1.0) < 3 * np.sqrt(2.0 / paths.n_paths)

    def test_zero_time(self):
        for spec in (GaussianDriverSpec.brownian(2.0), GaussianDriverSpec.fbm(0.3, 2.0)):
            assert covariance(spec, 0.0, 1.5) == 0.0

    def test_symmetry(self):
        spec = GaussianDriverSpec.fbm(0.6, 1.0)
        assert covariance(spec, 0.2, 0.9) == covariance(spec, 0.9, 0.2)

    def test_clock_is_the_sampled_variance(self):
        # the clock's V(t_i) is bit for bit the diagonal of the covariance
        # matrix that sample_paths factors, built by the same kernel
        spec = GaussianDriverSpec.fbm(0.7, 1.0)
        clock = build_clock(spec, 17)
        grid = clock.grid_t[1:]
        assert np.array_equal(clock.grid_V[1:], np.diag(covariance(spec, grid[:, None], grid[None, :])))

    def test_broadcast_shapes_and_scalars(self):
        spec = GaussianDriverSpec.fbm(0.3, 1.0)
        grid = np.linspace(0.0, 1.0, 5)
        assert isinstance(covariance(spec, 0.5, 0.5), float)
        assert covariance(spec, grid[:, None], grid[None, :]).shape == (5, 5)
        assert covariance(spec, grid, 1.0).shape == (5,)
        with pytest.raises(OutOfRange):
            covariance(spec, grid, 1.5)


class TestSamplePaths:
    def test_brownian_terminal_variance(self):
        spec = GaussianDriverSpec.brownian(1.0)
        paths = sample_paths(spec, np.linspace(0, 1, 33), 100_000, seed=11)
        assert abs(np.var(paths.samples[:, -1]) - 1.0) < 0.02

    def test_brownian_increments_independent(self):
        spec = GaussianDriverSpec.brownian(1.0)
        paths = sample_paths(spec, np.linspace(0, 1, 17), 50_000, seed=5)
        inc = np.diff(paths.samples, axis=1)
        corr = np.corrcoef(inc[:, 3], inc[:, 9])[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(paths.n_paths)

    def test_fbm_correlation_matches_formula(self):
        spec = GaussianDriverSpec.fbm(0.7, 1.0)
        paths = sample_paths(spec, np.array([0.0, 0.5, 1.0]), 100_000, seed=7)
        target = covariance(spec, 0.5, 1.0) / np.sqrt(covariance(spec, 0.5, 0.5) * covariance(spec, 1.0, 1.0))
        got = np.corrcoef(paths.samples[:, 1], paths.samples[:, 2])[0, 1]
        assert abs(got - target) < 3.0 / np.sqrt(paths.n_paths)

    def test_determinism(self):
        spec = GaussianDriverSpec.fbm(0.3, 1.0)
        a = sample_paths(spec, np.linspace(0, 1, 9), 100, seed=123)
        b = sample_paths(spec, np.linspace(0, 1, 9), 100, seed=123)
        assert np.array_equal(a.samples, b.samples)

    def test_covariance_reproduced_entrywise(self):
        spec = GaussianDriverSpec.fbm(0.7, 1.0)
        grid = np.linspace(0, 1, 9)[1:]
        paths = sample_paths(spec, np.linspace(0, 1, 9), 100_000, seed=2)
        emp = np.cov(paths.samples[:, 1:].T)
        target = covariance(spec, grid[:, None], grid[None, :])
        # MC standard error of a covariance entry ~ sqrt((C_ii C_jj + C_ij^2)/n)
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target ** 2) / paths.n_paths)
        assert np.all(np.abs(emp - target) < 3 * se)

    def test_law_identity_with_brownian_clock(self):
        # marginals of the driver agree with Brownian marginals on the V-clock
        spec = GaussianDriverSpec.fbm(0.7, 1.0)
        clock = build_clock(spec, 9)
        paths = sample_paths(spec, clock.grid_t, 100_000, seed=31)
        brownian = GaussianDriverSpec.brownian(clock.V_T + 1e-9)
        w_paths = sample_paths(brownian, clock.grid_V, 100_000, seed=77)
        for j in (3, 8):
            stat = sstats.ks_2samp(paths.samples[:, j], w_paths.samples[:, j])
            assert stat.pvalue > 0.01

    def test_cholesky_failure_and_jitter(self):
        grid = np.array([0.5, 1.0])
        # rank-deficient but PSD: jitter retry must succeed
        rows = [[1.0], [1.0, 1.0]]
        spec = GaussianDriverSpec.custom(grid, rows, T=1.0)
        paths = sample_paths(spec, np.array([0.0, 0.5, 1.0]), 100, seed=1)
        assert np.all(np.isfinite(paths.samples))
        # indefinite: must fail even after the jitter retry
        bad = GaussianDriverSpec.custom(grid, [[1.0], [2.0, 1.0]], T=1.0)
        with pytest.raises(CholeskyFailure):
            sample_paths(bad, np.array([0.0, 0.5, 1.0]), 100, seed=1)

    def test_sample_means_centered(self):
        spec = GaussianDriverSpec.fbm(0.4, 1.0)
        grid = np.linspace(0, 1, 9)
        paths = sample_paths(spec, grid, 50_000, seed=21)
        bound = 4.0 / np.sqrt(paths.n_paths)
        for j, t in enumerate(grid[1:], start=1):
            v = covariance(spec, t, t)
            assert abs(np.mean(paths.samples[:, j])) < bound * np.sqrt(v)

    def test_grid_validation(self):
        spec = GaussianDriverSpec.brownian(1.0)
        for grid in ([0.5, 1.0], [0.0, 0.5, 0.4], [0.0, 1.5], [-0.5, 0.0, 0.5], []):
            with pytest.raises(ValueError):
                sample_paths(spec, np.array(grid), 10, seed=0)

    def test_paths_start_at_the_origin(self):
        # the grid is kept as given and column 0 is X(0) = 0; the positive
        # times are one Cholesky draw of the (n, m) normals of the seed
        spec = GaussianDriverSpec.fbm(0.3, 1.0)
        clock = build_clock(spec, 9)
        paths = sample_paths(spec, clock.grid_t, 500, seed=4)
        assert np.array_equal(paths.grid_t, clock.grid_t)
        assert paths.samples.shape == (500, 9)
        assert np.all(paths.samples[:, 0] == 0.0)
        times = clock.grid_t[1:]
        chol = np.linalg.cholesky(covariance(spec, times[:, None], times[None, :]))
        z = standard_normals(4, (500, 8), "driver-paths")
        assert np.array_equal(paths.samples[:, 1:], z @ chol.T)
        # the origin alone: paths that never leave it
        assert np.array_equal(sample_paths(spec, np.array([0.0]), 5, seed=4).samples, np.zeros((5, 1)))

    @pytest.mark.parametrize("n, m", [(500, 8), (37, 3), (10, 1), (1, 4), (7, 0)])
    def test_blocked_draw_is_the_one_shot_draw(self, monkeypatch, n, m):
        # blocks of 30 // m paths (30 for m = 0), the last one partial or
        # past n: the blocks' normals are the one-shot draw's, bit for bit,
        # and their product with the factor is the one-shot product to
        # rounding (OpenBLAS may sum a short block in another order)
        monkeypatch.setattr(drivers, "_BLOCK_ELEMENTS", 30)
        spec = GaussianDriverSpec.fbm(0.7, 1.0)
        grid = np.linspace(0.0, 1.0, m + 1)
        z = standard_normals(6, (n, m), "driver-paths")
        blocks = drivers._particle_blocks(n, m)
        drawn = list(standard_normal_blocks(6, (n, m), blocks, "driver-paths"))
        assert [rows for rows, _ in drawn] == blocks and blocks[-1].stop >= n
        assert np.array_equal(np.concatenate([block for _, block in drawn]), z)
        samples = sample_paths(spec, grid, n, seed=6).samples
        assert samples.shape == (n, m + 1) and np.all(samples[:, 0] == 0.0)
        chol = np.linalg.cholesky(covariance(spec, grid[1:, None], grid[None, 1:])) if m else np.zeros((0, 0))
        np.testing.assert_allclose(samples[:, 1:], z @ chol.T, rtol=1e-14, atol=1e-15)


class TestSpecValidation:
    def test_hurst_range(self):
        with pytest.raises(ValueError, match=r"hurst must be in \(0,1\)"):
            GaussianDriverSpec.fbm(1.5, 1.0)

    def test_custom_needs_matching_rows(self):
        with pytest.raises(ValueError):
            GaussianDriverSpec.custom(np.array([0.5, 1.0]), [[1.0]], T=1.0)

    def test_clock_rejects_flat_variance(self):
        with pytest.raises(NonMonotoneVariance):
            VarianceClock(grid_t=np.array([0.0, 0.5, 1.0]), grid_V=np.array([0.0, 0.5, 0.5]))


class TestErrorBranches:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"kind": "levy"}, "unknown driver kind 'levy'"),
            ({"kind": "brownian", "T": 0.0}, "horizon T must be positive"),
            ({"kind": "custom", "cov_grid": np.array([1.0])}, "custom driver needs cov_grid and cov_matrix"),
            (
                {"kind": "custom", "cov_grid": np.array([]), "cov_matrix": np.zeros((0, 0))},
                "cov_grid must be a nonempty 1-d array",
            ),
            (
                {"kind": "custom", "cov_grid": np.array([0.5, 1.5]), "cov_matrix": np.eye(2)},
                r"cov_grid must be strictly increasing inside \(0, T\]",
            ),
            (
                {"kind": "custom", "cov_grid": np.array([0.5, 1.0]), "cov_matrix": np.eye(3)},
                "cov_matrix shape does not match cov_grid",
            ),
            (
                {"kind": "custom", "cov_grid": np.array([0.5, 1.0]), "cov_matrix": np.array([[0.5, 0.5], [0.4, 1.0]])},
                "cov_matrix must be symmetric",
            ),
        ],
    )
    def test_driver_spec_refusals(self, kwargs, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            GaussianDriverSpec(**kwargs)

    def test_ragged_custom_row(self):
        with pytest.raises(ValueError, match=r"^covariance table row 1 must have 2 entries$"):
            GaussianDriverSpec.custom(np.array([0.5, 1.0]), [[0.5], [0.5]], T=1.0)

    @pytest.mark.parametrize(
        "grid_t, grid_V, message",
        [
            ([0.0, 1.0], [0.0, 0.5, 1.0], "clock needs matching 1-d grids with at least two nodes"),
            ([0.0], [0.0], "clock needs matching 1-d grids with at least two nodes"),
            ([0.1, 1.0], [0.0, 1.0], "clock grids must start at 0"),
            ([0.0, 0.6, 0.5], [0.0, 0.5, 1.0], "time grid must be strictly increasing"),
        ],
    )
    def test_clock_grid_refusals(self, grid_t, grid_V, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            VarianceClock(grid_t=np.array(grid_t), grid_V=np.array(grid_V))

    def test_too_few_nodes_and_paths(self):
        spec = GaussianDriverSpec.brownian(1.0)
        with pytest.raises(ValueError, match="^n_nodes must be at least 2$"):
            build_clock(spec, 1)
        with pytest.raises(ValueError, match="^n_paths must be positive$"):
            sample_paths(spec, np.array([0.0, 1.0]), 0, seed=1)

    def test_out_of_range_names_the_first_value(self):
        # the first value outside the span, as a plain number
        clock = build_clock(GaussianDriverSpec.brownian(1.0), 9)
        spec = GaussianDriverSpec.brownian(1.0)
        custom = GaussianDriverSpec.custom(np.array([0.5, 1.0]), [[0.5], [0.5, 1.0]], T=1.0)
        cases = [
            (lambda: clock.value(1.5), "time 1.5 outside [0, 1.0]"),
            (lambda: clock.value(np.array([0.5, -0.25, 2.0])), "time -0.25 outside [0, 1.0]"),
            (lambda: clock.invert(2.0), "variance value 2.0 outside [0, 1.0]"),
            (lambda: covariance(spec, np.array([0.5]), np.array([1.5])), "time 1.5 outside [0, 1.0]"),
            (lambda: covariance(spec, -0.5, 0.5), "time -0.5 outside [0, 1.0]"),
            (lambda: covariance(custom, 0.3, 0.5), "time 0.3 is not a node of the custom covariance grid"),
        ]
        for call, message in cases:
            with pytest.raises(OutOfRange) as info:
                call()
            assert str(info.value) == message
