import math
import tracemalloc
from dataclasses import replace

import numpy as np
from numpy.polynomial import polynomial as npoly
import pytest

from gaussbsde import drivers
from gaussbsde.config import parse_config_payload
from gaussbsde.drivers import GaussianDriverSpec, build_clock, covariance, sample_paths
from gaussbsde.errors import DegenerateIncrement, GridMismatch
from gaussbsde.experiments import _default_h_functions, run_single
from gaussbsde.pack import identity_scenario, linear_scenario
from gaussbsde.scenario import GeneratorSpec, ScenarioSpec, TerminalSpec
from gaussbsde.solver import SolverConfig, solve_auxiliary
from gaussbsde.wick import (
    StepFunctionH,
    bsde_residual,
    riemann_wick_integral,
    s_transform_factorization_check,
    s_transform_mc,
    wick_exponential_weights,
    wick_product_first_chaos,
)

BROWNIAN = GaussianDriverSpec.brownian(1.0)
FBM07 = GaussianDriverSpec.fbm(0.7, 1.0)


def make_paths(spec, n_time, n_paths, seed):
    clock = build_clock(spec, n_time + 1)
    return clock, sample_paths(spec, clock.grid_t, n_paths, seed)


def full_h(T=1.0):
    return StepFunctionH(edges=np.array([0.0, T]), values=np.array([1.0]))


class TestWickProduct:
    def test_constant_factor_is_plain_product(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100)
        dx = rng.normal(size=100)
        out = wick_product_first_chaos(np.array([1.0]), x, dx, correction=0.2)
        np.testing.assert_allclose(out, dx)

    def test_brownian_linear_no_correction(self):
        # independent increments: E[X_t dX] = 0, so the product is plain
        clock, paths = make_paths(BROWNIAN, 16, 1000, seed=1)
        i = 8
        x = paths.samples[:, i]
        dx = paths.samples[:, i + 1] - paths.samples[:, i]
        correction = covariance(BROWNIAN, clock.grid_t[i], clock.grid_t[i + 1]) - covariance(
            BROWNIAN, clock.grid_t[i], clock.grid_t[i]
        )
        assert correction == pytest.approx(0.0, abs=1e-14)
        out = wick_product_first_chaos(np.array([0.0, 1.0]), x, dx, correction)
        np.testing.assert_allclose(out, x * dx)

    def test_fbm_linear_centered(self):
        clock, paths = make_paths(FBM07, 16, 100_000, seed=2)
        i = 8
        t_i, t_next = clock.grid_t[i], clock.grid_t[i + 1]
        x = paths.samples[:, i]
        dx = paths.samples[:, i + 1] - x
        out = wick_product_first_chaos(
            np.array([0.0, 1.0]), x, dx, covariance(FBM07, t_i, t_next) - covariance(FBM07, t_i, t_i)
        )
        se = np.std(out) / math.sqrt(out.size)
        assert abs(np.mean(out)) <= 3 * se

    def test_degenerate_increment(self):
        with pytest.raises(DegenerateIncrement):
            wick_product_first_chaos(np.array([1.0]), np.ones(10), np.ones(10), 0.0)

    def test_tiny_increments_are_not_degenerate(self):
        # a covariance of 5e-324: the two samples differ, though their sample
        # variance underflows to 0
        spec = GaussianDriverSpec.custom(np.array([1.0]), [[5e-324]], 1.0)
        paths = sample_paths(spec, np.array([0.0, 1.0]), 2, seed=0)
        increments = np.diff(paths.samples, axis=1)
        assert np.var(increments) == 0.0 and np.ptp(increments) > 0.0
        assert np.all(np.isfinite(riemann_wick_integral([[0.0, 1.0]], paths)))

    def test_all_cells_at_once_match_each_cell(self):
        # one row of coefficients and one correction per column
        rng = np.random.default_rng(3)
        x, dx = rng.normal(size=(2, 50, 4))
        coeffs = rng.normal(size=(4, 3))
        corrections = rng.normal(size=4)
        out = wick_product_first_chaos(coeffs, x, dx, corrections)
        for i in range(4):
            np.testing.assert_array_equal(
                out[:, i], wick_product_first_chaos(coeffs[i], x[:, i], dx[:, i], corrections[i])
            )


class TestRiemannWick:
    def test_constant_integrand_telescopes(self):
        clock, paths = make_paths(FBM07, 16, 500, seed=3)
        rows = np.tile(np.array([1.0, 0.0]), (16, 1))
        out = riemann_wick_integral(rows, paths)
        np.testing.assert_allclose(out, paths.samples[:, -1], atol=1e-12)

    def test_linear_integrand_brownian_moments(self):
        # sums approximate (X_T^2 - V_T)/2: mean 0 (3 sigma), variance V_T^2/2 (5%)
        clock, paths = make_paths(BROWNIAN, 128, 100_000, seed=4)
        rows = np.tile(np.array([0.0, 1.0]), (128, 1))
        out = riemann_wick_integral(rows, paths)
        se = np.std(out) / math.sqrt(out.size)
        assert abs(np.mean(out)) <= 3 * se
        assert np.var(out) == pytest.approx(0.5, rel=0.05)
        closed_form = 0.5 * (paths.samples[:, -1] ** 2 - 1.0)
        gap = out - closed_form
        gap_se = np.std(gap) / math.sqrt(out.size)
        assert abs(np.mean(gap)) <= 3 * gap_se

    def test_brownian_matches_forward_ito_sum(self):
        # zero correction term: pathwise equality with the forward sum
        clock, paths = make_paths(BROWNIAN, 32, 2000, seed=5)
        rows = np.tile(np.array([0.0, 1.0]), (32, 1))
        out = riemann_wick_integral(rows, paths)
        x = paths.samples
        forward = np.sum(x[:, :-1] * np.diff(x, axis=1), axis=1)
        np.testing.assert_allclose(out, forward, atol=1e-12)

    def test_constant_integrand_grid_invariance(self):
        coarse_clock, coarse = make_paths(BROWNIAN, 16, 400, seed=6)
        fine_clock, fine = make_paths(BROWNIAN, 32, 400, seed=6)
        for clock, paths, n in ((coarse_clock, coarse, 16), (fine_clock, fine, 32)):
            rows = np.tile(np.array([1.0, 0.0]), (n, 1))
            out = riemann_wick_integral(rows, paths)
            np.testing.assert_allclose(out, paths.samples[:, -1], atol=1e-12)

    @pytest.mark.parametrize("spec", [BROWNIAN, FBM07], ids=["brownian", "fbm"])
    def test_matches_per_cell_reference_loop(self, spec):
        # reference: p(X_i) dX_i - p'(X_i) E[X_i dX_i] cell by cell, with the
        # correction from scalar kernel calls
        clock, paths = make_paths(spec, 16, 500, seed=19)
        rows = np.random.default_rng(20).normal(size=(16, 4))
        out = riemann_wick_integral(rows, paths)
        grid, x = paths.grid_t, paths.samples
        reference = np.zeros(paths.n_paths)
        for i in range(16):
            correction = covariance(spec, grid[i], grid[i + 1]) - covariance(spec, grid[i], grid[i])
            dx = x[:, i + 1] - x[:, i]
            reference += npoly.polyval(x[:, i], rows[i]) * dx - npoly.polyval(x[:, i], npoly.polyder(rows[i])) * correction
        np.testing.assert_allclose(out, reference, rtol=0, atol=1e-12)

    def test_grid_mismatch(self):
        # 8 rows on a 16-cell batch: an integrand of another grid
        clock, paths = make_paths(BROWNIAN, 16, 100, seed=7)
        rows = np.tile(np.array([1.0, 0.0]), (8, 1))
        with pytest.raises(GridMismatch, match="one coefficient row per cell"):
            riemann_wick_integral(rows, paths)


class TestSTransform:
    def test_normalization(self):
        _, paths = make_paths(FBM07, 32, 50_000, seed=8)
        weights = wick_exponential_weights(full_h(), paths)
        res = s_transform_mc(np.ones(paths.n_paths), weights)
        assert abs(res.value - 1.0) <= 3 * res.std_error
        with pytest.raises(ValueError, match="paired"):
            s_transform_mc(np.ones(paths.n_paths - 1), weights)

    def test_driver_transform_matches_clock_integral(self):
        # Brownian driver: (S X_t)(h) = Cov(X_t, I_h), which is int_0^t hdot dV
        # when h's edges are grid nodes, as here
        clock, paths = make_paths(BROWNIAN, 32, 100_000, seed=9)
        grid = clock.grid_t
        two_step = StepFunctionH(edges=np.array([0.0, 0.5, 1.0]), values=np.array([2.0, -1.0]))
        for h, integral in ((full_h(), lambda t: t), (two_step, lambda t: min(2 * t, 1.5 - t))):
            weights = wick_exponential_weights(h, paths)
            for node in (16, 32):
                res = s_transform_mc(paths.samples[:, node], weights)
                expected = h.hdot(grid[:-1]) @ np.diff(covariance(BROWNIAN, grid[node], grid))
                assert expected == pytest.approx(integral(grid[node]), abs=1e-15)
                assert abs(res.value - expected) <= 3 * res.std_error

    def test_factorization_all_degrees(self):
        _, paths = make_paths(FBM07, 32, 100_000, seed=10)
        h_list = [
            full_h(),
            StepFunctionH(edges=np.array([0.0, 0.5, 1.0]), values=np.array([1.0, -1.0])),
            StepFunctionH(edges=np.array([0.0, 1 / 3, 2 / 3, 1.0]), values=np.array([0.5, 1.5, -0.5])),
        ]
        weights = [wick_exponential_weights(h, paths) for h in h_list]
        for degree in range(5):
            poly = np.zeros(degree + 1)
            poly[degree] = 1.0
            for h_weights in weights:
                chk = s_transform_factorization_check(poly, 16, h_weights, paths)
                assert chk.within <= 3.0, (degree, chk)

    def test_factorization_fails_without_correction(self):
        # plain product instead of the Wick product: factorization must break
        _, paths = make_paths(FBM07, 32, 100_000, seed=11)
        h = full_h()
        i = 16
        x_i = paths.samples[:, i]
        dx_i = paths.samples[:, i + 1] - x_i
        weights = wick_exponential_weights(h, paths)
        a = (x_i * dx_i) * weights  # no correction term
        b = x_i * weights
        c = dx_i * weights
        gap = np.mean(a) - np.mean(b) * np.mean(c)
        se = np.std(a - np.mean(c) * b - np.mean(b) * c) / math.sqrt(a.size)
        assert abs(gap) > 3 * se


class TestBsdeResidual:
    def test_paths_off_the_field_clock_refused(self):
        # the residual reads the field's own clock; paths on another grid are refused
        scn = identity_scenario(BROWNIAN)
        field, _ = solve_auxiliary(scn, build_clock(BROWNIAN, 9), SolverConfig(n_time=8, n_particles=200), seed=12)
        _, paths = make_paths(BROWNIAN, 16, 100, seed=13)
        with pytest.raises(GridMismatch):
            bsde_residual(field, scn, paths)

    def test_identity_scenario_zero_residual(self):
        scn = identity_scenario(BROWNIAN)
        clock = build_clock(BROWNIAN, 17)
        field, _ = solve_auxiliary(scn, clock, SolverConfig(n_time=16, n_particles=4000), seed=12)
        paths = sample_paths(BROWNIAN, clock.grid_t, 2000, seed=13)
        stats = bsde_residual(field, scn, paths)
        assert np.max(stats.rms) < 0.01

    def test_linear_scenario_rms_decreases_with_refinement(self):
        scn_base = linear_scenario(BROWNIAN, 0.5)
        rms_at_0 = []
        for n_time in (32, 64, 128):
            clock = build_clock(BROWNIAN, n_time + 1)
            field, _ = solve_auxiliary(
                scn_base, clock, SolverConfig(n_time=n_time, n_particles=20000), seed=14
            )
            paths = sample_paths(BROWNIAN, clock.grid_t, 20000, seed=15)
            stats = bsde_residual(field, scn_base, paths)
            rms_at_0.append(float(stats.rms[0]))
        assert rms_at_0[1] <= rms_at_0[0] + 2 * 1e-3
        assert rms_at_0[2] <= rms_at_0[1] + 2 * 1e-3

    def test_fbm_nonlinear_terminal_centered_at_origin(self):
        scn = ScenarioSpec(
            terminal=TerminalSpec(b=2.0, phi="sin", c=1.0),
            generator=GeneratorSpec(),
            driver=FBM07,
        )
        clock = build_clock(FBM07, 33)
        field, _ = solve_auxiliary(scn, clock, SolverConfig(n_time=32, n_particles=20000), seed=16)
        paths = sample_paths(FBM07, clock.grid_t, 50_000, seed=17)
        stats = bsde_residual(field, scn, paths)
        assert abs(stats.mean[0]) <= 3 * stats.mean_std_error[0] + 5e-3

    def test_rms_pinned(self):
        # a law-dependent nonlinear scenario on fBm, pinned to the values of a
        # cell-by-cell evaluation of every term, on the solution of a Picard
        # iteration on the flow of laws run to a change of 1e-13 in the node
        # means: the fixed point the one sweep solves for
        scn = ScenarioSpec(
            terminal=TerminalSpec(a=0.5, b=1.0, phi="sin", c=0.5, lambda_mean=0.2),
            generator=GeneratorSpec(c0=0.1, c1=0.2, c2=0.3, c3=0.1, phi="tanh", c4=0.2, kappa_y=0.2),
            driver=FBM07,
        )
        clock = build_clock(FBM07, 9)
        field, _ = solve_auxiliary(scn, clock, SolverConfig(n_time=8, n_particles=2000), seed=41)
        stats = bsde_residual(field, scn, sample_paths(FBM07, clock.grid_t, 1000, seed=42))
        np.testing.assert_allclose(
            stats.rms,
            [0.12571318536686082, 0.11996033789029437, 0.11254627866677146, 0.10167207734174723,
             0.09151701974018779, 0.08266091129962633, 0.07025442898894209, 0.0603761070398459,
             0.05070286083500537],
            rtol=0, atol=1e-12,
        )


class TestBlockedSums:
    """The per-path sums run one block of paths at a time; with blocks of a
    few paths (the last one partial) they give the one-shot formulas."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # 17 values a path: blocks of 120 // 17 = 7 paths, 500 = 71 * 7 + 3
        monkeypatch.setattr(drivers, "_BLOCK_ELEMENTS", 120)

    @pytest.mark.parametrize("spec", [BROWNIAN, FBM07], ids=["brownian", "fbm"])
    def test_riemann_wick_sum_is_the_one_shot_formula(self, spec):
        clock, paths = make_paths(spec, 16, 500, seed=21)
        x = paths.samples
        corrections = covariance(spec, clock.grid_t[:-1], clock.grid_t[1:]) - covariance(
            spec, clock.grid_t[:-1], clock.grid_t[:-1]
        )
        for rows in (np.random.default_rng(22).normal(size=(16, 4)), np.tile([1.0], (16, 1))):
            one_shot = wick_product_first_chaos(rows, x[:, :-1], np.diff(x, axis=1), corrections).sum(axis=1)
            assert np.array_equal(riemann_wick_integral(rows, paths), one_shot)

    def test_weights_are_the_one_shot_formula(self):
        # I_h is a matrix-vector product on each block: OpenBLAS may sum a
        # short block's rows in another order than the whole array's, so the
        # weights agree to rounding, not bit for bit
        clock, paths = make_paths(FBM07, 16, 500, seed=23)
        grid = clock.grid_t
        cov = covariance(FBM07, grid[:, None], grid[None, :])
        cell_cov = cov[1:, 1:] - cov[1:, :-1] - cov[:-1, 1:] + cov[:-1, :-1]
        for h in _default_h_functions(1.0):
            hdot = h.hdot(grid[:-1])
            one_shot = np.exp(np.diff(paths.samples, axis=1) @ hdot - 0.5 * hdot @ cell_cov @ hdot)
            np.testing.assert_allclose(wick_exponential_weights(h, paths), one_shot, rtol=1e-14, atol=0)

    def test_constant_cell_across_blocks_is_degenerate(self):
        # cell 2's increment is 0 on every path: each block sees a constant
        # cell, but only the whole column makes it degenerate
        _, paths = make_paths(BROWNIAN, 16, 500, seed=24)
        samples = paths.samples.copy()
        samples[:, 3] = samples[:, 2]
        degenerate = replace(paths, samples=samples)
        with pytest.raises(DegenerateIncrement):
            riemann_wick_integral(np.tile([0.0, 1.0], (16, 1)), degenerate)
        # a last block of one path has every cell constant, and is not degenerate
        one_left = replace(paths, samples=paths.samples[: 7 * 71 + 1])
        assert np.isfinite(riemann_wick_integral(np.tile([0.0, 1.0], (16, 1)), one_left)).all()


def test_path_sums_keep_no_full_size_array():
    # the weights, the Riemann-Wick sum and the factorization check read
    # the paths in blocks: none of them holds an (n, N) array, 5.1 MB here
    _, paths = make_paths(FBM07, 32, 20000, seed=4)
    full = paths.samples[:, 1:].nbytes
    h_list = _default_h_functions(1.0)
    tracemalloc.start()
    try:
        peaks = []
        for run in (
            lambda: wick_exponential_weights(h_list[2], paths),
            lambda: riemann_wick_integral(np.random.default_rng(5).normal(size=(32, 5)), paths),
            lambda: s_transform_factorization_check([0.0, 0.0, 1.0], 16, np.ones(paths.n_paths), paths),
        ):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert max(peaks) < full / 2, peaks


def test_wick_validate_on_a_brownian_driver(tmp_path):
    # the sections a Brownian driver adds: the S-transform of the driver
    # against h's integral, and the quadratic identity's variance V_T^2 / 2.
    # Their verdicts are Monte Carlo gates and are not asserted here
    tree = {
        "kind": "wick_validate", "seed": 5, "driver": {"kind": "brownian", "T": 1.5},
        "params": {"n_time": 16, "n_paths": 4000},
    }
    cfg = parse_config_payload(tree)
    measurements = run_single(cfg, tmp_path).report.measurements
    clock = build_clock(cfg.driver, 17)
    grid = clock.grid_t
    h_list = _default_h_functions(1.5)
    rows = measurements["s_transform_of_driver"]
    assert len(rows) == 2 * len(h_list)
    for row in rows:
        # Cov(X_t, I_h) of the I_h the weights form on the paths' grid
        assert row["expected"] == h_list[row["h"]].hdot(grid[:-1]) @ np.diff(covariance(cfg.driver, row["t"], grid))
        assert math.isfinite(row["value"]) and row["std_error"] > 0
    assert {row["t"] for row in rows} == {float(clock.grid_t[8]), float(clock.grid_t[16])}
    quadratic = measurements["quadratic_identity"]
    assert quadratic["variance_target"] == clock.V_T ** 2 / 2.0
    for key in ("variance", "mean_gap", "gap_std_error"):
        assert math.isfinite(quadratic[key])
    assert quadratic["gap_std_error"] > 0


def test_wick_validate_oracle_is_the_weights_covariance(tmp_path):
    # h 2 has edges T/3 and 2T/3, off the 64-step grid: its weights see
    # hdot 0.5 on the 22 cells left of 1/3 and 1.5 on the next 10 before
    # t = 0.5, so S(X_t) = (22 * 0.5 + 10 * 1.5) / 64 = 26 / 64, not the
    # nominal int_0^t hdot dV = 5 / 12
    tree = {
        "kind": "wick_validate", "seed": 5, "driver": {"kind": "brownian", "T": 1.0},
        "params": {"n_time": 64, "n_paths": 200},
    }
    rows = run_single(parse_config_payload(tree), tmp_path).report.measurements["s_transform_of_driver"]
    (row,) = [row for row in rows if row["h"] == 2 and row["t"] == 0.5]
    assert row["expected"] == 0.40625


class TestErrorBranches:
    @pytest.mark.parametrize(
        "edges, values, message",
        [
            ([0.0, 1.0], [1.0, 2.0], r"need n\+1 edges for n density values"),
            ([0.0], [], r"need n\+1 edges for n density values"),
            ([0.5, 1.0], [1.0], "edges must start at 0 and increase strictly"),
            ([0.0, 0.6, 0.5], [1.0, 2.0], "edges must start at 0 and increase strictly"),
        ],
    )
    def test_step_function_edges(self, edges, values, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            StepFunctionH(edges=np.array(edges), values=np.array(values))

    def test_unpaired_wick_product(self):
        with pytest.raises(ValueError, match="^x_samples and increment_samples must be paired$"):
            wick_product_first_chaos([0.0, 1.0], np.zeros(4), np.ones(5), 0.0)

    @pytest.mark.parametrize("cell", [-1, 8])
    def test_factorization_cell_outside_the_grid(self, cell):
        _, paths = make_paths(BROWNIAN, 8, 100, seed=12)
        weights = wick_exponential_weights(full_h(), paths)
        with pytest.raises(ValueError, match="^cell_index outside the grid$"):
            s_transform_factorization_check([0.0, 1.0], cell, weights, paths)
