import math

import numpy as np
from numpy.polynomial import polynomial as npoly
import pytest

from gaussbsde.config import parse_config_payload
from gaussbsde.drivers import GaussianDriverSpec, build_clock, covariance, sample_paths
from gaussbsde.errors import DegenerateIncrement, GridMismatch
from gaussbsde.experiments import _default_h_functions, run_single
from gaussbsde.pack import identity_scenario, linear_scenario
from gaussbsde.scenario import GeneratorSpec, ScenarioSpec, TerminalSpec
from gaussbsde.solver import SolverConfig, solve_auxiliary
from gaussbsde.wick import (
    FirstChaosIntegrand,
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
        integrand = FirstChaosIntegrand.from_rows(clock.grid_t, rows)
        out = riemann_wick_integral(integrand, paths)
        np.testing.assert_allclose(out, paths.samples[:, -1], atol=1e-12)

    def test_linear_integrand_brownian_moments(self):
        # sums approximate (X_T^2 - V_T)/2: mean 0 (3 sigma), variance V_T^2/2 (5%)
        clock, paths = make_paths(BROWNIAN, 128, 100_000, seed=4)
        rows = np.tile(np.array([0.0, 1.0]), (128, 1))
        integrand = FirstChaosIntegrand.from_rows(clock.grid_t, rows)
        out = riemann_wick_integral(integrand, paths)
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
        integrand = FirstChaosIntegrand.from_rows(clock.grid_t, rows)
        out = riemann_wick_integral(integrand, paths)
        x = paths.samples
        forward = np.sum(x[:, :-1] * np.diff(x, axis=1), axis=1)
        np.testing.assert_allclose(out, forward, atol=1e-12)

    def test_constant_integrand_grid_invariance(self):
        coarse_clock, coarse = make_paths(BROWNIAN, 16, 400, seed=6)
        fine_clock, fine = make_paths(BROWNIAN, 32, 400, seed=6)
        for clock, paths, n in ((coarse_clock, coarse, 16), (fine_clock, fine, 32)):
            rows = np.tile(np.array([1.0, 0.0]), (n, 1))
            out = riemann_wick_integral(FirstChaosIntegrand.from_rows(clock.grid_t, rows), paths)
            np.testing.assert_allclose(out, paths.samples[:, -1], atol=1e-12)

    @pytest.mark.parametrize("spec", [BROWNIAN, FBM07], ids=["brownian", "fbm"])
    def test_matches_per_cell_reference_loop(self, spec):
        # reference: p(X_i) dX_i - p'(X_i) E[X_i dX_i] cell by cell, with the
        # correction from scalar kernel calls
        clock, paths = make_paths(spec, 16, 500, seed=19)
        rows = np.random.default_rng(20).normal(size=(16, 4))
        out = riemann_wick_integral(FirstChaosIntegrand.from_rows(clock.grid_t, rows), paths)
        grid, x = paths.grid_t, paths.samples
        reference = np.zeros(paths.n_paths)
        for i in range(16):
            correction = covariance(spec, grid[i], grid[i + 1]) - covariance(spec, grid[i], grid[i])
            dx = x[:, i + 1] - x[:, i]
            reference += npoly.polyval(x[:, i], rows[i]) * dx - npoly.polyval(x[:, i], npoly.polyder(rows[i])) * correction
        np.testing.assert_allclose(out, reference, rtol=0, atol=1e-12)

    def test_grid_mismatch(self):
        clock, paths = make_paths(BROWNIAN, 16, 100, seed=7)
        other = build_clock(BROWNIAN, 9)
        rows = np.tile(np.array([1.0, 0.0]), (8, 1))
        integrand = FirstChaosIntegrand.from_rows(other.grid_t, rows)
        with pytest.raises(GridMismatch):
            riemann_wick_integral(integrand, paths)


class TestSTransform:
    def test_normalization(self):
        _, paths = make_paths(FBM07, 32, 50_000, seed=8)
        weights = wick_exponential_weights(full_h(), paths)
        res = s_transform_mc(np.ones(paths.n_paths), weights)
        assert abs(res.value - 1.0) <= 3 * res.std_error
        with pytest.raises(ValueError, match="paired"):
            s_transform_mc(np.ones(paths.n_paths - 1), weights)

    def test_driver_transform_matches_clock_integral(self):
        # Brownian driver: (S X_t)(h) = int_0^t hdot dV
        clock, paths = make_paths(BROWNIAN, 32, 100_000, seed=9)
        for h in (full_h(), StepFunctionH(edges=np.array([0.0, 0.5, 1.0]), values=np.array([2.0, -1.0]))):
            weights = wick_exponential_weights(h, paths)
            for node in (16, 32):
                res = s_transform_mc(paths.samples[:, node], weights)
                expected = h.value(float(clock.grid_t[node]), clock)
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


class TestIntegrandConversion:
    def test_field_conversion_matches_eval(self):
        scn = linear_scenario(BROWNIAN, 0.5)
        clock = build_clock(BROWNIAN, 17)
        field, cloud = solve_auxiliary(scn, clock, SolverConfig(n_time=16, n_particles=4000), seed=18)
        integrand = FirstChaosIntegrand.from_field(field)
        _, z = field.on_paths(cloud.w[:100])
        for i in (1, 8, 15):
            x = cloud.w[:100, i]
            np.testing.assert_allclose(npoly.polyval(x, integrand.coeffs[i]), z[:, i], atol=1e-10)


def test_path_increments_taken_once_per_batch(monkeypatch):
    # the weights, the Riemann-Wick cells and the factorization check read
    # one increments array, the one np.diff gives
    clock, paths = make_paths(FBM07, 8, 500, seed=4)
    expected = np.diff(paths.samples, axis=1)
    diffs = []
    diff = np.diff
    monkeypatch.setattr(np, "diff", lambda a, *args, **kwargs: diffs.append(np.shape(a)) or diff(a, *args, **kwargs))
    weights = [wick_exponential_weights(h, paths) for h in _default_h_functions(1.0)]
    riemann_wick_integral(FirstChaosIntegrand.from_rows(clock.grid_t, np.tile([0.0, 1.0], (8, 1))), paths)
    s_transform_factorization_check([0.0, 0.0, 1.0], 4, weights[0], paths)
    assert diffs.count(paths.samples.shape) == 1
    assert np.array_equal(paths.increments, expected)


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
    h_list = _default_h_functions(1.5)
    rows = measurements["s_transform_of_driver"]
    assert len(rows) == 2 * len(h_list)
    for row in rows:
        assert row["expected"] == h_list[row["h"]].value(row["t"], clock)
        assert math.isfinite(row["value"]) and row["std_error"] > 0
    assert {row["t"] for row in rows} == {float(clock.grid_t[8]), float(clock.grid_t[16])}
    quadratic = measurements["quadratic_identity"]
    assert quadratic["variance_target"] == clock.V_T ** 2 / 2.0
    for key in ("variance", "mean_gap", "gap_std_error"):
        assert math.isfinite(quadratic[key])
    assert quadratic["gap_std_error"] > 0
