import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from gaussbsde import solver
from gaussbsde.drivers import GaussianDriverSpec, VarianceClock, build_clock
from gaussbsde.errors import (
    DegenerateInterval,
    NonFiniteSolution,
    OutOfRange,
    PicardDivergence,
    RegressionIllConditioned,
)
from gaussbsde.pack import (
    constant_generator_scenario,
    contraction_mean_field_scenario,
    identity_scenario,
    linear_scenario,
    mean_field_scenario,
    shift_generator,
    shift_terminal,
)
from gaussbsde.scenario import GeneratorSpec, ScenarioSpec, TerminalSpec
from gaussbsde.solver import (
    SolverConfig,
    _fit,
    _gram,
    representation_solve,
    representation_solve_stack,
    solve_auxiliary,
    solve_auxiliary_stack,
    transfer_evaluate,
)

BROWNIAN = GaussianDriverSpec.brownian(1.0)


def normal_equations_oracle(x, y, degree):
    """Independent dense least-squares solve on the raw Vandermonde matrix."""
    phi = np.vander(x, degree + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(phi, y, rcond=None)
    return coef


def regress(degree, x, y):
    """The solver's least-squares fit on the raw monomial basis, no ridge,
    given as the solver's (degree+1, n) basis block."""
    phi = npoly.polyvander(x, degree).T
    return _fit(phi, _gram(phi, 0.0), y)


class TestRegressConditional:
    def test_affine_data_interpolated(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        beta = regress(3, x, 2 * x + 1)
        np.testing.assert_allclose(beta, [1.0, 2.0, 0.0, 0.0], atol=1e-10)

    def test_independent_targets_give_mean(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=5000)
        y = rng.normal(loc=3.0, size=5000)
        beta = regress(2, x, y)
        assert beta[0] == pytest.approx(np.mean(y), abs=0.1)
        assert abs(beta[1]) < 0.1 and abs(beta[2]) < 0.1

    def test_quadratic_against_dense_solver(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=300)
        beta = regress(2, x, x ** 2)
        np.testing.assert_allclose(beta, [0.0, 0.0, 1.0], atol=1e-10)
        np.testing.assert_allclose(beta, normal_equations_oracle(x, x ** 2, 2), atol=1e-10)

    def test_ill_conditioned(self):
        # degree 14 on N(0,1) states: Gram condition of order 1e16, over the 1e12 limit
        cfg = SolverConfig(n_time=4, n_particles=2000, basis_degree=14)
        with pytest.raises(RegressionIllConditioned):
            solve_auxiliary(identity_scenario(BROWNIAN), build_clock(BROWNIAN, 5), cfg, seed=3)


class TestSolveOracles:
    def test_identity_scenario(self):
        # closed form: u(s, w) = w, v = 1
        scn = identity_scenario(BROWNIAN)
        clock = build_clock(BROWNIAN, 33)
        cfg = SolverConfig(n_time=32, n_particles=8000)
        field, cloud = solve_auxiliary(scn, clock, cfg, seed=21)
        for t in (0.25, 0.5, 1.0):
            for x in (-1.0, 0.0, 0.8):
                y_val, z_val = transfer_evaluate(field, t, x)
                assert y_val == pytest.approx(x, abs=0.02 * (1 + abs(x)))
                assert z_val == pytest.approx(1.0, abs=0.02)

    def test_constant_terminal(self):
        scn = ScenarioSpec(terminal=TerminalSpec(a=3.0), generator=GeneratorSpec(), driver=BROWNIAN)
        clock = build_clock(BROWNIAN, 17)
        field, cloud = solve_auxiliary(scn, clock, SolverConfig(n_time=16, n_particles=4000), seed=2)
        y, z = field.on_paths(cloud.w)
        assert np.allclose(y, 3.0, atol=1e-8)
        assert np.max(np.abs(z)) < 1e-8

    def test_linear_generator_coefficients(self):
        # u(s, w) = exp(beta (V_T - s)) w, checked via the raw linear coefficient
        beta = 0.5
        scn = linear_scenario(BROWNIAN, beta)
        clock = build_clock(BROWNIAN, 33)
        field, _ = solve_auxiliary(scn, clock, SolverConfig(n_time=32, n_particles=40000), seed=9)
        for i in range(1, field.n_steps + 1):
            target = math.exp(beta * (clock.V_T - field.grid_s[i]))
            raw_linear = field.u_coeffs[i][1] / field.scales[i]
            assert raw_linear == pytest.approx(target, rel=0.02)
        y_val, _ = transfer_evaluate(field, 0.0, 0.0)
        assert abs(y_val) < 0.02

    def test_mean_field_oracle(self):
        # particle mean of Y at clock time s is exp(alpha (V_T - s))
        scn = mean_field_scenario(BROWNIAN, alpha=0.3, c=1.0)
        clock = build_clock(BROWNIAN, 33)
        cfg = SolverConfig(n_time=32, n_particles=20000, picard_tol=1e-3)
        field, cloud = solve_auxiliary(scn, clock, cfg, seed=14)
        assert field.n_iterations <= 10
        assert field.convergence[-1] < 1e-3
        y, _ = field.on_paths(cloud.w)
        for i in range(field.n_steps + 1):
            target = math.exp(0.3 * (clock.V_T - field.grid_s[i]))
            mean = float(np.mean(y[:, i]))
            se = float(np.std(y[:, i]) / math.sqrt(cloud.n_particles))
            assert abs(mean - target) <= 3 * se + 0.3 / cfg.n_time

    def test_martingale_residual(self):
        # f = 0: mean(Y_i - Y_{i+1} + Z_i dW_i) vanishes within 3 MC standard
        # errors; the mean equals the sample covariance of Z and dW, so its
        # scale is set by std(Z dW), not by the (coefficient-correlated)
        # pointwise residuals
        scn = identity_scenario(BROWNIAN)
        clock = build_clock(BROWNIAN, 17)
        field, cloud = solve_auxiliary(scn, clock, SolverConfig(n_time=16, n_particles=20000), seed=4)
        dw = np.diff(cloud.w, axis=1)
        y, z = field.on_paths(cloud.w)
        for i in range(field.n_steps):
            resid = y[:, i] - y[:, i + 1] + z[:, i] * dw[:, i]
            se = np.std(z[:, i] * dw[:, i]) / math.sqrt(cloud.n_particles)
            assert abs(np.mean(resid)) <= 3 * se + 1e-12

    def test_terminal_reproduced(self):
        scn = ScenarioSpec(
            terminal=TerminalSpec(b=2.0, phi="sin", c=1.0), generator=GeneratorSpec(), driver=BROWNIAN
        )
        clock = build_clock(BROWNIAN, 17)
        field, cloud = solve_auxiliary(scn, clock, SolverConfig(n_time=16, n_particles=8000), seed=6)
        w = cloud.w[:, -1]
        central = np.abs(w) <= 2.33 * np.std(w)
        fitted = field.eval_u(field.n_steps, w[central])
        exact = 2 * w[central] + np.sin(w[central])
        # degree-4 weighted-L2 fit of the sin part truncates its Hermite tail:
        # RMS ~ 0.04, edge error under 0.15 on the central support
        assert np.sqrt(np.mean((fitted - exact) ** 2)) < 0.06
        assert np.max(np.abs(fitted - exact)) < 0.15
        y_val, _ = transfer_evaluate(field, 1.0, 0.5)
        assert y_val == pytest.approx(2 * 0.5 + math.sin(0.5), abs=0.05)

    def test_deterministic_given_seed(self):
        scn = mean_field_scenario(BROWNIAN)
        clock = build_clock(BROWNIAN, 9)
        cfg = SolverConfig(n_time=8, n_particles=2000)
        f1, c1 = solve_auxiliary(scn, clock, cfg, seed=33)
        f2, c2 = solve_auxiliary(scn, clock, cfg, seed=33)
        assert np.array_equal(f1.u_coeffs, f2.u_coeffs)
        assert np.array_equal(f1.v_coeffs, f2.v_coeffs)
        assert np.array_equal(f1.on_paths(c1.w)[0], f2.on_paths(c2.w)[0])

    def test_pinned_mean_field_values(self):
        # values of the particle-major solver this layout replaced; the
        # arithmetic is reordered, so they agree to rounding, not bit for bit
        field, _ = solve_auxiliary(
            mean_field_scenario(BROWNIAN), build_clock(BROWNIAN, 17), SolverConfig(n_time=16, n_particles=2000), seed=1
        )
        np.testing.assert_allclose(field.u_coeffs[0], [1.3536704649730054, 0.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-10)
        np.testing.assert_allclose(field.v_coeffs[0], [1.0007854656014852, 0.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            field.convergence, [0.04781249998489034, 0.0053789062482689776, 0.0004790588377339145], rtol=0, atol=1e-10
        )

    def test_picard_divergence(self):
        scn = mean_field_scenario(BROWNIAN, alpha=3.0)
        clock = build_clock(BROWNIAN, 33)
        cfg = SolverConfig(n_time=32, n_particles=2000, picard_max_iter=3, picard_tol=1e-12)
        with pytest.raises(PicardDivergence):
            solve_auxiliary(scn, clock, cfg, seed=1)

    def test_non_finite_solution(self):
        # terminal and generator at the edge of float64: the sums of the fits overflow
        scn = ScenarioSpec(terminal=TerminalSpec(a=1e308), generator=GeneratorSpec(c0=1e308), driver=BROWNIAN)
        clock = build_clock(BROWNIAN, 9)
        cfg = SolverConfig(n_time=8, n_particles=2000)
        with pytest.raises(NonFiniteSolution):
            solve_auxiliary(scn, clock, cfg, seed=1)
        with pytest.raises(NonFiniteSolution):
            representation_solve(scn, clock, 0.25, 0.1, 1e308, 0.0, cfg, seed=1)
        # a law-dependent scenario stops on its means, and they overflow too
        law = ScenarioSpec(terminal=TerminalSpec(a=1e308), generator=GeneratorSpec(kappa_y=0.3), driver=BROWNIAN)
        with pytest.raises(NonFiniteSolution):
            solve_auxiliary(law, clock, cfg, seed=1)

    def test_affine_law_test_builds_no_particle_row(self, monkeypatch):
        # the Picard stop of an affine law-dependent solve reads the node
        # means the sweep already holds: no Y row is evaluated at the particles
        calls = []
        polyval = solver._polyval
        monkeypatch.setattr(solver, "_polyval", lambda *args: calls.append(1) or polyval(*args))
        clock = build_clock(BROWNIAN, 17)
        field, _ = solve_auxiliary(mean_field_scenario(BROWNIAN), clock, SolverConfig(n_time=16, n_particles=2000), seed=5)
        assert field.n_iterations >= 2
        assert calls == []

    def test_one_normal_matrix_per_node(self, monkeypatch):
        # the moments of each node are built once per solve and serve every sweep
        built = []
        node_moments = solver._node_moments

        def counting_moments(phi, *args):
            built.append(phi.shape)
            return node_moments(phi, *args)

        monkeypatch.setattr(solver, "_node_moments", counting_moments)
        clock = build_clock(BROWNIAN, 17)
        cfg = SolverConfig(n_time=16, n_particles=2000)
        field, _ = solve_auxiliary(mean_field_scenario(BROWNIAN), clock, cfg, seed=5)
        assert field.n_iterations >= 2
        assert len(built) == field.n_steps + 1
        # a stack of two scenarios shares the normal matrices of its one draw
        built.clear()
        scn = mean_field_scenario(BROWNIAN)
        (field, _), _ = solve_auxiliary_stack([scn, shift_terminal(scn, 1.0)], clock, cfg, seed=5)
        assert field.n_iterations >= 2
        assert len(built) == field.n_steps + 1

    def test_step_stability_guard(self):
        scn = linear_scenario(BROWNIAN, beta=5.0)  # L_f = 5, max step 1/4
        clock = build_clock(BROWNIAN, 5)
        with pytest.raises(ValueError, match="max step"):
            solve_auxiliary(scn, clock, SolverConfig(n_time=4, n_particles=2000), seed=1)


def _pairs():
    mf = mean_field_scenario(BROWNIAN)
    # nonlinear pairs: a stack adds each nonlinearity to the rows that carry it
    tanh = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(c2=-0.5, phi="tanh", c4=0.8, kappa_y=0.2), BROWNIAN)
    sin_rho = ScenarioSpec(
        TerminalSpec(a=0.5, b=1.0, phi="sin", c=0.3),
        GeneratorSpec(c0=0.2, c3=0.3, phi="sin", c4=0.5, rho_breaks=(0.5,), rho_values=(1.0, 2.0)),
        BROWNIAN,
    )
    clip = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(c1=0.4, phi="clip", c4=0.6), BROWNIAN)
    return {
        "mean_field_terminal_shift": (mf, shift_terminal(mf, 1.0)),
        "mean_field_generator_shift": (mf, shift_generator(mf, 0.1)),
        "linear_constant": (linear_scenario(BROWNIAN, 0.5), constant_generator_scenario(BROWNIAN, 2.0)),
        "law_free_and_mean_field": (identity_scenario(BROWNIAN), mf),
        "tanh_and_sin_with_rho_table": (tanh, sin_rho),
        "clip_and_linear": (clip, linear_scenario(BROWNIAN, 0.5)),
    }


class TestStackedSolves:
    """A stack of scenarios on one draw gives each scenario its own solve."""

    @pytest.mark.parametrize("pair", sorted(_pairs()))
    def test_stack_equals_separate_solves(self, pair):
        scns = _pairs()[pair]
        clock = build_clock(BROWNIAN, 17)
        cfg = SolverConfig(n_time=16, n_particles=2000)
        stacked = solve_auxiliary_stack(scns, clock, cfg, seed=11)
        for scn, (field, cloud) in zip(scns, stacked):
            alone, alone_cloud = solve_auxiliary(scn, clock, cfg, seed=11)
            assert field.n_iterations == alone.n_iterations
            assert len(field.convergence) == len(alone.convergence)
            np.testing.assert_allclose(field.convergence, alone.convergence, rtol=0, atol=1e-11)
            np.testing.assert_allclose(field.u_coeffs, alone.u_coeffs, rtol=0, atol=1e-11)
            np.testing.assert_allclose(field.v_coeffs, alone.v_coeffs, rtol=0, atol=1e-11)
            for stacked_rows, alone_rows in zip(field.on_paths(cloud.w), alone.on_paths(alone_cloud.w)):
                np.testing.assert_allclose(stacked_rows, alone_rows, rtol=0, atol=1e-11)
            assert np.array_equal(cloud.w, alone_cloud.w)

    @pytest.mark.parametrize("pair", sorted(_pairs()))
    def test_representation_stack_equals_separate_solves(self, pair):
        scns = _pairs()[pair]
        clock = build_clock(BROWNIAN, 33)
        cfg = SolverConfig(n_time=8, n_particles=2000)
        stacked = representation_solve_stack(scns, clock, 0.25, 0.1, 1.0, 0.5, cfg, seed=3)
        for scn, rep in zip(scns, stacked):
            alone = representation_solve(scn, clock, 0.25, 0.1, 1.0, 0.5, cfg, seed=3)
            assert rep.n_iterations == alone.n_iterations
            for name in ("value", "std_error", "particle_sigma"):
                assert getattr(rep, name) == pytest.approx(getattr(alone, name), rel=0, abs=1e-11)
            assert rep.n_particles == alone.n_particles

    def test_non_contiguous_active_rows(self, monkeypatch):
        # the law-free middle scenario stops first, so the later sweeps run
        # on rows [0, 2] of the coefficient arrays
        acts = []
        backward_pass = solver._backward_pass

        def recording_pass(gens, act, *args):
            acts.append(act.tolist())
            backward_pass(gens, act, *args)

        monkeypatch.setattr(solver, "_backward_pass", recording_pass)
        mf = mean_field_scenario(BROWNIAN)
        scns = (mf, identity_scenario(BROWNIAN), shift_terminal(mf, 1.0))
        clock = build_clock(BROWNIAN, 17)
        cfg = SolverConfig(n_time=16, n_particles=2000)
        stacked = solve_auxiliary_stack(scns, clock, cfg, seed=11)
        assert acts[:2] == [[0, 1, 2], [0, 2]]
        for scn, (field, cloud) in zip(scns, stacked):
            alone, alone_cloud = solve_auxiliary(scn, clock, cfg, seed=11)
            assert field.n_iterations == alone.n_iterations
            np.testing.assert_allclose(field.u_coeffs, alone.u_coeffs, rtol=0, atol=1e-11)
            np.testing.assert_allclose(field.v_coeffs, alone.v_coeffs, rtol=0, atol=1e-11)
            for stacked_rows, alone_rows in zip(field.on_paths(cloud.w), alone.on_paths(alone_cloud.w)):
                np.testing.assert_allclose(stacked_rows, alone_rows, rtol=0, atol=1e-11)

    def test_stopped_scenario_rows_freeze(self, monkeypatch):
        # a law-free scenario stops after its first sweep; the mean-field
        # scenario of the same stack sweeps on without touching its
        # coefficient arrays
        snapshots = []
        backward_pass = solver._backward_pass

        def recording_pass(gens, act, *args):
            backward_pass(gens, act, *args)
            out = args[-1]
            arrays = (out.u, out.v, out.yc, out.xc, out.beta, out.step0, out.mean_y, out.mean_z)
            snapshots.append((act.tolist(), *(a[0].copy() for a in arrays)))

        monkeypatch.setattr(solver, "_backward_pass", recording_pass)
        clock = build_clock(BROWNIAN, 17)
        cfg = SolverConfig(n_time=16, n_particles=2000)
        (free, _), (mf, _) = solve_auxiliary_stack(
            [identity_scenario(BROWNIAN), mean_field_scenario(BROWNIAN)], clock, cfg, seed=5
        )
        assert (free.n_iterations, free.convergence) == (1, (0.0,))
        assert mf.n_iterations == len(snapshots) == 4
        assert snapshots[0][0] == [0, 1]
        first = snapshots[0][1:]
        for act, *rows in snapshots[1:]:
            assert act == [1]
            for before, after in zip(first, rows):
                assert np.array_equal(before, after)


def test_on_paths_is_per_node_polyval():
    # one Horner pass over every node makes the multiply-adds of polyval
    scn = ScenarioSpec(TerminalSpec(b=2.0, phi="sin", c=1.0), GeneratorSpec(c2=0.3, kappa_y=0.2), BROWNIAN)
    field, cloud = solve_auxiliary(scn, build_clock(BROWNIAN, 17), SolverConfig(n_time=16, n_particles=2000), seed=6)
    y, z = field.on_paths(cloud.w)
    assert np.array_equal(y, np.column_stack([field.eval_u(i, cloud.w[:, i]) for i in range(field.n_steps + 1)]))
    assert np.array_equal(z, np.column_stack([field.eval_v(i, cloud.w[:, i]) for i in range(field.n_steps)]))


def test_paths_running_sum_is_cumsum():
    dw = np.random.default_rng(12).normal(size=(24, 500))
    w = solver._paths(dw)
    assert np.array_equal(w[0], np.zeros(500))
    assert np.array_equal(w[1:], np.cumsum(dw, axis=0))


class TestTransferEvaluate:
    def test_terminal_time(self):
        scn = identity_scenario(BROWNIAN)
        clock = build_clock(BROWNIAN, 17)
        field, _ = solve_auxiliary(scn, clock, SolverConfig(n_time=16, n_particles=4000), seed=8)
        y_val, z_val = transfer_evaluate(field, 1.0, 0.7)
        assert y_val == pytest.approx(0.7, abs=0.02)
        assert z_val == pytest.approx(1.0, abs=0.05)

    def test_out_of_range(self):
        scn = identity_scenario(BROWNIAN)
        clock = build_clock(BROWNIAN, 9)
        field, _ = solve_auxiliary(scn, clock, SolverConfig(n_time=8, n_particles=2000), seed=8)
        with pytest.raises(OutOfRange):
            transfer_evaluate(field, 1.5, 0.0)

    def test_blend_between_nodes(self):
        scn = constant_generator_scenario(BROWNIAN, 2.0)
        clock = build_clock(BROWNIAN, 9)
        field, _ = solve_auxiliary(scn, clock, SolverConfig(n_time=8, n_particles=4000), seed=8)
        # Y(t, x) = x + 2 (V_T - V_t), linear in V_t, so blending is exact
        y_val, _ = transfer_evaluate(field, 0.4375, 0.3)  # halfway between nodes
        assert y_val == pytest.approx(0.3 + 2 * (1 - 0.4375), abs=0.02)


class TestRepresentationSolve:
    def test_zero_generator_exact(self):
        scn = identity_scenario(BROWNIAN)
        clock = build_clock(BROWNIAN, 33)
        rep = representation_solve(scn, clock, 0.25, 0.1, 1.0, 0.5, SolverConfig(n_time=8, n_particles=2000), seed=3)
        assert rep.value == pytest.approx(1.0, abs=1e-9)

    def test_constant_generator_exact(self):
        scn = constant_generator_scenario(BROWNIAN, 2.0)
        clock = build_clock(BROWNIAN, 33)
        rep = representation_solve(scn, clock, 0.25, 0.1, 1.0, 0.5, SolverConfig(n_time=8, n_particles=2000), seed=3)
        assert rep.value == pytest.approx(1.0 + 2.0 * 0.1, abs=1e-9)

    def test_determinism_statistic(self):
        scn = contraction_mean_field_scenario(BROWNIAN)
        clock = build_clock(BROWNIAN, 33)
        cfg = SolverConfig(n_time=16, n_particles=16000)
        rep = representation_solve(scn, clock, 0.25, 0.1, 1.0, 0.5, cfg, seed=19)
        assert rep.particle_sigma <= 3 * rep.std_error

    def test_degenerate_interval(self):
        grid_t = np.array([0.0, 0.25, 0.5, 1.0])
        grid_v = np.array([0.0, 0.25, 0.5, 1.0])
        clock = VarianceClock(grid_t=grid_t, grid_V=grid_v)
        scn = identity_scenario(BROWNIAN)
        with pytest.raises(DegenerateInterval):
            representation_solve(scn, clock, 0.5, 1e-16, 0.0, 0.0, SolverConfig(n_time=4, n_particles=2000), seed=1)

    def test_interval_bounds(self):
        scn = identity_scenario(BROWNIAN)
        clock = build_clock(BROWNIAN, 9)
        with pytest.raises(ValueError):
            representation_solve(scn, clock, 0.9, 0.5, 0.0, 0.0, SolverConfig(n_time=4, n_particles=2000), seed=1)


class TestClockEquivariance:
    def test_fbm_vs_transferred_brownian(self):
        # same auxiliary problem on the same clock grid: identical fields
        fbm = GaussianDriverSpec.fbm(0.25, 1.0)
        clock_f = build_clock(fbm, 17)
        cfg = SolverConfig(n_time=16, n_particles=3000)
        scn_f = linear_scenario(fbm, 0.5)
        field_f, _ = solve_auxiliary(scn_f, clock_f, cfg, seed=77)

        brownian = GaussianDriverSpec.brownian(clock_f.V_T)
        clock_b = VarianceClock(grid_t=clock_f.grid_V.copy(), grid_V=clock_f.grid_V.copy())
        field_b, _ = solve_auxiliary(linear_scenario(brownian, 0.5), clock_b, cfg, seed=77)

        np.testing.assert_allclose(field_f.u_coeffs, field_b.u_coeffs, atol=1e-12)
        np.testing.assert_allclose(field_f.v_coeffs, field_b.v_coeffs, atol=1e-12)


class TestSolverConfigValidation:
    def test_particle_minimum(self):
        with pytest.raises(ValueError):
            SolverConfig(n_particles=30, basis_degree=4)

    def test_tolerances(self):
        with pytest.raises(ValueError):
            SolverConfig(picard_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(ridge=-1.0)
