import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from gaussbsde import drivers, solver
from gaussbsde.drivers import GaussianDriverSpec, VarianceClock, build_clock
from gaussbsde.errors import (
    DegenerateInterval,
    NonFiniteSolution,
    OutOfRange,
    RegressionIllConditioned,
    StepTooCoarse,
    UnsupportedScenario,
)
from gaussbsde.pack import (
    constant_generator_scenario,
    identity_scenario,
    linear_scenario,
    mean_field_scenario,
    shift_generator,
    shift_terminal,
)
from gaussbsde.rng import standard_normals
from gaussbsde.scenario import GeneratorSpec, ScenarioSpec, TerminalSpec
from gaussbsde.solver import (
    SolverConfig,
    _fit,
    _regularized,
    representation_solve,
    representation_solve_stack,
    short_horizon_table,
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
    return _fit(phi, _regularized(phi @ phi.T, 0.0)[0], y)


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

    def test_condition_guard_refuses_nan_and_singular_grams(self):
        # the condition is the ratio of the extreme eigenvalues: a matrix with
        # a non-finite entry or no positive smallest eigenvalue has none
        good = np.diag([1.0, 2.0, 4.0])
        nan, inf = good.copy(), good.copy()
        nan[1, 1], inf[0, 2] = np.nan, np.inf
        singular = np.ones((3, 3))
        for bad in (nan, inf, singular, np.stack([good, nan, good]), np.stack([singular, good])):
            with pytest.raises(RegressionIllConditioned):
                _regularized(bad, 0.0)
        _, cond = _regularized(np.stack([good, 2.0 * good]), 0.0)
        assert np.array_equal(cond, [4.0, 4.0])
        # a stack of Gram matrices: the SVD's condition numbers to rounding
        phi = np.random.default_rng(4).normal(size=(6, 5, 200)) ** np.arange(5)[:, None]
        gram, cond = _regularized(phi @ phi.swapaxes(1, 2), 1e-8)
        np.testing.assert_allclose(cond, np.linalg.cond(gram), rtol=1e-12)


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
            target = math.exp(beta * (clock.V_T - clock.grid_V[i]))
            raw_linear = field.u_coeffs[i][1] / field.scales[i]
            assert raw_linear == pytest.approx(target, rel=0.02)
        y_val, _ = transfer_evaluate(field, 0.0, 0.0)
        assert abs(y_val) < 0.02

    @pytest.mark.parametrize("driver", [BROWNIAN, GaussianDriverSpec.fbm(0.3, 1.0)], ids=["brownian", "fbm"])
    def test_odd_affine_solves_are_odd_exactly(self, driver):
        # on antithetic paths every odd moment is 0, so an odd g with an
        # affine f that keeps it odd gives an odd Y and an even Z, with no
        # rounding left: Y_0 is 0.0
        for scn in (identity_scenario(driver), linear_scenario(driver, 0.5)):
            field, _ = solve_auxiliary(scn, build_clock(driver, 17), SolverConfig(n_time=16, n_particles=2000), seed=1)
            assert field.u_coeffs[0, 0] == 0.0
            assert not field.u_coeffs[:, ::2].any() and not field.v_coeffs[:, 1::2].any()

    def test_mean_field_oracle(self):
        # particle mean of Y at clock time s is exp(alpha (V_T - s))
        scn = mean_field_scenario(BROWNIAN, alpha=0.3, c=1.0)
        clock = build_clock(BROWNIAN, 33)
        cfg = SolverConfig(n_time=32, n_particles=20000)
        field, cloud = solve_auxiliary(scn, clock, cfg, seed=14)
        y, _ = field.on_paths(cloud.w)
        for i in range(field.n_steps + 1):
            target = math.exp(0.3 * (clock.V_T - clock.grid_V[i]))
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
        fitted, _ = transfer_evaluate(field, 1.0, w[central])
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
        # values of the Picard iteration on the flow of laws run until the
        # node means change by less than 1e-13, the fixed point the one sweep
        # solves for; the arithmetic differs, so they agree to rounding
        field, _ = solve_auxiliary(
            mean_field_scenario(BROWNIAN), build_clock(BROWNIAN, 17), SolverConfig(n_time=16, n_particles=2000), seed=1
        )
        np.testing.assert_allclose(field.u_coeffs[0], [1.3537088990820756, 0.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(field.v_coeffs[0], [0.9969958133305403, 0.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-12)

    def test_strong_law_coupling_in_one_sweep(self):
        # f = 3 E[Y]: each node's mean Y is the next node's over 1 - 3 ds,
        # which the sweep solves for exactly; a Picard iteration on the flow
        # of laws closes the gap by a factor of about 0.4 a sweep here
        scn = mean_field_scenario(BROWNIAN, alpha=3.0)
        clock = build_clock(BROWNIAN, 33)
        field, cloud = solve_auxiliary(scn, clock, SolverConfig(n_time=32, n_particles=2000), seed=1)
        mean_g = float(np.mean(1.0 + cloud.w[:, -1]))
        factors = np.cumprod(1.0 / (1.0 - 3.0 * np.diff(clock.grid_V))[::-1])[::-1]
        y, _ = field.on_paths(cloud.w)
        np.testing.assert_allclose(y[:, :-1].mean(axis=0), mean_g * factors, rtol=1e-9, atol=0)

    def test_non_finite_solution(self):
        # terminal and generator at the edge of float64: the sums of the fits overflow
        scn = ScenarioSpec(terminal=TerminalSpec(a=1e308), generator=GeneratorSpec(c0=1e308), driver=BROWNIAN)
        clock = build_clock(BROWNIAN, 9)
        cfg = SolverConfig(n_time=8, n_particles=2000)
        with pytest.raises(NonFiniteSolution):
            solve_auxiliary(scn, clock, cfg, seed=1)
        # a short-horizon solve of an affine stack sums no particles: its
        # value 1e308 + 0.1 c0 is finite (to the ridge's share, ridge / n a
        # node), and one past the float range raises
        rep = representation_solve(scn, clock, 0.25, 0.1, 1e308, 0.0, cfg, seed=1)
        assert rep.value == pytest.approx(1.1e308, rel=1e-10)
        with pytest.raises(NonFiniteSolution):
            representation_solve(scn, clock, 0.25, 0.1, 1.7e308, 0.0, cfg, seed=1)
        # a law-dependent scenario's node means overflow too: Y_0 is about
        # 1.5e308 (1 - 0.3 / 8)^-8, past the float range
        law = ScenarioSpec(terminal=TerminalSpec(a=1.5e308), generator=GeneratorSpec(kappa_y=0.3), driver=BROWNIAN)
        with pytest.raises(NonFiniteSolution):
            solve_auxiliary(law, clock, cfg, seed=1)

    @pytest.mark.parametrize("a", [1e305, 1e308])
    def test_terminal_near_the_float_range(self, a):
        # the sums of the terminal rows over the particles would pass the
        # float range; each row is scaled by a power of two before it is
        # summed, so a solve whose values are finite returns them
        scn = ScenarioSpec(terminal=TerminalSpec(a=a), generator=GeneratorSpec(), driver=BROWNIAN)
        clock = build_clock(BROWNIAN, 9)
        field, _ = solve_auxiliary(scn, clock, SolverConfig(n_time=8, n_particles=2000), seed=1)
        assert np.isfinite(field.u_coeffs).all() and np.isfinite(field.v_coeffs).all()
        assert field.u_coeffs[0, 0] == pytest.approx(a, rel=1e-10)

    def test_affine_law_test_builds_no_particle_row(self, monkeypatch):
        # an affine law-dependent solve reads each node's law off the
        # coefficients the sweep already holds: no Y row is evaluated at the
        # particles
        calls = []
        polyval = solver._polyval
        monkeypatch.setattr(solver, "_polyval", lambda *args: calls.append(1) or polyval(*args))
        clock = build_clock(BROWNIAN, 17)
        solve_auxiliary(mean_field_scenario(BROWNIAN), clock, SolverConfig(n_time=16, n_particles=2000), seed=5)
        assert calls == []

    def test_one_normal_matrix_per_node(self, monkeypatch):
        # the moments of every node are built once per solve
        built = []
        moments = solver._moments

        def counting_moments(*args):
            mom = moments(*args)
            built.append(len(mom.fits))
            return mom

        monkeypatch.setattr(solver, "_moments", counting_moments)
        clock = build_clock(BROWNIAN, 17)
        cfg = SolverConfig(n_time=16, n_particles=2000)
        field, _ = solve_auxiliary(mean_field_scenario(BROWNIAN), clock, cfg, seed=5)
        assert built == [field.n_steps + 1]
        # a stack of two scenarios shares the normal matrices of its one draw
        built.clear()
        scn = mean_field_scenario(BROWNIAN)
        [[field, _]], _ = solve_auxiliary_stack([scn, shift_terminal(scn, 1.0)], [clock], cfg, seed=5)
        assert built == [field.n_steps + 1]

    def test_step_stability_guard(self):
        scn = linear_scenario(BROWNIAN, beta=5.0)  # L_f = 5, max step 1/4
        clock = build_clock(BROWNIAN, 5)
        with pytest.raises(ValueError, match="max step"):
            solve_auxiliary(scn, clock, SolverConfig(n_time=4, n_particles=2000), seed=1)
        # a representation solve has its own grid: on [V_0.25, V_0.75] in 2
        # steps of 1/4, L_f = 40 would return 81 against the exact e^-20
        decay = ScenarioSpec(TerminalSpec(), GeneratorSpec(c2=-40.0), BROWNIAN)
        with pytest.raises(ValueError, match="max step"):
            representation_solve(decay, clock, 0.25, 0.5, 1.0, 0.5, SolverConfig(n_time=2, n_particles=2000), seed=1)

    def test_law_divisor_guard(self):
        # the step guard's error is named, and solve reports its margin
        clock = build_clock(BROWNIAN, 5)
        cfg = SolverConfig(n_time=4, n_particles=2000)
        with pytest.raises(StepTooCoarse, match="max step"):
            solve_auxiliary(linear_scenario(BROWNIAN, beta=5.0), clock, cfg, seed=1)
        field, _ = solve_auxiliary(mean_field_scenario(BROWNIAN, alpha=0.3), clock, cfg, seed=1)
        assert field.step_lipschitz == 0.25 * 0.3
        # _solve_on_grid skips that guard, and refuses a node whose own mean
        # Y would weigh ds * rho * kappa_y >= 1 in its Y row: its law has no
        # solution there
        grid_s = np.linspace(0.0, 1.0, 3)  # ds = 0.5

        def solve(gen):
            rows = standard_normals(1, (2, cfg.n_particles // 2), "guard")[::-1]
            return solver._solve_on_grid([gen], lambda w_end: [1.0 + w_end], grid_s, grid_s, cfg, rows)

        with pytest.raises(StepTooCoarse, match="kappa_y"):
            solve(GeneratorSpec(kappa_y=2.0))
        # rho = 3 from t = 0.5 on: only the second node is refused
        with pytest.raises(StepTooCoarse, match="kappa_y"):
            solve(GeneratorSpec(kappa_y=1.0, rho_breaks=(0.5,), rho_values=(1.0, 3.0)))
        _, out = solve(GeneratorSpec(kappa_y=1.0, rho_breaks=(0.5,), rho_values=(1.0, 1.9)))
        assert np.isfinite(out.mean_y).all()
        _, out = solve(GeneratorSpec(kappa_y=-4.0))  # a negative weight leaves the divisor above 1
        assert np.isfinite(out.mean_y).all()


def _pairs():
    mf = mean_field_scenario(BROWNIAN)
    # nonlinear pairs: each scenario's remainder rows come from its own
    # nonlinearity and time factor
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


def _state_free(scns):
    """The scenarios with c1 = 0: a representation solve refuses any other."""
    return [replace(scn, generator=replace(scn.generator, c1=0.0)) for scn in scns]


def _drawn_table(cfg, seed):
    """The short-horizon table of a draw, whatever stack reads it: the table
    ``short_horizon_table`` builds for a nonlinear generator."""
    return short_horizon_table(cfg, seed, [GeneratorSpec(phi="tanh", c4=0.8)])


class TestStackedSolves:
    """A stack of scenarios on one draw gives each scenario its own solve."""

    @pytest.mark.parametrize("pair", sorted(_pairs()))
    def test_stack_equals_separate_solves(self, pair):
        scns = _pairs()[pair]
        clock = build_clock(BROWNIAN, 17)
        cfg = SolverConfig(n_time=16, n_particles=2000)
        [stacked], cloud = solve_auxiliary_stack(scns, [clock], cfg, seed=11)
        for scn, field in zip(scns, stacked):
            alone, alone_cloud = solve_auxiliary(scn, clock, cfg, seed=11)
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
        draw = short_horizon_table(cfg, 3, [scn.generator for scn in scns])
        if any(scn.generator.c1 != 0.0 for scn in scns):
            with pytest.raises(UnsupportedScenario):
                representation_solve_stack([(scn, 1.0, 0.5) for scn in scns], clock, 0.25, 0.1, draw)
            scns = _state_free(scns)
        stacked = representation_solve_stack([(scn, 1.0, 0.5) for scn in scns], clock, 0.25, 0.1, draw)
        for scn, rep in zip(scns, stacked):
            # alone on the stack's table: an affine row stacked with a
            # nonlinear one reads the stack's draw, not its own exact table
            [alone] = representation_solve_stack([(scn, 1.0, 0.5)], clock, 0.25, 0.1, draw)
            for name in ("value", "std_error"):
                assert getattr(rep, name) == pytest.approx(getattr(alone, name), rel=0, abs=1e-11)
            assert rep.n_particles == alone.n_particles

    def test_one_sweep_per_stack(self, monkeypatch):
        # a stack runs one backward sweep for all its scenarios, law-free
        # and law-dependent alike, and each keeps the fields of its own solve
        passes = []
        backward_pass = solver._backward_pass

        def recording_pass(gens, mom):
            passes.append(len(gens))
            return backward_pass(gens, mom)

        monkeypatch.setattr(solver, "_backward_pass", recording_pass)
        mf = mean_field_scenario(BROWNIAN)
        scns = (mf, identity_scenario(BROWNIAN), shift_terminal(mf, 1.0))
        clock = build_clock(BROWNIAN, 17)
        cfg = SolverConfig(n_time=16, n_particles=2000)
        [stacked], cloud = solve_auxiliary_stack(scns, [clock], cfg, seed=11)
        assert passes == [3]
        for scn, field in zip(scns, stacked):
            alone, alone_cloud = solve_auxiliary(scn, clock, cfg, seed=11)
            np.testing.assert_allclose(field.u_coeffs, alone.u_coeffs, rtol=0, atol=1e-11)
            np.testing.assert_allclose(field.v_coeffs, alone.v_coeffs, rtol=0, atol=1e-11)
            for stacked_rows, alone_rows in zip(field.on_paths(cloud.w), alone.on_paths(alone_cloud.w)):
                np.testing.assert_allclose(stacked_rows, alone_rows, rtol=0, atol=1e-11)
        assert passes == [3, 1, 1, 1]


class TestSharedDraw:
    """The solves of a short-horizon check read its one moment table,
    whatever their sub-grids, and leave it as it is."""

    def test_sub_grids_read_the_draw_unchanged(self):
        # sub-grid a, then b, then a again: a's values bit for bit, and the
        # table's arrays as they were built
        clock = build_clock(BROWNIAN, 65)
        cfg = SolverConfig(n_time=8, n_particles=2000)
        tanh = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(c2=-0.5, phi="tanh", c4=0.8, kappa_y=0.2), BROWNIAN)
        starts = [(mean_field_scenario(BROWNIAN), 1.0, 0.5), (tanh, -0.5, 0.2)]
        table = short_horizon_table(cfg, 9, [scn.generator for scn, _, _ in starts])
        names = ("w", "state_scales", "terminal", "grams", "fits", "sums", "dw_sums")
        built = {name: getattr(table, name).copy() for name in names}
        first = representation_solve_stack(starts, clock, 0.25, 0.2, table)
        representation_solve_stack(starts, clock, 0.5, 0.05, table)
        assert representation_solve_stack(starts, clock, 0.25, 0.2, table) == first
        for name in names:
            assert np.array_equal(getattr(table, name), built[name])

    def test_a_solve_alone_draws_its_own(self, monkeypatch):
        # a nonlinear generator's solve draws its own table; an affine one's
        # table is exact, and draws nothing
        draws = []
        draw = solver.standard_normals
        monkeypatch.setattr(solver, "standard_normals", lambda *args: draws.append(args) or draw(*args))
        cfg = SolverConfig(n_time=8, n_particles=2000)
        clock = build_clock(BROWNIAN, 33)
        tanh = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(c2=-0.5, phi="tanh", c4=0.8, kappa_y=0.2), BROWNIAN)
        for scn, drawn in ((tanh, [((8, 1000), ["repr-increments"])]), (mean_field_scenario(BROWNIAN), [])):
            draws.clear()
            alone = representation_solve(scn, clock, 0.25, 0.1, 1.0, 0.5, cfg, seed=3)
            assert [(shape, tags) for _, shape, *tags in draws] == drawn
            [stacked] = representation_solve_stack(
                [(scn, 1.0, 0.5)], clock, 0.25, 0.1, short_horizon_table(cfg, 3, [scn.generator])
            )
            assert stacked == alone


class TestRefinedDraw:
    """The grids of a refinement read the first rows of one time-major
    draw of n/2 normals a step: each grid gets the normals a draw of its own
    would give, and reads them in reverse, so a coarse step i of N meets
    step N + i of a refinement of 2N."""

    @pytest.mark.parametrize("n, n_steps", [(8000, 32), (16000, 16), (8000, 100)])
    def test_stream_fills_a_draw_in_c_order(self, n, n_steps):
        # a draw's first values are a smaller draw of the same stream: so the
        # first N rows of a (2N, n) draw are the (N, n) draw of a grid alone
        fine = standard_normals(5, (n, 2 * n_steps), "prefix")
        coarse = standard_normals(5, (n, n_steps), "prefix")
        assert np.array_equal(fine.reshape(-1)[: n * n_steps].reshape(n, n_steps), coarse)

    def test_refined_grids_equal_solves_alone(self):
        mf = mean_field_scenario(BROWNIAN)
        scns = [mf, shift_terminal(mf, 1.0)]
        clocks = [build_clock(BROWNIAN, 17), build_clock(BROWNIAN, 33)]
        cfg = SolverConfig(n_time=16, n_particles=2000)
        refined, cloud = solve_auxiliary_stack(scns, clocks, cfg, seed=11)
        assert len(refined) == 2
        for clock, stacked in zip(clocks, refined):
            [alone], cloud_alone = solve_auxiliary_stack(scns, [clock], cfg, seed=11)
            for field, field_alone in zip(stacked, alone):
                assert field.clock is clock
                for name in ("u_coeffs", "v_coeffs", "scales"):
                    assert np.array_equal(getattr(field, name), getattr(field_alone, name))
                assert field.gram_cond_max == field_alone.gram_cond_max
                assert field.step_lipschitz == field_alone.step_lipschitz
        # the cloud is the last grid's: a refined call keeps no coarse paths
        assert np.array_equal(cloud.w, cloud_alone.w)
        assert cloud.w.shape == (cfg.n_particles, clocks[-1].grid_t.size)

    def test_refined_call_draws_once_and_guards_every_grid(self, monkeypatch):
        draws = []
        draw = solver.standard_normals
        monkeypatch.setattr(solver, "standard_normals", lambda *args: draws.append(args) or draw(*args))
        scns = [linear_scenario(BROWNIAN, beta=3.0), identity_scenario(BROWNIAN)]
        cfg = SolverConfig(n_time=8, n_particles=2000)
        solve_auxiliary_stack(scns, [build_clock(BROWNIAN, 9), build_clock(BROWNIAN, 17)], cfg, seed=1)
        assert [args[1] for args in draws] == [(16, 1000)]
        # L_f = 3: a step of 1/4 fails the guard on either grid, before any draw
        draws.clear()
        uneven = np.concatenate([[0.0], 0.25 + np.linspace(0.0, 0.75, 16)])  # 16 steps, the first 1/4
        for clocks in (
            [build_clock(BROWNIAN, 5), build_clock(BROWNIAN, 9)],
            [build_clock(BROWNIAN, 9), VarianceClock(grid_t=uneven, grid_V=uneven.copy())],
        ):
            with pytest.raises(StepTooCoarse, match="max step"):
                solve_auxiliary_stack(scns, clocks, cfg, seed=1)
        assert draws == []
        # the finest grid reads the whole draw, so it comes last
        clock = build_clock(BROWNIAN, 9)
        for clocks in ([build_clock(BROWNIAN, 17), clock], [clock, clock]):
            with pytest.raises(ValueError, match="increasing step counts"):
                solve_auxiliary_stack(scns, clocks, cfg, seed=1)

    def test_grids_read_the_draw_reversed(self, monkeypatch):
        # each grid's rows are the first N rows of the (2N, n/2) draw in
        # reverse, a view of it that no solve writes, and the cloud is the
        # finest grid's antithetic paths
        draws, seen = [], []
        draw, solve_on_grid = solver.standard_normals, solver._solve_on_grid
        monkeypatch.setattr(solver, "standard_normals", lambda *args: draws.append(draw(*args)) or draws[-1])
        monkeypatch.setattr(solver, "_solve_on_grid", lambda *args: seen.append(args[5]) or solve_on_grid(*args))
        clocks = [build_clock(BROWNIAN, 17), build_clock(BROWNIAN, 33)]
        cfg = SolverConfig(n_time=16, n_particles=2000)
        _, cloud = solve_auxiliary_stack([mean_field_scenario(BROWNIAN)], clocks, cfg, seed=3)
        [normals] = draws
        assert normals.shape == (32, 1000)
        assert np.array_equal(normals, draw(3, (32, 1000), "solver-increments"))  # left as it was drawn
        for rows, n_steps in zip(seen, (16, 32)):
            assert np.shares_memory(rows, normals)
            assert np.array_equal(rows, normals[:n_steps][::-1])
            assert all(row.flags.c_contiguous for row in rows)
        # the coarse grid's step i meets the fine grid's step 16 + i: the
        # same particle's second-half normals
        assert np.array_equal(seen[0], seen[1][16:])
        assert np.array_equal(cloud.w.T, solver._paths(seen[1], clocks[1].grid_V))

    def test_blocked_on_paths_is_the_one_shot_formula(self, monkeypatch):
        scn = ScenarioSpec(TerminalSpec(b=2.0, phi="sin", c=1.0), GeneratorSpec(c2=0.3, kappa_y=0.2), BROWNIAN)
        field, cloud = solve_auxiliary(scn, build_clock(BROWNIAN, 17), SolverConfig(n_time=16, n_particles=2000), seed=6)
        assert cloud.w.flags.f_contiguous  # a view of the solver's time-major paths
        # 2000 particles in blocks of 100 // 17 = 5 (the last full), then 7 (the last holds 5)
        for width in (100, 120):
            monkeypatch.setattr(drivers, "_BLOCK_ELEMENTS", width)
            for x in (cloud.w, np.ascontiguousarray(cloud.w)):
                scaled = x / field.scales
                y, z = field.on_paths(x)
                assert np.array_equal(y, solver._polyval(scaled, field.u_coeffs.T))
                assert np.array_equal(z, solver._polyval(scaled[:, :-1], field.v_coeffs.T))


def _node_field(coeffs, scales, w, i):
    """Row i of a field at the states w, in node i's variable, by numpy's polyval."""
    return npoly.polyval(w / scales[i], coeffs[i])


def test_on_paths_is_per_node_polyval():
    # one Horner pass over every node makes the multiply-adds of polyval
    scn = ScenarioSpec(TerminalSpec(b=2.0, phi="sin", c=1.0), GeneratorSpec(c2=0.3, kappa_y=0.2), BROWNIAN)
    field, cloud = solve_auxiliary(scn, build_clock(BROWNIAN, 17), SolverConfig(n_time=16, n_particles=2000), seed=6)
    y, z = field.on_paths(cloud.w)
    nodes = range(field.n_steps + 1)
    assert np.array_equal(y, np.column_stack([_node_field(field.u_coeffs, field.scales, cloud.w[:, i], i) for i in nodes]))
    assert np.array_equal(z, np.column_stack([_node_field(field.v_coeffs, field.scales, cloud.w[:, i], i) for i in nodes[:-1]]))


@pytest.mark.parametrize("driver", [BROWNIAN, GaussianDriverSpec.fbm(0.3, 1.0)], ids=["brownian", "fbm"])
def test_transfer_evaluate_at_the_nodes_is_on_paths(driver):
    # at a node, the transfer reads the node's own field with no blending:
    # bit for bit the column of on_paths, Z at T being the last cell's field
    scn = ScenarioSpec(TerminalSpec(b=2.0, phi="sin", c=1.0), GeneratorSpec(c2=0.3, kappa_y=0.2), driver)
    clock = build_clock(driver, 17)
    field, cloud = solve_auxiliary(scn, clock, SolverConfig(n_time=16, n_particles=2000), seed=6)
    y, z = field.on_paths(cloud.w)
    for i, t in enumerate(clock.grid_t):
        y_i, z_i = transfer_evaluate(field, float(t), cloud.w[:, i])
        assert np.array_equal(y_i, y[:, i])
        if i < field.n_steps:
            assert np.array_equal(z_i, z[:, i])
        else:
            assert np.array_equal(z_i, _node_field(field.v_coeffs, field.scales, cloud.w[:, i], i - 1))
        # a scalar state gives floats, the same values
        y0, z0 = transfer_evaluate(field, float(t), cloud.w[0, i])
        assert (type(y0), type(z0)) == (float, float)
        assert (y0, z0) == (y_i[0], z_i[0])


def test_paths_running_sum_is_cumsum():
    # the left half is the running sum of the increments, and particle
    # j + 500 is particle j negated
    dw = np.random.default_rng(12).normal(size=(24, 500))
    w = solver._paths(dw, np.arange(25.0))  # unit steps: the rows are the increments
    assert w.shape == (25, 1000)
    assert np.array_equal(w[0], np.zeros(1000))
    assert np.array_equal(w[1:, :500], np.cumsum(dw, axis=0))
    assert np.array_equal(w[:, 500:], -w[:, :500])


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
        for t in (1.5, -0.5):
            with pytest.raises(OutOfRange):
                transfer_evaluate(field, t, 0.0)

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

    def test_drawn_std_error_is_over_antithetic_pairs(self, monkeypatch):
        # on a drawn table the n/2 pairs are the independent samples: the
        # standard error is the standard deviation of the candidates' pair
        # means over sqrt(n/2)
        rows = []
        candidates = solver._candidates
        monkeypatch.setattr(solver, "_candidates", lambda *args: rows.append(candidates(*args)) or rows[-1])
        tanh = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(c2=-0.5, phi="tanh", c4=0.8, kappa_y=0.2), BROWNIAN)
        cfg = SolverConfig(n_time=8, n_particles=2000)
        rep = representation_solve(tanh, build_clock(BROWNIAN, 33), 0.25, 0.1, 1.0, 0.5, cfg, seed=3)
        [[row]] = rows
        pairs = (row[:1000] + row[1000:]) / 2.0
        assert rep.std_error == float(np.std(pairs) / math.sqrt(1000))

    def test_refuses_state_dependent_generator(self):
        # the time-t value is deterministic only when f does not read the state
        scn = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(c1=0.4), BROWNIAN)
        clock = build_clock(BROWNIAN, 33)
        with pytest.raises(UnsupportedScenario, match="c1 = 0"):
            representation_solve(scn, clock, 0.25, 0.1, 1.0, 0.5, SolverConfig(n_time=8, n_particles=2000), seed=3)

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

    def test_odd_particle_count(self):
        # the solver draws antithetic pairs
        with pytest.raises(ValueError, match="n_particles must be even"):
            SolverConfig(n_particles=2001)

    def test_negative_basis_degree(self):
        # a degree-0 basis cannot hold the generator's state, and its Z is 0
        for degree in (-1, 0):
            with pytest.raises(ValueError, match="basis_degree must be at least 1"):
                SolverConfig(basis_degree=degree)
