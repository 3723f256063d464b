"""The moment-form backward sweep against a particle-space Picard oracle.

``particle_picard`` is the Picard iteration on the flow of laws run on
particle arrays: every sweep freezes the law at the previous sweep's node
means, every node fits its targets on the basis block of that node's
particles, and Y and Z are (K, N+1, n) matrices.  Run until the node means
of Y and Z change by less than 1e-13, it reaches the fixed point that the solver's one
sweep, on per-node moment matrices, solves for node by node; both must give
the same coefficients, means and representation values to rounding.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaussbsde import solver
from gaussbsde.drivers import GaussianDriverSpec, build_clock
from gaussbsde.errors import UnsupportedScenario
from gaussbsde.measures import LawFeatures
from gaussbsde.pack import identity_scenario, linear_scenario, mean_field_scenario, shift_generator, shift_terminal
from gaussbsde.rng import standard_normals
from gaussbsde.scenario import (
    GeneratorSpec,
    ScenarioSpec,
    TerminalSpec,
    eval_generator,
    generator_partials,
    terminal_on_paths,
)
from gaussbsde.solver import SolverConfig, _basis, _basis_scales, _derivative, _fit, _regularized, _rescaled

from test_solver import _drawn_table, _pairs, _state_free

BROWNIAN = GaussianDriverSpec.brownian(1.0)
FBM03 = GaussianDriverSpec.fbm(0.3, 1.0)
FBM07 = GaussianDriverSpec.fbm(0.7, 1.0)
TOL = 1e-12
ORACLE_TOL = 1e-13  # the oracle's stop: the sup change of the node means of Y and Z
ORACLE_MAX_SWEEPS = 200


def oracle_basis(w, scales, i, degree):
    """The oracle's basis block at node i: the first node's state is 0, so
    it keeps the constant alone there."""
    return _basis(w, scales, i, degree)[: degree + 1 if i > 0 else 1]


def particle_sweep(gens, grid_s, grid_t, w, dw, x_states, terminal_values, features, scales, grams, out):
    """One backward sweep on particle rows with the law frozen at
    ``features``, written into ``out``'s (K, N+1, n) Y and Z matrices.  f and
    its partials are evaluated row by row, each scenario's generator on its
    own row."""
    N = len(grid_s) - 1
    n = w.shape[1]
    degree = out["u"].shape[-1] - 1
    y, z = out["y"], out["z"]
    y[:, N] = terminal_values
    phi = oracle_basis(w, scales, N, degree)
    out["u"][:, N, : phi.shape[0]] = _fit(phi, grams[N], terminal_values)
    for i in range(N - 1, -1, -1):
        ds = grid_s[i + 1] - grid_s[i]
        t_i = float(grid_t[i])
        phi = oracle_basis(w, scales, i, degree)
        width = phi.shape[0]
        target = y[:, i + 1]
        if i + 1 < N:
            cv = (_rescaled(out["v"][:, i + 1, :width], scales[i] / scales[i + 1]) @ phi) * dw[i]
            target = target - (cv - cv.mean(axis=1, keepdims=True))
        beta = _fit(phi, grams[i], target)
        p = beta @ phi
        if i > 0:
            dp = _derivative(beta, scales[i]) @ phi[:-1]
        else:
            if i + 1 < N:
                slope = z[:, i + 1].mean(axis=1, keepdims=True)
            else:
                slope = ((y[:, i + 1] - p) * dw[i]).mean(axis=1, keepdims=True) / ds
            dp = np.repeat(slope, n, axis=1)
        df_dx, df_dy, df_dz = (np.empty_like(p) for _ in range(3))
        for k, gen in enumerate(gens):
            df_dx[k], df_dy[k], df_dz[k] = generator_partials(gen, t_i, x_states[i], p[k], dp[k])
        z_i = dp + ds * (df_dx + (df_dy + df_dz) * dp)
        if i == 0:
            vb = z_i.mean(axis=1, keepdims=True)
            z_i = np.repeat(vb, n, axis=1)
        else:
            vb = _fit(phi, grams[i], z_i)
            z_i = vb @ phi
        out["v"][:, i, :width] = vb
        f_vals = np.empty_like(p)
        for k, gen in enumerate(gens):
            law = LawFeatures(features.mean_x[i], features.mean_y[k, i], features.mean_z[k, i])
            f_vals[k] = eval_generator(gen, t_i, x_states[i], p[k], z_i[k], law)
        y_i = p + f_vals * ds
        y[:, i] = y_i
        z[:, i] = z_i
        out["u"][:, i, :width] = _fit(phi, grams[i], y_i)
        if i == 0:
            out["candidates"] = y[:, 1] + f_vals * ds
    z[:, N] = z[:, N - 1]


def particle_picard(gens, grid_s, grid_t, w, dw, terminal_values, cfg, x_states):
    """The Picard iteration on the flow of laws on particle rows, from the
    law of the f = 0, Z = 0 sweep (mean g and Z = 0 at every node), until the
    node means of Y and Z change by less than ``ORACLE_TOL``: the law's Z
    term can move the means of Y only from the second sweep on."""
    K, N, n = len(gens), len(grid_s) - 1, w.shape[1]
    W = cfg.basis_degree + 1
    scales = _basis_scales(grid_s)
    phis = [oracle_basis(w, scales, i, cfg.basis_degree) for i in range(N + 1)]
    grams = [_regularized(phi @ phi.T, solver._RIDGE)[0] for phi in phis]
    out = {
        "u": np.zeros((K, N + 1, W)), "v": np.zeros((K, N, W)),
        "y": np.empty((K, N + 1, n)), "z": np.empty((K, N + 1, n)),
    }
    feats = LawFeatures(
        mean_x=x_states.mean(axis=1),
        mean_y=np.repeat(terminal_values.mean(axis=1)[:, None], N + 1, axis=1),
        mean_z=np.zeros((K, N + 1)),
    )
    for _ in range(ORACLE_MAX_SWEEPS):
        particle_sweep(gens, grid_s, grid_t, w, dw, x_states, terminal_values, feats, scales, grams, out)
        mean_y, mean_z = out["y"].mean(axis=2), out["z"].mean(axis=2)
        change = max(np.abs(mean_y - feats.mean_y).max(), np.abs(mean_z - feats.mean_z).max())
        feats = LawFeatures(feats.mean_x, mean_y, mean_z)
        if change < ORACLE_TOL:
            return out
    raise AssertionError(f"the oracle's Picard iteration did not reach {ORACLE_TOL} in {ORACLE_MAX_SWEEPS} sweeps")


def increments(rows, grid_s):
    """(N, n) increments of every particle of the antithetic paths of the
    (N, n/2) normals ``rows``: particle j + n/2's are particle j's negated."""
    half = rows * np.sqrt(np.diff(grid_s))[:, None]
    return np.hstack([half, -half])


def both_sweeps(gens, grid_s, grid_t, terminal, cfg, seed):
    """(moment stack, moments, particle reference) of one stack solve, the
    reference on every particle of the symmetric paths.  The reference
    evaluates f at the particles' states x = w, so its c1 x term is a
    particle row, not a basis coefficient."""
    rows = standard_normals(seed, (len(grid_s) - 1, cfg.n_particles // 2), "oracle")[::-1]
    mom, out = solver._solve_on_grid(gens, terminal, grid_s, grid_t, cfg, rows)
    w = solver._paths(rows, grid_s)
    ref = particle_picard(gens, grid_s, grid_t, w, increments(rows, grid_s), mom.terminal, cfg, x_states=w)
    return out, mom, ref


def assert_sweeps_agree(out, mom, ref, gens):
    np.testing.assert_allclose(out.u, ref["u"], rtol=0, atol=TOL)
    np.testing.assert_allclose(out.v, ref["v"], rtol=0, atol=TOL)
    np.testing.assert_allclose(out.mean_y, ref["y"].mean(axis=2), rtol=0, atol=TOL)
    np.testing.assert_allclose(out.mean_z, ref["z"].mean(axis=2), rtol=0, atol=TOL)
    # the Y rows built from the coefficients are the reference's Y
    for k, gen in enumerate(gens):
        for i in range(1, len(mom.sums) - 1):
            np.testing.assert_allclose(solver._y_row(mom, gen, out, k, i), ref["y"][k, i], rtol=0, atol=TOL)


def auxiliary(scns, n_nodes, cfg, seed=11, driver=BROWNIAN):
    clock = build_clock(driver, n_nodes)
    gens = [scn.generator for scn in scns]

    def terminal(w_end):
        return [terminal_on_paths(scn.terminal, w_end) for scn in scns]

    out, mom, ref = both_sweeps(gens, clock.grid_V, clock.grid_t, terminal, cfg, seed)
    assert_sweeps_agree(out, mom, ref, gens)
    return ref


def representation(scns, cfg, seed=3, t=0.25, eps=0.1):
    clock = build_clock(BROWNIAN, 33)
    if any(scn.generator.c1 != 0.0 for scn in scns):
        # a representation solve refuses a state-dependent generator; the
        # rest of the scenario (a clip term, say) is checked with c1 = 0
        with pytest.raises(UnsupportedScenario):
            starts = [(scn, 1.0, 0.5) for scn in scns]
            table = solver.short_horizon_table(cfg, seed, [scn.generator for scn in scns])
            solver.representation_solve_stack(starts, clock, t, eps, table)
        scns = _state_free(scns)
    v_a, v_b = clock.value(t), clock.value(t + eps)
    grid_s = np.linspace(v_a, v_b, cfg.n_time + 1)
    gens = [scn.generator for scn in scns]

    def terminal(w_end):
        return [1.0 + 0.5 * w_end] * len(scns)

    out, mom, ref = both_sweeps(gens, grid_s, clock.invert(grid_s), terminal, cfg, seed)
    assert_sweeps_agree(out, mom, ref, gens)
    np.testing.assert_allclose(solver._candidates(gens, mom, out), ref["candidates"], rtol=0, atol=TOL)
    np.testing.assert_allclose(out.mean_y[:, 0], ref["y"][:, 0].mean(axis=1), rtol=0, atol=TOL)


@pytest.mark.parametrize("pair", sorted(_pairs()))
def test_pairs_match_particle_sweep(pair):
    auxiliary(_pairs()[pair], 17, SolverConfig(n_time=16, n_particles=2000))


@pytest.mark.parametrize("pair", sorted(_pairs()))
def test_representation_pairs_match_particle_sweep(pair):
    # the clip pair's c1 = 0.4 is refused, and its clip term checked with c1 = 0
    representation(_pairs()[pair], SolverConfig(n_time=8, n_particles=2000))


def test_nonlinear_terminal():
    scn = ScenarioSpec(TerminalSpec(a=0.2, b=1.0, phi="sin", c=0.8), GeneratorSpec(c2=0.3, kappa_y=0.2), BROWNIAN)
    auxiliary([scn, shift_terminal(scn, 0.5)], 17, SolverConfig(n_time=16, n_particles=2000))


def test_one_step_grid():
    # N = 1: the first node's slope comes from the terminal
    mf = mean_field_scenario(BROWNIAN)
    tanh = ScenarioSpec(TerminalSpec(b=1.0, phi="tanh", c=0.5), GeneratorSpec(c3=0.3, phi="tanh", c4=0.2), BROWNIAN)
    auxiliary([mf, tanh], 2, SolverConfig(n_time=2, n_particles=2000))


@pytest.mark.parametrize("degree", [1, 4, 6])
def test_basis_degrees(degree):
    mf = mean_field_scenario(BROWNIAN)
    clip = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(c1=0.4, c3=0.2, phi="clip", c4=0.6, kappa_y=0.1), BROWNIAN)
    cfg = SolverConfig(n_time=8, n_particles=2000, basis_degree=degree)
    auxiliary([mf, clip], 9, cfg)
    representation([mf, clip], cfg)


def test_law_free_between_law_dependent():
    # one sweep solves the law of the outer rows and leaves the law-free
    # middle row as its own solve
    mf = mean_field_scenario(BROWNIAN)
    auxiliary([mf, identity_scenario(BROWNIAN), shift_terminal(mf, 1.0)], 17, SolverConfig(n_time=16, n_particles=2000))


coefficient = st.floats(-0.6, 0.6, allow_nan=False)
# a law coupling of at most 0.3 lets the oracle's Picard iteration reach its
# 1e-13 stop in a few dozen sweeps, even on the one-step grid (ds = 1)
coupling = st.floats(-0.3, 0.3, allow_nan=False)
nonlinearity = st.sampled_from(["none", "sin", "tanh", "clip"])


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(["law_free", "mean_field", "law"]))
    if kind == "mean_field":
        return mean_field_scenario(BROWNIAN, alpha=draw(coupling), c=draw(coefficient))
    phi, t_phi = draw(nonlinearity), draw(nonlinearity)
    rho = draw(st.booleans())
    kappas = (draw(coupling), draw(coupling), draw(coupling)) if kind == "law" else (0.0, 0.0, 0.0)
    generator = GeneratorSpec(
        c0=draw(coefficient), c1=draw(coefficient), c2=draw(coefficient), c3=draw(coefficient),
        phi=phi, c4=0.0 if phi == "none" else draw(coefficient),
        kappa_x=kappas[0], kappa_y=kappas[1], kappa_z=kappas[2],
        rho_breaks=(0.5,) if rho else None, rho_values=(1.0, draw(st.floats(-1.0, 1.0))) if rho else None,
    )
    terminal = TerminalSpec(
        a=draw(coefficient), b=draw(coefficient), phi=t_phi, c=0.0 if t_phi == "none" else draw(coefficient)
    )
    return ScenarioSpec(terminal, generator, BROWNIAN)


@settings(deadline=None, max_examples=30)
@given(
    scns=st.lists(scenarios(), min_size=1, max_size=3),
    driver=st.sampled_from([BROWNIAN, FBM03]),
    degree=st.integers(1, 4),
    n_steps=st.sampled_from([1, 2, 17]),
    seed=st.integers(0, 2**16),
)
# g = 0 and f = 0.5 x + 0.25 mean_z on one step: the first sweep leaves the
# means of Y at 0 with the law's Z term frozen at mean_z = 0, while the fixed
# point has Z_0 = 0.5 and Y_0 = 0.125
@example(
    scns=[ScenarioSpec(TerminalSpec(), GeneratorSpec(c1=0.5, kappa_z=0.25), BROWNIAN)],
    driver=BROWNIAN, degree=1, n_steps=1, seed=0,
)
def test_random_stacks_match_particle_sweep(scns, driver, degree, n_steps, seed):
    # the one sweep against the oracle's fixed point, on the clock grid of
    # a Brownian or an fBm driver (the generators read t on it); the solve
    # reads its grid off the clock, not n_time, which must be at least 2
    cfg = SolverConfig(n_time=max(n_steps, 2), n_particles=500, basis_degree=degree)
    auxiliary(scns, n_steps + 1, cfg, seed=seed, driver=driver)


@settings(deadline=None, max_examples=30)
@given(
    scns=st.lists(scenarios(), min_size=1, max_size=3),
    driver=st.sampled_from([BROWNIAN, FBM03, FBM07]),
    degree=st.integers(1, 4),
    n_time=st.integers(2, 16),
    t=st.sampled_from([0.0, 0.25, 0.6]),
    eps=st.sampled_from([0.02, 0.1]),
    starts=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_sub_grid_of_the_table_is_the_solve_on_its_own_paths(scns, driver, degree, n_time, t, eps, starts, seed):
    # a short-horizon sub-grid read off the check's unit-step table, against
    # the solve that builds the sub-grid's own paths and moments from the
    # same draw
    scns = _state_free(scns)
    cfg = SolverConfig(n_time=n_time, n_particles=500, basis_degree=degree)
    clock = build_clock(driver, 257)
    grid_s = solver._short_horizon_grid(clock, t, eps, n_time)
    grid_t = clock.invert(grid_s)
    gens = [scn.generator for scn in scns]
    y, z = np.array(starts[: len(scns)]).T
    rows = standard_normals(seed, (n_time, cfg.n_particles // 2), "repr-increments")[::-1]
    own, own_out = solver._solve_on_grid(gens, lambda w_end: [a + b * w_end for a, b in zip(y, z)], grid_s, grid_t, cfg, rows)
    table = _drawn_table(cfg, seed)
    mom = solver._sub_grid_moments(table, grid_s, grid_t, y, z)
    out = solver._backward_pass(gens, mom)
    for name in ("u", "v", "yc", "beta", "mean_y", "mean_z", "step0"):
        np.testing.assert_allclose(getattr(out, name), getattr(own_out, name), rtol=0, atol=TOL)
    np.testing.assert_allclose(solver._candidates(gens, mom, out), solver._candidates(gens, own, own_out), rtol=0, atol=TOL)
    values = solver.representation_solve_stack(list(zip(scns, y, z)), clock, t, eps, table)
    np.testing.assert_allclose([v.value for v in values], own_out.mean_y[:, 0], rtol=0, atol=TOL)


def test_law_free_stack_keeps_no_particle_matrix():
    # the paths and their increments are the only (N+1, n) arrays of a
    # law-free solve: a (K, N+1, n) Y or Z matrix alone would exceed the bound
    N, n = 64, 8000
    clock = build_clock(BROWNIAN, N + 1)
    cfg = SolverConfig(n_time=N, n_particles=n)
    scns = [linear_scenario(BROWNIAN, 0.5), identity_scenario(BROWNIAN)]
    tracemalloc.start()
    try:
        solver.solve_auxiliary_stack(scns, [clock], cfg, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * (N + 1) * n * 8


@pytest.mark.parametrize("degree", [1, 4, 6])
@pytest.mark.parametrize("n_steps", [1, 2, 17])
def test_node_moments_match_basis_products(monkeypatch, degree, n_steps):
    # each node's row of the moment table, built from two products per node
    # on half the particles and one batched solve, against the explicit
    # basis products phi phi^T, phi phi_{i+1}^T and phi diag(dW) phi^T over
    # every particle of the symmetric paths [w, -w]; the products are summed
    # over particle blocks, and the terminal rows are 1 + x (neither odd nor
    # even), sin x (odd) and 3 cos x (even)
    monkeypatch.setattr(solver, "_PARTICLE_BLOCK", 768)
    grid_s = build_clock(BROWNIAN, n_steps + 1).grid_V
    rows = standard_normals(7, (n_steps, 1000), "nodes")[::-1]
    w = solver._paths(rows, grid_s)
    dw = increments(rows, grid_s)
    terminal = np.array([1.0 + w[-1], np.sin(w[-1]), 3.0 * np.cos(w[-1])])
    solves = []
    with monkeypatch.context() as patch:
        solve = np.linalg.solve
        patch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
        mom = solver._moments(grid_s, grid_s, w, rows, terminal, degree)
    assert solves == [1]
    W, n = degree + 1, w.shape[1]
    scales = _basis_scales(grid_s)
    phis = [_basis(w, scales, i, degree) for i in range(n_steps + 1)]
    assert not phis[0][1:].any()  # the first node's state is 0

    def close(actual, expected, scale=None, cond=1.0):
        # sums in another order differ in the last bits, and a solve scales a
        # relative change of its data by up to the condition of its matrix
        scale = np.abs(expected).max() if scale is None else scale
        np.testing.assert_allclose(actual, expected, rtol=0, atol=max(1e-12, 1e-16 * cond) * scale)

    conds = []
    for i, phi in enumerate(phis):
        if i == 0:
            # the constant basis: the identity but for the constant's n + ridge
            gram = np.eye(W)
            gram[0, 0] = n + solver._RIDGE
            cond = np.linalg.cond(gram)
        else:
            gram, cond = _regularized(phi @ phi.T, solver._RIDGE)
        conds.append(cond)
        fits = mom.fits[i]
        # a sum of odd total degree in x and dW is 0 on symmetric paths, exactly
        assert (mom.sums[i, 1::2] == 0.0).all() and (mom.dw_sums[i, ::2] == 0.0).all()
        assert (mom.grams[i][np.add.outer(np.arange(W), np.arange(W)) % 2 == 1] == 0.0).all()
        close(mom.grams[i], gram)
        close(mom.sums[i], phi.sum(axis=1))
        close(fits[:, :W], np.linalg.solve(gram, phi @ phi.T), cond=cond)
        if i < n_steps - 1:  # the fits of g sit on the last two nodes
            assert not fits[:, 3 * W :].any()
        if i == n_steps:
            assert not fits[:, W : 3 * W].any() and not mom.dw_sums[i].any()
            continue
        close(fits[:, W : 2 * W], np.linalg.solve(gram, phi @ phis[i + 1].T), cond=cond)
        # relative to the sums of |x**k dW|: at the first node, whose basis
        # is the constant, the centred increments sum to 0
        dw_scale = (np.abs(phi) @ np.abs(dw[i])).max()
        close(mom.dw_sums[i], phi @ dw[i], dw_scale)
        close(fits[:, 2 * W : 3 * W], np.linalg.solve(gram, (phi * dw[i]) @ phi.T), dw_scale / len(dw[i]), cond)
    for i in (n_steps, n_steps - 1):
        close(mom.fits[i, :, 3 * W :].T, _fit(phis[i], mom.grams[i], terminal), cond=conds[i])
    # the first node's normal matrix has no condition to guard
    np.testing.assert_allclose(mom.gram_cond_max, max(conds[1:]), rtol=1e-9)


# ---------------------------------------------------------------------------
# the exact-moment twin of the table


def twin_solve(scn, clock, n, degree=4):
    """The sweep of one affine scenario on the clock's exact moments."""
    terminal = [[scn.terminal.a, scn.terminal.b]]
    mom = solver._gaussian_moments(clock.grid_V, clock.grid_t, terminal, degree, n)
    return solver._backward_pass([scn.generator], mom)


@pytest.mark.parametrize("degree", [1, 4, 6])
@pytest.mark.parametrize("n_steps", [8, 15, 32, 64])
def test_twin_mean_field_closed_form(n_steps, degree):
    # g = x + c, f = alpha E[Y]: each node's mean Y is the next node's over
    # 1 - alpha ds, so the scheme's Y_0 is c (1 - alpha / N)^-N; what is left
    # is the ridge's share, about ridge / n a node
    alpha, c = 0.3, 1.0
    scn = mean_field_scenario(BROWNIAN, alpha=alpha, c=c)
    out = twin_solve(scn, build_clock(BROWNIAN, n_steps + 1), 8000, degree)
    exact = c * (1.0 - alpha / n_steps) ** -n_steps
    assert out.mean_y[0, 0] == pytest.approx(exact, rel=1e-10, abs=0.0)
    assert out.u[0, 0, 0] == pytest.approx(exact, rel=1e-10, abs=0.0)
    np.testing.assert_allclose(out.u[0, 0, 1:], 0.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "scn",
    [
        mean_field_scenario(BROWNIAN, alpha=0.3, c=1.0),
        mean_field_scenario(FBM03, alpha=0.3, c=1.0),
        linear_scenario(BROWNIAN, 0.5),
        ScenarioSpec(
            TerminalSpec(a=0.5, b=-1.0),
            GeneratorSpec(c0=0.2, c2=-0.4, kappa_y=0.2, rho_breaks=(0.5,), rho_values=(1.0, 2.0)),
            FBM07,
        ),
    ],
    ids=["mean_field", "mean_field_fbm", "linear", "law_with_rho"],
)
def test_sampled_affine_solves_match_the_twin(scn):
    # the increments are centred, so the sampled Y_0 of an affine generator
    # that does not read z is the scheme's mean whatever the draw: the
    # twin's, to rounding (Y_0 = 0 for the linear scenario)
    clock = build_clock(scn.driver, 16)
    cfg = SolverConfig(n_time=15, n_particles=8000)
    twin = twin_solve(scn, clock, cfg.n_particles).u[0, 0, 0]
    for seed in (1, 2, 3):
        field, _ = solver.solve_auxiliary(scn, clock, cfg, seed)
        assert field.u_coeffs[0, 0] == pytest.approx(twin, rel=1e-12, abs=1e-12)


def test_twin_moments_within_the_sampled_table_errors():
    # the twin's A_i / n and C_i / n against a sampled table at n = 200000:
    # every entry within 4 standard errors of the sample's own products
    n, degree, n_steps = 200_000, 4, 4
    grid_s = build_clock(FBM03, n_steps + 1).grid_V
    rows = standard_normals(12, (n_steps, n // 2), "twin-moments")[::-1]
    w = solver._paths(rows, grid_s)
    sampled = solver._moments(grid_s, grid_s, w, rows, np.stack([np.ones(n), w[-1]]), degree)
    twin = solver._gaussian_moments(grid_s, grid_s, np.eye(2), degree, n)
    W, ridge = degree + 1, solver._RIDGE * np.eye(degree + 1)
    scales = _basis_scales(grid_s)
    phis = [_basis(w, scales, i, degree) for i in range(n_steps + 1)]
    for i, phi in enumerate(phis):
        pairs = [("A", twin.grams[i] - ridge, sampled.grams[i] - ridge, phi)]
        if i < n_steps:
            pairs.append(("C", twin.grams[i] @ twin.fits[i, :, W : 2 * W], sampled.grams[i] @ sampled.fits[i, :, W : 2 * W], phis[i + 1]))
        for name, exact, drawn, other in pairs:
            products = phi[:, None, :] * other[None, :, :]
            se = products.std(axis=2) / np.sqrt(n)
            assert np.all(np.abs(drawn / n - exact / n) <= 4.0 * se + 1e-12), (name, i)
    assert twin.gram_cond_max == pytest.approx(344.450163799, rel=1e-9)


def test_nonlinear_stack_draws_as_before(monkeypatch):
    # a tanh generator's short-horizon table is a draw of n/2 normals a
    # step, and its values and pair-aware standard errors are pinned
    draws = []
    draw = solver.standard_normals
    monkeypatch.setattr(solver, "standard_normals", lambda *args: draws.append(args) or draw(*args))
    tanh = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(c2=-0.5, phi="tanh", c4=0.8, kappa_y=0.2), BROWNIAN)
    starts = [(tanh, 1.0, 0.5), (shift_generator(tanh, 0.1), 1.0, 0.5)]
    cfg = SolverConfig(n_time=8, n_particles=2000)
    table = solver.short_horizon_table(cfg, 5, [scn.generator for scn, _, _ in starts])
    assert not table.exact and [args[1:] for args in draws] == [((8, 1000), "repr-increments")]
    values = solver.representation_solve_stack(starts, build_clock(BROWNIAN, 257), 0.25, 0.1, table)
    assert [(v.value, v.std_error) for v in values] == [
        (1.030762497378406, 2.698276777762706e-06),
        (1.0407991237759417, 2.687973663274657e-06),
    ]
