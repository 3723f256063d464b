"""The moment-form backward sweep against a particle-space reference.

``particle_picard`` is the scheme run on particle arrays: every node fits
its targets on the basis block of that node's particles, and Y and Z are
(K, N+1, n) matrices.  The solver's sweep runs on per-node moment matrices
instead; both must give the same coefficients, Picard logs and
representation values to rounding.  The reference also records the
sorted-sample W2 between consecutive Y matrices, the oracle of the Picard
stop statistic.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussbsde import solver
from gaussbsde.drivers import GaussianDriverSpec, build_clock
from gaussbsde.measures import LawFeatures, sorted_w2
from gaussbsde.pack import identity_scenario, linear_scenario, mean_field_scenario, shift_terminal
from gaussbsde.scenario import (
    GeneratorSpec,
    GeneratorStack,
    ScenarioSpec,
    TerminalSpec,
    eval_generator,
    generator_partials,
    terminal_on_paths,
)
from gaussbsde.solver import SolverConfig, _basis, _basis_scales, _derivative, _fit, _gram, _rescaled

from test_solver import _pairs

BROWNIAN = GaussianDriverSpec.brownian(1.0)
TOL = 1e-10


def particle_sweep(gen, rows, grid_s, grid_t, w, dw, x_states, terminal_values, features, scales, grams, out):
    """One backward sweep on particle rows for the scenarios ``rows`` of the
    stack ``gen``, written into ``out``'s (K, N+1, n) Y and Z matrices."""
    N = len(grid_s) - 1
    n = w.shape[1]
    degree = out["u"].shape[-1] - 1
    y, z = out["y"], out["z"]
    y[rows, N] = terminal_values[rows]
    phi = _basis(w, scales, N, degree)
    out["u"][rows, N, : phi.shape[0]] = _fit(phi, grams[N], terminal_values[rows])
    for i in range(N - 1, -1, -1):
        ds = grid_s[i + 1] - grid_s[i]
        t_i = float(grid_t[i])
        phi = _basis(w, scales, i, degree)
        width = phi.shape[0]
        target = y[rows, i + 1]
        if i + 1 < N:
            cv = (_rescaled(out["v"][rows, i + 1, :width], scales[i] / scales[i + 1]) @ phi) * dw[i]
            target = target - (cv - cv.mean(axis=1, keepdims=True))
        beta = _fit(phi, grams[i], target)
        p = beta @ phi
        if i > 0:
            dp = _derivative(beta, scales[i]) @ phi[:-1]
        else:
            if i + 1 < N:
                slope = z[rows, i + 1].mean(axis=1, keepdims=True)
            else:
                slope = ((y[rows, i + 1] - p) * dw[i]).mean(axis=1, keepdims=True) / ds
            dp = np.repeat(slope, n, axis=1)
        df_dx, df_dy, df_dz = generator_partials(gen, t_i, x_states[i], p, dp)
        z_i = dp + ds * (df_dx + (df_dy + df_dz) * dp)
        if i == 0:
            vb = z_i.mean(axis=1, keepdims=True)
            z_i = np.repeat(vb, n, axis=1)
        else:
            vb = _fit(phi, grams[i], z_i)
            z_i = vb @ phi
        out["v"][rows, i, :width] = vb
        law = LawFeatures(features.mean_x[i], features.mean_y[rows, i, None], features.mean_z[rows, i, None])
        f_vals = eval_generator(gen, t_i, x_states[i], p, z_i, law)
        y_i = p + f_vals * ds
        y[rows, i] = y_i
        z[rows, i] = z_i
        out["u"][rows, i, :width] = _fit(phi, grams[i], y_i)
        if i == 0:
            out["candidates"][rows] = y[rows, 1] + f_vals * ds
    z[rows, N] = z[rows, N - 1]


def particle_picard(gens, grid_s, grid_t, w, dw, terminal_values, cfg, x_states):
    """The Picard iteration of ``solver._picard_solve`` on particle rows."""
    K, N, n = len(gens), len(grid_s) - 1, w.shape[1]
    W = cfg.basis_degree + 1
    stack = GeneratorStack(gens)
    scales = _basis_scales(grid_s)
    grams = [_gram(_basis(w, scales, i, cfg.basis_degree), cfg.ridge) for i in range(N + 1)]
    out = {
        "u": np.zeros((K, N + 1, W)), "v": np.zeros((K, N, W)),
        "y": np.empty((K, N + 1, n)), "z": np.empty((K, N + 1, n)), "candidates": np.empty((K, n)),
        "logs": [[] for _ in range(K)], "w2": [[] for _ in range(K)], "n_iterations": [0] * K,
    }
    prev_y = {}
    act = np.arange(K)
    feats = LawFeatures(
        mean_x=x_states.mean(axis=1),
        mean_y=np.repeat(terminal_values.mean(axis=1)[:, None], N + 1, axis=1),
        mean_z=np.zeros((K, N + 1)),
    )
    for sweep in range(1, cfg.picard_max_iter + 1):
        particle_sweep(stack[act], act, grid_s, grid_t, w, dw, x_states, terminal_values, feats, scales, grams, out)
        still = []
        for k in act.tolist():
            out["n_iterations"][k] = sweep
            if gens[k].is_law_free:
                out["logs"][k].append(0.0)
                continue
            y = out["y"][k]
            if k in prev_y:
                # the solver's statistic: the sup change of the Y rows' means
                change = np.abs(y.mean(axis=1) - feats.mean_y[k]).max()
                out["logs"][k].append(change)
                out["w2"][k].append(sorted_w2(y, prev_y[k]))
                if change < cfg.picard_tol:
                    continue
            prev_y[k] = y.copy()
            y.mean(axis=1, out=feats.mean_y[k])
            out["z"][k].mean(axis=1, out=feats.mean_z[k])
            still.append(k)
        if not still:
            break
        act = np.array(still)
    return out


def both_sweeps(gens, grid_s, grid_t, terminal, cfg, seed, x_start=None):
    """(moment stack, moments, particle reference) of one stack solve."""
    mom, out = solver._solve_on_grid(gens, terminal, grid_s, grid_t, cfg, seed, "oracle", x_start=x_start)
    dw = solver._brownian_increments(grid_s, cfg.n_particles, seed, "oracle")
    w = solver._paths(dw)
    x_states = w if x_start is None else x_start + w
    ref = particle_picard(gens, grid_s, grid_t, w, dw, mom.terminal, cfg, x_states)
    return out, mom, ref


def assert_sweeps_agree(out, mom, ref, gens):
    assert out.n_iterations == ref["n_iterations"]
    for k in range(len(gens)):
        assert len(out.logs[k]) == len(ref["logs"][k])
        np.testing.assert_allclose(out.logs[k], ref["logs"][k], rtol=0, atol=TOL)
    np.testing.assert_allclose(out.u, ref["u"], rtol=0, atol=TOL)
    np.testing.assert_allclose(out.v, ref["v"], rtol=0, atol=TOL)
    np.testing.assert_allclose(out.mean_y, ref["y"].mean(axis=2), rtol=0, atol=TOL)
    # the Y rows built from the coefficients are the reference's Y
    for k, gen in enumerate(gens):
        for i in range(1, len(mom.nodes) - 1):
            np.testing.assert_allclose(solver._y_row(mom, gen, out, k, i), ref["y"][k, i], rtol=0, atol=TOL)


def auxiliary(scns, n_nodes, cfg, seed=11):
    clock = build_clock(BROWNIAN, n_nodes)
    gens = [scn.generator for scn in scns]

    def terminal(w_end):
        return [terminal_on_paths(scn.terminal, w_end) for scn in scns]

    out, mom, ref = both_sweeps(gens, clock.grid_V, clock.grid_t, terminal, cfg, seed)
    assert_sweeps_agree(out, mom, ref, gens)
    return ref


def representation(scns, cfg, seed=3, t=0.25, eps=0.1):
    clock = build_clock(BROWNIAN, 33)
    v_a, v_b = clock.value(t), clock.value(t + eps)
    grid_s = np.linspace(v_a, v_b, cfg.n_time + 1)
    w0 = math.sqrt(v_a) * np.random.default_rng(seed).standard_normal(cfg.n_particles)
    gens = [scn.generator for scn in scns]

    def terminal(w_end):
        return [1.0 + 0.5 * w_end] * len(scns)

    out, mom, ref = both_sweeps(gens, grid_s, clock.invert(grid_s), terminal, cfg, seed, x_start=w0)
    assert_sweeps_agree(out, mom, ref, gens)
    np.testing.assert_allclose(solver._candidates(gens, mom, out), ref["candidates"], rtol=0, atol=TOL)
    np.testing.assert_allclose(out.mean_y[:, 0], ref["y"][:, 0].mean(axis=1), rtol=0, atol=TOL)


@pytest.mark.parametrize("pair", sorted(_pairs()))
def test_pairs_match_particle_sweep(pair):
    auxiliary(_pairs()[pair], 17, SolverConfig(n_time=16, n_particles=2000))


@pytest.mark.parametrize("pair", sorted(_pairs()))
def test_representation_pairs_match_particle_sweep(pair):
    # the state slot reads x_start + w: the clip pair's c1 = 0.4 fits x_start
    representation(_pairs()[pair], SolverConfig(n_time=8, n_particles=2000))


def test_nonlinear_terminal():
    scn = ScenarioSpec(TerminalSpec(a=0.2, b=1.0, phi="sin", c=0.8), GeneratorSpec(c2=0.3, kappa_y=0.2), BROWNIAN)
    auxiliary([scn, shift_terminal(scn, 0.5)], 17, SolverConfig(n_time=16, n_particles=2000))


def test_one_step_grid():
    # N = 1: the first node's slope comes from the terminal
    mf = mean_field_scenario(BROWNIAN)
    tanh = ScenarioSpec(TerminalSpec(b=1.0, phi="tanh", c=0.5), GeneratorSpec(c3=0.3, phi="tanh", c4=0.2), BROWNIAN)
    auxiliary([mf, tanh], 2, SolverConfig(n_time=2, n_particles=2000))


@pytest.mark.parametrize("degree", [0, 1, 4, 6])
def test_basis_degrees(degree):
    mf = mean_field_scenario(BROWNIAN)
    clip = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(c1=0.4, c3=0.2, phi="clip", c4=0.6, kappa_y=0.1), BROWNIAN)
    cfg = SolverConfig(n_time=8, n_particles=2000, basis_degree=degree)
    auxiliary([mf, clip], 9, cfg)
    representation([mf, clip], cfg)


def test_non_contiguous_active_set():
    # the law-free middle scenario stops after one sweep; the others sweep on
    # as rows [0, 2]
    mf = mean_field_scenario(BROWNIAN)
    auxiliary([mf, identity_scenario(BROWNIAN), shift_terminal(mf, 1.0)], 17, SolverConfig(n_time=16, n_particles=2000))


coefficient = st.floats(-0.6, 0.6, allow_nan=False)
# a law coupling of at most 0.3 lets the Picard iteration converge in a few sweeps
coupling = st.floats(-0.3, 0.3, allow_nan=False)


@st.composite
def scenarios(draw):
    phi = draw(st.sampled_from(["none", "sin", "tanh", "clip"]))
    t_phi = draw(st.sampled_from(["none", "sin", "tanh", "clip"]))
    rho = draw(st.booleans())
    generator = GeneratorSpec(
        c0=draw(coefficient), c1=draw(coefficient), c2=draw(coefficient), c3=draw(coefficient),
        phi=phi, c4=0.0 if phi == "none" else draw(coefficient),
        kappa_x=draw(coupling), kappa_y=draw(coupling), kappa_z=draw(coupling),
        rho_breaks=(0.5,) if rho else None, rho_values=(1.0, draw(st.floats(-1.0, 1.0))) if rho else None,
    )
    terminal = TerminalSpec(
        a=draw(coefficient), b=draw(coefficient), phi=t_phi, c=0.0 if t_phi == "none" else draw(coefficient)
    )
    return ScenarioSpec(terminal, generator, BROWNIAN)


@settings(deadline=None, max_examples=20)
@given(
    scns=st.lists(scenarios(), min_size=1, max_size=3),
    degree=st.integers(0, 4),
    n_nodes=st.integers(2, 7),
    seed=st.integers(0, 2**16),
)
def test_random_stacks_match_particle_sweep(scns, degree, n_nodes, seed):
    cfg = SolverConfig(n_time=n_nodes, n_particles=500, basis_degree=degree, picard_max_iter=20)
    ref = auxiliary(scns, n_nodes, cfg, seed=seed)
    # the logged change of the means against the W2 of consecutive Y rows: an
    # affine generator's rows differ by one constant per node, so the two are
    # equal; otherwise |E X - E Y| <= W2(X, Y)
    affine = not any(scn.generator.nonlinear_terms for scn in scns)
    for log, w2 in zip(ref["logs"], ref["w2"]):
        if not w2:
            continue  # law-free: one sweep, no W2
        assert len(log) == len(w2)
        if affine:
            np.testing.assert_allclose(log, w2, rtol=0, atol=1e-12)
        else:
            assert all(change <= dist + 1e-12 for change, dist in zip(log, w2))


def test_law_free_stack_keeps_no_particle_matrix():
    # the paths and their increments are the only (N+1, n) arrays of a
    # law-free solve: a (K, N+1, n) Y or Z matrix alone would exceed the bound
    N, n = 64, 8000
    clock = build_clock(BROWNIAN, N + 1)
    cfg = SolverConfig(n_time=N, n_particles=n)
    scns = [linear_scenario(BROWNIAN, 0.5), identity_scenario(BROWNIAN)]
    tracemalloc.start()
    try:
        solver.solve_auxiliary_stack(scns, clock, cfg, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * (N + 1) * n * 8
