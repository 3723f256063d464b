"""Property tests: the covariance kernel, the variance clock, the config round trip, a run of
each config that validates (for the kinds that solve nothing), the regression
fit and its basis-block products, the sorted W2 distance, the Lipschitz
audit and the generator's coefficient form."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from gaussbsde.config import parse_config_payload
from gaussbsde.drivers import GaussianDriverSpec, build_clock, covariance
from gaussbsde.errors import ConfigInvalid, NonFiniteSolution
from gaussbsde.experiments import KINDS, run_single
from gaussbsde.measures import LawFeatures, sorted_w2
from gaussbsde.scenario import (
    NONLINEARITIES,
    GeneratorSpec,
    ScenarioSpec,
    TerminalSpec,
    eval_generator,
    generator_partials,
    generator_remainder,
    lipschitz_audit,
)
from gaussbsde.solver import _basis, _derivative, _fit, _regularized, _rescaled

from test_cli import emit_config

FEW = settings(deadline=None, max_examples=25)
coefficient = st.floats(-3.0, 3.0, allow_nan=False)
coefficients = st.lists(coefficient, min_size=1, max_size=4)


@st.composite
def param_values(draw, keys, T):
    """Values for the params ``keys`` of a driver of horizon T: times anywhere
    in [0, T], and a positive eps or strictly decreasing eps_list whose
    largest value still fits after the latest time."""
    eps_list = sorted(draw(st.sets(st.floats(0.0, T, exclude_min=True), min_size=1, max_size=4)), reverse=True)
    time = st.floats(0.0, T - eps_list[0]) if {"eps", "eps_list"} & set(keys) else st.floats(0.0, T)
    values = {
        **dict.fromkeys(("y", "z"), coefficient),
        **dict.fromkeys(("shift_list", "lambda_list"), coefficients),
        "t": time,
        "eps": st.just(eps_list[0]),
        "t_list": st.lists(st.floats(0.0, T), min_size=1, max_size=4),
        "eps_list": st.just(eps_list),
        "probe_grid": st.lists(st.tuples(time, coefficient, coefficient).map(list), min_size=1, max_size=3),
        "n_time": st.integers(2, 128),
        "n_paths": st.integers(2, 10 ** 6),
    }
    return {key: draw(values[key]) for key in keys}


@st.composite
def drivers_and_times(draw):
    """A driver of any kind and a list of times of its domain that starts at 0."""
    kind = draw(st.sampled_from(("brownian", "fbm", "custom")))
    T = draw(st.floats(0.1, 10.0))
    if kind == "custom":
        n = draw(st.integers(1, 6))
        grid = T * np.arange(1, n + 1) / n
        rows = [[draw(coefficient) for _ in range(i + 1)] for i in range(n)]
        spec = GaussianDriverSpec.custom(grid, rows, T)
        times = st.sampled_from([0.0, *grid.tolist()])
    else:
        spec = GaussianDriverSpec.fbm(draw(st.floats(0.01, 0.99)), T) if kind == "fbm" else GaussianDriverSpec.brownian(T)
        times = st.floats(0.0, T)
    return spec, [0.0, *draw(st.lists(times, min_size=1, max_size=8))]


@FEW
@given(case=drivers_and_times())
def test_covariance_broadcast_matches_scalar_calls(case):
    spec, times = case
    t = np.asarray(times)
    cov = covariance(spec, t[:, None], t[None, :])
    scalar = np.array([[covariance(spec, a, b) for b in times] for a in times])
    assert np.array_equal(cov, scalar)
    assert np.array_equal(cov, cov.T)
    assert np.all(cov[0] == 0.0)


@FEW
@given(
    hurst=st.floats(0.01, 0.99),
    T=st.floats(0.1, 10.0),
    n_nodes=st.integers(2, 65),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20),
)
def test_clock_round_trip_and_monotone(hurst, T, n_nodes, fractions):
    clock = build_clock(GaussianDriverSpec.fbm(hurst, T), n_nodes)
    t = np.sort(np.asarray(fractions) * T)
    v = clock.value(t)
    assert np.all(np.diff(v) >= 0.0)
    np.testing.assert_allclose(clock.invert(v), t, rtol=0.0, atol=1e-9 * T)
    np.testing.assert_allclose(clock.value(clock.invert(clock.grid_V)), clock.grid_V, rtol=0.0, atol=1e-12)


@st.composite
def generators(draw, coefficient=coefficient):
    phi = draw(st.sampled_from(sorted(NONLINEARITIES)))
    tree = {key: draw(coefficient) for key in ("c0", "c1", "c2", "c3", "kappa_x", "kappa_y", "kappa_z")}
    tree.update(phi=phi, c4=0.0 if phi == "none" else draw(coefficient))
    breaks = sorted(draw(st.sets(st.integers(1, 99), max_size=3)))
    if draw(st.booleans()):
        values = [draw(coefficient) for _ in range(len(breaks) + 1)]
        tree["rho_table"] = {"breaks": [b / 100 for b in breaks], "values": values}
    return tree


def generator_spec(tree) -> GeneratorSpec:
    tree = dict(tree)
    rho = tree.pop("rho_table", None)
    if rho is not None:
        tree.update(rho_breaks=rho["breaks"], rho_values=rho["values"])
    return GeneratorSpec(**tree)


@st.composite
def scenarios(draw, coefficient=coefficient):
    phi = draw(st.sampled_from(sorted(NONLINEARITIES)))
    terminal = {key: draw(coefficient) for key in ("a", "b", "lambda_mean")}
    terminal.update(phi=phi, c=0.0 if phi == "none" else draw(coefficient))
    return {"terminal": terminal, "generator": draw(generators(coefficient))}


@st.composite
def configs(draw, kind):
    spec = KINDS[kind]
    tree = {"kind": kind, "seed": draw(st.integers(0, 2 ** 62))}
    if "driver" not in spec.settings:
        return tree  # the suite's entries bring their own drivers and solvers
    driver = draw(
        st.sampled_from([{"kind": "brownian"}, {"kind": "fbm", "hurst": draw(st.floats(0.01, 0.99))}])
    )
    T = draw(st.floats(0.1, 5.0))
    tree.update(driver=dict(driver, T=T), params=draw(param_values(spec.required, T)))
    if "solver" in spec.settings:
        tree["solver"] = {"n_time": draw(st.integers(2, 128))}
    for key in ("scenario", "scenario_2")[: spec.scenarios]:
        if kind == "comparison" and key == "scenario_2":
            # and the coefficient ordering f1 <= f2, g1 <= g2: the first
            # scenario with its terminal raised by a constant
            tree[key] = {part: dict(values) for part, values in tree["scenario"].items()}
            tree[key]["terminal"]["a"] += draw(st.floats(0.0, 10.0))
            continue
        tree[key] = scn = draw(scenarios())
        if kind in ("representation", "converse"):
            scn["generator"]["c1"] = 0.0  # their solves refuse a state-dependent f
        if kind == "comparison":
            # its hypotheses: no law of Z, and one nonnegative mean coupling
            scn["generator"]["kappa_z"] = 0.0
            if key == "scenario":
                scn["generator"]["kappa_y"] = 0.0
        if kind in ("t2", "lsi"):
            # their closed-form law needs affine law-free f(t, y) and affine g(x)
            scn["generator"] = {k: scn["generator"][k] for k in ("c0", "c2")}
            scn["terminal"] = {k: scn["terminal"][k] for k in ("a", "b")}
    return tree


@FEW
@given(data=st.data())
def test_emit_parse_keeps_digest(data):
    for kind in KINDS:
        try:
            cfg = parse_config_payload(data.draw(configs(kind)))
        except ConfigInvalid as exc:
            # read at the emitted 12 digits, a draw at the horizon may pass
            # T, or two close eps merge: such a config is refused outright;
            # so is a short-horizon check at t = 0 on an fBm clock, a t2
            # check of a Dirac law (t = 0 or b = 0), and a grid that the
            # explicit scheme's step guard refuses, or a horizon too short
            # for the clock to move
            assert re.search(
                r"is past T|strictly decreasing|differentiable at t|Dirac law|explicit scheme|does not move", str(exc)
            )
            continue
        again = parse_config_payload(json.loads(emit_config(cfg)))
        assert again.digest == cfg.digest
        assert emit_config(again) == emit_config(cfg)


@st.composite
def unsolved_kind_configs(draw):
    """A t2, lsi or wick_validate config on a Brownian, fBm or custom driver
    (a symmetric table of 1 to 3 nodes), at most 8 steps and 64 paths."""
    kind = draw(st.sampled_from(("t2", "lsi", "wick_validate")))
    T = draw(st.floats(0.1, 5.0))
    driver = {"kind": draw(st.sampled_from(("brownian", "fbm", "custom"))), "T": T}
    if driver["kind"] == "fbm":
        driver["hurst"] = draw(st.floats(0.01, 0.99))
    if driver["kind"] == "custom":
        grid = sorted(draw(st.sets(st.floats(0.0, T, exclude_min=True), min_size=1, max_size=3)))
        rows = [[draw(coefficient) for _ in range(i + 1)] for i in range(len(grid))]
        if draw(st.booleans()):  # a diagonal that increases, as a clock needs; the rest may not be PSD
            for i, v in enumerate(np.cumsum([draw(st.floats(0.01, 3.0)) for _ in grid])):
                rows[i][i] = float(v)
        matrix = [[rows[max(i, j)][min(i, j)] for j in range(len(grid))] for i in range(len(grid))]
        driver.update(cov_grid=grid, cov_matrix=matrix)
    tree = {"kind": kind, "seed": draw(st.integers(0, 2 ** 62)), "driver": driver}
    if kind == "wick_validate":
        tree["params"] = {"n_time": draw(st.integers(2, 8)), "n_paths": draw(st.integers(1, 64))}
        return tree
    tree["params"] = draw(param_values(KINDS[kind].required, T))
    # the closed-form family: f = c0 + c2 y and g = a + b x, with c2 far past
    # the range where e^(2 c2 V_T) stays finite
    c2 = draw(coefficient | st.floats(-1000.0, 1000.0))
    tree["scenario"] = {
        "terminal": {"a": draw(coefficient), "b": draw(coefficient)}, "generator": {"c0": draw(coefficient), "c2": c2},
    }
    return tree


@settings(deadline=None, max_examples=150)
@given(tree=unsolved_kind_configs())
def test_what_validate_accepts_runs(tree):
    # a config that parses runs to its report, or to a named non-finite value
    try:
        cfg = parse_config_payload(tree)
    except ConfigInvalid:
        return
    with tempfile.TemporaryDirectory() as out_dir:
        try:
            run_single(cfg, Path(out_dir))
        except NonFiniteSolution:
            pass


@FEW
@given(
    n=st.integers(2000, 6000),
    degree=st.integers(0, 6),
    a=coefficient,
    b=coefficient,
    c=coefficient,
    phi=st.sampled_from(sorted(NONLINEARITIES)),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_intercept_fit_keeps_mean(n, degree, a, b, c, phi, seed):
    # the node means the sweep reads off its coefficients rest on this: a
    # projection whose basis holds the constant keeps the particle mean of
    # its target
    x = np.random.default_rng(seed).normal(size=n)
    y = a + b * x + c * NONLINEARITIES[phi][0](x)
    phi = npoly.polyvander(x, degree).T
    for ridge in (0.0, 1e-8):
        fitted = _fit(phi, _regularized(phi @ phi.T, ridge)[0], y) @ phi
        assert abs(np.mean(fitted) - np.mean(y)) <= 1e-10


@FEW
@given(
    degree=st.integers(1, 6),
    coeffs=st.lists(coefficient, min_size=7, max_size=7),
    ratio=st.floats(0.0, 1.0, exclude_min=True),
    scale=st.floats(0.1, 10.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(degree=1, coeffs=[0.0, 2.2250738585e-313, 0.0, 0.0, 0.0, 0.0, 0.0], ratio=0.25, scale=1.0, seed=0)
def test_basis_block_products_match_polyval(degree, coeffs, ratio, scale, seed):
    # the sweep reads the next node's Z field and the derivative of the P fit
    # off the node's basis block instead of evaluating polynomials on
    # rescaled states; a subnormal coefficient carries fewer significant
    # bits, so the rounding scale is floored at the smallest normal float
    c = np.array(coeffs[: degree + 1])
    w = np.zeros((2, 500))
    w[1] = scale * np.random.default_rng(seed).normal(size=500)
    scales = np.array([1.0, scale])
    phi = _basis(w, scales, 1, degree)
    magnitude = np.maximum(np.abs(c) @ np.abs(phi), np.finfo(float).tiny)  # sum of |terms|, the rounding scale
    next_field = npoly.polyval(w[1] / (scale / ratio), c)
    np.testing.assert_allclose(_rescaled(c, ratio) @ phi, next_field, rtol=1e-12, atol=1e-12 * magnitude.max())
    slope = npoly.polyval(w[1] / scale, npoly.polyder(c) / scale)
    np.testing.assert_allclose(
        _derivative(c, scale) @ phi[:-1], slope, rtol=1e-12, atol=1e-12 * degree * magnitude.max() / scale
    )


@FEW
@given(
    rows=st.integers(1, 6),
    n=st.integers(1, 60),
    seed=st.integers(0, 2 ** 32 - 1),
    spread=st.floats(0.0, 100.0),
)
def test_sorted_w2_rows_is_largest_row_distance(rows, n, seed, spread):
    a, b = spread * np.random.default_rng(seed).normal(size=(2, rows, n))
    assert sorted_w2(a, b) == max(sorted_w2(a[i], b[i]) for i in range(rows))


@FEW
@given(tree=scenarios(st.floats(-10.0, 10.0, allow_nan=False)), seed=st.integers(0, 2 ** 32 - 1))
def test_lipschitz_audit_within_symbolic_constants(tree, seed):
    driver = GaussianDriverSpec.brownian(1.0)
    scn = ScenarioSpec(TerminalSpec(**tree["terminal"]), generator_spec(tree["generator"]), driver)
    audit = lipschitz_audit(scn, seed=seed)  # raises ProbeViolation on a breach
    assert audit.max_ratio_f <= scn.generator.lipschitz + 1e-9
    assert audit.max_ratio_g <= scn.terminal.lipschitz + 1e-9


@FEW
@given(tree=generators(st.just(0.0) | coefficient), seed=st.integers(0, 2 ** 32 - 1))
def test_generator_is_its_coefficient_form(tree, seed):
    # the form the backward sweep reads: f and its partials at (x, y, z) = 0
    # plus the remainder r(y), whose derivative completes df/dy
    spec = generator_spec(tree)
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, size=40)
    x, y, z, *means = 2.0 * rng.normal(size=(6, 40))
    feats = LawFeatures(*means)
    f_x, f_y, f_z = generator_partials(spec, t, 0.0, 0.0, 0.0)
    r, dr = generator_remainder(spec, t, y)
    expansion = eval_generator(spec, t, 0.0, 0.0, 0.0, feats) + f_x * x + f_y * y + f_z * z + r
    np.testing.assert_allclose(eval_generator(spec, t, x, y, z, feats), expansion, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(generator_partials(spec, t, x, y, z)[1], f_y + dr, rtol=0.0, atol=1e-12)
