"""Property tests: the variance clock, the config round trip, the regression
fit and the Lipschitz audit."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from gaussbsde.config import emit_config, parse_config_payload
from gaussbsde.drivers import GaussianDriverSpec, build_clock
from gaussbsde.experiments import KINDS
from gaussbsde.scenario import (
    NONLINEARITIES,
    GeneratorSpec,
    ScenarioSpec,
    TerminalSpec,
    lipschitz_audit,
)
from gaussbsde.solver import _fit, _gram

FEW = settings(deadline=None, max_examples=25)
coefficient = st.floats(-3.0, 3.0, allow_nan=False)
coefficients = st.lists(coefficient, max_size=4)
param_values = {
    **dict.fromkeys(("t", "y", "z", "eps"), coefficient),
    **dict.fromkeys(("t_list", "eps_list", "shift_list", "lambda_list"), coefficients),
    "probe_grid": st.lists(st.lists(coefficient, min_size=3, max_size=3), max_size=3),
}


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


@st.composite
def scenarios(draw, coefficient=coefficient):
    phi = draw(st.sampled_from(sorted(NONLINEARITIES)))
    terminal = {key: draw(coefficient) for key in ("a", "b", "lambda_mean")}
    terminal.update(phi=phi, c=0.0 if phi == "none" else draw(coefficient))
    return {"terminal": terminal, "generator": draw(generators(coefficient))}


@st.composite
def configs(draw, kind):
    spec = KINDS[kind]
    driver = draw(
        st.sampled_from([{"kind": "brownian"}, {"kind": "fbm", "hurst": draw(st.floats(0.01, 0.99))}])
    )
    tree = {
        "kind": kind,
        "seed": draw(st.integers(0, 2 ** 62)),
        "driver": dict(driver, T=draw(st.floats(0.1, 5.0))),
        "solver": {"n_time": draw(st.integers(2, 128)), "ridge": draw(st.floats(0.0, 1e-3))},
        "params": {key: draw(param_values[key]) for key in spec.required},
    }
    for key in ("scenario", "scenario_2")[: spec.scenarios]:
        tree[key] = draw(scenarios())
    return tree


@FEW
@given(data=st.data())
def test_emit_parse_keeps_digest(data):
    for kind in KINDS:
        cfg = parse_config_payload(data.draw(configs(kind)))
        again = parse_config_payload(json.loads(emit_config(cfg)))
        assert again.digest == cfg.digest
        assert emit_config(again) == emit_config(cfg)


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
    # the closed-form first Picard iterate rests on this: a projection whose
    # basis holds the constant keeps the particle mean of its target
    x = np.random.default_rng(seed).normal(size=n)
    y = a + b * x + c * NONLINEARITIES[phi][0](x)
    phi = npoly.polyvander(x, degree)
    for ridge in (0.0, 1e-8):
        fitted = phi @ _fit(phi, _gram(phi, ridge), y)
        assert abs(np.mean(fitted) - np.mean(y)) <= 1e-10


@FEW
@given(tree=scenarios(st.floats(-10.0, 10.0, allow_nan=False)), seed=st.integers(0, 2 ** 32 - 1))
def test_lipschitz_audit_within_symbolic_constants(tree, seed):
    generator = dict(tree["generator"])
    rho = generator.pop("rho_table", None)
    if rho is not None:
        generator.update(rho_breaks=rho["breaks"], rho_values=rho["values"])
    scn = ScenarioSpec(TerminalSpec(**tree["terminal"]), GeneratorSpec(**generator), GaussianDriverSpec.brownian(1.0))
    audit = lipschitz_audit(scn, n_probes=64, seed=seed)  # raises ProbeViolation on a breach
    assert audit.max_ratio_f <= audit.l_f + 1e-9
    assert audit.max_ratio_g <= audit.l_g + 1e-9
