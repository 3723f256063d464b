"""Property tests: the variance clock and the config round trip."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from gaussbsde.config import emit_config, parse_config_payload
from gaussbsde.drivers import GaussianDriverSpec, build_clock
from gaussbsde.experiments import KINDS
from gaussbsde.scenario import NONLINEARITIES

FEW = settings(deadline=None, max_examples=25)
coefficient = st.floats(-3.0, 3.0, allow_nan=False)


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
def generators(draw):
    phi = draw(st.sampled_from(sorted(NONLINEARITIES)))
    tree = {key: draw(coefficient) for key in ("c0", "c1", "c2", "c3", "kappa_x", "kappa_y", "kappa_z")}
    tree.update(phi=phi, c4=0.0 if phi == "none" else draw(coefficient))
    breaks = sorted(draw(st.sets(st.integers(1, 99), max_size=3)))
    if draw(st.booleans()):
        values = [draw(coefficient) for _ in range(len(breaks) + 1)]
        tree["rho_table"] = {"breaks": [b / 100 for b in breaks], "values": values}
    return tree


@st.composite
def scenarios(draw):
    phi = draw(st.sampled_from(sorted(NONLINEARITIES)))
    terminal = {key: draw(coefficient) for key in ("a", "b", "lambda_mean")}
    terminal.update(phi=phi, c=0.0 if phi == "none" else draw(coefficient))
    return {"terminal": terminal, "generator": draw(generators())}


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
        "params": {key: draw(st.integers(0, 9)) for key in spec.required},
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
