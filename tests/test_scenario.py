import numpy as np
import pytest

from gaussbsde.drivers import GaussianDriverSpec
from gaussbsde.errors import EmptyCloud, ProbeViolation
from gaussbsde.measures import LawFeatures
from gaussbsde.scenario import (
    NONLINEARITIES,
    GeneratorSpec,
    ScenarioSpec,
    TerminalSpec,
    eval_generator,
    eval_terminal,
    generator_order_probe,
    law_features,
    lipschitz_audit,
    terminal_order_probe,
)

BROWNIAN = GaussianDriverSpec.brownian(1.0)


def scn(terminal=None, generator=None):
    return ScenarioSpec(
        terminal=terminal or TerminalSpec(b=1.0),
        generator=generator or GeneratorSpec(),
        driver=BROWNIAN,
    )


class TestEval:
    def test_identity_terminal(self):
        assert eval_terminal(TerminalSpec(b=1.0), 0.7, LawFeatures()) == pytest.approx(0.7)

    def test_constant_terminal(self):
        assert eval_terminal(TerminalSpec(a=5.0), 123.0, LawFeatures(mean_x=9.0)) == 5.0

    def test_mean_term(self):
        g = TerminalSpec(b=1.0, lambda_mean=0.5)
        assert eval_terminal(g, 1.0, LawFeatures(mean_x=2.0)) == pytest.approx(2.0)

    def test_zero_generator(self):
        assert eval_generator(GeneratorSpec(), 0.3, 1.0, 2.0, 3.0, LawFeatures()) == 0.0

    def test_mean_y_coupling(self):
        f = GeneratorSpec(kappa_y=0.3)
        assert eval_generator(f, 0.0, 0, 0, 0, LawFeatures(mean_y=2.0)) == pytest.approx(0.6)

    def test_linear_in_y(self):
        f = GeneratorSpec(c2=-1.0)
        assert eval_generator(f, 0.0, 0.0, 1.5, 0.0, LawFeatures()) == pytest.approx(-1.5)

    def test_vectorized(self):
        f = GeneratorSpec(c2=2.0, phi="tanh", c4=0.5)
        y = np.array([-1.0, 0.0, 2.0])
        out = eval_generator(f, 0.0, 0.0, y, 0.0, LawFeatures())
        np.testing.assert_allclose(out, 2 * y + 0.5 * np.tanh(y))

    def test_rho_table(self):
        f = GeneratorSpec(c0=1.0, rho_breaks=(0.5,), rho_values=(2.0, -1.0))
        assert eval_generator(f, 0.25, 0, 0, 0, LawFeatures()) == 2.0
        assert eval_generator(f, 0.75, 0, 0, 0, LawFeatures()) == -1.0


STACK = (
    GeneratorSpec(c0=0.5, c2=-1.0, phi="tanh", c4=0.3, kappa_y=0.2),
    GeneratorSpec(c1=0.4, c3=0.1, phi="sin", c4=-0.5, rho_breaks=(0.3, 0.6), rho_values=(1.0, 2.0, -1.5)),
    GeneratorSpec(kappa_x=0.7, kappa_z=-0.2),
    GeneratorSpec(c2=0.25, phi="clip", c4=1.0),
)


def full_formula(f, t, x, y, z, feats):
    """f with every term evaluated, zero coefficients included."""
    phi = NONLINEARITIES[f.phi][0]
    core = f.c0 + f.c1 * x + f.c2 * y + f.c3 * z + f.c4 * phi(y)
    core = core + f.kappa_x * feats.mean_x + f.kappa_y * feats.mean_y + f.kappa_z * feats.mean_z
    return f.rho(t) * core


class TestGeneratorStack:
    """Each generator of a mixed set is the plain formula."""

    @pytest.mark.parametrize("f", STACK + (GeneratorSpec(), GeneratorSpec(c0=2.0)))
    def test_zero_skip_is_exact_on_finite_inputs(self, f):
        # the phi term is left out when c4 is 0, which adds nothing on
        # finite inputs
        rng = np.random.default_rng(7)
        t = rng.uniform(0.0, 1.0, size=200)
        x, y, z, *means = 3.0 * rng.normal(size=(6, 200))
        feats = LawFeatures(*means)
        np.testing.assert_array_equal(eval_generator(f, t, x, y, z, feats), full_formula(f, t, x, y, z, feats))

    def test_result_has_the_shape_of_the_formula(self):
        # a law-only generator and a constant one are still evaluated per particle
        x = np.zeros(5)
        law_only = eval_generator(GeneratorSpec(kappa_y=0.5), 0.0, x, x, x, LawFeatures(mean_y=2.0))
        np.testing.assert_array_equal(law_only, np.ones(5))
        assert eval_generator(GeneratorSpec(), 0.0, x, x, x, LawFeatures()).shape == (5,)


class TestAudit:
    def test_linear_y_generator(self):
        gen = GeneratorSpec(c2=-1.0)
        report = lipschitz_audit(scn(generator=gen), seed=0)
        assert gen.lipschitz == 1.0
        assert gen.mean_y_sensitivity == (0.0, 0.0)
        assert report.max_ratio_f <= 1.0 + 1e-9

    def test_mean_field_generator(self):
        gen = GeneratorSpec(kappa_y=0.3)
        report = lipschitz_audit(scn(generator=gen), seed=0)
        assert gen.lipschitz == pytest.approx(0.3)
        assert gen.mean_y_sensitivity[1] == pytest.approx(0.3)
        assert report.max_ratio_f <= 0.3 + 1e-9

    def test_identity_terminal_constant(self):
        term = TerminalSpec(b=1.0)
        report = lipschitz_audit(scn(terminal=term), seed=0)
        assert term.lipschitz == 1.0
        assert report.max_ratio_g <= 1.0 + 1e-9

    def test_constants_monotone_under_added_terms(self):
        base = GeneratorSpec(c2=0.5)
        extended = GeneratorSpec(c2=0.5, c3=0.2, kappa_y=0.1)
        assert extended.lipschitz >= base.lipschitz

    def test_symbolic_constants(self):
        g = TerminalSpec(b=2.0, phi="sin", c=0.5, lambda_mean=-0.25)
        assert g.lipschitz == pytest.approx(2.75)
        f = GeneratorSpec(c1=1.0, c2=-2.0, kappa_z=0.5, rho_breaks=(0.5,), rho_values=(1.0, -3.0))
        assert f.lipschitz == pytest.approx(3 * 3.5)

    def test_mean_sensitivity_with_rho(self):
        f = GeneratorSpec(kappa_y=0.4, rho_breaks=(0.5,), rho_values=(1.0, 2.0))
        assert f.mean_y_sensitivity == (pytest.approx(0.4), pytest.approx(0.8))

    def test_probe_violation_on_corrupted_constant(self, monkeypatch):
        bad = scn(generator=GeneratorSpec(c2=1.0))
        monkeypatch.setattr(type(bad.generator), "lipschitz", property(lambda self: 0.1))
        with pytest.raises(ProbeViolation):
            lipschitz_audit(bad, seed=0)

    @pytest.mark.parametrize(
        "part, spec, message",
        [
            ("generator", GeneratorSpec(c2=1.0, phi="sin", c4=0.5), "generator ratio"),
            ("generator", GeneratorSpec(kappa_y=1.0, rho_breaks=(0.5,), rho_values=(1.0, -2.0)), "generator ratio"),
            ("terminal", TerminalSpec(b=1.0, phi="tanh", c=0.5), "terminal ratio"),
            ("terminal", TerminalSpec(lambda_mean=1.0), "terminal ratio"),
        ],
    )
    def test_understated_constant_raises(self, monkeypatch, part, spec, message):
        # the probes, drawn and evaluated as arrays, still find a ratio above
        # a symbolic constant stated at a tenth of its value
        true_constant = spec.lipschitz
        monkeypatch.setattr(type(spec), "lipschitz", property(lambda self: 0.1 * true_constant))
        with pytest.raises(ProbeViolation, match=message):
            lipschitz_audit(scn(**{part: spec}), seed=3)


class TestOrderProbes:
    def test_constant_gap(self):
        assert generator_order_probe(GeneratorSpec(c0=0.0), GeneratorSpec(c0=1.0), seed=0).ordered

    def test_equality(self):
        f = GeneratorSpec(c2=1.0)
        assert generator_order_probe(f, f, seed=0).ordered

    def test_counterexample(self):
        probe = generator_order_probe(GeneratorSpec(c0=1.0), GeneratorSpec(c0=0.0), seed=0)
        assert not probe.ordered
        assert probe.counterexample is not None

    def test_terminal_probe(self):
        assert terminal_order_probe(TerminalSpec(b=1.0), TerminalSpec(a=1.0, b=1.0), seed=0).ordered
        assert not terminal_order_probe(TerminalSpec(a=2.0), TerminalSpec(a=1.0), seed=0).ordered


class TestLawFeatures:
    def test_means(self):
        feats = law_features(np.array([0.0, 0.0]), np.array([1.0, 3.0]), np.array([0.0, 0.0]))
        assert feats.mean_y == pytest.approx(2.0)

    def test_zero_cloud(self):
        feats = law_features(np.zeros(4), np.zeros(4), np.zeros(4))
        assert feats.mean_x == feats.mean_y == feats.mean_z == 0.0

    def test_duplication_invariance(self):
        x, y, z = np.array([1.0, 2.0]), np.array([0.5, 1.5]), np.array([-1.0, 1.0])
        a = law_features(x, y, z)
        b = law_features(np.tile(x, 2), np.tile(y, 2), np.tile(z, 2))
        assert (a.mean_x, a.mean_y, a.mean_z) == (b.mean_x, b.mean_y, b.mean_z)

    def test_empty(self):
        with pytest.raises(EmptyCloud):
            law_features(np.array([]), np.array([]), np.array([]))


class TestLawTermDerivative:
    def test_mean_coupling_is_exact_lions_derivative(self):
        # directional derivative of nu -> f(t,x,y,z,nu) along Y-perturbations
        # must equal kappa_y * mean(eta) to 1e-10
        f = GeneratorSpec(c2=-0.5, kappa_y=0.3)
        rng = np.random.default_rng(10)
        xi, eta = rng.normal(size=2000), rng.normal(size=2000)
        x = z = 0.25

        def f_of_law(samples):
            feats = law_features(np.zeros_like(samples), samples, np.zeros_like(samples))
            return eval_generator(f, 0.1, x, 1.0, z, feats)

        base = f_of_law(xi)
        for eps in (1e-2, 1e-4):
            quotient = (f_of_law(xi + eps * eta) - base) / eps
            assert abs(quotient - 0.3 * np.mean(eta)) < 1e-10

    def test_law_free_reduces_to_deterministic(self):
        f = GeneratorSpec(c1=0.5, c2=-1.0, c3=0.2, phi="sin", c4=0.1)
        feats_a = LawFeatures(mean_x=5.0, mean_y=-3.0, mean_z=7.0)
        feats_b = LawFeatures()
        args = (0.3, 0.6, -0.4, 1.1)
        assert eval_generator(f, *args, feats_a) == eval_generator(f, *args, feats_b)


class TestSpecValidation:
    def test_phi_none_needs_zero_coefficient(self):
        with pytest.raises(ValueError):
            TerminalSpec(phi="none", c=1.0)
        with pytest.raises(ValueError):
            GeneratorSpec(phi="none", c4=2.0)

    def test_unknown_phi(self):
        with pytest.raises(ValueError):
            TerminalSpec(phi="relu", c=1.0)

    def test_rho_table_shape(self):
        with pytest.raises(ValueError):
            GeneratorSpec(rho_breaks=(0.5,), rho_values=(1.0,))
