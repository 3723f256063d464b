import json

import numpy as np
import pytest

from gaussbsde import drivers, solver, theorems
from gaussbsde.cli import main
from gaussbsde.drivers import GaussianDriverSpec, build_clock, sample_paths
from gaussbsde.errors import HypothesisUnsatisfied, NonFiniteSolution, UnsupportedScenario
from gaussbsde.pack import (
    constant_generator_scenario,
    contraction_mean_field_scenario,
    gaussian_scenario,
    identity_scenario,
    linear_scenario,
    mean_field_scenario,
    shift_generator,
    shift_terminal,
)
from gaussbsde.measures import LawFeatures
from gaussbsde.scenario import GeneratorSpec, ScenarioSpec, TerminalSpec, eval_generator
from gaussbsde.experiments import _suite_entries
from gaussbsde.reporting import canonical_json
from gaussbsde.rng import derived_seed
from gaussbsde.solver import SolverConfig, representation_solve_stack, short_horizon_table, solve_auxiliary
from gaussbsde.theorems import (
    comparison_check,
    converse_comparison_check,
    lsi_check,
    representation_limit_check,
    stability_check,
    t2_check,
    transport_constants,
    z_bound_check,
)

from test_solver import _drawn_table

BROWNIAN = GaussianDriverSpec.brownian(1.0)
FBM = GaussianDriverSpec.fbm(0.7, 1.0)
SMALL = SolverConfig(n_time=16, n_particles=4000)
# the Brownian covariance min(s, t) as a table: a clock the node count cannot refine
_GRID = [0.125 * (i + 1) for i in range(8)]
CUSTOM = GaussianDriverSpec.custom(
    np.array(_GRID), [[min(t, s) for s in _GRID[: i + 1]] for i, t in enumerate(_GRID)], 1.0
)


class TestTransportConstants:
    def test_unit_lipschitz_terminal(self):
        clock = build_clock(BROWNIAN, 9)
        assert transport_constants(1.0, 0.0, clock, t=0.3) == (2.0, 2.0)

    def test_scaling_in_l_g(self):
        clock = build_clock(BROWNIAN, 9)
        assert transport_constants(2.0, 0.0, clock, 0.0)[0] == 8.0

    def test_terminal_time_value(self):
        clock = build_clock(BROWNIAN, 9)
        for l_g, l_f in ((1.0, 0.5), (2.0, 1.0)):
            c_tr, _ = transport_constants(l_g, l_f, clock, t=1.0)
            assert c_tr == pytest.approx(2 * l_g ** 2, abs=1e-14)

    def test_monotone_in_constants(self):
        clock = build_clock(BROWNIAN, 9)
        base = transport_constants(1.0, 0.5, clock, 0.2)
        more_g = transport_constants(1.5, 0.5, clock, 0.2)
        more_f = transport_constants(1.0, 0.8, clock, 0.2)
        for a, b in ((base, more_g), (base, more_f)):
            assert b[0] >= a[0]
            assert b[1] >= a[1]

    def test_monotone_in_horizon(self):
        short = transport_constants(1.0, 0.5, build_clock(GaussianDriverSpec.brownian(1.0), 9), 0.0)
        long = transport_constants(1.0, 0.5, build_clock(GaussianDriverSpec.brownian(2.0), 9), 0.0)
        assert long[0] >= short[0]
        assert long[1] >= short[1]

    def test_input_validation(self):
        clock = build_clock(BROWNIAN, 9)
        with pytest.raises(ValueError):
            transport_constants(-1.0, 0.0, clock, 0.0)
        with pytest.raises(ValueError):
            transport_constants(1.0, -0.5, clock, 0.0)


class TestComparison:
    def test_identical_scenarios(self):
        scn = mean_field_scenario(BROWNIAN)
        report = comparison_check(scn, scn, SMALL, [0.0, 0.5, 1.0], seed=1)
        assert report.passed
        assert report.measurements["max_violation_fraction"] == 0.0

    def test_constant_generator_gap(self):
        scn1 = constant_generator_scenario(BROWNIAN, 0.0)
        scn2 = constant_generator_scenario(BROWNIAN, 1.0)
        report = comparison_check(scn1, scn2, SMALL, [0.0, 0.5], seed=2)
        assert report.passed

    def test_mean_field_terminal_shift(self):
        scn1 = mean_field_scenario(BROWNIAN)
        scn2 = shift_terminal(scn1, 1.0)
        report = comparison_check(scn1, scn2, SMALL, [0.0, 0.5, 1.0], seed=3)
        assert report.passed

    def test_each_field_evaluated_once_per_time(self, monkeypatch):
        # 2 scenarios x 2 grids x 3 times; the scheme-error and violation
        # loops share the evaluations
        calls = []
        evaluate = theorems.transfer_evaluate
        monkeypatch.setattr(theorems, "transfer_evaluate", lambda *args: calls.append(args) or evaluate(*args))
        scn = mean_field_scenario(BROWNIAN)
        comparison_check(scn, shift_terminal(scn, 1.0), SMALL, [0.0, 0.5, 1.0], seed=3)
        assert len(calls) == 12

    def test_one_draw_for_both_grids(self, monkeypatch):
        # the coarse grid reads the first N rows of the refined grid's
        # (2N, n/2) draw, in reverse: its step i meets the fine grid's step N + i
        draws = []
        draw = solver.standard_normals
        monkeypatch.setattr(solver, "standard_normals", lambda *args: draws.append(args) or draw(*args))
        scn = mean_field_scenario(BROWNIAN)
        comparison_check(scn, shift_terminal(scn, 1.0), SMALL, [0.0, 0.5, 1.0], seed=3)
        assert [(shape, tags) for _, shape, *tags in draws] == [((32, 2000), ["solver-increments"])]

    def test_refuses_z_law_dependence(self):
        scn1 = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(kappa_z=0.5), BROWNIAN)
        scn2 = shift_terminal(scn1, 1.0)
        with pytest.raises(HypothesisUnsatisfied):
            comparison_check(scn1, scn2, SMALL, [0.5], seed=4)

    def test_refuses_negative_mean_coupling_on_both(self):
        scn1 = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(kappa_y=-0.5), BROWNIAN)
        scn2 = ScenarioSpec(TerminalSpec(a=1.0, b=1.0), GeneratorSpec(kappa_y=-0.5), BROWNIAN)
        with pytest.raises(HypothesisUnsatisfied):
            comparison_check(scn1, scn2, SMALL, [0.5], seed=5)

    def test_one_sided_mean_coupling_allowed(self):
        # f1's coupling is negative, but f2 satisfies the derivative condition
        # and the constant offsets keep f1 <= f2 on the probe range
        scn1 = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(c0=-5.0, kappa_y=-0.2), BROWNIAN)
        scn2 = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(c0=5.0, kappa_y=0.2), BROWNIAN)
        report = comparison_check(scn1, scn2, SMALL, [0.5], seed=6)
        assert report.passed

    def test_refuses_unordered_generators(self):
        scn1 = constant_generator_scenario(BROWNIAN, 1.0)
        scn2 = constant_generator_scenario(BROWNIAN, 0.0)
        with pytest.raises(HypothesisUnsatisfied):
            comparison_check(scn1, scn2, SMALL, [0.5], seed=7)

    def test_refuses_different_drivers(self):
        scn1 = identity_scenario(BROWNIAN)
        scn2 = identity_scenario(GaussianDriverSpec.fbm(0.7, 1.0))
        with pytest.raises(HypothesisUnsatisfied):
            comparison_check(scn1, scn2, SMALL, [0.5], seed=8)

    def test_refuses_custom_driver(self):
        # the 2N-node solve would repeat the N-node one: a scheme error of 0
        scn = mean_field_scenario(CUSTOM)
        with pytest.raises(UnsupportedScenario):
            comparison_check(scn, shift_terminal(scn, 1.0), SMALL, [0.0, 0.5], seed=8)


class TestRepresentationLimit:
    def test_constant_generator_exact(self):
        scn = constant_generator_scenario(BROWNIAN, 2.0)
        report = representation_limit_check(scn, 0.25, 1.0, 0.5, [0.2, 0.1, 0.05], SMALL, seed=9)
        assert report.passed
        np.testing.assert_allclose(report.measurements["A"], 2.0, atol=1e-8)
        np.testing.assert_allclose(report.measurements["B"], 2.0, atol=1e-12)

    def test_linear_mean_field(self):
        scn = contraction_mean_field_scenario(BROWNIAN)
        cfg = SolverConfig(n_time=16, n_particles=16000)
        report = representation_limit_check(scn, 0.25, 1.0, 0.5, [0.2, 0.1, 0.05], cfg, seed=10)
        assert report.passed
        assert report.measurements["f_at_frozen_law"] == pytest.approx(-0.7)

    def test_clock_integral_matches_the_cell_loop(self):
        # f and V read at all of [a, b]'s nodes at once against the loop over
        # its cells, on a time factor whose break falls inside (a, b)
        gen = GeneratorSpec(c0=0.3, c2=-0.7, c3=0.2, kappa_y=0.4, rho_breaks=(0.31,), rho_values=(1.0, 2.5))
        scn = ScenarioSpec(TerminalSpec(b=1.0), gen, GaussianDriverSpec.fbm(0.7, 1.0))
        clock = build_clock(scn.driver, 257)
        feats = LawFeatures(mean_x=0.0, mean_y=1.0, mean_z=0.5)
        a, b = 0.25, 0.45
        nodes = sorted({a, b, 0.31, *(t for t in clock.grid_t if a < t < b)})
        expected = 0.0
        for lo, hi in zip(nodes, nodes[1:]):
            expected += eval_generator(gen, float(lo), 0.0, 1.0, 0.5, feats) * (clock.value(hi) - clock.value(lo))
        assert len(nodes) > 50
        assert theorems._integrate_f_dv(scn, clock, a, b, 1.0, 0.5) == expected

    def test_rejects_increasing_eps(self):
        scn = identity_scenario(BROWNIAN)
        with pytest.raises(ValueError):
            representation_limit_check(scn, 0.25, 1.0, 0.5, [0.05, 0.1], SMALL, seed=11)

    def test_rejects_state_dependent_generator(self):
        scn = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(c1=1.0), BROWNIAN)
        with pytest.raises(UnsupportedScenario):
            representation_limit_check(scn, 0.25, 1.0, 0.5, [0.1], SMALL, seed=12)

    def test_rejects_fbm_at_origin(self):
        scn = identity_scenario(GaussianDriverSpec.fbm(0.7, 1.0))
        with pytest.raises(UnsupportedScenario):
            representation_limit_check(scn, 0.0, 1.0, 0.5, [0.1], SMALL, seed=13)


class TestConverseComparison:
    PROBES = [(0.1, -1.0, 0.5), (0.4, 0.5, 0.5), (0.7, 2.0, 0.5)]

    def test_constant_gap(self):
        scn1 = constant_generator_scenario(BROWNIAN, 1.0)
        scn2 = constant_generator_scenario(BROWNIAN, 2.0)
        report = converse_comparison_check(scn1, scn2, SMALL, self.PROBES, 0.1, seed=14)
        assert report.passed
        for row in report.measurements["probes"]:
            # constant offset integrates to (f2 - f1) * eps on the Brownian clock
            assert row["y_margin"] == pytest.approx(1.0 * 0.1, abs=1e-8)
            assert row["f_margin"] == pytest.approx(1.0)

    def test_equal_generators(self):
        scn = mean_field_scenario(BROWNIAN, alpha=0.2)
        report = converse_comparison_check(scn, scn, SMALL, self.PROBES, 0.1, seed=15)
        assert report.passed

    def test_mean_field_offset(self):
        scn1 = mean_field_scenario(BROWNIAN, alpha=0.2)
        scn2 = shift_generator(scn1, 0.1)
        report = converse_comparison_check(scn1, scn2, SMALL, self.PROBES, 0.1, seed=16)
        assert report.passed

    def test_unordered_solutions_not_asserted(self, tmp_path):
        # Y^1 > Y^2 at every probe: the hypothesis is unobserved, so the
        # verdict is None, and a run writes it as null and exits 0
        scn1 = constant_generator_scenario(BROWNIAN, 2.0)
        scn2 = constant_generator_scenario(BROWNIAN, 0.0)
        report = converse_comparison_check(scn1, scn2, SMALL, self.PROBES, 0.1, seed=17)
        assert report.passed is None
        assert report.notes == ("solution ordering fails at a probe; generator ordering not asserted",)
        assert not report.measurements["y_ordering_observed"]
        tree = {
            "kind": "converse", "seed": 17, "driver": {"kind": "brownian", "T": 1.0},
            "scenario": {"terminal": {"b": 1.0}, "generator": {"c0": 2.0}},
            "scenario_2": {"terminal": {"b": 1.0}, "generator": {"c0": 0.0}},
            "solver": {"n_time": SMALL.n_time, "n_particles": SMALL.n_particles},
            "params": {"probe_grid": [list(p) for p in self.PROBES], "eps": 0.1},
        }
        (tmp_path / "converse.json").write_text(json.dumps(tree))
        out = tmp_path / "out"
        assert main(["run", str(tmp_path / "converse.json"), "--out", str(out), "--quiet"]) == 0
        [entry] = json.loads((out / "manifest.json").read_text())["experiments"]
        written = json.loads((out / "reports" / "converse__00_converse_comparison.json").read_text())
        assert entry["pass"] is None and written["pass"] is None
        assert written["notes"] == list(report.notes)


TANH = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(c2=-0.5, phi="tanh", c4=0.8, kappa_y=0.2), BROWNIAN)


class TestShortHorizonDraw:
    """A short-horizon check of affine generators draws nothing: its one
    moment table is exact.  A check of a nonlinear generator draws once, and
    every eps of ``representation`` and every probe of ``converse`` reads
    that draw."""

    def test_one_draw_per_check(self, monkeypatch):
        draws = []
        draw = solver.standard_normals
        monkeypatch.setattr(solver, "standard_normals", lambda *args: draws.append(args) or draw(*args))
        scn = contraction_mean_field_scenario(BROWNIAN)
        representation_limit_check(scn, 0.25, 1.0, 0.5, [0.2, 0.1, 0.05], SMALL, seed=4)
        converse_comparison_check(scn, shift_generator(scn, 0.1), SMALL, TestConverseComparison.PROBES * 2, 0.1, seed=4)
        assert draws == []
        converse_comparison_check(TANH, shift_generator(TANH, 0.1), SMALL, TestConverseComparison.PROBES * 2, 0.1, seed=4)
        assert draws == [(derived_seed(4, "converse"), (16, 2000), "repr-increments")]

    def test_one_moment_table_per_check(self, monkeypatch):
        # an affine check builds no particle moments; every sub-grid of a
        # nonlinear check reads the check's one table: one _moments for the
        # three probe times of converse
        built = []
        moments = solver._moments
        monkeypatch.setattr(solver, "_moments", lambda *args: built.append(len(args[0])) or moments(*args))
        scn = contraction_mean_field_scenario(BROWNIAN)
        representation_limit_check(scn, 0.25, 1.0, 0.5, [0.2, 0.1, 0.05], SMALL, seed=4)
        converse_comparison_check(scn, shift_generator(scn, 0.1), SMALL, TestConverseComparison.PROBES, 0.1, seed=4)
        assert built == []
        converse_comparison_check(TANH, shift_generator(TANH, 0.1), SMALL, TestConverseComparison.PROBES, 0.1, seed=4)
        assert built == [SMALL.n_time + 1]

    @pytest.mark.parametrize("pair", ["mean_field", "tanh"])
    def test_converse_rows_are_the_probe_stacks(self, pair):
        # the probes at one time are one stack on the check's draw; each of
        # its rows is the two-row stack of its own probe on that draw
        if pair == "mean_field":
            scn1 = mean_field_scenario(BROWNIAN, alpha=0.2)
        else:
            scn1 = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(c2=-0.5, phi="tanh", c4=0.8, kappa_y=0.2), BROWNIAN)
        scn2 = shift_generator(scn1, 0.1)
        probes = [(0.4, -1.0, 0.5), (0.1, 0.5, 0.5), (0.4, 0.5, -0.3), (0.4, 2.0, 0.5)]
        rows = converse_comparison_check(scn1, scn2, SMALL, probes, 0.1, seed=21).measurements["probes"]
        clock = theorems._short_horizon_clock(BROWNIAN, SMALL.n_time)
        table = short_horizon_table(SMALL, derived_seed(21, "converse"), [scn1.generator, scn2.generator])
        for row, (t, y, z) in zip(rows, probes):
            assert (row["t"], row["y"], row["z"]) == (t, y, z)  # probe_grid order
            rep1, rep2 = representation_solve_stack([(scn1, y, z), (scn2, y, z)], clock, t, 0.1, table)
            assert row["y_eps_1"] == pytest.approx(rep1.value, rel=0, abs=1e-11)
            assert row["y_eps_2"] == pytest.approx(rep2.value, rel=0, abs=1e-11)
            assert row["mc_tol"] == pytest.approx(3.0 * (rep1.std_error + rep2.std_error), rel=0, abs=1e-11)

    def test_affine_values_do_not_depend_on_the_draw(self):
        # on an affine stack the short-horizon values are the scheme's exact
        # values: two seeds give them bit for bit, and a solve on a drawn
        # table gives them to 1e-12
        entries = dict(_suite_entries(20260809))
        rep, conv = entries["representation"], entries["converse"]
        p, q = rep.params, conv.params
        reps = [
            representation_limit_check(rep.scenario, p["t"], p["y"], p["z"], p["eps_list"], rep.solver, seed)
            for seed in (1, 2)
        ]
        assert reps[0].measurements["A"] == reps[1].measurements["A"]
        clock = theorems._short_horizon_clock(rep.scenario.driver, rep.solver.n_time)
        drawn = _drawn_table(rep.solver, 1)
        a_drawn = [
            (representation_solve_stack([(rep.scenario, p["y"], p["z"])], clock, p["t"], eps, drawn)[0].value
             - p["y"]) / eps
            for eps in p["eps_list"]
        ]
        np.testing.assert_allclose(reps[0].measurements["A"], a_drawn, rtol=1e-12, atol=0)
        convs = [
            converse_comparison_check(conv.scenario, conv.scenario_2, conv.solver, q["probe_grid"], q["eps"], seed)
            for seed in (1, 2)
        ]
        clock = theorems._short_horizon_clock(conv.scenario.driver, conv.solver.n_time)
        drawn = _drawn_table(conv.solver, 1)
        for key in ("y_eps_1", "y_eps_2"):
            values = [[row[key] for row in c.measurements["probes"]] for c in convs]
            assert values[0] == values[1]
        for row in convs[0].measurements["probes"]:
            starts = [(scn, row["y"], row["z"]) for scn in (conv.scenario, conv.scenario_2)]
            rep1, rep2 = representation_solve_stack(starts, clock, row["t"], q["eps"], drawn)
            np.testing.assert_allclose([row["y_eps_1"], row["y_eps_2"]], [rep1.value, rep2.value], rtol=1e-12, atol=0)

    def test_affine_reports_identical_across_seeds(self):
        # the suite's affine checks solve on exact moments: their reports,
        # printed as a run writes them, differ by seed in the seed alone,
        # even for values that sit at rounding ties of their 12-digit prints
        entries = dict(_suite_entries(20260809))
        rep, conv = entries["representation"], entries["converse"]
        p, q = rep.params, conv.params
        printed = {"representation": set(), "converse": set()}
        for seed in range(1, 6):
            reports = {
                "representation": representation_limit_check(
                    rep.scenario, p["t"], p["y"], p["z"], p["eps_list"], rep.solver, seed
                ),
                "converse": converse_comparison_check(
                    conv.scenario, conv.scenario_2, conv.solver, q["probe_grid"], q["eps"], seed
                ),
            }
            for name, report in reports.items():
                payload = report.payload()
                assert payload.pop("seed") == seed
                printed[name].add(canonical_json(payload))
        assert {name: len(texts) for name, texts in printed.items()} == {"representation": 1, "converse": 1}

    def test_suite_checks_pass_over_40_seeds(self):
        # the suite's representation and converse entries (the benchmark's
        # short_horizon configs): no failed verdict and no unobserved ordering
        entries = dict(_suite_entries(20260809))
        rep, conv = entries["representation"], entries["converse"]
        p, q = rep.params, conv.params
        for seed in range(1, 41):
            assert representation_limit_check(
                rep.scenario, p["t"], p["y"], p["z"], p["eps_list"], rep.solver, seed
            ).passed, seed
            assert converse_comparison_check(
                conv.scenario, conv.scenario_2, conv.solver, q["probe_grid"], q["eps"], seed
            ).passed, seed


class TestStability:
    def test_identical_scenarios(self):
        scn = linear_scenario(BROWNIAN, 0.5)
        report = stability_check(scn, scn, SMALL, seed=18)
        assert report.passed
        assert report.measurements["ratio"] == "undefined-zero"

    def test_terminal_shift(self):
        scn1 = linear_scenario(BROWNIAN, 0.5)
        report = stability_check(scn1, shift_terminal(scn1, 0.5), SMALL, seed=19)
        assert report.passed
        for ratio in report.measurements["ratio"]:
            assert np.isfinite(ratio)

    def test_constant_generator_shift_closed_form(self):
        # f2 = f1 + delta: dY_t = delta (V_T - V_t), dZ = 0
        delta = 0.5
        scn1 = constant_generator_scenario(BROWNIAN, 0.0)
        scn2 = constant_generator_scenario(BROWNIAN, delta)
        report = stability_check(scn1, scn2, SMALL, seed=20)
        assert report.passed
        lhs = report.measurements["lhs"][0]
        rhs = report.measurements["rhs"][0]
        assert lhs == pytest.approx(delta ** 2, rel=0.05)   # sup at t=0
        assert rhs == pytest.approx(delta ** 2, rel=0.05)   # (int delta dV)^2

    @pytest.mark.parametrize("shift, calls", [(shift_terminal, 0), (shift_generator, 4)])
    def test_generator_gap_evaluated_only_for_different_generators(self, monkeypatch, shift, calls):
        # equal generators have a gap of exactly 0; different ones are
        # evaluated for both scenarios on both grids, each on every path
        # once, one block of paths a call
        seen = []
        evaluate = theorems.generator_dv_on_paths
        monkeypatch.setattr(theorems, "generator_dv_on_paths", lambda *args: seen.append(args) or evaluate(*args))
        scn = linear_scenario(BROWNIAN, 0.5)
        assert stability_check(scn, shift(scn, 0.5), SMALL, seed=19).passed
        assert sum(len(args[2]) for args in seen) == calls * SMALL.n_particles

    def test_one_draw_for_both_grids(self, monkeypatch):
        draws = []
        draw = solver.standard_normals
        monkeypatch.setattr(solver, "standard_normals", lambda *args: draws.append(args) or draw(*args))
        scn = linear_scenario(BROWNIAN, 0.5)
        stability_check(scn, shift_terminal(scn, 0.5), SMALL, seed=19)
        assert [(shape, tags) for _, shape, *tags in draws] == [((32, 2000), ["solver-increments"])]

    @pytest.mark.parametrize("driver", [BROWNIAN, FBM], ids=["brownian", "fbm"])
    def test_blocked_lhs_is_the_full_array_formula(self, monkeypatch, driver):
        # the left side runs one block of paths at a time: with blocks of
        # 200 // 17 = 11 paths, the last one partial, it is the mean of the
        # full arrays' per-path max dy^2 + sum dz^2 dv
        monkeypatch.setattr(drivers, "_BLOCK_ELEMENTS", 200)
        scn = ScenarioSpec(TerminalSpec(b=2.0, phi="sin", c=1.0), GeneratorSpec(c2=0.3), driver)
        cfg = SolverConfig(n_time=16, n_particles=1000)
        [(f1, f2), _] = theorems._refined_fields(scn, shift_terminal(scn, 0.5), cfg, seed=8)
        lhs, _ = theorems._stability_ratio(scn, shift_terminal(scn, 0.5), f1, f2, 1000, seed=8)
        clock = f1.clock
        x = sample_paths(driver, clock.grid_t, 1000, theorems.derived_seed(8, "stability-eval", 16)).samples
        scaled = x / f1.scales  # the gap field, by Horner's rule on the whole arrays
        dy = solver._polyval(scaled, (f1.u_coeffs - f2.u_coeffs).T)
        dz = solver._polyval(scaled[:, :-1], (f1.v_coeffs - f2.v_coeffs).T)
        assert lhs == float(np.mean(np.max(dy ** 2, axis=1) + (dz ** 2 * np.diff(clock.grid_V)).sum(axis=1)))

    def test_refuses_custom_driver(self):
        # the refined grid would be the coarse one again: a ratio drift of 0
        scn = linear_scenario(CUSTOM, 0.5)
        with pytest.raises(UnsupportedScenario):
            stability_check(scn, shift_terminal(scn, 0.5), SMALL, seed=19)


class TestGaussianFamilyChecks:
    def test_t2_sharp_at_terminal_time(self):
        scn = gaussian_scenario(BROWNIAN, lam=1.0)
        report = t2_check(scn, 1.0, [0.0, 0.5, 1.0, 2.0], seed=21)
        assert report.passed
        assert report.measurements["c_tr_y"] == pytest.approx(2.0, abs=1e-12)
        assert report.measurements["slack"] == pytest.approx(0.0, abs=1e-10)
        for row in report.measurements["shifts"][1:]:
            assert row["ratio_quadratic"] == pytest.approx(2.0, abs=1e-10)

    def test_t2_interior_time_has_slack(self):
        scn = gaussian_scenario(BROWNIAN, lam=1.0)
        report = t2_check(scn, 0.5, [1.0], seed=22)
        assert report.passed
        assert report.measurements["sharp_constant"] == pytest.approx(1.0)
        assert report.measurements["c_tr_y"] == pytest.approx(2.0)

    def test_t2_zero_shift(self):
        scn = gaussian_scenario(BROWNIAN)
        report = t2_check(scn, 1.0, [0.0], seed=23)
        row = report.measurements["shifts"][0]
        assert row["w2_squared"] == 0.0 and row["relative_entropy"] == 0.0

    def test_t2_at_large_variance(self):
        # c2 = 400: sigma^2 = e^400 / 2, so H = 0.5^2 / (2 sigma^2) is far
        # below the rounding of 1, and C_Tr * H is still about 2e4 >= W2^2
        scn = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(c2=400.0), BROWNIAN)
        report = t2_check(scn, 0.5, [0.5], seed=26)
        (row,) = report.measurements["shifts"]
        assert row["relative_entropy"] == pytest.approx(0.125 / report.measurements["sigma_sq"], rel=1e-12, abs=0.0)
        assert report.measurements["c_tr_y"] * row["relative_entropy"] == pytest.approx(2e4, rel=0.1)
        assert report.passed

    @pytest.mark.parametrize("check, values", [(t2_check, [0.5]), (lsi_check, [0.5])])
    def test_family_past_the_float_range_named(self, check, values):
        # c2 = 800: e^(2 c2 (V_T - V_t)) overflows, as does a product past it
        scn = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(c2=800.0), BROWNIAN)
        with pytest.raises(NonFiniteSolution, match=r"non-finite value in the Gaussian family at t 0\.5"):
            check(scn, 0.5, values, seed=27)

    def test_lsi_test_function_underflow_named(self):
        # mean -e^7 and a variance near 0: exp(x) is 0 at every quadrature node
        scn = ScenarioSpec(TerminalSpec(a=-1.0, b=1.0), GeneratorSpec(c2=7.0), BROWNIAN)
        with pytest.raises(NonFiniteSolution, match="lsi at lambda 1.0: the test function's integral underflows"):
            lsi_check(scn, 1e-300, [1.0], seed=28)

    def test_t2_report_only_beyond_unit_horizon(self):
        scn = gaussian_scenario(GaussianDriverSpec.brownian(2.0))
        report = t2_check(scn, 2.0, [1.0], seed=24)
        assert report.passed is None
        assert any("report-only" in note for note in report.notes)

    @pytest.mark.parametrize("t, lam", [(0.0, 1.0), (0.5, 0.0)])
    def test_t2_refuses_dirac_law(self, t, lam):
        # sigma^2 = 0 at t = 0 or with b = 0: no relative entropy is finite
        with pytest.raises(HypothesisUnsatisfied, match="Dirac law"):
            t2_check(gaussian_scenario(BROWNIAN, lam=lam), t, [0.0, 1.0], seed=25)

    @pytest.mark.parametrize("check, values", [(t2_check, [0.5]), (lsi_check, [0.5])])
    def test_family_reads_the_exact_variance(self, check, values):
        # fbm H = 0.3 at t = 0.003: V_t = t^0.6, where the chord of a 64-step
        # clock table read 48% below it
        b, c2, t = 1.5, 0.4, 0.003
        scn = ScenarioSpec(TerminalSpec(a=0.2, b=b), GeneratorSpec(c0=0.1, c2=c2), GaussianDriverSpec.fbm(0.3, 1.0))
        v_t = t ** 0.6
        sigma_sq = check(scn, t, values, seed=30).measurements["sigma_sq"]
        assert sigma_sq == pytest.approx(b ** 2 * np.exp(2.0 * c2 * (1.0 - v_t)) * v_t, rel=1e-12, abs=0.0)

    def test_t2_rejects_non_gaussian_family(self):
        scn = mean_field_scenario(BROWNIAN)
        with pytest.raises(UnsupportedScenario):
            t2_check(scn, 1.0, [1.0], seed=25)

    def test_lsi_exact_ratio(self):
        scn = gaussian_scenario(BROWNIAN, lam=1.0)
        report = lsi_check(scn, 1.0, [0.0, 0.5, 1.0], seed=26)
        assert report.passed
        assert report.measurements["c_ls_y"] == pytest.approx(2.0, abs=1e-12)
        assert report.measurements["max_quadrature_error"] < 1e-6
        for row in report.measurements["lambdas"]:
            if row["lambda"] != 0.0:
                assert row["ratio"] == pytest.approx(2.0, abs=1e-10)

    def test_lsi_interior_time(self):
        scn = gaussian_scenario(BROWNIAN, lam=1.0)
        report = lsi_check(scn, 0.25, [1.0], seed=27)
        assert report.passed
        assert report.measurements["lambdas"][0]["ratio"] == pytest.approx(0.5, abs=1e-10)

    def test_lsi_quadrature_error_relative_to_the_entropy(self):
        # at lambda = 10 the entropy is 50 e^50 = 2.6e23 and the quadrature
        # agrees to 1e-15 relative, an absolute error far above 1e-6
        scn = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(), BROWNIAN)
        report = lsi_check(scn, 1.0, [10.0], seed=29)
        row = report.measurements["lambdas"][0]
        assert row["entropy_exact"] == pytest.approx(50.0 * np.exp(50.0), rel=1e-12)
        assert report.measurements["max_quadrature_error"] > 1.0
        assert report.measurements["max_quadrature_error"] <= 1e-6 * row["entropy_exact"]
        assert report.passed

    def test_lsi_with_drifted_family(self):
        scn = ScenarioSpec(TerminalSpec(a=0.5, b=2.0), GeneratorSpec(c0=0.3, c2=-0.4), BROWNIAN)
        report = lsi_check(scn, 0.5, [0.5, 1.0], seed=28)
        assert report.passed
        assert report.measurements["max_quadrature_error"] < 1e-6


class TestZBound:
    def _solved(self, scn, seed, degree=2):
        # the check reads the fitted field at every particle, including ~4
        # sigma tails; a scenario-appropriate low degree keeps the tail
        # extrapolation noise inside the 5% slack
        clock = build_clock(scn.driver, 17)
        field, cloud = solve_auxiliary(
            scn, clock, SolverConfig(n_time=16, n_particles=8000, basis_degree=degree), seed=seed
        )
        return field, cloud

    def test_identity_passes_at_equality(self):
        scn = identity_scenario(BROWNIAN)
        field, cloud = self._solved(scn, 29)
        report = z_bound_check(field, scn, cloud, seed=29)
        assert report.passed
        # |Z| = 1 vs bound L_g = 1: margin is the 5% slack minus noise
        assert report.measurements["min_margin"] == pytest.approx(0.05, abs=0.04)

    def test_linear_scenario_margin(self):
        scn = linear_scenario(BROWNIAN, 0.5)
        field, cloud = self._solved(scn, 30)
        report = z_bound_check(field, scn, cloud, seed=30)
        assert report.passed
        assert report.measurements["min_margin"] > 0

    def test_reports_the_solve_diagnostics(self):
        scn = linear_scenario(BROWNIAN, 0.5)
        field, cloud = self._solved(scn, 30)
        measurements = z_bound_check(field, scn, cloud, seed=30).measurements
        assert measurements["gram_cond_max"] == field.gram_cond_max > 1.0
        assert measurements["step_lipschitz"] == field.step_lipschitz == pytest.approx(0.5 / 16)

    def test_constant_terminal_zero_control(self):
        scn = ScenarioSpec(TerminalSpec(a=2.0), GeneratorSpec(), BROWNIAN)
        field, cloud = self._solved(scn, 31)
        report = z_bound_check(field, scn, cloud, seed=31)
        assert report.passed
        assert max(report.measurements["observed_max"]) < 1e-8


class TestReportDeterminism:
    def test_reports_identical_across_runs(self):
        scn = gaussian_scenario(BROWNIAN)
        r1 = t2_check(scn, 1.0, [0.5, 1.0], seed=32)
        r2 = t2_check(scn, 1.0, [0.5, 1.0], seed=32)
        assert r1.payload() == r2.payload()

        scn2 = mean_field_scenario(BROWNIAN)
        c1 = comparison_check(scn2, shift_terminal(scn2, 1.0), SMALL, [0.5], seed=33)
        c2 = comparison_check(scn2, shift_terminal(scn2, 1.0), SMALL, [0.5], seed=33)
        assert c1.payload() == c2.payload()


class TestFamilyOverflow:
    def test_lsi_constants_past_the_float_range(self):
        # c2 = 700 at t = 0.5: the law is finite (mean e^350 1e10, variance
        # e^700 / 2), but C_LS = 2 (1 + 350)^2 e^700 is a product past the
        # float range, which raises nothing until the finiteness check
        scn = ScenarioSpec(TerminalSpec(a=1e10, b=1.0), GeneratorSpec(c2=700.0), BROWNIAN)
        with pytest.raises(NonFiniteSolution) as info:
            lsi_check(scn, 0.5, [1.0], seed=29)
        assert str(info.value) == "non-finite value in the Gaussian family at t 0.5: past the float range"
