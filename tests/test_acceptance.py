"""Acceptance suite: runs every stated criterion at its stated tolerance and
prints one pass/fail line per criterion (visible with pytest -s)."""

import json
import math
import threading

import numpy as np
import pytest
from scipy import stats as sstats

from gaussbsde import drivers, scenario, solver
from gaussbsde.config import parse_config_payload
from gaussbsde.drivers import GaussianDriverSpec, VarianceClock, build_clock, sample_paths
from gaussbsde.errors import HypothesisUnsatisfied
from gaussbsde.experiments import run_config
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
from gaussbsde.scenario import GeneratorSpec, ScenarioSpec, TerminalSpec
from gaussbsde.solver import SolverConfig, solve_auxiliary, transfer_evaluate
from gaussbsde.theorems import (
    comparison_check,
    converse_comparison_check,
    lsi_check,
    representation_limit_check,
    t2_check,
    transport_constants,
    z_bound_check,
)
from gaussbsde.wick import (
    StepFunctionH,
    bsde_residual,
    riemann_wick_integral,
    s_transform_factorization_check,
    wick_exponential_weights,
)

SEED = 20260809
BROWNIAN = GaussianDriverSpec.brownian(1.0)


def announce(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


class TestAcceptance:
    def test_01_identity_scenario(self):
        # (Y, Z) = (X, 1) on both drivers at the stated sizes; basis degree 2
        # is the scenario-appropriate choice for this affine family
        quantiles = np.linspace(0.01, 0.99, 21)
        cfg = SolverConfig(n_time=64, n_particles=20000, basis_degree=2)
        worst_y = worst_z = 0.0
        for driver in (BROWNIAN, GaussianDriverSpec.fbm(0.7, 1.0)):
            clock = build_clock(driver, cfg.n_time + 1)
            field, _ = solve_auxiliary(identity_scenario(driver), clock, cfg, SEED)
            for t in (0.0, 0.5, 1.0):
                v = clock.value(t)
                xs = sstats.norm.ppf(quantiles) * math.sqrt(v) if v > 0 else np.array([0.0])
                y, z = transfer_evaluate(field, t, xs)
                worst_y = max(worst_y, float(np.max(np.abs(np.asarray(y) - xs) / (1 + np.abs(xs)))))
                worst_z = max(worst_z, float(np.max(np.abs(np.asarray(z) - 1.0))))
        ok = worst_y <= 0.02 and worst_z <= 0.02
        announce(1, ok, f"|Y-x|/(1+|x|) <= {worst_y:.4f}, |Z-1| <= {worst_z:.4f} (tol 0.02)")

    def test_02_linear_oracle(self):
        beta, v_total = 0.5, 1.0
        scn = linear_scenario(BROWNIAN, beta)
        cfg = SolverConfig(n_time=32, n_particles=50000, basis_degree=2)
        clock = build_clock(BROWNIAN, cfg.n_time + 1)
        field, cloud = solve_auxiliary(scn, clock, cfg, SEED)
        worst = 0.0
        for i in range(field.n_steps + 1):
            target = math.exp(beta * (v_total - clock.grid_V[i]))
            coef = field.v_coeffs[0][0] if i == 0 else field.u_coeffs[i][1] / field.scales[i]
            worst = max(worst, abs(coef / target - 1.0))
        zb = z_bound_check(field, scn, cloud, seed=SEED)
        ok = worst <= 0.02 and zb.passed and zb.measurements["min_margin"] > 0
        announce(2, ok, f"coef rel err <= {worst:.4f} (tol 0.02), z-bound min margin {zb.measurements['min_margin']:.4f} > 0")

    def test_03_mean_field_oracle(self):
        scn = mean_field_scenario(BROWNIAN, alpha=0.3, c=1.0)
        cfg = SolverConfig(n_time=64, n_particles=20000)
        clock = build_clock(BROWNIAN, cfg.n_time + 1)
        field, cloud = solve_auxiliary(scn, clock, cfg, SEED)
        n = cloud.n_particles
        y, _ = field.on_paths(cloud.w)
        worst_sigma = 0.0
        for i in range(field.n_steps + 1):
            target = math.exp(0.3 * (clock.V_T - clock.grid_V[i]))
            mean = float(np.mean(y[:, i]))
            spread = float(np.std(y[:, max(i, 1)]))
            se = spread / math.sqrt(n)
            gap_in_se = abs(mean - target) / se
            worst_sigma = max(worst_sigma, gap_in_se)
        ok = worst_sigma <= 3.0
        announce(3, ok, f"mean gap <= {worst_sigma:.2f} MC standard errors (tol 3)")

    def test_04_wick_layer(self):
        # (a) factorization gate on the fbm driver, degrees <= 4, three h's
        fbm = GaussianDriverSpec.fbm(0.7, 1.0)
        clock_f = build_clock(fbm, 33)
        paths_f = sample_paths(fbm, clock_f.grid_t, 100_000, SEED)
        h_list = [
            StepFunctionH(edges=np.array([0.0, 1.0]), values=np.array([1.0])),
            StepFunctionH(edges=np.array([0.0, 0.5, 1.0]), values=np.array([1.0, -1.0])),
            StepFunctionH(edges=np.array([0.0, 1 / 3, 2 / 3, 1.0]), values=np.array([0.5, 1.5, -0.5])),
        ]
        weights = [wick_exponential_weights(h, paths_f) for h in h_list]
        worst_fact = 0.0
        for degree in range(5):
            poly = np.zeros(degree + 1)
            poly[degree] = 1.0
            for h_weights in weights:
                chk = s_transform_factorization_check(poly, 16, h_weights, paths_f)
                worst_fact = max(worst_fact, chk.within)
        fact_ok = worst_fact <= 3.0

        # (b) int X dX on the Brownian driver: mean (3 sigma) and variance (5%)
        clock_b = build_clock(BROWNIAN, 129)
        paths_b = sample_paths(BROWNIAN, clock_b.grid_t, 100_000, SEED + 1)
        rows = np.tile(np.array([0.0, 1.0]), (128, 1))
        integral = riemann_wick_integral(rows, paths_b)
        closed = 0.5 * (paths_b.samples[:, -1] ** 2 - 1.0)
        gap = integral - closed
        mean_ok = abs(np.mean(gap)) <= 3 * np.std(gap) / math.sqrt(gap.size)
        mean0_ok = abs(np.mean(integral)) <= 3 * np.std(integral) / math.sqrt(integral.size)
        var_rel = abs(float(np.var(integral)) - 0.5) / 0.5
        var_ok = var_rel <= 0.05

        # (c) residual RMS decreases under refinement for the linear oracle;
        # per shared node the decrease is judged within 2 standard errors of
        # the RMS plus the regression-field noise floor at 20000 particles
        scn = linear_scenario(BROWNIAN, 0.5)
        rms, se_rms, pooled = [], [], []
        n_paths = 20000
        for n_time in (32, 64, 128):
            clock = build_clock(BROWNIAN, n_time + 1)
            field, _ = solve_auxiliary(scn, clock, SolverConfig(n_time=n_time, n_particles=20000), SEED)
            paths = sample_paths(BROWNIAN, clock.grid_t, n_paths, SEED + 2)
            stats = bsde_residual(field, scn, paths)
            rms.append(stats.rms)
            # delta method on the mean of R^2 with Gaussian-scale fourth moment
            se_rms.append(stats.rms * math.sqrt(0.5 / n_paths))
            pooled.append(float(np.sqrt(np.mean(stats.rms ** 2))))
        pooled_decreasing = pooled[0] > pooled[1] > pooled[2]
        field_noise_floor = 5e-4
        monotone = True
        for c, f in ((0, 1), (1, 2)):
            shared = np.arange(rms[c].size)
            allowance = 2.0 * (se_rms[c][shared] + se_rms[f][2 * shared]) + field_noise_floor
            if np.any(rms[f][2 * shared] > rms[c][shared] + allowance):
                monotone = False
        ok = fact_ok and mean_ok and mean0_ok and var_ok and pooled_decreasing and monotone
        announce(
            4, ok,
            f"factorization <= {worst_fact:.2f} se (tol 3), quadratic identity mean ok={mean_ok}, "
            f"variance rel err {var_rel:.3f} (tol 0.05), residual refinement: pooled RMS "
            f"{[round(p, 5) for p in pooled]} decreasing={pooled_decreasing}, per-node monotone={monotone}",
        )

    def test_05_comparison(self):
        cfg = SolverConfig(n_time=32, n_particles=10000)
        t_list = [0.0, 0.5, 1.0]
        r1 = comparison_check(
            constant_generator_scenario(BROWNIAN, 0.0),
            constant_generator_scenario(BROWNIAN, 1.0),
            cfg, t_list, SEED,
        )
        mf = mean_field_scenario(BROWNIAN, alpha=0.3)
        r2 = comparison_check(mf, shift_terminal(mf, 1.0), cfg, t_list, SEED + 1)
        refused = False
        bad = ScenarioSpec(TerminalSpec(b=1.0), GeneratorSpec(kappa_z=0.5), BROWNIAN)
        try:
            comparison_check(bad, shift_terminal(bad, 1.0), cfg, t_list, SEED + 2)
        except HypothesisUnsatisfied:
            refused = True
        frac = max(r1.measurements["max_violation_fraction"], r2.measurements["max_violation_fraction"])
        ok = r1.passed and r2.passed and frac <= 1e-3 and refused
        announce(5, ok, f"violation fraction <= {frac:.2e} (tol 1e-3); kappa_z=0.5 refused={refused}")

    def test_06_representation(self):
        scn = contraction_mean_field_scenario(BROWNIAN)
        cfg = SolverConfig(n_time=32, n_particles=32768)
        report = representation_limit_check(scn, 0.25, 1.0, 0.5, [0.2, 0.1, 0.05], cfg, SEED)
        gaps = report.measurements["abs_gap"]
        final_err = report.measurements["final_error"]
        ok = report.passed and report.measurements["gap_decreasing"]
        announce(
            6, ok,
            f"|A-B| = {[round(g, 5) for g in gaps]} decreasing, |A(0.05) - f| = {final_err:.4f} "
            f"<= {report.tolerances['final_error']:.4f}",
        )

    def test_07_converse_comparison(self):
        scn1 = mean_field_scenario(BROWNIAN, alpha=0.2)
        scn2 = shift_generator(scn1, 0.1)
        probe_grid = [(t, y, 0.5) for t in (0.1, 0.4, 0.7) for y in (-1.0, 0.5, 2.0)]
        cfg = SolverConfig(n_time=16, n_particles=16000)
        report = converse_comparison_check(scn1, scn2, cfg, probe_grid, 0.1, SEED)
        ok = report.passed and report.measurements["y_ordering_observed"] and report.measurements["f_ordered"]
        margins = [round(r["f_margin"], 4) for r in report.measurements["probes"]]
        announce(7, ok, f"9 probes: Y-ordering and generator ordering both confirmed, f margins {set(margins)}")

    def test_08_functional_inequalities(self):
        clock = build_clock(BROWNIAN, 65)
        ok = True
        details = []
        for lam in (0.5, 1.0):
            scn = gaussian_scenario(BROWNIAN, lam=lam)
            t2_terminal = t2_check(scn, 1.0, [0.0, 0.5, 1.0, 2.0], SEED)
            t2_mid = t2_check(scn, 0.5, [1.0], SEED)
            ratio = t2_terminal.measurements["sharp_constant"] / t2_terminal.measurements["c_tr_y"]
            ok = ok and t2_terminal.passed and t2_mid.passed and ratio <= 1.0 + 1e-12
            if lam == 1.0:
                ok = ok and abs(t2_terminal.measurements["slack"]) <= 1e-10
            details.append(f"t2(lam={lam}) ratio {ratio:.3f}")
            lsi = lsi_check(scn, 1.0, [0.0, 0.5, 1.0], SEED)
            ok = ok and lsi.passed and lsi.measurements["max_quadrature_error"] <= 1e-6
            details.append(f"lsi quad err {lsi.measurements['max_quadrature_error']:.1e}")
        c_tr, c_ls = transport_constants(1.0, 0.0, clock, t=0.0)
        exact = c_tr == 2.0 and c_ls == 2.0
        ok = ok and exact
        announce(8, ok, "; ".join(details) + f"; constants exact (C_Tr_Y, C_LS) = ({c_tr}, {c_ls})")

    def test_09_full_suite_determinism(self, tmp_path, monkeypatch):
        cfg = parse_config_payload({"kind": "full_suite", "seed": SEED})
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        # the first pass also counts its SFC64 normals (the solver draws n/2
        # a step, for antithetic pairs; the paired checks' grid and its
        # refinement share one draw; the suite's short-horizon
        # checks are affine, so they solve on exact moments and draw none)
        # and the scenario DSL's probe streams: the run reads the symbolic
        # Lipschitz constants and draws no audit probe
        draws, probes = [], []
        with monkeypatch.context() as patch:
            # the solver draws at once, the path sampler block by block: one
            # stream either way
            for module, name in ((solver, "standard_normals"), (drivers, "standard_normal_blocks")):
                def counting(seed, shape, *args, _draw=getattr(module, name)):
                    draws.append(math.prod(shape))
                    return _draw(seed, shape, *args)

                patch.setattr(module, name, counting)

            def probing(seed, *tags, _rng=scenario.generator):
                probes.append(tags)
                return _rng(seed, *tags)

            patch.setattr(scenario, "generator", probing)
            _, passed1 = run_config(cfg, out1, quiet=True)
        # the second pass runs with GAUSSBSDE_THREADS=2 set, which nothing
        # reads: the suite runs its entries in order, in this thread, and
        # writes the first pass's bytes
        monkeypatch.setenv("GAUSSBSDE_THREADS", "2")
        started = []
        with monkeypatch.context() as patch:
            def counting_start(thread, _start=threading.Thread.start):
                started.append(thread)
                return _start(thread)

            patch.setattr(threading.Thread, "start", counting_start)
            _, passed2 = run_config(cfg, out2, quiet=True)
        files = sorted(
            p.relative_to(out1) for p in out1.rglob("*") if p.is_file() and p.name != "run.log"
        )
        identical = all((out2 / rel).read_bytes() == (out1 / rel).read_bytes() for rel in files)
        manifest = json.loads((out1 / "manifest.json").read_text())
        counted = (len(draws), sum(draws)) == (13, 2_848_000)
        audits = probes.count(("lipschitz-audit",))
        ok = (
            passed1 and passed2 and identical and not started
            and len(manifest["experiments"]) >= 8 and counted and audits == 0
        )
        announce(
            9, ok,
            f"full_suite passes twice, {len(files)} manifest/report/series files byte-identical, "
            f"{len(started)} threads started (0), "
            f"{len(manifest['experiments'])} experiments (>= 8), "
            f"{sum(draws)} normals in {len(draws)} draws (2848000 in 13), "
            f"{audits} Lipschitz-audit streams (0) of {len(probes)} probe streams",
        )

    def test_10_clock_equivariance(self):
        fbm = GaussianDriverSpec.fbm(0.25, 1.0)
        clock_f = build_clock(fbm, 65)
        cfg = SolverConfig(n_time=64, n_particles=20000)
        scn_f = linear_scenario(fbm, 0.5)
        field_f, _ = solve_auxiliary(scn_f, clock_f, cfg, SEED)

        brownian = GaussianDriverSpec.brownian(clock_f.V_T)
        clock_b = VarianceClock(grid_t=clock_f.grid_V.copy(), grid_V=clock_f.grid_V.copy())
        field_b, _ = solve_auxiliary(linear_scenario(brownian, 0.5), clock_b, cfg, SEED)

        du = float(np.max(np.abs(field_f.u_coeffs - field_b.u_coeffs)))
        dv = float(np.max(np.abs(field_f.v_coeffs - field_b.v_coeffs)))
        ok = du <= 1e-12 and dv <= 1e-12
        announce(10, ok, f"coefficient tables differ by (u: {du:.2e}, v: {dv:.2e}) <= 1e-12")
