"""Experiment orchestration: dispatch configured experiment kinds, and
write their reports, series and the run manifest through ``reporting``,
which owns the output layout.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, theorems
from .config import ExperimentConfig
from .drivers import GaussianDriverSpec, _path_factor, build_clock, covariance, sample_paths
from .pack import (
    constant_generator_scenario,
    contraction_mean_field_scenario,
    gaussian_scenario,
    identity_scenario,
    linear_scenario,
    mean_field_scenario,
    shift_generator,
    shift_terminal,
)
from .reporting import canonical_json, digest_payload, emit_report, write_file, write_series_csv
from .rng import derived_seed
from .scenario import terminal_on_paths
from .solver import SolverConfig, solve_auxiliary, transfer_evaluate
from .theorems import TheoremReport, _cause, _step_refusal, scenario_digest, z_bound_check
from .wick import (
    StepFunctionH,
    riemann_wick_integral,
    s_transform_factorization_check,
    s_transform_mc,
    wick_exponential_weights,
)

_QUANTILES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)  # of the solution series
_SERIES_HEADER = ("t", "V_t", "x_quantile_tag", "Y", "Z")
_MARKERS = {True: "PASS", False: "FAIL", None: "N/A"}  # the console's mark of a verdict
# the false-failure rate of a two-sided gate at 3 standard errors of a normal statistic
_RATE_3SE = math.erfc(3.0 / math.sqrt(2.0))


@dataclass
class ExperimentOutcome:
    name: str
    kind: str
    report: TheoremReport
    report_paths: list[Path]
    series_paths: list[Path]
    wall_clock_ms: float


# ---------------------------------------------------------------------------
# individual experiments
#
# A runner takes a config and returns its report and the rows of its
# solution series, or None; it writes nothing: run_single writes both.
# Runners look the theorem functions up by name at call time, on this module
# or on ``theorems``, so a wrapper installed there, such as a tracer, sees
# every call.


def _run_solve(cfg: ExperimentConfig):
    from statistics import NormalDist  # imported here: start-up does not pay for it

    scn = cfg.scenario
    clock = build_clock(scn.driver, cfg.solver.n_time + 1)
    field, cloud = solve_auxiliary(scn, clock, cfg.solver, cfg.seed)

    g_vals = terminal_on_paths(scn.terminal, cloud.w[:, -1])
    terminal_residual = float(np.max(np.abs(transfer_evaluate(field, clock.T, cloud.w[:, -1])[0] - g_vals)))

    tags = [f"q{int(round(q * 100)):02d}" for q in _QUANTILES]
    normal_quantiles = np.array([NormalDist().inv_cdf(q) for q in _QUANTILES])
    # the states at the quantiles of N(0, V_t) at every node (+ 0.0: no -0.0 at t = 0)
    x = np.outer(normal_quantiles, np.sqrt(clock.grid_V)) + 0.0
    y_vals, z_vals = field.on_paths(x)
    z_vals = np.column_stack([z_vals, transfer_evaluate(field, clock.T, x[:, -1])[1]])  # Z at T: the last cell's
    rows = []
    for i, (t, v) in enumerate(zip(clock.grid_t.tolist(), clock.grid_V.tolist())):
        rows.extend((t, v, tag, y, z) for tag, y, z in zip(tags, y_vals[:, i].tolist(), z_vals[:, i].tolist()))

    report = TheoremReport(
        theorem="solve",
        scenario_digest=scenario_digest(scn),
        passed=True,
        measurements={
            "grid_t": [float(v) for v in clock.grid_t],
            "grid_V": [float(v) for v in clock.grid_V],
            "u_coeffs": field.u_coeffs.tolist(),
            "v_coeffs": field.v_coeffs.tolist(),
            "basis_scales": [float(v) for v in field.scales],
            "gram_cond_max": field.gram_cond_max,
            "step_lipschitz": field.step_lipschitz,
            "terminal_residual_max": terminal_residual,
        },
        seed=cfg.seed,
    )
    return report, rows


def _default_h_functions(T: float) -> list[StepFunctionH]:
    return [
        StepFunctionH(edges=np.array([0.0, T]), values=np.array([1.0])),
        StepFunctionH(edges=np.array([0.0, T / 2, T]), values=np.array([1.0, -1.0])),
        StepFunctionH(edges=np.array([0.0, T / 3, 2 * T / 3, T]), values=np.array([0.5, 1.5, -0.5])),
    ]


def _run_wick_validate(cfg: ExperimentConfig):
    driver, n_paths = cfg.driver, cfg.params["n_paths"]
    clock = build_clock(driver, cfg.params["n_time"] + 1)
    paths = sample_paths(driver, clock.grid_t, n_paths, derived_seed(cfg.seed, "wick-paths"))
    h_list = _default_h_functions(driver.T)
    weights = [wick_exponential_weights(h, paths) for h in h_list]
    ones = np.ones(n_paths)
    measurements: dict = {}
    gates = []  # (within, nominal false-failure rate) of each sub-test

    def gate(within: bool, rate: float = _RATE_3SE) -> bool:
        gates.append((within, rate))
        return within

    norm_rows = []
    for k, h_weights in enumerate(weights):
        res = s_transform_mc(ones, h_weights)
        within = gate(abs(res.value - 1.0) <= 3.0 * res.std_error)
        norm_rows.append({"h": k, "value": res.value, "std_error": res.std_error, "within_3se": within})
    measurements["wick_exponential_normalization"] = norm_rows

    if driver.kind == "brownian":
        sxt_rows = []
        for k, (h, h_weights) in enumerate(zip(h_list, weights)):
            for node in (clock.grid_t.size // 2, clock.grid_t.size - 1):
                t_node = float(clock.grid_t[node])
                res = s_transform_mc(paths.samples[:, node], h_weights)
                # Cov(X_t, I_h) of the I_h the weights form on the batch's grid
                expected = float(h.hdot(clock.grid_t[:-1]) @ np.diff(covariance(driver, t_node, clock.grid_t)))
                within = gate(abs(res.value - expected) <= 3.0 * res.std_error)
                sxt_rows.append(
                    {"h": k, "t": t_node, "value": res.value, "expected": expected,
                     "std_error": res.std_error, "within_3se": within}
                )
        measurements["s_transform_of_driver"] = sxt_rows

    fact_rows = []
    cell = (clock.grid_t.size - 1) // 2
    for degree in range(5):
        poly = np.zeros(degree + 1)
        poly[degree] = 1.0
        for k, h_weights in enumerate(weights):
            chk = s_transform_factorization_check(poly, cell, h_weights, paths)
            within = gate(chk.within <= 3.0)
            fact_rows.append(
                {"degree": degree, "h": k, "gap": chk.gap, "std_error": chk.std_error,
                 "gap_over_se": chk.within, "within_3se": within}
            )
    measurements["s_transform_factorization"] = fact_rows
    measurements["factorization_note"] = (
        "Monte Carlo factorization over finitely many step functions is evidence, not proof"
    )

    integral = riemann_wick_integral(np.tile([0.0, 1.0], (clock.grid_t.size - 1, 1)), paths)
    mean_se = float(np.std(integral) / np.sqrt(n_paths))
    centered_ok = gate(abs(float(np.mean(integral))) <= 3.0 * mean_se)
    measurements["linear_integrand_mean"] = {
        "mean": float(np.mean(integral)), "std_error": mean_se, "within_3se": centered_ok,
    }

    if driver.kind == "brownian":
        v_total = clock.V_T
        target_var = v_total ** 2 / 2.0
        var_obs = float(np.var(integral))
        # the sample variance of (X_T^2 - V_T) / 2 has standard error
        # V_T^2 sqrt(3.5 / n): the 5% gate sits at z = 0.025 sqrt(n / 3.5) of
        # them, a two-sided rate of erfc(z / sqrt(2))
        var_ok = gate(
            abs(var_obs - target_var) <= 0.05 * target_var, math.erfc(0.025 * math.sqrt(n_paths / 7.0))
        )
        x_T = paths.samples[:, -1]
        closed_form = 0.5 * (x_T ** 2 - v_total)
        gap = integral - closed_form
        gap_se = float(np.std(gap) / np.sqrt(n_paths))
        mean_ok = gate(abs(float(np.mean(gap))) <= 3.0 * gap_se)
        measurements["quadratic_identity"] = {
            "variance": var_obs, "variance_target": target_var, "variance_ok": var_ok,
            "mean_gap": float(np.mean(gap)), "gap_std_error": gap_se, "mean_ok": mean_ok,
        }

    report = TheoremReport(
        theorem="wick_validate",
        scenario_digest=digest_payload(driver.payload()),
        passed=all(within for within, _ in gates),
        measurements=measurements,
        # the sub-tests' count and their nominal family-wise (Sidak) rate
        tolerances={
            "statistic_over_se": 3.0, "variance_rel": 0.05,
            "n_subtests": len(gates), "family_rate": 1.0 - math.prod(1.0 - rate for _, rate in gates),
        },
        seed=cfg.seed,
    )
    return report, None


def _run_zbound(cfg: ExperimentConfig):
    clock = build_clock(cfg.scenario.driver, cfg.solver.n_time + 1)
    field, cloud = solve_auxiliary(cfg.scenario, clock, cfg.solver, cfg.seed)
    return z_bound_check(field, cfg.scenario, cloud, seed=cfg.seed), None


@dataclass(frozen=True)
class Kind:
    """An experiment kind: how many scenarios its config carries, its runner
    (``run(cfg) -> (report, series rows or None)``, which only computes:
    ``run_single`` writes), its refusal (``refuse(cfg)``, which raises what
    the runner would refuse on the parsed config, named in the error's
    ``key`` by the config key of its cause), the ``params`` it requires, and
    the top-level sections besides the scenarios that its runner reads
    (``settings``; a config with any other is refused).  The suite has no
    runner and no settings: it runs the entries of ``_suite_entries``."""

    scenarios: int
    run: Callable | None
    refuse: Callable
    required: tuple[str, ...] = ()
    settings: tuple[str, ...] = ("driver", "solver")


def _theorem_kind(scenarios: int, check: str, refusals: str, required=(), settings=("driver", "solver")) -> Kind:
    """The kind of the ``theorems`` check named ``check``, whose refusals
    the function named ``refusals`` states.  Both are called with the
    config's scenarios, its ``params`` by keyword, its solver as ``cfg``
    (where it has one) and its seed."""
    def call(name: str, cfg: ExperimentConfig):
        solver = {} if cfg.solver is None else {"cfg": cfg.solver}
        scns = [scn for scn in (cfg.scenario, cfg.scenario_2) if scn is not None]
        return getattr(theorems, name)(*scns, **cfg.params, **solver, seed=cfg.seed)

    return Kind(scenarios, lambda cfg: (call(check, cfg), None), lambda cfg: call(refusals, cfg), required, settings)


def _refuse_step(cfg: ExperimentConfig):
    """The step guard, which the solve runs too, on the grid of ``solver.n_time`` steps."""
    _step_refusal([cfg.scenario], cfg.solver.n_time)


def _refuse_unsampleable(cfg: ExperimentConfig):
    """The factorization sample_paths runs on the path grid: a custom table may not be PSD."""
    with _cause("driver"):
        _path_factor(cfg.driver, build_clock(cfg.driver, cfg.params["n_time"] + 1).grid_t[1:])


KINDS = {
    "solve": Kind(1, _run_solve, _refuse_step),
    "wick_validate": Kind(0, _run_wick_validate, _refuse_unsampleable, ("n_time", "n_paths"), ("driver",)),
    "comparison": _theorem_kind(2, "comparison_check", "comparison_refusals", ("t_list",)),
    "representation": _theorem_kind(
        1, "representation_limit_check", "representation_limit_refusals", ("t", "y", "z", "eps_list")
    ),
    "converse": _theorem_kind(2, "converse_comparison_check", "converse_comparison_refusals", ("probe_grid", "eps")),
    "stability": _theorem_kind(2, "stability_check", "stability_refusals"),
    "t2": _theorem_kind(1, "t2_check", "t2_refusals", ("t", "shift_list"), ("driver",)),
    "lsi": _theorem_kind(1, "lsi_check", "lsi_refusals", ("t", "lambda_list"), ("driver",)),
    "zbound": Kind(1, _run_zbound, _refuse_step),
    "full_suite": Kind(0, None, lambda cfg: None, settings=()),
}


def run_single(cfg: ExperimentConfig, out_dir: Path, name: str | None = None) -> ExperimentOutcome:
    """Run one configured check and write its report, and its solution
    series if it has one, under ``out_dir``."""
    name = name or cfg.kind
    t0 = time.perf_counter()
    report, series = KINDS[cfg.kind].run(cfg)
    paths = emit_report(report, out_dir / "reports", prefix=f"{name}__")
    series_paths = []
    if series is not None:
        series_paths.append(write_series_csv(out_dir / "series" / f"{name}__solution.csv", _SERIES_HEADER, series))
    return ExperimentOutcome(
        name=name, kind=cfg.kind, report=report, report_paths=paths,
        series_paths=series_paths, wall_clock_ms=(time.perf_counter() - t0) * 1e3,
    )


# ---------------------------------------------------------------------------
# the default suite


def _suite_entries(seed: int) -> list[ExperimentConfig]:
    brownian = GaussianDriverSpec.brownian(1.0)
    fbm07 = GaussianDriverSpec.fbm(0.7, 1.0)
    small = SolverConfig(n_time=32, n_particles=8000)
    entries = []

    def add(name, kind, scenario=None, scenario_2=None, driver=brownian, solver=small, params=None):
        entries.append(
            (
                name,
                ExperimentConfig(
                    kind=kind,
                    seed=derived_seed(seed, name),
                    driver=driver,
                    solver=solver,
                    scenario=scenario,
                    scenario_2=scenario_2,
                    params=params or {},
                ),
            )
        )

    add("solve_identity", "solve", identity_scenario(brownian))
    add("solve_identity_fbm", "solve", identity_scenario(fbm07), driver=fbm07)
    add("solve_linear", "solve", linear_scenario(brownian))
    add("solve_mean_field", "solve", mean_field_scenario(brownian))
    add("wick_validate", "wick_validate", driver=fbm07, solver=None, params={"n_time": 32, "n_paths": 20000})
    add(
        "comparison_constant", "comparison",
        constant_generator_scenario(brownian, 0.0), constant_generator_scenario(brownian, 1.0),
        params={"t_list": [0.0, 0.5, 1.0]},
    )
    mf = mean_field_scenario(brownian)
    add(
        "comparison_mean_field", "comparison", mf, shift_terminal(mf, 1.0),
        params={"t_list": [0.0, 0.5, 1.0]},
    )
    add(
        "representation", "representation", contraction_mean_field_scenario(brownian),
        solver=SolverConfig(n_time=16, n_particles=16000),
        params={"t": 0.25, "y": 1.0, "z": 0.5, "eps_list": [0.2, 0.1, 0.05]},
    )
    mf_small = mean_field_scenario(brownian, alpha=0.2)
    add(
        "converse", "converse", mf_small, shift_generator(mf_small, 0.1),
        solver=SolverConfig(n_time=16, n_particles=8000),
        params={"eps": 0.1, "probe_grid": [[t, y, 0.5] for t in (0.1, 0.4, 0.7) for y in (-1.0, 0.5, 2.0)]},
    )
    add("stability", "stability", linear_scenario(brownian), shift_terminal(linear_scenario(brownian), 0.5))
    gauss = gaussian_scenario(brownian)
    add("t2", "t2", gauss, solver=None, params={"t": 1.0, "shift_list": [0.0, 0.5, 1.0, 2.0]})
    add("lsi", "lsi", gauss, solver=None, params={"t": 1.0, "lambda_list": [0.0, 0.5, 1.0]})
    add("zbound", "zbound", linear_scenario(brownian))
    return entries


def run_config(cfg: ExperimentConfig, out_root, quiet: bool = False) -> tuple[Path, bool]:
    """Run the configured experiment, or the suite's entries in order, in
    this thread; write manifest.json last.

    Returns (manifest_path, all_passed): all_passed is False when some
    report's verdict is False, not when it is None.  The manifest, the
    console and run.log print each verdict as it is.  No manifest is
    written when an experiment raises.
    """
    out_root = Path(out_root)
    t0 = time.perf_counter()

    entries = _suite_entries(cfg.seed) if KINDS[cfg.kind].run is None else [(cfg.kind, cfg)]
    outcomes = [run_single(sub, out_root, name) for name, sub in entries]

    manifest = {
        "artifact_version": __version__,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "config_digest": cfg.digest,
        "experiments": [
            {
                "name": o.name,
                "kind": o.kind,
                "pass": o.report.passed,
                "reports": sorted(str(p.relative_to(out_root)) for p in o.report_paths),
                "series": sorted(str(p.relative_to(out_root)) for p in o.series_paths),
                "wall_clock_ms": None,
            }
            for o in outcomes
        ],
        "wall_clock_ms": None,
    }
    manifest_path = write_file(out_root / "manifest.json", canonical_json(manifest) + "\n")
    log_lines = [f"{o.name}: {o.wall_clock_ms:.1f} ms, pass={o.report.passed}" for o in outcomes]
    log_lines.append(f"total: {(time.perf_counter() - t0) * 1e3:.1f} ms")
    write_file(out_root / "run.log", "\n".join(log_lines) + "\n")

    all_passed = all(o.report.passed is not False for o in outcomes)
    if not quiet:
        for o in outcomes:
            print(f"[{_MARKERS[o.report.passed]}] {o.name} ({o.wall_clock_ms:.0f} ms)")
        print(f"manifest: {manifest_path}")
    return manifest_path, all_passed
