"""Experiment orchestration: dispatch configured experiment kinds, write
reports, series and the run manifest.

Output layout under the chosen directory:

    manifest.json       deterministic; lists every emitted file
    reports/*.json      one per TheoremReport (canonical serialization)
    reports/*.csv       flat measurement tables
    series/*.csv        solution series (t, V_t, x_quantile_tag, Y, Z)
    run.log             wall-clock timings (not listed in the manifest; the
                        manifest and reports stay byte-identical across reruns)
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .drivers import GaussianDriverSpec, _path_factor, build_clock, covariance, sample_paths
from .errors import ConfigInvalid, IoFailure
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
from .reporting import canonical_json, digest_payload, emit_report, write_series_csv
from .rng import derived_seed
from .scenario import terminal_on_paths
from .solver import SolverConfig, _check_step, _require_x_free, _short_horizon_grid, solve_auxiliary, transfer_evaluate
from .theorems import (
    TheoremReport,
    _gaussian_family,
    _require_clock_differentiable,
    _require_generator_order,
    _require_mean_coupling,
    _require_refinable,
    _require_t2_spread,
    _require_t2_time,
    _require_terminal_order,
    _require_z_law_free,
    _short_horizon_clock,
    comparison_check,
    converse_comparison_check,
    lsi_check,
    representation_limit_check,
    scenario_digest,
    stability_check,
    t2_check,
    z_bound_check,
)
from .wick import (
    StepFunctionH,
    riemann_wick_integral,
    s_transform_factorization_check,
    s_transform_mc,
    wick_exponential_weights,
)

_QUANTILES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)  # of the solution series


@dataclass
class ExperimentOutcome:
    name: str
    kind: str
    report: TheoremReport
    report_paths: list[Path]
    series_paths: list[Path]
    wall_clock_ms: float

    @property
    def passed(self) -> bool:
        return self.report.passed is not False


# ---------------------------------------------------------------------------
# individual experiments
#
# A runner takes (cfg, out_dir, name) and returns its report and the series
# paths it wrote; run_single emits the report.  Runners look the theorem
# functions up by module-global name at call time, so a wrapper installed on
# this module, such as a tracer, sees every call.


def _run_solve(cfg: ExperimentConfig, out_dir: Path, name: str):
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
    series_path = out_dir / "series" / f"{name}__solution.csv"
    series_path.parent.mkdir(parents=True, exist_ok=True)
    write_series_csv(series_path, ["t", "V_t", "x_quantile_tag", "Y", "Z"], rows)

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
    return report, [series_path]


def _default_h_functions(T: float) -> list[StepFunctionH]:
    return [
        StepFunctionH(edges=np.array([0.0, T]), values=np.array([1.0])),
        StepFunctionH(edges=np.array([0.0, T / 2, T]), values=np.array([1.0, -1.0])),
        StepFunctionH(edges=np.array([0.0, T / 3, 2 * T / 3, T]), values=np.array([0.5, 1.5, -0.5])),
    ]


def _run_wick_validate(cfg: ExperimentConfig, out_dir: Path, name: str):
    driver, n_paths = cfg.driver, cfg.params["n_paths"]
    clock = build_clock(driver, cfg.params["n_time"] + 1)
    paths = sample_paths(driver, clock.grid_t, n_paths, derived_seed(cfg.seed, "wick-paths"))
    h_list = _default_h_functions(driver.T)
    weights = [wick_exponential_weights(h, paths) for h in h_list]
    ones = np.ones(n_paths)
    measurements: dict = {}
    ok = True

    norm_rows = []
    for k, h_weights in enumerate(weights):
        res = s_transform_mc(ones, h_weights)
        within = abs(res.value - 1.0) <= 3.0 * res.std_error
        ok = ok and within
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
                within = abs(res.value - expected) <= 3.0 * res.std_error
                ok = ok and within
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
            within = chk.within <= 3.0
            ok = ok and within
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
    centered_ok = abs(float(np.mean(integral))) <= 3.0 * mean_se
    ok = ok and centered_ok
    measurements["linear_integrand_mean"] = {
        "mean": float(np.mean(integral)), "std_error": mean_se, "within_3se": centered_ok,
    }

    if driver.kind == "brownian":
        v_total = clock.V_T
        target_var = v_total ** 2 / 2.0
        var_obs = float(np.var(integral))
        var_ok = abs(var_obs - target_var) <= 0.05 * target_var
        x_T = paths.samples[:, -1]
        closed_form = 0.5 * (x_T ** 2 - v_total)
        gap = integral - closed_form
        gap_se = float(np.std(gap) / np.sqrt(n_paths))
        mean_ok = abs(float(np.mean(gap))) <= 3.0 * gap_se
        ok = ok and var_ok and mean_ok
        measurements["quadratic_identity"] = {
            "variance": var_obs, "variance_target": target_var, "variance_ok": var_ok,
            "mean_gap": float(np.mean(gap)), "gap_std_error": gap_se, "mean_ok": mean_ok,
        }

    report = TheoremReport(
        theorem="wick_validate",
        scenario_digest=digest_payload(driver.payload()),
        passed=ok,
        measurements=measurements,
        tolerances={"statistic_over_se": 3.0, "variance_rel": 0.05},
        seed=cfg.seed,
    )
    return report, []


def _run_comparison(cfg: ExperimentConfig, out_dir: Path, name: str):
    p = cfg.params
    return comparison_check(cfg.scenario, cfg.scenario_2, cfg.solver, p["t_list"], cfg.seed), []


def _run_representation(cfg: ExperimentConfig, out_dir: Path, name: str):
    p = cfg.params
    report = representation_limit_check(
        cfg.scenario, float(p["t"]), float(p["y"]), float(p["z"]), p["eps_list"], cfg.solver, cfg.seed
    )
    return report, []


def _run_converse(cfg: ExperimentConfig, out_dir: Path, name: str):
    probe_grid = [tuple(float(v) for v in row) for row in cfg.params["probe_grid"]]
    report = converse_comparison_check(
        cfg.scenario, cfg.scenario_2, cfg.solver, probe_grid, float(cfg.params["eps"]), cfg.seed
    )
    return report, []


def _run_stability(cfg: ExperimentConfig, out_dir: Path, name: str):
    return stability_check(cfg.scenario, cfg.scenario_2, cfg.solver, cfg.seed), []


def _run_t2(cfg: ExperimentConfig, out_dir: Path, name: str):
    return t2_check(cfg.scenario, float(cfg.params["t"]), cfg.params["shift_list"], cfg.seed), []


def _run_lsi(cfg: ExperimentConfig, out_dir: Path, name: str):
    return lsi_check(cfg.scenario, float(cfg.params["t"]), cfg.params["lambda_list"], cfg.seed), []


def _run_zbound(cfg: ExperimentConfig, out_dir: Path, name: str):
    clock = build_clock(cfg.scenario.driver, cfg.solver.n_time + 1)
    field, cloud = solve_auxiliary(cfg.scenario, clock, cfg.solver, cfg.seed)
    return z_bound_check(field, cfg.scenario, cloud, seed=cfg.seed), []


@dataclass(frozen=True)
class Kind:
    """An experiment kind: how many scenarios its config carries, its runner,
    the ``params`` it requires, the top-level sections besides the scenarios
    that its runner reads (``settings``; a config with any other is
    refused), and its gates: (config key, check) pairs, each check raising
    the error its runner would raise on the parsed config.  The suite has
    no runner and no settings: it runs the entries of ``_suite_entries``."""

    scenarios: int
    run: Callable | None
    required: tuple[str, ...] = ()
    settings: tuple[str, ...] = ("driver", "solver")
    gates: tuple[tuple[str, Callable], ...] = ()


def _generator_gate(key: str, coefficient: str, check: Callable):
    """The gate of ``check`` on one scenario, named by its generator's key."""
    return f"{key}.generator.{coefficient}", lambda cfg: check(getattr(cfg, key))


def _step_gate(horizons: Callable | None = None):
    """The gate of the explicit scheme's step guard on each grid a run
    solves on: the grid of ``solver.n_time`` steps (a refined grid's cells
    lie inside its cells), or, for a short-horizon check, the sub-grid of
    each (t, eps) in ``horizons(params)``."""
    def check(cfg: ExperimentConfig):
        scns, n_time = [scn for scn in (cfg.scenario, cfg.scenario_2) if scn is not None], cfg.solver.n_time
        if horizons is None:
            return _check_step(scns, build_clock(cfg.driver, n_time + 1).grid_V)
        clock = _short_horizon_clock(cfg.driver, n_time)
        for t, eps in horizons(cfg.params):
            _check_step(scns, _short_horizon_grid(clock, float(t), float(eps), n_time))

    return "solver.n_time", check


_REFINABLE = ("driver.kind", lambda cfg: _require_refinable(cfg.driver))
_STEP = _step_gate()
_GAUSSIAN_FAMILY = ("scenario", lambda cfg: _gaussian_family(cfg.scenario, cfg.params["t"]))
# the factorization sample_paths runs on the path grid: a custom table may not be PSD
_SAMPLEABLE = ("driver", lambda cfg: _path_factor(cfg.driver, build_clock(cfg.driver, cfg.params["n_time"] + 1).grid_t[1:]))

KINDS = {
    "solve": Kind(1, _run_solve, gates=(_STEP,)),
    "wick_validate": Kind(0, _run_wick_validate, ("n_time", "n_paths"), ("driver",), gates=(_SAMPLEABLE,)),
    "comparison": Kind(
        2, _run_comparison, ("t_list",),
        gates=(
            _REFINABLE,
            _generator_gate("scenario", "kappa_z", _require_z_law_free),
            _generator_gate("scenario_2", "kappa_z", _require_z_law_free),
            ("scenario.generator.kappa_y", lambda cfg: _require_mean_coupling(cfg.scenario, cfg.scenario_2)),
            # the order probes draw from the run's seed, so validate and run draw the same points
            ("scenario_2.generator", lambda cfg: _require_generator_order(cfg.scenario, cfg.scenario_2, cfg.seed)),
            ("scenario_2.terminal", lambda cfg: _require_terminal_order(cfg.scenario, cfg.scenario_2, cfg.seed)),
            _STEP,
        ),
    ),
    "representation": Kind(
        1, _run_representation, ("t", "y", "z", "eps_list"),
        gates=(
            ("params.t", lambda cfg: _require_clock_differentiable(cfg.driver, cfg.params["t"])),
            _generator_gate("scenario", "c1", _require_x_free),
            _step_gate(lambda p: [(p["t"], eps) for eps in p["eps_list"]]),
        ),
    ),
    "converse": Kind(
        2, _run_converse, ("probe_grid", "eps"),
        gates=(
            (
                "params.probe_grid",
                lambda cfg: [_require_clock_differentiable(cfg.driver, row[0]) for row in cfg.params["probe_grid"]],
            ),
            _generator_gate("scenario", "c1", _require_x_free),
            _generator_gate("scenario_2", "c1", _require_x_free),
            _step_gate(lambda p: [(row[0], p["eps"]) for row in p["probe_grid"]]),
        ),
    ),
    "stability": Kind(2, _run_stability, gates=(_REFINABLE, _STEP)),
    "t2": Kind(
        1, _run_t2, ("t", "shift_list"), ("driver",),
        gates=(
            _GAUSSIAN_FAMILY,
            ("params.t", lambda cfg: _require_t2_time(cfg.params["t"])),
            ("scenario.terminal.b", lambda cfg: _require_t2_spread(cfg.scenario)),
        ),
    ),
    "lsi": Kind(1, _run_lsi, ("t", "lambda_list"), ("driver",), gates=(_GAUSSIAN_FAMILY,)),
    "zbound": Kind(1, _run_zbound, gates=(_STEP,)),
    "full_suite": Kind(0, None, settings=()),
}


def run_single(cfg: ExperimentConfig, out_dir: Path, name: str | None = None) -> ExperimentOutcome:
    name = name or cfg.kind
    t0 = time.perf_counter()
    report, series_paths = KINDS[cfg.kind].run(cfg, out_dir, name)
    paths = emit_report(report, out_dir / "reports", prefix=f"{name}__")
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


def _thread_count() -> int:
    raw = os.environ.get("GAUSSBSDE_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigInvalid(f"GAUSSBSDE_THREADS: must be a positive integer, got {raw!r}")
    return threads


def run_config(cfg: ExperimentConfig, out_root, quiet: bool = False) -> tuple[Path, bool]:
    """Run the configured experiment(s); write manifest.json last.

    Returns (manifest_path, all_passed).  No manifest is written when an
    experiment raises.
    """
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    if KINDS[cfg.kind].run is None:
        entries = _suite_entries(cfg.seed)
        threads = _thread_count()
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(run_single, sub, out_root, name) for name, sub in entries]
                outcomes = [f.result() for f in futures]
        else:
            outcomes = [run_single(sub, out_root, name) for name, sub in entries]
    else:
        outcomes = [run_single(cfg, out_root)]

    manifest = {
        "artifact_version": __version__,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "config_digest": cfg.digest,
        "experiments": [
            {
                "name": o.name,
                "kind": o.kind,
                "pass": o.passed,
                "reports": sorted(str(p.relative_to(out_root)) for p in o.report_paths),
                "series": sorted(str(p.relative_to(out_root)) for p in o.series_paths),
                "wall_clock_ms": None,
            }
            for o in outcomes
        ],
        "wall_clock_ms": None,
    }
    manifest_path = out_root / "manifest.json"
    try:
        manifest_path.write_text(canonical_json(manifest) + "\n")
        log_lines = [
            f"{o.name}: {o.wall_clock_ms:.1f} ms, pass={o.passed}" for o in outcomes
        ]
        log_lines.append(f"total: {(time.perf_counter() - t0) * 1e3:.1f} ms")
        (out_root / "run.log").write_text("\n".join(log_lines) + "\n")
    except OSError as exc:
        raise IoFailure(f"could not write manifest under {out_root}: {exc}") from exc

    all_passed = all(o.passed for o in outcomes)
    if not quiet:
        for o in outcomes:
            print(f"[{'PASS' if o.passed else 'FAIL'}] {o.name} ({o.wall_clock_ms:.0f} ms)")
        print(f"manifest: {manifest_path}")
    return manifest_path, all_passed
