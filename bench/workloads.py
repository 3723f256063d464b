"""The benchmark's workloads: the config JSON each one hands the program, and
the closed-form oracle read back from the emitted reports.

Only the standard library is imported here, so the thread pinning in
``run.py`` takes effect before numpy loads.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable

DEFAULT_SEED = 20260809  # the seed of configs/

# E[Y_0] of the pack mean-field scenario g = x + 1, f = 0.3 mean_y, at V_T = 1
_MEAN_FIELD_Y0 = math.exp(0.3)


@dataclass(frozen=True)
class Workload:
    name: str
    # seed, repository root -> {config name: config tree}
    configs: Callable[[int, Path], dict]
    # {config name: output directory} -> oracle error
    oracle: Callable[[dict], float]
    # largest oracle error that still counts as a correct output
    oracle_limit: float
    # read the oracle at DEFAULT_SEED in an extra untimed pass, for a
    # workload whose closed-form error at other seeds is Monte Carlo noise
    oracle_at_default_seed: bool = False
    # further correctness gates at the run's seed: (name, value fn, limit);
    # their values are recorded beside the result, not as metrics
    gates: tuple = ()


def _repo_config(root: Path, name: str, seed: int) -> dict:
    tree = json.loads((root / "configs" / name).read_text())
    tree["seed"] = seed
    return tree


def _report(out_dir: Path, suffix: str) -> dict:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for exp in manifest["experiments"]:
        for rel in exp["reports"]:
            if rel.endswith(suffix):
                return json.loads((out_dir / rel).read_text())
    raise FileNotFoundError(f"no report ending in {suffix} under {out_dir}")


# ---------------------------------------------------------------------------
# suite: the ROADMAP north-star command


# exact Y_0 = u(0, 0) of the suite's four solve entries (V_T = 1 for both drivers)
_SUITE_Y0 = {
    "solve_identity": 0.0,
    "solve_identity_fbm": 0.0,
    "solve_linear": 0.0,
    "solve_mean_field": _MEAN_FIELD_Y0,
}


def _suite_oracle(out_dirs: dict) -> float:
    # Y_0, not the whole series: the series' tail quantiles carry Monte Carlo
    # noise (0.007 to 0.018 over eight seeds), while the increments are
    # exactly centred, so Y_0 is pure discretisation bias at every seed
    out_dir = out_dirs["full_suite"]
    return max(
        abs(_report(out_dir, f"{name}__00_solve.json")["measurements"]["u_coeffs"][0][0] - exact)
        for name, exact in _SUITE_Y0.items()
    )


# exact Y(t, x) of the same entries, as a function of (V_t, x)
_SUITE_Y = {
    "solve_identity": lambda v, x: x,
    "solve_identity_fbm": lambda v, x: x,
    "solve_linear": lambda v, x: math.exp(0.5 * (1.0 - v)) * x,
    "solve_mean_field": lambda v, x: x + math.exp(0.3 * (1.0 - v)),
}


def _suite_series_err(out_dirs: dict) -> float:
    """Max over the four solution series of |Y - exact(t, x)|.

    The series evaluates each field at x = Phi^{-1}(q) sqrt(V_t), so this
    covers ``transfer_evaluate``.  Its tail quantiles are Monte Carlo noise,
    which is why it gates correctness rather than being a metric.
    """
    out_dir = out_dirs["full_suite"]
    err = 0.0
    for name, exact in _SUITE_Y.items():
        with open(out_dir / "series" / f"{name}__solution.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                v = float(row["V_t"])
                x = NormalDist().inv_cdf(int(row["x_quantile_tag"][1:]) / 100) * math.sqrt(v)
                err = max(err, abs(float(row["Y"]) - exact(v, x)))
    return err


def _suite_configs(seed: int, root: Path) -> dict:
    return {"full_suite": _repo_config(root, "full_suite.json", seed)}


# ---------------------------------------------------------------------------
# mf_solve: one default-size solve of the mean-field oracle on fBm H = 0.3


def _mf_configs(seed: int, root: Path) -> dict:
    return {
        "mf_solve": {
            "kind": "solve",
            "seed": seed,
            "driver": {"kind": "fbm", "hurst": 0.3, "T": 1.0},
            "scenario": {
                "terminal": {"a": 1.0, "b": 1.0},
                "generator": {"kappa_y": 0.3},
            },
            "solver": {"n_time": 64, "n_particles": 20000, "basis_degree": 4},
        }
    }


def _mf_oracle(out_dirs: dict) -> float:
    report = _report(out_dirs["mf_solve"], "_solve.json")
    return abs(report["measurements"]["u_coeffs"][0][0] - _MEAN_FIELD_Y0)


# ---------------------------------------------------------------------------
# short_horizon: the suite's representation and converse entries as configs


def _short_configs(seed: int, root: Path) -> dict:
    brownian = {"kind": "brownian", "T": 1.0}
    mean_field = {"terminal": {"a": 1.0, "b": 1.0}, "generator": {"kappa_y": 0.2}}
    shifted = {"terminal": {"a": 1.0, "b": 1.0}, "generator": {"kappa_y": 0.2, "c0": 0.1}}
    return {
        "representation": {
            "kind": "representation",
            "seed": seed,
            "driver": brownian,
            "scenario": {"terminal": {"b": 1.0}, "generator": {"c2": -1.0, "kappa_y": 0.3}},
            "solver": {"n_time": 16, "n_particles": 16000},
            "params": {"t": 0.25, "y": 1.0, "z": 0.5, "eps_list": [0.2, 0.1, 0.05]},
        },
        "converse": {
            "kind": "converse",
            "seed": seed,
            "driver": brownian,
            "scenario": mean_field,
            "scenario_2": shifted,
            "solver": {"n_time": 16, "n_particles": 8000},
            "params": {
                "eps": 0.1,
                "probe_grid": [[t, y, 0.5] for t in (0.1, 0.4, 0.7) for y in (-1.0, 0.5, 2.0)],
            },
        },
    }


def _short_oracle(out_dirs: dict) -> float:
    report = _report(out_dirs["representation"], "_representation.json")
    return report["measurements"]["final_error"]


# ---------------------------------------------------------------------------
# wick_fbm: Cholesky path sampling and the Wick layer, no solver


def _wick_configs(seed: int, root: Path) -> dict:
    return {"wick_validate": _repo_config(root, "wick_validate_fbm.json", seed)}


def _wick_oracle(out_dirs: dict) -> float:
    report = _report(out_dirs["wick_validate"], "_wick_validate.json")
    rows = report["measurements"]["wick_exponential_normalization"]
    return max(abs(row["value"] - 1.0) for row in rows)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite", _suite_configs, _suite_oracle, 0.05,
            # 0.007 to 0.018 over eight seeds
            gates=(("series_err", _suite_series_err, 0.05),),
        ),
        Workload("mf_solve", _mf_configs, _mf_oracle, 5e-3),
        Workload("short_horizon", _short_configs, _short_oracle, 0.1),
        Workload("wick_fbm", _wick_configs, _wick_oracle, 0.05, oracle_at_default_seed=True),
    )
}
