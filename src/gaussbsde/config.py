"""Experiment configuration: a single JSON tree, validated with messages that
name the offending key, and a canonical emitted form that round-trips.

The keys accepted at each level are those the emitted form writes, plus
``covariance_file``, ``solver.seed`` and ``out_dir``; any other key is
rejected by name."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .drivers import GaussianDriverSpec
from .errors import ConfigInvalid
from .reporting import canonical_json, digest_payload
from .scenario import GeneratorSpec, NONLINEARITIES, ScenarioSpec, TerminalSpec
from .solver import SolverConfig

_DRIVER_KEYS = ("kind", "T", "hurst", "cov_grid", "cov_matrix", "covariance_file")


def _fail(key: str, message: str):
    raise ConfigInvalid(f"{key}: {message}")


def _check_keys(tree: dict, allowed, path: str):
    for key in sorted(set(tree) - set(allowed)):
        _fail(f"{path}.{key}" if path else key, "unknown key")


def _is_number(value) -> bool:
    """A finite int or float: JSON's NaN and Infinity fail the comparison."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) < np.inf


def _numbers(value) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


def _plus_zero(value):
    """A params value with -0.0 stored as 0.0 (see ``_number``)."""
    if isinstance(value, list):
        return [_plus_zero(v) for v in value]
    return value + 0.0 if isinstance(value, float) else value


_NUMBER = (_is_number, "must be a finite number")
_NUMBER_LIST = (lambda v: _numbers(v) and len(v) > 0, "must be a nonempty list of finite numbers")

#: params key -> (check of its value, what the check asks for)
_PARAM_CHECKS = {
    "t": _NUMBER, "y": _NUMBER, "z": _NUMBER, "eps": _NUMBER,
    "t_list": _NUMBER_LIST, "eps_list": _NUMBER_LIST, "shift_list": _NUMBER_LIST, "lambda_list": _NUMBER_LIST,
    "probe_grid": (
        lambda v: isinstance(v, list) and len(v) > 0 and all(_numbers(row) and len(row) == 3 for row in v),
        "must be a nonempty list of [t, y, z] rows of 3 finite numbers",
    ),
    "n_paths": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v > 0, "must be a positive integer"),
    "quantiles": (
        lambda v: _numbers(v) and len(v) > 0 and all(0.0 < q < 1.0 for q in v),
        "must be a nonempty list of numbers in (0,1)",
    ),
}


def _get(tree: dict, key: str, path: str, required: bool = True, default=None):
    if key not in tree:
        if required:
            _fail(f"{path}.{key}" if path else key, "required key is missing")
        return default
    return tree[key]


def _number(tree: dict, key: str, path: str) -> float:
    value = _get(tree, key, path)
    if not _is_number(value):
        _fail(f"{path}.{key}" if path else key, "must be a finite number")
    return float(value) + 0.0  # -0.0 is emitted as "-0", which reads back as 0


def _integer(tree: dict, key: str, path: str) -> int:
    value = _get(tree, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{path}.{key}" if path else key, "must be an integer")
    return value


def _nonlinearity(tree: dict, key: str, path: str) -> str:
    value = _get(tree, key, path)
    if not isinstance(value, str) or value not in NONLINEARITIES:
        _fail(f"{path}.{key}", f"must be one of {sorted(NONLINEARITIES)}")
    return value


def _spec_fields(tree: dict, spec_class, path: str) -> dict:
    """The fields of the dataclass ``spec_class`` that ``tree`` sets, each
    read as the type of its default: an int, a float, or (for a string) a
    nonlinearity tag.  The keys ``tree`` leaves out keep the defaults."""
    read = {int: _integer, float: _number, str: _nonlinearity}
    return {
        f.name: read[type(f.default)](tree, f.name, path)
        for f in fields(spec_class)
        if type(f.default) in read and f.name in tree
    }


def _load_covariance_file(path: Path, T: float) -> GaussianDriverSpec:
    try:
        with open(path, newline="") as handle:
            rows = [[float(v) for v in row if v.strip() != ""] for row in csv.reader(handle)]
    except (OSError, ValueError) as exc:
        _fail("driver.covariance_file", f"cannot read covariance table: {exc}")
    rows = [row for row in rows if row]
    n = len(rows)
    if n == 0:
        _fail("driver.covariance_file", "covariance table is empty")
    grid = np.array([(i + 1) * T / n for i in range(n)])
    try:
        return GaussianDriverSpec.custom(grid, rows, T)
    except ValueError as exc:
        _fail("driver.covariance_file", str(exc))


def parse_driver(tree, path: str = "driver", base_dir: Path | None = None) -> GaussianDriverSpec:
    if not isinstance(tree, dict):
        _fail(path, "must be an object")
    _check_keys(tree, _DRIVER_KEYS, path)
    kind = _get(tree, "kind", path)
    if kind not in ("brownian", "fbm", "custom"):
        _fail(f"{path}.kind", "must be one of 'brownian', 'fbm', 'custom'")
    T = _number(tree, "T", path) if "T" in tree else 1.0
    if T <= 0:
        _fail(f"{path}.T", "horizon must be positive")
    if kind == "brownian":
        return GaussianDriverSpec.brownian(T)
    if kind == "fbm":
        hurst = _number(tree, "hurst", path)
        if not 0.0 < hurst < 1.0:
            _fail(f"{path}.hurst", "hurst must be in (0,1)")
        return GaussianDriverSpec.fbm(hurst, T)
    if "cov_grid" in tree and "cov_matrix" in tree:
        try:
            return GaussianDriverSpec(
                kind="custom",
                T=T,
                cov_grid=np.asarray(tree["cov_grid"], dtype=float),
                cov_matrix=np.asarray(tree["cov_matrix"], dtype=float),
            )
        except (ValueError, TypeError) as exc:
            _fail(f"{path}.cov_matrix", str(exc))
    file_name = _get(tree, "covariance_file", path)
    file_path = Path(file_name)
    if base_dir is not None and not file_path.is_absolute():
        file_path = base_dir / file_path
    return _load_covariance_file(file_path, T)


def _parse_terminal(tree, path: str) -> TerminalSpec:
    if not isinstance(tree, dict):
        _fail(path, "must be an object")
    _check_keys(tree, TerminalSpec().payload(), path)
    try:
        return TerminalSpec(**_spec_fields(tree, TerminalSpec, path))
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_generator(tree, path: str) -> GeneratorSpec:
    if not isinstance(tree, dict):
        _fail(path, "must be an object")
    _check_keys(tree, (*GeneratorSpec().payload(), "rho_table"), path)
    kwargs = _spec_fields(tree, GeneratorSpec, path)
    rho = _get(tree, "rho_table", path, required=False)
    if rho is not None:
        if not isinstance(rho, dict) or set(rho) != {"breaks", "values"}:
            _fail(f"{path}.rho_table", "must be an object with exactly 'breaks' and 'values'")
        if not (_numbers(rho["breaks"]) and _numbers(rho["values"])):
            _fail(f"{path}.rho_table", "'breaks' and 'values' must be lists of finite numbers")
        kwargs["rho_breaks"] = tuple(float(v) + 0.0 for v in rho["breaks"])
        kwargs["rho_values"] = tuple(float(v) + 0.0 for v in rho["values"])
    try:
        return GeneratorSpec(**kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def parse_scenario(tree, driver: GaussianDriverSpec, path: str = "scenario") -> ScenarioSpec:
    if not isinstance(tree, dict):
        _fail(path, "must be an object")
    _check_keys(tree, ("terminal", "generator"), path)
    return ScenarioSpec(
        terminal=_parse_terminal(_get(tree, "terminal", path), f"{path}.terminal"),
        generator=_parse_generator(_get(tree, "generator", path), f"{path}.generator"),
        driver=driver,
    )


def parse_solver(tree, path: str = "solver") -> SolverConfig:
    tree = tree if tree is not None else {}
    if not isinstance(tree, dict):
        _fail(path, "must be an object")
    _check_keys(tree, SolverConfig().payload(), path)
    try:
        return SolverConfig(**_spec_fields(tree, SolverConfig, path))
    except ValueError as exc:
        _fail(path, str(exc))


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    kind: str
    seed: int
    driver: GaussianDriverSpec
    solver: SolverConfig
    scenario: ScenarioSpec | None = None
    scenario_2: ScenarioSpec | None = None
    params: dict = field(default_factory=dict)
    out_dir: str | None = None

    def payload(self) -> dict:
        out = {
            "kind": self.kind,
            "seed": self.seed,
            "driver": self.driver.payload(),
            "solver": self.solver.payload(),
            "params": self.params,
        }
        for key, scn in (("scenario", self.scenario), ("scenario_2", self.scenario_2)):
            if scn is not None:
                out[key] = {"terminal": scn.terminal.payload(), "generator": scn.generator.payload()}
        if self.out_dir is not None:
            out["out_dir"] = self.out_dir
        return out

    @property
    def digest(self) -> str:
        return digest_payload(self.payload())


def parse_config_payload(tree: dict, base_dir: Path | None = None) -> ExperimentConfig:
    from .experiments import KINDS  # experiments imports this module

    if not isinstance(tree, dict):
        _fail("config", "top level must be an object")
    kind_name = _get(tree, "kind", "")
    if kind_name not in KINDS:
        _fail("kind", f"must be one of {tuple(KINDS)}")
    kind = KINDS[kind_name]
    scenario_keys = ("scenario", "scenario_2")[: kind.scenarios]
    _check_keys(tree, ("kind", "seed", "driver", "solver", "params", "out_dir", *scenario_keys), "")
    solver_tree = tree.get("solver")
    seed = tree.get("seed")
    if seed is None and isinstance(solver_tree, dict):
        seed = solver_tree.get("seed")
    if seed is None:
        _fail("seed", "required key is missing")
    if isinstance(seed, bool) or not isinstance(seed, int):
        _fail("seed", "must be an integer")
    if isinstance(solver_tree, dict):
        solver_tree = {k: v for k, v in solver_tree.items() if k != "seed"}
    solver = parse_solver(solver_tree)

    params = tree.get("params", {})
    if not isinstance(params, dict):
        _fail("params", "must be an object")
    _check_keys(params, kind.required + kind.optional, "params")
    for key in kind.required:
        if key not in params:
            _fail(f"params.{key}", f"required for kind={kind_name}")
    for key, value in params.items():
        check, requirement = _PARAM_CHECKS[key]
        if not check(value):
            _fail(f"params.{key}", requirement)
    params = {key: _plus_zero(value) for key, value in params.items()}

    # the suite's entries bring their own drivers; the suite's own is only recorded
    driver_tree = _get(tree, "driver", "", required=kind.run is not None, default={"kind": "brownian", "T": 1.0})
    driver = parse_driver(driver_tree, base_dir=base_dir)
    scenarios = [parse_scenario(_get(tree, key, ""), driver, path=key) for key in scenario_keys]
    scenario, scenario_2 = (scenarios + [None, None])[:2]

    out_dir = tree.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        _fail("out_dir", "must be a string path")
    return ExperimentConfig(
        kind=kind_name,
        seed=int(seed),
        driver=driver,
        solver=solver,
        scenario=scenario,
        scenario_2=scenario_2,
        params=params,
        out_dir=out_dir,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigInvalid(f"config: cannot read {path}: {exc}") from exc
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config: not valid JSON ({exc})") from exc
    return parse_config_payload(tree, base_dir=path.parent)


def emit_config(cfg: ExperimentConfig) -> str:
    return canonical_json(cfg.payload()) + "\n"
