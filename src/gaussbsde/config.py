"""Experiment configuration: a single JSON tree, validated with messages that
name the offending key, and a canonical emitted form that round-trips: every
number is read at its 12 significant digits before it is checked.  The keys
accepted at each level are those the emitted form writes, plus
``covariance_file`` and ``out_dir``; any other key is rejected by name."""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .drivers import _DOMAIN_TOL, GaussianDriverSpec
from .errors import ConfigInvalid, GaussBsdeError
from .reporting import digest_payload, fmt_float
from .scenario import GeneratorSpec, NONLINEARITIES, ScenarioSpec, TerminalSpec
from .solver import SolverConfig

_TABLE_KEYS = ("cov_grid", "cov_matrix")
#: driver kind -> the keys it reads besides kind and T (custom: its table, or else its file)
_DRIVER_KEYS = {"brownian": (), "fbm": ("hurst",), "custom": (*_TABLE_KEYS, "covariance_file")}


def _fail(key: str, message: str):
    raise ConfigInvalid(f"{key}: {message}")


def _check_keys(tree: dict, allowed, path: str):
    for key in sorted(set(tree) - set(allowed)):
        _fail(f"{path}.{key}" if path else key, "unknown key")


def _is_number(value) -> bool:
    """A finite int or float: NaN, Infinity and an int past the float range fail the comparison."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _numbers(value) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


def _emitted(value):
    """A value, or each of a list, as ``fmt_float`` writes it and JSON reads it back."""
    if isinstance(value, list):
        return [_emitted(v) for v in value]
    return float(fmt_float(value)) + 0.0 if isinstance(value, float) and _is_number(value) else value


_NUMBER = (_is_number, "must be a finite number")
_NUMBER_LIST = (lambda v: _numbers(v) and len(v) > 0, "must be a nonempty list of finite numbers")

#: params key -> (check of its value, what the check asks for)
_PARAM_CHECKS = {
    "t": _NUMBER, "y": _NUMBER, "z": _NUMBER,
    "eps": (lambda v: _is_number(v) and v > 0, "must be a positive finite number"),
    "t_list": _NUMBER_LIST, "shift_list": _NUMBER_LIST, "lambda_list": _NUMBER_LIST,
    "eps_list": (
        lambda v: _numbers(v) and len(v) > 0 and v[-1] > 0 and all(b < a for a, b in zip(v, v[1:])),
        "must be a nonempty, strictly decreasing list of positive finite numbers",
    ),
    "probe_grid": (
        lambda v: isinstance(v, list) and len(v) > 0 and all(_numbers(row) and len(row) == 3 for row in v),
        "must be a nonempty list of [t, y, z] rows of 3 finite numbers",
    ),
    "n_time": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 2, "must be an integer of at least 2"),
    "n_paths": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v > 0, "must be a positive integer"),
}


def _check_horizon(params: dict, T: float):
    """Refuse a time outside [0, T], and a short horizon t + eps past T."""
    times = [("t", params["t"])] if "t" in params else []
    times += [("t_list", t) for t in params.get("t_list", ())]
    times += [("probe_grid", row[0]) for row in params.get("probe_grid", ())]
    eps_key = "eps" if "eps" in params else "eps_list"
    eps = np.max(params.get(eps_key, 0.0))  # the longest horizon
    for key, t in times:
        if not 0.0 <= t <= T + _DOMAIN_TOL:
            _fail(f"params.{key}", f"time {t} is outside [0, T], T = {T}")
        if t + eps > T + _DOMAIN_TOL:
            _fail(f"params.{eps_key}", f"t + eps = {t} + {eps} is past T = {T}")


def _get(tree: dict, key: str, path: str):
    if key not in tree:
        _fail(f"{path}.{key}" if path else key, "required key is missing")
    return tree[key]


def _number(tree: dict, key: str, path: str) -> float:
    value = _get(tree, key, path)
    if not _is_number(value):
        _fail(f"{path}.{key}" if path else key, "must be a finite number")
    return _emitted(float(value))  # -0.0 too: it is emitted as "-0", which reads back as 0


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
    _check_keys(tree, ("kind", "T", *{key for keys in _DRIVER_KEYS.values() for key in keys}), path)
    kind = _get(tree, "kind", path)
    if kind not in _DRIVER_KEYS:
        _fail(f"{path}.kind", "must be one of 'brownian', 'fbm', 'custom'")
    # a key the kind does not read would be dropped without a trace
    table = kind == "custom" and any(key in tree for key in _TABLE_KEYS)
    reads = {"kind", "T", *_DRIVER_KEYS[kind]} - ({"covariance_file"} if table else set())
    for key in sorted(set(tree) - reads):
        where = " with an inline cov_grid/cov_matrix table" if table else ""
        _fail(f"{path}.{key}", f"not read by a driver of kind {kind!r}{where}")
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
    if table:
        grid, matrix = (_get(tree, key, path) for key in _TABLE_KEYS)
        try:
            return GaussianDriverSpec(
                kind="custom", T=T, cov_grid=np.asarray(grid, dtype=float), cov_matrix=np.asarray(matrix, dtype=float)
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
    rho = tree.get("rho_table")
    if rho is not None:
        if not isinstance(rho, dict) or set(rho) != {"breaks", "values"}:
            _fail(f"{path}.rho_table", "must be an object with exactly 'breaks' and 'values'")
        if not (_numbers(rho["breaks"]) and _numbers(rho["values"])):
            _fail(f"{path}.rho_table", "'breaks' and 'values' must be lists of finite numbers")
        kwargs["rho_breaks"] = tuple(_emitted(float(v)) for v in rho["breaks"])
        kwargs["rho_values"] = tuple(_emitted(float(v)) for v in rho["values"])
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
    driver: GaussianDriverSpec | None  # None for the suite, whose entries bring their own
    solver: SolverConfig | None  # None for a kind that solves nothing
    scenario: ScenarioSpec | None = None
    scenario_2: ScenarioSpec | None = None
    params: dict = field(default_factory=dict)
    out_dir: str | None = None

    def payload(self) -> dict:
        out = {"kind": self.kind, "seed": self.seed, "params": self.params}
        for key in ("driver", "solver"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key).payload()
        for key, scn in (("scenario", self.scenario), ("scenario_2", self.scenario_2)):
            if scn is not None:
                out[key] = {"terminal": scn.terminal.payload(), "generator": scn.generator.payload()}
        if self.out_dir is not None:
            out["out_dir"] = self.out_dir
        return out

    @property
    def digest(self) -> str:
        # where a run writes (out_dir, or --out in its place) is not what it computes
        return digest_payload({k: v for k, v in self.payload().items() if k != "out_dir"})


def parse_config_payload(tree: dict, base_dir: Path | None = None) -> ExperimentConfig:
    from .experiments import KINDS  # experiments imports this module

    if not isinstance(tree, dict):
        _fail("config", "top level must be an object")
    kind_name = _get(tree, "kind", "")
    if kind_name not in KINDS:
        _fail("kind", f"must be one of {tuple(KINDS)}")
    kind = KINDS[kind_name]
    scenario_keys = ("scenario", "scenario_2")[: kind.scenarios]
    _check_keys(tree, ("kind", "seed", "params", "out_dir", *kind.settings, *scenario_keys), "")
    seed = _integer(tree, "seed", "")

    params = tree.get("params", {})
    if not isinstance(params, dict):
        _fail("params", "must be an object")
    _check_keys(params, kind.required, "params")
    for key in kind.required:
        if key not in params:
            _fail(f"params.{key}", f"required for kind={kind_name}")
    params = {key: _emitted(value) for key, value in params.items()}
    for key, value in params.items():
        check, requirement = _PARAM_CHECKS[key]
        if not check(value):
            _fail(f"params.{key}", requirement)

    driver = solver = None
    if "driver" in kind.settings:
        driver = parse_driver(_get(tree, "driver", ""), base_dir=base_dir)
        _check_horizon(params, driver.T)
    if "solver" in kind.settings:
        solver = parse_solver(tree.get("solver"))
    scenarios = {key: parse_scenario(_get(tree, key, ""), driver, path=key) for key in scenario_keys}

    out_dir = tree.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        _fail("out_dir", "must be a string path")
    cfg = ExperimentConfig(
        kind=kind_name,
        seed=seed,
        driver=driver,
        solver=solver,
        **scenarios,
        params=params,
        out_dir=out_dir,
    )
    # the runner's own refusals, named by key, so `validate` agrees with `run`
    for key, gate in kind.gates:
        try:
            gate(cfg)
        except GaussBsdeError as exc:
            _fail(key, str(exc))
    return cfg


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
