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

from .drivers import _DOMAIN_TOL, GaussianDriverSpec, build_clock
from .errors import ConfigInvalid, GaussBsdeError
from .reporting import digest_payload, fmt_float
from .scenario import GeneratorSpec, NONLINEARITIES, ScenarioSpec, TerminalSpec
from .solver import SolverConfig

_TABLE_KEYS = ("cov_grid", "cov_matrix")
#: driver kind -> the keys it reads besides kind and T (custom: its table, or else its file)
_DRIVER_KEYS = {"brownian": (), "fbm": ("hurst",), "custom": (*_TABLE_KEYS, "covariance_file")}


def _fail(key: str, message: str):
    raise ConfigInvalid(f"{key}: {message}")


def _object(tree, path: str, allowed) -> dict:
    """``tree``, refused unless it is a JSON object whose keys are all in ``allowed``."""
    if not isinstance(tree, dict):
        _fail(path, "must be an object")
    for key in sorted(set(tree) - set(allowed)):
        _fail(f"{path}.{key}" if path else key, "unknown key")
    return tree


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
# the steps of a path grid, and its paths: one path has no sample variance
_AT_LEAST_TWO = (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 2, "must be an integer of at least 2")

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
    "n_time": _AT_LEAST_TWO, "n_paths": _AT_LEAST_TWO,
}


def _check_horizon(params: dict, driver: GaussianDriverSpec):
    """Refuse a time outside [0, end], and a short horizon t + eps past T.
    ``end`` is where the driver's clock ends: T, or the last time of a custom
    driver's table, which may end before T."""
    T = driver.T
    end, span = (float(driver.cov_grid[-1]), "the driver's table") if driver.kind == "custom" else (T, "T")
    times = [("t", params["t"])] if "t" in params else []
    times += [("t_list", t) for t in params.get("t_list", ())]
    times += [("probe_grid", row[0]) for row in params.get("probe_grid", ())]
    eps_key = "eps" if "eps" in params else "eps_list"
    eps = np.max(params.get(eps_key, 0.0))  # the longest horizon
    for key, t in times:
        if not 0.0 <= t <= end + _DOMAIN_TOL:
            _fail(f"params.{key}", f"time {t} is outside [0, {end}], the span of {span}")
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


_READERS = {int: _integer, float: _number, str: _nonlinearity}  # by the type of a field's default


def _spec(tree, spec_class, path: str, **extra):
    """The dataclass ``spec_class`` read from the object ``tree``.  Its keys
    are the class's int, float and string fields, each read as the type of
    its default (a string as a nonlinearity tag), and those of ``extra``,
    each read by its function into more fields; the keys ``tree`` leaves out
    keep the defaults.  The class's own refusal is named by ``path``."""
    readers = {f.name: _READERS[type(f.default)] for f in fields(spec_class) if type(f.default) in _READERS}
    tree = _object(tree, path, (*readers, *extra))
    kwargs = {key: read(tree, key, path) for key, read in readers.items() if key in tree}
    for key, read in extra.items():
        kwargs.update(read(tree.get(key), f"{path}.{key}"))
    try:
        return spec_class(**kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _load_covariance_file(path: Path, T: float, key: str) -> GaussianDriverSpec:
    try:
        with open(path, newline="") as handle:
            rows = [[float(v) for v in row if v.strip() != ""] for row in csv.reader(handle)]
    except (OSError, ValueError) as exc:
        _fail(key, f"cannot read covariance table: {exc}")
    rows = [row for row in rows if row]
    n = len(rows)
    if n == 0:
        _fail(key, "covariance table is empty")
    grid = np.array([(i + 1) * T / n for i in range(n)])
    try:
        return GaussianDriverSpec.custom(grid, rows, T)
    except ValueError as exc:
        _fail(key, str(exc))


def parse_driver(tree, path: str = "driver", base_dir: Path | None = None) -> GaussianDriverSpec:
    tree = _object(tree, path, ("kind", "T", *{key for keys in _DRIVER_KEYS.values() for key in keys}))
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
        key = f"{path}.cov_matrix"
        try:
            spec = GaussianDriverSpec(
                kind="custom", T=T, cov_grid=np.asarray(grid, dtype=float), cov_matrix=np.asarray(matrix, dtype=float)
            )
        except (ValueError, TypeError) as exc:
            _fail(key, str(exc))
    else:
        key, file_path = f"{path}.covariance_file", Path(_get(tree, "covariance_file", path))
        if base_dir is not None and not file_path.is_absolute():
            file_path = base_dir / file_path
        spec = _load_covariance_file(file_path, T, key)
    try:
        build_clock(spec, 2)  # a custom clock is its table's diagonal, which must increase
    except GaussBsdeError as exc:
        _fail(key, str(exc))
    return spec


def _rho_table(rho, path: str) -> dict:
    """A generator's ``rho_table`` read into its ``rho_breaks`` and ``rho_values`` (none if absent)."""
    if rho is None:
        return {}
    if not isinstance(rho, dict) or set(rho) != {"breaks", "values"}:
        _fail(path, "must be an object with exactly 'breaks' and 'values'")
    if not (_numbers(rho["breaks"]) and _numbers(rho["values"])):
        _fail(path, "'breaks' and 'values' must be lists of finite numbers")
    return {f"rho_{key}": tuple(_emitted(float(v)) for v in rho[key]) for key in ("breaks", "values")}


def parse_scenario(tree, driver: GaussianDriverSpec, path: str = "scenario") -> ScenarioSpec:
    tree = _object(tree, path, ("terminal", "generator"))
    return ScenarioSpec(
        terminal=_spec(_get(tree, "terminal", path), TerminalSpec, f"{path}.terminal"),
        generator=_spec(_get(tree, "generator", path), GeneratorSpec, f"{path}.generator", rho_table=_rho_table),
        driver=driver,
    )


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
    _object(tree, "", ("kind", "seed", "params", "out_dir", *kind.settings, *scenario_keys))
    seed = _integer(tree, "seed", "")

    params = _object(tree.get("params", {}), "params", kind.required)
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
        _check_horizon(params, driver)
    if "solver" in kind.settings:
        solver = _spec({} if tree.get("solver") is None else tree["solver"], SolverConfig, "solver")
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
