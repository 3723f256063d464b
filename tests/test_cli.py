import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaussbsde
from gaussbsde import reporting
from gaussbsde.cli import main
from gaussbsde.config import load_config, parse_config_payload
from gaussbsde.errors import (
    CholeskyFailure,
    ConfigInvalid,
    DegenerateInterval,
    HypothesisUnsatisfied,
    IoFailure,
    NonFiniteSolution,
    StepTooCoarse,
    UnsupportedScenario,
)
from gaussbsde.experiments import KINDS, _suite_entries, run_config
from gaussbsde.reporting import canonical_json, emit_report, write_series_csv
from gaussbsde.scenario import GeneratorSpec, TerminalSpec
from gaussbsde.solver import SolverConfig
from gaussbsde.theorems import TheoremReport


BASE_CONFIG = {
    "kind": "solve",
    "seed": 4242,
    "driver": {"kind": "brownian", "T": 1.0},
    "scenario": {"terminal": {"b": 1.0}, "generator": {}},
    "solver": {"n_time": 8, "n_particles": 1200, "basis_degree": 2},
}


def emit_config(cfg):
    """The emitted form of a config: the canonical JSON of its payload, as
    the round-trip tests write it and read it back."""
    return canonical_json(cfg.payload()) + "\n"


def kind_config(kind, params):
    """BASE_CONFIG turned into a config of ``kind`` with the given params,
    with only the settings sections the kind reads."""
    tree = {k: v for k, v in BASE_CONFIG.items() if k in ("seed", *KINDS[kind].settings)}
    for key in ("scenario", "scenario_2")[: KINDS[kind].scenarios]:
        tree[key] = BASE_CONFIG["scenario"]
    return dict(tree, kind=kind, params=params)


FBM = {"kind": "fbm", "hurst": 0.7, "T": 1.0}
CUSTOM = {"kind": "custom", "T": 1.0, "cov_grid": [0.5, 1.0], "cov_matrix": [[0.5, 0.5], [0.5, 1.0]]}
FBM_T3 = {"kind": "fbm", "hurst": 0.7, "T": 3.0}
SHORT_TABLE = {"kind": "custom", "T": 1.0, "cov_grid": [0.5], "cov_matrix": [[0.5]]}
FALLING = [[1.0, 0.5], [0.5, 0.8]]  # a covariance diagonal that falls
NOT_PSD = [[0.5, 0.9], [0.9, 1.0]]  # determinant 0.5 - 0.81 < 0
STATE_DEPENDENT = {"terminal": {"b": 1.0}, "generator": {"c1": 0.4}}
LAW_DEPENDENT = {"terminal": {"b": 1.0}, "generator": {"kappa_y": 0.3}}
Z_LAW_DEPENDENT = {"terminal": {"b": 1.0}, "generator": {"kappa_z": 0.5}}
NEGATIVE_COUPLING = {"terminal": {"b": 1.0}, "generator": {"kappa_y": -0.5}}
REPRESENTATION = {"t": 0.25, "y": 1.0, "z": 0.5, "eps_list": [0.2, 0.1]}
CONVERSE = {"probe_grid": [[0.5, 1.0, 0.5]], "eps": 0.1}
# small params of every kind, for kind_config
KIND_PARAMS = {
    "solve": {}, "wick_validate": {"n_time": 8, "n_paths": 200}, "comparison": {"t_list": [0.5]},
    "representation": REPRESENTATION, "converse": CONVERSE, "stability": {},
    "t2": {"t": 1.0, "shift_list": [1.0]}, "lsi": {"t": 1.0, "lambda_list": [1.0]}, "zbound": {}, "full_suite": {},
}

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def write_config(tmp_path, tree, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return path


def run_python(*args):
    """A fresh interpreter that imports this copy of the package."""
    src = str(Path(gaussbsde.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=300)


class TestConfigParsing:
    def test_round_trip(self):
        timed = {"c2": 0.5, "rho_table": {"breaks": [0.5], "values": [1.0, 2.0]}}
        for generator in ({}, timed):
            cfg = parse_config_payload(dict(BASE_CONFIG, scenario={"terminal": {"b": 1.0}, "generator": generator}))
            again = parse_config_payload(json.loads(emit_config(cfg)))
            assert cfg.payload() == again.payload()
            assert cfg.digest == again.digest
        assert again.scenario.generator.rho_values == (1.0, 2.0)

    def test_numbers_read_as_emitted(self):
        # the parsed config holds the 12-digit numbers its emitted form writes
        # and its digest names, and its checks ran on those
        tree = kind_config("representation", {"t": 0.1 + 0.2, "y": 1.0, "z": 0.5, "eps_list": [2 / 3]})
        tree.update(
            driver={"kind": "fbm", "hurst": 1 / 3, "T": 1 + 3e-13},
            scenario={"terminal": {"b": 1 / 3}, "generator": {}},
        )
        cfg = parse_config_payload(tree)
        assert (cfg.driver.T, cfg.driver.hurst, cfg.scenario.terminal.b) == (1.0, 0.333333333333, 0.333333333333)
        assert (cfg.params["t"], cfg.params["eps_list"]) == (0.3, [0.666666666667])

    @pytest.mark.parametrize(
        "section, update, key",
        [
            ("driver", {"kind": "fbm", "hurst": 0.7, "hurts": 0.3}, "driver.hurts"),
            ("scenario", {"terminal": {"b": 1.0}, "generator": {"kapa_y": 0.3}}, "scenario.generator.kapa_y"),
            ("solver", {"n_tme": 8}, "solver.n_tme"),
            ("solver", {"scheme": "theta"}, "solver.scheme"),
            ("paramz", {}, "paramz"),
            ("params", {"t_list": [0.0]}, "params.t_list"),
            ("solver", {"z_estimator": "increment"}, "solver.z_estimator"),
            # constants, not settings: the ridge and the series quantiles; a
            # solve runs one sweep, so it has no Picard stop to set; the seed is
            # a top-level key only
            ("solver", {"ridge": 1e-8}, "solver.ridge"),
            ("solver", {"picard_tol": 1e-3}, "solver.picard_tol"),
            ("solver", {"seed": 7}, "solver.seed"),
            ("params", {"quantiles": [0.5]}, "params.quantiles"),
        ],
    )
    def test_unknown_key_named(self, section, update, key):
        with pytest.raises(ConfigInvalid, match=rf"^{key}: unknown key"):
            parse_config_payload(dict(BASE_CONFIG, **{section: update}))

    @pytest.mark.parametrize("key", ["driver", "solver"])
    def test_suite_takes_no_driver_or_solver(self, key):
        # the suite's entries bring their own drivers and solvers, so the
        # suite's config takes neither and its payload records neither
        with pytest.raises(ConfigInvalid, match=rf"^{key}: unknown key"):
            parse_config_payload({"kind": "full_suite", "seed": 1, key: BASE_CONFIG[key]})
        cfg = parse_config_payload({"kind": "full_suite", "seed": 1})
        assert cfg.driver is None and cfg.solver is None
        assert set(cfg.payload()) == {"kind", "seed", "params"}

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("t2", {"t": 1.0, "shift_list": [1.0]}),
            ("lsi", {"t": 1.0, "lambda_list": [1.0]}),
            ("wick_validate", {"n_time": 8, "n_paths": 100}),
        ],
    )
    def test_kinds_that_solve_nothing_take_no_solver(self, tmp_path, capsys, kind, params):
        # t2 and lsi read a closed-form law, wick_validate its own params:
        # none of them reads a solver section, so none accepts one
        tree = dict(kind_config(kind, params), solver=BASE_CONFIG["solver"])
        assert main(["validate", str(write_config(tmp_path, tree))]) == 1
        assert capsys.readouterr().err.startswith("config error: solver: unknown key")
        cfg = parse_config_payload(kind_config(kind, params))
        assert cfg.solver is None and "solver" not in cfg.payload()

    @pytest.mark.parametrize("params, key", [({"n_paths": 100}, "n_time"), ({"n_time": 8}, "n_paths")])
    def test_wick_validate_params_required(self, params, key):
        # the run has no default path count or grid
        with pytest.raises(ConfigInvalid, match=rf"^params\.{key}: required"):
            parse_config_payload(kind_config("wick_validate", params))

    def test_typo_config_fails_validate(self, tmp_path, capsys):
        tree = dict(
            BASE_CONFIG,
            driver={"kind": "fbm", "hurst": 0.7, "hurts": 0.3},
            scenario={"terminal": {"b": 1.0}, "generator": {"kapa_y": 0.3}},
            solver={"n_tme": 8, "scheme": "theta"},
            paramz={"quantiles": [0.5]},
        )
        assert main(["validate", str(write_config(tmp_path, tree))]) == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, params, key",
        [
            ("comparison", {"t_list": 5}, "t_list"),
            ("comparison", {"t_list": [0.0, "0.5"]}, "t_list"),
            ("representation", {"t": "0.25", "y": 1.0, "z": 0.5, "eps_list": [0.1]}, "t"),
            ("representation", {"t": 0.25, "y": None, "z": 0.5, "eps_list": [0.1]}, "y"),
            ("representation", {"t": 0.25, "y": 1.0, "z": [0.5], "eps_list": [0.1]}, "z"),
            ("representation", {"t": 0.25, "y": 1.0, "z": 0.5, "eps_list": [True]}, "eps_list"),
            ("converse", {"probe_grid": [[0.1, 1.0]], "eps": 0.1}, "probe_grid"),
            ("converse", {"probe_grid": [0.1, 1.0, 0.5], "eps": 0.1}, "probe_grid"),
            ("converse", {"probe_grid": [[0.1, 1.0, 0.5]], "eps": "0.1"}, "eps"),
            ("t2", {"t": 1.0, "shift_list": [[1.0]]}, "shift_list"),
            ("t2", {"t": float("nan"), "shift_list": [1.0]}, "t"),
            ("t2", {"t": 1.0, "shift_list": [0.0, float("inf")]}, "shift_list"),
            ("lsi", {"t": 1.0, "lambda_list": {"0": 1.0}}, "lambda_list"),
            ("wick_validate", {"n_time": 8, "n_paths": 0}, "n_paths"),
            ("wick_validate", {"n_time": 8, "n_paths": 2.5}, "n_paths"),
            # an empty list would fail at run time, or measure nothing
            ("comparison", {"t_list": []}, "t_list"),
            ("representation", {"t": 0.25, "y": 1.0, "z": 0.5, "eps_list": []}, "eps_list"),
            ("converse", {"probe_grid": [], "eps": 0.1}, "probe_grid"),
            ("t2", {"t": 1.0, "shift_list": []}, "shift_list"),
            ("lsi", {"t": 1.0, "lambda_list": []}, "lambda_list"),
            # a short horizon is positive, and eps_list refines it
            ("representation", {"t": 0.25, "y": 1.0, "z": 0.5, "eps_list": [0.1, 0.2]}, "eps_list"),
            ("representation", {"t": 0.25, "y": 1.0, "z": 0.5, "eps_list": [0.1, 0.1]}, "eps_list"),
            ("representation", {"t": 0.25, "y": 1.0, "z": 0.5, "eps_list": [0.1, 0.0]}, "eps_list"),
            ("converse", {"probe_grid": [[0.1, 1.0, 0.5]], "eps": -0.1}, "eps"),
            # times lie in [0, T] and t + eps <= T, for the driver's T = 1; a
            # config outside fails at parse time, not after its solves
            ("t2", {"t": 2.0, "shift_list": [1.0]}, "t"),
            ("lsi", {"t": -0.5, "lambda_list": [1.0]}, "t"),
            ("comparison", {"t_list": [0.0, 1.5]}, "t_list"),
            ("converse", {"probe_grid": [[0.1, 1.0, 0.5], [1.2, 1.0, 0.5]], "eps": 0.1}, "probe_grid"),
            ("converse", {"probe_grid": [[0.95, 1.0, 0.5]], "eps": 0.1}, "eps"),
            ("representation", {"t": 0.9, "y": 1.0, "z": 0.5, "eps_list": [0.2, 0.1]}, "eps_list"),
            # checked as emitted: at 12 digits this eps_list reads [0.2, 0.2]
            ("representation", {"t": 0.25, "y": 1.0, "z": 0.5, "eps_list": [0.2000000000001, 0.2]}, "eps_list"),
            # the steps of wick_validate's path grid
            ("wick_validate", {"n_time": 1, "n_paths": 100}, "n_time"),
            ("wick_validate", {"n_time": 8.0, "n_paths": 100}, "n_time"),
            # one path has no sample variance: every increment is degenerate
            ("wick_validate", {"n_time": 8, "n_paths": 1}, "n_paths"),
        ],
    )
    def test_param_values_checked(self, kind, params, key):
        with pytest.raises(ConfigInvalid, match=rf"^params\.{key}: "):
            parse_config_payload(kind_config(kind, params))

    @pytest.mark.parametrize(
        "scenario, key",
        [
            ({"terminal": {"b": float("nan")}, "generator": {}}, "scenario.terminal.b"),
            ({"terminal": {}, "generator": {"c0": float("-inf")}}, "scenario.generator.c0"),
            ({"terminal": {}, "generator": {"rho_table": {"breaks": ["0.5"], "values": [1, 2]}}}, "scenario.generator.rho_table"),
            ({"terminal": {}, "generator": {"rho_table": {"breaks": [0.5], "values": [1, float("nan")]}}}, "scenario.generator.rho_table"),
        ],
    )
    def test_scenario_numbers_finite(self, scenario, key):
        with pytest.raises(ConfigInvalid, match=rf"^{key}: .*finite number"):
            parse_config_payload(dict(BASE_CONFIG, scenario=scenario))

    def test_absent_keys_keep_the_dataclass_defaults(self):
        cfg = parse_config_payload(dict(BASE_CONFIG, solver={}, scenario={"terminal": {}, "generator": {}}))
        assert cfg.solver == SolverConfig()
        assert cfg.scenario.terminal == TerminalSpec()
        assert cfg.scenario.generator == GeneratorSpec()

    @pytest.mark.parametrize(
        "section, update, message",
        [
            ("solver", {"n_time": 8.0}, "solver.n_time: must be an integer"),
            ("scenario", {"terminal": {}, "generator": {"c0": "1.0"}}, "scenario.generator.c0: must be a finite number"),
            ("scenario", {"terminal": {"phi": ["sin"]}, "generator": {}}, "scenario.terminal.phi: must be one of"),
            ("scenario", {"terminal": {}, "generator": {"phi": "cos"}}, "scenario.generator.phi: must be one of"),
            ("solver", {"basis_degree": -1}, "solver: basis_degree must be at least 1"),
            ("solver", {"basis_degree": 0}, "solver: basis_degree must be at least 1"),
            # an integer past the float range is not a finite number
            ("scenario", {"terminal": {"b": 10 ** 400}, "generator": {}}, "scenario.terminal.b: must be a finite number"),
        ],
    )
    def test_spec_value_types_named(self, section, update, message):
        # each key is read as the type of its dataclass default, and its
        # value is checked by the dataclass
        with pytest.raises(ConfigInvalid, match=rf"^{message}"):
            parse_config_payload(dict(BASE_CONFIG, **{section: update}))

    @pytest.mark.parametrize(
        "kind, params, update, key",
        [
            # an fBm clock has no derivative at t = 0
            ("representation", {"t": 0.0, "y": 1.0, "z": 0.5, "eps_list": [0.2, 0.1]}, {"driver": FBM}, "params.t"),
            ("converse", {"probe_grid": [[0.5, 1.0, 0.5], [0.0, 1.0, 0.5]], "eps": 0.1}, {"driver": FBM}, "params.probe_grid"),
            # a short-horizon solve refuses a generator that reads the state
            ("representation", REPRESENTATION, {"scenario": STATE_DEPENDENT}, "scenario.generator.c1"),
            ("converse", CONVERSE, {"scenario_2": STATE_DEPENDENT}, "scenario_2.generator.c1"),
            # a custom clock is its table's grid: a refined solve would repeat it
            ("comparison", {"t_list": [0.5]}, {"driver": CUSTOM}, "driver.kind"),
            ("stability", {}, {"driver": CUSTOM}, "driver.kind"),
            # the closed-form T2 and LSI laws need an affine law-free scenario
            ("t2", {"t": 0.5, "shift_list": [1.0]}, {"scenario": LAW_DEPENDENT}, "scenario"),
            ("lsi", {"t": 0.5, "lambda_list": [1.0]}, {"scenario": LAW_DEPENDENT}, "scenario"),
            # comparison's hypotheses: no law of Z, one nonnegative mean coupling
            ("comparison", {"t_list": [0.5]}, {"scenario_2": Z_LAW_DEPENDENT}, "scenario_2.generator.kappa_z"),
            (
                "comparison", {"t_list": [0.5]},
                {"scenario": NEGATIVE_COUPLING, "scenario_2": NEGATIVE_COUPLING}, "scenario.generator.kappa_y",
            ),
            # and the coefficient ordering f1 <= f2, g1 <= g2 at the probes the run draws
            ("comparison", {"t_list": [0.5]}, {"scenario": {"terminal": {"b": 1.0}, "generator": {"c0": 1.0}}}, "scenario_2.generator"),
            ("comparison", {"t_list": [0.5]}, {"scenario": {"terminal": {"a": 1.0, "b": 1.0}, "generator": {}}}, "scenario_2.terminal"),
            # the explicit scheme's step guard, max step * L_f <= 0.5: on the grid of
            # n_time = 8 steps (20 / 8 = 2.5), and on each short-horizon sub-grid
            # (eps = 0.5 in 4 steps: 40 / 8 = 5)
            ("solve", {}, {"scenario": {"terminal": {"b": 1.0}, "generator": {"c2": 20.0}}}, "solver.n_time"),
            ("zbound", {}, {"scenario": {"terminal": {"b": 1.0}, "generator": {"c2": 20.0}}}, "solver.n_time"),
            (
                "representation", {"t": 0.25, "y": 1.0, "z": 0.5, "eps_list": [0.5, 0.25]},
                {"scenario": {"terminal": {"b": 1.0}, "generator": {"c2": -40.0}}, "solver": {"n_time": 4}},
                "solver.n_time",
            ),
            # a custom covariance whose diagonal falls has no clock, for the
            # kinds that solve nothing too; one that is not PSD cannot be sampled
            ("t2", {"t": 0.5, "shift_list": [1.0]}, {"driver": dict(CUSTOM, cov_matrix=FALLING)}, "driver.cov_matrix"),
            ("wick_validate", {"n_time": 8, "n_paths": 100}, {"driver": dict(CUSTOM, cov_matrix=FALLING)}, "driver.cov_matrix"),
            ("wick_validate", {"n_time": 8, "n_paths": 100}, {"driver": dict(CUSTOM, cov_matrix=NOT_PSD)}, "driver"),
            # the closed-form Gaussian law past the float range: e^(2 c2 (V_T - V_t)) at c2 = 800
            ("t2", {"t": 0.5, "shift_list": [0.5]}, {"scenario": {"terminal": {"b": 1.0}, "generator": {"c2": 800.0}}}, "scenario"),
            ("lsi", {"t": 0.5, "lambda_list": [0.5]}, {"scenario": {"terminal": {"b": 1.0}, "generator": {"c2": 800.0}}}, "scenario"),
            # a custom driver's clock ends with its table, here at 0.5 < T
            ("t2", {"t": 0.8, "shift_list": [1.0]}, {"driver": SHORT_TABLE}, "params.t"),
            ("lsi", {"t": 0.8, "lambda_list": [1.0]}, {"driver": SHORT_TABLE}, "params.t"),
        ],
    )
    def test_run_time_refusals_named_at_parse(self, tmp_path, capsys, kind, params, update, key):
        # validate refuses what run would refuse, with the key of the gate
        path = write_config(tmp_path, dict(kind_config(kind, params), **update))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        # the same config, gate aside, is valid
        parse_config_payload(kind_config(kind, params))

    @pytest.mark.parametrize(
        "params, scenario, key",
        [
            ({"t": 0.0, "shift_list": [1.0]}, BASE_CONFIG["scenario"], "params.t"),
            ({"t": 0.5, "shift_list": [1.0]}, {"terminal": {"b": 0.0}, "generator": {}}, "scenario.terminal.b"),
        ],
    )
    def test_t2_dirac_law_refused_at_parse(self, tmp_path, capsys, params, scenario, key):
        # sigma^2 = 0: the report would hold an infinite relative entropy
        path = write_config(tmp_path, dict(kind_config("t2", params), scenario=scenario))
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 1
            assert capsys.readouterr().err.startswith(f"config error: {key}: t2 needs")

    @pytest.mark.parametrize(
        "kind, params, update, key, error",
        [
            ("representation", {"t": 0.0, "y": 1.0, "z": 0.5, "eps_list": [0.2, 0.1]}, {"driver": FBM}, "params.t", UnsupportedScenario),
            (
                "converse", {"probe_grid": [[0.5, 1.0, 0.5], [0.0, 1.0, 0.5]], "eps": 0.1}, {"driver": FBM},
                "params.probe_grid", UnsupportedScenario,
            ),
            ("representation", REPRESENTATION, {"scenario": STATE_DEPENDENT}, "scenario.generator.c1", UnsupportedScenario),
            ("converse", CONVERSE, {"scenario_2": STATE_DEPENDENT}, "scenario_2.generator.c1", UnsupportedScenario),
            ("comparison", {"t_list": [0.5]}, {"driver": CUSTOM}, "driver.kind", UnsupportedScenario),
            ("stability", {}, {"driver": CUSTOM}, "driver.kind", UnsupportedScenario),
            ("t2", {"t": 0.5, "shift_list": [1.0]}, {"scenario": LAW_DEPENDENT}, "scenario", UnsupportedScenario),
            ("lsi", {"t": 0.5, "lambda_list": [1.0]}, {"scenario": LAW_DEPENDENT}, "scenario", UnsupportedScenario),
            (
                "comparison", {"t_list": [0.5]}, {"scenario_2": Z_LAW_DEPENDENT},
                "scenario_2.generator.kappa_z", HypothesisUnsatisfied,
            ),
            (
                "comparison", {"t_list": [0.5]}, {"scenario": NEGATIVE_COUPLING, "scenario_2": NEGATIVE_COUPLING},
                "scenario.generator.kappa_y", HypothesisUnsatisfied,
            ),
            (
                "comparison", {"t_list": [0.5]}, {"scenario": {"terminal": {"b": 1.0}, "generator": {"c0": 1.0}}},
                "scenario_2.generator", HypothesisUnsatisfied,
            ),
            (
                "comparison", {"t_list": [0.5]}, {"scenario": {"terminal": {"a": 1.0, "b": 1.0}, "generator": {}}},
                "scenario_2.terminal", HypothesisUnsatisfied,
            ),
            ("solve", {}, {"scenario": {"terminal": {"b": 1.0}, "generator": {"c2": 20.0}}}, "solver.n_time", StepTooCoarse),
            ("zbound", {}, {"scenario": {"terminal": {"b": 1.0}, "generator": {"c2": 20.0}}}, "solver.n_time", StepTooCoarse),
            (
                "stability", {}, {"scenario": {"terminal": {"b": 1.0}, "generator": {"c2": 20.0}}},
                "solver.n_time", StepTooCoarse,
            ),
            (
                "representation", {"t": 0.25, "y": 1.0, "z": 0.5, "eps_list": [0.5, 0.25]},
                {"scenario": {"terminal": {"b": 1.0}, "generator": {"c2": -40.0}}, "solver": {"n_time": 4}},
                "solver.n_time", StepTooCoarse,
            ),
            (
                "representation", {"t": 0.25, "y": 1.0, "z": 0.5, "eps_list": [1e-15]}, {},
                "solver.n_time", DegenerateInterval,
            ),
            ("wick_validate", {"n_time": 8, "n_paths": 100}, {"driver": dict(CUSTOM, cov_matrix=NOT_PSD)}, "driver", CholeskyFailure),
            (
                "t2", {"t": 0.5, "shift_list": [0.5]}, {"scenario": {"terminal": {"b": 1.0}, "generator": {"c2": 800.0}}},
                "scenario", NonFiniteSolution,
            ),
            (
                "lsi", {"t": 0.5, "lambda_list": [0.5]}, {"scenario": {"terminal": {"b": 1.0}, "generator": {"c2": 800.0}}},
                "scenario", NonFiniteSolution,
            ),
            ("t2", {"t": 0.0, "shift_list": [1.0]}, {}, "params.t", HypothesisUnsatisfied),
            (
                "t2", {"t": 0.5, "shift_list": [1.0]}, {"scenario": {"terminal": {"b": 0.0}, "generator": {}}},
                "scenario.terminal.b", HypothesisUnsatisfied,
            ),
        ],
    )
    def test_run_refuses_what_validate_refuses(self, tmp_path, capsys, monkeypatch, kind, params, update, key, error):
        # a check's refusals are one statement, which validate and run both call
        tree = dict(kind_config(kind, params), **update)
        assert main(["validate", str(write_config(tmp_path, tree))]) == 1
        printed = capsys.readouterr().err
        monkeypatch.setitem(KINDS, kind, dataclasses.replace(KINDS[kind], refuse=lambda cfg: None))
        cfg = parse_config_payload(tree)
        with pytest.raises(error) as refused:
            KINDS[kind].run(cfg)
        assert type(refused.value) is error
        assert printed == f"config error: {key}: {refused.value}\n"
        if kind not in ("solve", "zbound", "wick_validate"):  # their guards sit inside the solve or the sampler
            assert refused.value.key == key

    @pytest.mark.parametrize(
        "kind, driver, integers, floats",
        [
            # a reported time past 12 digits: str(10 ** 12) is not 1e12 as a report writes it
            (
                "t2", {"kind": "brownian", "T": 1e12}, {"t": 10 ** 12, "shift_list": [0, 1, 2]},
                {"t": 1e12, "shift_list": [0.0, 1.0, 2.0]},
            ),
            (
                "converse", FBM_T3, {"probe_grid": [[1, 10 ** 12, 0], [2, -1, 1]], "eps": 1},
                {"probe_grid": [[1.0, 1e12, 0.0], [2.0, -1.0, 1.0]], "eps": 1.0},
            ),
            (
                "representation", FBM_T3, {"t": 1, "y": 1, "z": 0, "eps_list": [2, 1]},
                {"t": 1.0, "y": 1.0, "z": 0.0, "eps_list": [2.0, 1.0]},
            ),
        ],
    )
    def test_integer_params_run_as_floats(self, tmp_path, kind, driver, integers, floats):
        # a check reads an integer-valued param as the float of the same value
        drawn = {"terminal": {"b": 1.0}, "generator": {"c2": -0.2, "phi": "tanh", "c4": 0.5}}  # its table is drawn
        outputs = []
        for name, params in (("integers", integers), ("floats", floats)):
            tree = dict(kind_config(kind, params), driver=driver)
            if kind == "representation":
                tree["scenario"] = drawn
            out = tmp_path / name
            code = main(["run", str(write_config(tmp_path, tree, f"{name}.json")), "--out", str(out), "--quiet"])
            outputs.append((code, {p.name: p.read_bytes() for p in (out / "reports").iterdir()}))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] in (0, 2) and len(outputs[0][1]) == 2  # the report and its CSV

    def test_bad_param_value_fails_validate(self, tmp_path, capsys):
        path = write_config(tmp_path, kind_config("comparison", {"t_list": 5}))
        assert main(["validate", str(path)]) == 1
        assert "params.t_list: must be a nonempty list of finite numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
    def test_shipped_config_validates_and_round_trips(self, path, capsys):
        assert main(["validate", str(path)]) == 0
        cfg = load_config(path)
        assert f"digest={cfg.digest}" in capsys.readouterr().out
        again = parse_config_payload(json.loads(emit_config(cfg)), base_dir=path.parent)
        assert again.digest == cfg.digest

    @pytest.mark.parametrize(
        "driver, key",
        [
            # a key the driver's kind does not read is refused, not dropped
            ({"kind": "brownian", "T": 1.0, "hurst": 0.3}, "driver.hurst"),
            (dict(FBM, cov_grid=[0.5, 1.0]), "driver.cov_grid"),
            (dict(CUSTOM, covariance_file="cov.csv"), "driver.covariance_file"),
            ({"kind": "custom", "T": 1.0, "hurst": 0.7, "covariance_file": "cov.csv"}, "driver.hurst"),
            # half an inline table names its missing half
            ({"kind": "custom", "T": 1.0, "cov_grid": [0.5, 1.0]}, "driver.cov_matrix"),
            ({"kind": "custom", "T": 1.0, "cov_matrix": [[0.5, 0.5], [0.5, 1.0]]}, "driver.cov_grid"),
        ],
    )
    def test_driver_keys_its_kind_does_not_read(self, tmp_path, capsys, driver, key):
        path = write_config(tmp_path, dict(BASE_CONFIG, driver=driver))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")

    def test_missing_seed(self, tmp_path):
        tree = {k: v for k, v in BASE_CONFIG.items() if k != "seed"}
        with pytest.raises(ConfigInvalid, match="seed"):
            parse_config_payload(tree)

    def test_bad_hurst_message(self, tmp_path):
        tree = dict(BASE_CONFIG, driver={"kind": "fbm", "hurst": 1.5, "T": 1.0})
        with pytest.raises(ConfigInvalid, match=r"hurst must be in \(0,1\)"):
            parse_config_payload(tree)

    def test_unknown_kind(self):
        with pytest.raises(ConfigInvalid, match="kind"):
            parse_config_payload(dict(BASE_CONFIG, kind="dance"))

    @pytest.mark.parametrize(
        "kind, params, update, message, key",
        [
            # the clock does not move on [t, t + eps]
            (
                "representation", {"t": 0.25, "y": 1.0, "z": 0.5, "eps_list": [1e-15]}, {},
                "variance clock does not move", "solver.n_time",
            ),
            # a custom covariance whose diagonal falls has no clock: the driver
            # refuses it, under the key of its table, before the step gate
            (
                "solve", {}, {"driver": dict(CUSTOM, cov_matrix=FALLING)},
                "covariance diagonal", "driver.cov_matrix",
            ),
        ],
    )
    def test_step_gate_errors_named_at_parse(self, tmp_path, capsys, kind, params, update, message, key):
        path = write_config(tmp_path, dict(kind_config(kind, params), **update))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key}: {message}")

    def test_missing_params_named(self):
        tree = dict(BASE_CONFIG, kind="comparison", scenario_2=BASE_CONFIG["scenario"])
        with pytest.raises(ConfigInvalid, match="params.t_list"):
            parse_config_payload(tree)

    def test_covariance_file(self, tmp_path):
        cov = tmp_path / "cov.csv"
        cov.write_text("0.25\n0.25,0.5\n0.25,0.5,0.75\n0.25,0.5,0.75,1.0\n")
        tree = dict(BASE_CONFIG, driver={"kind": "custom", "T": 1.0, "covariance_file": "cov.csv"})
        path = write_config(tmp_path, tree)
        cfg = load_config(path)
        assert cfg.driver.kind == "custom"
        np.testing.assert_allclose(cfg.driver.cov_grid, [0.25, 0.5, 0.75, 1.0])
        # embedded form round-trips
        again = parse_config_payload(json.loads(emit_config(cfg)))
        assert again.payload() == cfg.payload()

    def test_covariance_file_without_a_clock_named(self, tmp_path, capsys):
        (tmp_path / "cov.csv").write_text("1.0\n0.5,0.8\n")
        tree = dict(kind_config("t2", {"t": 0.5, "shift_list": [1.0]}), driver={"kind": "custom", "covariance_file": "cov.csv"})
        assert main(["validate", str(write_config(tmp_path, tree))]) == 1
        assert capsys.readouterr().err.startswith("config error: driver.covariance_file: covariance diagonal")

    def test_custom_driver_runs_end_to_end(self, tmp_path):
        # Brownian min-table provided as a custom covariance: full solve works
        rows = []
        grid = [0.125 * (i + 1) for i in range(8)]
        for i, t in enumerate(grid):
            rows.append(",".join(str(min(t, s)) for s in grid[: i + 1]))
        (tmp_path / "cov.csv").write_text("\n".join(rows) + "\n")
        tree = dict(BASE_CONFIG, driver={"kind": "custom", "T": 1.0, "covariance_file": "cov.csv"})
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        report = json.loads(next((out / "reports").glob("*solve.json")).read_text())
        # identity scenario on a Brownian table: linear coefficient near 1
        scales = report["measurements"]["basis_scales"]
        coef = report["measurements"]["u_coeffs"][4][1] / scales[4]
        assert coef == pytest.approx(1.0, abs=0.05)

    def test_spec_payload_writes_every_field(self):
        # a spec's emitted keys are its dataclass's fields, so no field is
        # read from a config and then dropped from its emitted form
        timed = GeneratorSpec(c2=0.5, rho_breaks=(0.5,), rho_values=(1.0, 2.0))
        assert set(TerminalSpec().payload()) == {f.name for f in dataclasses.fields(TerminalSpec)}
        names = {f.name for f in dataclasses.fields(GeneratorSpec)} - {"rho_breaks", "rho_values"}
        assert set(GeneratorSpec().payload()) == names
        assert set(timed.payload()) == names | {"rho_table"}
        assert timed.payload()["rho_table"] == {"breaks": [0.5], "values": [1.0, 2.0]}

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigInvalid, match="JSON"):
            load_config(path)


def _generator(**generator):
    return dict(BASE_CONFIG, scenario={"terminal": {"b": 1.0}, "generator": generator})


# config -> the line `gaussbsde validate` prints for it; "{dir}" stands for
# the config's directory, which holds empty.csv and ragged.csv
REFUSALS = {
    "top_level": ([1, 2], "config: top level must be an object"),
    "params": (dict(BASE_CONFIG, params=[1]), "params: must be an object"),
    "driver": (dict(BASE_CONFIG, driver="brownian"), "driver: must be an object"),
    "scenario": (dict(BASE_CONFIG, scenario=[]), "scenario: must be an object"),
    "terminal": (
        dict(BASE_CONFIG, scenario={"terminal": 1.0, "generator": {}}), "scenario.terminal: must be an object"
    ),
    "generator": (
        dict(BASE_CONFIG, scenario={"terminal": {}, "generator": "tanh"}), "scenario.generator: must be an object"
    ),
    "solver": (dict(BASE_CONFIG, solver=[8]), "solver: must be an object"),
    "solver_false": (dict(BASE_CONFIG, solver=False), "solver: must be an object"),
    "driver_kind": (
        dict(BASE_CONFIG, driver={"kind": "levy", "T": 1.0}), "driver.kind: must be one of 'brownian', 'fbm', 'custom'"
    ),
    "driver_T": (dict(BASE_CONFIG, driver={"kind": "brownian", "T": 0}), "driver.T: horizon must be positive"),
    "out_dir": (dict(BASE_CONFIG, out_dir=3), "out_dir: must be a string path"),
    "rho_table_keys": (
        _generator(rho_table={"breaks": [0.5]}),
        "scenario.generator.rho_table: must be an object with exactly 'breaks' and 'values'",
    ),
    "rho_table_lengths": (
        _generator(rho_table={"breaks": [0.5], "values": [1.0]}),
        "scenario.generator: rho_values must have one more entry than rho_breaks",
    ),
    "terminal_phi": (
        dict(BASE_CONFIG, scenario={"terminal": {"phi": "none", "c": 1}, "generator": {}}),
        "scenario.terminal: nonlinearity coefficient must be 0 when phi is 'none'",
    ),
    "solver_n_time": (dict(BASE_CONFIG, solver={"n_time": 1}), "solver: n_time must be at least 2"),
    "solver_odd_particles": (
        dict(BASE_CONFIG, solver={"n_particles": 1201}),
        "solver: n_particles must be even: the solver draws antithetic pairs",
    ),
    "covariance_missing": (
        dict(BASE_CONFIG, driver={"kind": "custom", "covariance_file": "missing.csv"}),
        "driver.covariance_file: cannot read covariance table: [Errno 2] No such file or directory: "
        "'{dir}/missing.csv'",
    ),
    "covariance_empty": (
        dict(BASE_CONFIG, driver={"kind": "custom", "covariance_file": "empty.csv"}),
        "driver.covariance_file: covariance table is empty",
    ),
    "covariance_ragged": (
        dict(BASE_CONFIG, driver={"kind": "custom", "covariance_file": "ragged.csv"}),
        "driver.covariance_file: covariance table row 1 must have 2 entries",
    ),
    # a section's checks run in one order: its keys, its field values, its
    # rho_table, then the spec's own checks
    "order_keys_first": (_generator(c9=1.0, c2="x", rho_table=3), "scenario.generator.c9: unknown key"),
    "order_values_next": (_generator(c2="x", rho_table=3), "scenario.generator.c2: must be a finite number"),
    "order_rho_table_next": (
        _generator(phi="none", c4=1.0, rho_table=3),
        "scenario.generator.rho_table: must be an object with exactly 'breaks' and 'values'",
    ),
    "order_spec_last": (
        _generator(phi="none", c4=1.0, rho_table={"breaks": [0.5], "values": [1.0]}),
        "scenario.generator: nonlinearity coefficient must be 0 when phi is 'none'",
    ),
}


class TestRefusalCatalogue:
    @pytest.mark.parametrize("tree, message", REFUSALS.values(), ids=REFUSALS)
    def test_validate_prints_the_refusal(self, tmp_path, capsys, tree, message):
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "ragged.csv").write_text("0.5\n0.5\n")
        assert main(["validate", str(write_config(tmp_path, tree))]) == 1
        assert capsys.readouterr() == ("", f"config error: {message.replace('{dir}', str(tmp_path))}\n")

    def test_null_solver_reads_as_the_defaults(self, tmp_path, capsys):
        for solver in (None, {}):
            assert main(["validate", str(write_config(tmp_path, dict(BASE_CONFIG, solver=solver)))]) == 0
            assert capsys.readouterr().out == "ok: kind=solve digest=72b1f1f7c850dc24\n"
        assert parse_config_payload(dict(BASE_CONFIG, solver=None)).solver == SolverConfig()

    def test_missing_config_file(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ConfigInvalid) as info:
            load_config(path)
        assert str(info.value) == f"config: cannot read {path}: [Errno 2] No such file or directory: '{path}'"


class TestCliRun:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["validate", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_start_leaves_scipy_unloaded(self, tmp_path):
        # scipy is slow to import and the package does not depend on it
        path = write_config(tmp_path, BASE_CONFIG)
        probe = (
            "import sys, gaussbsde.cli, gaussbsde.experiments\n"
            "from gaussbsde.config import load_config\n"
            f"load_config({str(path)!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        result = run_python("-c", probe)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_start_defers_run_time_imports(self):
        # the normal quantiles and the Gauss-Hermite rule are imported by
        # the code that uses them, and nothing imports a thread pool at start-up
        deferred = ["concurrent.futures", "numpy.polynomial.hermite_e", "statistics"]
        probe = (
            "import sys, gaussbsde.cli, gaussbsde.experiments\n"
            f"print([m for m in {deferred!r} if m in sys.modules])\n"
        )
        result = run_python("-c", probe)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_lsi_run_leaves_scipy_unloaded(self, tmp_path):
        # the LSI check's entropies are Gauss-Hermite sums, not scipy quadrature
        tree = kind_config("lsi", {"t": 1.0, "lambda_list": [0.0, 0.5, 1.0]})
        path = write_config(tmp_path, tree)
        probe = (
            "import sys\n"
            "from gaussbsde.cli import main\n"
            f"code = main(['run', {str(path)!r}, '--out', {str(tmp_path / 'out')!r}, '--quiet'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        result = run_python("-c", probe)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "0 []"
        report = json.loads(next((tmp_path / "out" / "reports").glob("*_lsi.json")).read_text())
        assert report["measurements"]["max_quadrature_error"] <= 1e-6

    def test_run_solve_exit_zero(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        listed = [p for e in manifest["experiments"] for p in e["reports"] + e["series"]]
        assert listed
        for rel in listed:
            assert (out / rel).exists()
        assert manifest["wall_clock_ms"] is None

    def test_out_dir(self, tmp_path, capsys):
        # run writes to a config's out_dir without --out, --out overrides it,
        # and the config has one digest either way: so has its manifest
        configured = tmp_path / "configured"
        with_out_dir = write_config(tmp_path, dict(BASE_CONFIG, out_dir=str(configured)), "with_out_dir.json")
        plain = write_config(tmp_path, BASE_CONFIG, "plain.json")
        assert main(["run", str(with_out_dir), "--quiet"]) == 0
        assert main(["run", str(with_out_dir), "--out", str(tmp_path / "override"), "--quiet"]) == 0
        assert main(["run", str(plain), "--out", str(tmp_path / "plain"), "--quiet"]) == 0
        manifests = {(tmp_path / d / "manifest.json").read_bytes() for d in ("configured", "override", "plain")}
        assert len(manifests) == 1
        capsys.readouterr()
        for path in (with_out_dir, plain):
            assert main(["validate", str(path)]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first == second

    def test_solve_report_step_margin(self, tmp_path):
        # the report carries the grid's max ds * L_f, the margin to the
        # step guard's 0.5, and no sweep log: a solve runs one sweep
        tree = dict(BASE_CONFIG, scenario={"terminal": {"b": 1.0}, "generator": {"c2": 0.5, "kappa_y": 0.3}})
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, tree)), "--out", str(out), "--quiet"]) == 0
        measurements = json.loads(next((out / "reports").glob("*.json")).read_text())["measurements"]
        assert measurements["step_lipschitz"] == pytest.approx(0.8 / 8, rel=1e-12)
        assert not any(key.startswith("picard") for key in measurements)

    def test_invalid_config_exit_one(self, tmp_path, capsys):
        tree = dict(BASE_CONFIG, driver={"kind": "fbm", "hurst": 1.5, "T": 1.0})
        path = write_config(tmp_path, tree)
        assert main(["run", str(path)]) == 1
        assert "hurst must be in (0,1)" in capsys.readouterr().err

    def test_runtime_error_exit_one_no_manifest(self, tmp_path, capsys):
        # the explicit-scheme stability guard: `run` refuses the config when
        # it is parsed, as `validate` does, and writes nothing
        unstable = {"terminal": {"b": 1.0}, "generator": {"c2": 30.0}}
        path = write_config(tmp_path, dict(BASE_CONFIG, scenario=unstable))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 1
        assert not (out / "manifest.json").exists()
        assert capsys.readouterr().err.startswith("config error: solver.n_time: explicit scheme needs max step * L_f")
        # past the parse, the run raises the named error, not a stray ValueError
        cfg = parse_config_payload(BASE_CONFIG)
        cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(cfg.scenario, generator=GeneratorSpec(c2=30.0)))
        with pytest.raises(StepTooCoarse, match=r"explicit scheme needs max step \* L_f <= 0.5"):
            run_config(cfg, out, quiet=True)
        assert not (out / "manifest.json").exists()

    def test_non_finite_solution_exit_one_no_manifest(self, tmp_path, capsys):
        tree = dict(
            BASE_CONFIG,
            seed=1,
            scenario={"terminal": {"a": 1e308}, "generator": {"c0": 1e308}},
            solver={"n_time": 8, "n_particles": 2000},
        )
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, tree)), "--out", str(out), "--quiet"]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        # the named error is the only report: no numpy warning on the console
        cli = run_python("-m", "gaussbsde.cli", "run", str(write_config(tmp_path, tree)), "--out", str(out), "--quiet")
        assert cli.returncode == 1
        assert "non-finite" in cli.stderr
        assert "RuntimeWarning" not in cli.stderr

    @pytest.mark.parametrize(
        "kind, params, where",
        [
            # exp(lambda^2 / 2) past float64, and a shift whose square is
            ("lsi", {"t": 1.0, "lambda_list": [100.0]}, "lsi at lambda 100.0"),
            ("t2", {"t": 1.0, "shift_list": [1e155]}, "t2 at shift 1e+155"),
        ],
    )
    def test_check_overflow_exit_one_no_manifest(self, tmp_path, capsys, kind, params, where):
        out = tmp_path / "out"
        path = write_config(tmp_path, kind_config(kind, params))
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(f"error: non-finite value in {where}: ")
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "t_list, measurements",
        [
            # the origin alone, where every path starts and the band cuts
            # none: delta and the scheme error are the ridge and round-off gap
            # of the coarse and fine Y_0, so any change of summation order
            # moves their sixth digit
            (
                [0.0],
                '{"band":[0],"band_cut_fraction":0,"delta":1.99999350414e-10,"max_violation_fraction":0,'
                '"scheme_error_estimate":6.66664501381e-11,"t_list":[0],"violation_fraction":[0]}',
            ),
            # the scheme error is read inside the band 2.3263 sqrt(V_t)
            (
                [1.0, 0.5],
                '{"band":[2.32634787404,1.64497635713],"band_cut_fraction":0.0175,"delta":0.00401870059192,'
                '"max_violation_fraction":0,"scheme_error_estimate":0.00133956686397,"t_list":[1,0.5],'
                '"violation_fraction":[0,0]}',
            ),
        ],
        ids=["origin", "two_times"],
    )
    def test_comparison_report_pinned(self, tmp_path, t_list, measurements):
        tree = dict(
            kind_config("comparison", {"t_list": t_list}),
            scenario_2={"terminal": {"a": 0.5, "b": 1.0}, "generator": {"c0": 1.0}},
        )
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, tree)), "--out", str(out), "--quiet"]) == 0
        report = json.loads(next((out / "reports").glob("*_comparison.json")).read_text())
        assert canonical_json(report["measurements"]) == measurements

    def test_check_failure_exit_two(self, tmp_path, monkeypatch):
        import gaussbsde.experiments as experiments

        failing = TheoremReport(
            theorem="stub", scenario_digest="x", passed=False,
            measurements={}, tolerances={}, std_errors={}, seed=0,
        )

        def fake_run_single(cfg, out_dir, name=None):
            paths = emit_report(failing, Path(out_dir) / "reports", prefix="stub__")
            return experiments.ExperimentOutcome(
                name="stub", kind=cfg.kind, report=failing,
                report_paths=paths, series_paths=[], wall_clock_ms=0.0,
            )

        monkeypatch.setattr(experiments, "run_single", fake_run_single)
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2

    def test_seed_override_changes_digest(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", str(path), "--out", str(o1), "--quiet"]) == 0
        assert main(["run", str(path), "--out", str(o2), "--seed", "99", "--quiet"]) == 0
        m1 = json.loads((o1 / "manifest.json").read_text())
        m2 = json.loads((o2 / "manifest.json").read_text())
        assert m1["seed"] == 4242 and m2["seed"] == 99
        assert m1["config_digest"] != m2["config_digest"]

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_verdict_printed_as_reported(self, tmp_path, monkeypatch, kind):
        # every verdict is a builtin True, False or None, and the manifest
        # and the exit code read it as the report holds it
        import gaussbsde.experiments as experiments

        run_single, reports = experiments.run_single, {}

        def recording(*args):
            outcome = run_single(*args)
            reports[outcome.name] = outcome.report
            return outcome

        monkeypatch.setattr(experiments, "run_single", recording)
        path, all_passed = run_config(parse_config_payload(kind_config(kind, KIND_PARAMS[kind])), tmp_path, quiet=True)
        entries = json.loads(path.read_text())["experiments"]
        assert sorted(entry["name"] for entry in entries) == sorted(reports)
        for entry in entries:
            verdict = reports[entry["name"]].passed
            assert type(verdict) is bool or verdict is None
            assert entry["pass"] is verdict
        assert all_passed is all(report.passed is not False for report in reports.values())

    def test_unasserted_verdict_marked(self, tmp_path, capsys):
        # t2 on a horizon with V_T > 1 is report-only: its verdict is None
        tree = dict(kind_config("t2", KIND_PARAMS["t2"]), driver={"kind": "brownian", "T": 2.0})
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, tree)), "--out", str(out)]) == 0
        assert re.fullmatch(r"\[N/A\] t2 \(\d+ ms\)", capsys.readouterr().out.splitlines()[0])
        assert re.fullmatch(r"t2: [\d.]+ ms, pass=None", (out / "run.log").read_text().splitlines()[0])
        assert json.loads((out / "manifest.json").read_text())["experiments"][0]["pass"] is None

    @pytest.mark.parametrize("driver, n_subtests", [(FBM, 19), (BASE_CONFIG["driver"], 27)], ids=["fbm", "brownian"])
    def test_wick_validate_family_rate(self, tmp_path, driver, n_subtests):
        # the sub-tests at 3 standard errors, and on a Brownian driver the
        # quadratic identity's variance gate at 0.025 sqrt(n / 3.5) of them
        tree = dict(kind_config("wick_validate", {"n_time": 8, "n_paths": 2000}), driver=driver)
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, tree)), "--out", str(out), "--quiet"]) in (0, 2)
        tolerances = json.loads(next((out / "reports").glob("*.json")).read_text())["tolerances"]
        rates = [math.erfc(3.0 / math.sqrt(2.0))] * 19
        if n_subtests == 27:
            rates += [math.erfc(0.025 * math.sqrt(2000 / 3.5) / math.sqrt(2.0))] + rates[:7]
        assert tolerances["n_subtests"] == n_subtests
        assert tolerances["family_rate"] == pytest.approx(1.0 - np.prod(1.0 - np.array(rates)), rel=1e-12)

    def test_suite_zbound_verdict_in_manifest(self, tmp_path):
        # at suite seed 4 the largest |Z| over all particles exceeds the
        # bound's slack; the largest inside the band does not
        path, all_passed = run_config(dict(_suite_entries(4))["zbound"], tmp_path, quiet=True)
        [entry] = json.loads(path.read_text())["experiments"]
        report = json.loads((tmp_path / "reports" / "zbound__00_z_bound.json").read_text())
        assert entry["pass"] is report["pass"] is all_passed is True

    def test_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", str(path), "--out", str(o1), "--quiet"]) == 0
        assert main(["run", str(path), "--out", str(o2), "--quiet"]) == 0
        files = sorted(p.relative_to(o1) for p in o1.rglob("*") if p.is_file() and p.name != "run.log")
        assert files
        for rel in files:
            assert (o1 / rel).read_bytes() == (o2 / rel).read_bytes(), rel


def _bare_report():
    return TheoremReport(theorem="demo", scenario_digest="abc", passed=True, measurements={"value": 1.0}, seed=5)


class TestBlockedOutputs:
    """Each output path blocked by a file or directory made before the run."""

    def test_report_under_a_file(self, tmp_path):
        (tmp_path / "reports").write_text("")
        with pytest.raises(IoFailure, match=f"^could not write {re.escape(str(tmp_path / 'reports' / '00_demo.json'))}: "):
            emit_report(_bare_report(), tmp_path / "reports")

    def test_report_path_is_a_directory(self, tmp_path):
        (tmp_path / "00_demo.json").mkdir()
        with pytest.raises(IoFailure, match=f"^could not write {re.escape(str(tmp_path / '00_demo.json'))}: "):
            emit_report(_bare_report(), tmp_path)

    def test_series_path_is_a_directory(self, tmp_path):
        with pytest.raises(IoFailure, match=f"^could not write {re.escape(str(tmp_path))}: "):
            write_series_csv(tmp_path, ["t"], [(0.5,)])

    def test_series_under_a_file(self, tmp_path, capsys):
        # the series directory is made by the same guarded writer as the file
        out = tmp_path / "out"
        out.mkdir()
        (out / "series").write_text("")
        assert main(["run", str(write_config(tmp_path, BASE_CONFIG)), "--out", str(out), "--quiet"]) == 1
        series = out / "series"
        assert capsys.readouterr() == (
            "", f"error: could not write {series / 'solve__solution.csv'}: [Errno 17] File exists: '{series}'\n"
        )

    def test_manifest_path_is_a_directory(self, tmp_path):
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        with pytest.raises(IoFailure, match=f"^could not write {re.escape(str(out / 'manifest.json'))}: "):
            run_config(parse_config_payload(BASE_CONFIG), out, quiet=True)
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 1

    def test_out_dir_is_a_file_named(self, tmp_path, capsys):
        # the first file's guarded writer makes the output directory, and names the file it could not write
        out = tmp_path / "out"
        out.write_text("")
        assert main(["run", str(write_config(tmp_path, BASE_CONFIG)), "--out", str(out)]) == 1
        reports = out / "reports"
        assert capsys.readouterr() == (
            "", f"error: could not write {reports / 'solve__00_solve.json'}: [Errno 20] Not a directory: '{reports}'\n"
        )

    def test_console_lines(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, BASE_CONFIG)), "--out", str(out)]) == 0
        passed, manifest = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"\[PASS\] solve \(\d+ ms\)", passed)
        assert manifest == f"manifest: {out / 'manifest.json'}"


class TestEmitReport:
    def _report(self, passed=True):
        return TheoremReport(
            theorem="demo", scenario_digest="abc", passed=passed,
            measurements={"value": 1.25, "list": [1.0, 2.0], "nested": {"a": 3.5}},
            tolerances={"value": 0.1}, std_errors={}, seed=5,
        )

    def test_numpy_verdict_refused(self):
        with pytest.raises(TypeError, match="^demo: passed must be True, False or None, not <class 'numpy.bool'>$"):
            self._report(passed=np.False_)

    def test_single_report(self, tmp_path):
        paths = emit_report(self._report(), tmp_path, prefix="run__")
        assert [path.name for path in paths] == ["run__00_demo.json", "run__measurements.csv"]
        payload = json.loads(paths[0].read_text())
        assert payload["pass"] is True
        assert payload["runtime_ms"] is None

    def test_rerun_identical_bytes(self, tmp_path):
        a = emit_report(self._report(), tmp_path / "a")
        b = emit_report(self._report(), tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_empty_sections_by_default(self, tmp_path):
        payload = json.loads(emit_report(_bare_report(), tmp_path)[0].read_text())
        assert payload["tolerances"] == {} and payload["std_errors"] == {}

    def test_csv_flattening(self, tmp_path):
        paths = emit_report(self._report(), tmp_path)
        csv_text = paths[-1].read_text()
        assert "list[0]" in csv_text and "nested.a" in csv_text

    def test_each_float_formatted_once(self, tmp_path, monkeypatch):
        # the JSON and the CSV come from one rendering of the payload
        formatted = []
        monkeypatch.setattr(reporting, "fmt_float", lambda x, _fmt=reporting.fmt_float: formatted.append(x) or _fmt(x))
        emit_report(self._report(), tmp_path)
        assert sorted(formatted) == [0.1, 1.0, 1.25, 2.0, 3.5]


def _json_leaves(value, key=""):
    """(key, text) of each leaf of a JSON value read with its numbers as
    their text, keyed as the measurements CSV keys them."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _json_leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _json_leaves(v, f"{key}[{i}]")
    else:
        yield key, str(value)


def _float_leaves(value) -> int:
    if isinstance(value, dict):
        return sum(_float_leaves(v) for v in value.values())
    if isinstance(value, (list, tuple, np.ndarray)):
        return sum(_float_leaves(v) for v in (value.tolist() if isinstance(value, np.ndarray) else value))
    return int(isinstance(value, (float, np.floating)))


def test_suite_csvs_hold_the_json_leaves(tmp_path, monkeypatch):
    # over every report of one suite run: each measurements CSV holds the
    # JSON measurements' leaves in order, each cell the text of the JSON
    # token, and emit_report formats each float leaf of a payload once
    import gaussbsde.experiments as experiments

    formatted, counts = [], []
    monkeypatch.setattr(reporting, "fmt_float", lambda x, _fmt=reporting.fmt_float: formatted.append(x) or _fmt(x))

    def emitting(report, *args, _emit=experiments.emit_report, **kwargs):
        before = len(formatted)
        paths = _emit(report, *args, **kwargs)
        counts.append((len(formatted) - before, _float_leaves(report.payload())))
        return paths

    monkeypatch.setattr(experiments, "emit_report", emitting)
    path, _ = run_config(parse_config_payload({"kind": "full_suite", "seed": 1}), tmp_path, quiet=True)
    entries = json.loads(path.read_text())["experiments"]
    assert len(entries) == len(counts) == 13
    assert all(calls == leaves for calls, leaves in counts), counts
    for entry in entries:
        json_rel, csv_rel = entry["reports"]
        assert json_rel.endswith(".json") and csv_rel.endswith("__measurements.csv")
        report = json.loads((tmp_path / json_rel).read_text(), parse_float=str, parse_int=str)
        with open(tmp_path / csv_rel, newline="") as handle:
            header, *rows = csv.reader(handle)
        assert header == ["theorem", "scenario_digest", "key", "value"]
        assert rows, entry["name"]
        assert {tuple(row[:2]) for row in rows} == {(report["theorem"], report["scenario_digest"])}
        assert [(key, value) for _, _, key, value in rows] == list(_json_leaves(report["measurements"]))


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        out = canonical_json({"b": 1.0, "a": 0.1234567890123456})
        assert out == '{"a":0.123456789012,"b":1}'

    def test_non_finite(self):
        assert canonical_json(float("inf")) == '"Infinity"'
        assert canonical_json(float("nan")) == '"NaN"'

    def test_numpy_bool_refused(self):
        # a numpy bool is no builtin bool: it fails loudly, not as a flag
        with pytest.raises(TypeError, match="^cannot serialize <class 'numpy.bool'>$"):
            canonical_json(np.True_)

    def test_numpy_types(self):
        out = canonical_json({"x": np.float64(2.5), "n": np.int64(3), "arr": np.array([1.0, 2.0])})
        assert out == '{"arr":[1,2],"n":3,"x":2.5}'
