import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaussbsde
from gaussbsde.cli import main
from gaussbsde.config import emit_config, load_config, parse_config_payload
from gaussbsde.errors import ConfigInvalid
from gaussbsde.experiments import KINDS, run_config
from gaussbsde.reporting import canonical_json, emit_report
from gaussbsde.theorems import TheoremReport


BASE_CONFIG = {
    "kind": "solve",
    "seed": 4242,
    "driver": {"kind": "brownian", "T": 1.0},
    "scenario": {"terminal": {"b": 1.0}, "generator": {}},
    "solver": {"n_time": 8, "n_particles": 1200, "basis_degree": 2},
}


def kind_config(kind, params):
    """BASE_CONFIG turned into a config of ``kind`` with the given params."""
    tree = {k: v for k, v in BASE_CONFIG.items() if k != "scenario"}
    for key in ("scenario", "scenario_2")[: KINDS[kind].scenarios]:
        tree[key] = BASE_CONFIG["scenario"]
    return dict(tree, kind=kind, params=params)


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
        ],
    )
    def test_unknown_key_named(self, section, update, key):
        with pytest.raises(ConfigInvalid, match=rf"^{key}: unknown key"):
            parse_config_payload(dict(BASE_CONFIG, **{section: update}))

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

    @pytest.mark.parametrize("quantiles", [[0.0, 1.5], [0.5, 1.0], ["0.5"], [True], 0.5])
    def test_quantiles_in_unit_interval(self, quantiles):
        tree = dict(BASE_CONFIG, params={"quantiles": quantiles})
        with pytest.raises(ConfigInvalid, match="params.quantiles"):
            parse_config_payload(tree)

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
            ("wick_validate", {"n_paths": 0}, "n_paths"),
            ("wick_validate", {"n_paths": 2.5}, "n_paths"),
        ],
    )
    def test_param_values_checked(self, kind, params, key):
        with pytest.raises(ConfigInvalid, match=rf"^params\.{key}: must be"):
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

    def test_bad_param_value_fails_validate(self, tmp_path, capsys):
        path = write_config(tmp_path, kind_config("comparison", {"t_list": 5}))
        assert main(["validate", str(path)]) == 1
        assert "params.t_list: must be a list of finite numbers" in capsys.readouterr().err

    def test_missing_seed(self, tmp_path):
        tree = {k: v for k, v in BASE_CONFIG.items() if k != "seed"}
        with pytest.raises(ConfigInvalid, match="seed"):
            parse_config_payload(tree)

    def test_seed_in_solver_section_accepted(self):
        tree = {k: v for k, v in BASE_CONFIG.items() if k != "seed"}
        tree["solver"] = dict(tree["solver"], seed=7)
        assert parse_config_payload(tree).seed == 7

    def test_bad_hurst_message(self, tmp_path):
        tree = dict(BASE_CONFIG, driver={"kind": "fbm", "hurst": 1.5, "T": 1.0})
        with pytest.raises(ConfigInvalid, match=r"hurst must be in \(0,1\)"):
            parse_config_payload(tree)

    def test_unknown_kind(self):
        with pytest.raises(ConfigInvalid, match="kind"):
            parse_config_payload(dict(BASE_CONFIG, kind="dance"))

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

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigInvalid, match="JSON"):
            load_config(path)


class TestCliRun:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["validate", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_start_leaves_scipy_unloaded(self, tmp_path):
        # scipy is slow to import; only the LSI check's quadrature needs it
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

    def test_invalid_config_exit_one(self, tmp_path, capsys):
        tree = dict(BASE_CONFIG, driver={"kind": "fbm", "hurst": 1.5, "T": 1.0})
        path = write_config(tmp_path, tree)
        assert main(["run", str(path)]) == 1
        assert "hurst must be in (0,1)" in capsys.readouterr().err

    def test_runtime_error_exit_one_no_manifest(self, tmp_path, capsys):
        # explicit-scheme stability guard trips at runtime, not at parse time
        tree = dict(
            BASE_CONFIG,
            scenario={"terminal": {"b": 1.0}, "generator": {"c2": 30.0}},
        )
        path = write_config(tmp_path, tree)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 1
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

    def test_check_failure_exit_two(self, tmp_path, monkeypatch):
        import gaussbsde.experiments as experiments

        failing = TheoremReport(
            theorem="stub", scenario_digest="x", passed=False,
            measurements={}, tolerances={}, std_errors={}, seed=0,
        )

        def fake_run_single(cfg, out_dir, name=None):
            paths = emit_report([failing], Path(out_dir) / "reports", prefix="stub__")
            return experiments.ExperimentOutcome(
                name="stub", kind=cfg.kind, reports=[failing],
                report_paths=paths, series_paths=[], wall_clock_ms=0.0,
            )

        monkeypatch.setattr(experiments, "run_single", fake_run_single)
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2

    @pytest.mark.parametrize("threads", ["two", "0", "-3", ""])
    def test_bad_thread_count(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("GAUSSBSDE_THREADS", threads)
        cfg = parse_config_payload({"kind": "full_suite", "seed": 1})
        with pytest.raises(ConfigInvalid, match="GAUSSBSDE_THREADS"):
            run_config(cfg, tmp_path / "out", quiet=True)

    def test_seed_override_changes_digest(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", str(path), "--out", str(o1), "--quiet"]) == 0
        assert main(["run", str(path), "--out", str(o2), "--seed", "99", "--quiet"]) == 0
        m1 = json.loads((o1 / "manifest.json").read_text())
        m2 = json.loads((o2 / "manifest.json").read_text())
        assert m1["seed"] == 4242 and m2["seed"] == 99
        assert m1["config_digest"] != m2["config_digest"]

    def test_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", str(path), "--out", str(o1), "--quiet"]) == 0
        assert main(["run", str(path), "--out", str(o2), "--quiet"]) == 0
        files = sorted(p.relative_to(o1) for p in o1.rglob("*") if p.is_file() and p.name != "run.log")
        assert files
        for rel in files:
            assert (o1 / rel).read_bytes() == (o2 / rel).read_bytes(), rel


class TestEmitReport:
    def _report(self, passed=True):
        return TheoremReport(
            theorem="demo", scenario_digest="abc", passed=passed,
            measurements={"value": 1.25, "list": [1.0, 2.0], "nested": {"a": 3.5}},
            tolerances={"value": 0.1}, std_errors={}, seed=5,
        )

    def test_single_report(self, tmp_path):
        paths = emit_report([self._report()], tmp_path)
        payload = json.loads(paths[0].read_text())
        assert payload["pass"] is True
        assert payload["runtime_ms"] is None

    def test_rerun_identical_bytes(self, tmp_path):
        a = emit_report([self._report()], tmp_path / "a")
        b = emit_report([self._report()], tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path)

    def test_csv_flattening(self, tmp_path):
        paths = emit_report([self._report()], tmp_path)
        csv_text = paths[-1].read_text()
        assert "list[0]" in csv_text and "nested.a" in csv_text


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        out = canonical_json({"b": 1.0, "a": 0.1234567890123456})
        assert out == '{"a":0.123456789012,"b":1}'

    def test_non_finite(self):
        assert canonical_json(float("inf")) == '"Infinity"'
        assert canonical_json(float("nan")) == '"NaN"'

    def test_numpy_types(self):
        out = canonical_json({"x": np.float64(2.5), "n": np.int64(3), "arr": np.array([1.0, 2.0])})
        assert out == '{"arr":[1,2],"n":3,"x":2.5}'
