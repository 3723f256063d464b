"""The benchmark's trace targets exist in the package: a change to the program
that renamed or removed one would make ``bench/run.py --trace 1`` raise
``MissingTarget`` (or a hook fail) only when the benchmark runs."""

import ast
import importlib.util
from pathlib import Path

import gaussbsde.experiments  # noqa: F401  (the tracer patches loaded modules only)
from gaussbsde.drivers import GaussianDriverSpec, build_clock
from gaussbsde.pack import identity_scenario
from gaussbsde.solver import SolverConfig, representation_solve, solve_auxiliary

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_tables() -> tuple[tuple[str, ...], list[str]]:
    """``TRACED`` and the keys of ``HOOKS``, read from the source of
    ``bench/run.py``: importing it would rewrite ``os.environ``."""
    tables = {}
    for node in ast.parse((BENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            tables[node.targets[0].id] = node.value
    return ast.literal_eval(tables["TRACED"]), [ast.literal_eval(key) for key in tables["HOOKS"].keys]


def _tracer_class():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_trace_targets_resolve_and_restore():
    traced, hooked = _bench_tables()
    tracer = _tracer_class()("gaussbsde", traced, {name: lambda arguments, result, counters: None for name in hooked})
    originals = {name: getattr(gaussbsde.experiments, name) for name in ("run_single", "solve_auxiliary")}
    tracer.install()  # MissingTarget if a target is gone, or a hook has no target
    try:
        assert gaussbsde.experiments.run_single is not originals["run_single"]
    finally:
        tracer.restore()
    assert {name: getattr(gaussbsde.experiments, name) for name in originals} == originals


def test_attributes_the_bench_hooks_read():
    # bench/run.py's hooks count particle steps from these
    brownian = GaussianDriverSpec.brownian(1.0)
    cfg = SolverConfig(n_time=4, n_particles=200, basis_degree=2)
    field, cloud = solve_auxiliary(identity_scenario(brownian), build_clock(brownian, 5), cfg, seed=1)
    assert (field.n_steps, field.n_iterations, cloud.n_particles) == (4, 1, 200)
    rep = representation_solve(identity_scenario(brownian), build_clock(brownian, 17), 0.25, 0.5, 1.0, 0.5, cfg, seed=1)
    assert (rep.n_particles, rep.n_iterations) == (200, 1)
