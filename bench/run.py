"""Outside-in benchmark of gaussbsde, run from the repository root:

    python3 bench/run.py --workload suite --seed 20260809 --seconds 40 --trace 0

Each workload is a set of config JSON files generated from the seed and run
through the public entry points ``gaussbsde.config.load_config`` and
``gaussbsde.experiments.run_config``, in this one process, pinned to one BLAS
thread and ``GAUSSBSDE_THREADS=1``.  After one untimed warm-up pass, passes
repeat until ``--seconds`` have elapsed (and at least ``MIN_PASSES`` ran).

An untraced pass also runs the reference kernel (``reference.py``) before
and after every check, outside the pass's own time.  Wall and CPU time are
reported in multiples of the kernel's median time in the same run, which
cancels the shared host's drift in speed.

``--trace 0`` reports the end-to-end metrics of untraced passes.  ``--trace 1``
alternates untraced and traced passes and reports per-layer calls, self time
and counters, plus the tracing overhead.  Every pass must write the same
bytes as the warm-up pass.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the pinned environment and the sample count behind each median.
"""

import os

# must precede the first numpy import, here or in the set-up probes
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "GAUSSBSDE_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import ReferenceKernel  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3  # per mode; the median of fewer passes follows one slow pass
SETUP_STARTS = 5  # fresh interpreters per run; their median is setup_s
PROBE_TIMEOUT_S = 60

# public functions traced in --trace 1, as module.function of the package
TRACED = (
    "config.load_config",
    "experiments.run_config",
    "experiments.run_single",
    "drivers.build_clock",
    "drivers.sample_paths",
    "scenario.lipschitz_audit",
    "measures.sorted_w2",
    "solver.solve_auxiliary",
    "solver.representation_solve",
    "solver.transfer_evaluate",
    "wick.wick_exponential_weights",
    "wick.s_transform_mc",
    "wick.s_transform_factorization_check",
    "wick.riemann_wick_integral",
    "theorems.comparison_check",
    "theorems.representation_limit_check",
    "theorems.converse_comparison_check",
    "theorems.stability_check",
    "theorems.t2_check",
    "theorems.lsi_check",
    "theorems.z_bound_check",
    "reporting.emit_report",
    "reporting.write_series_csv",
)

# counters computed from the traced calls: name -> (unit, better)
COUNTERS = {
    "solver.particle_steps": ("count", "lower"),
    "solver.particle_steps_per_s": ("1/s", "higher"),
    "solver.picard_sweeps": ("count", "lower"),
    "drivers.sample_paths.bytes": ("B", "lower"),
    "wick.weights_distinct_ratio": ("1", "higher"),
    "reporting.bytes_written": ("B", "lower"),
    "setup.import_s": ("s", "lower"),
    # as measured, before division by the reference kernel's time
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "reference.kernel_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    # failed / attempted checks; a per-layer metric because it reads 0, and a
    # bound that is a share of a zero median bounds nothing
    "fail_ratio": ("1", "lower"),
}

END_TO_END = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_err": "1",
}


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric that --trace 1 reports."""
    out = []
    for name in TRACED:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.extend((name, unit, better) for name, (unit, better) in COUNTERS.items())
    return out


# ---------------------------------------------------------------------------
# counters fed by the tracer


def _count(counters: dict, key: str, amount: float):
    counters[key] = counters.get(key, 0) + amount


def _on_solve(arguments, result, counters):
    field, cloud = result
    _count(counters, "particle_steps", cloud.n_particles * field.n_steps * field.n_iterations)
    _count(counters, "picard_sweeps", field.n_iterations)


def _on_representation(arguments, result, counters):
    _count(counters, "particle_steps", result.n_particles * arguments["cfg"].n_time * result.n_iterations)
    _count(counters, "picard_sweeps", result.n_iterations)


def _on_sample_paths(arguments, result, counters):
    # computed, not measured: float64 samples of n_paths x grid points
    _count(counters, "sample_bytes", arguments["n_paths"] * len(arguments["grid_t"]) * 8)


def _on_weights(arguments, result, counters):
    h, paths = arguments["h"], arguments["paths"]
    counters.setdefault("weight_keys", set()).add((id(paths), h.edges.tobytes(), h.values.tobytes()))


HOOKS = {
    "solver.solve_auxiliary": _on_solve,
    "solver.representation_solve": _on_representation,
    "drivers.sample_paths": _on_sample_paths,
    "wick.wick_exponential_weights": _on_weights,
}


def layer_metrics(tracer: Tracer, written_bytes: int) -> dict:
    """Per-layer values of one traced pass."""
    values = {}
    for name in TRACED:
        values[f"{name}.calls"] = tracer.calls.get(name, 0)
        values[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    c = tracer.counters
    solve_s = tracer.total_s.get("solver.solve_auxiliary", 0.0) + tracer.total_s.get(
        "solver.representation_solve", 0.0
    )
    weight_calls = tracer.calls.get("wick.wick_exponential_weights", 0)
    values["solver.particle_steps"] = c.get("particle_steps", 0)
    values["solver.particle_steps_per_s"] = c.get("particle_steps", 0) / solve_s if solve_s else 0.0
    values["solver.picard_sweeps"] = c.get("picard_sweeps", 0)
    values["drivers.sample_paths.bytes"] = c.get("sample_bytes", 0)
    values["wick.weights_distinct_ratio"] = (
        len(c.get("weight_keys", ())) / weight_calls if weight_calls else 0.0
    )
    values["reporting.bytes_written"] = written_bytes
    return values


# ---------------------------------------------------------------------------
# passes and the output gate


def read_outputs(out_dir: Path) -> tuple[dict, dict]:
    """The manifest, and the sha256 of the manifest and of every file it lists."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    rels = ["manifest.json"] + [
        rel for exp in manifest["experiments"] for rel in exp["reports"] + exp["series"]
    ]
    return manifest, {rel: hashlib.sha256((out_dir / rel).read_bytes()).hexdigest() for rel in rels}


class Gate:
    """Counts checks over all passes of a run.

    A check fails when its config raised or when any of its files, or the
    manifest, differs from the warm-up pass.  A check's own verdict is a
    Monte Carlo test at three standard errors, false at some seeds by design,
    so verdicts are counted apart and do not fail the run.
    """

    def __init__(self):
        self.reference: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.verdicts_failed = 0

    def record(self, out_dirs: dict, raised: set) -> int:
        digests = {}
        for name, out_dir in out_dirs.items():
            if name in raised:
                self.attempted += 1
                self.failed += 1
                continue
            manifest, digests[name] = read_outputs(out_dir)
            # the warm-up pass is its own reference
            ref = (self.reference or digests).get(name, {})
            for exp in manifest["experiments"]:
                files = ["manifest.json"] + exp["reports"] + exp["series"]
                self.attempted += 1
                self.failed += any(ref.get(rel) != digests[name][rel] for rel in files)
                self.verdicts_failed += exp["pass"] is not True
        if self.reference is None:
            self.reference = digests
        return sum(
            (out_dirs[name] / rel).stat().st_size for name, table in digests.items() for rel in table
        )

    def add(self, other: "Gate"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.verdicts_failed += other.verdicts_failed


class Runner:
    def __init__(self, workload, seed: int, work_dir: Path):
        self.config_paths = write_configs(workload, seed, work_dir / f"configs-{seed}")
        self.out_root = work_dir / f"out-{seed}"
        self.gate = Gate()

    @property
    def out_dirs(self) -> dict:
        return {name: self.out_root / name for name in self.config_paths}

    def run_pass(self, kernel: ReferenceKernel | None = None) -> tuple[float, float, int]:
        """One pass over the workload's configs: (wall s, cpu s, bytes written).

        With a kernel, it runs before and after every check, and its time is
        taken out of the pass's.
        """
        # looked up on every pass, so that a traced pass calls the wrappers
        from gaussbsde.config import load_config
        from gaussbsde.experiments import run_config

        shutil.rmtree(self.out_root, ignore_errors=True)
        raised = set()
        samples = len(kernel.walls) if kernel else 0
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with kernel.around_each_check() if kernel else contextlib.nullcontext():
            for name, path in self.config_paths.items():
                try:
                    run_config(load_config(path), self.out_root / name, quiet=True)
                except Exception:  # the run goes on; the check counts as failed
                    traceback.print_exc(file=sys.stderr)
                    raised.add(name)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if kernel:
            if len(kernel.walls) == samples:
                raise RuntimeError("run_config no longer calls experiments.run_single; no kernel samples")
            wall -= sum(kernel.walls[samples:])
            cpu -= sum(kernel.cpus[samples:])
        written = self.gate.record(self.out_dirs, raised)
        return wall, cpu, written


def write_configs(workload, seed: int, config_dir: Path) -> dict:
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, tree in workload.configs(seed, ROOT).items():
        paths[name] = config_dir / f"{name}.json"
        paths[name].write_text(json.dumps(tree, indent=1) + "\n")
    return paths


def setup_probes(config_paths: dict) -> list[dict]:
    """Fresh-interpreter set-up samples: import the CLI and load the configs."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    command = [sys.executable, str(probe), str(SRC)] + [str(p) for p in config_paths.values()]
    samples = []
    for _ in range(SETUP_STARTS):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT
        )
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        if Path(sample["module"]).resolve().parent != SRC / "gaussbsde":
            raise RuntimeError(f"set-up probe imported {sample['module']}, not the checkout's source")
        samples.append(sample)
    return samples


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        **{key: os.environ.get(key) for key in PINNED_ENV},
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gaussbsde" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no gaussbsde source tree under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = WORK / workload.name
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        return measure(workload, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(workload, args, work_dir: Path) -> int:
    sys.path.insert(0, str(SRC))
    import gaussbsde.cli  # noqa: F401  (the set-up path of `gaussbsde run`)
    import gaussbsde.experiments

    if Path(gaussbsde.__file__).resolve().parent != SRC / "gaussbsde":
        print(f"error: imported {gaussbsde.__file__}, not the checkout's source", file=sys.stderr)
        return 2

    runner = Runner(workload, args.seed, work_dir)
    probes = setup_probes(runner.config_paths)
    kernel = ReferenceKernel()
    runner.run_pass(kernel)  # warm-up: lazy imports, caches, reference digests
    kernel.walls.clear()
    kernel.cpus.clear()
    if workload.oracle_at_default_seed and args.seed != DEFAULT_SEED:
        reference = Runner(workload, DEFAULT_SEED, work_dir)
        reference.run_pass()
        oracle_err = workload.oracle(reference.out_dirs)
        runner.gate.add(reference.gate)
    else:
        oracle_err = workload.oracle(runner.out_dirs)
    gates = {name: value(runner.out_dirs) for name, value, _ in workload.gates}

    walls, cpus, traced_walls, layers = [], [], [], []
    tracer = Tracer("gaussbsde", TRACED, HOOKS)
    start = time.perf_counter()
    while (
        len(walls) < MIN_PASSES
        or (args.trace and len(traced_walls) < MIN_PASSES)
        or time.perf_counter() - start < args.seconds
    ):
        wall, cpu, _ = runner.run_pass(kernel)
        walls.append(wall)
        cpus.append(cpu)
        if args.trace:
            tracer.reset()
            tracer.install()
            try:
                wall, _, written = runner.run_pass()
            finally:
                tracer.restore()
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer, written))

    if args.trace:
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        metrics["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["wall_s"] = statistics.median(walls)
        metrics["cpu_s"] = statistics.median(cpus)
        metrics["reference.kernel_s"] = statistics.median(kernel.walls)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        metrics["fail_ratio"] = runner.gate.failed / runner.gate.attempted
        units = {name: unit for name, unit, _ in per_layer_names()}
        samples = {
            "untraced_passes": len(walls),
            "traced_passes": len(traced_walls),
            "kernel_runs": len(kernel.walls),
            "setup_starts": len(probes),
        }
        measured = {}
    else:
        metrics = {
            "wall_ref": statistics.median(walls) / statistics.median(kernel.walls),
            "cpu_ref": statistics.median(cpus) / statistics.median(kernel.cpus),
            "setup_s": statistics.median(p["import_s"] + p["load_config_s"] for p in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "oracle_err": oracle_err,
        }
        units = END_TO_END
        samples = {"passes": len(walls), "kernel_runs": len(kernel.walls), "setup_starts": len(probes)}
        measured = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "reference.kernel_s": statistics.median(kernel.walls),
        }

    correct = (
        runner.gate.failed == 0
        and math.isfinite(oracle_err)
        and oracle_err <= workload.oracle_limit
        and all(gates[name] <= limit for name, _, limit in workload.gates)
        and all(math.isfinite(v) for v in metrics.values())
    )
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "env": environment(),
        "samples": samples,
        "measured": measured,
        "check_verdicts_failed": runner.gate.verdicts_failed,
        "fail_ratio": runner.gate.failed / runner.gate.attempted,
        "gates": gates,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.gate.attempted,
        "failed": runner.gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
