"""The reference kernel: fixed work of the kinds the solver does, timed
between the checks of every untraced pass.

The host this benchmark runs on is shared, and its speed drifts by 20-40%
over tens of seconds; CPU time follows wall time, so the drift is slower
instructions, not lost time slices.  A pass's time divided by the kernel's
median time in the same run cancels what the two share.  The kernel runs
before and after every check, so its samples cover the same seconds as the
passes.

Its inputs depend on no seed, and it calls nothing of the package, so a
change to the program cannot change it.  It keeps under 3 MB resident, so it
does not lift the process's peak RSS over the program's own.
"""

from __future__ import annotations

import contextlib
import sys
import time

import numpy as np


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._phi = rng.standard_normal((8000, 5))  # a regression basis
        self._target = rng.standard_normal(8000)
        self._atoms = rng.standard_normal(200_000)  # a W2 test's atoms
        self._block = self._atoms.reshape(-1, 8)
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def run(self) -> float:
        """Run the kernel once and record its wall and CPU time."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for _ in range(12):  # normal equations of a least-squares fit
            np.linalg.solve(self._phi.T @ self._phi, self._phi.T @ self._target)
        for _ in range(4):
            np.sort(self._atoms)
        for _ in range(6):
            np.exp(self._atoms).sum()
        for _ in range(4):
            self._block.T @ self._block
        total = 0
        for i in range(100_000):  # interpreted Python, as in the orchestration
            total += i * i
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.walls.append(wall)
        self.cpus.append(cpu)
        return wall

    @contextlib.contextmanager
    def around_each_check(self):
        """Run the kernel before and after every ``run_single`` call that ``run_config`` makes."""
        experiments = sys.modules["gaussbsde.experiments"]
        original = getattr(experiments, "run_single", None)
        if not callable(original):
            raise LookupError("gaussbsde.experiments.run_single is not a function of the package")

        def run_single(*args, **kwargs):
            self.run()
            try:
                return original(*args, **kwargs)
            finally:
                self.run()

        experiments.run_single = run_single
        try:
            yield
        finally:
            experiments.run_single = original
