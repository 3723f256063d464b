"""Peak memory of the suite's largest entries.  tracemalloc counts numpy's
allocations exactly, so the peaks repeat from run to run; the bounds are
about 1.5 times the peak of the blocked per-path sums, and far below the
peaks the entries reached when they built full-size (n, N) temporaries
(31.6 MB, 20.8 MB and 11.7 MB).  ``representation`` and ``converse``
solve the suite's affine stacks on exact moments, so they hold no particle
array at all (0.145 MB and 0.157 MB), where the table of a draw peaked at
7.0 MB and 3.2 MB with its rows, paths and moment blocks alive at once."""

import tracemalloc
from dataclasses import replace

import pytest

from gaussbsde.experiments import _suite_entries, run_single
from gaussbsde.pack import shift_generator

_MB = 1e6


def _peak(cfg, tmp_path, name) -> float:
    tracemalloc.start()
    try:
        run_single(cfg, tmp_path, name)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize(
    "name, bound_mb",
    [
        ("wick_validate", 10.0),
        ("stability", 15.0),
        ("comparison_mean_field", 15.0),
        ("representation", 0.22),
        ("converse", 0.24),
    ],
)
def test_suite_entry_peak_memory(tmp_path, name, bound_mb):
    (cfg,) = [cfg for entry, cfg in _suite_entries(20260809) if entry == name]
    peak = _peak(cfg, tmp_path, name)
    assert peak < bound_mb * _MB, f"{name} peaked at {peak / _MB:.3f} MB"


def test_generator_gap_peak_memory(tmp_path):
    # the stability entry with the generators apart, not the terminals: the
    # generators' gap runs one block of paths at a time (29.5 MB on the
    # whole path arrays)
    (cfg,) = [cfg for entry, cfg in _suite_entries(20260809) if entry == "stability"]
    peak = _peak(replace(cfg, scenario_2=shift_generator(cfg.scenario, 0.5)), tmp_path, "stability")
    assert peak < 15.0 * _MB, f"stability with a generator gap peaked at {peak / _MB:.1f} MB"
