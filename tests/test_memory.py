"""Peak memory of the suite's largest entries.  tracemalloc counts numpy's
allocations exactly, so the peaks repeat from run to run; the bounds are
about 1.5 times the peak of the blocked per-path sums, and far below the
peaks the entries reached when they built full-size (n, N) temporaries
(31.6 MB, 20.8 MB and 11.7 MB).  ``representation`` and ``converse``
each build one moment table, which keeps the draw's unit-step paths and
releases its rows; their peak is the table's build, with the rows, the
paths and the moment blocks alive at once (6.3 MB and 3.2 MB).  A solve on
a sub-grid of the table builds no path array of its own."""

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
        ("representation", 9.5),
        ("converse", 5.0),
    ],
)
def test_suite_entry_peak_memory(tmp_path, name, bound_mb):
    (cfg,) = [cfg for entry, cfg in _suite_entries(20260809) if entry == name]
    peak = _peak(cfg, tmp_path, name)
    assert peak < bound_mb * _MB, f"{name} peaked at {peak / _MB:.1f} MB"


def test_generator_gap_peak_memory(tmp_path):
    # the stability entry with the generators apart, not the terminals: the
    # generators' gap runs one block of paths at a time (29.5 MB on the
    # whole path arrays)
    (cfg,) = [cfg for entry, cfg in _suite_entries(20260809) if entry == "stability"]
    peak = _peak(replace(cfg, scenario_2=shift_generator(cfg.scenario, 0.5)), tmp_path, "stability")
    assert peak < 15.0 * _MB, f"stability with a generator gap peaked at {peak / _MB:.1f} MB"
