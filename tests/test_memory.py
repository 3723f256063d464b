"""Peak memory of the suite's largest entries.  tracemalloc counts numpy's
allocations exactly, so the peaks repeat from run to run; the bounds are
about 1.5 times the peak of the blocked per-path sums, and far below the
peaks the entries reached when they built full-size (n, N) temporaries
(31.6 MB, 20.8 MB and 11.7 MB)."""

import tracemalloc

import pytest

from gaussbsde.experiments import _suite_entries, run_single

_MB = 1e6


@pytest.mark.parametrize(
    "name, bound_mb", [("wick_validate", 10.0), ("stability", 15.0), ("comparison_mean_field", 15.0)]
)
def test_suite_entry_peak_memory(tmp_path, name, bound_mb):
    (cfg,) = [cfg for entry, cfg in _suite_entries(20260809) if entry == name]
    tracemalloc.start()
    try:
        run_single(cfg, tmp_path, name)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * _MB, f"{name} peaked at {peak / _MB:.1f} MB"
