"""Verdict and scheme-error rates of the default suite over many seeds.

Runs every entry of ``configs/full_suite.json``'s suite in this process at
suite seeds 1..K, each entry on the seed the suite derives for it, and
prints, for each entry, the seeds at which its report's verdict was False,
beside the failures its nominal family-wise rate predicts where the report
gives one (``tolerances["family_rate"]``, of ``n_subtests`` sub-tests),
those at which it was None (not asserted) and the errors it raised, then
the mean and quantiles of ``comparison``'s ``scheme_error_estimate`` over
the seeds.  It writes no file.  Run from the repository root:

    python3 tools/seed_sweep.py --seeds 40
    python3 tools/seed_sweep.py --seeds 160 --only comparison_constant comparison_mean_field

A verdict is a Monte Carlo test at three standard errors, so some seeds fail
by design; this sweep measures those rates, outside the tier-1 tests.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from gaussbsde.errors import GaussBsdeError  # noqa: E402
from gaussbsde.experiments import KINDS, _suite_entries  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=40, help="run suite seeds 1..K")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these suite entries")
    args = parser.parse_args(argv)
    kinds = {name: sub.kind for name, sub in _suite_entries(1)}
    only = args.only or list(kinds)
    unknown = sorted(set(only) - set(kinds))
    if unknown:
        parser.error(f"unknown suite entries {unknown}; the suite has {list(kinds)}")

    failed = {name: [] for name in only}
    unasserted = {name: [] for name in only}
    raised = {name: [] for name in only}
    rates = {}  # name -> (n_subtests, family_rate), for a report that gives them
    scheme_error = {name: [] for name in only if kinds[name] == "comparison"}
    for seed in range(1, args.seeds + 1):
        for name, sub in _suite_entries(seed):
            if name not in failed:
                continue
            try:
                report, _ = KINDS[sub.kind].run(sub)
            except GaussBsdeError as exc:
                raised[name].append((seed, type(exc).__name__))
                continue
            if "family_rate" in report.tolerances:
                rates[name] = (report.tolerances["n_subtests"], report.tolerances["family_rate"])
            if report.passed is False:
                failed[name].append(seed)
            elif report.passed is None:
                unasserted[name].append(seed)
            if name in scheme_error:
                scheme_error[name].append(report.measurements["scheme_error_estimate"])

    print(f"suite seeds 1-{args.seeds}")
    for name in only:
        nominal = ""
        if name in rates:
            n_subtests, rate = rates[name]
            nominal = (
                f" (nominal family-wise rate {rate:.4f} of {n_subtests} sub-tests:"
                f" {rate * args.seeds:.2f} expected)"
            )
        print(
            f"{name}: verdict failed {len(failed[name])}/{args.seeds} {failed[name]}{nominal};"
            f" not asserted {len(unasserted[name])} {unasserted[name]}; raised {len(raised[name])} {raised[name]}"
        )
    for name, values in scheme_error.items():
        if values:
            q50, q90, q97 = np.quantile(values, [0.5, 0.9, 0.97])
            print(
                f"{name} scheme_error_estimate over {len(values)} seeds: mean {np.mean(values):.4g}"
                f" median {q50:.4g} q90 {q90:.4g} q97 {q97:.4g} max {max(values):.4g}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
