"""Executable checks: each structural property of the solution map becomes a
deterministic procedure with explicit tolerances and closed-form oracles where
they exist, reported as a TheoremReport.

Every check derives its random streams from (seed, check name), so reports
are byte-identical across reruns with the same configuration and seed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .drivers import GaussianDriverSpec, VarianceClock, _particle_blocks, build_clock, covariance, sample_paths
from .errors import (
    HypothesisUnobserved,
    HypothesisUnsatisfied,
    NonFiniteSolution,
    NonpositiveMass,
    UnsupportedScenario,
)
from .measures import GaussianLaw1D, LawFeatures, entropy_functional, gaussian_kl, gaussian_w2
from .reporting import digest_payload
from .rng import derived_seed
from .scenario import (
    ScenarioSpec,
    eval_generator,
    generator_dv_on_paths,
    generator_order_probe,
    terminal_on_paths,
    terminal_order_probe,
)
from .solver import (
    SolverConfig,
    SolutionField,
    ParticleCloud,
    representation_solve_stack,
    short_horizon_draw,
    solve_auxiliary_stack,
    transfer_evaluate,
)

_EXACT_TOL = 1e-12
_REPRESENTATION_REL_TOL = 0.05  # final |A - f| allowed, relative to 1 + |f|
_Z_BOUND_SLACK = 0.05  # the Z bound's relative slack
_QUADRATURE_TOL = 1e-6  # the LSI entropies' quadrature error, relative to max(1, |entropy|)


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one check.  ``passed`` is None for report-only runs."""

    theorem: str
    scenario_digest: str
    passed: bool | None
    measurements: dict
    seed: int
    tolerances: dict = field(default_factory=dict)
    std_errors: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def payload(self) -> dict:
        return {
            "theorem": self.theorem,
            "scenario_digest": self.scenario_digest,
            "pass": self.passed,
            "measurements": self.measurements,
            "tolerances": self.tolerances,
            "std_errors": self.std_errors,
            "seed": self.seed,
            "notes": list(self.notes),
            "runtime_ms": None,
        }


def scenario_digest(*scns: ScenarioSpec) -> str:
    return digest_payload([s.payload() for s in scns])


def _require_same_driver(scn1: ScenarioSpec, scn2: ScenarioSpec):
    if scn1.driver.payload() != scn2.driver.payload():
        raise HypothesisUnsatisfied("both scenarios must share the driver")


def _require_clock_differentiable(driver: GaussianDriverSpec, t: float):
    if driver.kind == "brownian":
        return
    if driver.kind == "fbm" and t > 0:
        return
    raise UnsupportedScenario(
        "variance clock must be differentiable at t (brownian, or fbm with t > 0)"
    )


def _require_refinable(driver: GaussianDriverSpec):
    if driver.kind == "custom":
        raise UnsupportedScenario("a custom driver's clock is its table's grid: a refined solve would repeat it")


def _require_z_law_free(scn: ScenarioSpec):
    if scn.generator.kappa_z != 0.0:
        raise HypothesisUnsatisfied("comparison requires no dependence on the law of Z (kappa_z = 0)")


def _require_mean_coupling(scn1: ScenarioSpec, scn2: ScenarioSpec):
    if scn1.generator.mean_y_sensitivity[0] < 0.0 and scn2.generator.mean_y_sensitivity[0] < 0.0:
        raise HypothesisUnsatisfied("comparison requires a nonnegative mean-coupling in Y for one generator")


def _require_generator_order(scn1: ScenarioSpec, scn2: ScenarioSpec, seed: int):
    probe = generator_order_probe(scn1.generator, scn2.generator, seed=derived_seed(seed, "cmp-f"), T=scn1.driver.T)
    if not probe.ordered:
        raise HypothesisUnsatisfied(f"generator ordering fails at probe {probe.counterexample}")


def _require_terminal_order(scn1: ScenarioSpec, scn2: ScenarioSpec, seed: int):
    probe = terminal_order_probe(scn1.terminal, scn2.terminal, seed=derived_seed(seed, "cmp-g"))
    if not probe.ordered:
        raise HypothesisUnsatisfied(f"terminal ordering fails at probe {probe.counterexample}")


def _require_gaussian_family(scn: ScenarioSpec):
    gen, term = scn.generator, scn.terminal
    if not (
        gen.is_law_free
        and gen.c1 == 0.0
        and gen.c3 == 0.0
        and gen.phi == "none"
        and gen.rho_values is None
        and term.phi == "none"
        and term.lambda_mean == 0.0
    ):
        raise UnsupportedScenario(
            "closed-form Gaussian family needs affine law-free f(t,y) and affine g(x)"
        )


def _require_t2_time(t: float):
    if not t > 0.0:  # sigma^2 = b^2 e^(2 c2 (V_T - V_t)) V_t is 0 at V_0 = 0
        raise HypothesisUnsatisfied("t2 needs t > 0: Y_0 has a Dirac law, with no finite relative entropy")


def _require_t2_spread(scn: ScenarioSpec):
    if scn.terminal.b == 0.0:
        raise HypothesisUnsatisfied("t2 needs b != 0: Y_t then has a Dirac law, with no finite relative entropy")


def _short_horizon_clock(driver: GaussianDriverSpec, n_time: int) -> VarianceClock:
    """The clock table on whose values a short-horizon check lays each solve's sub-grid."""
    return build_clock(driver, max(4 * n_time, 256) + 1)


def _refined_fields(scn1: ScenarioSpec, scn2: ScenarioSpec, cfg: SolverConfig, seed: int):
    """Both scenarios' fields on the grid of ``cfg.n_time`` steps and on its
    refinement of twice as many, solved as one stack on one draw: one list
    per grid.  The fine grid's cloud is dropped, so no solve's paths
    outlive the call."""
    clocks = [build_clock(scn1.driver, m * cfg.n_time + 1) for m in (1, 2)]
    fields, _ = solve_auxiliary_stack([scn1, scn2], clocks, cfg, seed)
    return fields


# ---------------------------------------------------------------------------
# comparison


def comparison_check(
    scn1: ScenarioSpec,
    scn2: ScenarioSpec,
    cfg: SolverConfig,
    t_list,
    seed: int,
) -> TheoremReport:
    """Pointwise ordering of the two solutions under the ordering hypotheses.

    Refuses to run (HypothesisUnsatisfied) when the generators depend on the
    law of Z, when the mean coupling in Y can be negative for both scenarios,
    or when the coefficient ordering probes fail: outside those hypotheses the
    conclusion is known to fail in general.
    """
    _require_same_driver(scn1, scn2)
    _require_refinable(scn1.driver)
    _require_z_law_free(scn1)
    _require_z_law_free(scn2)
    _require_mean_coupling(scn1, scn2)
    _require_generator_order(scn1, scn2, seed)
    _require_terminal_order(scn1, scn2, seed)

    t_list = [float(t) for t in t_list]
    (f1, f2), (f1_fine, f2_fine) = _refined_fields(scn1, scn2, cfg, seed)
    fields = {"1": f1, "2": f2, "1fine": f1_fine, "2fine": f2_fine}

    grid_t = sorted({0.0, *t_list})
    paths = sample_paths(scn1.driver, grid_t, cfg.n_particles, derived_seed(seed, "cmp-eval"))
    # Y of every field at every time, evaluated once for both loops below
    y_at = {
        (name, t): transfer_evaluate(field, t, paths.samples[:, grid_t.index(t)])[0]
        for name, field in fields.items()
        for t in t_list
    }
    scheme_err = 0.0
    for tag in ("1", "2"):
        for t in t_list:
            scheme_err = max(scheme_err, float(np.max(np.abs(y_at[tag, t] - y_at[tag + "fine", t]))))
    delta = 3.0 * scheme_err

    fractions = [float(np.mean(y_at["1", t] > y_at["2", t] + delta)) for t in t_list]
    max_fraction = max(fractions)

    return TheoremReport(
        theorem="comparison",
        scenario_digest=scenario_digest(scn1, scn2),
        passed=max_fraction <= 1e-3,
        measurements={
            "t_list": t_list,
            "violation_fraction": fractions,
            "max_violation_fraction": max_fraction,
            "delta": delta,
            "scheme_error_estimate": scheme_err,
        },
        tolerances={"max_violation_fraction": 1e-3},
        seed=seed,
    )


# ---------------------------------------------------------------------------
# representation and converse comparison


def _integrate_f_dv(scn: ScenarioSpec, clock: VarianceClock, a: float, b: float, y: float, z: float) -> float:
    """int_a^b f(r, 0, y, z, frozen law) dV_r, the frozen law the Dirac mass
    at (0, y, z); exact for piecewise-constant time factors and the
    piecewise-linear clock."""
    gen = scn.generator
    nodes = [a, b]
    nodes.extend(t for t in clock.grid_t if a < t < b)
    if gen.rho_breaks:
        nodes.extend(t for t in gen.rho_breaks if a < t < b)
    nodes = np.array(sorted(set(nodes)))
    f_vals = eval_generator(gen, nodes[:-1], 0.0, y, z, LawFeatures(mean_x=0.0, mean_y=y, mean_z=z))
    total = 0.0
    for cell in (f_vals * np.diff(clock.value(nodes))).tolist():  # left to right: sum() compensates
        total += cell
    return total


def representation_limit_check(
    scn: ScenarioSpec,
    t: float,
    y: float,
    z: float,
    eps_list,
    cfg: SolverConfig,
    seed: int,
) -> TheoremReport:
    """Short-horizon difference quotients A(eps) = (Y^eps_t - y)/eps against
    the clock integral B(eps) of the generator at the frozen law.

    Asserts |A - B| decreasing (the proof-level quantity) and the final
    closeness of A to the generator value.  Every eps is solved on the
    check's one moment table, whose largest normal-matrix condition the
    report gives with the largest step margin max ds * L_f of its solves.
    The solves refuse a generator that reads the state (c1 != 0).
    """
    _require_clock_differentiable(scn.driver, t)
    eps_list = [float(e) for e in eps_list]
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")

    clock = _short_horizon_clock(scn.driver, cfg.n_time)
    frozen = LawFeatures(mean_x=0.0, mean_y=y, mean_z=z)
    f_target = eval_generator(scn.generator, t, 0.0, y, z, frozen)

    table = short_horizon_draw(cfg, derived_seed(seed, "repr"))
    a_vals, b_vals, gaps, ses, margins = [], [], [], [], []
    for eps in eps_list:
        [rep] = representation_solve_stack([(scn, y, z)], clock, t, eps, cfg, table)
        margins.append(rep.step_lipschitz)
        a_vals.append((rep.value - y) / eps)
        b_vals.append(_integrate_f_dv(scn, clock, t, t + eps, y, z) / eps)
        gaps.append(abs(a_vals[-1] - b_vals[-1]))
        ses.append(rep.std_error / eps)

    # the decrease is asserted up to the Monte Carlo noise of both quotients
    # plus an absolute floor for scheme-exact cases where every gap is roundoff
    decreasing = all(
        g2 < g1 + 1e-9 + se1 + se2
        for g1, g2, se1, se2 in zip(gaps, gaps[1:], ses, ses[1:])
    )
    final_tol = _REPRESENTATION_REL_TOL * (1.0 + abs(f_target)) + 3.0 * ses[-1]
    final_ok = abs(a_vals[-1] - f_target) <= final_tol

    return TheoremReport(
        theorem="representation",
        scenario_digest=scenario_digest(scn),
        passed=decreasing and final_ok,
        measurements={
            "eps_list": eps_list,
            "A": a_vals,
            "B": b_vals,
            "abs_gap": gaps,
            "f_at_frozen_law": f_target,
            "final_error": abs(a_vals[-1] - f_target),
            "gap_decreasing": decreasing,
            "gram_cond_max": table.gram_cond_max,
            "step_lipschitz": max(margins),
        },
        tolerances={"final_error": final_tol},
        std_errors={"A": ses},
        seed=seed,
        notes=(
            "B integrates the generator against dV on [t, t+eps] (proof-level reading); "
            "the dr reading differs by the clock density when V'(t) != 1",
        ),
    )


def converse_comparison_check(
    scn1: ScenarioSpec,
    scn2: ScenarioSpec,
    cfg: SolverConfig,
    probe_grid,
    eps: float,
    seed: int,
) -> TheoremReport:
    """If the short-horizon solutions are ordered at every probe, the
    generators must be ordered there too; reports both directions.

    Raises HypothesisUnobserved (with the partial report attached) when the
    solution ordering fails at some probe.  The probes at one time are one
    stack, with the rows (scn1, y, z) and (scn2, y, z) of each, and every
    stack reads the check's one moment table; the report gives its largest
    normal-matrix condition and the largest step margin max ds * L_f of the
    stacks.  The solves refuse a generator that reads the state (c1 != 0).
    """
    _require_same_driver(scn1, scn2)
    for t, _, _ in probe_grid:
        _require_clock_differentiable(scn1.driver, t)
    clock = _short_horizon_clock(scn1.driver, cfg.n_time)
    table = short_horizon_draw(cfg, derived_seed(seed, "converse"))
    solved = {}  # probe index -> (scn1's value, scn2's value)
    for time in dict.fromkeys(t for t, _, _ in probe_grid):
        group = [k for k, (t, _, _) in enumerate(probe_grid) if t == time]
        starts = [(scn, *probe_grid[k][1:]) for k in group for scn in (scn1, scn2)]
        values = representation_solve_stack(starts, clock, time, eps, cfg, table)
        solved.update((k, values[2 * j : 2 * j + 2]) for j, k in enumerate(group))

    rows = []
    ordering_ok = True
    for k, (t, y, z) in enumerate(probe_grid):
        rep1, rep2 = solved[k]
        mc_tol = 3.0 * (rep1.std_error + rep2.std_error)
        frozen = LawFeatures(mean_x=0.0, mean_y=y, mean_z=z)
        f1 = eval_generator(scn1.generator, t, 0.0, y, z, frozen)
        f2 = eval_generator(scn2.generator, t, 0.0, y, z, frozen)
        y_ordered = rep1.value <= rep2.value + mc_tol
        ordering_ok = ordering_ok and y_ordered
        rows.append(
            {
                "t": t, "y": y, "z": z,
                "y_eps_1": rep1.value, "y_eps_2": rep2.value,
                "y_margin": rep2.value - rep1.value, "mc_tol": mc_tol,
                "f1": f1, "f2": f2, "f_margin": f2 - f1,
                "y_ordered": y_ordered,
            }
        )

    f_ordered = all(r["f_margin"] >= -1e-9 for r in rows)
    report = TheoremReport(
        theorem="converse_comparison",
        scenario_digest=scenario_digest(scn1, scn2),
        passed=(f_ordered if ordering_ok else None),
        measurements={
            "probes": rows,
            "y_ordering_observed": ordering_ok,
            "f_ordered": f_ordered,
            "gram_cond_max": table.gram_cond_max,
            "step_lipschitz": max(rep.step_lipschitz for pair in solved.values() for rep in pair),
        },
        tolerances={"f_margin": -1e-9},
        seed=seed,
    )
    if not ordering_ok:
        raise HypothesisUnobserved(
            "solution ordering fails at a probe; generator ordering not asserted",
            report=report,
        )
    return report


# ---------------------------------------------------------------------------
# stability


def _stability_ratio(scn1, scn2, f1: SolutionField, f2: SolutionField, n_particles: int, seed: int):
    """(lhs, rhs) of the stability estimate for the two solved fields, on
    evaluation paths of their clock."""
    clock = f1.clock
    x = sample_paths(scn1.driver, clock.grid_t, n_particles, derived_seed(seed, "stability-eval", f1.n_steps)).samples
    # both fields share the grid, so their gap is the field of the coefficient gaps
    gap = replace(f1, u_coeffs=f1.u_coeffs - f2.u_coeffs, v_coeffs=f1.v_coeffs - f2.v_coeffs)
    dv = np.diff(clock.grid_V)
    # each path's max dy^2 + sum dz^2 dv, one cache-sized block of paths at a time
    per_path = np.empty(x.shape[0])
    for rows in _particle_blocks(*x.shape):
        dy, dz = gap.on_paths(x[rows])
        dy *= dy
        dz *= dz
        dz *= dv
        per_path[rows] = np.max(dy, axis=1) + dz.sum(axis=1)
    lhs = float(np.mean(per_path))

    g1, g2 = (terminal_on_paths(scn.terminal, x[:, -1]) for scn in (scn1, scn2))
    f_gap = 0.0  # exactly, for equal generators
    if scn1.generator != scn2.generator:
        # both generators along the first solution, at its law over all the
        # paths.  Each block's rows are summed after the running sums, in the
        # order np.mean sums a whole array's columns (row after row), so the
        # means are its bits
        n, width = x.shape
        sums = np.zeros(2 * width - 1)  # Y at every node, then Z on every cell
        for rows in _particle_blocks(n, 2 * width):
            sums = np.vstack([sums, np.hstack(f1.on_paths(x[rows]))]).sum(axis=0)
        law = LawFeatures(x[:, :-1].mean(axis=0), sums[: width - 1] / n, sums[width:] / n)
        f_gap = np.empty(n)
        for rows in _particle_blocks(n, width):
            y1, z1 = f1.on_paths(x[rows])
            fdv1, fdv2 = (generator_dv_on_paths(scn.generator, clock, x[rows], y1, z1, law) for scn in (scn1, scn2))
            f_gap[rows] = np.abs(fdv1 - fdv2).sum(axis=1) ** 2
    rhs = float(np.mean((g1 - g2) ** 2 + f_gap))
    return lhs, rhs


def stability_check(scn1: ScenarioSpec, scn2: ScenarioSpec, cfg: SolverConfig, seed: int) -> TheoremReport:
    """Empirical ratio of the two sides of the coefficient-stability estimate,
    required finite and stable (within 20%) under time-grid refinement."""
    _require_same_driver(scn1, scn2)
    _require_refinable(scn1.driver)
    (lhs1, rhs1), (lhs2, rhs2) = (
        _stability_ratio(scn1, scn2, f1, f2, cfg.n_particles, seed) for f1, f2 in _refined_fields(scn1, scn2, cfg, seed)
    )

    if rhs1 <= _EXACT_TOL and lhs1 <= _EXACT_TOL:
        return TheoremReport(
            theorem="stability",
            scenario_digest=scenario_digest(scn1, scn2),
            passed=True,
            measurements={"lhs": [lhs1, lhs2], "rhs": [rhs1, rhs2], "ratio": "undefined-zero"},
            seed=seed,
            notes=("identical coefficients: both sides vanish; ratio undefined",),
        )

    ratio1 = lhs1 / rhs1 if rhs1 > 0 else math.inf
    ratio2 = lhs2 / rhs2 if rhs2 > 0 else math.inf
    finite = math.isfinite(ratio1) and math.isfinite(ratio2)
    stable = finite and abs(ratio2 / ratio1 - 1.0) <= 0.2 if ratio1 > 0 else finite
    return TheoremReport(
        theorem="stability",
        scenario_digest=scenario_digest(scn1, scn2),
        passed=bool(finite and stable),
        measurements={
            "lhs": [lhs1, lhs2],
            "rhs": [rhs1, rhs2],
            "ratio": [ratio1, ratio2],
            "ratio_drift": abs(ratio2 / ratio1 - 1.0) if ratio1 > 0 else math.inf,
        },
        tolerances={"ratio_drift": 0.2},
        seed=seed,
    )


# ---------------------------------------------------------------------------
# functional inequalities


def transport_constants(l_g: float, l_f: float, clock: VarianceClock, t: float) -> tuple[float, float]:
    """(C_Tr, C_LS): the exact constants of the quadratic transportation and
    log-Sobolev bounds for the law of Y_t."""
    if min(l_g, l_f) < 0:
        raise ValueError("need l_g, l_f >= 0")
    lam = clock.V_T - clock.value(t)
    base = l_g + l_f * lam
    growth = math.exp(2.0 * l_f * lam)
    return 2.0 * base ** 2 * growth, 2.0 * clock.V_T * base ** 2 * growth


def _family_clock(driver: GaussianDriverSpec, t: float) -> VarianceClock:
    """The clock the Gaussian family reads V_t and V_T off.  For a brownian
    or fbm driver its nodes are 0, t and T, at the driver's exact variances,
    so V_t is exact: a chord of a coarser table is not, where V is curved
    (fbm at small t).  A t at an end, or whose variance rounds
    to an end's, is not a node.  A custom driver's clock is its table."""
    if driver.kind == "custom":
        return build_clock(driver, 2)  # the node count is the table's
    grid_t = np.array([0.0, t, driver.T])
    grid_V = covariance(driver, grid_t, grid_t)
    if not grid_V[0] < grid_V[1] < grid_V[2]:
        grid_t, grid_V = grid_t[::2], grid_V[::2]
    return VarianceClock(grid_t=grid_t, grid_V=grid_V)


def _gaussian_family(scn: ScenarioSpec, t: float):
    """(clock, law, C_Tr, C_LS) of the T2 and LSI checks: the closed-form
    marginal law of Y_t for law-free affine scenarios, and the constants at
    the scenario's symbolic Lipschitz constants, with V_t and V_T read off
    ``_family_clock``.  A value past the float range raises
    ``NonFiniteSolution``."""
    _require_gaussian_family(scn)
    clock = _family_clock(scn.driver, t)
    gen, term = scn.generator, scn.terminal
    with _overflow_named(f"the Gaussian family at t {float(t)!r}"):
        v_t = clock.value(t)
        lam = clock.V_T - v_t
        factor = math.exp(gen.c2 * lam)
        shift = gen.c0 * (factor - 1.0) / gen.c2 if gen.c2 != 0.0 else gen.c0 * lam
        law = GaussianLaw1D(mean=factor * term.a + shift, variance=(term.b * factor) ** 2 * v_t)
        constants = transport_constants(term.lipschitz, gen.lipschitz, clock, t)
        if not all(map(math.isfinite, (law.mean, law.variance, *constants))):
            raise OverflowError("past the float range")  # a float product does not raise
    return (clock, law, *constants)


@contextmanager
def _overflow_named(what: str):
    """An overflow in a check's own arithmetic, raised as ``NonFiniteSolution``."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (OverflowError, FloatingPointError) as exc:
        raise NonFiniteSolution(f"non-finite value in {what}: {exc.args[-1]}") from None


def t2_check(scn: ScenarioSpec, t: float, shift_list, seed: int = 0) -> TheoremReport:
    """Quadratic transportation inequality on the closed-form Gaussian family.

    Under the adopted convention W2^2 <= C * H; the definitional ratio
    W2 / sqrt(H) is reported alongside.  Horizons with V_T > 1 run in
    report-only mode (the stated constant can then fall below the sharp
    Gaussian one).  A Dirac law of Y_t (t = 0 or b = 0) is refused.  Nothing is solved or drawn.
    """
    _require_t2_time(t)
    _require_t2_spread(scn)
    clock, law, c_tr, _ = _gaussian_family(scn, t)

    rows = []
    ok = True
    for m in shift_list:
        with _overflow_named(f"t2 at shift {float(m)!r}"):
            shifted = GaussianLaw1D(mean=law.mean + float(m), variance=law.variance)
            w2 = gaussian_w2(law, shifted)
            h = gaussian_kl(shifted, law)
            satisfied = w2 ** 2 <= c_tr * h + _EXACT_TOL
            rows.append(
                {
                    "shift": float(m),
                    "w2_squared": w2 ** 2,
                    "relative_entropy": h,
                    "ratio_quadratic": (w2 ** 2 / h) if h > 0 else 0.0,
                    "ratio_definitional": (w2 / math.sqrt(h)) if h > 0 else 0.0,
                    "satisfied": satisfied,
                }
            )
        ok = ok and satisfied

    report_only = clock.V_T > 1.0 + _EXACT_TOL
    sharp = 2.0 * law.variance
    return TheoremReport(
        theorem="t2",
        scenario_digest=scenario_digest(scn),
        passed=None if report_only else ok,
        measurements={
            "t": t,
            "sigma_sq": law.variance,
            "c_tr_y": c_tr,
            "sharp_constant": sharp,
            "slack": c_tr - sharp,
            "shifts": rows,
        },
        tolerances={"w2_squared_vs_c_times_h": _EXACT_TOL},
        seed=seed,
        notes=(
            ("report-only: V_T > 1, stated constant may fall below the sharp one",)
            if report_only
            else ()
        ),
    )


def lsi_check(scn: ScenarioSpec, t: float, lambda_list, seed: int = 0) -> TheoremReport:
    """Log-Sobolev inequality on the Gaussian family, where nothing is solved or drawn, with the
    exponential test family f_lam(x) = exp(lam x / 2); entropies are cross-checked by
    quadrature, to a relative error of 1e-6 (absolute below an entropy of 1)."""
    _, law, _, c_ls = _gaussian_family(scn, t)

    m, s2 = law.mean, law.variance
    rows = []
    ok = True
    max_quad_error = 0.0
    for lam in lambda_list:
        lam = float(lam)
        with _overflow_named(f"lsi at lambda {lam!r}"):
            mgf = math.exp(lam * m + 0.5 * lam ** 2 * s2)
            ent_exact = 0.5 * lam ** 2 * s2 * mgf
            dirichlet = 0.25 * lam ** 2 * mgf
            try:
                ent_quad = entropy_functional(law, lambda x, _l=lam: np.exp(_l * x))
            except NonpositiveMass:  # exp(lam x) > 0: its integral is below the float range
                raise FloatingPointError("the test function's integral underflows") from None
        quad_err = abs(ent_quad - ent_exact)
        max_quad_error = max(max_quad_error, quad_err)
        ratio = ent_exact / dirichlet if dirichlet > 0 else 0.0
        satisfied = ent_exact <= c_ls * dirichlet + _EXACT_TOL
        ok = ok and satisfied and quad_err <= _QUADRATURE_TOL * max(1.0, abs(ent_exact))
        rows.append(
            {
                "lambda": lam,
                "entropy_exact": ent_exact,
                "entropy_quadrature": ent_quad,
                "dirichlet": dirichlet,
                "ratio": ratio,
                "satisfied": satisfied,
            }
        )

    return TheoremReport(
        theorem="lsi",
        scenario_digest=scenario_digest(scn),
        passed=ok,
        measurements={
            "t": t,
            "sigma_sq": s2,
            "c_ls_y": c_ls,
            "sharp_ratio": 2.0 * s2,
            "max_quadrature_error": max_quad_error,
            "lambdas": rows,
        },
        tolerances={"quadrature_error": _QUADRATURE_TOL, "ratio_vs_c": _EXACT_TOL},
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Z bound


def z_bound_check(field: SolutionField, scn: ScenarioSpec, cloud: ParticleCloud, seed: int = 0) -> TheoremReport:
    """Pathwise bound on the control field on its clock, with the scenario's
    symbolic Lipschitz constants:
    |Z(s)| <= (1 + slack) * exp(L_f (V_T - s)) (L_g + L_f (V_T - s)), slack 5%."""
    l_f, l_g = scn.generator.lipschitz, scn.terminal.lipschitz
    grid_s, v_total = field.clock.grid_V, field.clock.V_T
    _, z = field.on_paths(cloud.w)
    margins, observed, bounds = [], [], []
    ok = True
    atol = 1e-8  # absolute floor so a bound of exactly 0 tolerates roundoff
    for i in range(field.n_steps):
        lam = v_total - grid_s[i]
        bound = math.exp(l_f * lam) * (l_g + l_f * lam)
        obs = float(np.max(np.abs(z[:, i])))
        margin = (1.0 + _Z_BOUND_SLACK) * bound + atol - obs
        ok = ok and margin >= 0.0
        observed.append(obs)
        bounds.append(bound)
        margins.append(margin)
    return TheoremReport(
        theorem="z_bound",
        scenario_digest=scenario_digest(scn),
        passed=ok,
        measurements={
            "grid_s": [float(v) for v in grid_s[: field.n_steps]],
            "bound": bounds,
            "observed_max": observed,
            "margin": margins,
            "min_margin": min(margins),
            "gram_cond_max": field.gram_cond_max,
            "step_lipschitz": field.step_lipschitz,
        },
        tolerances={"slack": _Z_BOUND_SLACK},
        seed=seed,
    )
