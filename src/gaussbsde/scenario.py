"""Closed DSL for terminal functions g(x, mu) and generators f(t, x, y, z, nu)
with automatic Lipschitz-constant and mean-dependence bookkeeping.

Terminals:   g(x, mu) = a + b*x + c*phi(x) + lambda_mean * mean_x(mu)
Generators:  f(t, x, y, z, nu) = rho(t) * ( c0 + c1*x + c2*y + c3*z + c4*phi(y)
                                            + kx*mean_x + ky*mean_y + kz*mean_z )

The nonlinearity library is fixed and 1-Lipschitz, the optional time factor
rho is piecewise constant, and law dependence is restricted to first moments,
so all constants are computable symbolically:

    L_g = |b| + |c| + |lambda_mean|
    L_f = sup|rho| * (|c1| + |c2| + |c3| + |c4| + |kx| + |ky| + |kz|)

and the derivative of f in the y-marginal of the law equals rho(t) * ky.

``eval_generator``, ``generator_partials``, ``generator_law_partials`` and
``generator_remainder`` are the one spelling of f, its partials in (x, y, z)
and in the law's means, and its nonlinear remainder, for one
``GeneratorSpec``; each is vectorized over its arguments, so a solver
evaluates a generator at every node of a grid in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .drivers import GaussianDriverSpec, VarianceClock
from .errors import EmptyCloud, ProbeViolation
from .measures import LawFeatures
from .rng import generator

_PROBE_SLACK = 1e-9
_ORDER_PROBES = 256  # points drawn by each order probe
_AUDIT_PROBES = 64  # argument and cloud pairs drawn by the Lipschitz audit


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _clip(x):
    return np.clip(x, -1.0, 1.0)


def _clip_deriv(x):
    x = np.asarray(x, dtype=float)
    return ((x > -1.0) & (x < 1.0)).astype(float)


def _sech2(x):
    return 1.0 / np.cosh(x) ** 2


#: tag -> (phi, phi'); every member is 1-Lipschitz.
NONLINEARITIES: dict[str, tuple[Callable, Callable]] = {
    "none": (_zero, _zero),
    "sin": (np.sin, np.cos),
    "tanh": (np.tanh, _sech2),
    "clip": (_clip, _clip_deriv),
}


def _check_phi(phi: str, c: float):
    if phi not in NONLINEARITIES:
        raise ValueError(f"unknown nonlinearity {phi!r}")
    if phi == "none" and c != 0.0:
        raise ValueError("nonlinearity coefficient must be 0 when phi is 'none'")


@dataclass(frozen=True)
class TerminalSpec:
    a: float = 0.0
    b: float = 0.0
    phi: str = "none"
    c: float = 0.0
    lambda_mean: float = 0.0

    def __post_init__(self):
        _check_phi(self.phi, self.c)

    @property
    def lipschitz(self) -> float:
        return abs(self.b) + abs(self.c) + abs(self.lambda_mean)

    def payload(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class GeneratorSpec:
    c0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    phi: str = "none"
    c4: float = 0.0
    kappa_x: float = 0.0
    kappa_y: float = 0.0
    kappa_z: float = 0.0
    # piecewise-constant time factor: value rho_values[k] on
    # [rho_breaks[k-1], rho_breaks[k]); None means rho == 1
    rho_breaks: tuple[float, ...] | None = None
    rho_values: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_phi(self.phi, self.c4)
        if (self.rho_values is None) != (self.rho_breaks is None):
            raise ValueError("rho_breaks and rho_values must be given together")
        if self.rho_values is not None:
            breaks = tuple(float(v) for v in self.rho_breaks)
            values = tuple(float(v) for v in self.rho_values)
            if len(values) != len(breaks) + 1:
                raise ValueError("rho_values must have one more entry than rho_breaks")
            if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
                raise ValueError("rho_breaks must be strictly increasing")
            object.__setattr__(self, "rho_breaks", breaks)
            object.__setattr__(self, "rho_values", values)

    def rho(self, t):
        """The time factor at t, or at each entry of an array of times."""
        if self.rho_values is None:
            return 1.0
        k = np.searchsorted(np.asarray(self.rho_breaks), t, side="right")
        return self.rho_values[int(k)] if np.ndim(k) == 0 else np.asarray(self.rho_values)[k]

    @property
    def sup_abs_rho(self) -> float:
        if self.rho_values is None:
            return 1.0
        return max(abs(v) for v in self.rho_values)

    @property
    def lipschitz(self) -> float:
        coeffs = (
            abs(self.c1) + abs(self.c2) + abs(self.c3) + abs(self.c4)
            + abs(self.kappa_x) + abs(self.kappa_y) + abs(self.kappa_z)
        )
        return self.sup_abs_rho * coeffs

    @property
    def mean_y_sensitivity(self) -> tuple[float, float]:
        """(min, max) over time of the derivative of f in the y-marginal of the law."""
        values = self.rho_values if self.rho_values is not None else (1.0,)
        prods = [v * self.kappa_y for v in values]
        return (min(prods), max(prods))

    @property
    def is_law_free(self) -> bool:
        return self.kappa_x == 0.0 and self.kappa_y == 0.0 and self.kappa_z == 0.0

    def payload(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if not f.name.startswith("rho_")}
        if self.rho_values is not None:
            out["rho_table"] = {"breaks": list(self.rho_breaks), "values": list(self.rho_values)}
        return out


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    terminal: TerminalSpec
    generator: GeneratorSpec
    driver: GaussianDriverSpec

    def payload(self) -> dict:
        return {
            "terminal": self.terminal.payload(),
            "generator": self.generator.payload(),
            "driver": self.driver.payload(),
        }


def eval_terminal(spec: TerminalSpec, x, features: LawFeatures):
    """g(x, mu) with mu reduced to its mean; vectorized over x."""
    x = np.asarray(x, dtype=float)
    out = spec.a + spec.b * x
    if spec.phi != "none":  # phi("none") is 0 and would only cost an array
        out = out + spec.c * NONLINEARITIES[spec.phi][0](x)
    out = out + spec.lambda_mean * features.mean_x
    return float(out) if out.ndim == 0 else out


def eval_generator(spec: GeneratorSpec, t: float, x, y, z, features: LawFeatures):
    """f(t, x, y, z, nu) with nu reduced to its means; vectorized over t, x,
    y, z and the means.  The phi term is left out when c4 is 0 (phi "none"
    would only cost an array of zeros)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    core = spec.c0 + spec.c1 * x + spec.c2 * y + spec.c3 * z
    if spec.c4 != 0.0:
        core = core + spec.c4 * NONLINEARITIES[spec.phi][0](y)
    core = core + spec.kappa_x * features.mean_x + spec.kappa_y * features.mean_y + spec.kappa_z * features.mean_z
    out = spec.rho(t) * core
    return float(out) if np.ndim(out) == 0 else out


def generator_partials(spec: GeneratorSpec, t: float, x, y, z):
    """(df/dx, df/dy, df/dz) of the generator at the given arguments; each
    broadcasts against them.

    Exact for the DSL: the law term has no pointwise derivative and the
    nonlinearity library carries its derivatives.
    """
    df_dy = spec.c2
    if spec.c4 != 0.0:
        df_dy = df_dy + spec.c4 * NONLINEARITIES[spec.phi][1](np.asarray(y, dtype=float))
    rho = spec.rho(t)
    return rho * spec.c1, rho * df_dy, rho * spec.c3


def generator_law_partials(spec: GeneratorSpec, t):
    """(df/dmean_y, df/dmean_z) = (rho(t) kappa_y, rho(t) kappa_z) at t or at
    each entry of an array of times.  f is affine in the means, so f at a law
    is its value at mean_y = mean_z = 0 plus these times the law's means."""
    rho = spec.rho(t)
    return rho * spec.kappa_y, rho * spec.kappa_z


def generator_remainder(spec: GeneratorSpec, t, y):
    """(r, dr/dy): f minus its first-order expansion in (x, y, z) at 0, which
    is a function of y alone, and its derivative; both are 0 for an affine f.

    With the value of f at (0, 0, 0, nu) and the partials of
    ``generator_partials`` at 0, this is the coefficient form of f:
    f = f(0, 0, 0, nu) + f_x x + f_y y + f_z z + r(y).
    """
    y = np.asarray(y, dtype=float)
    phi, dphi = NONLINEARITIES[spec.phi]
    rho = spec.rho(t)
    return (
        rho * (spec.c4 * (phi(y) - phi(0.0) - dphi(0.0) * y)),
        rho * (spec.c4 * (dphi(y) - dphi(0.0))),
    )


def law_features(x, y, z) -> LawFeatures:
    """Componentwise sample means of a cloud slice."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.size == 0 or y.size == 0 or z.size == 0:
        raise EmptyCloud("law features need a nonempty cloud")
    return LawFeatures(mean_x=float(np.mean(x)), mean_y=float(np.mean(y)), mean_z=float(np.mean(z)))


def terminal_on_paths(spec: TerminalSpec, x_end) -> np.ndarray:
    """g at the terminal states of a batch of paths, under the law of those
    states."""
    return eval_terminal(spec, x_end, law_features(x_end, 0.0, 0.0))


def generator_dv_on_paths(spec: GeneratorSpec, clock: VarianceClock, x, y, z, law: LawFeatures) -> np.ndarray:
    """(n, N) left-point terms f(t_i, X_i, Y_i, Z_i, law_i) (V_{i+1} - V_i)
    along n paths: x and y are (n, N+1) states at the clock's nodes, z has
    one column per cell, and law_i is the node's means of (X_i, Y_i, Z_i) in
    ``law``, taken across all the paths, of which these may be a block."""
    return eval_generator(spec, clock.grid_t[:-1], x[:, :-1], y[:, :-1], z, law) * np.diff(clock.grid_V)


def _two_atom_w2_3d(cloud_a: np.ndarray, cloud_b: np.ndarray) -> np.ndarray:
    """Exact W2 between 2-atom equal-weight clouds in R^3 (both couplings),
    for clouds of shape (2 atoms, 3, probes)."""
    c_id = np.sum((cloud_a - cloud_b) ** 2, axis=(0, 1)) / 2.0
    c_swap = np.sum((cloud_a - cloud_b[::-1]) ** 2, axis=(0, 1)) / 2.0
    return np.sqrt(np.minimum(c_id, c_swap))


def _two_atom_w2_1d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact W2 between 2-atom clouds on the line, of shape (2 atoms, probes)."""
    return np.sqrt(np.mean((np.sort(a, axis=0) - np.sort(b, axis=0)) ** 2, axis=0))


def _max_ratio(num: np.ndarray, denom: np.ndarray) -> float:
    ratio = np.divide(num, denom, out=np.zeros_like(num), where=denom > 0)
    return float(np.max(ratio, initial=0.0))


@dataclass(frozen=True)
class AuditReport:
    """The largest empirical Lipschitz ratios of f and g the probes found."""

    max_ratio_f: float
    max_ratio_g: float


def lipschitz_audit(scn: ScenarioSpec, seed: int = 0) -> AuditReport:
    """The DSL's self-check of its formulas against its symbolic constants,
    run by the tests, not on the run path (which reads
    ``GeneratorSpec.lipschitz`` and ``TerminalSpec.lipschitz`` directly).

    Probes pairs of arguments and 2-atom joint clouds (exact W2 by brute
    force over both couplings) and verifies the empirical ratio never exceeds
    the symbolic constant (``ProbeViolation`` otherwise).
    """
    gen, term = scn.generator, scn.terminal
    rng = generator(seed, "lipschitz-audit")
    # every probe is drawn at once and evaluated as one array: probes run
    # along the last axis, and the law features of a probe's cloud are its
    # atom means
    t = rng.uniform(0.0, scn.driver.T, size=_AUDIT_PROBES)
    p1, p2 = rng.normal(0.0, 2.0, size=(2, 3, _AUDIT_PROBES))
    cloud1, cloud2 = rng.normal(0.0, 2.0, size=(2, 2, 3, _AUDIT_PROBES))
    df = np.abs(
        eval_generator(gen, t, *p1, LawFeatures(*cloud1.mean(axis=0)))
        - eval_generator(gen, t, *p2, LawFeatures(*cloud2.mean(axis=0)))
    )
    max_ratio_f = _max_ratio(df, np.abs(p1 - p2).sum(axis=0) + _two_atom_w2_3d(cloud1, cloud2))

    xa, xb = rng.normal(0.0, 2.0, size=(2, _AUDIT_PROBES))
    ca, cb = rng.normal(0.0, 2.0, size=(2, 2, _AUDIT_PROBES))
    dg = np.abs(
        eval_terminal(term, xa, LawFeatures(mean_x=ca.mean(axis=0)))
        - eval_terminal(term, xb, LawFeatures(mean_x=cb.mean(axis=0)))
    )
    max_ratio_g = _max_ratio(dg, np.abs(xa - xb) + _two_atom_w2_1d(ca, cb))

    if max_ratio_f > gen.lipschitz + _PROBE_SLACK:
        raise ProbeViolation(
            f"empirical generator ratio {max_ratio_f} exceeds symbolic L_f {gen.lipschitz}"
        )
    if max_ratio_g > term.lipschitz + _PROBE_SLACK:
        raise ProbeViolation(
            f"empirical terminal ratio {max_ratio_g} exceeds symbolic L_g {term.lipschitz}"
        )
    return AuditReport(max_ratio_f=max_ratio_f, max_ratio_g=max_ratio_g)


@dataclass(frozen=True)
class OrderProbeResult:
    ordered: bool
    counterexample: tuple | None = None


def generator_order_probe(
    f1: GeneratorSpec, f2: GeneratorSpec, seed: int = 0, T: float = 1.0
) -> OrderProbeResult:
    """Samples (t, x, y, z, nu) points, nu a 4-atom cloud, and checks
    f1 <= f2 + 1e-12 at all of them.  The probes are drawn at once and
    evaluated as arrays; the first violating probe is the counterexample."""
    rng = generator(seed, "generator-order-probe")
    t = rng.uniform(0.0, T, size=_ORDER_PROBES)
    xyz = rng.normal(0.0, 2.0, size=(3, _ORDER_PROBES))
    means = rng.normal(0.0, 2.0, size=(4, 3, _ORDER_PROBES)).mean(axis=0)
    feats = LawFeatures(*means)
    bad = np.flatnonzero(eval_generator(f1, t, *xyz, feats) > eval_generator(f2, t, *xyz, feats) + 1e-12)
    if bad.size == 0:
        return OrderProbeResult(ordered=True)
    k = bad[0]
    return OrderProbeResult(
        ordered=False, counterexample=(float(t[k]), *xyz[:, k].tolist(), LawFeatures(*means[:, k].tolist()))
    )


def terminal_order_probe(
    g1: TerminalSpec, g2: TerminalSpec, seed: int = 0
) -> OrderProbeResult:
    """Samples (x, mu) points and checks g1 <= g2 + 1e-12 at all of them, as
    ``generator_order_probe`` does."""
    rng = generator(seed, "terminal-order-probe")
    x, mean_x = rng.normal(0.0, 2.0, size=(2, _ORDER_PROBES))
    feats = LawFeatures(mean_x=mean_x)
    bad = np.flatnonzero(eval_terminal(g1, x, feats) > eval_terminal(g2, x, feats) + 1e-12)
    if bad.size == 0:
        return OrderProbeResult(ordered=True)
    k = bad[0]
    return OrderProbeResult(ordered=False, counterexample=(float(x[k]), LawFeatures(mean_x=float(mean_x[k]))))
