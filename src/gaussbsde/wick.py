"""First-chaos Wick products, Riemann-Wick integrals, Monte-Carlo
S-transforms, and the residual of the backward equation on the original
Gaussian clock.

The product rule used throughout,

    p(X_s) <> (X_t - X_s) = p(X_s) * (X_t - X_s) - p'(X_s) * E[X_s (X_t - X_s)],

is licensed by the S-transform factorization property; the package ships an
explicit Monte Carlo gate for it (`s_transform_factorization_check`) rather
than treating the rule as an axiom.  A Monte Carlo check over finitely many
step functions is evidence, not proof; reports label it as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .drivers import GaussianDriverSpec, PathBatch, VarianceClock, covariance, covariance_matrix
from .errors import DegenerateIncrement, GridMismatch
from .scenario import ScenarioSpec, eval_generator, eval_terminal, law_features
from .solver import SolutionField

_GRID_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StepFunctionH:
    """Cameron-Martin direction with piecewise-constant density against dV.

    ``edges`` are the cell boundaries in [0, T] (first edge 0), ``values`` the
    density on each cell.  The induced function is h(t) = int_0^t hdot dV.
    """

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or values.size != edges.size - 1:
            raise ValueError("need n+1 edges for n density values")
        if not np.all(np.diff(edges) > 0) or abs(edges[0]) > 1e-12:
            raise ValueError("edges must start at 0 and increase strictly")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", values)

    def hdot(self, t):
        """Density value at time t (right-open cells, last cell closed)."""
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, t, side="right") - 1, 0, self.values.size - 1)
        out = self.values[idx]
        return float(out) if out.ndim == 0 else out

    def value(self, t: float, clock: VarianceClock) -> float:
        """h(t) = int_0^t hdot dV, exact for piecewise-linear V."""
        total = 0.0
        for k in range(self.values.size):
            a, b = self.edges[k], min(self.edges[k + 1], t)
            if b <= a:
                break
            total += self.values[k] * (clock.value(b) - clock.value(a))
        return total


@dataclass(frozen=True, eq=False)
class FirstChaosIntegrand:
    """Per-grid-node polynomial representation of an integrand v(t_i, x).

    ``coeffs[i]`` are raw-x monomial coefficients at node i (one row per cell,
    nodes 0 .. N-1); derivative rows are precomputed for the Wick correction.
    """

    grid_t: np.ndarray
    coeffs: np.ndarray
    dcoeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape[0] != self.grid_t.size - 1:
            raise ValueError("need one coefficient row per grid cell")

    @classmethod
    def from_rows(cls, grid_t, rows) -> "FirstChaosIntegrand":
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        dc = np.zeros_like(rows)
        for i, row in enumerate(rows):
            der = npoly.polyder(row)
            dc[i, : der.size] = der
        return cls(grid_t=np.asarray(grid_t, dtype=float), coeffs=rows, dcoeffs=dc)

    @classmethod
    def from_field(cls, field: SolutionField) -> "FirstChaosIntegrand":
        """Convert the solver's scaled-basis Z representation to raw-x rows."""
        n_cells = field.n_steps
        width = field.v_coeffs.shape[1]
        rows = np.zeros((n_cells, width))
        powers = np.arange(width)
        for i in range(n_cells):
            rows[i] = field.v_coeffs[i] / field.scales[i] ** powers
        return cls.from_rows(field.grid_t, rows)


def wick_product_first_chaos(
    poly_coeffs, x_samples, increment_samples, cov_cross: float, var_ti: float
) -> np.ndarray:
    """Pathwise p(X_{t_i}) <> (X_{t_{i+1}} - X_{t_i}).

    ``cov_cross`` is E[X_{t_i} X_{t_{i+1}}] and ``var_ti`` is Var X_{t_i}; the
    correction coefficient E[X_{t_i} dX] equals their difference.
    """
    x = np.asarray(x_samples, dtype=float)
    dx = np.asarray(increment_samples, dtype=float)
    if x.shape != dx.shape:
        raise ValueError("x_samples and increment_samples must be paired")
    if dx.size and float(np.var(dx)) == 0.0:
        raise DegenerateIncrement("driver increment has zero variance")
    coeffs = np.asarray(poly_coeffs, dtype=float)
    p_vals = npoly.polyval(x, coeffs)
    dp_vals = npoly.polyval(x, npoly.polyder(coeffs)) if coeffs.size > 1 else np.zeros_like(x)
    return p_vals * dx - dp_vals * (cov_cross - var_ti)


def _cell_covariances(driver: GaussianDriverSpec, grid: np.ndarray, i: int) -> tuple[float, float]:
    """(E[X_{t_i} X_{t_{i+1}}], Var X_{t_i}) of cell i; their difference is
    the coefficient of the Wick correction."""
    return covariance(driver, grid[i], grid[i + 1]), covariance(driver, grid[i], grid[i])


def _check_grid_alignment(grid_a: np.ndarray, grid_b: np.ndarray):
    if grid_a.size != grid_b.size or np.max(np.abs(grid_a - grid_b)) > _GRID_TOL:
        raise GridMismatch("integrand, paths and clock must share one grid")


def riemann_wick_integral(
    integrand: FirstChaosIntegrand, paths: PathBatch, clock: VarianceClock
) -> np.ndarray:
    """Per-path Riemann-Wick sum of v(t_i, X_{t_i}) <> dX over all grid cells."""
    path_grid, x_full = paths.with_origin
    _check_grid_alignment(path_grid, integrand.grid_t)
    _check_grid_alignment(integrand.grid_t, clock.grid_t)
    out = np.zeros(paths.n_paths)
    grid = integrand.grid_t
    for i in range(grid.size - 1):
        out += wick_product_first_chaos(
            integrand.coeffs[i],
            x_full[:, i],
            x_full[:, i + 1] - x_full[:, i],
            *_cell_covariances(paths.driver, grid, i),
        )
    return out


@dataclass(frozen=True, eq=False)
class ResidualStats:
    """Mean and RMS of the backward-identity residual at every grid node."""

    grid_t: np.ndarray
    mean: np.ndarray
    rms: np.ndarray
    mean_std_error: np.ndarray


def bsde_residual(
    field: SolutionField, scn: ScenarioSpec, paths: PathBatch, clock: VarianceClock
) -> ResidualStats:
    """R_t = u(t, X_t) - g(X_T, .) - sum f dV + RiemannWick(v) over [t, T]."""
    path_grid, x = paths.with_origin
    _check_grid_alignment(path_grid, clock.grid_t)
    _check_grid_alignment(clock.grid_t, field.grid_t)
    n = paths.n_paths
    grid_t = clock.grid_t
    grid_v = clock.grid_V
    N = grid_t.size - 1
    u_vals, v_vals = field.on_paths(x)
    raw_coeffs = FirstChaosIntegrand.from_field(field).coeffs

    term_feats = law_features(x[:, N], np.zeros(n), np.zeros(n))
    g_vals = np.asarray(eval_terminal(scn.terminal, x[:, N], term_feats))

    f_cells = np.zeros((n, N))
    wick_cells = np.zeros((n, N))
    for i in range(N):
        feats = law_features(x[:, i], u_vals[:, i], v_vals[:, i])
        f_vals = np.asarray(
            eval_generator(scn.generator, float(grid_t[i]), x[:, i], u_vals[:, i], v_vals[:, i], feats)
        )
        f_cells[:, i] = f_vals * (grid_v[i + 1] - grid_v[i])
        wick_cells[:, i] = wick_product_first_chaos(
            raw_coeffs[i], x[:, i], x[:, i + 1] - x[:, i], *_cell_covariances(paths.driver, grid_t, i)
        )

    f_suffix = np.concatenate([np.cumsum(f_cells[:, ::-1], axis=1)[:, ::-1], np.zeros((n, 1))], axis=1)
    w_suffix = np.concatenate([np.cumsum(wick_cells[:, ::-1], axis=1)[:, ::-1], np.zeros((n, 1))], axis=1)

    residual = u_vals - g_vals[:, None] - f_suffix + w_suffix
    return ResidualStats(
        grid_t=grid_t,
        mean=residual.mean(axis=0),
        rms=np.sqrt(np.mean(residual ** 2, axis=0)),
        mean_std_error=residual.std(axis=0) / math.sqrt(n),
    )


def _increment_covariance(driver: GaussianDriverSpec, grid_t: np.ndarray) -> np.ndarray:
    """Exact covariance of the increments over cells of [0, t_1, ..., t_N]."""
    cov = covariance_matrix(driver, grid_t)
    padded = np.zeros((grid_t.size + 1, grid_t.size + 1))
    padded[1:, 1:] = cov
    return padded[1:, 1:] - padded[1:, :-1] - padded[:-1, 1:] + padded[:-1, :-1]


def wick_exponential_weights(h: StepFunctionH, paths: PathBatch) -> np.ndarray:
    """Per-path realization of exp(I_h - Var(I_h)/2), with I_h = sum hdot dX.

    The variance is computed from the exact covariance, so the weights have
    unit mean up to Monte Carlo error only.  On the Brownian driver I_h
    realizes the direction with density hdot exactly; for other drivers it is
    a valid first-chaos test direction whose induced h may differ from the
    nominal density.
    """
    grid, x_full = paths.with_origin
    hdot_left = np.asarray(h.hdot(grid[:-1]))
    dx = np.diff(x_full, axis=1)
    i_h = dx @ hdot_left
    inc_cov = _increment_covariance(paths.driver, paths.grid_t)
    var_exact = float(hdot_left @ inc_cov @ hdot_left)
    return np.exp(i_h - 0.5 * var_exact)


@dataclass(frozen=True)
class STransformResult:
    value: float
    std_error: float


def s_transform_mc(variable_samples, weights: np.ndarray) -> STransformResult:
    """Monte Carlo S-transform, with standard error, under given ``wick_exponential_weights``."""
    eta = np.asarray(variable_samples, dtype=float)
    if eta.shape[0] != weights.shape[0]:
        raise ValueError("variable_samples must be paired with the weights")
    prod = eta * weights
    return STransformResult(
        value=float(np.mean(prod)),
        std_error=float(np.std(prod) / math.sqrt(prod.size)),
    )


@dataclass(frozen=True)
class FactorizationCheck:
    lhs: float
    rhs: float
    gap: float
    std_error: float

    @property
    def within(self) -> float:
        """Gap measured in its own standard errors."""
        return abs(self.gap) / self.std_error if self.std_error > 0 else math.inf


def s_transform_factorization_check(
    poly_coeffs, cell_index: int, weights: np.ndarray, paths: PathBatch
) -> FactorizationCheck:
    """Compare S(p(X_i) <> dX_i) with S(p(X_i)) * S(dX_i) under one Wick
    exponential, given by its ``wick_exponential_weights`` on ``paths``; the
    standard error of the gap uses the delta method on the joint samples."""
    grid, x_full = paths.with_origin
    i = cell_index
    if not 0 <= i < grid.size - 1:
        raise ValueError("cell_index outside the grid")
    x_i = x_full[:, i]
    dx_i = x_full[:, i + 1] - x_full[:, i]
    wick_samples = wick_product_first_chaos(poly_coeffs, x_i, dx_i, *_cell_covariances(paths.driver, grid, i))

    a = wick_samples * weights
    b = npoly.polyval(x_i, np.asarray(poly_coeffs, dtype=float)) * weights
    c = dx_i * weights
    mean_a, mean_b, mean_c = float(np.mean(a)), float(np.mean(b)), float(np.mean(c))
    gap_samples = a - mean_c * b - mean_b * c
    se = float(np.std(gap_samples) / math.sqrt(a.size))
    return FactorizationCheck(
        lhs=mean_a, rhs=mean_b * mean_c, gap=mean_a - mean_b * mean_c, std_error=se
    )
