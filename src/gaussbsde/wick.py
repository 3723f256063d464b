"""First-chaos Wick products, Riemann-Wick integrals, Monte-Carlo
S-transforms, and the residual of the backward equation on the original
Gaussian clock.

The product rule used throughout,

    p(X_s) <> (X_t - X_s) = p(X_s) * (X_t - X_s) - p'(X_s) * E[X_s (X_t - X_s)],

is licensed by the S-transform factorization property; the package ships an
explicit Monte Carlo gate for it (`s_transform_factorization_check`) rather
than treating the rule as an axiom.  A Monte Carlo check over finitely many
step functions is evidence, not proof; reports label it as such.

Every product goes through `wick_product_first_chaos`, one cell or all cells
of a grid at once.  The corrections E[X_{t_i} (X_{t_{i+1}} - X_{t_i})] of the
cells come from one array call of the driver's covariance kernel, and
`_wick_cells` gives the (n, N) products of an integrand along a path batch:
the Riemann-Wick integral sums them and the residual suffix-sums them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .drivers import GaussianDriverSpec, PathBatch, VarianceClock, covariance
from .errors import DegenerateIncrement, GridMismatch
from .scenario import ScenarioSpec, generator_dv_on_paths, terminal_on_paths
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
    nodes 0 .. N-1).
    """

    grid_t: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape[0] != self.grid_t.size - 1:
            raise ValueError("need one coefficient row per grid cell")

    @classmethod
    def from_rows(cls, grid_t, rows) -> "FirstChaosIntegrand":
        return cls(grid_t=np.asarray(grid_t, dtype=float), coeffs=np.atleast_2d(np.asarray(rows, dtype=float)))

    @classmethod
    def from_field(cls, field: SolutionField) -> "FirstChaosIntegrand":
        """Convert the solver's scaled-basis Z representation to raw-x rows."""
        powers = np.arange(field.v_coeffs.shape[1])
        return cls.from_rows(field.grid_t, field.v_coeffs / field.scales[: field.n_steps, None] ** powers)


def wick_product_first_chaos(poly_coeffs, x_samples, increment_samples, correction) -> np.ndarray:
    """Pathwise p(X_{t_i}) <> (X_{t_{i+1}} - X_{t_i}), where ``correction`` is
    E[X_{t_i} (X_{t_{i+1}} - X_{t_i})].

    One cell: ``poly_coeffs`` is a coefficient vector, the samples are
    n-vectors and the correction is a number.  N cells at once:
    ``poly_coeffs`` has one row per cell, the samples are (n, N) with one
    column per cell, and the correction is an N-vector.
    """
    x = np.asarray(x_samples, dtype=float)
    dx = np.asarray(increment_samples, dtype=float)
    if x.shape != dx.shape:
        raise ValueError("x_samples and increment_samples must be paired")
    if dx.size and np.any(np.var(dx, axis=0) == 0.0):
        raise DegenerateIncrement("driver increment has zero variance")
    coeffs = np.asarray(poly_coeffs, dtype=float).T  # degree along the first axis
    p_vals = npoly.polyval(x, coeffs, tensor=False)
    dp_vals = npoly.polyval(x, npoly.polyder(coeffs), tensor=False) if coeffs.shape[0] > 1 else np.zeros_like(x)
    return p_vals * dx - dp_vals * correction


def _wick_corrections(driver: GaussianDriverSpec, grid: np.ndarray) -> np.ndarray:
    """E[X_{t_i} (X_{t_{i+1}} - X_{t_i})] of every cell of ``grid``, from one
    call of the covariance kernel."""
    cov = covariance(driver, grid[:-1], np.stack([grid[1:], grid[:-1]]))
    return cov[0] - cov[1]


def _wick_cells(coeffs: np.ndarray, paths: PathBatch) -> np.ndarray:
    """(n, N) products v(t_i, X_{t_i}) <> (X_{t_{i+1}} - X_{t_i}) along the
    paths, for raw-x coefficient rows ``coeffs`` (one per cell)."""
    x = paths.samples
    return wick_product_first_chaos(coeffs, x[:, :-1], np.diff(x, axis=1), _wick_corrections(paths.driver, paths.grid_t))


def _check_grid_alignment(grid_a: np.ndarray, grid_b: np.ndarray):
    if grid_a.size != grid_b.size or np.max(np.abs(grid_a - grid_b)) > _GRID_TOL:
        raise GridMismatch("integrand, paths and clock must share one grid")


def riemann_wick_integral(
    integrand: FirstChaosIntegrand, paths: PathBatch, clock: VarianceClock
) -> np.ndarray:
    """Per-path Riemann-Wick sum of v(t_i, X_{t_i}) <> dX over all grid cells."""
    _check_grid_alignment(paths.grid_t, integrand.grid_t)
    _check_grid_alignment(integrand.grid_t, clock.grid_t)
    return _wick_cells(integrand.coeffs, paths).sum(axis=1)


@dataclass(frozen=True, eq=False)
class ResidualStats:
    """Mean and RMS of the backward-identity residual at every grid node."""

    grid_t: np.ndarray
    mean: np.ndarray
    rms: np.ndarray
    mean_std_error: np.ndarray


def _suffix_sums(cells: np.ndarray) -> np.ndarray:
    """(n, N+1) sums of each row's cells from column i to the last (0 at N)."""
    suffix = np.cumsum(cells[:, ::-1], axis=1)[:, ::-1]
    return np.concatenate([suffix, np.zeros((cells.shape[0], 1))], axis=1)


def bsde_residual(
    field: SolutionField, scn: ScenarioSpec, paths: PathBatch, clock: VarianceClock
) -> ResidualStats:
    """R_t = u(t, X_t) - g(X_T, .) - sum f dV + RiemannWick(v) over [t, T]."""
    x = paths.samples
    _check_grid_alignment(paths.grid_t, clock.grid_t)
    _check_grid_alignment(clock.grid_t, field.grid_t)
    u_vals, v_vals = field.on_paths(x)
    g_vals = terminal_on_paths(scn.terminal, x[:, -1])
    f_cells = generator_dv_on_paths(scn.generator, clock, x, u_vals, v_vals)
    wick_cells = _wick_cells(FirstChaosIntegrand.from_field(field).coeffs, paths)

    residual = u_vals - g_vals[:, None] - _suffix_sums(f_cells) + _suffix_sums(wick_cells)
    return ResidualStats(
        grid_t=clock.grid_t,
        mean=residual.mean(axis=0),
        rms=np.sqrt(np.mean(residual ** 2, axis=0)),
        mean_std_error=residual.std(axis=0) / math.sqrt(paths.n_paths),
    )


def _increment_covariance(driver: GaussianDriverSpec, grid: np.ndarray) -> np.ndarray:
    """Exact covariance of the increments over the cells of ``grid`` (which starts at 0)."""
    cov = covariance(driver, grid[:, None], grid[None, :])
    return cov[1:, 1:] - cov[1:, :-1] - cov[:-1, 1:] + cov[:-1, :-1]


def wick_exponential_weights(h: StepFunctionH, paths: PathBatch) -> np.ndarray:
    """Per-path realization of exp(I_h - Var(I_h)/2), with I_h = sum hdot dX.

    The variance is computed from the exact covariance, so the weights have
    unit mean up to Monte Carlo error only.  On the Brownian driver I_h
    realizes the direction with density hdot exactly; for other drivers it is
    a valid first-chaos test direction whose induced h may differ from the
    nominal density.
    """
    grid = paths.grid_t
    hdot_left = np.asarray(h.hdot(grid[:-1]))
    i_h = np.diff(paths.samples, axis=1) @ hdot_left
    var_exact = float(hdot_left @ _increment_covariance(paths.driver, grid) @ hdot_left)
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
    grid, x = paths.grid_t, paths.samples
    i = cell_index
    if not 0 <= i < grid.size - 1:
        raise ValueError("cell_index outside the grid")
    x_i = x[:, i]
    dx_i = x[:, i + 1] - x[:, i]
    correction = _wick_corrections(paths.driver, grid[i : i + 2])[0]
    wick_samples = wick_product_first_chaos(poly_coeffs, x_i, dx_i, correction)

    a = wick_samples * weights
    b = npoly.polyval(x_i, np.asarray(poly_coeffs, dtype=float)) * weights
    c = dx_i * weights
    mean_a, mean_b, mean_c = float(np.mean(a)), float(np.mean(b)), float(np.mean(c))
    gap_samples = a - mean_c * b - mean_b * c
    se = float(np.std(gap_samples) / math.sqrt(a.size))
    return FactorizationCheck(
        lhs=mean_a, rhs=mean_b * mean_c, gap=mean_a - mean_b * mean_c, std_error=se
    )
