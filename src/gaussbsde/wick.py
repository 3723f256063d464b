"""First-chaos Wick products, Riemann-Wick integrals, Monte-Carlo
S-transforms, and the residual of the backward equation on the original
Gaussian clock.

The product rule used throughout,

    p(X_s) <> (X_t - X_s) = p(X_s) * (X_t - X_s) - p'(X_s) * E[X_s (X_t - X_s)],

is licensed by the S-transform factorization property; the package ships an
explicit Monte Carlo gate for it (`s_transform_factorization_check`) rather
than treating the rule as an axiom.  A Monte Carlo check over finitely many
step functions is evidence, not proof; reports label it as such.

The layer reads one grid, the path batch's.  An integrand is an (N, d + 1)
array of raw-x monomial coefficient rows, one per cell of the batch; a
different row count is refused (`GridMismatch`).  Every product is one
formula, `_wick_cells`; `wick_product_first_chaos` is its guarded public
form, for one cell or all cells of the grid at once.  The corrections
E[X_{t_i} (X_{t_{i+1}} - X_{t_i})] of the cells come from one array call of
the driver's covariance kernel.  The Riemann-Wick integral and the Wick exponential weights reduce each path
to one number, so they run one cache-sized block of paths at a time: a
block's increments, products and row sums are formed in cache and only the
per-path vector is kept; the cells' degeneracy guard reads each cell's
running minimum and maximum over the blocks.  The residual suffix-sums the
products of the whole batch, and the factorization check takes the
increments of its one cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drivers import GaussianDriverSpec, PathBatch, _particle_blocks, covariance
from .errors import DegenerateIncrement, GridMismatch
from .measures import LawFeatures
from .scenario import ScenarioSpec, generator_dv_on_paths, terminal_on_paths
from .solver import SolutionField, _derivative, _polyval

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
    if dx.size:
        _require_spread(dx.min(axis=0), dx.max(axis=0))
    return _wick_cells(np.asarray(poly_coeffs, dtype=float), x, dx, correction)


def _require_spread(low, high):
    """Refuse a cell whose increments, with these per-cell extremes over all
    the samples, are all equal: exact where a sample variance underflows."""
    if np.any(low == high):
        raise DegenerateIncrement("driver increment has zero variance")


def _wick_cells(coeffs: np.ndarray, x: np.ndarray, dx: np.ndarray, correction) -> np.ndarray:
    """p * dx - p' * correction, the Wick products of the states ``x`` and
    their increments ``dx``, for coefficients with the degree along the last
    axis: the formula of ``wick_product_first_chaos``, for a block of paths."""
    p_vals = _polyval(x, coeffs.T)
    dp_vals = _polyval(x, _derivative(coeffs, 1.0).T) if coeffs.shape[-1] > 1 else np.zeros_like(x)
    return p_vals * dx - dp_vals * correction


def _wick_corrections(driver: GaussianDriverSpec, grid: np.ndarray) -> np.ndarray:
    """E[X_{t_i} (X_{t_{i+1}} - X_{t_i})] of every cell of ``grid``, from one
    call of the covariance kernel."""
    cov = covariance(driver, grid[:-1], np.stack([grid[1:], grid[:-1]]))
    return cov[0] - cov[1]


def _cell_corrections(coeffs: np.ndarray, paths: PathBatch) -> np.ndarray:
    """The corrections of the batch's cells, for raw-x coefficient rows
    ``coeffs`` that must hold one row per cell."""
    if np.shape(coeffs)[0] != paths.grid_t.size - 1:
        raise GridMismatch(f"need one coefficient row per cell of the paths' grid, got {np.shape(coeffs)[0]}")
    return _wick_corrections(paths.driver, paths.grid_t)


def riemann_wick_integral(coeffs, paths: PathBatch) -> np.ndarray:
    """Per-path Riemann-Wick sum of v(t_i, X_{t_i}) <> dX over the cells of
    the batch's grid, for raw-x coefficient rows ``coeffs``, one per cell.
    Each block of paths stores its row sums, which are the whole array's."""
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    corrections = _cell_corrections(coeffs, paths)
    x = paths.samples
    sums = np.empty(paths.n_paths)
    low, high = np.full(corrections.size, np.inf), np.full(corrections.size, -np.inf)
    for rows in _particle_blocks(*x.shape):
        xb = x[rows]
        dx = xb[:, 1:] - xb[:, :-1]
        np.minimum(low, dx.min(axis=0), out=low)
        np.maximum(high, dx.max(axis=0), out=high)
        sums[rows] = _wick_cells(coeffs, xb[:, :-1], dx, corrections).sum(axis=1)
    _require_spread(low, high)
    return sums


@dataclass(frozen=True, eq=False)
class ResidualStats:
    """Mean and RMS of the backward-identity residual at every node of the field's clock."""

    mean: np.ndarray
    rms: np.ndarray
    mean_std_error: np.ndarray


def _suffix_sums(cells: np.ndarray) -> np.ndarray:
    """(n, N+1) sums of each row's cells from column i to the last (0 at N)."""
    suffix = np.cumsum(cells[:, ::-1], axis=1)[:, ::-1]
    return np.concatenate([suffix, np.zeros((cells.shape[0], 1))], axis=1)


def bsde_residual(field: SolutionField, scn: ScenarioSpec, paths: PathBatch) -> ResidualStats:
    """R_t = u(t, X_t) - g(X_T, .) - sum f dV + RiemannWick(v) over [t, T],
    on paths sampled on the field's clock."""
    x, clock = paths.samples, field.clock
    if paths.grid_t.size != clock.grid_t.size or np.max(np.abs(paths.grid_t - clock.grid_t)) > _GRID_TOL:
        raise GridMismatch("paths must be sampled on the field's clock")
    u_vals, v_vals = field.on_paths(x)
    g_vals = terminal_on_paths(scn.terminal, x[:, -1])
    law = LawFeatures(*(a.mean(axis=0) for a in (x[:, :-1], u_vals[:, :-1], v_vals)))
    f_cells = generator_dv_on_paths(scn.generator, clock, x, u_vals, v_vals, law)
    # Z's rows in the scaled variable x / scales[i], turned into raw-x rows
    z_rows = field.v_coeffs / field.scales[:-1, None] ** np.arange(field.v_coeffs.shape[1])
    corrections = _cell_corrections(z_rows, paths)
    wick_cells = wick_product_first_chaos(z_rows, x[:, :-1], x[:, 1:] - x[:, :-1], corrections)

    residual = u_vals - g_vals[:, None] - _suffix_sums(f_cells) + _suffix_sums(wick_cells)
    return ResidualStats(
        mean=residual.mean(axis=0),
        rms=np.sqrt(np.mean(residual ** 2, axis=0)),
        mean_std_error=residual.std(axis=0) / math.sqrt(paths.n_paths),
    )


def _increment_covariance(driver: GaussianDriverSpec, grid: np.ndarray) -> np.ndarray:
    """Exact covariance of the increments over the cells of ``grid`` (which starts at 0)."""
    cov = covariance(driver, grid[:, None], grid[None, :])
    return cov[1:, 1:] - cov[1:, :-1] - cov[:-1, 1:] + cov[:-1, :-1]


def wick_exponential_weights(h: StepFunctionH, paths: PathBatch) -> np.ndarray:
    """Per-path realization of exp(I_h - Var(I_h)/2), with
    I_h = sum_i hdot(t_i) (X_{t_{i+1}} - X_{t_i}) on the batch's grid.

    The variance is computed from the exact covariance, so the weights have
    unit mean up to Monte Carlo error only.  Under them the S-transform of
    X_t is Cov(X_t, I_h); on the Brownian driver that is int_0^t hdot dV
    wherever h's edges are grid nodes.  For other drivers I_h is a valid
    first-chaos test direction whose induced h may differ from the nominal
    density.
    """
    grid, x = paths.grid_t, paths.samples
    hdot_left = np.asarray(h.hdot(grid[:-1]))
    i_h = np.empty(paths.n_paths)
    for rows in _particle_blocks(*x.shape):
        xb = x[rows]
        i_h[rows] = (xb[:, 1:] - xb[:, :-1]) @ hdot_left
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
    b = _polyval(x_i, np.asarray(poly_coeffs, dtype=float)) * weights
    c = dx_i * weights
    mean_a, mean_b, mean_c = float(np.mean(a)), float(np.mean(b)), float(np.mean(c))
    gap_samples = a - mean_c * b - mean_b * c
    se = float(np.std(gap_samples) / math.sqrt(a.size))
    return FactorizationCheck(
        lhs=mean_a, rhs=mean_b * mean_c, gap=mean_a - mean_b * mean_c, std_error=se
    )
