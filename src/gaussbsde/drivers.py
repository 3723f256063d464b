"""Gaussian driver models: the covariance kernel, the variance clock, and
exact joint path sampling on a time grid.

A driver is a centered one-dimensional Gaussian process on [0, T] whose
variance function is strictly increasing with value 0 at time 0.  The clock
table (t_i, V_i) and its piecewise-linear inverse are the bridge between the
driver's own time scale and the Brownian time scale [0, V_T] used by the
solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CholeskyFailure, NonMonotoneVariance, OutOfRange
from .rng import standard_normals

_DOMAIN_TOL = 1e-12
_NODE_TOL = 1e-9

KINDS = ("brownian", "fbm", "custom")


@dataclass(frozen=True, eq=False)
class GaussianDriverSpec:
    """Covariance model of the driving Gaussian process.

    kind        one of "brownian", "fbm", "custom"
    T           horizon (time units), > 0
    hurst       Hurst parameter, required for kind="fbm", in (0, 1)
    cov_grid    custom kind only: strictly increasing times in (0, T]
    cov_matrix  custom kind only: symmetric covariance table on cov_grid
    """

    kind: str
    T: float = 1.0
    hurst: float | None = None
    cov_grid: np.ndarray | None = field(default=None, repr=False)
    cov_matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown driver kind {self.kind!r}")
        if not self.T > 0:
            raise ValueError("horizon T must be positive")
        if self.kind == "fbm":
            if self.hurst is None or not 0.0 < self.hurst < 1.0:
                raise ValueError("hurst must be in (0,1)")
        if self.kind == "custom":
            if self.cov_grid is None or self.cov_matrix is None:
                raise ValueError("custom driver needs cov_grid and cov_matrix")
            grid = np.asarray(self.cov_grid, dtype=float)
            mat = np.asarray(self.cov_matrix, dtype=float)
            if grid.ndim != 1 or grid.size == 0:
                raise ValueError("cov_grid must be a nonempty 1-d array")
            if not (np.all(np.diff(grid) > 0) and grid[0] > 0 and grid[-1] <= self.T + _DOMAIN_TOL):
                raise ValueError("cov_grid must be strictly increasing inside (0, T]")
            if mat.shape != (grid.size, grid.size):
                raise ValueError("cov_matrix shape does not match cov_grid")
            if not np.allclose(mat, mat.T, atol=1e-10):
                raise ValueError("cov_matrix must be symmetric")
            object.__setattr__(self, "cov_grid", grid)
            object.__setattr__(self, "cov_matrix", mat)

    @classmethod
    def brownian(cls, T: float = 1.0) -> "GaussianDriverSpec":
        return cls(kind="brownian", T=T)

    @classmethod
    def fbm(cls, hurst: float, T: float = 1.0) -> "GaussianDriverSpec":
        return cls(kind="fbm", T=T, hurst=hurst)

    @classmethod
    def custom(cls, grid: np.ndarray, lower_rows: list[list[float]], T: float) -> "GaussianDriverSpec":
        """Build a custom driver from a lower-triangular covariance table.

        Row i of ``lower_rows`` holds the i+1 entries cov(t_i, t_0..t_i).
        """
        n = len(lower_rows)
        mat = np.zeros((n, n))
        for i, row in enumerate(lower_rows):
            if len(row) != i + 1:
                raise ValueError(f"covariance table row {i} must have {i + 1} entries")
            mat[i, : i + 1] = row
            mat[: i + 1, i] = row
        return cls(kind="custom", T=T, cov_grid=np.asarray(grid, dtype=float), cov_matrix=mat)

    def payload(self) -> dict:
        """JSON-ready description (used for digests and config round trips)."""
        out: dict = {"kind": self.kind, "T": float(self.T)}
        if self.kind == "fbm":
            out["hurst"] = float(self.hurst)
        if self.kind == "custom":
            out["cov_grid"] = [float(v) for v in self.cov_grid]
            out["cov_matrix"] = [[float(v) for v in row] for row in self.cov_matrix]
        return out


def _custom_indices(spec: GaussianDriverSpec, times: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(spec.cov_grid, times - _NODE_TOL)
    ok = (idx < spec.cov_grid.size) & (np.abs(spec.cov_grid[np.minimum(idx, spec.cov_grid.size - 1)] - times) <= _NODE_TOL)
    if not np.all(ok):
        bad = np.asarray(times)[~ok]
        raise OutOfRange(f"time {bad.flat[0]!r} is not a node of the custom covariance grid")
    return idx


def covariance(spec: GaussianDriverSpec, s, t):
    """E[X_s X_t] for the driver, broadcast over arrays of times (a float for
    two scalars).  It is 0 when either time is 0; custom drivers are defined
    on their grid only.  This is the one covariance formula of each driver
    kind: the clock, the path sampler and the Wick layer all read it."""
    scalar = np.ndim(s) == 0 and np.ndim(t) == 0
    # scalars too are computed as arrays: numpy's scalar power can differ
    # from its array power in the last bit
    s, t = np.atleast_1d(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    lo = np.minimum(s, t)
    if np.any(lo < -_DOMAIN_TOL) or np.any(np.maximum(s, t) > spec.T + _DOMAIN_TOL):
        raise OutOfRange(f"times ({s}, {t}) outside [0, {spec.T}]")
    pos = lo > 0
    if spec.kind == "brownian":
        cov = lo
    elif spec.kind == "fbm":
        s, t = np.maximum(s, 0.0), np.maximum(t, 0.0)
        h2 = 2.0 * spec.hurst
        cov = 0.5 * (s ** h2 + t ** h2 - np.abs(t - s) ** h2)
    else:
        s, t = np.broadcast_arrays(s, t)
        cov = np.zeros(pos.shape)
        cov[pos] = spec.cov_matrix[_custom_indices(spec, s[pos]), _custom_indices(spec, t[pos])]
    cov = np.where(pos, cov, 0.0)
    return float(cov[0]) if scalar else cov


@dataclass(frozen=True, eq=False)
class VarianceClock:
    """Table of the variance function V and its monotone piecewise-linear inverse."""

    grid_t: np.ndarray
    grid_V: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.grid_t, dtype=float)
        v = np.asarray(self.grid_V, dtype=float)
        if t.shape != v.shape or t.ndim != 1 or t.size < 2:
            raise ValueError("clock needs matching 1-d grids with at least two nodes")
        if abs(t[0]) > _DOMAIN_TOL or abs(v[0]) > _DOMAIN_TOL:
            raise ValueError("clock grids must start at 0")
        if not np.all(np.diff(t) > 0):
            raise ValueError("time grid must be strictly increasing")
        if not np.all(np.diff(v) > 0):
            raise NonMonotoneVariance("variance steps must be strictly positive")
        object.__setattr__(self, "grid_t", t)
        object.__setattr__(self, "grid_V", v)

    @property
    def T(self) -> float:
        return float(self.grid_t[-1])

    @property
    def V_T(self) -> float:
        return float(self.grid_V[-1])

    def value(self, t):
        """V(t), linear between nodes."""
        t = np.asarray(t, dtype=float)
        if np.any(t < -_DOMAIN_TOL) or np.any(t > self.T + _DOMAIN_TOL):
            raise OutOfRange(f"time {t!r} outside [0, {self.T}]")
        out = np.interp(t, self.grid_t, self.grid_V)
        return float(out) if out.ndim == 0 else out

    def invert(self, s):
        """U(s) = inf{r : V(r) >= s}, linear between nodes."""
        s = np.asarray(s, dtype=float)
        if np.any(s < -_DOMAIN_TOL) or np.any(s > self.V_T + _DOMAIN_TOL):
            raise OutOfRange(f"variance value {s!r} outside [0, {self.V_T}]")
        out = np.interp(s, self.grid_V, self.grid_t)
        return float(out) if out.ndim == 0 else out


def build_clock(spec: GaussianDriverSpec, n_nodes: int) -> VarianceClock:
    """Clock table V(t_i) = cov(t_i, t_i) on a uniform grid of n_nodes points.

    Custom drivers carry their own grid; n_nodes is ignored for them and the
    table grid (with 0 prepended) is used instead.
    """
    if spec.kind == "custom":
        grid_t = np.concatenate(([0.0], spec.cov_grid))
    else:
        if n_nodes < 2:
            raise ValueError("n_nodes must be at least 2")
        grid_t = np.linspace(0.0, spec.T, n_nodes)
    grid_V = covariance(spec, grid_t, grid_t)
    if not np.all(np.diff(grid_V) > 0):
        raise NonMonotoneVariance("covariance diagonal is not strictly increasing")
    return VarianceClock(grid_t=grid_t, grid_V=grid_V)


@dataclass(frozen=True, eq=False)
class PathBatch:
    """Ensemble of exact joint samples of the driver on a grid that starts at
    0: column 0 is the origin, X(0) = 0."""

    grid_t: np.ndarray
    samples: np.ndarray  # n_paths x n_times
    seed: int
    driver: GaussianDriverSpec

    @property
    def n_paths(self) -> int:
        return self.samples.shape[0]


def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(cov)
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise CholeskyFailure(
                "covariance matrix is not numerically PSD (jitter retry failed)"
            ) from exc


def sample_paths(spec: GaussianDriverSpec, grid_t: np.ndarray, n_paths: int, seed: int) -> PathBatch:
    """Exact Gaussian sampling by Cholesky factorization of the covariance
    matrix at the positive times of ``grid_t``, a grid that starts at 0 (a
    clock's ``grid_t`` as it is); column 0 of the samples is the origin.

    Deterministic given the seed; independent of path ordering (one
    counter-based stream keyed by the seed).
    """
    grid_t = np.asarray(grid_t, dtype=float)
    if grid_t.ndim != 1 or grid_t.size == 0:
        raise ValueError("grid_t must be a nonempty 1-d array")
    if not (abs(grid_t[0]) <= _DOMAIN_TOL and np.all(np.diff(grid_t) > 0) and grid_t[-1] <= spec.T + _DOMAIN_TOL):
        raise ValueError("grid must start at 0 and be strictly increasing inside [0, T]")
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    times = grid_t[1:]
    chol = _cholesky_with_jitter(covariance(spec, times[:, None], times[None, :]))
    z = standard_normals(seed, (n_paths, times.size), "driver-paths")
    samples = np.zeros((n_paths, grid_t.size))
    np.matmul(z, chol.T, out=samples[:, 1:])
    return PathBatch(grid_t=grid_t, samples=samples, seed=seed, driver=spec)
