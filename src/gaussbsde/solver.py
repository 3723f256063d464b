"""Backward least-squares Monte Carlo solver for the auxiliary Brownian
equation on [0, V_T], with Picard iteration on the flow of laws, and transfer
of the solution back through the variance clock.

Scheme (explicit, one regression sweep per Picard iterate):

    Y_N = g(W_N, features_N)
    for i = N-1 .. 0:
        P_i   = regression of [Y_{i+1} - martingale control variate]
                on a polynomial basis of W_i / sqrt(s_i)
        Z_i   = regression of the spatial derivative of the one-step value
                P_i + f ds
        Y_i   = P_i + f(U(s_i), W_i, P_i, Z_i, features_i) * ds_i

Particle arrays are stored time-major: W, its increments, the generator's
states, Y and Z are (N+1, n) arrays (n for the increments) whose row i holds
every particle at node i, so each node reads and writes one contiguous row.
At each node of a sweep the basis is built once from that row, as a
(degree+1, n) block phi; the normal matrix, the P, Z and u fits, the fitted
values, the control variate (the next node's Z field, rescaled to this
node's variable) and the derivative of the P fit are all products with it.
``ParticleCloud`` exposes the rows as transposed, n x (N+1), views.

The paths are fixed for a solve, so each node has one regression system: its
normal matrix is built once and serves the P, Z and u fits of every sweep.
Law features are frozen during a backward sweep and updated between sweeps
until the flow of laws is a fixed point (sup-W2 change below tolerance); the
features and the W2 test read whole matrices, one row per node, and each Y
matrix is sorted once (its sorted rows are kept for the next sweep's test).
The first iterate is the flow of the f = 0, Z = 0 sweep, which has a closed
form: a projection with an intercept keeps the particle mean, so its
features are (mean x, mean g, 0) at every node.

One solve path serves every entry point: ``_solve_on_grid`` draws the
increments once and solves K scenarios on them as a stack.  Y and Z are
(K, N+1, n) buffers allocated once per solve; each node fits the P, Z and u
targets of all K scenarios with one product with phi and one linear solve on
a (degree+1, K) right-hand side, and evaluates f and its partials once for
the (K, n) block through the solve's ``GeneratorStack``.  The law features
are one (N+1,) array of x means and (K, N+1) arrays of y and z means,
updated in place between sweeps.  Each scenario keeps its own Picard stop: a
converged scenario leaves the stack and its rows stop changing; a contiguous
set of active scenarios is a slice, so its rows are read and written as
views.  A single solve is the stack of one; the paired checks (comparison,
converse, stability) solve both scenarios of a pair as one stack, on common
random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .drivers import VarianceClock
from .errors import (
    DegenerateInterval,
    NonFiniteSolution,
    OutOfRange,
    PicardDivergence,
    RegressionIllConditioned,
)
from .measures import LawFeatures, sorted_w2
from .rng import standard_normals
from .scenario import (
    GeneratorStack,
    ScenarioSpec,
    eval_generator,
    generator_partials,
    lipschitz_audit,
    terminal_on_paths,
)

_COND_LIMIT = 1e12
_MAX_STEP_LIPSCHITZ = 0.5


@dataclass(frozen=True)
class SolverConfig:
    n_time: int = 64
    n_particles: int = 20000
    basis_degree: int = 4
    ridge: float = 1e-8
    picard_max_iter: int = 10
    picard_tol: float = 1e-3

    def __post_init__(self):
        if self.n_time < 2:
            raise ValueError("n_time must be at least 2")
        if self.n_particles < 10 * (self.basis_degree + 1):
            raise ValueError("n_particles must be at least 10 * (basis_degree + 1)")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be at least 1")

    def payload(self) -> dict:
        return {
            "n_time": self.n_time,
            "n_particles": self.n_particles,
            "basis_degree": self.basis_degree,
            "ridge": self.ridge,
            "picard_max_iter": self.picard_max_iter,
            "picard_tol": self.picard_tol,
        }


@dataclass(frozen=True, eq=False)
class ParticleCloud:
    """Joint samples of (W, Y, Z) per grid time on the Brownian clock, as
    n_particles x (N+1) views of the solver's time-major arrays."""

    w: np.ndarray  # n_particles x (N+1)
    y: np.ndarray
    z: np.ndarray

    @property
    def n_particles(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True, eq=False)
class SolutionField:
    """Per-grid-time regression representations of the solution pair.

    u_coeffs[i] are monomial coefficients in the scaled variable
    w / scales[i]; v_coeffs[i] represents Z on [s_i, s_{i+1}) (left-constant
    in time, so there is one row fewer than for u).
    """

    clock: VarianceClock
    grid_s: np.ndarray
    grid_t: np.ndarray
    scales: np.ndarray
    u_coeffs: np.ndarray  # (N+1) x (degree+1)
    v_coeffs: np.ndarray  # N x (degree+1)
    convergence: tuple[float, ...]
    n_iterations: int

    @property
    def n_steps(self) -> int:
        return len(self.grid_s) - 1

    def eval_u(self, i: int, x):
        out = npoly.polyval(np.asarray(x, dtype=float) / self.scales[i], self.u_coeffs[i])
        return float(out) if np.ndim(out) == 0 else out

    def eval_v(self, i: int, x):
        i = min(i, self.n_steps - 1)
        out = npoly.polyval(np.asarray(x, dtype=float) / self.scales[i], self.v_coeffs[i])
        return float(out) if np.ndim(out) == 0 else out

    def on_paths(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Y, Z) on an (n, N+1) array of states at the grid nodes; Z has one
        column per cell."""
        y = np.column_stack([self.eval_u(i, x[:, i]) for i in range(self.n_steps + 1)])
        z = np.column_stack([self.eval_v(i, x[:, i]) for i in range(self.n_steps)])
        return y, z


def _gram(phi: np.ndarray, ridge: float) -> np.ndarray:
    """Ridge-regularized normal matrix of a (degree+1, n) basis block,
    refused when its condition estimate is above the limit."""
    gram = phi @ phi.T + ridge * np.eye(phi.shape[0])
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise RegressionIllConditioned(
            f"normal-equations condition estimate {cond:.3e} exceeds {_COND_LIMIT:.0e}"
        )
    return gram


def _fit(phi: np.ndarray, gram: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of each target row on the block phi: one
    (degree+1, K) right-hand side for K rows, returned as (K, degree+1)
    (a 1-D target gives 1-D coefficients)."""
    return np.linalg.solve(gram, phi @ targets.T).T


def _basis_scales(grid_s) -> np.ndarray:
    """Standard deviation of the regression state per node (1 where degenerate)."""
    spread = np.asarray(grid_s, dtype=float) - grid_s[0]
    return np.where(spread > 0, np.sqrt(np.maximum(spread, 0.0)), 1.0)


def _monomials(x: np.ndarray, degree: int) -> np.ndarray:
    """(degree+1, n) block whose row k is x**k."""
    phi = np.empty((degree + 1, x.size))
    phi[0] = 1.0
    if degree:
        phi[1] = x
        for k in range(2, degree + 1):
            np.multiply(phi[k - 1], x, out=phi[k])
    return phi


def _basis(w: np.ndarray, scales: np.ndarray, i: int, degree: int) -> np.ndarray:
    """Monomial block of the scaled state at node i.  The grid increases
    strictly, so node 0 is the only node whose state is identically zero; it
    gets the constant alone."""
    return _monomials(w[i] / scales[i], degree if i > 0 else 0)


def _rescaled(coeffs: np.ndarray, ratio: float) -> np.ndarray:
    """Coefficients of x -> c(ratio * x): a field fitted in w / b, read in the
    variable w / a of another node, with ratio = a / b.  Coefficients run
    along the last axis, so a (K, degree+1) stack is rescaled row by row."""
    return coeffs * ratio ** np.arange(coeffs.shape[-1])


def _derivative(coeffs: np.ndarray, scale: float) -> np.ndarray:
    """Coefficients of the w-derivative of w -> c(w / scale), in w / scale
    (one degree lower), along the last axis."""
    return np.arange(1, coeffs.shape[-1]) * coeffs[..., 1:] / scale


@dataclass(eq=False)
class _Stack:
    """Buffers of a K-scenario solve, allocated once and rewritten by every
    sweep of the scenarios still iterating: scenario k's coefficients are
    u[k], v[k], its particle values y[k], z[k] ((N+1, n) each) and its
    unprojected one-step values at the first node candidates[k]."""

    u: np.ndarray  # K x (N+1) x (degree+1)
    v: np.ndarray  # K x N x (degree+1)
    y: np.ndarray  # K x (N+1) x n
    z: np.ndarray
    candidates: np.ndarray  # K x n
    logs: list
    n_iterations: list

    @classmethod
    def empty(cls, K: int, N: int, n: int, degree: int) -> "_Stack":
        return cls(
            u=np.zeros((K, N + 1, degree + 1)),
            v=np.zeros((K, N, degree + 1)),
            y=np.empty((K, N + 1, n)),
            z=np.empty((K, N + 1, n)),
            candidates=np.empty((K, n)),
            logs=[[] for _ in range(K)],
            n_iterations=[0] * K,
        )


def _backward_pass(gens, act, grid_s, grid_t, w, dw, x_states, terminal_values, features, scales, grams, out):
    """One backward sweep with frozen law features, for the scenarios ``act``
    (increasing indices into the ``GeneratorStack`` ``gens``) of the stack
    ``out``, written in place.

    ``w`` is the (N+1, n) regression state (zero at the first node, variance
    s_i - s_0), ``dw`` its (N, n) increments; ``x_states`` carries the driver
    positions fed to the generator's state slot; ``features`` holds the
    (N+1,) particle means of x and the (K, N+1) means of y and z per node;
    ``grams[i]`` is the normal matrix of node i's basis at ``scales``.  Every
    node fits the targets of all scenarios in ``act`` at once, one row each,
    and evaluates f and its partials once for them all.  The first-node
    candidates have the same particle mean as the projected values exactly.
    """
    N = len(grid_s) - 1
    n = w.shape[1]
    degree = out.u.shape[-1] - 1
    y, z = out.y, out.z
    # a contiguous active set (always so for a full stack or a stack of one)
    # is a slice, so every row read and write below is a view
    rows = slice(act[0], act[-1] + 1) if act[-1] - act[0] + 1 == len(act) else act
    gen = gens if len(act) == len(gens) else gens[rows]

    y[rows, N] = terminal_values[rows]
    phi = _basis(w, scales, N, degree)
    out.u[rows, N, : phi.shape[0]] = _fit(phi, grams[N], terminal_values[rows])

    for i in range(N - 1, -1, -1):
        ds = grid_s[i + 1] - grid_s[i]
        t_i = float(grid_t[i])
        phi = _basis(w, scales, i, degree)
        width = phi.shape[0]
        target = y[rows, i + 1]
        if i + 1 < N:
            # martingale control variate: subtracting z(W_i) dW_i leaves the
            # conditional expectation unchanged and shrinks the regression
            # residual from O(sqrt(ds)) to O((Z - z_hat) sqrt(ds)); centering
            # keeps the particle mean of the fit exactly equal to the target's.
            # z(W_i) is the next node's Z field, read in this node's variable
            cv = (_rescaled(out.v[rows, i + 1, :width], scales[i] / scales[i + 1]) @ phi) * dw[i]
            target = target - (cv - cv.mean(axis=1, keepdims=True))
        beta = _fit(phi, grams[i], target)
        p = beta @ phi

        if i > 0:
            dp = _derivative(beta, scales[i]) @ phi[:-1]
        else:
            # slope of w -> E[Y_{i+1} | W_i = w] at the collapsed node:
            # smoothing the next field gives E[dY_{i+1}/dw]
            if i + 1 < N:
                slope = z[rows, i + 1].mean(axis=1, keepdims=True)
            else:
                slope = ((y[rows, i + 1] - p) * dw[i]).mean(axis=1, keepdims=True) / ds
            dp = np.repeat(slope, n, axis=1)
        # the control field is the derivative of the full one-step value
        # P + f ds; the first-order generator correction keeps Z accurate
        # to O(ds^2) instead of O(ds), and is 0 for a state-free generator
        if gen.is_state_free:
            z_i = dp
        else:
            df_dx, df_dy, df_dz = generator_partials(gen, t_i, x_states[i], p, dp)
            z_i = dp + ds * (df_dx + (df_dy + df_dz) * dp)
        if i == 0:
            vb = z_i.mean(axis=1, keepdims=True)
            z_i[:] = vb
        else:
            vb = _fit(phi, grams[i], z_i)
            z_i = vb @ phi
        out.v[rows, i, :width] = vb

        law = LawFeatures(features.mean_x[i], features.mean_y[rows, i, None], features.mean_z[rows, i, None])
        f_vals = eval_generator(gen, t_i, x_states[i], p, z_i, law)
        y_i = p + f_vals * ds
        y[rows, i] = y_i
        z[rows, i] = z_i
        out.u[rows, i, :width] = _fit(phi, grams[i], y_i)
        if i == 0:
            out.candidates[rows] = y[rows, 1] + f_vals * ds

    z[rows, N] = z[rows, N - 1]


def _picard_solve(gens, grid_s, grid_t, w, dw, terminal_values, cfg, x_states) -> _Stack:
    """Picard iteration on the flow of laws for K generators on one set of
    paths; ``terminal_values`` is (K, n).  Each scenario keeps its own stop:
    one that has converged leaves the stack, and its rows stop changing."""
    K = len(gens)
    stack = GeneratorStack(gens)
    scales = _basis_scales(grid_s)
    grams = [_gram(_basis(w, scales, i, cfg.basis_degree), cfg.ridge) for i in range(len(grid_s))]
    out = _Stack.empty(K, len(grid_s) - 1, w.shape[1], cfg.basis_degree)
    # the sorted rows of each law-dependent scenario's previous Y, overwritten
    # by every W2 test, so each Y matrix is sorted once
    sorted_prev: dict[int, np.ndarray] = {}
    act = np.arange(K)
    # an overflowing solve is reported once, by the finiteness check after
    # each sweep, not by numpy warnings along the way
    with np.errstate(over="ignore", invalid="ignore"):
        # the first iterate is the f = 0, Z = 0 sweep, whose projections keep
        # the particle mean of g at every node; each later sweep reads the
        # particle means of its predecessor, written in place
        feats = LawFeatures(
            mean_x=x_states.mean(axis=1),
            mean_y=np.repeat(terminal_values.mean(axis=1)[:, None], len(grid_s), axis=1),
            mean_z=np.zeros((K, len(grid_s))),
        )
        for sweep in range(1, cfg.picard_max_iter + 1):
            _backward_pass(stack, act, grid_s, grid_t, w, dw, x_states, terminal_values, feats, scales, grams, out)
            still = []
            for k in act.tolist():
                out.n_iterations[k] = sweep
                if not all(np.isfinite(a[k]).all() for a in (out.u, out.v, out.y)):
                    raise NonFiniteSolution(f"backward sweep {sweep} left coefficients or Y non-finite")
                log = out.logs[k]
                if gens[k].is_law_free:
                    log.append(0.0)
                    continue
                y = out.y[k]
                if k in sorted_prev:
                    change = sorted_w2(y, sorted_prev[k], b_sorted=True)
                    log.append(change)
                    if change < cfg.picard_tol:
                        continue
                else:
                    sorted_prev[k] = np.sort(y, axis=-1)
                y.mean(axis=1, out=feats.mean_y[k])
                out.z[k].mean(axis=1, out=feats.mean_z[k])
                still.append(k)
            if not still:
                break
            act = np.array(still)
        else:
            log = out.logs[int(act[0])]
            raise PicardDivergence(
                f"law iteration did not reach tol {cfg.picard_tol} in "
                f"{cfg.picard_max_iter} sweeps; last changes {log[-2:]}"
            )
    return out


def _brownian_increments(grid_s, n_particles, seed, tag):
    """(N, n) centred Brownian increments; row i is the step from s_i to
    s_{i+1} of every particle."""
    ds = np.diff(grid_s)
    z = standard_normals(seed, (n_particles, ds.size), tag)
    z -= z.mean(axis=0)  # exact zero-mean increments
    return np.multiply(z.T, np.sqrt(ds)[:, None], order="C")


def _paths(dw: np.ndarray) -> np.ndarray:
    """(N+1, n) partial sums of the increments, starting from 0."""
    w = np.zeros((dw.shape[0] + 1, dw.shape[1]))
    # a running sum over contiguous rows adds in the order np.cumsum does
    # along axis 0, without its strided walk over a time-major block
    for i, step in enumerate(dw):
        np.add(w[i], step, out=w[i + 1])
    return w


def _solve_on_grid(gens, terminal, grid_s, grid_t, cfg, seed, tag, x_start=None):
    """The one solve path: draw the increments of every particle once, build
    the paths from 0, and run the Picard iteration of the K generators on
    them.  ``terminal(w_end)`` gives the K rows of terminal values at the
    last node's state; the generators read ``x_start + w`` in their state
    slot (``w`` itself when None).  Returns (w, stack)."""
    dw = _brownian_increments(grid_s, cfg.n_particles, seed, tag)
    w = _paths(dw)
    terminal_values = np.array(terminal(w[-1]), dtype=float)
    x_states = w if x_start is None else x_start + w
    return w, _picard_solve(gens, grid_s, grid_t, w, dw, terminal_values, cfg, x_states)


def solve_auxiliary_stack(
    scns, clock: VarianceClock, cfg: SolverConfig, seed: int
) -> list[tuple[SolutionField, ParticleCloud]]:
    """Solve the auxiliary Brownian equations of several scenarios on the
    clock's grid as one stack, on one shared draw (common random numbers):
    each scenario's (field, cloud) is the one ``solve_auxiliary`` gives alone.

    The time grid is taken from the clock (its image of [0, T]); ``cfg.n_time``
    governs clock construction in the orchestration layer, not here.
    """
    grid_s = clock.grid_V
    grid_t = clock.grid_t
    max_ds = np.diff(grid_s).max()
    for scn in scns:
        audit = lipschitz_audit(scn, n_probes=64, seed=seed)
        if max_ds * audit.l_f > _MAX_STEP_LIPSCHITZ:
            raise ValueError(
                f"explicit scheme needs max step * L_f <= {_MAX_STEP_LIPSCHITZ}; "
                f"got {max_ds * audit.l_f:.3g} (refine the grid)"
            )

    def terminal(w_end):
        return [terminal_on_paths(scn.terminal, w_end) for scn in scns]

    w, out = _solve_on_grid([scn.generator for scn in scns], terminal, grid_s, grid_t, cfg, seed, "solver-increments")
    scales = _basis_scales(grid_s)
    return [
        (
            SolutionField(
                clock=clock,
                grid_s=grid_s,
                grid_t=grid_t,
                scales=scales,
                u_coeffs=out.u[k],
                v_coeffs=out.v[k],
                convergence=tuple(out.logs[k]),
                n_iterations=out.n_iterations[k],
            ),
            ParticleCloud(w=w.T, y=out.y[k].T, z=out.z[k].T),
        )
        for k in range(len(scns))
    ]


def solve_auxiliary(
    scn: ScenarioSpec, clock: VarianceClock, cfg: SolverConfig, seed: int
) -> tuple[SolutionField, ParticleCloud]:
    """Solve the auxiliary Brownian equation on the clock's grid: the stack
    of one scenario."""
    return solve_auxiliary_stack([scn], clock, cfg, seed)[0]


def transfer_evaluate(field: SolutionField, t: float, x) -> tuple:
    """(Y, Z) at original time t and state x: Y from the clock-time field with
    linear blending between nodes, Z from the left node (dV-a.e. convention)."""
    s = field.clock.value(t)
    grid_s = field.grid_s
    if s < grid_s[0] - 1e-12 or s > grid_s[-1] + 1e-12:
        raise OutOfRange(f"clock value {s} outside [{grid_s[0]}, {grid_s[-1]}]")
    j = int(np.searchsorted(grid_s, s, side="right")) - 1
    j = max(0, min(j, field.n_steps))
    if j == field.n_steps or abs(s - grid_s[j]) <= 1e-12:
        y_val = field.eval_u(j, x)
    else:
        lam = (s - grid_s[j]) / (grid_s[j + 1] - grid_s[j])
        y_val = (1.0 - lam) * np.asarray(field.eval_u(j, x)) + lam * np.asarray(
            field.eval_u(j + 1, x)
        )
        if np.ndim(y_val) == 0:
            y_val = float(y_val)
    z_val = field.eval_v(min(j, field.n_steps - 1), x)
    return y_val, z_val


@dataclass(frozen=True)
class RepresentationValue:
    """Short-horizon solution value started from (y, z) at time t.

    value           cross-particle mean of the time-t values
    std_error       Monte Carlo standard error of that mean
    particle_sigma  spread of the time-t candidates regressed on the time-t
                    Brownian position (0 for a truly deterministic value, up
                    to regression noise)
    """

    value: float
    std_error: float
    particle_sigma: float
    n_particles: int
    n_iterations: int


def representation_solve_stack(
    scns,
    clock: VarianceClock,
    t: float,
    eps: float,
    y: float,
    z: float,
    cfg: SolverConfig,
    seed: int,
) -> list[RepresentationValue]:
    """Solve each scenario on [V_t, V_{t+eps}] with terminal
    y + z * (W_{V_{t+eps}} - W_{V_t}), as one stack on one shared draw
    (common random numbers).

    Regressions run on the Brownian increment from V_t (the Markov state of
    this problem), so the time-t node is degenerate and collapses to its
    mean.  Determinism of the time-t value is probed separately: the time-t
    candidates are regressed on the (random) Brownian position at V_t, whose
    fitted spread ``particle_sigma`` should be pure regression noise.
    """
    if not (0.0 <= t and eps > 0.0 and t + eps <= clock.T + 1e-12):
        raise ValueError("need 0 <= t < t + eps <= T")
    v_a = clock.value(t)
    v_b = clock.value(min(t + eps, clock.T))
    if v_b - v_a <= 1e-14:
        raise DegenerateInterval(f"variance clock does not move on [{t}, {t + eps}]")

    N = cfg.n_time
    grid_s = np.linspace(v_a, v_b, N + 1)
    grid_t_sub = np.asarray(clock.invert(grid_s))
    n = cfg.n_particles
    w0 = math.sqrt(v_a) * standard_normals(seed, (n,), "repr-start")

    def terminal(w_end):
        return [y + z * w_end] * len(scns)

    _, out = _solve_on_grid(
        [scn.generator for scn in scns], terminal, grid_s, grid_t_sub, cfg, seed, "repr-increments", x_start=w0
    )

    if v_a > 0:
        # slope/curvature probe: degree 2 keeps the pure-noise spread well
        # below the 3-standard-error gate while catching genuine dependence
        phi0 = _monomials(w0 / math.sqrt(v_a), 2)
        fitted = _fit(phi0, _gram(phi0, cfg.ridge), out.candidates) @ phi0
        sigmas = fitted.std(axis=1).tolist()
    else:
        sigmas = [0.0] * len(scns)
    return [
        RepresentationValue(
            value=float(np.mean(out.y[k, 0])),
            std_error=float(np.std(out.candidates[k]) / math.sqrt(n)),
            particle_sigma=sigmas[k],
            n_particles=n,
            n_iterations=out.n_iterations[k],
        )
        for k in range(len(scns))
    ]


def representation_solve(
    scn: ScenarioSpec,
    clock: VarianceClock,
    t: float,
    eps: float,
    y: float,
    z: float,
    cfg: SolverConfig,
    seed: int,
) -> RepresentationValue:
    """Solve on [V_t, V_{t+eps}] with terminal y + z * (W_{V_{t+eps}} - W_{V_t}):
    ``representation_solve_stack`` of one scenario."""
    return representation_solve_stack([scn], clock, t, eps, y, z, cfg, seed)[0]
