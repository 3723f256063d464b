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

Moment form.  The paths are fixed for a solve, so are the sufficient
statistics of every regression (Bender & Denk 2007).  Let phi_i be node i's
(W, n) basis block (W = degree + 1; 1 at the first node, whose state is 0),
G_i = phi_i phi_i^T + ridge I its normal matrix, and fit_i(r) = G_i^-1 phi_i r
the least-squares coefficients of a particle row r.  Each node's moments

    A_i = phi_i phi_i^T    C_i = phi_i phi_{i+1}^T    M_i = phi_i diag(dW_i) phi_i^T
    s_i = phi_i 1          q_i = phi_i dW_i

are built once per solve and kept as fit operators G_i^-1 A_i, G_i^-1 C_i and
G_i^-1 M_i, beside the fits of the solve's fixed particle rows: g(W_N) on the
last two nodes and, when a generator reads x, the states x_i on nodes i and
i - 1.  A generator is its first-order expansion at (x, y, z) = 0 plus a
remainder r(y) of its nonlinear terms, so scenario k's Y row at node i < N is

    Y_i = yc_i . phi_i + xc_i x_i + ds_i r(P_i)        (r = 0 for an affine f)

and a sweep runs on coefficients, for the K active scenarios at once:

    beta_i = fit_i(Y_{i+1}) - [G_i^-1 M_i rv - G_i^-1 s_i (q_i . rv) / n]
             fit_i(Y_{i+1}) = G_i^-1 C_i yc_{i+1} + xc_{i+1} fit_i(x_{i+1})
                              + fit_i(ds r(P_{i+1}))
             rv: the next node's Z coefficients read in this node's variable
    zc_i   = beta_i' (1 + ds (f_y + f_z)) + ds f_x          P_i = beta_i . phi_i
    vb_i   = G_i^-1 A_i zc_i + fit_i(ds r'(P_i) beta_i' . phi_i)
    yc_i   = beta_i + ds (f(0, 0, 0, law_i) e_0 + f_y beta_i + f_z vb_i)
    xc_i   = ds f_x
    u_i    = G_i^-1 A_i yc_i + xc_i fit_i(x_i) + fit_i(ds r(P_i))

with f(0, 0, 0, law) and the partials (f_x, f_y, f_z) from ``scenario``, and
every particle mean read off a coefficient row as c . s_i / n.  The first
node's fields are constants: its Z is the mean of the one-step value's slope.
Particle work is left where the result depends on the particles: a nonlinear
term evaluates P_i at the particles and fits its remainder rows (an affine
stack never does), and the representation candidates are built once, after
the last sweep.

Law features are frozen during a backward sweep and updated between sweeps
until the flow of laws is a fixed point.  The generators read the law only
through its means, so the stop test is the sup over nodes of the change in
E[Y_i], read off the sweep's means: equal to the sorted-sample W2 between
the two sweeps' Y rows for affine generators (the rows then differ by one
constant per node), a lower bound otherwise (|E X - E Y| <= W2(X, Y)).  The
first iterate is the flow of the f = 0, Z = 0 sweep, which has a closed
form: a projection with an intercept keeps the particle mean, so its
features are (mean x, mean g, 0) at every node.

One solve path serves every entry point: ``_solve_on_grid`` draws the
increments once, builds the moments and solves K scenarios on them as a
stack.  Each scenario keeps its own Picard stop: a converged scenario leaves
the stack and its coefficients stop changing.  A single solve is the stack of
one; the paired checks (comparison, converse, stability) solve both
scenarios of a pair as one stack, on common random numbers.
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
from .measures import LawFeatures
from .rng import standard_normals
from .scenario import (
    GeneratorStack,
    ScenarioSpec,
    eval_generator,
    generator_partials,
    generator_remainder,
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
    """The Brownian samples W of a solve at the grid times, as an
    n_particles x (N+1) view of the solver's time-major paths; the solution
    along them is ``SolutionField.on_paths(cloud.w)``."""

    w: np.ndarray  # n_particles x (N+1)

    @property
    def n_particles(self) -> int:
        return self.w.shape[0]


def _polyval(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x**k by Horner's rule, each coeffs[k] broadcasting
    against x: the multiply-adds of ``npoly.polyval``, so its values bit for
    bit, for any number of polynomials at once."""
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(coeffs[0])))
    out[...] = coeffs[-1]
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


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
        column per cell.  Every node is evaluated in one Horner pass, column
        i with node i's coefficients: the values of ``eval_u``/``eval_v``."""
        scaled = np.asarray(x, dtype=float) / self.scales
        return _polyval(scaled, self.u_coeffs.T), _polyval(scaled[:, :-1], self.v_coeffs.T)


def _regularized(a: np.ndarray, ridge: float) -> np.ndarray:
    """a + ridge I, refused when its condition estimate is above the limit."""
    gram = a + ridge * np.eye(len(a))
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise RegressionIllConditioned(
            f"normal-equations condition estimate {cond:.3e} exceeds {_COND_LIMIT:.0e}"
        )
    return gram


def _gram(phi: np.ndarray, ridge: float) -> np.ndarray:
    """Ridge-regularized normal matrix of a (degree+1, n) basis block,
    refused when its condition estimate is above the limit."""
    return _regularized(phi @ phi.T, ridge)


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


@dataclass(frozen=True, eq=False)
class _Node:
    """Node i's regression statistics, fixed for a solve.  With phi the
    node's (W, n) basis block and G its normal matrix, a fit on the node is
    G^-1 phi r for a particle row r; the next node's fields are absent at the
    last node."""

    gram: np.ndarray  # G
    fit_self: np.ndarray  # G^-1 phi phi^T: the fit of c . phi is fit_self @ c
    fit_next: np.ndarray | None  # G^-1 phi phi_{i+1}^T: the fit of c . phi_{i+1}
    fit_cv: np.ndarray | None  # G^-1 phi diag(dW_i) phi^T: the fit of (c . phi) dW_i
    sums: np.ndarray  # phi 1: the particle mean of c . phi is c @ sums / n
    dw_sums: np.ndarray | None  # phi dW_i


def _node_moments(powers: np.ndarray, phi_next, dw, ridge: float) -> _Node:
    """The moments of node i's basis block phi with itself, with node i+1's
    block and with the increments dW_i, as fits on node i.  ``powers`` holds
    the node's scaled state to the powers 0 .. 2 degree, phi being its first
    degree + 1 rows, so A and M are Hankel matrices of its sums: their (j, k)
    entries are the sums of x**(j+k) and of x**(j+k) dW_i."""
    width = len(powers) // 2 + 1
    hankel = np.add.outer(np.arange(width), np.arange(width))
    a = powers.sum(axis=1)[hankel]
    gram = _regularized(a, ridge)
    if phi_next is None:
        return _Node(gram, np.linalg.solve(gram, a), None, None, a[:, 0], None)
    m = (powers @ dw)[hankel]
    fits = np.linalg.solve(gram, np.hstack([a, powers[:width] @ phi_next.T, m]))
    fit_self, fit_next, fit_cv = np.split(fits, [width, width + len(phi_next)], axis=1)
    return _Node(gram, fit_self, fit_next, fit_cv, a[:, 0], m[:, 0])


@dataclass(frozen=True, eq=False)
class _Moments:
    """What the sweeps of one solve read: the grid, the (N+1, n) paths w and
    generator states x, the K terminal rows g, each node's statistics, and
    the fits of the fixed rows: g on the last node (g_fit) and the one before
    (g_fit_prev), and x_i on node i (x_fit) and on node i - 1 (x_fit_next,
    row i - 1), which are None when no generator reads x.  g_dw holds the
    sums g dW_{N-1}, the slope at the first node of a one-step grid."""

    grid_s: np.ndarray
    grid_t: np.ndarray
    scales: np.ndarray
    degree: int
    w: np.ndarray
    x_states: np.ndarray
    terminal: np.ndarray
    nodes: list
    g_fit: np.ndarray
    g_fit_prev: np.ndarray
    g_dw: np.ndarray
    x_fit: np.ndarray | None
    x_fit_next: np.ndarray | None

    @property
    def ds(self) -> np.ndarray:
        return np.diff(self.grid_s)


def _moments(grid_s, grid_t, w, dw, x_states, terminal, degree: int, ridge: float, with_x: bool) -> _Moments:
    """Every node's moments and fixed-row fits, from one basis block per node."""
    n_nodes = len(grid_s)
    scales = _basis_scales(grid_s)
    x_fit = np.zeros((n_nodes, degree + 1)) if with_x else None
    x_fit_next = np.zeros((n_nodes - 1, degree + 1)) if with_x else None
    nodes = [None] * n_nodes
    phi_next = None
    for i in range(n_nodes - 1, -1, -1):
        powers = _basis(w, scales, i, 2 * degree)
        phi = powers[: len(powers) // 2 + 1]
        last = phi_next is None
        node = nodes[i] = _node_moments(powers, phi_next, None if last else dw[i], ridge)
        if with_x:
            x_fit[i, : len(phi)] = _fit(phi, node.gram, x_states[i])
            if not last:
                x_fit_next[i, : len(phi)] = _fit(phi, node.gram, x_states[i + 1])
        if last:
            g_fit = _fit(phi, node.gram, terminal)
        elif i == n_nodes - 2:
            g_fit_prev = _fit(phi, node.gram, terminal)
        phi_next = phi
    return _Moments(
        grid_s=grid_s, grid_t=np.asarray(grid_t, dtype=float), scales=scales, degree=degree,
        w=w, x_states=x_states, terminal=terminal, nodes=nodes,
        g_fit=g_fit, g_fit_prev=g_fit_prev, g_dw=terminal @ dw[-1],
        x_fit=x_fit, x_fit_next=x_fit_next,
    )


@dataclass(eq=False)
class _Stack:
    """Coefficient arrays of a K-scenario solve, rewritten by every sweep of
    the scenarios still iterating.  Scenario k's fields are u[k] and v[k];
    its Y row at a node i < N is yc[k, i] . phi_i + xc[k, i] x_i, plus
    ds_i r(beta[k, i] . phi_i) when its generator has nonlinear terms (the
    row at the last node is g).  step0[k] is the constant of its first-node
    f ds (whose x part is xc[k, 0] x_0), and mean_y[k], mean_z[k] are the
    particle means of its Y and Z rows at every node: the law features of the
    next sweep, and the Picard stop reads the sup over nodes of the change in
    mean_y (equal to the sorted-sample W2 of the Y rows for affine
    generators, a lower bound otherwise)."""

    u: np.ndarray  # K x (N+1) x (degree+1)
    v: np.ndarray  # K x N x (degree+1)
    yc: np.ndarray  # K x (N+1) x (degree+1)
    xc: np.ndarray  # K x (N+1)
    beta: np.ndarray  # K x (N+1) x (degree+1)
    step0: np.ndarray  # K
    mean_y: np.ndarray  # K x (N+1)
    mean_z: np.ndarray
    logs: list
    n_iterations: list

    @classmethod
    def empty(cls, K: int, N: int, degree: int) -> "_Stack":
        return cls(
            u=np.zeros((K, N + 1, degree + 1)),
            v=np.zeros((K, N, degree + 1)),
            yc=np.zeros((K, N + 1, degree + 1)),
            xc=np.zeros((K, N + 1)),
            beta=np.zeros((K, N + 1, degree + 1)),
            step0=np.zeros(K),
            mean_y=np.zeros((K, N + 1)),
            mean_z=np.zeros((K, N + 1)),
            logs=[[] for _ in range(K)],
            n_iterations=[0] * K,
        )


def _backward_pass(gens, act, features, mom: _Moments, out: _Stack):
    """One backward sweep with frozen law features, in moment form, for the
    scenarios ``act`` (increasing indices into the ``GeneratorStack``
    ``gens``) of the stack ``out``, written in place.

    ``features`` holds the (N+1,) particle means of x and the (K, N+1) means
    of y and z per node.  Every node runs on the (K, W) coefficient rows of
    all scenarios in ``act`` at once; f enters through its value at
    (0, 0, 0, law) and its partials, evaluated for every node at once, and
    through the particle rows of its nonlinear remainder, if any.
    """
    N = len(mom.nodes) - 1
    n = mom.w.shape[1]
    K, W = len(act), mom.degree + 1
    gen = gens if K == len(gens) else gens[act]
    nonlinear = bool(gen.nonlinear_terms)
    ds_all = mom.ds
    law = LawFeatures(features.mean_x, features.mean_y[act], features.mean_z[act])
    f0 = eval_generator(gen, mom.grid_t, 0.0, 0.0, 0.0, law)
    f_x, f_y, f_z = (np.broadcast_to(d, (K, N + 1)) for d in generator_partials(gen, mom.grid_t, 0.0, 0.0, 0.0))

    u, yc, beta = (np.zeros((K, N + 1, W)) for _ in range(3))
    v = np.zeros((K, N, W))
    xc = np.zeros((K, N + 1))
    mean_y, mean_z = np.empty((K, N + 1)), np.empty((K, N + 1))
    u[:, N] = mom.g_fit[act]
    mean_y[:, N] = features.mean_y[act, N]  # the mean of g, set by the first iterate
    target = mom.g_fit_prev[act]  # the fit on node N-1 of Y_N = g
    carry = None  # the nonlinear-remainder rows of the next node's Y
    for i in range(N - 1, -1, -1):
        node = mom.nodes[i]
        width = len(node.sums)
        ds = ds_all[i]
        if nonlinear:
            phi = _basis(mom.w, mom.scales, i, mom.degree)
            if carry is not None:
                target = target + _fit(phi, node.gram, carry)
        b = target
        if i + 1 < N:
            # martingale control variate: subtracting z(W_i) dW_i leaves the
            # conditional expectation unchanged and shrinks the regression
            # residual from O(sqrt(ds)) to O((Z - z_hat) sqrt(ds)); centering
            # keeps the particle mean of the fit exactly equal to the target's.
            # z(W_i) is the next node's Z field, read in this node's variable
            rv = _rescaled(v[:, i + 1, :width], mom.scales[i] / mom.scales[i + 1])
            b = b - (rv @ node.fit_cv.T - np.outer(rv @ node.dw_sums / n, node.fit_self[:, 0]))

        # the control field is the derivative of the full one-step value
        # P + f ds; the first-order generator correction keeps Z accurate
        # to O(ds^2) instead of O(ds), and is 0 for a state-free generator
        if i > 0:
            dz = np.zeros((K, width))
            dz[:, :-1] = _derivative(b, mom.scales[i])
        elif N > 1:
            # slope of w -> E[Y_{i+1} | W_i = w] at the collapsed node:
            # smoothing the next field gives E[dY_{i+1}/dw]
            dz = mean_z[:, 1:2].copy()
        else:
            dz = ((mom.g_dw[act] - b[:, 0] * node.dw_sums[0]) / (n * ds))[:, None]
        zc = dz
        if not gen.is_state_free:
            zc = dz + ds * (f_y[:, i, None] + f_z[:, i, None]) * dz
            zc[:, 0] += ds * f_x[:, i]
        # the first node's Z is the particle mean of its (constant) field
        vb = zc @ node.fit_self.T if i > 0 else zc
        if nonlinear:
            r, dr = generator_remainder(gen, mom.grid_t[i], b @ phi)
            z_rows = ds * dr * (dz @ phi)
            vb = vb + (_fit(phi, node.gram, z_rows) if i > 0 else z_rows.mean(axis=1, keepdims=True))

        step = np.zeros((K, width))
        step[:, 0] = f0[:, i]
        if not gen.is_state_free:
            step += f_y[:, i, None] * b + f_z[:, i, None] * vb
        step *= ds
        y_c = b + step
        fitted = y_c @ node.fit_self.T
        mean = y_c @ node.sums / n
        if mom.x_fit is not None:
            xc[:, i] = ds * f_x[:, i]
            fitted += xc[:, i, None] * mom.x_fit[i, :width]
            mean += xc[:, i] * features.mean_x[i]
        if nonlinear:
            carry = ds * r
            fitted += _fit(phi, node.gram, carry)
            mean += carry.mean(axis=1)
        u[:, i, :width], v[:, i, :width], yc[:, i, :width], beta[:, i, :width] = fitted, vb, y_c, b
        mean_y[:, i] = mean
        mean_z[:, i] = vb @ node.sums / n
        if i > 0:
            prev = mom.nodes[i - 1]
            target = y_c @ prev.fit_next.T  # the fit on node i-1 of yc . phi_i
            if mom.x_fit is not None:
                target += xc[:, i, None] * mom.x_fit_next[i - 1, : len(prev.sums)]

    mean_z[:, N] = mean_z[:, N - 1]  # Z_N is the last cell's field
    out.step0[act] = step[:, 0] + (carry[:, 0] if nonlinear else 0.0)
    out.u[act], out.v[act], out.yc[act], out.xc[act], out.beta[act] = u, v, yc, xc, beta
    out.mean_y[act], out.mean_z[act] = mean_y, mean_z


def _y_row(mom: _Moments, spec, out: _Stack, k: int, i: int) -> np.ndarray:
    """Scenario k's Y row at a node i < N, built from the coefficients the
    last sweep left, with the generator ``spec`` for its nonlinear remainder."""
    scaled = mom.w[i] / mom.scales[i]
    y = _polyval(scaled, out.yc[k, i])
    if mom.x_fit is not None:
        y += out.xc[k, i] * mom.x_states[i]
    if spec.nonlinear_terms:
        r, _ = generator_remainder(spec, mom.grid_t[i], _polyval(scaled, out.beta[k, i]))
        y += mom.ds[i] * r
    return y


def _picard_solve(gens, mom: _Moments, cfg) -> _Stack:
    """Picard iteration on the flow of laws for K generators on the paths of
    ``mom``.  Each scenario keeps its own stop: one that has converged leaves
    the stack, and its coefficients stop changing."""
    K = len(gens)
    N = len(mom.nodes) - 1
    stack = GeneratorStack(gens)
    out = _Stack.empty(K, N, cfg.basis_degree)
    act = np.arange(K)
    # the first iterate is the f = 0, Z = 0 sweep, whose projections keep the
    # particle mean of g at every node; each later sweep reads the particle
    # means of its predecessor, written in place
    feats = LawFeatures(
        mean_x=mom.x_states.mean(axis=1),
        mean_y=np.repeat(mom.terminal.mean(axis=1)[:, None], N + 1, axis=1),
        mean_z=np.zeros((K, N + 1)),
    )
    for sweep in range(1, cfg.picard_max_iter + 1):
        _backward_pass(stack, act, feats, mom, out)
        still = []
        for k in act.tolist():
            out.n_iterations[k] = sweep
            if not all(np.isfinite(a[k]).all() for a in (out.u, out.v, out.yc, out.mean_y)):
                raise NonFiniteSolution(f"backward sweep {sweep} left coefficients or means non-finite")
            log = out.logs[k]
            if gens[k].is_law_free:
                log.append(0.0)
                continue
            if sweep > 1:
                # feats holds the previous sweep's means
                change = float(np.abs(out.mean_y[k] - feats.mean_y[k]).max())
                log.append(change)
                if change < cfg.picard_tol:
                    continue
            feats.mean_y[k] = out.mean_y[k]
            feats.mean_z[k] = out.mean_z[k]
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
    the paths from 0 and their moments, and run the Picard iteration of the
    K generators on them.  ``terminal(w_end)`` gives the K rows of terminal
    values at the last node's state; the generators read ``x_start + w`` in
    their state slot (``w`` itself when None).  Returns (moments, stack)."""
    dw = _brownian_increments(grid_s, cfg.n_particles, seed, tag)
    w = _paths(dw)
    terminal_values = np.array(terminal(w[-1]), dtype=float)
    x_states = w if x_start is None else x_start + w
    with_x = any(gen.c1 != 0.0 for gen in gens)
    # an overflowing solve is reported once, by the finiteness checks after
    # each sweep, not by numpy warnings along the way
    with np.errstate(over="ignore", invalid="ignore"):
        mom = _moments(grid_s, grid_t, w, dw, x_states, terminal_values, cfg.basis_degree, cfg.ridge, with_x)
        del dw  # the sweeps read the moments, not the increments
        return mom, _picard_solve(gens, mom, cfg)


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

    mom, out = _solve_on_grid([scn.generator for scn in scns], terminal, grid_s, grid_t, cfg, seed, "solver-increments")
    cloud = ParticleCloud(w=mom.w.T)
    return [
        (
            SolutionField(
                clock=clock,
                grid_s=grid_s,
                grid_t=grid_t,
                scales=mom.scales,
                u_coeffs=out.u[k],
                v_coeffs=out.v[k],
                convergence=tuple(out.logs[k]),
                n_iterations=out.n_iterations[k],
            ),
            cloud,
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


def _candidates(gens, mom: _Moments, out: _Stack) -> np.ndarray:
    """(K, n) unprojected first-node values Y_1 + f ds of every scenario; they
    have the same particle mean as the first node's Y."""
    y1 = np.array([_y_row(mom, gen, out, k, 1) for k, gen in enumerate(gens)])
    return y1 + out.step0[:, None] + out.xc[:, :1] * mom.x_states[0]


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

    gens = [scn.generator for scn in scns]
    mom, out = _solve_on_grid(gens, terminal, grid_s, grid_t_sub, cfg, seed, "repr-increments", x_start=w0)
    candidates = _candidates(gens, mom, out)

    if v_a > 0:
        # slope/curvature probe: degree 2 keeps the pure-noise spread well
        # below the 3-standard-error gate while catching genuine dependence
        phi0 = _monomials(w0 / math.sqrt(v_a), 2)
        fitted = _fit(phi0, _gram(phi0, cfg.ridge), candidates) @ phi0
        sigmas = fitted.std(axis=1).tolist()
    else:
        sigmas = [0.0] * len(scns)
    return [
        RepresentationValue(
            value=float(out.mean_y[k, 0]),
            std_error=float(np.std(candidates[k]) / math.sqrt(n)),
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
