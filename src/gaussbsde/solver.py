"""Backward least-squares Monte Carlo solver for the auxiliary Brownian
equation on [0, V_T], in one backward sweep that solves each node's law in
place, and transfer of the solution back through the variance clock.

Scheme (explicit, one regression sweep per solve):

    Y_N = g(W_N, law_N)
    for i = N-1 .. 0:
        P_i   = regression of [Y_{i+1} - martingale control variate]
                on a polynomial basis of W_i / sqrt(s_i)
        Z_i   = regression of the spatial derivative of the one-step value
                P_i + f ds
        Y_i   = P_i + f(U(s_i), W_i, P_i, Z_i, law_i) * ds_i

Moment form.  The paths are fixed for a solve, so are the sufficient
statistics of every regression (Bender & Denk 2007).  Let phi_i be node i's
(W, n) basis block (W = degree + 1; 1 at the first node, whose state is 0),
G_i = phi_i phi_i^T + 1e-8 I its ridge-regularized normal matrix, and
fit_i(r) = G_i^-1 phi_i r the least-squares coefficients of a particle row
r.  Each node's moments

    A_i = phi_i phi_i^T    C_i = phi_i phi_{i+1}^T    M_i = phi_i diag(dW_i) phi_i^T
    s_i = phi_i 1          q_i = phi_i dW_i

are built once per solve, from one BLAS product per node: A_i and M_i are
Hankel matrices of the sums of x_i**k and x_i**k dW_i, k <= 2 degree, and
the product of the node's powers with [dW_i; phi_{i+1}] gives those sums and
C_i at once.  Every G_i is then checked and every node's normal equations
solved in one batched call, and the moments are kept as fit operators
G_i^-1 A_i, G_i^-1 C_i and G_i^-1 M_i, beside the fits of the solve's one
fixed particle row, g(W_N), on the last two nodes.  A generator is its first-order expansion at
(x, y, z) = 0 plus a remainder r(y) of its nonlinear terms.  Its state is the
node's Brownian state, x_i = W_i = sqrt(s_i - s_0) phi_i[1] (0 at the first
node), so the state term ds f_x x_i is a multiple of the basis' linear term,
and scenario k's Y row at node i < N is

    Y_i = yc_i . phi_i + ds_i r(P_i)        (r = 0 for an affine f)

and the sweep runs on coefficients, for the K scenarios at once:

    beta_i = fit_i(Y_{i+1}) - [G_i^-1 M_i rv - G_i^-1 s_i (q_i . rv) / n]
             fit_i(Y_{i+1}) = G_i^-1 C_i yc_{i+1} + fit_i(ds r(P_{i+1}))
             rv: the next node's Z coefficients read in this node's variable
    zc_i   = beta_i' (1 + ds (f_y + f_z)) + ds f_x          P_i = beta_i . phi_i
    vb_i   = G_i^-1 A_i zc_i + fit_i(ds r'(P_i) beta_i' . phi_i)
    yc_i   = beta_i + ds (f(0, 0, 0, law_i) e_0 + f_y beta_i + f_z vb_i
                          + f_x sqrt(s_i - s_0) e_1)
             (law_i: the node's means, solved in place as below)
    u_i    = G_i^-1 A_i yc_i + fit_i(ds r(P_i))

with f(0, 0, 0, law) and the partials (f_x, f_y, f_z) from ``scenario``, and
every particle mean read off a coefficient row as c . s_i / n.  The first
node's fields are constants: its Z is the mean of the one-step value's slope.
Particle work is left where the result depends on the particles: a nonlinear
term evaluates P_i at the particles and fits its remainder rows (an affine
stack never does), and the representation candidates are built once, after
the sweep.

The law in place.  The generators read the law only through the node's own
means: f(0, 0, 0, law_i) is its value at the law (mean x_i, 0, 0) plus
rho_i (kappa_y mean_y_i + kappa_z mean_z_i), with the law partials rho kappa
from ``scenario``.  mean x_i is the paths' mean, and mean_z_i = vb_i . s_i / n
is known before the Y step.  mean_y_i enters Y_i only through the constant
ds_i rho_i kappa_y mean_y_i, so with m_i the mean of Y_i without that term

    mean_y_i = m_i / (1 - ds_i rho_i kappa_y)

and the term is added to yc_i[0] and to u_i through G_i^-1 A_i e_0.  Y_{i+1}
is at the fixed point of the flow of laws when node i is reached, so the one
sweep returns that fixed point exactly: the limit of the Picard iteration on
laws through which the equation is proved well posed.  The step guard
(max ds L_f <= 0.5, and L_f counts |rho kappa_y|) keeps the divisor at 0.5 or
more; ``_solve_on_grid``, which skips the guard, refuses a node where
ds rho kappa_y reaches 1 (``StepTooCoarse``).

One solve path serves every entry point: ``_solve_on_grid`` draws the
increments once, builds the moments and solves K scenarios on them as a
stack, in one sweep.  A single solve is the stack of one; the paired checks
(comparison, converse, stability) solve both scenarios of a pair as one
stack, on common random numbers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .drivers import VarianceClock
from .errors import (
    DegenerateInterval,
    NonFiniteSolution,
    OutOfRange,
    RegressionIllConditioned,
    StepTooCoarse,
    UnsupportedScenario,
)
from .measures import LawFeatures
from .rng import standard_normals
from .scenario import (
    ScenarioSpec,
    eval_generator,
    generator_law_partials,
    generator_partials,
    generator_remainder,
    lipschitz_audit,
    terminal_on_paths,
)

_COND_LIMIT = 1e12
_MAX_STEP_LIPSCHITZ = 0.5
_RIDGE = 1e-8
_PARTICLE_BLOCK = 8192


@dataclass(frozen=True)
class SolverConfig:
    n_time: int = 64
    n_particles: int = 20000
    basis_degree: int = 4

    def __post_init__(self):
        if self.n_time < 2:
            raise ValueError("n_time must be at least 2")
        if self.basis_degree < 1:  # the linear term holds the generator's state
            raise ValueError("basis_degree must be at least 1")
        if self.n_particles < 10 * (self.basis_degree + 1):
            raise ValueError("n_particles must be at least 10 * (basis_degree + 1)")

    def payload(self) -> dict:
        return asdict(self)


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
    against x, for any number of polynomials at once: numpy's ``polyval`` bit
    for bit, and the one evaluator of a solution field."""
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
    gram_cond_max: float  # the largest condition estimate of the solve's normal matrices
    step_lipschitz: float  # max ds * L_f: the margin to the step guard's 0.5
    n_iterations: ClassVar[int] = 1  # backward sweeps run: a solve runs one

    @property
    def n_steps(self) -> int:
        return len(self.grid_s) - 1

    def on_paths(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Y, Z) on an (n, N+1) array of states at the grid nodes; Z has one
        column per cell.  Every node is evaluated in one Horner pass, column
        i with node i's coefficients, as ``transfer_evaluate`` reads a node."""
        scaled = np.asarray(x, dtype=float) / self.scales
        return _polyval(scaled, self.u_coeffs.T), _polyval(scaled[:, :-1], self.v_coeffs.T)


def _regularized(a: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """(a + ridge I, its condition estimates) for one matrix or a stack of
    them, refused when an estimate is above the limit.  The message quotes
    the failing matrix of highest index: the first a backward sweep meets."""
    gram = a + ridge * np.eye(a.shape[-1])
    cond = np.linalg.cond(gram)
    bad = ~(cond <= _COND_LIMIT)  # NaN fails too
    if bad.any():
        raise RegressionIllConditioned(
            f"normal-equations condition estimate {np.asarray(cond)[bad][-1]:.3e} exceeds {_COND_LIMIT:.0e}"
        )
    return gram, cond


def _fit(phi: np.ndarray, gram: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of each target row on the block phi: one
    (degree+1, K) right-hand side for K rows, returned as (K, degree+1)
    (a 1-D target gives 1-D coefficients)."""
    return np.linalg.solve(gram, phi @ targets.T).T


def _basis_scales(grid_s) -> np.ndarray:
    """Standard deviation of the regression state per node (1 where degenerate)."""
    spread = np.asarray(grid_s, dtype=float) - grid_s[0]
    return np.where(spread > 0, np.sqrt(np.maximum(spread, 0.0)), 1.0)


def _basis(w: np.ndarray, scales: np.ndarray, i: int, degree: int) -> np.ndarray:
    """(degree+1, n) block whose row k is the scaled state at node i to the
    power k.  The grid increases strictly, so node 0 is the only node whose
    state is identically zero; it gets the constant alone."""
    phi = np.ones((degree + 1 if i > 0 else 1, w.shape[1]))
    if i > 0:
        np.divide(w[i], scales[i], out=phi[1])
        for k in range(2, degree + 1):
            np.multiply(phi[k - 1], phi[1], out=phi[k])
    return phi


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


@dataclass(frozen=True, eq=False)
class _Moments:
    """What the sweeps of one solve read: the grid, the (N+1, n) paths w
    (the generators' states), the K terminal rows g, each node's statistics,
    and the fits of g on the last node (g_fit) and the one before
    (g_fit_prev).  g_dw holds the sums g dW_{N-1}, the slope at the first
    node of a one-step grid; gram_cond_max the largest condition estimate of
    the nodes' normal matrices."""

    grid_s: np.ndarray
    grid_t: np.ndarray
    scales: np.ndarray
    degree: int
    w: np.ndarray
    terminal: np.ndarray
    nodes: list
    g_fit: np.ndarray
    g_fit_prev: np.ndarray
    g_dw: np.ndarray
    gram_cond_max: float

    @property
    def ds(self) -> np.ndarray:
        return np.diff(self.grid_s)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T for two blocks of particle rows, summed over blocks of
    ``_PARTICLE_BLOCK`` particles: one OpenBLAS product of a few rows runs
    2-3 times slower from about 19000 particles on."""
    out = a[:, :_PARTICLE_BLOCK] @ b[:, :_PARTICLE_BLOCK].T
    for start in range(_PARTICLE_BLOCK, a.shape[1], _PARTICLE_BLOCK):
        out += a[:, start : start + _PARTICLE_BLOCK] @ b[:, start : start + _PARTICLE_BLOCK].T
    return out


def _moments(grid_s, grid_t, w, dw, terminal, degree: int) -> _Moments:
    """Every node's moments and terminal fits: one product per node, then one
    batched condition guard and one batched solve over the nodes.

    Node i > 0 fills a (2 degree + 2, n) block: the increment dW_{i-1} into
    the node, then its scaled state x_i to the powers 0 .. 2 degree (the
    first degree + 1 of them are phi_i).  Walking back with two blocks,
    block_i[1:] @ block_{i+1}[:W + 1].T holds in column 0 the sums of
    x_i**k dW_i and in column 1 the sums of x_i**k, the Hankel sums of M_i
    and A_i, and C_i in columns 1 .. W of its first W rows.  The last node
    has no C or M, and the first node, whose basis is the constant, reads
    its moments off node 1's sums."""
    N = len(grid_s) - 1
    W, K, n = degree + 1, len(terminal), w.shape[1]
    scales = _basis_scales(grid_s)
    hankel = np.add.outer(np.arange(W), np.arange(W))
    # nodes 1 .. N as rows 0 .. N-1; the right-hand sides [A | C | M | phi g]
    # hold phi g, the terminal rows' moments, on the last two nodes only
    sums, dw_sums = np.empty((N, 2 * W - 1)), np.zeros((N, 2 * W - 1))
    rhs = np.zeros((N, W, 3 * W + K))
    block, following = np.empty((2 * W, n)), np.empty((2 * W, n))
    for i in range(N, 0, -1):
        block[0] = dw[i - 1]
        block[1] = 1.0
        np.divide(w[i], scales[i], out=block[2])
        for k in range(3, 2 * W):
            np.multiply(block[k - 1], block[2], out=block[k])
        j = i - 1
        if i == N:
            sums[j] = block[1:].sum(axis=1)
            terminal_moments = _product(block[: W + 1], terminal)
            g_dw = terminal_moments[0]  # the sums g dW_{N-1}
            rhs[j, :, 3 * W :] = terminal_moments[1:]
        else:
            prod = _product(block[1:], following[: W + 1])
            dw_sums[j], sums[j] = prod[:, 0], prod[:, 1]
            rhs[j, :, W : 2 * W] = prod[:W, 1:]
            if i == N - 1:
                rhs[j, :, 3 * W :] = _product(block[1 : W + 1], terminal)
        block, following = following, block
    rhs[:, :, :W] = sums[:, hankel]
    rhs[:, :, 2 * W : 3 * W] = dw_sums[:, hankel]
    grams, cond = _regularized(rhs[:, :, :W], _RIDGE)
    fits = np.linalg.solve(grams, rhs)

    # the first node's basis is the constant: A_0 = n, C_0 holds node 1's
    # sums of its basis and M_0 the sum of dW_0; its 1 x 1 normal matrix has
    # condition 1
    a0, m0 = np.array([float(n)]), np.array([dw[0].sum()])
    gram0 = np.array([[n + _RIDGE]])
    fit0 = np.linalg.solve(gram0, np.concatenate([a0, sums[0, :W], m0, terminal.sum(axis=1)])[None, :])
    nodes = [_Node(gram0, fit0[:, :1], fit0[:, 1 : W + 1], fit0[:, W + 1 : W + 2], a0, m0)]
    for j in range(N):
        last = j == N - 1
        nodes.append(
            _Node(
                gram=grams[j],
                fit_self=fits[j, :, :W],
                fit_next=None if last else fits[j, :, W : 2 * W],
                fit_cv=None if last else fits[j, :, 2 * W : 3 * W],
                sums=sums[j, :W],
                dw_sums=None if last else dw_sums[j, :W],
            )
        )
    return _Moments(
        grid_s=grid_s, grid_t=np.asarray(grid_t, dtype=float), scales=scales, degree=degree,
        w=w, terminal=terminal, nodes=nodes,
        g_fit=fits[-1, :, 3 * W :].T,
        g_fit_prev=fits[-2, :, 3 * W :].T if N > 1 else fit0[:, W + 2 :].T,
        g_dw=g_dw, gram_cond_max=float(cond.max()),
    )


@dataclass(frozen=True, eq=False)
class _Stack:
    """Coefficient arrays of a K-scenario solve.  Scenario k's fields are
    u[k] and v[k]; its Y row at a node i < N is yc[k, i] . phi_i, plus
    ds_i r(beta[k, i] . phi_i) when its generator has nonlinear terms (the
    row at the last node is g).  step0[k] is the constant of its first-node
    f ds, and mean_y[k], mean_z[k] are the particle means of its Y and Z rows
    at every node: the means of its law."""

    u: np.ndarray  # K x (N+1) x (degree+1)
    v: np.ndarray  # K x N x (degree+1)
    yc: np.ndarray  # K x (N+1) x (degree+1)
    beta: np.ndarray  # K x (N+1) x (degree+1)
    step0: np.ndarray  # K
    mean_y: np.ndarray  # K x (N+1)
    mean_z: np.ndarray


def _backward_pass(gens, mom: _Moments) -> _Stack:
    """The backward sweep of the generators ``gens`` in moment form, with
    each node's law solved in place.

    Every node runs on the (K, W) coefficient rows of all K scenarios at
    once; f enters through its value at (0, 0, 0) and the law (mean x, 0, 0),
    its partials in (x, y, z) and in the means of y and z, each evaluated
    once per scenario for every node at once, and through the particle rows
    of its nonlinear remainder, if any.  The state x_i = W_i is scales[i]
    times the basis' linear term, so the state term ds f_x x_i is a
    coefficient of the Y row.
    """
    N = len(mom.nodes) - 1
    n = mom.w.shape[1]
    K, W = len(gens), mom.degree + 1
    nonlinear = any(g.c4 != 0.0 for g in gens)
    with_x = any(g.c1 != 0.0 for g in gens)
    with_law = not all(g.is_law_free for g in gens)
    ds_all = mom.ds
    base = LawFeatures(mean_x=mom.w.mean(axis=1)) if with_law else LawFeatures()
    f0, f_x, f_y, f_z, law_y, law_z = (np.empty((K, N + 1)) for _ in range(6))
    for j, g in enumerate(gens):
        f0[j] = eval_generator(g, mom.grid_t, 0.0, 0.0, 0.0, base)
        f_x[j], f_y[j], f_z[j] = generator_partials(g, mom.grid_t, 0.0, 0.0, 0.0)
        law_y[j], law_z[j] = generator_law_partials(g, mom.grid_t)
    implicit = ds_all * law_y[:, :-1]  # ds rho kappa_y: a node's weight on its own mean Y
    if not (implicit < 1.0).all():
        raise StepTooCoarse(
            f"a node's law needs ds * rho * kappa_y < 1; got {implicit.max():.3g} (refine the grid)"
        )

    u, yc, beta = (np.zeros((K, N + 1, W)) for _ in range(3))
    v = np.zeros((K, N, W))
    mean_y, mean_z = np.empty((K, N + 1)), np.empty((K, N + 1))
    u[:, N] = mom.g_fit
    mean_y[:, N] = mom.terminal.mean(axis=1)
    target = mom.g_fit_prev  # the fit on node N-1 of Y_N = g
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
            dz = ((mom.g_dw - b[:, 0] * node.dw_sums[0]) / (n * ds))[:, None]
        zc = dz + ds * (f_y[:, i, None] + f_z[:, i, None]) * dz
        zc[:, 0] += ds * f_x[:, i]
        # the first node's Z is the particle mean of its (constant) field
        vb = zc @ node.fit_self.T if i > 0 else zc
        if nonlinear:
            r, dr = np.empty((K, n)), np.empty((K, n))
            for j, (g, p) in enumerate(zip(gens, b @ phi)):
                r[j], dr[j] = generator_remainder(g, mom.grid_t[i], p)
            z_rows = ds * dr * (dz @ phi)
            vb = vb + (_fit(phi, node.gram, z_rows) if i > 0 else z_rows.mean(axis=1, keepdims=True))

        mean_z[:, i] = vb @ node.sums / n

        step = np.zeros((K, width))
        step[:, 0] = f0[:, i]
        if with_law:
            step[:, 0] += law_z[:, i] * mean_z[:, i]
        step += f_y[:, i, None] * b + f_z[:, i, None] * vb
        step *= ds
        y_c = b + step
        if with_x and i > 0:  # the first node's state is 0
            y_c[:, 1] += ds * f_x[:, i] * mom.scales[i]
        fitted = y_c @ node.fit_self.T
        mean = y_c @ node.sums / n
        if nonlinear:
            carry = ds * r
            fitted += _fit(phi, node.gram, carry)
            mean += carry.mean(axis=1)
        if with_law:
            # the node's own mean Y enters its Y row as the constant
            # ds rho kappa_y mean_y, which adds itself to the row's mean
            mean_y[:, i] = mean / (1.0 - implicit[:, i])
            own = implicit[:, i] * mean_y[:, i]
            step[:, 0] += own
            y_c[:, 0] += own
            fitted += own[:, None] * node.fit_self[:, 0]
        else:
            mean_y[:, i] = mean
        u[:, i, :width], v[:, i, :width], yc[:, i, :width], beta[:, i, :width] = fitted, vb, y_c, b
        if i > 0:
            prev = mom.nodes[i - 1]
            target = y_c @ prev.fit_next.T  # the fit on node i-1 of yc . phi_i

    mean_z[:, N] = mean_z[:, N - 1]  # Z_N is the last cell's field
    if not all(np.isfinite(a).all() for a in (u, v, yc, mean_y)):
        raise NonFiniteSolution("the backward sweep left coefficients or means non-finite")
    step0 = step[:, 0] + (carry[:, 0] if nonlinear else 0.0)
    return _Stack(u=u, v=v, yc=yc, beta=beta, step0=step0, mean_y=mean_y, mean_z=mean_z)


def _y_row(mom: _Moments, spec, out: _Stack, k: int, i: int) -> np.ndarray:
    """Scenario k's Y row at a node i < N, built from the coefficients of the
    sweep, with the generator ``spec`` for its nonlinear remainder."""
    scaled = mom.w[i] / mom.scales[i]
    y = _polyval(scaled, out.yc[k, i])
    if spec.c4 != 0.0:
        r, _ = generator_remainder(spec, mom.grid_t[i], _polyval(scaled, out.beta[k, i]))
        y += mom.ds[i] * r
    return y


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


def _check_step(scns, grid_s) -> np.ndarray:
    """Refuse a grid on which the explicit scheme is unstable: every scenario
    needs max ds * L_f <= 0.5.  Returns each scenario's max ds * L_f."""
    margins = np.diff(grid_s).max() * np.array([scn.generator.lipschitz for scn in scns])
    worst = margins.max()
    if worst > _MAX_STEP_LIPSCHITZ:
        raise StepTooCoarse(
            f"explicit scheme needs max step * L_f <= {_MAX_STEP_LIPSCHITZ}; got {worst:.3g} (refine the grid)"
        )
    return margins


def _solve_on_grid(gens, terminal, grid_s, grid_t, cfg, seed, tag):
    """The one solve path: draw the increments of every particle once, build
    the paths from 0 and their moments, and run the one backward sweep of
    the K generators on them.  ``terminal(w_end)`` gives the K rows of
    terminal values at the last node's state; the generators read ``w`` in
    their state slot.  Returns (moments, stack)."""
    dw = _brownian_increments(grid_s, cfg.n_particles, seed, tag)
    w = _paths(dw)
    terminal_values = np.array(terminal(w[-1]), dtype=float)
    # an overflowing solve is reported once, by the finiteness check after
    # the sweep, not by numpy warnings along the way
    with np.errstate(over="ignore", invalid="ignore"):
        mom = _moments(grid_s, grid_t, w, dw, terminal_values, cfg.basis_degree)
        del dw  # the sweep reads the moments, not the increments
        return mom, _backward_pass(gens, mom)


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
    for scn in scns:  # probes the symbolic constants the step guard reads
        lipschitz_audit(scn, seed=seed)
    margins = _check_step(scns, grid_s)

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
                gram_cond_max=mom.gram_cond_max,
                step_lipschitz=float(margins[k]),
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
    """(Y, Z) at original time t and state x (floats for a scalar x): Y blended
    linearly between nodes, Z from the left node (dV-a.e. convention)."""
    s = field.clock.value(t)
    grid_s = field.grid_s
    if s < grid_s[0] - 1e-12 or s > grid_s[-1] + 1e-12:
        raise OutOfRange(f"clock value {s} outside [{grid_s[0]}, {grid_s[-1]}]")
    j = int(np.searchsorted(grid_s, s, side="right")) - 1
    j = max(0, min(j, field.n_steps))
    x = np.asarray(x, dtype=float)
    if j == field.n_steps or abs(s - grid_s[j]) <= 1e-12:
        y_val = _polyval(x / field.scales[j], field.u_coeffs[j])
    else:
        lam = (s - grid_s[j]) / (grid_s[j + 1] - grid_s[j])
        y_j, y_next = (_polyval(x / field.scales[i], field.u_coeffs[i]) for i in (j, j + 1))
        y_val = (1.0 - lam) * y_j + lam * y_next
    i = min(j, field.n_steps - 1)  # at T, the last cell's field
    z_val = _polyval(x / field.scales[i], field.v_coeffs[i])
    return (float(y_val), float(z_val)) if x.ndim == 0 else (y_val, z_val)


@dataclass(frozen=True)
class RepresentationValue:
    """Short-horizon solution value started from (y, z) at time t.

    value      cross-particle mean of the time-t values
    std_error  Monte Carlo standard error of that mean
    """

    value: float
    std_error: float
    n_particles: int
    n_iterations: ClassVar[int] = 1  # backward sweeps run: a solve runs one


def _candidates(gens, mom: _Moments, out: _Stack) -> np.ndarray:
    """(K, n) unprojected first-node values Y_1 + f ds of every scenario; they
    have the same particle mean as the first node's Y."""
    y1 = np.array([_y_row(mom, gen, out, k, 1) for k, gen in enumerate(gens)])
    return y1 + out.step0[:, None]


def _require_x_free(scn: ScenarioSpec):
    if scn.generator.c1 != 0.0:
        raise UnsupportedScenario("representation solves need a state-free generator (c1 = 0)")


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

    Every particle starts from the same (y, z) at time t, and regressions
    run on the Brownian increment from V_t (the Markov state of this
    problem), so the time-t node is degenerate and collapses to its mean: the
    time-t value is deterministic by construction.  The generators must not
    read the state (c1 = 0; ``UnsupportedScenario`` otherwise).
    """
    for scn in scns:
        _require_x_free(scn)
    if not (0.0 <= t and eps > 0.0 and t + eps <= clock.T + 1e-12):
        raise ValueError("need 0 <= t < t + eps <= T")
    v_a = clock.value(t)
    v_b = clock.value(min(t + eps, clock.T))
    if v_b - v_a <= 1e-14:
        raise DegenerateInterval(f"variance clock does not move on [{t}, {t + eps}]")

    N = cfg.n_time
    grid_s = np.linspace(v_a, v_b, N + 1)
    _check_step(scns, grid_s)
    grid_t_sub = np.asarray(clock.invert(grid_s))

    def terminal(w_end):
        return [y + z * w_end] * len(scns)

    gens = [scn.generator for scn in scns]
    mom, out = _solve_on_grid(gens, terminal, grid_s, grid_t_sub, cfg, seed, "repr-increments")
    candidates = _candidates(gens, mom, out)
    n = cfg.n_particles
    return [
        RepresentationValue(
            value=float(out.mean_y[k, 0]),
            std_error=float(np.std(candidates[k]) / math.sqrt(n)),
            n_particles=n,
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
