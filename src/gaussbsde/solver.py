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
(W, n) basis block (W = degree + 1), G_i = phi_i phi_i^T + 1e-8 I its
ridge-regularized normal matrix, and fit_i(r) = G_i^-1 phi_i r the
least-squares coefficients of a particle row r.  Each node's moments

    A_i = phi_i phi_i^T    C_i = phi_i phi_{i+1}^T    M_i = phi_i diag(dW_i) phi_i^T
    s_i = phi_i 1          q_i = phi_i dW_i

are built once per solve, from two BLAS products per node: A_i and M_i are
Hankel matrices of the sums of x_i**k and x_i**k dW_i, k <= 2 degree, which
phi_i [x_i**degree; dW_i; x_i**degree dW_i]^T gives past degree and
phi_i phi_{i+1}^T, with C_i, up to it.  They fill one table with a row for
every node, 0 to N.  The first node's state is 0, so its basis rows past the
constant are 0 and G_0 is the identity but for n + 1e-8 at (0, 0).  Every
other G_i is checked, every node's normal equations are solved in one
batched call, and the table keeps the fit operators G_i^-1 A_i, G_i^-1 C_i
and G_i^-1 M_i, beside the fits of the solve's one fixed particle row,
g(W_N), on the last two nodes.  A generator is its first-order expansion at
(x, y, z) = 0 plus a remainder r(y) of its nonlinear terms.  Its state is
the node's Brownian state, x_i = W_i = sqrt(s_i - s_0) phi_i[1] (0 at the
first node), so the state term ds f_x x_i is a multiple of the basis' linear
term, and scenario k's Y row at node i < N is

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
from ``scenario``.  mean x_i = sqrt(s_i - s_0) (phi_i 1)[1] / n is read off
the moment table (0 at the first node), and mean_z_i = vb_i . s_i / n is
known before the Y step.  mean_y_i enters Y_i only through the constant
ds_i rho_i kappa_y mean_y_i, so with m_i the mean of Y_i without that term

    mean_y_i = m_i / (1 - ds_i rho_i kappa_y)

and the term is added to yc_i[0] and to u_i through G_i^-1 A_i e_0.  Y_{i+1}
is at the fixed point of the flow of laws when node i is reached, so the one
sweep returns that fixed point exactly: the limit of the Picard iteration on
laws through which the equation is proved well posed.  The step guard
(max ds L_f <= 0.5, and L_f counts |rho kappa_y|) keeps the divisor at 0.5 or
more; ``_solve_on_grid``, which skips the guard, refuses a node where
ds rho kappa_y reaches 1 (``StepTooCoarse``).

One sweep serves every entry point.  ``_solve_on_grid`` takes the
centred, unscaled, time-major rows of one draw (``_centred_rows``), builds
the paths and their moments, scaling row i by sqrt(ds_i) as it reads it,
and solves K scenarios on them as a stack, in one sweep; a short-horizon
solve reads its moments off its check's table (below).  A single solve is
the stack of one; the paired checks (comparison, converse, stability) solve
both scenarios of a pair as one stack, on common random numbers.  A grid
and its refinement (comparison and stability) share the draw of the finest
grid, of which a grid of N steps reads the first n N normals: its own
draw's.  Particle arrays stream through cache-sized blocks
(``drivers._particle_blocks``).

One moment table per short-horizon draw.  A short-horizon check solves on
sub-grids [V_t, V_{t+eps}] of N = n_time equal steps h, all on one draw.
The check builds that draw's moment table once, on the unit-step clock
0, 1, .., N, with the paths w~_i (partial sums of the rows) and the two
terminal rows 1 and w~_N (``short_horizon_draw``).  On a sub-grid the draw's
Brownian state is W_i = sqrt(h) w~_i (Brownian scaling), so the regression
state W_i / sqrt(s_i - s_0) = w~_i / sqrt(i) is the table's, whatever t and
eps: so are the basis blocks phi_i, the normal matrices and A_i, C_i and
s_i, and M_i and q_i, linear in dW_i = sqrt(h) (w~_{i+1} - w~_i), are the
table's times sqrt(h).  A terminal row y + z W_N is y 1 + z sqrt(h) w~_N, so
its fits are y fit(1) + z sqrt(h) fit(w~_N).  A sub-grid's moments are
therefore read off the table (``_sub_grid_moments``) by products on its
(N+1, W, 3W+2) fit operators, and its K terminal rows, whose means the
sweep reads, are mixed from the table's two; the grid, its times and its
scales are the sub-grid's own.  The sweep reads each node's basis state off
the table's paths, w~_i / sqrt(i), and no path array of the sub-grid is
built.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .drivers import VarianceClock, _particle_blocks
from .errors import (
    DegenerateInterval,
    NonFiniteSolution,
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
    for bit, and the package's one Horner routine (a solution field's and the
    Wick layer's)."""
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

    clock: VarianceClock  # its grid_V and grid_t are the field's nodes
    scales: np.ndarray
    u_coeffs: np.ndarray  # (N+1) x (degree+1)
    v_coeffs: np.ndarray  # N x (degree+1)
    gram_cond_max: float  # the largest condition estimate of the solve's normal matrices
    step_lipschitz: float  # max ds * L_f: the margin to the step guard's 0.5
    n_iterations: ClassVar[int] = 1  # backward sweeps run: a solve runs one

    @property
    def n_steps(self) -> int:
        return self.clock.grid_V.size - 1

    def on_paths(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Y, Z) on an (n, N+1) array of states at the grid nodes; Z has one
        column per cell.  Every node is evaluated by Horner's rule, column i
        with node i's coefficients, as ``transfer_evaluate`` reads a node,
        one cache-sized block of particles at a time: each value is the one
        a single pass over the whole array gives."""
        x = np.asarray(x, dtype=float)
        y, z = np.empty(x.shape), np.empty((x.shape[0], x.shape[1] - 1))
        for rows in _particle_blocks(*x.shape):
            scaled = x[rows] / self.scales
            y[rows] = _polyval(scaled, self.u_coeffs.T)
            z[rows] = _polyval(scaled[:, :-1], self.v_coeffs.T)
        return y, z


def _regularized(a: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """(a + ridge I, its condition numbers) for one matrix or a stack of
    them, refused when a condition number is above the limit.  The matrices
    are symmetric, so the condition is the ratio of the extreme eigenvalues;
    a matrix with a non-finite entry or a smallest eigenvalue that is not
    positive has an infinite condition.  The message quotes the failing
    matrix of highest index: the first a backward sweep meets."""
    gram = a + ridge * np.eye(a.shape[-1])
    finite = np.isfinite(gram).all(axis=(-2, -1))
    eig = np.linalg.eigvalsh(np.where(finite[..., None, None], gram, np.eye(a.shape[-1])))
    low, high = eig[..., 0], eig[..., -1]
    cond = np.divide(high, low, out=np.full(low.shape, np.inf), where=finite & (low > 0))
    bad = ~(cond <= _COND_LIMIT)
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
    power k.  The paths start at 0, so node 0's rows past the constant are 0,
    as in the moment table."""
    phi = np.ones((degree + 1, w.shape[1]))
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
class _Moments:
    """What the sweep of one solve reads: the grid and its scales, the
    (N+1, n) paths w with the divisors ``state_scales`` that give node i's
    basis state w[i] / state_scales[i], the K terminal rows g, and the moment
    table, one row per node i = 0 .. N.  A solve on its own paths has the
    paths W and state_scales = scales; a sub-grid of a short-horizon table
    (``_sub_grid_moments``) has the table's unit-step paths and scales
    sqrt(i).  fits[i] holds node i's fit operators: the
    fit of c . phi_i is fits[i, :, :W] @ c, of c . phi_{i+1} and of
    (c . phi_i) dW_i the next two W-column blocks, and the fits of g sit on
    the last two nodes.  The first node's rows and columns past the constant
    are 0, and so are the last node's C and M.  gram_cond_max is the largest
    condition estimate of G_1 .. G_N."""

    grid_s: np.ndarray
    grid_t: np.ndarray
    scales: np.ndarray
    degree: int
    w: np.ndarray
    state_scales: np.ndarray
    terminal: np.ndarray
    grams: np.ndarray  # (N+1, W, W): G_i
    fits: np.ndarray  # (N+1, W, 3W+K): G_i^-1 [A_i | C_i | M_i | phi_i g]
    sums: np.ndarray  # (N+1, W): phi_i 1
    dw_sums: np.ndarray  # (N+1, W): phi_i dW_i
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


def _moments(grid_s, grid_t, w, rows, terminal, degree: int) -> _Moments:
    """Every node's moments and terminal fits: two products per node, then
    one batched condition guard and one batched solve over the nodes.
    ``rows`` are the draw's centred rows (``_centred_rows``): node i's
    increments are rows[i] sqrt(ds_i), scaled as they are read.

    Node i > 0 fills a (degree + 3, n) block: phi_i, the scaled state x_i to
    the powers 0 .. degree (the constant row is written once per solve),
    then dW_i and x_i**degree dW_i.  phi_i @ block[degree:].T holds the
    Hankel sums of A_i past degree and every sum of x_i**k dW_i, those of
    M_i; walking back with two blocks, phi_i @ phi_{i+1}.T is C_i, and its
    column 0 the sums of x_i**k up to degree.  The last node has no C or M.
    The first node, whose basis is the constant, reads its moments off node
    1's sums; its normal matrix is the identity but for G_0[0, 0] = n + ridge."""
    N = len(grid_s) - 1
    W, K, n = degree + 1, len(terminal), w.shape[1]
    scales, root = _basis_scales(grid_s), np.sqrt(np.diff(grid_s))
    hankel = np.add.outer(np.arange(W), np.arange(W))
    # row i is node i; the right-hand sides [A | C | M | phi g] hold phi g,
    # the terminal rows' moments, on the last two nodes only
    sums, dw_sums = np.zeros((N + 1, 2 * W - 1)), np.zeros((N + 1, 2 * W - 1))
    rhs = np.zeros((N + 1, W, 3 * W + K))
    block, following = np.empty((W + 2, n)), np.empty((W + 2, n))
    block[0] = following[0] = 1.0
    for i in range(N, 0, -1):
        np.divide(w[i], scales[i], out=block[1])
        for k in range(2, W):
            np.multiply(block[k - 1], block[1], out=block[k])
        if i == N:
            sums[i, :W] = block[:W].sum(axis=1)
            sums[i, W:] = _product(block[1:W], block[degree:W])[:, 0]
        else:
            np.multiply(rows[i], root[i], out=block[W])
            np.multiply(block[degree], block[W], out=block[W + 1])
            high = _product(block[:W], block[degree:])
            prod = _product(block[:W], following[:W])
            sums[i, :W], sums[i, W:] = prod[:, 0], high[1:, 0]
            dw_sums[i, :W], dw_sums[i, W:] = high[:, 1], high[1:, 2]
            rhs[i, :, W : 2 * W] = prod
        if i >= N - 1:
            rhs[i, :, 3 * W :] = _product(block[:W], terminal)
        block, following = following, block
    # the first node: A_0 = n e_0 e_0^T, C_0 holds node 1's sums of its basis
    # in its first row and M_0 the sum of dW_0
    sums[0, 0], dw_sums[0, 0] = n, np.multiply(rows[0], root[0], out=block[W]).sum()
    rhs[0, 0, W : 2 * W] = sums[1, :W]
    if N == 1:
        rhs[0, 0, 3 * W :] = terminal.sum(axis=1)
    rhs[:, :, :W] = sums[:, hankel]
    rhs[:, :, 2 * W : 3 * W] = dw_sums[:, hankel]
    grams = np.empty((N + 1, W, W))
    grams[0] = np.diag([n + _RIDGE] + [1.0] * degree)
    grams[1:], cond = _regularized(rhs[1:, :, :W], _RIDGE)
    return _Moments(
        grid_s=grid_s, grid_t=np.asarray(grid_t, dtype=float), scales=scales, degree=degree,
        w=w, state_scales=scales, terminal=terminal, grams=grams, fits=np.linalg.solve(grams, rhs),
        sums=sums[:, :W], dw_sums=dw_sums[:, :W], gram_cond_max=float(cond.max()),
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
    coefficient of the Y row.  Every node's operators are built from the
    moment table in one batched step before the loop.
    """
    N = len(mom.grid_s) - 1
    n = mom.w.shape[1]
    K, W = len(gens), mom.degree + 1
    nonlinear = any(g.c4 != 0.0 for g in gens)
    with_x = any(g.c1 != 0.0 for g in gens)
    with_law = not all(g.is_law_free for g in gens)
    ds_all = mom.ds
    # the paths' mean, from the moment table's sum of x_i
    base = LawFeatures(mean_x=mom.sums[:, 1] * mom.scales / n) if with_law else LawFeatures()
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

    # a node applies each operator to its (K, W) coefficient rows as rows @ op[i]
    fit_self, fit_next, fit_cv = (mom.fits[:, :, k * W : (k + 1) * W] for k in range(3))
    self_op, next_op = fit_self.swapaxes(1, 2), fit_next.swapaxes(1, 2)
    means = mom.sums / n  # the particle mean of c . phi_i is c @ means[i]
    # martingale control variate: subtracting z(W_i) dW_i leaves the
    # conditional expectation unchanged and shrinks the regression residual
    # from O(sqrt(ds)) to O((Z - z_hat) sqrt(ds)); centering keeps the
    # particle mean of the fit exactly equal to the target's.  z(W_i) is the
    # next node's Z field, read in this node's variable
    centred = fit_cv[:-1] - fit_self[:-1, :, :1] * mom.dw_sums[:-1, None, :] / n
    cv_op = _rescaled(centred, (mom.scales[:-1] / mom.scales[1:])[:, None, None]).swapaxes(1, 2)
    # the fit of the w-derivative of b . phi_i
    z_op = _derivative(np.eye(W), mom.scales[:, None, None]) @ self_op[:, :-1]
    ds_f0, ds_fx, ds_fy, ds_fz, ds_law_z = (
        ds_all[:, None, None] * a[:, :-1].T[:, :, None] for a in (f0, f_x, f_y, f_z, law_z)
    )
    z_gain = 1.0 + ds_fy + ds_fz

    u, yc, beta = (np.zeros((K, N + 1, W)) for _ in range(3))
    v = np.zeros((K, N, W))
    mean_y, mean_z = np.empty((K, N + 1)), np.empty((K, N + 1))
    u[:, N] = mom.fits[N, :, 3 * W :].T
    mean_y[:, N] = mom.terminal.mean(axis=1)
    target = mom.fits[N - 1, :, 3 * W :].T  # the fit on node N-1 of Y_N = g
    carry = None  # the nonlinear-remainder rows of the next node's Y
    for i in range(N - 1, -1, -1):
        ds = ds_all[i]
        if nonlinear:
            phi = _basis(mom.w, mom.state_scales, i, mom.degree)
            if carry is not None:
                target = target + _fit(phi, mom.grams[i], carry)
        b = target - v[:, i + 1] @ cv_op[i] if i + 1 < N else target

        # the control field is the derivative of the full one-step value
        # P + f ds; the first-order generator correction keeps Z accurate
        # to O(ds^2) instead of O(ds), and is 0 for a state-free generator
        if i > 0:
            vb = z_gain[i] * (b @ z_op[i])
            if with_x:
                vb += ds_fx[i] * self_op[i, 0]
        else:
            # the first node's Z is the particle mean of its (constant) field,
            # from the slope of w -> E[Y_{i+1} | W_i = w] at the collapsed
            # node: smoothing the next field gives E[dY_{i+1}/dw]
            if N > 1:
                slope = mean_z[:, 1, None]
            else:  # one step: the regression slope of g on W_1 = dW_0
                slope = (mom.terminal @ mom.w[1] - b[:, 0] * mom.dw_sums[0, 0])[:, None] / (n * ds)
            vb = np.zeros((K, W))
            vb[:, :1] = z_gain[0] * slope + ds_fx[0]
        if nonlinear:
            r, dr = np.empty((K, n)), np.empty((K, n))
            for j, (g, p) in enumerate(zip(gens, b @ phi)):
                r[j], dr[j] = generator_remainder(g, mom.grid_t[i], p)
            if i > 0:
                vb = vb + _fit(phi, mom.grams[i], ds * dr * (_derivative(b, mom.scales[i]) @ phi[:-1]))
            else:
                vb[:, 0] += (ds * dr * slope).mean(axis=1)

        mean_z[:, i] = vb @ means[i]

        step = ds_fy[i] * b + ds_fz[i] * vb
        step[:, :1] += ds_f0[i]
        if with_law:
            step[:, :1] += ds_law_z[i] * mean_z[:, i, None]
        y_c = b + step
        if with_x and i > 0:  # the first node's state is 0
            y_c[:, 1:2] += ds_fx[i] * mom.scales[i]
        fitted = y_c @ self_op[i]
        mean = y_c @ means[i]
        if nonlinear:
            carry = ds * r
            fitted += _fit(phi, mom.grams[i], carry)
            mean += carry.mean(axis=1)
        if with_law:
            # the node's own mean Y enters its Y row as the constant
            # ds rho kappa_y mean_y, which adds itself to the row's mean
            mean_y[:, i] = mean / (1.0 - implicit[:, i])
            own = implicit[:, i] * mean_y[:, i]
            step[:, 0] += own
            y_c[:, 0] += own
            fitted += own[:, None] * self_op[i, 0]
        else:
            mean_y[:, i] = mean
        u[:, i], v[:, i], yc[:, i], beta[:, i] = fitted, vb, y_c, b
        if i > 0:  # the fit on node i-1 of yc . phi_i
            target = y_c @ next_op[i - 1]

    mean_z[:, N] = mean_z[:, N - 1]  # Z_N is the last cell's field
    if not all(np.isfinite(a).all() for a in (u, v, yc, mean_y)):
        raise NonFiniteSolution("the backward sweep left coefficients or means non-finite")
    step0 = step[:, 0] + (carry[:, 0] if nonlinear else 0.0)
    return _Stack(u=u, v=v, yc=yc, beta=beta, step0=step0, mean_y=mean_y, mean_z=mean_z)


def _y_row(mom: _Moments, spec, out: _Stack, k: int, i: int) -> np.ndarray:
    """Scenario k's Y row at a node i < N, built from the coefficients of the
    sweep, with the generator ``spec`` for its nonlinear remainder."""
    scaled = mom.w[i] / mom.state_scales[i]
    y = _polyval(scaled, out.yc[k, i])
    if spec.c4 != 0.0:
        r, _ = generator_remainder(spec, mom.grid_t[i], _polyval(scaled, out.beta[k, i]))
        y += mom.ds[i] * r
    return y


def _centred_rows(normals: np.ndarray, n_steps: int) -> np.ndarray:
    """(n_steps, n) centred standard normals, time-major: row i holds every
    particle's normal for step i, and a grid's increments from s_i to
    s_{i+1} are row i times sqrt(s_{i+1} - s_i), scaled as ``_paths`` and
    ``_moments`` read them, which never write them.  They are read from the first
    n n_steps values of the (n, N_max) draw ``normals`` as an (n, n_steps)
    array: a Philox stream fills a draw in C order, so these are the normals
    an (n, n_steps) draw of the same stream gives.  The centring and the
    transposition run one cache-sized block of particles at a time.  A grid
    that reads the whole draw centres it in place, so it must be the draw's
    last reader; a coarser grid leaves the draw as it is."""
    n = normals.shape[0]
    z = normals.reshape(-1)[: n * n_steps].reshape(n, n_steps)
    mean = z.mean(axis=0)  # exact zero-mean increments
    in_place = n_steps == normals.shape[1]
    rows = np.empty((n_steps, n))
    for block in _particle_blocks(n, n_steps):
        rows[:, block] = np.subtract(z[block], mean, out=z[block] if in_place else None).T
    return rows


def _paths(rows: np.ndarray, grid_s) -> np.ndarray:
    """(N+1, n) partial sums of the increments rows[i] sqrt(ds_i), starting
    from 0."""
    root = np.sqrt(np.diff(grid_s))
    w = np.zeros((rows.shape[0] + 1, rows.shape[1]))
    # a running sum over contiguous rows adds in the order np.cumsum does
    # along axis 0, without its strided walk over a time-major block
    for i, row in enumerate(rows):
        np.multiply(row, root[i], out=w[i + 1])
        w[i + 1] += w[i]
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


def _solve_on_grid(gens, terminal, grid_s, grid_t, cfg, rows):
    """A solve on its own paths: from the centred rows of a draw
    (``_centred_rows``), build the paths from 0 on ``grid_s`` and their
    moments, and run the one backward sweep of the K generators on them.
    ``terminal(w_end)`` gives the K rows of terminal values at the last
    node's state; the generators read ``w`` in their state slot.  Returns
    (moments, stack)."""
    w = _paths(rows, grid_s)
    terminal_values = np.array(terminal(w[-1]), dtype=float)
    # an overflowing solve is reported once, by the finiteness check after
    # the sweep, not by numpy warnings along the way
    with np.errstate(over="ignore", invalid="ignore"):
        mom = _moments(grid_s, grid_t, w, rows, terminal_values, cfg.basis_degree)
        return mom, _backward_pass(gens, mom)


def solve_auxiliary_stack(
    scns, clocks: list[VarianceClock], cfg: SolverConfig, seed: int
) -> tuple[list[list[SolutionField]], ParticleCloud]:
    """Solve the auxiliary Brownian equations of several scenarios as one
    stack on each of ``clocks`` (one clock, or a grid and then its
    refinements, in strictly increasing step counts).  Returns one list of
    the scenarios' fields per clock, in their order, each the field
    ``solve_auxiliary`` gives for that scenario on that clock alone, and the
    particle cloud of the last clock, which the scenarios share.  Each
    grid's rows are built just before its own solve, and a coarser grid's
    rows, paths and moments are released before the next grid's are built.

    The scenarios share one draw (common random numbers), and so do the
    clocks: the normals of the finest grid are drawn once, and a grid of N
    steps reads the first n N of them, which are the normals of its own
    draw.  A coarse grid's increments are not sums of a fine grid's,
    so the grids are not coupled.  The step guard runs on every grid, with
    each generator's symbolic constant, before the draw.

    The time grids are taken from the clocks (their images of [0, T]);
    ``cfg.n_time`` governs clock construction in the orchestration layer, not
    here.
    """
    steps = [clock.grid_V.size - 1 for clock in clocks]
    if any(a >= b for a, b in zip(steps, steps[1:])):
        raise ValueError("clocks must have strictly increasing step counts: a grid, then its refinements")
    margins = [_check_step(scns, clock.grid_V) for clock in clocks]
    gens = [scn.generator for scn in scns]

    def terminal(w_end):
        return [terminal_on_paths(scn.terminal, w_end) for scn in scns]

    normals = standard_normals(seed, (cfg.n_particles, steps[-1]), "solver-increments")
    fields = []
    for clock, n_steps, margin in zip(clocks, steps, margins):
        # the previous grid's rows, paths and moments, released before this
        # grid's rows are built
        mom = rows = None
        rows = _centred_rows(normals, n_steps)
        if n_steps == steps[-1]:  # the finest grid, solved last, centred the draw in place
            del normals
        mom, out = _solve_on_grid(gens, terminal, clock.grid_V, clock.grid_t, cfg, rows)
        fields.append([
            SolutionField(
                clock=clock, scales=mom.scales, u_coeffs=out.u[k], v_coeffs=out.v[k],
                gram_cond_max=mom.gram_cond_max, step_lipschitz=float(margin[k]),
            )
            for k in range(len(scns))
        ])
    return fields, ParticleCloud(w=mom.w.T)


def solve_auxiliary(
    scn: ScenarioSpec, clock: VarianceClock, cfg: SolverConfig, seed: int
) -> tuple[SolutionField, ParticleCloud]:
    """Solve the auxiliary Brownian equation on the clock's grid: the stack
    of one scenario on one clock."""
    [[field]], cloud = solve_auxiliary_stack([scn], [clock], cfg, seed)
    return field, cloud


def transfer_evaluate(field: SolutionField, t: float, x) -> tuple:
    """(Y, Z) at original time t and state x (floats for a scalar x): Y blended
    linearly between nodes, Z from the left node (dV-a.e. convention)."""
    s = field.clock.value(t)  # in [V_0, V_T]: the clock refuses a time outside [0, T]
    grid_s = field.clock.grid_V
    j = int(np.searchsorted(grid_s, s, side="right")) - 1
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

    value           cross-particle mean of the time-t values
    std_error       Monte Carlo standard error of that mean
    step_lipschitz  the sub-grid's max ds * L_f: the margin to the step guard's 0.5
    """

    value: float
    std_error: float
    n_particles: int
    step_lipschitz: float
    n_iterations: ClassVar[int] = 1  # backward sweeps run: a solve runs one


def _candidates(gens, mom: _Moments, out: _Stack) -> np.ndarray:
    """(K, n) unprojected first-node values Y_1 + f ds of every scenario; they
    have the same particle mean as the first node's Y."""
    y1 = np.array([_y_row(mom, gen, out, k, 1) for k, gen in enumerate(gens)])
    y1 += out.step0[:, None]
    return y1


def _require_x_free(scn: ScenarioSpec):
    if scn.generator.c1 != 0.0:
        raise UnsupportedScenario("representation solves need a state-free generator (c1 = 0)")


def _short_horizon_grid(clock: VarianceClock, t: float, eps: float, n_time: int) -> np.ndarray:
    """The clock values of a short-horizon solve: ``n_time`` equal steps from V_t to V_{t+eps}."""
    v_a = clock.value(t)
    v_b = clock.value(min(t + eps, clock.T))
    if v_b - v_a <= 1e-14:
        raise DegenerateInterval(f"variance clock does not move on [{t}, {t + eps}]")
    return np.linspace(v_a, v_b, n_time + 1)


def short_horizon_draw(cfg: SolverConfig, seed: int) -> _Moments:
    """The one moment table of a short-horizon check, which each of its
    solves reads on its own sub-grid of ``cfg.n_time`` equal steps (common
    random numbers): the moments of the draw's centred rows
    (``_centred_rows``) on the unit-step clock 0, 1, .., ``cfg.n_time``, whose
    paths are the rows' partial sums w~_i, with the two terminal rows 1 and
    w~_N.  The rows are released once the table is built; the table keeps
    the paths, from which the sweep reads each node's basis state."""
    # the terminal rows are allocated before the draw's arrays: on glibc's
    # heap that leaves the holes of the previous check's draw to this one's
    # (peak RSS of the short-horizon pass 0.6 MB lower, on a 2-vCPU host)
    terminal = np.ones((2, cfg.n_particles))
    rows = _centred_rows(standard_normals(seed, (cfg.n_particles, cfg.n_time), "repr-increments"), cfg.n_time)
    unit = np.arange(cfg.n_time + 1.0)
    w = _paths(rows, unit)
    terminal[1] = w[-1]
    return _moments(unit, unit, w, rows, terminal, cfg.basis_degree)


def _sub_grid_moments(table: _Moments, grid_s, grid_t, y: np.ndarray, z: np.ndarray) -> _Moments:
    """The moments of the table's draw on a sub-grid ``grid_s`` of equal
    steps h, with the K terminal rows y + z W_N, read off the table by
    Brownian scaling (W_i = sqrt(h) w~_i): the normal matrices, the sums and
    the A and C fits are the table's, the M fits and the sums of x**k dW are
    its times sqrt(h), and a row's terminal fits are y fit(1) + z sqrt(h)
    fit(w~_N).  The grid, its times and its scales are the sub-grid's own;
    the paths and the divisors of the basis states are the table's.  A
    table has at least two steps (``SolverConfig``), so the sweep's one-step
    branch, which reads the paths as W, never reads a table's."""
    W = table.degree + 1
    root = math.sqrt((grid_s[-1] - grid_s[0]) / (len(grid_s) - 1))
    mix = np.stack([y, z * root], axis=1)  # (K, 2): the weights of the terminal rows 1 and w~_N
    fits = np.concatenate(
        [table.fits[:, :, : 2 * W], table.fits[:, :, 2 * W : 3 * W] * root, table.fits[:, :, 3 * W :] @ mix.T],
        axis=2,
    )
    return _Moments(
        grid_s=grid_s, grid_t=np.asarray(grid_t, dtype=float), scales=_basis_scales(grid_s), degree=table.degree,
        w=table.w, state_scales=table.scales, terminal=mix @ table.terminal, grams=table.grams, fits=fits,
        sums=table.sums, dw_sums=table.dw_sums * root, gram_cond_max=table.gram_cond_max,
    )


def representation_solve_stack(
    starts,
    clock: VarianceClock,
    t: float,
    eps: float,
    cfg: SolverConfig,
    table: _Moments,
) -> list[RepresentationValue]:
    """Solve each (scenario, y, z) of ``starts`` on [V_t, V_{t+eps}] with
    terminal y + z * (W_{V_{t+eps}} - W_{V_t}), as one stack on the check's
    moment table (``short_horizon_draw``), whose moments the solve reads on
    its own sub-grid (``_sub_grid_moments``) and leaves as they are.

    Every particle starts from the same (y, z) at time t, and regressions
    run on the Brownian increment from V_t (the Markov state of this
    problem), so the time-t node is degenerate and collapses to its mean: the
    time-t value is deterministic by construction.  The generators must not
    read the state (c1 = 0; ``UnsupportedScenario`` otherwise).
    """
    scns = [scn for scn, _, _ in starts]
    for scn in scns:
        _require_x_free(scn)
    shape = (cfg.n_time, cfg.n_particles, cfg.basis_degree)
    got = (len(table.grid_s) - 1, table.w.shape[1], table.degree)
    if got != shape:
        raise ValueError(f"the table must have the (n_time, n_particles, basis_degree) {shape} of the config; got {got}")
    if not (0.0 <= t and eps > 0.0 and t + eps <= clock.T + 1e-12):
        raise ValueError("need 0 <= t < t + eps <= T")
    grid_s = _short_horizon_grid(clock, t, eps, cfg.n_time)
    margins = _check_step(scns, grid_s)
    y, z = np.array([start[1:] for start in starts], dtype=float).T
    gens = [scn.generator for scn in scns]
    # an overflowing solve is reported once, by the finiteness check after
    # the sweep, not by numpy warnings along the way
    with np.errstate(over="ignore", invalid="ignore"):
        mom = _sub_grid_moments(table, grid_s, clock.invert(grid_s), y, z)
        out = _backward_pass(gens, mom)
    candidates = _candidates(gens, mom, out)
    n = cfg.n_particles
    return [
        RepresentationValue(
            value=float(out.mean_y[k, 0]),
            std_error=float(np.std(candidates[k]) / math.sqrt(n)),
            n_particles=n,
            step_lipschitz=float(margins[k]),
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
    ``representation_solve_stack`` of one row, on a table of its own."""
    return representation_solve_stack([(scn, y, z)], clock, t, eps, cfg, short_horizon_draw(cfg, seed))[0]
