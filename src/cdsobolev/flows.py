"""Entropy gradient flows: finite-dimensional ODEs and fast diffusion.

Two layers share one trace format and one time grid (``_time_grid``), whose
evenly spaced records give dE/dt to fourth order at every record.  The
finite-dimensional layer integrates x' = -grad F(x) for strictly convex
entropies F and certifies the convexity inequality
G(x*) <= |grad F(x)|^2/(2 rho) + G(x)  under the condition
grad F . Hess F grad F >= -rho grad F . grad G, on one point or a batch of
points (one per row), evaluating grad F once per point.  Its RK4 flow
evaluates F and the records once per block of steps, not once per step.

The density layer runs the fast diffusion equation

    d/dt mu = (1/alpha) L mu^alpha,     0 < alpha < 1,

which is the gradient flow of the Renyi entropy
R_alpha(mu) = (1/(alpha(alpha-1))) int mu^alpha with respect to the Otto
metric |grad phi|_mu^2 = int Gamma(phi) dmu.  The steps and the Otto norm
both use the finite-volume form w mu' = -(1/alpha) S mu^alpha of
``model_space``: mass is conserved to roundoff, and the recorded
|grad R_alpha|^2 = Phi^T S mu^alpha / alpha is exactly -dR_alpha/dt of the
semi-discrete flow.  Its records hold relative entropies R_p(mu) - R_p(1)
(``_relative_renyi``), with no roundoff of the O(1) R_p(1) in them.  The
scheme is the linearly implicit midpoint rule at a fixed step, second order
with no h^2 stability bound; each step is one tridiagonal solve.  The
default dt = 1e-2 is set by the dissipation-identity check; see
``fast_diffusion_flow``.  The Otto Hessian of R_alpha, its quadratic form
and the convexity relation that reproduces the sharp Sobolev inequality are
evaluated on the centered stencils.  A transport path cross-checks the
Hessian by differentiating the semi-discrete path twice at s = 0 in closed
form: no step size and no s^2 error; see ``hessian_second_derivative``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConditionViolated, InvalidAlpha, InvalidConfig,
                     InvalidExponent, InvalidParameter, NotAProbabilityDensity,
                     PositivityLost, StepUnstable)
from .model_space import (ModelSpace, ScalarField, _apply_L,
                          _check_same_space, _diff1, _dirichlet_form,
                          _gamma_terms, _with_ghosts, apply_stiffness,
                          fv_stiffness, integrate, tridiagonal_solve)

MASS_TOL = 1e-8
MAX_RECORDS = 1000       # a flow records about this many states


# ---------------------------------------------------------------------------
# finite-dimensional problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteDimProblem:
    """Entropy F(x) = x.Q.x/2 + eps * sum x_j^4 and companion (G, grad_G).

    companion None means G = F, for which the convexity condition holds
    whenever Q >= rho * Id; with a companion Q need only be positive
    definite, so that x* = 0 minimizes F.  F, grad_F, G and grad_G, and the
    companion's callables, take one point (dim,) or a batch (m, dim).
    """

    Q: np.ndarray
    rho: float
    eps: float = 0.0
    companion: tuple | None = None

    def __post_init__(self):
        Q = np.array(self.Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise InvalidConfig(f"Q must be square, got shape {Q.shape}")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise InvalidConfig("Q must be symmetric")
        if not (0.0 <= self.eps < math.inf and 0.0 < self.rho < math.inf):
            raise InvalidConfig("need finite eps >= 0 and rho > 0")
        lam_min = float(np.linalg.eigvalsh(Q).min())
        if self.companion is None and lam_min < self.rho - 1e-12:
            raise InvalidConfig(
                f"eigmin(Q) = {lam_min} < rho = {self.rho}: the convexity "
                "condition is not guaranteed with G = F")
        if lam_min <= 0.0:
            raise InvalidConfig(f"eigmin(Q) = {lam_min} <= 0: x* = 0 is not "
                                "the minimizer of F")
        if self.companion is not None and not (
                len(self.companion) == 2
                and all(map(callable, self.companion))):
            raise InvalidConfig("companion must be callables (G, grad_G)")
        Q.setflags(write=False)
        object.__setattr__(self, "Q", Q)

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    # entropy and companion -------------------------------------------------
    def F(self, x):
        x = np.asarray(x, dtype=float)
        # row-wise x.Qx, rounded as the one-point dot x @ (x @ Q)
        val = 0.5 * (x[..., None, :] @ (x @ self.Q)[..., :, None])[..., 0, 0]
        if self.eps > 0.0:
            val = val + self.eps * np.sum(x ** 4, axis=-1)
        return val

    def grad_F(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = x @ self.Q
        if self.eps > 0.0:
            g = g + 4.0 * self.eps * x ** 3
        return g

    def G(self, x):
        G = self.F if self.companion is None else self.companion[0]
        return G(np.asarray(x, dtype=float))

    def grad_G(self, x) -> np.ndarray:
        grad_G = self.grad_F if self.companion is None else self.companion[1]
        return grad_G(np.asarray(x, dtype=float))

    @property
    def x_star(self) -> np.ndarray:
        """Unique minimizer of the shipped coercive entropies."""
        return np.zeros(self.dim)


# ---------------------------------------------------------------------------
# flow traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowTrace:
    """Time series recorded along a gradient flow."""

    times: np.ndarray
    entropy: np.ndarray            # F(S_t) or R_alpha(mu_t) - R_alpha(1)
    grad_norm_sq: np.ndarray
    companion: np.ndarray          # G(S_t) or R_beta(mu_t) - R_beta(1)
    dissipation_residual: np.ndarray
    sup_distance: np.ndarray       # to the equilibrium point/density
    mass: np.ndarray | None = None
    steps: int = 0                 # time steps taken
    stop_reason: str = "T"         # "T" reached or "grad_stop"

    def __post_init__(self):
        for arr in (self.times, self.entropy, self.grad_norm_sq,
                    self.companion, self.dissipation_residual,
                    self.sup_distance):
            np.asarray(arr).setflags(write=False)


# five-point fourth-order first-derivative stencils (Fornberg 1988), in
# units of 1/(12 h): centered, and one-sided at the first two records
_CENTERED5 = np.array([1.0, -8.0, 0.0, 8.0, -1.0])
_ONE_SIDED5 = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                        [-3.0, -10.0, 18.0, -6.0, 1.0]])


def _time_derivative(e: np.ndarray, t: np.ndarray) -> np.ndarray:
    """dE/dt at every record, fourth order: the centered stencil inside and
    the one-sided ones at the first and last two records.  The records are
    evenly spaced, at least five of them (see ``_time_grid``)."""
    h = (t[-1] - t[0]) / (len(t) - 1)
    de = np.empty_like(e)
    de[2:-2] = np.convolve(e, _CENTERED5[::-1], "valid")
    de[:2] = _ONE_SIDED5 @ e[:5]
    de[-2:] = -(_ONE_SIDED5 @ e[:-6:-1])[::-1]
    return de / (12.0 * h)


def _time_grid(T: float, dt: float) -> tuple[int, float, int]:
    """(nsteps, step, every) of a flow to T: enough steps for the five
    records of the stencils, each at most dt and dividing T, and a record
    every ``every`` steps, at most MAX_RECORDS after t = 0.  nsteps is a
    multiple of ``every``, so the records are evenly spaced."""
    if not (0.0 < T < math.inf and 0.0 < dt < math.inf):
        raise InvalidParameter("T and dt must be positive and finite")
    nsteps = max(len(_CENTERED5) - 1, math.ceil(T / dt - 1e-9))
    every = math.ceil(nsteps / MAX_RECORDS)
    nsteps = every * math.ceil(nsteps / every)
    return nsteps, T / nsteps, every


def _make_trace(times, ent, gn, comp, dist, **counters) -> FlowTrace:
    """FlowTrace of the recorded lists.  The dissipation residual is
    |dE/dt + |grad|^2|, see ``_time_derivative``."""
    t, e, g = np.array(times), np.array(ent), np.array(gn)
    resid = np.abs(_time_derivative(e, t) + g)
    return FlowTrace(times=t, entropy=e, grad_norm_sq=g,
                     companion=np.array(comp), dissipation_residual=resid,
                     sup_distance=np.array(dist), **counters)


# ---------------------------------------------------------------------------
# finite-dimensional flow and convexity margins
# ---------------------------------------------------------------------------

def _rk4_step(rhs, y, dt):
    """One RK4 step of y' = rhs(y).  With -dt it is bit for bit the step of
    y' = -rhs(y): negation is exact and rounding is symmetric in sign."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def fd_flow(problem: FiniteDimProblem, x0, T: float, dt: float) -> FlowTrace:
    """RK4 integration of x' = -grad F(x) to T on the grid of ``_time_grid``
    (steps of at most dt).  F, its Lyapunov test and the records are
    evaluated once per block of MAX_RECORDS steps: memory is
    O(MAX_RECORDS dim), and an unstable flow stops within one block."""
    nsteps, dt, every = _time_grid(T, dt)
    x = np.array(x0, dtype=float)
    if x.shape != (problem.dim,) or not np.isfinite(x).all():
        raise InvalidConfig(f"x0 must be finite, of shape ({problem.dim},)")
    block = np.empty((min(nsteps, MAX_RECORDS) + 1, problem.dim))
    records = []
    for k0 in range(0, nsteps, MAX_RECORDS):
        n = min(MAX_RECORDS, nsteps - k0)
        block[0] = x
        for i in range(1, n + 1):
            block[i] = x = _rk4_step(problem.grad_F, x, -dt)
        f = problem.F(block[:n + 1])
        bad = ~np.isfinite(f)  # a NaN fails no comparison: test it apart
        bad[1:] |= f[1:] > f[:-1] + 1e-10 * (1.0 + np.abs(f[:-1]))
        if bad.any():
            i = int(bad.argmax())
            rise = f"increased from {f[i - 1]} to" if np.isfinite(f[i]) else "="
            raise StepUnstable(f"F {rise} {f[i]} at step {k0 + i}")
        k = np.arange(k0 + (k0 > 0), k0 + n + 1)
        k = k[k % every == 0]
        rows, fk = block[k - k0], f[k - k0]
        records.append((k * dt, fk, np.sum(problem.grad_F(rows) ** 2, axis=-1),
                        fk if problem.companion is None else problem.G(rows),
                        np.abs(rows - problem.x_star).max(axis=-1)))

    return _make_trace(*map(np.concatenate, zip(*records)), steps=nsteps)


def _condition_margin(problem: FiniteDimProblem, x, g):
    """g.(Hess F g + rho grad G) at x for g = grad F(x), Hess F unformed."""
    grad_G = g if problem.companion is None else problem.grad_G(x)
    v = g @ problem.Q + problem.rho * grad_G
    if problem.eps > 0.0:
        v = v + 12.0 * problem.eps * x * x * g
    return np.sum(g * v, axis=-1)


def convexity_inequality_margin(problem: FiniteDimProblem, x):
    """|grad F(x)|^2/(2 rho) + G(x) - G(x*) at one point or each row of a
    batch; raises ``ConditionViolated`` where the condition fails."""
    x = np.asarray(x, dtype=float)
    g = problem.grad_F(x)
    g2 = np.sum(g * g, axis=-1)
    cm = _condition_margin(problem, x, g)
    failed = cm < -1e-10 * (1.0 + g2)
    if np.any(failed):
        raise ConditionViolated(
            f"convexity condition fails at {np.count_nonzero(failed)} of "
            f"{failed.size} points (min margin {np.min(cm)})")
    return g2 / (2.0 * problem.rho) + problem.G(x) - problem.G(problem.x_star)


# ---------------------------------------------------------------------------
# Renyi entropy machinery
# ---------------------------------------------------------------------------

def _check_alpha(alpha: float):
    if not (0.0 < alpha < math.inf and alpha != 1.0):
        raise InvalidAlpha(f"alpha = {alpha} must be finite, positive, != 1")


def _check_density(space: ModelSpace, mu: ScalarField):
    if mu.min() <= 0.0:
        raise NotAProbabilityDensity("density must be positive")
    mass = integrate(space, mu)
    if abs(mass - 1.0) > MASS_TOL:
        raise NotAProbabilityDensity(f"int mu dnu = {mass} != 1")


def _relative_renyi(space: ModelSpace, values: np.ndarray, p: float) -> float:
    """R_p(mu) - R_p(1) = int (mu^p - 1 - p (mu - 1)) dnu / (p (p - 1)) of
    raw values, mu^p - 1 as expm1(p log1p(mu - 1)): the Bregman form, with
    no cancellation of two O(1) entropies (Carrillo & Toscani 2000)."""
    d = values - 1.0
    return float(np.dot(space.quad_weights, np.expm1(p * np.log1p(d)) - p * d)
                 / (p * (p - 1.0)))


def _otto_grad_norm_sq(space: ModelSpace, values: np.ndarray,
                       alpha: float) -> float:
    """int Gamma(Phi) mu dnu as Phi^T S mu^alpha / alpha, Phi = mu^{alpha-1} /
    (alpha-1), of raw values: -dR_alpha/dt along w mu' = -S mu^alpha/alpha."""
    p = values ** (alpha - 1.0)  # one power: mu^alpha = p mu
    return _dirichlet_form(space, p / (alpha - 1.0), p * values) / alpha


def _hessian_quadform(space: ModelSpace, mu: ScalarField, alpha: float,
                      lphi: np.ndarray, g2: np.ndarray) -> float:
    integrand = ((alpha - 1.0) * lphi ** 2 + g2) * mu.values ** alpha
    return float(np.dot(space.quad_weights, integrand) / alpha)


def renyi_hessian_quadform(space: ModelSpace, mu: ScalarField, alpha: float,
                           phi: ScalarField) -> float:
    """Otto Hessian of R_alpha at mu along grad phi:

    (1/alpha) int [ (alpha-1)(L phi)^2 + Gamma_2(phi) ] mu^alpha dnu.
    """
    _check_alpha(alpha)
    _check_density(space, mu)
    _check_same_space(space, phi)
    lphi, _, g2 = _gamma_terms(space, phi.values)
    return _hessian_quadform(space, mu, alpha, lphi, g2)


def hessian_second_derivative(space: ModelSpace, mu: ScalarField,
                              alpha: float, phi: ScalarField) -> float:
    """Independent check of the Hessian formula by path differentiation.

    Transports mu along the geodesic-type path with initial velocity
    grad phi: the density m obeys the continuity equation and the potential
    p the Hamilton-Jacobi equation, with m(0) = mu, p(0) = phi and D the
    centered difference standing for d/dtheta:

        dm/ds = -(Dm Dp + m Lp),    dp/ds = -(Dp)^2/2.

    Returns d^2/ds^2 R_alpha(m(s)) at s = 0, exact for this semi-discrete
    path: its second-order jet is

        m1 = -(Dm Dp + m Lp),    p1 = -(Dp)^2/2,
        m2 = -(Dm1 Dp + Dm Dp1 + m1 Lp + m Lp1),
        R'' = (1/(alpha-1)) int [(alpha-1) m^(alpha-2) m1^2
                                 + m^(alpha-1) m2] dnu,

    with no step size.  It shares only the difference stencils with
    ``renyi_hessian_quadform``, never its Gamma_2.  Raises ``InvalidConfig``
    if the result is not finite.
    """
    _check_alpha(alpha)
    _check_density(space, mu)
    _check_same_space(space, phi)
    m = mu.values
    p = _with_ghosts(phi.values)
    dm, dp = _diff1(space, _with_ghosts(m)), _diff1(space, p)
    lp = _apply_L(space, p, dp)
    m1 = -(dm * dp + m * lp)
    p1 = _with_ghosts(-0.5 * dp * dp)
    dp1 = _diff1(space, p1)
    m2 = -(_diff1(space, _with_ghosts(m1)) * dp + dm * dp1
           + m1 * lp + m * _apply_L(space, p1, dp1))
    integrand = ((alpha - 1.0) * m1 * m1 + m * m2) * m ** (alpha - 2.0)
    r2 = float(np.dot(space.quad_weights, integrand) / (alpha - 1.0))
    if not math.isfinite(r2):
        raise InvalidConfig(f"path second derivative is not finite ({r2})")
    return r2


# ---------------------------------------------------------------------------
# fast diffusion flow
# ---------------------------------------------------------------------------

POSITIVITY_FLOOR = 1e-8  # fast diffusion raises once min mu <= this
GRAD_STOP = 1e-12        # and stops once |grad R_alpha|^2 < this at a record


def _midpoint_step(bands, w: np.ndarray, m: np.ndarray, alpha: float):
    """One linearly implicit midpoint step of w * m' = -(1/alpha) S m^alpha.

    ``bands`` are those of (dt/2) S.  The implicit midpoint rule's equation
    w (y - m) + (dt/(2 alpha)) S y^alpha = 0 for the midpoint y = m + delta
    is linearized at m: one LAPACK gtsv call (``tridiagonal_solve``) solves
    (w + (dt/2) S diag(m^(alpha-1))) delta = -(dt/(2 alpha)) S m^alpha.
    That is the first Newton iterate of the implicit rule, and second order
    like it (Hairer & Wanner, Solving ODEs II, IV.7); 1^T S = 0 keeps
    w . delta = 0 to roundoff.  Returns m_next = m + 2 delta.
    """
    main, off = bands
    d = m ** (alpha - 1.0)
    delta = tridiagonal_solve(off * d[:-1], w + main * d, off * d[1:],
                              -apply_stiffness(bands, m * d) / alpha)
    return m + 2.0 * delta


def fast_diffusion_flow(space: ModelSpace, mu0: ScalarField, alpha: float,
                        T: float, dt: float = 1e-2) -> FlowTrace:
    """Integrate d/dt mu = (1/alpha) L mu^alpha by the linearly implicit
    midpoint rule.

    In finite-volume form the flow is w * mu' = -(1/alpha) S mu^alpha with
    the tridiagonal stiffness S of ``fv_stiffness`` and w the quadrature
    weights, so 1^T S = 0 conserves mass to roundoff.  The steps are those
    of ``_time_grid``, at most ``dt``; the implicit rule has no CFL bound,
    so the cost per unit time does not grow like N^2.  Each step is one
    tridiagonal solve (see ``_midpoint_step``).  The default dt = 1e-2 is
    set by the dissipation gate of ``check_fast_diffusion_flow``: the
    residual |dR/dt + |grad R|^2| is measured at every record by
    fourth-order differences over the record spacing.  From the cosine start
    at N = 256 its worst relative value is 2.19e-5, 9.11e-5 and 4.05e-4 at
    dt = 5e-3, 1e-2 and 2e-2 against the 1e-3 gate; 1e-2 is the largest
    that keeps the residual under a third of the gate, at every N up to
    65536 (the records are relative entropies).  The flow stops at T or
    once |grad R_alpha|^2 falls below GRAD_STOP at one of the records after
    the first five; it raises ``PositivityLost`` once min mu <=
    POSITIVITY_FLOOR.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidAlpha(f"fast diffusion needs 0 < alpha < 1, got {alpha}")
    _check_density(space, mu0)
    nsteps, dt, every = _time_grid(T, dt)
    bands = tuple(0.5 * dt * band for band in fv_stiffness(space))
    w = space.quad_weights
    beta = 2.0 * alpha - 1.0

    times, ent, gn, comp, dist, mass = [], [], [], [], [], []

    def record(t, m):
        times.append(t)
        ent.append(_relative_renyi(space, m, alpha))
        gn.append(_otto_grad_norm_sq(space, m, alpha))
        if abs(beta) < 1e-14:
            comp.append(float("nan"))  # beta = 0 degenerate order
        else:
            comp.append(_relative_renyi(space, m, beta))
        dist.append(float(np.abs(m - 1.0).max()))
        mass.append(float(np.dot(w, m)))

    m = np.array(mu0.values)
    record(0.0, m)
    stop_reason = "T"
    for k in range(1, nsteps + 1):
        m = _midpoint_step(bands, w, m, alpha)
        t = k * dt
        if float(m.min()) <= POSITIVITY_FLOOR:
            raise PositivityLost(f"min mu = {m.min()} at t = {t}")
        if k % every == 0:
            ent_prev = ent[-1]
            record(t, m)
            if ent[-1] > ent_prev + 1e-10 * (1.0 + abs(ent_prev)):
                raise StepUnstable(
                    f"R_alpha increased from {ent_prev} to {ent[-1]} at t={t}")
            if gn[-1] < GRAD_STOP and len(times) >= len(_CENTERED5):
                stop_reason = "grad_stop"
                break

    return _make_trace(times, ent, gn, comp, dist, mass=np.array(mass),
                       steps=k, stop_reason=stop_reason)


# ---------------------------------------------------------------------------
# convexity relation and the Sobolev bridge
# ---------------------------------------------------------------------------

def convexity_relation_margin(space: ModelSpace, mu: ScalarField,
                              dim_param: float) -> float:
    """Hess R_alpha(grad R_alpha, grad R_alpha) - (rho/alpha) <grad, grad>.

    With alpha = 1 - 1/n the bracket <grad R_alpha, grad(-R_beta)> reduces to
    int Gamma(Phi) mu^alpha; nonnegative on CD(rho, n)-valid spaces.
    """
    n = float(dim_param)
    alpha = 1.0 - 1.0 / n
    _check_alpha(alpha)
    # Phi = mu^{alpha-1}/(alpha-1), the Otto-gradient potential of R_alpha
    phi = space.field(mu.values ** (alpha - 1.0) / (alpha - 1.0))
    _check_density(space, mu)
    lphi, g, g2 = _gamma_terms(space, phi.values)
    quad = _hessian_quadform(space, mu, alpha, lphi, g2)
    bracket = float(np.dot(space.quad_weights, g * mu.values ** alpha))
    return quad - (space.rho / alpha) * bracket


def entropy_inequality_margin(space: ModelSpace, mu: ScalarField) -> float:
    """(alpha/(2 rho)) |grad R_alpha|^2 - R_beta(mu) + R_beta(1), >= 0.

    With alpha = 1 - 1/n, beta = 1 - 2/n the gradient term is evaluated
    through the substitution f = mu^{(n-2)/(2n)}, which makes this margin
    exactly (2 n^2/(n-2)^2) times the Sobolev deficit of f.
    """
    _check_density(space, mu)
    n = space.n
    alpha = 1.0 - 1.0 / n
    beta = 1.0 - 2.0 / n
    f = mu.values ** (beta / 2.0)
    grad_term = (alpha / (2.0 * space.rho)) * (4.0 / beta ** 2) \
        * _dirichlet_form(space, f, f)
    return grad_term - _relative_renyi(space, mu.values, beta)


def density_from_field(space: ModelSpace, f: ScalarField,
                       q: float) -> ScalarField:
    """mu = |f|^q / ||f||_q^q, the probability density carried by f."""
    if not 1.0 <= q < math.inf:
        raise InvalidExponent(f"q = {q} must be finite and >= 1")
    _check_same_space(space, f)
    p = np.abs(f.values) ** q
    total = float(np.dot(space.quad_weights, p))
    if total <= 0.0:
        raise InvalidParameter("field vanishes identically")
    return space.field(p / total)
