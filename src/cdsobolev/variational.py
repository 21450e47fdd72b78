"""Subcritical variational problem, pressure equation and rigidity scan.

For A > 0 and a strictly subcritical exponent q we minimize

    I(A) = inf { A ||grad v||_2^2 + ||v||_2^2 : ||v||_q = 1, v in H^1 }

by one globalized bordered Newton loop (``minimize_subcritical``), with an
absolute-value positivity projection and renormalization after every step.
Each Newton step is one tridiagonal solve: the Hessian H of the Lagrangian
maps v to r - kappa (q-2) grad C, so H^{-1} grad C comes from H^{-1}(-r) + v.
Rescaled by I^{1/(q-2)}, a minimizer solves -A L v + v = v^{q-1}.  Its
reported energy and Euler-Lagrange residual take L in the finite-volume
form L_fv = -W^{-1} S that was minimized, so both certify the solve.

The pressure function Phi = v^{-(q-2)/2} then satisfies

    Phi L Phi - (d'/2) Gamma(Phi) = -lambda (Phi^2 - 1),
    d' = 2q/(q-2),  lambda = (q-2)/(2A),

and the integral identity

    int (Gamma_2(Phi) - (L Phi)^2/d' - (c/d') Gamma(Phi)) Phi^{1-d'} dnu = 0,
    c = 2 lambda (d'-1),

whose three integrals ``gamma2_identity_terms`` evaluates.  ``rigidity_scan``
sweeps A across the sharp threshold A* = 4(d'-1)/(d'(d'-2) rho) and splits
the identity at each minimizer into two rigidity terms: the CD-positive part
int (Gamma_2(Phi) - rho Gamma(Phi) - (L Phi)^2/d') Phi^{1-d'} and the gap
(rho - c/d') int Gamma(Phi) Phi^{1-d'}, whose coefficient changes sign at A*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidConfig, InvalidExponent, InvalidParameter,
                     NoConvergence, NonPositiveField, SingularMatrix)
from .model_space import (ModelSpace, ScalarField, _check_same_space,
                          _gamma_terms, _quadrature, apply_L, apply_stiffness,
                          fv_stiffness, gamma, tridiagonal_solve,
                          weighted_laplacian_fv)
from .sobolev import a_star, critical_exponent, grad_norm_sq

EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny


@dataclass(frozen=True)
class MinimizeOptions:
    tol: float = 1e-13          # on the componentwise backward error
    max_iter: int = 50000
    raise_on_failure: bool = True


@dataclass(frozen=True)
class MinimizerReport:
    A: float
    q: float
    d_prime: float
    lam: float
    c: float
    minimizer: ScalarField
    i_value: float
    el_residual_norm: float
    constancy: float
    iterations: int
    converged: bool
    backward_error: float
    newton_steps: int
    backtracks: int             # Armijo halvings, summed over iterations


@dataclass(frozen=True)
class RigidityEntry:
    """One scan point: the minimizer plus the two rigidity terms.

    identity_terms are the three integrals of the Gamma_2 identity
    (``gamma2_identity_terms``) at the pressure function, and the two terms
    are derived from them: term_cd, the CD-positive part, and term_gap, which
    carries the coefficient (rho - c/d') that changes sign at A*.  They sum
    to the signed identity residual, ~0 at converged Euler-Lagrange solutions.
    """
    report: MinimizerReport
    A_over_a_star: float
    term_cd: float
    term_gap: float
    identity_terms: tuple[float, float, float]

    @property
    def identity_residual(self) -> float:
        """|int (Gamma_2(Phi) - (L Phi)^2/d' - (c/d') Gamma(Phi)) Phi^{1-d'}|."""
        t_g2, t_lap, t_gam = self.identity_terms
        return abs(t_g2 - t_lap - t_gam)

    @property
    def identity_scale(self) -> float:
        return max(*(abs(t) for t in self.identity_terms), 1.0)

    @property
    def identity_rel(self) -> float:
        """The identity residual relative to its largest term (at least 1)."""
        return self.identity_residual / self.identity_scale


def subcritical_params(A: float, q: float) -> tuple[float, float, float]:
    """(d', lambda, c) for the pressure equation at (A, q)."""
    d_prime = critical_exponent(q)
    lam = (q - 2.0) / (2.0 * A)
    c = 2.0 * lam * (d_prime - 1.0)
    return d_prime, lam, c


def el_solution(v: np.ndarray, i_value: float, q: float) -> np.ndarray:
    """I^{1/(q-2)} v: a minimizer rescaled to solve -A L v + v = v^{q-1}."""
    return i_value ** (1.0 / (q - 2.0)) * v


def _check_subcritical(space: ModelSpace, q: float):
    qc = critical_exponent(space.n)
    if not 2.0 < q < qc:
        raise InvalidExponent(f"q = {q} outside the subcritical range (2, {qc})")


def _newton_step(wh_bands, w, q, v, r, cgrad, kappa):
    """The bordered Newton step (dv, dv.H dv) at v >= 0, or (None, 0.0) on
    a singular H.  ``wh_bands`` are the bands of W^{-1} H without its term
    in v.  With a = -H^{-1} r, H^{-1} grad C = -(a + v) / (kappa (q-2)), and
    C(v) = grad C.v / q as C is q-homogeneous."""
    lower, diag0, upper = wh_bands
    diag = diag0 - kappa * q * (q - 1.0) * v ** (q - 2.0)
    try:
        a = tridiagonal_solve(lower, diag, upper, -r / w)
    except SingularMatrix:
        return None, 0.0
    b = a + v
    t = (1.0 - cgrad @ (v / q + a)) / (cgrad @ b)
    dv = a + t * b
    # H dv = -kappa (q-2) t grad C - r: dv.H dv needs no product with H
    return dv, float(dv @ (-kappa * (q - 2.0) * t * cgrad - r))


def minimize_subcritical(space: ModelSpace, A: float, q: float,
                         init: ScalarField,
                         opts: MinimizeOptions | None = None) -> MinimizerReport:
    """Minimize A ||grad v||^2 + ||v||^2 on the sphere {||v||_q = 1}.

    One loop on r = grad E - kappa grad C (C = sum w v^q, kappa by least
    squares) stops once the componentwise backward error (Oettli-Prager)
    beta = max_i |r_i| / (2A|S||v| + 2w|v| + |kappa| q w |v|^{q-1})_i, whose
    roundoff floor does not grow with N, is at most ``opts.tol`` in (0, 1).
    It steps by bordered Newton (one solve H a = -r on the tridiagonal
    Hessian H, with H^{-1} grad C along a + v) when r.dv < 0 < dv.H dv,
    else by -M^{-1} r, M = 2A S + 2W, which keeps it off saddles such as
    the constant below the bifurcation.  An Armijo search on the energy of
    the projected iterate (|v|, renormalized) globalizes both.  The energy
    resolves no decrease where none is found down to t = 1e-8, or where the
    predicted one, |r.dv|/2, is at most the error bound
    eps (A v.|S|v + w.v^2) of its sums and no search runs; there the whole
    Newton step is taken if it lowers beta.
    """
    opts = opts or MinimizeOptions()
    if not 0.0 < A < np.inf:
        raise InvalidParameter(f"A = {A} must be positive and finite")
    _check_subcritical(space, q)
    _check_same_space(space, init)
    with np.errstate(over="ignore"):
        moment = float(np.dot(space.quad_weights, np.abs(init.values) ** q))
    if not 0.0 < moment < np.inf:  # the projection divides by its q-th root
        raise InvalidParameter(f"init must have 0 < int |v|^q dnu < inf, "
                               f"got {moment}")
    if opts.max_iter < 1:
        raise InvalidParameter(f"max_iter = {opts.max_iter} must be >= 1")
    if not 0.0 < opts.tol < 1.0:  # beta <= 1, since |r_i| <= scale_i
        raise InvalidParameter(f"tol = {opts.tol} must be in (0, 1)")

    w = space.quad_weights
    w2, qw = 2.0 * w, q * w
    bands = fv_stiffness(space)
    abs_bands = tuple(np.abs(band) for band in bands)
    main, off = ((2.0 * A) * band for band in bands)
    pdiag = main + w2  # of the preconditioner M

    def point(x):
        """The projected iterate v = |x| / ||x||_q, its energy, S v, w.v^2."""
        v = np.abs(x)
        v = v / np.dot(w, v ** q) ** (1.0 / q)
        sv = apply_stiffness(bands, v)
        wv2 = np.dot(w, v * v)
        return v, float(A * (v @ sv) + wv2), sv, wv2

    def stationarity(v, sv, wv2):
        """(r, grad C, kappa, energy roundoff floor, beta) at v >= 0."""
        grad = 2.0 * (A * sv + w * v)
        cgrad = qw * v ** (q - 1.0)
        kappa = float(np.dot(grad, cgrad) / np.dot(cgrad, cgrad))
        r = grad - kappa * cgrad
        abs_r = np.abs(r)
        abs_sv = apply_stiffness(abs_bands, v)
        scale = (2.0 * A) * abs_sv + w2 * v + abs(kappa) * cgrad
        floor = EPS * (A * (v @ abs_sv) + wv2)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = abs_r / scale
        # a cell whose residual underflows (0 included, where v vanishes
        # around it) is exact: there r_i and its scale are roundoff alone
        ratio[abs_r < TINY] = 0.0
        return r, cgrad, kappa, floor, float(ratio.max())

    # H is solved in the rows of W^{-1} H, which share the scale of -2A L:
    # on H itself pivoting swaps the tiny pole rows and loses the pole cells
    wh_bands = off / w[1:], main / w + 2.0, off / w[:-1]

    v, e, sv, wv2 = point(init.values)
    state = stationarity(v, sv, wv2)
    newton_steps = backtracks = 0
    for it in range(opts.max_iter + 1):
        r, cgrad, kappa, floor, beta = state
        if beta <= opts.tol or it == opts.max_iter:
            break
        newton, curvature = _newton_step(wh_bands, w, q, v, r, cgrad, kappa)
        is_newton = newton is not None and bool(r @ newton < 0.0 < curvature)
        step = newton if is_newton else -tridiagonal_solve(off, pdiag, off, r)
        slope = float(r @ step)
        # roundoff allowance: near the poles a genuine pointwise residual can
        # carry an energy decrease below the quadrature's roundoff floor
        slack = 1e-15 * (1.0 + abs(e))
        t, eu = 1.0, e
        while -0.5 * slope > floor and t >= 1e-8:  # Armijo, halving t
            u, eu, su, wv2 = point(v + t * step)
            if eu <= e + 1e-4 * t * slope + slack:
                break
            t *= 0.5
            backtracks += 1
        fall_back = t < 1e-8 or eu >= e
        if fall_back:
            # the energy resolves no decrease: keep the whole Newton step
            # only if it brings the iterate closer to stationarity
            if newton is None:
                break
            u, eu, su, wv2 = point(v + newton)
        state = stationarity(u, su, wv2)
        if fall_back and not state[4] < beta:
            break
        v, e = u, eu
        newton_steps += is_newton or fall_back

    converged = beta <= opts.tol
    if not converged and opts.raise_on_failure:
        raise NoConvergence(f"minimizer: backward error {beta:.3e} > "
                            f"{opts.tol:.1e} after {it} steps")

    vf = space.field(v)
    i_value = A * grad_norm_sq(space, vf) + _quadrature(space, v * v)
    d_prime, lam, c = subcritical_params(A, q)
    u = el_solution(v, i_value, q)
    el = -A * weighted_laplacian_fv(space)(u) + u - u ** (q - 1.0)
    mean = float(np.dot(w, v))
    constancy = (v.max() - v.min()) / mean if mean > 0 else np.inf
    return MinimizerReport(A=A, q=q, d_prime=d_prime, lam=lam, c=c,
                           minimizer=vf, i_value=i_value,
                           el_residual_norm=float(np.abs(el).max()),
                           constancy=float(constancy), iterations=it,
                           converged=converged, backward_error=beta,
                           newton_steps=newton_steps, backtracks=backtracks)


def pressure_transform(v: ScalarField, q: float) -> ScalarField:
    """Phi = v^{-(q-2)/2}; requires v > 0 pointwise."""
    if v.min() <= 0.0:
        raise NonPositiveField("pressure transform needs v > 0")
    return v.space.field(v.values ** (-(q - 2.0) / 2.0))


def pressure_pde_residual(space: ModelSpace, phi: ScalarField,
                          d_prime: float, lam: float) -> float:
    """sup | Phi L Phi - (d'/2) Gamma(Phi) + lambda (Phi^2 - 1) |."""
    if phi.min() <= 0.0:
        raise NonPositiveField("pressure field must be positive")
    lphi = apply_L(space, phi).values
    gphi = gamma(space, phi, phi).values
    res = phi.values * lphi - 0.5 * d_prime * gphi \
        + lam * (phi.values ** 2 - 1.0)
    return float(np.abs(res).max())


def gamma2_identity_terms(space: ModelSpace, phi: ScalarField,
                          d_prime: float, c: float) -> tuple[float, float, float]:
    """The three integrals of the Gamma_2 identity, individually."""
    _check_same_space(space, phi)
    if phi.min() <= 0.0:
        raise NonPositiveField("pressure field must be positive")
    weight = phi.values ** (1.0 - d_prime)
    lphi, g, g2 = _gamma_terms(space, phi.values)
    return (_quadrature(space, g2 * weight),
            _quadrature(space, lphi ** 2 / d_prime * weight),
            _quadrature(space, c / d_prime * g * weight))


def rigidity_terms(space: ModelSpace, report: MinimizerReport):
    """Split the Gamma_2 identity at a minimizer into its two rigidity terms.

    Uses the subcritical exponent d' = 2q/(q-2) as the dimension parameter
    (rather than its critical limit n).  With G = int Gamma(Phi) Phi^{1-d'},
    term_cd = t_Gamma2 - t_L - rho G and term_gap = (rho - c/d') G, so the
    two sum to the identity.  Returns (term_cd, term_gap, identity_terms).
    """
    d_prime, c, rho = report.d_prime, report.c, space.rho
    v = el_solution(report.minimizer.values, report.i_value, report.q)
    identity = gamma2_identity_terms(
        space, pressure_transform(space.field(v), report.q), d_prime, c)
    t_g2, t_lap, t_gam = identity
    g = t_gam * d_prime / c
    return t_g2 - t_lap - rho * g, (rho - c / d_prime) * g, identity


def rigidity_scan(space: ModelSpace, q: float, a_values,
                  init: ScalarField | None = None,
                  opts: MinimizeOptions | None = None) -> list[RigidityEntry]:
    """Minimize at each A (ascending) and report the rigidity diagnostics."""
    _check_subcritical(space, q)
    a_values = [float(a) for a in a_values]
    if not a_values or sorted(a_values) != a_values:
        raise InvalidConfig("a_values must be nonempty and sorted ascending")
    if init is None:
        init = space.field(1.0 + 0.4 * np.cos(space.grid))
    astar = a_star(critical_exponent(q), space.rho)
    out = []
    for A in a_values:
        rep = minimize_subcritical(space, A, q, init, opts)
        t_cd, t_gap, identity = rigidity_terms(space, rep)
        out.append(RigidityEntry(
            report=rep, A_over_a_star=A / astar, term_cd=t_cd,
            term_gap=t_gap, identity_terms=identity))
    return out


def critical_limit_sweep(space: ModelSpace, q_list,
                         opts: MinimizeOptions | None = None):
    """Track A*(d'(q)) as q increases toward the critical exponent.

    For each strictly subcritical q the sharp threshold A*(d') is evaluated
    and the minimization at A = A*(d') is run to confirm I(A) = 1 with a
    constant minimizer.  With at least two entries the limit of A*(d'(q))
    at the critical exponent is Richardson-extrapolated (linear in the
    distance to the critical exponent, using the last two points).

    Returns (table, extrapolated_value_or_None, warnings).
    """
    qc = critical_exponent(space.n)
    q_list = [float(q) for q in q_list]
    if not q_list or any(a >= b for a, b in zip(q_list, q_list[1:])):
        raise InvalidConfig("q_list must be nonempty and strictly ascending")
    for q in q_list:
        _check_subcritical(space, q)
    init = space.field(1.0 + 0.4 * np.cos(space.grid))
    table = []
    for q in q_list:
        d_prime = critical_exponent(q)
        astar = a_star(d_prime, space.rho)
        rep = minimize_subcritical(space, astar, q, init, opts)
        table.append({"q": q, "d_prime": d_prime, "a_star": astar,
                      "i_value": rep.i_value, "constancy": rep.constancy,
                      "converged": rep.converged})
    warnings = []
    if len(q_list) < 2:
        warnings.append("single q entry: no extrapolation performed")
        return table, None, warnings
    e0, e1 = qc - q_list[-2], qc - q_list[-1]
    a0, a1 = table[-2]["a_star"], table[-1]["a_star"]
    extrapolated = (a1 * e0 - a0 * e1) / (e0 - e1)
    return table, extrapolated, warnings
