"""Subcritical variational problem, pressure equation and rigidity scan.

For A > 0 and a strictly subcritical exponent q we minimize

    I(A) = inf { A ||grad v||_2^2 + ||v||_2^2 : ||v||_q = 1, v in H^1 }

by preconditioned projected gradient descent, with an absolute-value
positivity projection and renormalization after every step.  A converged
minimizer v is rescaled by mu^{1/(q-2)} (mu the Lagrange multiplier, equal
to the minimum value) so that it solves -A L v + v = v^{q-1} cleanly.

The pressure function Phi = v^{-(q-2)/2} then satisfies

    Phi L Phi - (d'/2) Gamma(Phi) = -lambda (Phi^2 - 1),
    d' = 2q/(q-2),  lambda = (q-2)/(2A),

and the integral identity

    int (Gamma_2(Phi) - (L Phi)^2/d' - (c/d') Gamma(Phi)) Phi^{1-d'} dnu = 0,
    c = 2 lambda (d'-1),

both of which are exposed as residual evaluators.  ``rigidity_scan`` sweeps
A across the sharp threshold A* = 4(d'-1)/(d'(d'-2) rho) and reports the
three-term rigidity decomposition at each minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (InvalidConfig, InvalidExponent, InvalidParameter,
                     NoConvergence, NonPositiveField)
from .model_space import (ModelSpace, ScalarField, apply_L, apply_stiffness,
                          fv_stiffness, gamma, gamma2, integrate,
                          tridiagonal_solver)
from .sobolev import a_star, critical_exponent, grad_norm_sq


@dataclass(frozen=True)
class MinimizeOptions:
    grad_tol: float = 1e-9      # on the sup-norm of the projected gradient
    max_iter: int = 50000
    raise_on_failure: bool = True
    record_energy: bool = False


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
    energy_trace: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "A": self.A, "q": self.q, "d_prime": self.d_prime,
            "lambda": self.lam, "c": self.c, "i_value": self.i_value,
            "el_residual_norm": self.el_residual_norm,
            "constancy": self.constancy, "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class RigidityEntry:
    """One scan point: the minimizer plus the three rigidity-identity terms.

    term_cd + term_gap + term_f sums to ~0 for converged Euler-Lagrange
    solutions when f is constant; term_cd is the CD-positive part, term_gap
    carries the coefficient (rho - c/d') that flips sign at A*, and term_f is
    the monotone-f contribution.  identity_terms are the three integrals of
    the Gamma_2 identity (``gamma2_identity_terms``) at the pressure function.
    """
    report: MinimizerReport
    A_over_a_star: float
    term_cd: float
    term_gap: float
    term_f: float
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


def _newton_polish(bands, w, A, q, v, kappa, tol_abs, max_steps=12):
    """Drive the constrained stationarity system to machine precision.

    Solves 2(A S + W) v = kappa q W v^{q-1}, sum w v^q = 1 by a bordered
    Newton iteration.  Run only after the descent phase has localized the
    minimizer; takes over where energy comparisons drown in roundoff.  The
    bordered system [[H, -g], [g^T, 0]], g = q w v^{q-1}, is solved by block
    elimination on the tridiagonal H: H [a b] = [-res_v, g], then
    dv = a + b dkappa.
    """
    main, off, corner = ((2.0 * A) * band for band in bands)
    best_v, best_kappa, best_res = v, kappa, np.inf
    for _ in range(max_steps):
        cg = q * w * v ** (q - 1.0)
        grad = 2.0 * (A * apply_stiffness(bands, v) + w * v)
        res_v = grad - kappa * cg
        res_c = np.dot(w, v ** q) - 1.0
        res = max(float(np.abs(res_v / w).max()), abs(res_c))
        if res < best_res:
            best_v, best_kappa, best_res = v, kappa, res
        if res < tol_abs or res > 10.0 * best_res:
            break
        diag = main + (2.0 * w - kappa * q * (q - 1.0) * w * v ** (q - 2.0))
        a, b = tridiagonal_solver(off, diag, off, (corner, corner))(
            np.column_stack([-res_v, cg])).T
        d_kappa = (-res_c - np.dot(cg, a)) / np.dot(cg, b)
        v = v + (a + d_kappa * b)
        kappa = kappa + d_kappa
        if v.min() <= 0.0:
            break
    return best_v, best_kappa, best_res


def minimize_subcritical(space: ModelSpace, A: float, q: float,
                         init: ScalarField,
                         opts: MinimizeOptions | None = None) -> MinimizerReport:
    """Minimize A ||grad v||^2 + ||v||^2 on the sphere {||v||_q = 1}."""
    opts = opts or MinimizeOptions()
    if A <= 0.0:
        raise InvalidParameter(f"A = {A} must be positive")
    qc = critical_exponent(space.n)
    if not (2.0 < q < qc):
        raise InvalidExponent(f"q = {q} outside the subcritical range (2, {qc})")
    if np.abs(init.values).max() == 0.0:
        raise InvalidParameter("init must be positive somewhere")
    if opts.max_iter < 1:
        raise InvalidParameter(f"max_iter = {opts.max_iter} must be >= 1")

    w = space.quad_weights
    bands = fv_stiffness(space)
    main, off, corner = ((2.0 * A) * band for band in bands)
    # the preconditioner M = 2A S + 2W stays on SuperLU (a zero corner adds
    # no entry): the descent is chaotic at roundoff, and M factored by
    # tridiagonal_solver takes the N=2048, A=0.05 scan point from about a
    # hundred iterations to the 50,000 cap
    solve = spla.splu(sp.diags([off, main + 2.0 * w, off, [corner], [corner]],
                               [-1, 0, 1, len(w) - 1, 1 - len(w)],
                               format="csc")).solve

    def energy(v):
        return float(A * (v @ apply_stiffness(bands, v)) + np.dot(w, v * v))

    def project(v):
        v = np.abs(v)
        nrm = np.dot(w, v ** q) ** (1.0 / q)
        return v / nrm

    v = project(init.values)
    e = energy(v)
    trace = [e] if opts.record_energy else None
    converged = False
    it = 0
    for it in range(1, opts.max_iter + 1):
        grad = 2.0 * (A * apply_stiffness(bands, v) + w * v)
        cgrad = q * w * v ** (q - 1.0)
        coef = float(np.dot(grad, cgrad) / np.dot(cgrad, cgrad))
        pg = grad - coef * cgrad
        pg_sup = float(np.abs(pg / w).max())
        if pg_sup < opts.grad_tol * (1.0 + abs(e)):
            converged = True
            break
        direction = solve(pg)
        slope = float(np.dot(pg, direction))
        t = 1.0  # backtrack from the unit step, halving
        accepted = False
        # roundoff allowance: near the poles a genuine pointwise residual can
        # carry an energy decrease below the quadrature's roundoff floor
        slack = 1e-15 * (1.0 + abs(e))
        while t > 1e-14:
            u = project(v - t * direction)
            eu = energy(u)
            if eu <= e - 1e-4 * t * slope + slack:  # Armijo
                accepted = True
                break
            t *= 0.5
        if not accepted or (t < 1e-8 and eu >= e):
            break  # energy signal below roundoff: hand off to the polish
        v, e = u, eu
        if trace is not None:
            trace.append(e)

    if not converged:
        # Newton iteration on the stationarity system takes over where the
        # line search drowns in quadrature roundoff (the projected-gradient
        # sup-norm weights the pole cells by ~1/w and stalls near 1e-6
        # while energy differences are already below machine precision).
        grad = 2.0 * (A * apply_stiffness(bands, v) + w * v)
        cgrad = q * w * v ** (q - 1.0)
        kappa = float(np.dot(grad, cgrad) / np.dot(cgrad, cgrad))
        v_new, kappa, res = _newton_polish(
            bands, w, A, q, v, kappa, opts.grad_tol * (1.0 + abs(e)))
        if res < pg_sup:
            v, pg_sup = v_new, res
            e = energy(v)
            if trace is not None:
                trace.append(e)
        converged = pg_sup < opts.grad_tol * (1.0 + abs(e))

    if not converged and opts.raise_on_failure:
        raise NoConvergence(
            f"projected gradient descent: {opts.max_iter} iterations, "
            f"residual {pg_sup:.3e}")

    vf = space.field(v)
    i_value = A * grad_norm_sq(space, vf) + integrate(space, space.field(v * v))
    d_prime, lam, c = subcritical_params(A, q)
    w_resc = el_solution(v, i_value, q)
    el = -A * apply_L(space, space.field(w_resc)).values + w_resc \
        - w_resc ** (q - 1.0)
    mean = float(np.dot(w, v))
    constancy = (v.max() - v.min()) / mean if mean > 0 else np.inf
    return MinimizerReport(A=A, q=q, d_prime=d_prime, lam=lam, c=c,
                           minimizer=vf, i_value=i_value,
                           el_residual_norm=float(np.abs(el).max()),
                           constancy=float(constancy), iterations=it,
                           converged=converged,
                           energy_trace=tuple(trace) if trace else ())


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
    if phi.min() <= 0.0:
        raise NonPositiveField("pressure field must be positive")
    weight = phi.values ** (1.0 - d_prime)
    g2 = gamma2(space, phi).values
    lphi = apply_L(space, phi).values
    g = gamma(space, phi, phi).values
    t_g2 = integrate(space, space.field(g2 * weight))
    t_lap = integrate(space, space.field(lphi ** 2 / d_prime * weight))
    t_gam = integrate(space, space.field(c / d_prime * g * weight))
    return t_g2, t_lap, t_gam


def gamma2_identity_residual(space: ModelSpace, phi: ScalarField,
                             d_prime: float, c: float) -> float:
    """|int (Gamma_2(Phi) - (L Phi)^2/d' - (c/d') Gamma(Phi)) Phi^{1-d'} dnu|."""
    if d_prime <= 2.0:
        raise InvalidParameter("d' must exceed 2")
    t_g2, t_lap, t_gam = gamma2_identity_terms(space, phi, d_prime, c)
    return abs(t_g2 - t_lap - t_gam)


# nonincreasing C^1 right-hand-side families f(v) for the rigidity scan
def make_f_spec(kind: str, s: float = 0.0):
    """Return (f, f') callables: constant 1, or f(v) = (1+v)^{-s}, s >= 0."""
    if kind == "constant":
        return (lambda v: np.ones_like(v)), (lambda v: np.zeros_like(v))
    if kind == "inverse_power":
        if s < 0.0:
            raise InvalidConfig("inverse_power needs s >= 0")
        return (lambda v: (1.0 + v) ** (-s)),  \
               (lambda v: -s * (1.0 + v) ** (-s - 1.0))
    raise InvalidConfig(f"unknown f_spec kind {kind!r}")


def rigidity_terms(space: ModelSpace, report: MinimizerReport, f_prime):
    """Evaluate the three-term rigidity decomposition at a minimizer.

    Uses the subcritical exponent d' = 2q/(q-2) as the dimension parameter
    (rather than its critical limit n), so that for constant f the three
    terms recombine into the Gamma_2 integral identity and sum to ~0 at
    every converged solution.  Returns (term_cd, term_gap, term_f,
    identity_terms), the last from ``gamma2_identity_terms`` at the same
    pressure function Phi.
    """
    d_prime, lam, c = report.d_prime, report.lam, report.c
    v = el_solution(report.minimizer.values, report.i_value, report.q)
    vf = space.field(v)
    phi = pressure_transform(vf, report.q)
    weight = space.field(phi.values ** (1.0 - d_prime))
    g2 = gamma2(space, phi).values
    g = gamma(space, phi, phi).values
    lphi = apply_L(space, phi).values
    rho = space.rho
    term_cd = integrate(space, space.field(
        (g2 - rho * g - lphi ** 2 / d_prime) * weight.values))
    term_gap = (rho - c / d_prime) * integrate(
        space, space.field(g * weight.values))
    term_f = lam * integrate(space, space.field(
        f_prime(v) * phi.values ** 2
        * gamma(space, vf, weight).values))
    return term_cd, term_gap, term_f, gamma2_identity_terms(space, phi,
                                                            d_prime, c)


def rigidity_scan(space: ModelSpace, q: float, a_values,
                  f_spec: dict | None = None,
                  init: ScalarField | None = None,
                  opts: MinimizeOptions | None = None) -> list[RigidityEntry]:
    """Minimize at each A (ascending) and report the rigidity diagnostics."""
    a_values = [float(a) for a in a_values]
    if not a_values or sorted(a_values) != a_values:
        raise InvalidConfig("a_values must be nonempty and sorted ascending")
    f_spec = f_spec or {"kind": "constant"}
    _, f_prime = make_f_spec(f_spec["kind"], float(f_spec.get("s", 0.0)))
    if init is None:
        init = space.field(1.0 + 0.4 * np.cos(space.grid))
    astar = a_star(critical_exponent(q), space.rho)
    out = []
    for A in a_values:
        rep = minimize_subcritical(space, A, q, init, opts)
        t_cd, t_gap, t_f, identity = rigidity_terms(space, rep, f_prime)
        out.append(RigidityEntry(
            report=rep, A_over_a_star=A / astar, term_cd=t_cd,
            term_gap=t_gap, term_f=t_f, identity_terms=identity))
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
    if not q_list or sorted(q_list) != q_list:
        raise InvalidConfig("q_list must be nonempty and sorted ascending")
    for q in q_list:
        if not (2.0 < q < qc):
            raise InvalidExponent(
                f"q = {q} is not strictly subcritical (need 2 < q < {qc})")
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
