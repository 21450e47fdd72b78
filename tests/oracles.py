"""Reference computations that only the tests call.

Each is a literal form of a quantity that the library evaluates another way,
or a residual that certifies a library result: the integration-by-parts
defect of L and Gamma, the pressure equation's residual, condition (2.15),
the Renyi entropy and its Otto norm.  No command or check runs them, so they
live beside the tests, not in ``src/``.
"""

import numpy as np

from cdsobolev.errors import NonPositiveField
from cdsobolev.flows import (FiniteDimProblem, _check_alpha, _check_density,
                             _condition_margin, _otto_grad_norm_sq)
from cdsobolev.model_space import (ModelSpace, ScalarField, _check_same_space,
                                   _quadrature, apply_L, gamma, integrate)


def ibp_residual(space: ModelSpace, u: ScalarField, v: ScalarField) -> float:
    """Discrete integration-by-parts defect, a quality certificate O(h^2).

    Returns max(|int (Lu) v + int Gamma(u,v)|, |int (Lu) v - int u (Lv)|).
    """
    _check_same_space(space, u, v)
    lu_v = _quadrature(space, apply_L(space, u).values * v.values)
    u_lv = _quadrature(space, u.values * apply_L(space, v).values)
    g_uv = integrate(space, gamma(space, u, v))
    return max(abs(lu_v + g_uv), abs(lu_v - u_lv))


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


def condition_215_margin(problem: FiniteDimProblem, x):
    """grad F . Hess F grad F + rho grad F . grad G at one point or each row
    of a batch (>= 0 required)."""
    x = np.asarray(x, dtype=float)
    return _condition_margin(problem, x, problem.grad_F(x))


def renyi_entropy(space: ModelSpace, mu: ScalarField, alpha: float) -> float:
    """R_alpha(mu) = (1/(alpha(alpha-1))) int mu^alpha dnu."""
    _check_alpha(alpha)
    _check_density(space, mu)
    return float(np.dot(space.quad_weights, mu.values ** alpha)
                 / (alpha * (alpha - 1.0)))


def renyi_grad_norm_sq(space: ModelSpace, mu: ScalarField,
                       alpha: float) -> float:
    """Squared Otto norm of grad R_alpha: int Gamma(Phi) mu dnu."""
    _check_alpha(alpha)
    _check_density(space, mu)
    return _otto_grad_norm_sq(space, mu.values, alpha)
