"""Sobolev norms, deficits, sharp constants and the extremal family.

On a space satisfying CD(rho, n) the sharp inequality reads, with q = 2n/(n-2),

    (||v||_q^2 - ||v||_2^2) / (q - 2)  <=  (1/n) ((n-1)/rho) ||grad v||_2^2.

``sobolev_deficit`` returns both sides and their gap; the gap vanishes on
constants and on the family (beta - cos theta)^{-(n-2)/2}, real n included.
``grad_norm_sq`` is v^T S v, the finite-volume form the solvers use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent, InvalidParameter
from .model_space import (ModelSpace, ScalarField, _check_same_space,
                          _dirichlet_form, _quadrature)


@dataclass(frozen=True)
class SobolevReport:
    q: float
    n: float
    rho: float
    lq_norm_sq: float
    l2_norm_sq: float
    grad_norm_sq: float
    lhs: float
    rhs: float
    deficit: float
    deficit_rel: float


def critical_exponent(n: float) -> float:
    """2* = 2n/(n-2), and d'(q) = 2q/(q-2): x -> 2x/(x-2) is an involution."""
    return 2.0 * n / (n - 2.0)


def lq_norm(space: ModelSpace, v: ScalarField, q: float) -> float:
    """(int |v|^q dnu)^(1/q)."""
    if not 1.0 <= q < np.inf:
        raise InvalidExponent(f"q = {q} must be finite and >= 1")
    _check_same_space(space, v)
    mom = _quadrature(space, np.abs(v.values) ** q)
    return float(mom ** (1.0 / q))


def grad_norm_sq(space: ModelSpace, v: ScalarField) -> float:
    """||grad v||_2^2 = int Gamma(v) dnu in finite-volume form, v^T S v."""
    _check_same_space(space, v)
    return _dirichlet_form(space, v.values, v.values)


def sobolev_deficit(space: ModelSpace, v: ScalarField, q: float) -> SobolevReport:
    """Both sides of the sharp inequality at exponent q and their gap."""
    qc = critical_exponent(space.n)
    if not (2.0 < q <= qc):
        raise InvalidExponent(f"q = {q} outside (2, {qc}]")
    lq_sq = lq_norm(space, v, q) ** 2
    l2_sq = _quadrature(space, v.values ** 2)
    gsq = grad_norm_sq(space, v)
    lhs = (lq_sq - l2_sq) / (q - 2.0)
    rhs = (space.n - 1.0) / (space.n * space.rho) * gsq
    deficit = rhs - lhs
    rel = deficit / rhs if rhs > 0.0 else 0.0
    return SobolevReport(q=q, n=space.n, rho=space.rho, lq_norm_sq=lq_sq,
                         l2_norm_sq=l2_sq, grad_norm_sq=gsq, lhs=lhs,
                         rhs=rhs, deficit=deficit, deficit_rel=rel)


def extremal_field(space: ModelSpace, beta: float) -> ScalarField:
    """The extremal profile (beta - cos theta)^(-(n-2)/2) at any n > 2."""
    if not 1.0 + 1e-6 < beta < np.inf:
        raise InvalidParameter(f"beta = {beta} must be finite and > 1 + 1e-6")
    expo = -(space.n - 2.0) / 2.0
    return space.field((beta - np.cos(space.grid)) ** expo)


def a_star(x: float, rho: float) -> float:
    """Sharp rigidity threshold 4(x-1)/(x(x-2) rho) at dimension parameter x."""
    if not (2.0 < x < np.inf and 0.0 < rho < np.inf):
        raise InvalidParameter(f"A* needs finite x > 2 and rho > 0, "
                               f"got x = {x}, rho = {rho}")
    return 4.0 * (x - 1.0) / (x * (x - 2.0) * rho)


def sharp_constants(n: float, rho: float) -> tuple[float, float]:
    """((n-1)/(n rho), 4(n-1)/(n(n-2) rho)): inequality coefficient and A*."""
    astar = a_star(n, rho)  # checks n and rho before the division below
    return (n - 1.0) / (n * rho), astar
