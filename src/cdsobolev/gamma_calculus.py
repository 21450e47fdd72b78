"""Pointwise curvature-dimension certification and Bochner diagnostics.

The CD(rho, n) condition is the pointwise inequality

    Gamma_2(f) >= rho * Gamma(f) + (Lf)^2 / n,

checked here on every grid node.  At every real n the Gamma_2 field of
L f = f'' + (n-1) cot(theta) f' decomposes into the squared radial Hessian
norm plus the Ricci term; ``bochner_residual`` measures how well the
discrete operators reproduce that decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model_space import (ModelSpace, ScalarField, _check_same_space, _diff1,
                          _diff2, _gamma_terms, _with_ghosts, gamma2)

# cells dropped at each pole when taking interior sup-norms; the composed
# Gamma_2 stencil touches two ghost layers there
INTERIOR_MARGIN = 2


@dataclass(frozen=True)
class GammaReport:
    """Pointwise Gamma, Gamma_2, L values and the CD(rho, n) margin."""

    gamma_field: ScalarField
    gamma2_field: ScalarField
    l_field: ScalarField
    cd_margin_field: ScalarField
    cd_margin_min: float


def cd_margin(space: ModelSpace, f: ScalarField) -> GammaReport:
    """Evaluate Gamma_2(f) - rho*Gamma(f) - (Lf)^2/n on every node, with the
    space's own curvature data rho and n."""
    _check_same_space(space, f)
    lf, gf, g2f = _gamma_terms(space, f.values)
    margin = g2f - space.rho * gf - lf ** 2 / space.n
    return GammaReport(gamma_field=space.field(gf),
                       gamma2_field=space.field(g2f), l_field=space.field(lf),
                       cd_margin_field=space.field(margin),
                       cd_margin_min=float(margin.min()))


def _radial_hessian_terms(space: ModelSpace, f: ScalarField):
    p = _with_ghosts(f.values)
    fp = _diff1(space, p)
    fpp = _diff2(space, p)
    cot = 1.0 / np.tan(space.grid)
    return fp, fpp, cot


def bochner_residual(space: ModelSpace, f: ScalarField) -> float:
    """Interior sup-norm of Gamma_2(f) minus its radial Bochner bracket.

    The bracket (f'')^2 + (n-1)(cot f')^2 + (n-1)(f')^2 is the analytic
    Hessian-norm-plus-Ricci form of Gamma_2 for L f = f'' + (n-1) cot f' at
    real n; at n = d it is Bochner's formula for rotationally symmetric
    functions on the unit round d-sphere.  The residual is expected O(h^2).
    """
    _check_same_space(space, f)
    n = space.n
    fp, fpp, cot = _radial_hessian_terms(space, f)
    bracket = fpp ** 2 + (n - 1.0) * (cot * fp) ** 2 + (n - 1.0) * fp ** 2
    resid = gamma2(space, f).values - bracket
    m = INTERIOR_MARGIN
    return float(np.abs(resid[m:-m]).max())


def cauchy_schwarz_margin(space: ModelSpace, f: ScalarField) -> ScalarField:
    """Pointwise ||Hess f||^2 - (L f)^2/n in radial form, at real n; >= 0
    up to roundoff, since it equals ((n-1)/n)(f'' - cot f')^2."""
    _check_same_space(space, f)
    n = space.n
    fp, fpp, cot = _radial_hessian_terms(space, f)
    hess_sq = fpp ** 2 + (n - 1.0) * (cot * fp) ** 2
    lap = fpp + (n - 1.0) * cot * fp
    return space.field(hess_sq - lap ** 2 / n)
