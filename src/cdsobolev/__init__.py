"""Numerical toolkit for sharp Sobolev inequalities under curvature-dimension
conditions: Gamma-calculus on 1-D model spaces, the subcritical variational
problem with its rigidity scan, and entropy gradient flows."""

__version__ = "0.1.0"

from .model_space import (ModelSpace, ScalarField, apply_L, build_space,
                          gamma, gamma2, integrate)
from .gamma_calculus import GammaReport, bochner_residual, cd_margin
from .sobolev import (SobolevReport, critical_exponent, extremal_field,
                      lq_norm, sharp_constants, sobolev_deficit)
from .variational import (MinimizeOptions, MinimizerReport, RigidityEntry,
                          a_star, minimize_subcritical, pressure_transform,
                          rigidity_scan)
from .flows import (FiniteDimProblem, FlowTrace, convexity_inequality_margin,
                    convexity_relation_margin, density_from_field,
                    entropy_inequality_margin, fast_diffusion_flow, fd_flow,
                    renyi_hessian_quadform)

__all__ = [name for name in dir() if not name.startswith("_")]
