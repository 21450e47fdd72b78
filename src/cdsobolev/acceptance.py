"""Quantitative acceptance checks for the whole toolkit.

Thirteen named checks certify the headline properties end to end: sharp
constants, deficit positivity over randomized corpora, extremal saturation,
the pointwise curvature-dimension margin, the rigidity threshold of the
subcritical minimization, the integral identity, gradient-flow decay rates,
the fast-diffusion dissipation structure, the Otto Hessian formula, the
entropy-Sobolev equivalence, the critical-limit extrapolation, and
byte-level determinism of all artifacts.  ``run_full_suite`` executes every
check, writes CSV/JSON/SVG artifacts, and emits a manifest enumerating the
checks one-to-one.

Each CLI command runs one function here (its suite check where it has one,
else ``run_<command>``) under ``run_command``, so every artifact has one
writer.  Every check takes the directory it writes into and always writes;
the library modules only compute, this module decides what each artifact
contains, and ``reporting`` fixes its bytes.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .flows import (FiniteDimProblem, convexity_inequality_margin,
                    density_from_field, entropy_inequality_margin,
                    fast_diffusion_flow, fd_flow, hessian_second_derivative,
                    renyi_hessian_quadform)
from .gamma_calculus import bochner_residual, cauchy_schwarz_margin, cd_margin
from .model_space import ModelSpace, _quadrature, build_space, integrate
from .reporting import write_csv, write_field_csv, write_json, write_svg
from .sobolev import (a_star, critical_exponent, extremal_field, lq_norm,
                      sharp_constants, sobolev_deficit)
from .variational import (MinimizeOptions, critical_limit_sweep,
                          minimize_subcritical, rigidity_scan)

CHECK_NAMES = [
    "sharp_constants",
    "deficit_positivity_sphere",
    "extremal_saturation",
    "cd_equality_witness",
    "deficit_positivity_jacobi",
    "rigidity_threshold",
    "integral_identity",
    "finite_dim_decay",
    "fast_diffusion_flow",
    "hessian_formula",
    "entropy_sobolev_equivalence",
    "critical_limit",
    "determinism",
]

# the critical-limit sweep's q, approaching 2* = 6 on the sphere d=3
CRITICAL_Q = (5.0, 5.5, 5.8, 5.95)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


# ---------------------------------------------------------------------------
# artifact writers shared by several checks
# ---------------------------------------------------------------------------

def _write_gamma_fields(path: str, space: ModelSpace, rep) -> None:
    """The Gamma, Gamma_2, L and CD-margin fields of a GammaReport."""
    write_field_csv(path, space, {
        "gamma": rep.gamma_field, "gamma2": rep.gamma2_field,
        "Lphi": rep.l_field, "cd_margin": rep.cd_margin_field})


def write_flow_csv(path: str, trace) -> None:
    """The time series of a fast-diffusion FlowTrace."""
    write_csv(path, ["t", "entropy", "grad_norm_sq", "companion_entropy",
                     "dissipation_residual", "sup_dist", "mass"],
              np.column_stack([trace.times, trace.entropy, trace.grad_norm_sq,
                               trace.companion, trace.dissipation_residual,
                               trace.sup_distance, trace.mass]))


def write_manifest(out_dir: str, config: dict, checks, timing: dict) -> dict:
    """Write the wall-clock sidecar, then the manifest; return the manifest.

    Timings stay out of the manifest so that it is byte-reproducible.
    """
    manifest = {
        "tool_version": __version__,
        "config": config,
        "checks": [asdict(c) for c in checks],
        "status": "pass" if all(c.passed for c in checks) else "fail",
        "timing_file": "timing.json",
    }
    write_json(os.path.join(out_dir, "timing.json"), timing)
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def run_command(experiment, out_dir: str, config: dict, kwargs: dict) -> dict:
    """Run ``experiment(out_dir, **kwargs)``, which returns its CheckResults
    or (``run_full_suite``) its own manifest; return the manifest."""
    t0 = time.perf_counter()
    result = experiment(out_dir, **kwargs)
    if isinstance(result, dict):
        return result
    return write_manifest(
        out_dir, config, [result] if isinstance(result, CheckResult)
        else result, {"wall_clock_seconds": time.perf_counter() - t0})


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def trig_poly_field(space: ModelSpace, rng: np.random.Generator,
                    degree: int = 4, amplitude: float = 0.9):
    """Random positive even trigonometric polynomial 1 + a * p / sup|p|.

    Cosine-only modes keep the field smooth as a zonal function (vanishing
    derivative at both poles), matching the reflection closure of the
    discrete operators.
    """
    return _trig_poly(space, rng, _cosine_modes(space, degree), amplitude)


def _cosine_modes(space: ModelSpace, degree: int) -> list:
    """cos(k theta), k = 1..degree: the modes a corpus's fields share."""
    return [np.cos(k * space.grid) for k in range(1, degree + 1)]


def _trig_poly(space: ModelSpace, rng, modes, amplitude: float):
    """``trig_poly_field`` of degree len(modes), from precomputed modes."""
    coeffs = rng.uniform(-1.0, 1.0, len(modes))
    p = np.zeros(space.resolution)
    for c, mode in zip(coeffs, modes):
        p += c * mode
    sup = float(np.abs(p).max())
    if sup > 0.0:
        p = p / sup
    return space.field(1.0 + amplitude * p)


def _spheres(resolution: int):
    """The radial spheres d = 3, 4, 5 of the sphere corpora."""
    return [build_space("sphere_radial", d, float(d), resolution)
            for d in (3, 4, 5)]


def _corpus(spaces, count, seed):
    """(index, space, field) of a seeded trig-polynomial corpus."""
    rng = np.random.default_rng(seed)
    modes = [_cosine_modes(space, 4) for space in spaces]
    for i in range(count):
        k = i % len(spaces)
        yield i, spaces[k], _trig_poly(spaces[k], rng, modes[k], 0.9)


def _cosine_density(space: ModelSpace):
    """The flows' start density 1 + cos(theta)/2, normalized to mass 1."""
    raw = 1.0 + 0.5 * np.cos(space.grid)
    return space.field(raw / _quadrature(space, raw))


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_sharp_constants(out_dir) -> CheckResult:
    """Closed-form constants at (n, rho) = (3, 2) and (4, 3), exactly."""
    got = {"n3_rho2": sharp_constants(3.0, 2.0),
           "n4_rho3": sharp_constants(4.0, 3.0)}
    want = {"n3_rho2": (1.0 / 3.0, 4.0 / 3.0),
            "n4_rho3": (1.0 / 4.0, 1.0 / 2.0)}
    err = max(abs(g - e) for k in got for g, e in zip(got[k], want[k]))
    write_json(os.path.join(out_dir, "sharp_constants.json"), {
        k: {"coefficient": got[k][0], "a_star": got[k][1]} for k in got})
    return CheckResult("sharp_constants", err == 0.0, err, 0.0,
                       "coefficient (n-1)/(n rho) and threshold "
                       "4(n-1)/(n(n-2) rho) at two parameter points")


def _deficit_positivity(family, label, spaces, count, seed,
                        out_dir) -> CheckResult:
    """deficit_positivity_<family>: the least deficit/(1+rhs) at the critical
    exponent over a corpus, every sample written to deficit_<family>.csv."""
    rows = []
    for i, space, v in _corpus(spaces, count, seed):
        rep = sobolev_deficit(space, v, critical_exponent(space.n))
        rows.append((i, space.kind, space.d, space.n, rep.deficit, rep.rhs,
                     rep.deficit / (1.0 + rep.rhs)))
    write_csv(os.path.join(out_dir, f"deficit_{family}.csv"),
              ["index", "kind", "d", "n", "deficit", "rhs",
               "deficit_over_scale"], rows)
    worst = min(r[6] for r in rows)
    return CheckResult(f"deficit_positivity_{family}", worst >= -1e-6,
                       worst, -1e-6,
                       f"min deficit/(1+rhs) over {count} positive "
                       f"trig-polynomial fields, {label}, critical exponent")


def check_deficit_positivity_sphere(out_dir, seed=0) -> CheckResult:
    return _deficit_positivity("sphere", "sphere d in {3,4,5}",
                               _spheres(1024), 100, seed, out_dir)


def check_deficit_positivity_jacobi(out_dir, seed=0) -> CheckResult:
    return _deficit_positivity(
        "jacobi", "jacobi n in {3.5,4.5,6}",
        [build_space("jacobi", 2, n, 1024) for n in (3.5, 4.5, 6.0)], 100,
        seed + 1, out_dir)


def check_extremal_saturation(out_dir) -> CheckResult:
    rows = []
    worst_rel, worst_ratio = 0.0, np.inf
    series = []
    for d in (3, 4):
        rels = []
        for beta in (1.5, 2.0, 4.0):
            rel = {}
            for N in (512, 1024):
                space = build_space("sphere_radial", d, float(d), N)
                v = extremal_field(space, beta)
                rep = sobolev_deficit(space, v, critical_exponent(space.n))
                rel[N] = abs(rep.deficit_rel)
            ratio = rel[512] / rel[1024] if rel[1024] > 0 else np.inf
            rows.append((d, beta, rel[512], rel[1024], ratio))
            worst_rel = max(worst_rel, rel[1024])
            worst_ratio = min(worst_ratio, ratio)
            rels.append(rel[1024])
        series.append((f"d={d}", [1.5, 2.0, 4.0], rels))
    write_csv(os.path.join(out_dir, "extremal_saturation.csv"),
              ["d", "beta", "abs_deficit_rel_N512", "abs_deficit_rel_N1024",
               "refinement_ratio"], rows)
    write_svg(os.path.join(out_dir, "extremal_saturation.svg"), series,
              title="relative deficit of the extremal family (N=1024)",
              xlabel="beta", ylabel="|deficit_rel|")
    passed = worst_rel <= 1e-3 and worst_ratio >= 3.0
    return CheckResult("extremal_saturation", passed, worst_rel, 1e-3,
                       f"max |deficit_rel| at N=1024 over beta in "
                       f"{{1.5,2,4}}, d in {{3,4}}; min refinement ratio "
                       f"{worst_ratio:.3f} (need >= 3)")


def check_cd_equality_witness(out_dir) -> CheckResult:
    cases = [("sphere_radial", 3, 3.0), ("jacobi", 2, 4.5)]
    worst, worst_ratio = 0.0, np.inf
    doc = {}
    for kind, d, n in cases:
        margins = {}
        for N in (256, 512):
            space = build_space(kind, d, n, N)
            rep = cd_margin(space, space.field(np.cos(space.grid)))
            margins[N] = rep.cd_margin_min
        _write_gamma_fields(os.path.join(out_dir, f"cd_witness_{kind}.csv"),
                            space, rep)  # the N=512 fields
        ratio = abs(margins[256]) / max(abs(margins[512]), 1e-300)
        worst = max(worst, abs(margins[512]))
        worst_ratio = min(worst_ratio, ratio)
        doc[f"{kind}_n{n}"] = {"cd_margin_min_N256": margins[256],
                               "cd_margin_min_N512": margins[512],
                               "refinement_ratio": ratio}
    write_json(os.path.join(out_dir, "cd_witness.json"), doc)
    passed = worst <= 5e-3 and worst_ratio >= 3.0
    return CheckResult("cd_equality_witness", passed, worst, 5e-3,
                       f"|cd_margin_min| for phi = cos at N=512 on the sphere "
                       f"d=3 and jacobi n=4.5 equality cases; min refinement "
                       f"ratio {worst_ratio:.3f} (need >= 3)")


def _scan(space: ModelSpace, q: float, a_values, **scan_kwargs):
    """(space, q, A*, entries) of a rigidity scan, as the rigidity and
    identity checks take it; ``scan_kwargs`` go on to ``rigidity_scan``."""
    entries = rigidity_scan(space, q, a_values, **scan_kwargs)  # checks q
    return space, q, a_star(critical_exponent(q), space.rho), entries


def _rigidity_scan_shared():
    """The 11-point scan shared by the rigidity and identity checks; an
    unconverged minimizer fails the rigidity check rather than raising."""
    space = build_space("sphere_radial", 3, 3.0, 2048)
    astar = a_star(critical_exponent(5.0), space.rho)
    return _scan(space, 5.0, [0.05] + list(np.linspace(astar, 2.0 * astar, 10)),
                 opts=MinimizeOptions(raise_on_failure=False))


def check_rigidity_threshold(scan, out_dir) -> CheckResult:
    """Constant minimizers with I = 1 at every A >= A*, nonconstant ones at
    every A <= A*/2: they stay constant down to A_bif < A* (1 at q = 5)."""
    space, q, astar, entries = scan
    above = [e for e in entries if e.report.A >= astar - 1e-12]
    below = [e.report for e in entries if e.report.A <= astar / 2.0]
    const_above = max((e.report.constancy for e in above), default=0.0)
    ival_above = max((abs(e.report.i_value - 1.0) for e in above),
                     default=0.0)
    const_below = min((r.constancy for r in below), default=np.inf)
    write_csv(os.path.join(out_dir, "rigidity_scan.csv"),
              ["A", "A_over_Astar", "q", "d_prime", "i_value", "constancy",
               "el_residual", "identity_residual", "term1", "term2",
               "converged"],
              [(e.report.A, e.A_over_a_star, e.report.q, e.report.d_prime,
                e.report.i_value, e.report.constancy,
                e.report.el_residual_norm, e.identity_residual, e.term_cd,
                e.term_gap, e.report.converged) for e in entries])
    xs = [e.A_over_a_star for e in entries]
    write_svg(os.path.join(out_dir, "rigidity_scan.svg"),
              [("term_cd", xs, [e.term_cd for e in entries]),
               ("term_gap", xs, [e.term_gap for e in entries])],
              title=f"rigidity decomposition, "
                    f"{space.kind.removesuffix('_radial')} d={space.d}, q={q}",
              xlabel="A / A*", ylabel="term value")
    # measured is the constancy above A* alone: name the other gates
    unconverged = [f"unconverged at A={e.report.A:g}" for e in entries
                   if not e.report.converged]
    passed = (const_above <= 1e-6 and ival_above <= 1e-8
              and const_below > 0.1 and not unconverged)
    at = ",".join(f"{r.A:g}" for r in below)
    notes = ([f"constancy at A={at} is {const_below:.3f} (need > 0.1)"]
             if below else []) + unconverged
    return CheckResult("rigidity_threshold", passed, const_above, 1e-6,
                       f"max constancy over {len(above)} scan points with "
                       f"A >= A*; max |i_value - 1| = {ival_above:.3e} "
                       "(tol 1e-8)" + "".join(f"; {note}" for note in notes))


def check_integral_identity(scan, out_dir) -> CheckResult:
    space, _, _, entries = scan
    worst = max(e.identity_rel for e in entries)
    write_csv(os.path.join(out_dir, "integral_identity.csv"),
              ["A", "term_gamma2", "term_laplacian", "term_gamma", "scale",
               "relative_residual"],
              [(e.report.A, *e.identity_terms, e.identity_scale,
                e.identity_rel) for e in entries])
    return CheckResult("integral_identity", worst <= 1e-3, worst, 1e-3,
                       "max scale-relative residual of the weighted "
                       "Gamma_2 integral identity over all converged scan "
                       "minimizers (constant and nonconstant), "
                       f"N={space.resolution}")


# RK4 multiplies x' = -rho x by exp(-rho dt - (rho dt)^5/120 + ...) a step,
# so the slope of log F is off by 2 rho (rho dt)^4/120: 8.5e-8 at rho = 2,
# a tenth of the 1e-6 gate at dt = 0.02
FINITE_DIM_DT = 0.02


def check_finite_dim_decay(out_dir, seed=0) -> CheckResult:
    rng = np.random.default_rng(seed + 2)
    rows = []
    worst_slope = 0.0
    series = []
    for rho in (0.5, 2.0):
        for m in (2, 5):
            prob = FiniteDimProblem(Q=rho * np.eye(m), rho=rho)
            x0 = rng.uniform(-2.0, 2.0, m)
            trace = fd_flow(prob, x0, T=5.0, dt=FINITE_DIM_DT)
            logf = np.log(trace.entropy)
            slope = float(np.polyfit(trace.times, logf, 1)[0])
            err = abs(slope + 2.0 * rho)
            worst_slope = max(worst_slope, err)
            rows.append(("quadratic", rho, m, slope, err,
                         float(np.sqrt(trace.grad_norm_sq[-1]))))
            series.append((f"rho={rho}, m={m}", trace.times, logf))
    # run-to-convergence on the quartic family plus sampled margins
    quartic = FiniteDimProblem(Q=2.0 * np.eye(3), rho=2.0, eps=0.1)
    qtrace = fd_flow(quartic, np.ones(3), T=20.0, dt=FINITE_DIM_DT)
    final_grad = float(np.sqrt(qtrace.grad_norm_sq[-1]))
    min_margin = min(float(convexity_inequality_margin(
        FiniteDimProblem(Q=2.0 * np.eye(3), rho=2.0, eps=eps),
        rng.uniform(-2.0, 2.0, (10000, 3))).min()) for eps in (0.0, 0.05))
    write_csv(os.path.join(out_dir, "finite_dim.csv"),
              ["family", "rho", "m", "slope", "slope_error", "final_grad"],
              rows)
    write_svg(os.path.join(out_dir, "finite_dim.svg"), series,
              title="entropy decay along the finite-dimensional flow",
              xlabel="t", ylabel="log F(S_t)")
    passed = (worst_slope <= 1e-6 and min_margin >= 0.0
              and final_grad <= 1e-8)
    return CheckResult("finite_dim_decay", passed, worst_slope, 1e-6,
                       f"max |slope + 2 rho| of log F(S_t) over rho in "
                       f"{{0.5,2}}, m in {{2,5}}; min convexity margin "
                       f"{min_margin:.3e} over 2x10^4 samples; quartic "
                       f"terminal gradient {final_grad:.2e}")


def check_fast_diffusion_flow(out_dir, resolution=256) -> CheckResult:
    space = build_space("sphere_radial", 3, 3.0, resolution)
    alpha = 2.0 / 3.0
    trace = fast_diffusion_flow(space, _cosine_density(space), alpha, T=5.0)

    ent, gn = trace.entropy, trace.grad_norm_sq
    mass_drift = float(np.abs(trace.mass - trace.mass[0]).max()) \
        / trace.times[-1]
    monotone = float((np.diff(ent) - 1e-12 * (1.0 + np.abs(ent[:-1]))).max())
    scale = np.maximum(gn, 1e-6 * gn.max())
    worst_diss = float((trace.dissipation_residual / scale).max())
    final_dist = float(trace.sup_distance[-1])
    final_ent_err = abs(float(ent[-1]))  # R_alpha(mu_T) - R_alpha(1)
    converged = final_dist <= 1e-4 and final_ent_err <= 1e-6

    write_flow_csv(os.path.join(out_dir, "fast_diffusion.csv"), trace)
    write_json(os.path.join(out_dir, "fast_diffusion.json"), {
        "T": trace.times[-1], "steps_recorded": len(trace.times),
        "final_entropy": ent[-1], "final_grad_norm_sq": gn[-1],
        "final_sup_dist": final_dist, "steps": trace.steps,
        "stop_reason": trace.stop_reason, "alpha": alpha,
        "beta": 2.0 * alpha - 1.0, "n": space.n, "rho": space.rho,
        "converged": converged, "mass_drift_per_unit_time": mass_drift,
        "max_relative_dissipation_residual": worst_diss})
    write_svg(os.path.join(out_dir, "fast_diffusion.svg"),
              [("R_alpha - R_alpha(1)", trace.times, ent),
               ("sup|mu - 1|", trace.times, trace.sup_distance)],
              title="fast diffusion on the sphere d=3, alpha=2/3",
              xlabel="t", ylabel="distance to equilibrium")
    passed = (mass_drift <= 1e-8 and monotone <= 0.0 and worst_diss <= 1e-3
              and converged)
    return CheckResult("fast_diffusion_flow", passed, worst_diss, 1e-3,
                       f"max relative dissipation residual along the flow; "
                       f"mass drift {mass_drift:.2e}/unit time, final "
                       f"sup|mu-1| {final_dist:.2e}, final |R_alpha - "
                       f"R_alpha(1)| {final_ent_err:.2e}")


def check_hessian_formula(out_dir, seed=0) -> CheckResult:
    space = build_space("sphere_radial", 3, 3.0, 1024)
    rng = np.random.default_rng(seed + 3)
    alphas = [0.4, 0.5, 2.0 / 3.0, 0.75, 0.9]
    modes = _cosine_modes(space, 4)  # phi has degree 3: the first three
    rows = []
    worst = 0.0
    for i in range(20):
        alpha = alphas[i % len(alphas)]
        raw = _trig_poly(space, rng, modes, 0.3)
        mu = space.field(raw.values / integrate(space, raw))
        phi = _trig_poly(space, rng, modes[:3], 1.0)
        quad = renyi_hessian_quadform(space, mu, alpha, phi)
        path = hessian_second_derivative(space, mu, alpha, phi)
        rel = abs(quad - path) / max(abs(quad), 1e-12)
        worst = max(worst, rel)
        rows.append((i, alpha, quad, path, rel))
    uniform = space.field(np.ones(space.resolution))
    cosine = space.field(np.cos(space.grid))
    analytic = renyi_hessian_quadform(space, uniform, 2.0 / 3.0, cosine)
    # reference 9/4 = 3 (1 - int cos^2 dnu) with int cos^2 dnu = 1/4 on the
    # sphere d=3 radial measure (independent quadrature oracle)
    analytic_err = abs(analytic - 2.25)
    write_csv(os.path.join(out_dir, "hessian_checks.csv"),
              ["case", "alpha", "quadform", "path_second_derivative",
               "relative_error"], rows)
    passed = worst <= 1e-3 and analytic_err <= 1e-3
    return CheckResult("hessian_formula", passed, worst, 1e-3,
                       f"max relative gap between the Hessian quadratic form "
                       f"and the path second derivative over a 20-case "
                       f"corpus; closed-form witness off by "
                       f"{analytic_err:.2e} from 9/4")


def check_entropy_sobolev_equivalence(out_dir, seed=0,
                                      resolution=1024) -> CheckResult:
    rows = []
    worst_margin, worst_bridge = np.inf, 0.0
    # the sphere deficit corpus, at the given resolution
    for i, space, f in _corpus(_spheres(resolution), 100, seed):
        q = critical_exponent(space.n)
        mu = density_from_field(space, f, q)
        margin = entropy_inequality_margin(space, mu)
        n = space.n
        fn = space.field(mu.values ** ((n - 2.0) / (2.0 * n)))
        rep = sobolev_deficit(space, fn, q)
        bridge = 2.0 * n * n / (n - 2.0) ** 2 * rep.deficit
        scale = abs(margin) + abs(bridge) + 1e-300
        rel = abs(margin - bridge) / scale
        neg = margin / (1.0 + rep.rhs)
        worst_margin = min(worst_margin, neg)
        worst_bridge = max(worst_bridge, rel)
        rows.append((i, space.d, margin, bridge, rel))
    write_csv(os.path.join(out_dir, "entropy_sobolev.csv"),
              ["index", "d", "entropy_margin", "deficit_reexpression",
               "relative_gap"], rows)
    passed = worst_margin >= -1e-6 and worst_bridge <= 1e-8
    return CheckResult("entropy_sobolev_equivalence", passed, worst_bridge,
                       1e-8,
                       f"max relative gap between the entropy margin and "
                       f"2n^2/(n-2)^2 times the Sobolev deficit over the "
                       f"100-density corpus; min scaled margin "
                       f"{worst_margin:.2e} (tol -1e-6)")


def check_critical_limit(out_dir, space=None,
                         q_list=CRITICAL_Q) -> CheckResult:
    """A*(d'(q)) increases along ``q_list`` and, given two q or more,
    extrapolates to A*(n): 4/3 on the default space, the sphere d=3.  An
    unconverged minimization fails the check rather than raising."""
    if space is None:
        space = build_space("sphere_radial", 3, 3.0, 1024)
    table, extrapolated, warnings = critical_limit_sweep(
        space, q_list, MinimizeOptions(raise_on_failure=False))
    for msg in warnings:
        print(f"warning: {msg}", file=sys.stderr)
    astars = [row["a_star"] for row in table]
    monotone = all(b > a for a, b in zip(astars, astars[1:]))
    limit = a_star(space.n, space.rho)
    err = None if extrapolated is None else abs(extrapolated - limit)
    write_csv(os.path.join(out_dir, "critical_limit.csv"),
              ["q", "d_prime", "a_star", "i_value_at_a_star", "constancy",
               "converged"],
              [(r["q"], r["d_prime"], r["a_star"], r["i_value"],
                r["constancy"], r["converged"]) for r in table])
    doc = {"extrapolated_a_star": extrapolated, "limit_value": limit,
           "error": err, "monotone_increasing": monotone}
    write_json(os.path.join(out_dir, "critical_limit.json"),
               {k: v for k, v in doc.items() if v is not None})
    # measured is the extrapolation error alone: name the other gates
    notes = [f"unconverged at q={r['q']}" for r in table if not r["converged"]]
    if not monotone:
        notes.append("not monotone")
    passed = not notes and (err is None or err <= 1e-3)
    if err is None:
        notes.append("no extrapolation (one q)")
    return CheckResult("critical_limit", passed, 0.0 if err is None else err,
                       1e-3,
                       "Richardson-extrapolated threshold A*(d'(q)) vs the "
                       f"critical value 4/{4.0 / limit:g}; A* increases "
                       "monotonically as q approaches the critical exponent "
                       "(A*(x) is decreasing in x = d' and d' decreases)"
                       + "".join(f"; {note}" for note in notes))


def _read_tree(root: str) -> dict:
    """{path relative to root: bytes} of every file under ``root``."""
    out = {}
    for base, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def check_determinism(out_dir, seed=0) -> CheckResult:
    """Re-run a reduced artifact bundle twice and compare the files' bytes."""
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, "run1"), os.path.join(tmp, "run2")]
        for dd in dirs:
            os.makedirs(dd)
            _mini_bundle(dd, seed)
        first, second = _read_tree(dirs[0]), _read_tree(dirs[1])
    same = first == second
    write_json(os.path.join(out_dir, "determinism.json"),
               {"files": sorted(first), "match": same})
    return CheckResult("determinism", same, 0.0 if same else 1.0, 0.0,
                       f"{len(first)} artifact files regenerated with the "
                       "same seed and compared byte for byte")


def _mini_bundle(out_dir: str, seed: int) -> None:
    """Small but representative artifact pass used by the determinism check."""
    check_sharp_constants(out_dir)
    space = build_space("sphere_radial", 3, 3.0, 128)
    _deficit_positivity("sphere", "sphere d=3", [space], 10, seed, out_dir)
    check_rigidity_threshold(_scan(space, 5.0, [0.05, 1.05, 2.0]), out_dir)
    trace = fast_diffusion_flow(space, _cosine_density(space), 2.0 / 3.0,
                                T=0.5)
    write_flow_csv(os.path.join(out_dir, "fast_diffusion.csv"), trace)


# ---------------------------------------------------------------------------
# experiments of the CLI commands without a suite counterpart
# ---------------------------------------------------------------------------

def run_verify_cd(out_dir, space, seed, corpus_size, tolerance):
    """The pointwise CD(rho, n) margin of cos and of a seeded corpus."""
    first = cd_margin(space, space.field(np.cos(space.grid)))
    rng = np.random.default_rng(seed)
    modes = _cosine_modes(space, 2)
    # pointwise margins need a gentler corpus than the integrated deficit
    # checks: the discrete Gamma_2 error grows with the fourth derivative of
    # the field
    margins = [first.cd_margin_min] + [
        cd_margin(space, _trig_poly(space, rng, modes, 0.5)).cd_margin_min
        for _ in range(corpus_size - 1)]
    worst = min(margins)
    write_csv(os.path.join(out_dir, "cd_margins.csv"),
              ["index", "cd_margin_min"], enumerate(margins))
    _write_gamma_fields(os.path.join(out_dir, "cd_pointwise.csv"), space,
                        first)
    write_json(os.path.join(out_dir, "cd_summary.json"),
               {"cd_margin_min": first.cd_margin_min, "rho": space.rho,
                "n": space.n, "corpus_size": corpus_size,
                "min_margin_over_corpus": worst})
    return [CheckResult(
        "cd_margin_nonnegative", worst >= -tolerance, worst, -tolerance,
        f"min pointwise curvature-dimension margin over {corpus_size} "
        "fields")]


def run_bochner(out_dir, space, tolerance):
    """The Bochner bracket and the Hessian Cauchy-Schwarz margin of cos."""
    f = space.field(np.cos(space.grid))
    resid = bochner_residual(space, f)
    cs_min = float(cauchy_schwarz_margin(space, f).values.min())
    write_json(os.path.join(out_dir, "bochner.json"),
               {"residual": resid, "cauchy_schwarz_min": cs_min,
                "resolution": space.resolution})
    return [CheckResult("bochner_bracket", resid <= tolerance, resid,
                        tolerance, "interior sup-norm gap between Gamma_2 "
                        "and the radial Hessian-plus-Ricci bracket"),
            CheckResult("hessian_cauchy_schwarz", cs_min >= -tolerance,
                        cs_min, -tolerance,
                        "pointwise ||Hess f||^2 - (L f)^2/n")]


def run_sobolev_deficit(out_dir, space, v, q, extremal):
    """The Sobolev deficit of one field; an extremal one must saturate."""
    rep = sobolev_deficit(space, v, q)
    write_json(os.path.join(out_dir, "sobolev_deficit.json"), asdict(rep))
    write_field_csv(os.path.join(out_dir, "field.csv"), space, {"v": v})
    checks = [CheckResult(
        "deficit_nonnegative", rep.deficit >= -1e-6 * (1.0 + rep.rhs),
        rep.deficit / (1.0 + rep.rhs), -1e-6,
        "scaled Sobolev deficit of the configured field")]
    if extremal:
        checks.append(CheckResult(
            "extremal_saturates", abs(rep.deficit_rel) <= 1e-3,
            abs(rep.deficit_rel), 1e-3,
            "relative deficit of the extremal profile"))
    return checks


def run_minimize(out_dir, space, A, q, init, opts):
    """One subcritical minimization at (A, q)."""
    rep = minimize_subcritical(space, A, q, init, opts)
    write_json(os.path.join(out_dir, "minimizer.json"), {
        "lambda" if f.name == "lam" else f.name: getattr(rep, f.name)
        for f in fields(rep) if f.name != "minimizer"})
    write_field_csv(os.path.join(out_dir, "minimizer.csv"), space,
                    {"v": rep.minimizer})
    norm_err = abs(lq_norm(space, rep.minimizer, q) - 1.0)
    return [
        CheckResult("minimize_converged", rep.converged,
                    float(rep.iterations), float(opts.max_iter),
                    f"backward error {rep.backward_error:.3e} "
                    f"(tol {opts.tol:.0e})"),
        CheckResult("constraint_unit_lq_norm", norm_err <= 1e-10, norm_err,
                    1e-10, "| ||v||_q - 1 |"),
        CheckResult("minimizer_nonnegative", rep.minimizer.min() >= 0.0,
                    rep.minimizer.min(), 0.0, "pointwise min of v"),
    ]


def run_rigidity_scan(out_dir, space, q, a_values, init, opts):
    """The rigidity and identity checks on a configured scan."""
    scan = _scan(space, q, a_values, init=init, opts=opts)
    return [check_rigidity_threshold(scan, out_dir),
            check_integral_identity(scan, out_dir)]


# ---------------------------------------------------------------------------
# full suite
# ---------------------------------------------------------------------------

def run_full_suite(out_dir: str, seed: int = 0) -> dict:
    """Execute every acceptance check, write artifacts, return the manifest.

    The manifest enumerates the checks one-to-one and is written last;
    wall-clock timings go to a sidecar file so the manifest itself is
    byte-reproducible across runs.
    """
    os.makedirs(out_dir, exist_ok=True)
    checks = []
    timings = {}

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        res = fn(*args)
        timings[name or res.name] = time.perf_counter() - t0
        return res

    def run(fn, *args):
        checks.append(timed(None, fn, *args))

    run(check_sharp_constants, out_dir)
    run(check_deficit_positivity_sphere, out_dir, seed)
    run(check_extremal_saturation, out_dir)
    run(check_cd_equality_witness, out_dir)
    run(check_deficit_positivity_jacobi, out_dir, seed)
    scan = timed("rigidity_scan_shared", _rigidity_scan_shared)
    run(check_rigidity_threshold, scan, out_dir)
    run(check_integral_identity, scan, out_dir)
    run(check_finite_dim_decay, out_dir, seed)
    run(check_fast_diffusion_flow, out_dir)
    run(check_hessian_formula, out_dir, seed)
    run(check_entropy_sobolev_equivalence, out_dir, seed)
    run(check_critical_limit, out_dir)
    run(check_determinism, out_dir, seed)

    return write_manifest(
        out_dir, {"command": "full-suite", "seed": seed, "output_dir": out_dir},
        checks, {"wall_clock_seconds": timings,
                 "total_seconds": sum(timings.values())})
