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
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .flows import (FiniteDimProblem, convexity_inequality_margin,
                    density_from_field, entropy_inequality_margin,
                    fast_diffusion_flow, fd_flow, hessian_second_derivative,
                    renyi_hessian_quadform)
from .gamma_calculus import cd_margin
from .model_space import ModelSpace, _quadrature, build_space, integrate
from .reporting import (ensure_dir, write_csv, write_field_csv, write_json,
                        write_svg)
from .sobolev import (a_star, critical_exponent, extremal_field,
                      sharp_constants, sobolev_deficit)
from .variational import critical_limit_sweep, rigidity_scan

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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "measured": self.measured, "tolerance": self.tolerance,
                "detail": self.detail}


# ---------------------------------------------------------------------------
# artifact writers shared with the CLI
# ---------------------------------------------------------------------------

def write_rigidity_csv(path: str, entries) -> None:
    """One row per RigidityEntry of a scan."""
    write_csv(path, ["A", "A_over_Astar", "q", "d_prime", "i_value",
                     "constancy", "el_residual", "identity_residual", "term1",
                     "term2", "term3", "converged"],
              [(e.report.A, e.A_over_a_star, e.report.q, e.report.d_prime,
                e.report.i_value, e.report.constancy,
                e.report.el_residual_norm, e.identity_residual, e.term_cd,
                e.term_gap, e.term_f, e.report.converged) for e in entries])


def write_critical_limit_csv(path: str, table) -> None:
    """One row per entry of a ``critical_limit_sweep`` table."""
    write_csv(path, ["q", "d_prime", "a_star", "i_value_at_a_star",
                     "constancy", "converged"],
              [(r["q"], r["d_prime"], r["a_star"], r["i_value"],
                r["constancy"], r["converged"]) for r in table])


def write_flow_csv(path: str, trace) -> None:
    """The time series of a fast-diffusion FlowTrace."""
    write_csv(path, ["t", "entropy", "grad_norm_sq", "companion_entropy",
                     "dissipation_residual", "sup_dist", "mass"],
              zip(trace.times, trace.entropy, trace.grad_norm_sq,
                  trace.companion, trace.dissipation_residual,
                  trace.sup_distance, trace.mass))


def write_manifest(out_dir: str, config: dict, checks, timing: dict) -> dict:
    """Write the wall-clock sidecar, then the manifest; return the manifest.

    Timings stay out of the manifest so that it is byte-reproducible.
    """
    manifest = {
        "tool_version": __version__,
        "config": config,
        "checks": [c.to_json_dict() for c in checks],
        "status": "pass" if all(c.passed for c in checks) else "fail",
        "timing_file": "timing.json",
    }
    write_json(os.path.join(out_dir, "timing.json"), timing)
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


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
    coeffs = rng.uniform(-1.0, 1.0, degree)
    p = np.zeros(space.resolution)
    for k, c in enumerate(coeffs, start=1):
        p += c * np.cos(k * space.grid)
    sup = float(np.abs(p).max())
    if sup > 0.0:
        p = p / sup
    return space.field(1.0 + amplitude * p)


def _deficit_corpus(spaces, count, seed, path=None):
    """Per-sample Sobolev deficits at the critical exponent, cycling spaces;
    written to ``path`` as CSV when one is given."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(count):
        space = spaces[i % len(spaces)]
        v = trig_poly_field(space, rng)
        rep = sobolev_deficit(space, v, critical_exponent(space.n))
        rows.append((i, space.kind, space.d, space.n, rep.deficit, rep.rhs,
                     rep.deficit / (1.0 + rep.rhs)))
    if path:
        write_csv(path, ["index", "kind", "d", "n", "deficit", "rhs",
                         "deficit_over_scale"], rows)
    return rows


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_sharp_constants(out_dir=None) -> CheckResult:
    """Closed-form constants at (n, rho) = (3, 2) and (4, 3), exactly."""
    got = {"n3_rho2": sharp_constants(3.0, 2.0),
           "n4_rho3": sharp_constants(4.0, 3.0)}
    want = {"n3_rho2": (1.0 / 3.0, 4.0 / 3.0),
            "n4_rho3": (1.0 / 4.0, 1.0 / 2.0)}
    err = max(abs(g - e) for k in got for g, e in zip(got[k], want[k]))
    if out_dir:
        write_json(os.path.join(out_dir, "sharp_constants.json"), {
            k: {"coefficient": got[k][0], "a_star": got[k][1]} for k in got})
    return CheckResult("sharp_constants", err == 0.0, err, 0.0,
                       "coefficient (n-1)/(n rho) and threshold "
                       "4(n-1)/(n(n-2) rho) at two parameter points")


def check_deficit_positivity_sphere(out_dir=None, seed=0,
                                    resolution=1024) -> CheckResult:
    spaces = [build_space("sphere_radial", d, float(d), resolution)
              for d in (3, 4, 5)]
    rows = _deficit_corpus(spaces, 100, seed, out_dir and os.path.join(
        out_dir, "deficit_sphere.csv"))
    worst = min(r[6] for r in rows)
    return CheckResult("deficit_positivity_sphere", worst >= -1e-6,
                       worst, -1e-6,
                       "min deficit/(1+rhs) over 100 positive trig-polynomial "
                       "fields, sphere d in {3,4,5}, critical exponent")


def check_deficit_positivity_jacobi(out_dir=None, seed=0,
                                    resolution=1024) -> CheckResult:
    spaces = [build_space("jacobi", 2, n, resolution) for n in (3.5, 4.5, 6.0)]
    rows = _deficit_corpus(spaces, 100, seed + 1, out_dir and os.path.join(
        out_dir, "deficit_jacobi.csv"))
    worst = min(r[6] for r in rows)
    return CheckResult("deficit_positivity_jacobi", worst >= -1e-6,
                       worst, -1e-6,
                       "min deficit/(1+rhs) over 100 positive trig-polynomial "
                       "fields, jacobi n in {3.5,4.5,6}, critical exponent")


def check_extremal_saturation(out_dir=None) -> CheckResult:
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
    if out_dir:
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


def check_cd_equality_witness(out_dir=None) -> CheckResult:
    cases = [("sphere_radial", 3, 3.0), ("jacobi", 2, 4.5)]
    worst, worst_ratio = 0.0, np.inf
    summary = {}
    for kind, d, n in cases:
        margins = {}
        for N in (256, 512):
            space = build_space(kind, d, n, N)
            rep = cd_margin(space, space.field_from_function(np.cos))
            margins[N] = rep.cd_margin_min
            if out_dir and N == 512:
                write_field_csv(
                    os.path.join(out_dir, f"cd_witness_{kind}.csv"), space,
                    {"gamma": rep.gamma_field, "gamma2": rep.gamma2_field,
                     "Lphi": rep.l_field, "cd_margin": rep.cd_margin_field})
        ratio = abs(margins[256]) / max(abs(margins[512]), 1e-300)
        worst = max(worst, abs(margins[512]))
        worst_ratio = min(worst_ratio, ratio)
        summary[f"{kind}_n{n}"] = {"cd_margin_min_N256": margins[256],
                                   "cd_margin_min_N512": margins[512],
                                   "refinement_ratio": ratio}
    if out_dir:
        write_json(os.path.join(out_dir, "cd_witness.json"), summary)
    passed = worst <= 5e-3 and worst_ratio >= 3.0
    return CheckResult("cd_equality_witness", passed, worst, 5e-3,
                       f"|cd_margin_min| for phi = cos at N=512 on the sphere "
                       f"d=3 and jacobi n=4.5 equality cases; min refinement "
                       f"ratio {worst_ratio:.3f} (need >= 3)")


def _rigidity_scan_shared(resolution=2048):
    """The 11-point scan shared by the rigidity and identity checks."""
    space = build_space("sphere_radial", 3, 3.0, resolution)
    q = 5.0
    astar = a_star(critical_exponent(q), space.rho)
    a_values = [0.05] + list(np.linspace(astar, 2.0 * astar, 10))
    entries = rigidity_scan(space, q, a_values)
    return space, q, astar, entries


def check_rigidity_threshold(scan=None, out_dir=None) -> CheckResult:
    space, q, astar, entries = scan or _rigidity_scan_shared()
    const_above, ival_above, const_below = 0.0, 0.0, np.inf
    for e in entries:
        r = e.report
        if r.A >= astar - 1e-12:
            const_above = max(const_above, r.constancy)
            ival_above = max(ival_above, abs(r.i_value - 1.0))
        else:
            const_below = min(const_below, r.constancy)
    if out_dir:
        write_rigidity_csv(os.path.join(out_dir, "rigidity_scan.csv"), entries)
        above = [e for e in entries if e.report.A >= astar - 1e-12]
        write_svg(os.path.join(out_dir, "rigidity_scan.svg"),
                  [("term_cd", [e.A_over_a_star for e in above],
                    [e.term_cd for e in above]),
                   ("term_gap", [e.A_over_a_star for e in above],
                    [e.term_gap for e in above]),
                   ("term_f", [e.A_over_a_star for e in above],
                    [e.term_f for e in above])],
                  title=f"rigidity decomposition, sphere d=3, q={q}",
                  xlabel="A / A*", ylabel="term value")
    passed = (const_above <= 1e-6 and ival_above <= 1e-8
              and const_below > 0.1
              and all(e.report.converged for e in entries))
    return CheckResult("rigidity_threshold", passed, const_above, 1e-6,
                       f"max constancy over 10 scan points with A >= A*; "
                       f"max |i_value - 1| = {ival_above:.3e} (tol 1e-8); "
                       f"constancy at A=0.05 is {const_below:.3f} (need > 0.1)")


def check_integral_identity(scan=None, out_dir=None) -> CheckResult:
    _, _, _, entries = scan or _rigidity_scan_shared()
    worst = max(e.identity_rel for e in entries)
    if out_dir:
        write_csv(os.path.join(out_dir, "integral_identity.csv"),
                  ["A", "term_gamma2", "term_laplacian", "term_gamma",
                   "scale", "relative_residual"],
                  [(e.report.A, *e.identity_terms, e.identity_scale,
                    e.identity_rel) for e in entries])
    return CheckResult("integral_identity", worst <= 1e-3, worst, 1e-3,
                       "max scale-relative residual of the weighted "
                       "Gamma_2 integral identity over all converged scan "
                       "minimizers (constant and nonconstant), N=2048")


def check_finite_dim_decay(out_dir=None, seed=0) -> CheckResult:
    rng = np.random.default_rng(seed + 2)
    rows = []
    worst_slope = 0.0
    series = []
    for rho in (0.5, 2.0):
        for m in (2, 5):
            prob = FiniteDimProblem(Q=rho * np.eye(m), rho=rho)
            x0 = rng.uniform(-2.0, 2.0, m)
            trace = fd_flow(prob, x0, T=5.0, dt=0.005)
            logf = np.log(trace.entropy)
            slope = float(np.polyfit(trace.times, logf, 1)[0])
            err = abs(slope + 2.0 * rho)
            worst_slope = max(worst_slope, err)
            rows.append(("quadratic", rho, m, slope, err,
                         float(np.sqrt(trace.grad_norm_sq[-1]))))
            series.append((f"rho={rho}, m={m}", list(trace.times),
                           [float(x) for x in logf]))
    # run-to-convergence on the quartic family plus sampled margins
    quartic = FiniteDimProblem(Q=2.0 * np.eye(3), rho=2.0, eps=0.1)
    qtrace = fd_flow(quartic, np.ones(3), T=20.0, dt=0.005)
    final_grad = float(np.sqrt(qtrace.grad_norm_sq[-1]))
    min_margin = min(float(convexity_inequality_margin(
        FiniteDimProblem(Q=2.0 * np.eye(3), rho=2.0, eps=eps),
        rng.uniform(-2.0, 2.0, (10000, 3))).min()) for eps in (0.0, 0.05))
    if out_dir:
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


def check_fast_diffusion_flow(out_dir=None, resolution=256) -> CheckResult:
    space = build_space("sphere_radial", 3, 3.0, resolution)
    alpha = 2.0 / 3.0
    raw = 1.0 + 0.5 * np.cos(space.grid)
    mu0 = space.field(raw / _quadrature(space, raw))
    trace = fast_diffusion_flow(space, mu0, alpha, T=5.0)

    mass_drift = float(np.abs(np.asarray(trace.mass) - trace.mass[0]).max()) \
        / trace.times[-1]
    ent = np.asarray(trace.entropy)
    monotone = float((np.diff(ent) - 1e-12 * (1.0 + np.abs(ent[:-1]))).max())
    gn = np.asarray(trace.grad_norm_sq)
    scale = np.maximum(gn, 1e-6 * gn.max())
    rel_diss = np.asarray(trace.dissipation_residual)[1:-1] / scale[1:-1]
    worst_diss = float(rel_diss.max())
    final_dist = float(trace.sup_distance[-1])
    final_ent_err = abs(float(ent[-1]) + 4.5)

    if out_dir:
        write_flow_csv(os.path.join(out_dir, "fast_diffusion.csv"), trace)
        summary = trace.summary()
        summary.update({"alpha": alpha, "beta": 2.0 * alpha - 1.0,
                        "n": space.n, "rho": space.rho, "converged": True,
                        "mass_drift_per_unit_time": mass_drift,
                        "max_relative_dissipation_residual": worst_diss})
        write_json(os.path.join(out_dir, "fast_diffusion.json"), summary)
        write_svg(os.path.join(out_dir, "fast_diffusion.svg"),
                  [("R_alpha + 4.5", list(trace.times),
                    [float(x) + 4.5 for x in trace.entropy]),
                   ("sup|mu - 1|", list(trace.times),
                    [float(x) for x in trace.sup_distance])],
                  title="fast diffusion on the sphere d=3, alpha=2/3",
                  xlabel="t", ylabel="distance to equilibrium")
    passed = (mass_drift <= 1e-8 and monotone <= 0.0 and worst_diss <= 1e-3
              and final_dist <= 1e-4 and final_ent_err <= 1e-6)
    return CheckResult("fast_diffusion_flow", passed, worst_diss, 1e-3,
                       f"max relative dissipation residual along the flow; "
                       f"mass drift {mass_drift:.2e}/unit time, final "
                       f"sup|mu-1| {final_dist:.2e}, final R_alpha within "
                       f"{final_ent_err:.2e} of -4.5")


def check_hessian_formula(out_dir=None, seed=0, resolution=1024) -> CheckResult:
    space = build_space("sphere_radial", 3, 3.0, resolution)
    rng = np.random.default_rng(seed + 3)
    alphas = [0.4, 0.5, 2.0 / 3.0, 0.75, 0.9]
    rows = []
    worst = 0.0
    for i in range(20):
        alpha = alphas[i % len(alphas)]
        raw = trig_poly_field(space, rng, amplitude=0.3)
        mu = space.field(raw.values / integrate(space, raw))
        phi = trig_poly_field(space, rng, degree=3, amplitude=1.0)
        quad = renyi_hessian_quadform(space, mu, alpha, phi)
        path = hessian_second_derivative(space, mu, alpha, phi)
        rel = abs(quad - path) / max(abs(quad), 1e-12)
        worst = max(worst, rel)
        rows.append((i, alpha, quad, path, rel))
    uniform = space.field(np.ones(space.resolution))
    cosine = space.field_from_function(np.cos)
    analytic = renyi_hessian_quadform(space, uniform, 2.0 / 3.0, cosine)
    # reference 9/4 = 3 (1 - int cos^2 dnu) with int cos^2 dnu = 1/4 on the
    # sphere d=3 radial measure (independent quadrature oracle)
    analytic_err = abs(analytic - 2.25)
    if out_dir:
        write_csv(os.path.join(out_dir, "hessian_checks.csv"),
                  ["case", "alpha", "quadform", "path_second_derivative",
                   "relative_error"], rows)
    passed = worst <= 1e-3 and analytic_err <= 1e-3
    return CheckResult("hessian_formula", passed, worst, 1e-3,
                       f"max relative gap between the Hessian quadratic form "
                       f"and the path second derivative over a 20-case "
                       f"corpus; closed-form witness off by "
                       f"{analytic_err:.2e} from 9/4")


def check_entropy_sobolev_equivalence(out_dir=None, seed=0,
                                      resolution=1024) -> CheckResult:
    spaces = [build_space("sphere_radial", d, float(d), resolution)
              for d in (3, 4, 5)]
    rng = np.random.default_rng(seed)  # replay of the sphere deficit corpus
    rows = []
    worst_margin, worst_bridge = 0.0, 0.0
    for i in range(100):
        space = spaces[i % len(spaces)]
        f = trig_poly_field(space, rng)
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
    if out_dir:
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


def check_critical_limit(out_dir=None, resolution=1024) -> CheckResult:
    space = build_space("sphere_radial", 3, 3.0, resolution)
    table, extrapolated, _ = critical_limit_sweep(
        space, [5.0, 5.5, 5.8, 5.95])
    astars = [row["a_star"] for row in table]
    monotone = all(b > a for a, b in zip(astars, astars[1:]))
    limit_err = abs(extrapolated - 4.0 / 3.0)
    if out_dir:
        write_critical_limit_csv(os.path.join(out_dir, "critical_limit.csv"),
                                 table)
        write_json(os.path.join(out_dir, "critical_limit.json"),
                   {"extrapolated_a_star": extrapolated,
                    "limit_value": 4.0 / 3.0, "error": limit_err,
                    "monotone_increasing": monotone})
    passed = monotone and limit_err <= 1e-3 \
        and all(r["converged"] for r in table)
    return CheckResult("critical_limit", passed, limit_err, 1e-3,
                       "Richardson-extrapolated threshold A*(d'(q)) vs the "
                       "critical value 4/3; A* increases monotonically as "
                       "q approaches the critical exponent "
                       "(A*(x) is decreasing in x = d' and d' decreases)")


def _hash_tree(root: str) -> dict:
    out = {}
    for base, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[os.path.relpath(path, root)] = digest
    return out


def check_determinism(out_dir=None, seed=0) -> CheckResult:
    """Re-run a reduced artifact bundle twice and byte-compare everything."""
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, "run1"), os.path.join(tmp, "run2")]
        for dd in dirs:
            ensure_dir(dd)
            _mini_bundle(dd, seed)
        h1, h2 = _hash_tree(dirs[0]), _hash_tree(dirs[1])
    same = h1 == h2
    if out_dir:
        write_json(os.path.join(out_dir, "determinism.json"),
                   {"files": sorted(h1), "match": same})
    return CheckResult("determinism", same, 0.0 if same else 1.0, 0.0,
                       f"{len(h1)} artifact files regenerated with the same "
                       "seed and compared byte-for-byte by sha256")


def _mini_bundle(out_dir: str, seed: int) -> None:
    """Small but representative artifact pass used by the determinism check."""
    check_sharp_constants(out_dir)
    space = build_space("sphere_radial", 3, 3.0, 128)
    _deficit_corpus([space], 10, seed, os.path.join(out_dir,
                                                     "deficit_sphere.csv"))
    scan = (space, 5.0, a_star(10.0 / 3.0, 2.0),
            rigidity_scan(space, 5.0, [0.05, 1.05, 2.0]))
    check_rigidity_threshold(scan, out_dir)
    raw = 1.0 + 0.5 * np.cos(space.grid)
    mu0 = space.field(raw / _quadrature(space, raw))
    trace = fast_diffusion_flow(space, mu0, 2.0 / 3.0, T=0.5)
    write_flow_csv(os.path.join(out_dir, "fast_diffusion.csv"), trace)


# ---------------------------------------------------------------------------
# full suite
# ---------------------------------------------------------------------------

def run_full_suite(out_dir: str, seed: int = 0) -> dict:
    """Execute every acceptance check, write artifacts, return the manifest.

    The manifest enumerates the checks one-to-one and is written last;
    wall-clock timings go to a sidecar file so the manifest itself is
    byte-reproducible across runs.
    """
    ensure_dir(out_dir)
    checks = []
    timings = {}

    def run(fn, *args, **kwargs):
        t0 = time.perf_counter()
        res = fn(*args, **kwargs)
        timings[res.name] = time.perf_counter() - t0
        checks.append(res)
        return res

    run(check_sharp_constants, out_dir)
    run(check_deficit_positivity_sphere, out_dir, seed)
    run(check_extremal_saturation, out_dir)
    run(check_cd_equality_witness, out_dir)
    run(check_deficit_positivity_jacobi, out_dir, seed)
    t0 = time.perf_counter()
    scan = _rigidity_scan_shared()
    timings["rigidity_scan_shared"] = time.perf_counter() - t0
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
