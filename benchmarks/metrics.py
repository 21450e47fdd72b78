"""Names and units of every metric the benchmark reports.

Standard library only, so the runner can use it without importing the
library.  BENCHMARK.json at the checkout root registers the same names;
selftest.py checks that the two agree.
"""

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# the thirteen acceptance checks, in the order run_full_suite runs them
CHECK_NAMES = (
    "sharp_constants", "deficit_positivity_sphere", "extremal_saturation",
    "cd_equality_witness", "deficit_positivity_jacobi", "rigidity_threshold",
    "integral_identity", "finite_dim_decay", "fast_diffusion_flow",
    "hessian_formula", "entropy_sobolev_equivalence", "critical_limit",
    "determinism",
)
LAYERS = ("cli", "acceptance", "model_space", "gamma_calculus", "sobolev",
          "variational", "flows", "reporting")
OPERATOR_SIZES = (256, 1024, 4096)
MINIMIZE_SIZES = (1024, 2048, 4096)

# the end-to-end metric each one should move is listed in README.md; a
# metric whose layer the workload never reaches reads 0
PER_LAYER = {
    "fail_frac": "ratio",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.overhead_s": "s",
    **{f"acceptance.check_s.{name}": "s" for name in CHECK_NAMES},
    "acceptance.unattributed_s": "s",
    **{f"model_space.{op}.us_per_call.N{n}": "us"
       for op in ("apply_L", "gamma", "gamma2") for n in OPERATOR_SIZES},
    "model_space.field.calls": "count",
    "model_space.fv_apply.calls": "count",
    "model_space.fv_apply.us_per_call": "us",
    "gamma_calculus.cd_margin.calls": "count",
    "gamma_calculus.cd_margin.self_s": "s",
    "sobolev.sobolev_deficit.calls": "count",
    "sobolev.sobolev_deficit.self_s": "s",
    "variational.minimize.calls": "count",
    "variational.minimize.iterations": "count",
    "variational.minimize.converged_frac": "ratio",
    **{f"variational.minimize.s_per_call.N{n}": "s" for n in MINIMIZE_SIZES},
    "variational.rigidity_terms.self_s": "s",
    "flows.fast_diffusion.self_s": "s",
    "flows.fast_diffusion.rhs_calls": "count",
    "flows.fast_diffusion.sim_time_per_s": "1/s",
    "flows.fd_flow.self_s": "s",
    "flows.convexity_margin.calls": "count",
    "flows.convexity_margin.self_s": "s",
    "flows.hessian_path.self_s": "s",
    "reporting.writes": "count",
    "reporting.write_s": "s",
    "reporting.bytes": "B",
}
# computed by the runner from all passes, not from the spans of one pass
RUN_LEVEL = ("fail_frac", "trace.overhead_s")
