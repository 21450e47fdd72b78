"""Command-line front end: every experiment as a reproducible command.

Each command reads a JSON config (unknown keys rejected), writes CSV/JSON/SVG
artifacts plus a manifest under the output directory, and exits 0 when all
checks pass, 1 on a check failure (manifest still written), 2 on an invalid
config, 3 on an I/O failure.  Flags override config values.  Wall-clock
timings go to a sidecar file so re-running with the same config and seed
reproduces every other artifact byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import acceptance
from .errors import (InvalidAlpha, InvalidConfig, InvalidExponent,
                     InvalidParameter, NonPositiveField,
                     NotAProbabilityDensity, SpaceMismatch, UnsupportedKind)
from .gamma_calculus import bochner_residual, cauchy_schwarz_margin, cd_margin
from .model_space import ModelSpace, build_space
from .reporting import (ensure_dir, write_csv, write_field_csv, write_json,
                        write_svg)
from .sobolev import (a_star, critical_exponent, extremal_field, lq_norm,
                      sobolev_deficit)
from .variational import (MinimizeOptions, critical_limit_sweep,
                          minimize_subcritical, rigidity_scan)

CONFIG_ERRORS = (InvalidConfig, InvalidExponent, InvalidParameter,
                 UnsupportedKind, InvalidAlpha, SpaceMismatch,
                 NonPositiveField, NotAProbabilityDensity)

SPACE_KEYS = {"kind", "d", "n", "resolution"}

# Admissible energy weights A of ``minimize`` and ``rigidity-scan``.  The
# minimizer concentrates at width about sqrt(A): at A = 1e-4 on N = 2048 its
# pressure v^{-(q-2)/2} overflows, and at A = 1e300 so does A S v.  The
# suite's values, 0.05 to 2A* = 2.1, lie well inside.
A_MIN, A_MAX = 1e-3, 1e6


def _check_keys(block: dict, allowed: set, context: str) -> None:
    if not isinstance(block, dict):
        raise InvalidConfig(f"{context} must be a JSON object")
    unknown = set(block) - allowed
    if unknown:
        raise InvalidConfig(
            f"unknown key(s) {sorted(unknown)} in {context}; "
            f"allowed: {sorted(allowed)}")


def _number(block: dict, key: str, default, context: str) -> float:
    """The finite JSON number ``block[key]`` (or ``default``) as a float."""
    value = block.get(key, default)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise InvalidConfig(
        f"{context} key {key!r} must be a finite number, got {value!r}")


def _integer(block: dict, key: str, default, context: str,
             minimum: int | None = None) -> int:
    """The integral JSON number ``block[key]`` (or ``default``), at least
    ``minimum`` when one is given."""
    value = _number(block, key, default, context)
    if not value.is_integer() or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise InvalidConfig(f"{context} key {key!r} must be an integer"
                            f"{bound}, got {block.get(key, default)!r}")
    return int(value)


def _number_list(block: dict, key: str, default, context: str) -> list:
    values = block.get(key, default)
    if not isinstance(values, list):
        raise InvalidConfig(
            f"{context} key {key!r} must be a list of numbers, got {values!r}")
    return [_number({key: v}, key, None, context) for v in values]


def _check_weights(values: list, context: str) -> None:
    """Reject any energy weight A outside [A_MIN, A_MAX]."""
    for a in values:
        if not A_MIN <= a <= A_MAX:
            raise InvalidConfig(f"{context} A = {a:g} outside "
                                f"[{A_MIN:g}, {A_MAX:g}]")


def _init_and_options(cfg: dict, space: ModelSpace):
    """The cosine-bump start profile and the minimizer options of a config."""
    init_spec = cfg.get("init", {"kind": "cosine_bump", "amplitude": 0.4})
    _check_keys(init_spec, {"kind", "amplitude"}, "init")
    if init_spec.get("kind", "cosine_bump") != "cosine_bump":
        raise InvalidConfig(f"unknown init kind {init_spec['kind']!r}")
    amp = _number(init_spec, "amplitude", 0.4, "init")
    init = space.field(1.0 + amp * np.cos(space.grid))
    opts = MinimizeOptions(
        tol=_number(cfg, "tol", MinimizeOptions.tol, "config"),
        max_iter=_integer(cfg, "max_iter", MinimizeOptions.max_iter, "config"),
        raise_on_failure=False)
    return init, opts


def _space_from_config(cfg: dict, resolution_override=None,
                       default=None) -> ModelSpace:
    spec = dict(default or {"kind": "sphere_radial", "d": 3, "n": 3.0,
                            "resolution": 512})
    block = cfg.get("space", {})
    _check_keys(block, SPACE_KEYS, "space")
    spec.update(block)
    if "n" not in block and "d" in block and spec["kind"] == "sphere_radial":
        spec["n"] = block["d"]
    if resolution_override is not None:
        spec["resolution"] = resolution_override
    return build_space(spec["kind"], _integer(spec, "d", None, "space"),
                       _number(spec, "n", None, "space"),
                       _integer(spec, "resolution", None, "space"))


# ---------------------------------------------------------------------------
# command handlers: each returns a list of CheckResult and writes artifacts
# ---------------------------------------------------------------------------

def _cmd_verify_cd(cfg, out, seed, resolution):
    _check_keys(cfg, {"space", "seed", "output_dir", "corpus_size",
                      "tolerance"}, "verify-cd config")
    space = _space_from_config(cfg, resolution)
    count = _integer(cfg, "corpus_size", 50, "config", minimum=1)
    tol = _number(cfg, "tolerance", 5e-3, "config")
    rng = np.random.default_rng(seed)
    rows = []
    first = None
    for i in range(count):
        # pointwise margins need a gentler corpus than the integrated
        # deficit checks: the discrete Gamma_2 error grows with the
        # fourth derivative of the field
        f = (space.field_from_function(np.cos) if i == 0
             else acceptance.trig_poly_field(space, rng, degree=2,
                                             amplitude=0.5))
        rep = cd_margin(space, f)
        if first is None:
            first = rep
        rows.append((i, rep.cd_margin_min))
    write_csv(os.path.join(out, "cd_margins.csv"),
              ["index", "cd_margin_min"], rows)
    write_field_csv(os.path.join(out, "cd_pointwise.csv"), space,
                    {"gamma": first.gamma_field, "gamma2": first.gamma2_field,
                     "Lphi": first.l_field, "cd_margin": first.cd_margin_field})
    write_json(os.path.join(out, "cd_summary.json"),
               {**first.to_json_dict(), "corpus_size": count,
                "min_margin_over_corpus": min(r[1] for r in rows)})
    worst = min(r[1] for r in rows)
    return [acceptance.CheckResult(
        "cd_margin_nonnegative", worst >= -tol, worst, -tol,
        f"min pointwise curvature-dimension margin over {count} fields")]


def _cmd_bochner(cfg, out, seed, resolution):
    _check_keys(cfg, {"space", "seed", "output_dir", "tolerance"},
                "bochner config")
    space = _space_from_config(cfg, resolution)
    tol = _number(cfg, "tolerance", 1e-3, "config")
    f = space.field_from_function(np.cos)
    resid = bochner_residual(space, f)
    cs_min = float(cauchy_schwarz_margin(space, f).values.min())
    write_json(os.path.join(out, "bochner.json"),
               {"residual": resid, "cauchy_schwarz_min": cs_min,
                "resolution": space.resolution})
    checks = [
        acceptance.CheckResult("bochner_bracket", resid <= tol, resid, tol,
                               "interior sup-norm gap between Gamma_2 and "
                               "the radial Hessian-plus-Ricci bracket"),
        acceptance.CheckResult("hessian_cauchy_schwarz", cs_min >= -tol,
                               cs_min, -tol,
                               "pointwise ||Hess||^2 - (Delta f)^2/d"),
    ]
    return checks


def _cmd_sobolev_deficit(cfg, out, seed, resolution):
    _check_keys(cfg, {"space", "seed", "output_dir", "q", "v"},
                "sobolev-deficit config")
    space = _space_from_config(
        cfg, resolution, {"kind": "sphere_radial", "d": 3, "n": 3.0,
                          "resolution": 1024})
    q = _number(cfg, "q", critical_exponent(space.n), "config")
    vspec = cfg.get("v", {"kind": "extremal", "beta": 2.0})
    _check_keys(vspec, {"kind", "beta"}, "v")
    if vspec.get("kind", "extremal") == "extremal":
        v = extremal_field(space, _number(vspec, "beta", 2.0, "v"))
        is_extremal = True
    elif vspec["kind"] == "trig_poly":
        v = acceptance.trig_poly_field(space, np.random.default_rng(seed))
        is_extremal = False
    else:
        raise InvalidConfig(f"unknown v kind {vspec['kind']!r}")
    rep = sobolev_deficit(space, v, q)
    write_json(os.path.join(out, "sobolev_deficit.json"), rep.to_json_dict())
    write_field_csv(os.path.join(out, "field.csv"), space, {"v": v})
    checks = [acceptance.CheckResult(
        "deficit_nonnegative", rep.deficit >= -1e-6 * (1.0 + rep.rhs),
        rep.deficit / (1.0 + rep.rhs), -1e-6,
        "scaled Sobolev deficit of the configured field")]
    if is_extremal:
        checks.append(acceptance.CheckResult(
            "extremal_saturates", abs(rep.deficit_rel) <= 1e-3,
            abs(rep.deficit_rel), 1e-3,
            "relative deficit of the extremal profile"))
    return checks


def _cmd_extremal_sweep(cfg, out, seed, resolution):
    _check_keys(cfg, {"seed", "output_dir"}, "extremal-sweep config")
    return [acceptance.check_extremal_saturation(out)]


def _cmd_minimize(cfg, out, seed, resolution):
    _check_keys(cfg, {"space", "seed", "output_dir", "A", "q", "init", "tol",
                      "max_iter"}, "minimize config")
    space = _space_from_config(cfg, resolution)
    A = _number(cfg, "A", 2.1, "config")
    _check_weights([A], "config")
    q = _number(cfg, "q", 5.0, "config")
    init, opts = _init_and_options(cfg, space)
    rep = minimize_subcritical(space, A, q, init, opts)
    write_json(os.path.join(out, "minimizer.json"), rep.to_json_dict())
    write_field_csv(os.path.join(out, "minimizer.csv"), space,
                    {"v": rep.minimizer})
    norm_err = abs(lq_norm(space, rep.minimizer, q) - 1.0)
    return [
        acceptance.CheckResult("minimize_converged", rep.converged,
                               float(rep.iterations), float(opts.max_iter),
                               f"backward error {rep.backward_error:.3e} "
                               f"(tol {opts.tol:.0e})"),
        acceptance.CheckResult("constraint_unit_lq_norm", norm_err <= 1e-10,
                               norm_err, 1e-10, "| ||v||_q - 1 |"),
        acceptance.CheckResult("minimizer_nonnegative",
                               rep.minimizer.min() >= 0.0,
                               rep.minimizer.min(), 0.0, "pointwise min of v"),
    ]


def _cmd_rigidity_scan(cfg, out, seed, resolution):
    _check_keys(cfg, {"space", "seed", "output_dir", "q", "A_list", "A_range",
                      "f", "init", "tol", "max_iter"}, "rigidity-scan config")
    space = _space_from_config(
        cfg, resolution, {"kind": "sphere_radial", "d": 3, "n": 3.0,
                          "resolution": 2048})
    q = _number(cfg, "q", 5.0, "config")
    if "A_list" in cfg and "A_range" in cfg:
        raise InvalidConfig("give A_list or A_range, not both")
    if "A_list" in cfg:
        a_values = _number_list(cfg, "A_list", None, "config")
    else:
        rng_spec = cfg.get("A_range", {})
        _check_keys(rng_spec, {"lo", "hi", "count"}, "A_range")
        a_values = list(np.linspace(
            _number(rng_spec, "lo", 0.05, "A_range"),
            _number(rng_spec, "hi", 2.1, "A_range"),
            _integer(rng_spec, "count", 11, "A_range", minimum=1)))
    _check_weights(a_values, "config")
    f_block = cfg.get("f", {})
    _check_keys(f_block, {"kind", "s"}, "f")
    f_spec = {"kind": f_block.get("kind", "constant"),
              "s": _number(f_block, "s", 0.0, "f")}
    init, opts = _init_and_options(cfg, space)
    entries = rigidity_scan(space, q, a_values, f_spec, init, opts)
    astar = a_star(critical_exponent(q), space.rho)
    worst_rel = max(e.identity_rel for e in entries)
    acceptance.write_rigidity_csv(os.path.join(out, "rigidity_scan.csv"),
                                  entries)
    write_svg(os.path.join(out, "rigidity_scan.svg"),
              [("constancy", [e.A_over_a_star for e in entries],
                [min(e.report.constancy, 10.0) for e in entries])],
              title=f"constancy of the minimizer across A/A*, q={q}",
              xlabel="A / A*", ylabel="constancy (clipped at 10)")
    checks = [
        acceptance.CheckResult(
            "scan_converged", all(e.report.converged for e in entries),
            float(sum(e.report.converged for e in entries)),
            float(len(entries)), "minimizations converged at every A"),
        acceptance.CheckResult(
            "identity_residual", worst_rel <= 1e-3, worst_rel, 1e-3,
            "max scale-relative Gamma_2 identity residual over the scan"),
        acceptance.CheckResult(
            "rigidity_above_threshold",
            all(e.report.constancy <= 1e-6 for e in entries
                if e.report.A >= astar - 1e-12),
            max([e.report.constancy for e in entries
                 if e.report.A >= astar - 1e-12], default=0.0), 1e-6,
            "constancy of every minimizer with A >= A*"),
    ]
    return checks


def _cmd_critical_limit(cfg, out, seed, resolution):
    _check_keys(cfg, {"space", "seed", "output_dir", "q_list"},
                "critical-limit config")
    space = _space_from_config(
        cfg, resolution, {"kind": "sphere_radial", "d": 3, "n": 3.0,
                          "resolution": 1024})
    q_list = _number_list(cfg, "q_list", [5.0, 5.5, 5.8, 5.95], "config")
    table, extrapolated, warnings = critical_limit_sweep(space, q_list)
    for msg in warnings:
        print(f"warning: {msg}", file=sys.stderr)
    acceptance.write_critical_limit_csv(
        os.path.join(out, "critical_limit.csv"), table)
    limit = a_star(space.n, space.rho)
    doc = {"table_length": len(table), "warnings": warnings,
           "critical_a_star": limit}
    checks = [acceptance.CheckResult(
        "sweep_converged", all(r["converged"] for r in table),
        float(sum(r["converged"] for r in table)), float(len(table)),
        "minimization at A = A*(d'(q)) converged for every q")]
    if extrapolated is not None:
        doc["extrapolated_a_star"] = extrapolated
        near_critical = q_list[-1] >= 0.99 * critical_exponent(space.n)
        if near_critical:
            err = abs(extrapolated - limit)
            checks.append(acceptance.CheckResult(
                "extrapolated_threshold", err <= 1e-3, err, 1e-3,
                "Richardson-extrapolated A*(d'(q)) vs the critical value"))
    write_json(os.path.join(out, "critical_limit.json"), doc)
    return checks


def _cmd_flow_fd(cfg, out, seed, resolution):
    _check_keys(cfg, {"seed", "output_dir"}, "flow-fd config")
    return [acceptance.check_finite_dim_decay(out, seed)]


def _cmd_flow_fast_diffusion(cfg, out, seed, resolution):
    _check_keys(cfg, {"seed", "output_dir"}, "flow-fast-diffusion config")
    N = int(resolution) if resolution else 256
    return [acceptance.check_fast_diffusion_flow(out, N)]


def _cmd_entropy_inequality(cfg, out, seed, resolution):
    _check_keys(cfg, {"seed", "output_dir"}, "entropy-inequality config")
    N = int(resolution) if resolution else 1024
    return [acceptance.check_entropy_sobolev_equivalence(out, seed, N)]


def _cmd_full_suite(cfg, out, seed, resolution):
    _check_keys(cfg, {"seed", "output_dir"}, "full-suite config")
    return acceptance.run_full_suite(out, seed)


COMMANDS = {
    "verify-cd": _cmd_verify_cd,
    "bochner": _cmd_bochner,
    "sobolev-deficit": _cmd_sobolev_deficit,
    "extremal-sweep": _cmd_extremal_sweep,
    "minimize": _cmd_minimize,
    "rigidity-scan": _cmd_rigidity_scan,
    "critical-limit": _cmd_critical_limit,
    "flow-fd": _cmd_flow_fd,
    "flow-fast-diffusion": _cmd_flow_fast_diffusion,
    "entropy-inequality": _cmd_entropy_inequality,
    "full-suite": _cmd_full_suite,
}


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"malformed JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cdsobolev",
        description="curvature-dimension Sobolev toolkit: Gamma-calculus "
                    "checks, sharp-constant experiments, rigidity scans and "
                    "entropy gradient flows")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None,
                        help="JSON config file (unknown keys rejected)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized corpora")
    parser.add_argument("--resolution", type=int, default=None,
                        help="grid resolution override")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        if not isinstance(cfg, dict):
            raise InvalidConfig("config root must be a JSON object")
        out = args.out or cfg.get("output_dir") \
            or os.path.join("runs", args.command)
        seed = _integer({"seed": args.seed} if args.seed is not None
                        else cfg, "seed", 0, "config", minimum=0)
        t0 = time.perf_counter()
        ensure_dir(out)
        result = COMMANDS[args.command](cfg, out, seed, args.resolution)
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3

    try:
        if not isinstance(result, dict):  # full-suite wrote its own manifest
            config = {"command": args.command, "seed": seed,
                      "output_dir": out,
                      **{k: v for k, v in cfg.items()
                         if k not in ("seed", "output_dir")}}
            result = acceptance.write_manifest(
                out, config, result,
                {"wall_clock_seconds": time.perf_counter() - t0})
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    return 0 if result["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
