"""Command-line front end: config parsing and the ``COMMANDS`` table.

A row per command names the config keys it accepts (others are rejected),
the parser that turns a config and the flags into keyword arguments, and the
``acceptance`` function that runs the experiment and writes every artifact,
the manifest included.  Exit codes: 0 when all checks pass, 1 on a check
failure (manifest still written), 2 on an invalid config, 3 on I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import acceptance
from .errors import (InvalidAlpha, InvalidConfig, InvalidExponent,
                     InvalidParameter, NonPositiveField,
                     NotAProbabilityDensity, SpaceMismatch)
from .model_space import ModelSpace, build_space
from .sobolev import critical_exponent, extremal_field
# critical_limit_sweep is re-exported: benchmarks/workloads.py runs the sweep
# as cli.critical_limit_sweep
from .variational import MinimizeOptions, critical_limit_sweep  # noqa: F401

CONFIG_ERRORS = (InvalidConfig, InvalidExponent, InvalidParameter,
                 InvalidAlpha, SpaceMismatch, NonPositiveField,
                 NotAProbabilityDensity)

SPACE_KEYS = {"kind", "d", "n", "resolution"}

# Admissible energy weights A of ``minimize`` and ``rigidity-scan``.  The
# minimizer concentrates at width about sqrt(A): at A = 1e-4 on N = 2048 its
# pressure v^{-(q-2)/2} overflows, and at A = 1e300 so does A S v.  The
# suite's values, 0.05 to 2A* = 2.1, lie well inside.  An admissible A is
# not always resolved: the O(h^2) integral_identity residual grows as A
# falls, and at the default N = 2048 (sphere d = 3, q = 5) the smallest A
# under its 1e-3 gate is 8.8e-3, so a rigidity-scan down to A_MIN exits 1
# there.  A finer --resolution extends the range: N = 8192 passes at A_MIN.
A_MIN, A_MAX = 1e-3, 1e6

# Largest ``rigidity-scan`` A_range count and ``verify-cd`` corpus size: a
# mistyped count ends in exit 2, not in a failed allocation or an endless run.
MAX_COUNT = 10_000


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
             minimum: int | None = None, maximum: int | None = None) -> int:
    """The integral JSON number ``block[key]`` (or ``default``), at least
    ``minimum`` and at most ``maximum`` when they are given."""
    value = _number(block, key, default, context)
    if not value.is_integer() or (minimum is not None and value < minimum) \
            or (maximum is not None and value > maximum):
        bound = "" if minimum is None else f" >= {minimum}"
        bound += "" if maximum is None else f" and <= {maximum}"
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


def _space(cfg: dict, resolution, default_resolution=512) -> ModelSpace:
    """The config's space (sphere d=3 by default) at the flag's resolution."""
    spec = {"kind": "sphere_radial", "d": 3, "n": 3.0,
            "resolution": default_resolution}
    block = cfg.get("space", {})
    _check_keys(block, SPACE_KEYS, "space")
    spec.update(block)
    if "n" not in block and "d" in block and spec["kind"] == "sphere_radial":
        spec["n"] = block["d"]
    if resolution is not None:
        spec["resolution"] = resolution
    return build_space(spec["kind"], _integer(spec, "d", None, "space"),
                       _number(spec, "n", None, "space"),
                       _integer(spec, "resolution", None, "space"))


def _minimizer(cfg: dict, resolution, default_resolution=512) -> dict:
    """The space, q, cosine-bump start profile and minimizer options of the
    minimizing commands."""
    space = _space(cfg, resolution, default_resolution)
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
    return {"space": space, "q": _number(cfg, "q", 5.0, "config"),
            "init": init, "opts": opts}


def _verify_cd(cfg, seed, resolution):
    return {"space": _space(cfg, resolution), "seed": seed,
            "corpus_size": _integer(cfg, "corpus_size", 50, "config", 1,
                                    MAX_COUNT),
            "tolerance": _number(cfg, "tolerance", 5e-3, "config")}


def _bochner(cfg, seed, resolution):
    return {"space": _space(cfg, resolution),
            "tolerance": _number(cfg, "tolerance", 1e-3, "config")}


def _sobolev_deficit(cfg, seed, resolution):
    space = _space(cfg, resolution, 1024)
    q = _number(cfg, "q", critical_exponent(space.n), "config")
    vspec = cfg.get("v", {"kind": "extremal", "beta": 2.0})
    _check_keys(vspec, {"kind", "beta"}, "v")
    kind = vspec.get("kind", "extremal")
    if kind == "extremal":
        v = extremal_field(space, _number(vspec, "beta", 2.0, "v"))
    elif kind == "trig_poly":
        v = acceptance.trig_poly_field(space, np.random.default_rng(seed))
    else:
        raise InvalidConfig(f"unknown v kind {kind!r}")
    return {"space": space, "v": v, "q": q, "extremal": kind == "extremal"}


def _minimize(cfg, seed, resolution):
    A = _number(cfg, "A", 2.1, "config")
    _check_weights([A], "config")
    return {**_minimizer(cfg, resolution), "A": A}


def _rigidity_scan(cfg, seed, resolution):
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
            _integer(rng_spec, "count", 11, "A_range", 1, MAX_COUNT)))
    _check_weights(a_values, "config")
    return {**_minimizer(cfg, resolution, 2048), "a_values": a_values}


def _critical_limit(cfg, seed, resolution):
    return {"space": _space(cfg, resolution, 1024),
            "q_list": _number_list(cfg, "q_list", list(acceptance.CRITICAL_Q),
                                   "config")}


class Command(NamedTuple):
    """A row of ``COMMANDS``: ``parse`` gives the keyword arguments (None
    keeps the default) of the acceptance function named ``run``, looked up
    on each call so that a wrapper installed on the module sees it."""
    keys: set                 # config keys besides "seed" and "output_dir"
    parse: Callable           # (cfg, seed, resolution) -> keyword arguments
    run: str
    resolution: bool = True   # whether --resolution applies


COMMANDS = {
    "verify-cd": Command({"space", "corpus_size", "tolerance"}, _verify_cd,
                         "run_verify_cd"),
    "bochner": Command({"space", "tolerance"}, _bochner, "run_bochner"),
    "sobolev-deficit": Command({"space", "q", "v"}, _sobolev_deficit,
                               "run_sobolev_deficit"),
    "extremal-sweep": Command(set(), lambda cfg, seed, res: {},
                              "check_extremal_saturation", False),
    "minimize": Command({"space", "A", "q", "init", "tol", "max_iter"},
                        _minimize, "run_minimize"),
    "rigidity-scan": Command({"space", "q", "A_list", "A_range", "init",
                              "tol", "max_iter"}, _rigidity_scan,
                             "run_rigidity_scan"),
    "critical-limit": Command({"space", "q_list"}, _critical_limit,
                              "check_critical_limit"),
    "flow-fd": Command(set(), lambda cfg, seed, res: {"seed": seed},
                       "check_finite_dim_decay", False),
    "flow-fast-diffusion": Command(
        set(), lambda cfg, seed, res: {"resolution": res},
        "check_fast_diffusion_flow"),
    "entropy-inequality": Command(
        set(), lambda cfg, seed, res: {"seed": seed, "resolution": res},
        "check_entropy_sobolev_equivalence"),
    "full-suite": Command(set(), lambda cfg, seed, res: {"seed": seed},
                          "run_full_suite", False),
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
    command = COMMANDS[args.command]

    try:
        cfg = _load_config(args.config)
        if not isinstance(cfg, dict):
            raise InvalidConfig("config root must be a JSON object")
        out = args.out or cfg.get("output_dir") \
            or os.path.join("runs", args.command)
        seed = _integer({"seed": args.seed} if args.seed is not None
                        else cfg, "seed", 0, "config", minimum=0)
        os.makedirs(out, exist_ok=True)
        _check_keys(cfg, command.keys | {"seed", "output_dir"},
                    f"{args.command} config")
        if args.resolution is not None and not command.resolution:
            raise InvalidConfig(f"{args.command} takes no --resolution")
        kwargs = {k: v for k, v in command.parse(
            cfg, seed, args.resolution).items() if v is not None}
        config = {"command": args.command, "seed": seed, "output_dir": out,
                  **{k: v for k, v in cfg.items()
                     if k not in ("seed", "output_dir")}}
        manifest = acceptance.run_command(
            getattr(acceptance, command.run), out, config, kwargs)
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    return 0 if manifest["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
