"""In-memory span tracing of cdsobolev's layers, installed from outside.

The tracer wraps public library functions at every module binding through
which callers reach them (``cdsobolev.acceptance.fast_diffusion_flow``,
``cdsobolev.flows.apply_L``, ...), so nothing under ``src/`` changes.  Each
call records one span: name, start, end, parent span and the grid size of its
model space.  Spans stay in compact arrays until the run writes them out.

A span's self time is its duration minus the time its direct children cover;
a layer's self time is the sum over the spans it owns.  The layer of a span
is the first component of its name.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

from metrics import (CHECK_NAMES, LAYERS, MINIMIZE_SIZES,
                     OPERATOR_SIZES)

# span name -> (defining module, function name).  Every binding of the
# function in any cdsobolev module is wrapped, so calls through re-imports
# are seen too.  A function that a later refactor moves or renames stops
# the traced run (Tracer.install raises) rather than reading 0.
SPANS = {
    "model_space.build_space": ("model_space", "build_space"),
    "model_space.integrate": ("model_space", "integrate"),
    "model_space.apply_L": ("model_space", "apply_L"),
    "model_space.gamma": ("model_space", "gamma"),
    "model_space.gamma2": ("model_space", "gamma2"),
    "model_space.fv_stiffness": ("model_space", "fv_stiffness"),
    "model_space.weighted_laplacian_fv": ("model_space",
                                          "weighted_laplacian_fv"),
    "gamma_calculus.cd_margin": ("gamma_calculus", "cd_margin"),
    "sobolev.sobolev_deficit": ("sobolev", "sobolev_deficit"),
    "sobolev.lq_norm": ("sobolev", "lq_norm"),
    "sobolev.grad_norm_sq": ("sobolev", "grad_norm_sq"),
    "variational.minimize": ("variational", "minimize_subcritical"),
    "variational.rigidity_scan": ("variational", "rigidity_scan"),
    "variational.rigidity_terms": ("variational", "rigidity_terms"),
    "variational.gamma2_identity_terms": ("variational",
                                          "gamma2_identity_terms"),
    "flows.fast_diffusion": ("flows", "fast_diffusion_flow"),
    "flows.fd_flow": ("flows", "fd_flow"),
    "flows.convexity_margin": ("flows", "convexity_inequality_margin"),
    "flows.hessian_path": ("flows", "hessian_second_derivative"),
    "flows.renyi_hessian_quadform": ("flows", "renyi_hessian_quadform"),
    "flows.entropy_inequality_margin": ("flows", "entropy_inequality_margin"),
    "flows.density_from_field": ("flows", "density_from_field"),
    "acceptance.run_full_suite": ("acceptance", "run_full_suite"),
    "cli.main": ("cli", "main"),
    "cli.critical_limit_sweep": ("cli", "critical_limit_sweep"),
    "reporting.write_csv": ("reporting", "write_csv"),
    "reporting.write_json": ("reporting", "write_json"),
    "reporting.write_svg": ("reporting", "write_svg"),
    "reporting.write_field_csv": ("reporting", "write_field_csv"),
}
SPANS.update({f"acceptance.check.{name}": ("acceptance", f"check_{name}")
              for name in CHECK_NAMES})


def _grid_size(args) -> int:
    return getattr(args[0], "resolution", 0) if args else 0


class Tracer:
    """Records spans and counters for the calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def wrap(self, fn, name: str, size=_grid_size, after=None):
        """Return ``fn`` recording a span per call; ``after(result, args)``
        runs once the span has closed."""
        nid = self._id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.size.append(size(args))
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(result, args)
            return result

        return traced

    # -- installation -------------------------------------------------------
    def install(self):
        """Wrap every binding of the traced functions; return an undo."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "cdsobolev"
                                         or k.startswith("cdsobolev."))]
        undo = []
        for span, (mod_name, attr) in SPANS.items():
            fn = getattr(sys.modules.get(f"cdsobolev.{mod_name}"), attr, None)
            if fn is None:
                raise LookupError(f"traced function cdsobolev.{mod_name}."
                                  f"{attr} not found")
            wrapped = self._wrapper(span, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, key, fn))
                        setattr(mod, key, wrapped)

        from cdsobolev.model_space import ModelSpace
        undo.append((ModelSpace, "field", ModelSpace.field))
        ModelSpace.field = self.wrap(ModelSpace.field, "model_space.field")

        def restore():
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

        return restore

    def _wrapper(self, span: str, fn):
        if span == "model_space.weighted_laplacian_fv":
            # the returned closure is the FV matvec that the density flows
            # apply on every right-hand side: trace it as fv_apply
            build = self.wrap(fn, span)

            @functools.wraps(fn)
            def traced_build(space):
                return self.wrap(build(space), "model_space.fv_apply",
                                 size=lambda args: len(args[0]))
            return traced_build
        after = None
        if span == "variational.minimize":
            def after(report, args):
                self.count("minimize.iterations", report.iterations)
                self.count("minimize.converged", bool(report.converged))
        elif span == "flows.fast_diffusion":
            def after(trace, args):
                self.count("fast_diffusion.sim_time", float(trace.times[-1]))
        elif span.startswith("reporting.write"):
            def after(result, args):
                self.count("reporting.bytes", os.path.getsize(args[0]))
        return self.wrap(fn, span, after=after)

    # -- analysis -----------------------------------------------------------
    def arrays(self) -> dict:
        """The recorded spans as numpy arrays (names indexed by name_id)."""
        return {"names": np.array(self.names, dtype=str),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "size": np.frombuffer(self.size, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def layer_metrics(self) -> dict:
        """Every per-layer metric of one traced pass except the run-level
        ones (metrics.RUN_LEVEL)."""
        a = self.arrays()
        nid, parent, size = a["name_id"], a["parent"], a["size"]
        dur = a["end"] - a["start"]
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested],
                                   minlength=len(dur))
        parent_nid = np.where(nested, nid[np.maximum(parent, 0)], -1)

        def ident(name):
            return self._ids.get(name, -2)

        def mask(name):
            return nid == ident(name)

        def calls(name):
            return int(mask(name).sum())

        def total(name):
            return float(dur[mask(name)].sum())

        def self_s(name):
            return float(self_t[mask(name)].sum())

        def per_call(name, n=None, scale=1.0):
            m = mask(name) if n is None else mask(name) & (size == n)
            k = int(m.sum())
            return float(dur[m].sum()) / k * scale if k else 0.0

        layer_of = np.array([name.split(".")[0] for name in self.names],
                            dtype=str)[nid]
        out = {f"{layer}.self_s": float(self_t[layer_of == layer].sum())
               for layer in LAYERS}
        suite = total("acceptance.run_full_suite")
        out["cli.overhead_s"] = total("cli.main") - suite
        in_suite = parent_nid == ident("acceptance.run_full_suite")
        checked = 0.0
        for name in CHECK_NAMES:
            t = float(dur[mask(f"acceptance.check.{name}") & in_suite].sum())
            out[f"acceptance.check_s.{name}"] = t
            checked += t
        out["acceptance.unattributed_s"] = suite - checked
        for op in ("apply_L", "gamma", "gamma2"):
            for n in OPERATOR_SIZES:
                out[f"model_space.{op}.us_per_call.N{n}"] = per_call(
                    f"model_space.{op}", n, 1e6)
        out["model_space.field.calls"] = calls("model_space.field")
        out["model_space.fv_apply.calls"] = calls("model_space.fv_apply")
        out["model_space.fv_apply.us_per_call"] = per_call(
            "model_space.fv_apply", scale=1e6)
        for name in ("gamma_calculus.cd_margin", "sobolev.sobolev_deficit",
                     "flows.convexity_margin"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
        minimize = calls("variational.minimize")
        out["variational.minimize.calls"] = minimize
        out["variational.minimize.iterations"] = int(
            self.counters.get("minimize.iterations", 0))
        out["variational.minimize.converged_frac"] = (
            self.counters.get("minimize.converged", 0) / minimize
            if minimize else 0.0)
        for n in MINIMIZE_SIZES:
            out[f"variational.minimize.s_per_call.N{n}"] = per_call(
                "variational.minimize", n)
        for name in ("variational.rigidity_terms", "flows.fast_diffusion",
                     "flows.fd_flow", "flows.hessian_path"):
            out[f"{name}.self_s"] = self_s(name)
        out["flows.fast_diffusion.rhs_calls"] = int(
            (mask("model_space.fv_apply")
             & (parent_nid == ident("flows.fast_diffusion"))).sum())
        flow = total("flows.fast_diffusion")
        out["flows.fast_diffusion.sim_time_per_s"] = (
            self.counters.get("fast_diffusion.sim_time", 0.0) / flow
            if flow else 0.0)
        writers = [n for n in self.names if n.startswith("reporting.write")]
        out["reporting.writes"] = sum(calls(n) for n in writers)
        out["reporting.write_s"] = sum(total(n) for n in writers)
        out["reporting.bytes"] = int(self.counters.get("reporting.bytes", 0))
        return out
