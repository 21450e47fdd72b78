"""Self-tests of the benchmark's own machinery.

    python3 benchmarks/selftest.py [WORKLOAD ...]

1. Registry: metrics.py lists the suite's checks, and BENCHMARK.json at the
   checkout root registers exactly the workloads of run.py and the metrics
   of metrics.py.
2. Failure accounting: a synthetic pass whose third operation raises an
   exception outside ToolkitError fails that operation and every later one,
   and its traced pass still yields every per-layer metric.
3. Exact counters: each named workload (default: all) runs traced twice on
   the same seed; every deterministic count repeats exactly.
4. Artifacts: the suite's artifacts from a traced run match those of a
   plain ``full-suite`` run into a fresh directory: the same files, byte
   for byte, except timing.json.

Exits 0 when every test passes.  Steps 3 and 4 take about two minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

import run
from metrics import CHECK_NAMES, END_TO_END, PER_LAYER, RUN_LEVEL

# counts that depend only on the code and the seed, never on timing
EXACT = [name for name, unit in PER_LAYER.items() if unit == "count"] + [
    "variational.minimize.converged_frac", "fail_frac"]


def check(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


def test_registry() -> None:
    from cdsobolev import acceptance
    check(list(CHECK_NAMES) == list(acceptance.CHECK_NAMES),
          "metrics.CHECK_NAMES differs from the suite's checks")
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    check(os.path.exists(path), f"{path} missing")
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES),
          "workloads differ from run.WORKLOAD_NAMES")
    check({m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END,
          "end_to_end differs from metrics.END_TO_END")
    check({m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER,
          "per_layer differs from metrics.PER_LAYER")
    print("registry: ok")


def test_failure_accounting() -> None:
    from cdsobolev import model_space, sobolev
    from tracing import Tracer
    from workloads import run_pass

    space = model_space.build_space("sphere_radial", 3, 3.0, 64)
    field = space.field(1.0 + 0.3 * space.grid)
    original = sobolev.sobolev_deficit

    def synthetic(tally):
        for i in range(5):
            if i == 2:
                raise UnboundLocalError("synthetic failure")
            sobolev.sobolev_deficit(space, field, 6.0)
            tally.settle(True)

    tracer = Tracer()
    restore = tracer.install()
    try:
        record = run_pass(synthetic, 5)
    finally:
        restore()
    check(sobolev.sobolev_deficit is original, "tracer not uninstalled")
    check((record["attempted"], record["failed"], record["correct"])
          == (5, 3, False), f"wrong accounting {record}")
    layers = tracer.layer_metrics()
    check(set(layers) == set(PER_LAYER) - set(RUN_LEVEL),
          "traced pass misses per-layer metrics")
    check(layers["sobolev.sobolev_deficit.calls"] == 2,
          "spans of the failed pass lost")
    print("failure accounting: ok")


def traced_run(workload: str) -> dict:
    args = argparse.Namespace(workload=workload, seed=7, seconds=1, trace=1)
    record = run.measure(args)
    check(set(record["result"]["metrics"]) == set(PER_LAYER),
          f"{workload}: per-layer metrics incomplete")
    return record


def counts(record: dict) -> dict:
    traced = [p for p in record["passes"] if p["traced"]][-1]
    out = {name: traced["layers"][name] for name in EXACT
           if name not in RUN_LEVEL}
    out["fail_frac"] = record["result"]["metrics"]["fail_frac"]["value"]
    out["failed"] = [p["failed"] for p in record["passes"]]
    return out


def hash_tree(root: str) -> dict:
    """Hash every file under ``root`` but timing.json.  The manifest records
    its output directory, so ``root`` itself is replaced by a placeholder."""
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            if name != "timing.json":
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    data = fh.read().replace(root.encode(), b"<out>")
                out[os.path.relpath(path, root)] = hashlib.sha256(
                    data).hexdigest()
    return out


def compare_suite_artifacts() -> None:
    """The traced run's suite artifacts against a plain full-suite run."""
    plain_out = os.path.join(run.OUT, "suite-plain")
    shutil.rmtree(plain_out, ignore_errors=True)
    subprocess.run([sys.executable, "-m", "cdsobolev.cli", "full-suite",
                    "--out", plain_out, "--seed", "7"], cwd=run.ROOT,
                   env=run.child_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=170)
    traced_artifacts = hash_tree(os.path.join(run.OUT, "suite"))
    plain_artifacts = hash_tree(plain_out)
    differ = sorted(name for name in {**traced_artifacts, **plain_artifacts}
                    if traced_artifacts.get(name) != plain_artifacts.get(name))
    check(not differ, f"traced suite artifacts differ from a plain run: "
          f"{differ}")
    print(f"suite artifacts: {len(traced_artifacts)} files identical")


def test_workload(workload: str) -> None:
    record = traced_run(workload)
    first = counts(record)
    if workload == "suite":
        # each suite pass starts from an empty directory, so what is left
        # is the traced pass's output alone
        check(record["passes"][-1]["traced"], "last suite pass not traced")
        compare_suite_artifacts()
    second = counts(traced_run(workload))
    diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    check(not diff, f"{workload}: counts differ between runs: {diff}")
    print(f"{workload} counters: ok ({len(first)} exact counts repeat)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark self-tests")
    parser.add_argument("workloads", nargs="*",
                        help="workloads to run twice (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(run.WORKLOAD_NAMES)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}; "
                     f"choose from {run.WORKLOAD_NAMES}")
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    try:
        test_registry()
        test_failure_accounting()
        for workload in args.workloads or run.WORKLOAD_NAMES:
            test_workload(workload)
    except (AssertionError, run.BenchError) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
