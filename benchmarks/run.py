"""cdsobolev benchmark: time to a certified result, end to end and per layer.

    python3 benchmarks/run.py --workload {suite,scan,corpus} --seed N
                              --seconds T --trace {0,1}

Run from the root of a source checkout.  The workload runs in a fresh
single-threaded process (BLAS and OpenMP pinned to one thread) as one
closed-loop caller, pass after pass for T seconds.  With --trace 0 the last
line of standard output is a JSON object with the end-to-end metrics
(wall_s, setup_s, peak_rss_mb); with --trace 1 it carries the per-layer
metrics of a traced run.  Earlier lines give the run facts and each metric
by name and unit; the full record goes to .bench_out/.  See README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER, RUN_LEVEL

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("suite", "scan", "corpus")
# fresh processes that only set up; with the measuring process itself they
# give the median set-up time
SETUP_PROBES = 10
# every child must end within --seconds plus this many seconds of the start
# of the run: room for the set-up probes and the pass running at the deadline
TIME_MARGIN_S = 140.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update({var: "1" for var in THREAD_VARS})
    # the determinism check writes temporary bundles: keep them in the checkout
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    return env


def run_worker(args, extra, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; return its spawn instant and report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT, *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time budget: {cmd}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1])


def cache_sizes() -> dict:
    sizes = {}
    pattern = "/sys/devices/system/cpu/cpu0/cache/index*"
    for index in sorted(glob.glob(pattern)):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_facts(args, versions: dict) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "caches": cache_sizes(),
            "load_avg_1m": os.getloadavg()[0],
            "threads_per_process": 1, **versions,
            "git_commit": git_commit()}


def measure(args) -> dict:
    """Run the workload and return the full record of this run."""
    deadline = time.monotonic() + args.seconds + TIME_MARGIN_S
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            spawned, report = run_worker(args, ["--setup-only"], deadline)
            setups.append(report["ready"] - spawned)
    spawned, report = run_worker(args, [], deadline)
    setups.append(report["ready"] - spawned)
    passes = report["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        # median_low reports a measured value, so counts stay whole numbers
        values = {name: statistics.median_low(p["layers"][name]
                                              for p in traced)
                  for name in PER_LAYER if name not in RUN_LEVEL}
        values["fail_frac"] = failed / attempted
        values["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(plain))
        units = PER_LAYER
    else:
        values = {"wall_s": statistics.median(plain),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": report["peak_rss_mb"]}
        units = END_TO_END
    return {
        "facts": run_facts(args, report["versions"]),
        "setups_s": setups, "passes": passes,
        "result": {
            "correct": all(p["correct"] for p in passes),
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cdsobolev benchmark (see benchmarks/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "cdsobolev",
                                       "__init__.py")):
        print(f"error: no cdsobolev source tree under {ROOT}/src",
              file=sys.stderr)
        return 2
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the
    # worker before re-raising
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        record = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    result = record["result"]
    print(json.dumps({"run_facts": record["facts"]}))
    for problem in sorted({q for p in record["passes"]
                           for q in p["problems"]}):
        print(f"problem: {problem}")
    print(f"passes {len(record['passes'])}, attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for metric, entry in result["metrics"].items():
        print(f"{metric:48s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
