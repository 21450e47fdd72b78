"""One workload in one fresh process: set up, then timed passes.

    python3 benchmarks/worker.py --workload W --seed S --seconds T --trace 0|1
                                 --out DIR [--setup-only]

Run by run.py with the library's source tree on PYTHONPATH.  Prints one JSON
line: the CLOCK_MONOTONIC instant at which set-up ended, and unless
--setup-only, every pass with its wall time and failure counts.  With
--trace 1, passes alternate untraced and traced, each traced pass carries its
per-layer metrics, and the spans of the last traced pass are written to
DIR/spans-W-seedS.npz.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np
    import scipy

    import cdsobolev
    import workloads
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.abspath(cdsobolev.__file__).startswith(src + os.sep):
        print(f"error: cdsobolev imported from {cdsobolev.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    work = workloads.make(args.workload, args.seed, args.out)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    deadline = ready + args.seconds
    passes, spans = [], None
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            restore = tracer.install()
            try:
                record = workloads.run_pass(work.run, work.attempted)
            finally:
                restore()
            record["layers"] = tracer.layer_metrics()
            spans = tracer.arrays()
        else:
            record = workloads.run_pass(work.run, work.attempted)
        record["traced"] = traced
        passes.append(record)
        if time.monotonic() >= deadline and (
                tracer is None or len(passes) >= 2):
            break

    if spans is not None:
        np.savez(os.path.join(
            args.out, f"spans-{args.workload}-seed{args.seed}.npz"), **spans)
    print(json.dumps({
        "ready": ready, "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
