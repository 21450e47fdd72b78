"""Run every ``cdsobolev`` command that takes ``--resolution`` at its default
resolution and at N = 4096, 16384 and 65536, in one process.

    PYTHONPATH=src python tools/resolution_sweep.py OUT [N ...]

Each run is ``cdsobolev COMMAND --out OUT/COMMAND/N --resolution N`` with no
config or seed; the N ``default`` passes no ``--resolution``.  Giving N on
the command line replaces the list ``default 4096 16384 65536``.  For each
command and N, ``OUT/resolution_sweep.json`` records the exit code and,
where the command wrote a manifest (exit 0 or 1), each check's ``passed``,
``measured`` and ``tolerance``.  A gate that holds at the default N but not
at 16N shows here as an exit code of 1.  The package comes from the import
path, so one script runs any checkout: as with ``run_commands.py``, run
each checkout into the same OUT, move the first aside, and compare the two
directories with ``tools/compare_artifacts.py``.  Exits 2 on bad usage,
else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from cdsobolev import cli

RESOLUTIONS = ("default", "4096", "16384", "65536")


def _checks(manifest: Path) -> dict:
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    return {check["name"]: {key: check[key]
                            for key in ("passed", "measured", "tolerance")}
            for check in doc["checks"]}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    resolutions = args[1:] or RESOLUTIONS
    if not args or not all(n == "default" or n.isdigit()
                           for n in resolutions):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: resolution_sweep.py OUT [N ...]", file=sys.stderr)
        return 2
    out = Path(args[0])
    sweep = {}
    for name, command in cli.COMMANDS.items():
        if not command.resolution:
            continue
        sweep[name] = {}
        for n in resolutions:
            run_dir = out / name / n
            flag = [] if n == "default" else ["--resolution", n]
            code = cli.main([name, "--out", str(run_dir), *flag])
            checks = _checks(run_dir / "manifest.json") \
                if code in (0, 1) else None  # 2 and 3 write no manifest
            sweep[name][n] = {"exit_code": code, "checks": checks}
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolution_sweep.json").write_text(
        json.dumps(sweep, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
