"""Run every ``cdsobolev`` command at its defaults, in one process.

    PYTHONPATH=src python tools/run_commands.py OUT

Each row of ``cli.COMMANDS`` runs as ``cdsobolev COMMAND --out OUT/COMMAND``
with no config, seed or resolution, and the exit codes go to
``OUT/exit_codes.json``.  The package comes from the import path, so one
script runs any checkout.  To compare two checkouts, run each into the same
OUT (``manifest.json`` records the path), move the first aside, and give
both directories to ``tools/compare_artifacts.py``: a changed exit code
shows as a moved ``exit_codes.json``.  Exits 2 on bad usage, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from cdsobolev import cli


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: run_commands.py OUT", file=sys.stderr)
        return 2
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    codes = {name: cli.main([name, "--out", str(out / name)])
             for name in cli.COMMANDS}
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
