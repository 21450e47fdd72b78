"""Compare two artifact directories, e.g. two ``full-suite`` runs.

    python tools/compare_artifacts.py PARENT_DIR CHANGE_DIR

Every file under either directory except ``timing.json`` (wall clock,
never reproducible) is reported as ``same`` (identical bytes), ``moved``
(bytes differ) or ``missing`` (present on one side only).  For a moved
file the numbers in the two texts are paired in order of appearance and
the largest relative change |a - b| / max(|a|, |b|) is printed, over all
numbers and over those with max(|a|, |b|) >= 1e-6; a file whose text
differs outside its numbers, or whose count of numbers differs, is flagged.
A moved CSV whose first row names distinct columns, with rows of its length,
also names the columns whose cells differ.  If its header changed, its
cells are paired by column name over the columns both sides share instead,
and the dropped and added columns are named.
Run both sides with the same output path, since ``manifest.json``
records it.  Exits 1 if the two file sets differ, 2 on bad usage, else 0.
Standard library only.
"""

from __future__ import annotations

import csv
import math
import re
import sys
from pathlib import Path

SKIP = {"timing.json"}
SMALL = 1e-6
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|[-+]?(?:nan|inf)\b")


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and p.name not in SKIP}


def _rel_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    if math.isinf(scale) or math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / scale


def moved_report(old: str, new: str) -> str:
    """One line on how the numbers of ``new`` moved against ``old``."""
    a, b = NUMBER.findall(old), NUMBER.findall(new)
    notes = []
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        notes.append("text differs outside numbers")
    if len(a) != len(b):
        notes.append(f"{len(a)} vs {len(b)} numbers")
    worst = worst_big = 0.0
    for x, y in zip(map(float, a), map(float, b)):
        r = _rel_change(x, y)
        worst = max(worst, r)
        if max(abs(x), abs(y)) >= SMALL:
            worst_big = max(worst_big, r)
    line = (f"max rel change {worst:.3g}; over |x| >= {SMALL:g}: "
            f"{worst_big:.3g}")
    return "; ".join([line] + notes)


def _columns(text: str) -> dict[str, tuple[str, ...]] | None:
    """{name: cells} of a rectangular CSV whose first row names distinct
    columns (none of them a number); None for any other text."""
    rows = list(csv.reader(text.splitlines()))
    if not rows or len(set(rows[0])) != len(rows[0]) \
            or any(NUMBER.fullmatch(name) for name in rows[0]) \
            or any(len(row) != len(rows[0]) for row in rows):
        return None
    return {name: tuple(row[i] for row in rows[1:])
            for i, name in enumerate(rows[0])}


def csv_report(old: str, new: str) -> str:
    """``moved_report`` of two CSVs with the columns whose cells differ, by
    column name when their headers differ."""
    a, b = _columns(old), _columns(new)
    if a is None or b is None:
        return moved_report(old, new)
    shared = [name for name in a if name in b]
    differ = "cells differ in: " + (", ".join(
        name for name in shared if a[name] != b[name]) or "none")
    if list(a) == list(b):
        return f"{moved_report(old, new)}; {differ}"
    notes = [f"columns {what}: {', '.join(names)}" for what, names in (
        ("dropped", [name for name in a if name not in b]),
        ("added", [name for name in b if name not in a])) if names]
    line = moved_report(*("\n".join(",".join(side[name]) for name in shared)
                          for side in (a, b)))
    return "; ".join(notes + [f"over shared columns: {line}", differ])


def compare(parent: Path, change: Path) -> int:
    left, right = _files(parent), _files(change)
    for name in sorted(left | right):
        if name not in right:
            print(f"missing  {name} (only in {parent})")
        elif name not in left:
            print(f"missing  {name} (only in {change})")
        else:
            old = (parent / name).read_bytes()
            new = (change / name).read_bytes()
            if old == new:
                print(f"same     {name}")
            else:
                report = csv_report if name.endswith(".csv") \
                    else moved_report
                print(f"moved    {name}: " + report(
                    old.decode("utf-8", "replace"),
                    new.decode("utf-8", "replace")))
    return 0 if left == right else 1


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare_artifacts.py PARENT_DIR CHANGE_DIR",
              file=sys.stderr)
        return 2
    return compare(Path(args[0]), Path(args[1]))


if __name__ == "__main__":
    sys.exit(main())
