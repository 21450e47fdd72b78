"""Deterministic artifact writers: CSV tables, JSON documents, SVG line plots.

The byte contract: every float has 17 significant digits (round-trip exact),
'.' decimal separator and '\\n' line endings, so identical inputs give
identical files on every platform.  A CSV is formatted column by column, with
one finiteness test per all-float column; a non-finite value raises
``InvalidParameter`` naming the first such cell in row order.  The SVG writer
is a self-contained polyline plotter (axes, ticks, legend), no renderer.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidParameter
from .model_space import ModelSpace

FLOAT_FORMAT = "%.17g"

WIDTH, HEIGHT = 640, 480

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def fmt_float(x: float) -> str:
    """17-significant-digit decimal rendering; round-trips any double."""
    if not math.isfinite(x):
        raise InvalidParameter(f"non-finite value in output: {x}")
    return FLOAT_FORMAT % float(x)


def _fmt_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return fmt_float(x)
    return str(x)


def write_text(path: str, text: str) -> None:
    with open(path, "wb") as fh:  # the text's own '\n', untranslated
        fh.write(text.encode("utf-8"))


def _column(column) -> tuple:
    """(cell format, cells) of one column: an all-float column keeps its
    floats for FLOAT_FORMAT after one finiteness test, others become text."""
    if all(issubclass(t, float) for t in set(map(type, column))):
        if not np.isfinite(np.array(column, dtype=float)).all():
            raise InvalidParameter("non-finite value in output")
        return FLOAT_FORMAT, column
    return "%s", list(map(_fmt_cell, column))


def csv_text(header, rows) -> str:
    """CSV of a row iterable, or of a 2-D float array's rows; rows of
    unequal length raise ``ValueError`` rather than lose cells."""
    columns = rows.T.tolist() if isinstance(rows, np.ndarray) \
        else list(zip(*rows, strict=True))
    try:
        formats, cells = zip(*map(_column, columns)) if columns else ((), ())
    except InvalidParameter:  # name the first non-finite cell in row order
        for row in zip(*columns):
            list(map(_fmt_cell, row))
        raise
    line = ",".join(formats).__mod__  # one format call per row
    return "\n".join([",".join(header), *map(line, zip(*cells))]) + "\n"


def write_csv(path: str, header, rows) -> None:
    write_text(path, csv_text(header, rows))


def _json_fragment(obj, indent: int, level: int) -> str:
    pad = " " * (indent * (level + 1))
    close = " " * (indent * level)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):  # control characters too must be escaped
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}{json.dumps(str(k), ensure_ascii=False)}: '
                 f'{_json_fragment(v, indent, level + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + close + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [pad + _json_fragment(v, indent, level + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + close + "]"
    if hasattr(obj, "item"):  # numpy scalar
        return _json_fragment(obj.item(), indent, level)
    raise InvalidParameter(f"cannot serialize {type(obj).__name__} to JSON")


def write_json(path: str, obj) -> None:
    write_text(path, _json_fragment(obj, 2, 0) + "\n")


def write_field_csv(path: str, space: ModelSpace, columns: dict) -> None:
    """CSV with a theta column followed by one column per named
    ``ScalarField``."""
    write_text(path, csv_text(["theta", *columns], np.column_stack(
        [space.grid, *(f.values for f in columns.values())])))


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def svg_line_plot(series, title: str, xlabel: str, ylabel: str) -> str:
    """Render (label, xs, ys) series as an SVG polyline chart.

    Purely textual output: fixed canvas, linear axes with five ticks, legend
    in the top-right corner.  Points with non-finite coordinates, and series
    whose xs and ys differ in length, are rejected rather than dropped.
    """
    if not series:
        raise InvalidParameter("svg_line_plot needs at least one series")
    if any(len(xs) != len(ys) for _, xs, ys in series):
        raise InvalidParameter("svg_line_plot needs as many xs as ys")
    ml, mr, mt, mb = 70, 20, 30, 45
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb
    xs_all, ys_all = (np.concatenate([np.asarray(s[i], dtype=float)
                                      for s in series]) for i in (1, 2))
    if not xs_all.size or not (np.isfinite(xs_all).all()
                               and np.isfinite(ys_all).all()):
        raise InvalidParameter("svg_line_plot needs finite, nonempty data")
    # min and max select exact values: the sign of a zero bound cancels below
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 <= x0:
        x0, x1 = x0 - 0.5, x0 + 0.5
    if y1 <= y0:
        y0, y1 = y0 - 0.5, y0 + 0.5

    def tx(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def ty(y):
        return mt + ph - (y - y0) / (y1 - y0) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
           f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
           'stroke="black" stroke-width="1"/>']
    for t in _ticks(x0, x1):
        px = tx(t)
        out.append(f'<line x1="{px:.2f}" y1="{mt + ph}" x2="{px:.2f}" '
                   f'y2="{mt + ph + 5}" stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{mt + ph + 18}" font-size="11" '
                   f'text-anchor="middle">{format(t, ".6g")}</text>')
    for t in _ticks(y0, y1):
        py = ty(t)
        out.append(f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" '
                   f'y2="{py:.2f}" stroke="black"/>')
        out.append(f'<text x="{ml - 8}" y="{py + 4:.2f}" font-size="11" '
                   f'text-anchor="end">{format(t, ".6g")}</text>')
    out.append(f'<text x="{WIDTH // 2}" y="20" font-size="14" '
               f'text-anchor="middle">{title}</text>')
    out.append(f'<text x="{ml + pw // 2}" y="{HEIGHT - 8}" font-size="12" '
               f'text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="14" y="{mt + ph // 2}" font-size="12" '
               f'text-anchor="middle" '
               f'transform="rotate(-90 14 {mt + ph // 2})">{ylabel}</text>')
    for k, (label, xs, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        # tx, ty on arrays: the same IEEE operations, in the same order
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(
            tx(np.asarray(xs, dtype=float)).tolist(),
            ty(np.asarray(ys, dtype=float)).tolist())))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        ly = mt + 14 + 16 * k
        out.append(f'<line x1="{WIDTH - mr - 110}" y1="{ly - 4}" '
                   f'x2="{WIDTH - mr - 90}" y2="{ly - 4}" stroke="{color}" '
                   'stroke-width="1.5"/>')
        out.append(f'<text x="{WIDTH - mr - 85}" y="{ly}" '
                   f'font-size="11">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(path: str, series, **kwargs) -> None:
    write_text(path, svg_line_plot(series, **kwargs))
