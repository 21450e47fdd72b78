"""The artifact writers against per-cell and per-point reference renderers.

The references below are the writers' earlier one-value-at-a-time forms.
The vectorized writers must reproduce their bytes exactly, and their errors
with the same type and message.
"""

import math

import numpy as np
import pytest

from cdsobolev.acceptance import _corpus, _spheres, trig_poly_field
from cdsobolev.errors import InvalidParameter
from cdsobolev.model_space import build_space
from cdsobolev.reporting import (HEIGHT, PALETTE, WIDTH, csv_text,
                                 svg_line_plot, write_field_csv)

SEEDS = range(8)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def ref_fmt_float(x) -> str:
    if not math.isfinite(x):
        raise InvalidParameter(f"non-finite value in output: {x}")
    return format(float(x), ".17g")


def ref_fmt_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return ref_fmt_float(x)
    return str(x)


def ref_csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(ref_fmt_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def ref_ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def ref_svg(series, title, xlabel, ylabel) -> str:
    def px(x):
        return format(x, ".2f")

    if not series:
        raise InvalidParameter("svg_line_plot needs at least one series")
    ml, mr, mt, mb = 70, 20, 30, 45
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb
    xs_all = [float(x) for _, xs, _ in series for x in xs]
    ys_all = [float(y) for _, _, ys in series for y in ys]
    if not xs_all or not all(math.isfinite(v) for v in xs_all + ys_all):
        raise InvalidParameter("svg_line_plot needs finite, nonempty data")
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
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
    for t in ref_ticks(x0, x1):
        p = tx(t)
        out.append(f'<line x1="{px(p)}" y1="{mt + ph}" x2="{px(p)}" '
                   f'y2="{mt + ph + 5}" stroke="black"/>')
        out.append(f'<text x="{px(p)}" y="{mt + ph + 18}" font-size="11" '
                   f'text-anchor="middle">{format(t, ".6g")}</text>')
    for t in ref_ticks(y0, y1):
        p = ty(t)
        out.append(f'<line x1="{ml - 5}" y1="{px(p)}" x2="{ml}" '
                   f'y2="{px(p)}" stroke="black"/>')
        out.append(f'<text x="{ml - 8}" y="{px(p + 4)}" font-size="11" '
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
        pts = " ".join(f"{px(tx(float(x)))},{px(ty(float(y)))}"
                       for x, y in zip(xs, ys))
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


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
           -1e308, 1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 1e16, 1e17,
           0.1, 1.0 / 3.0, 2.0 / 3.0, 0.30000000000000004, 123456789.0]


def random_float(rng) -> float:
    """A finite double: a special value, an integer-valued one, one of any
    exponent, or one that needs all 17 digits."""
    pick = rng.integers(5)
    if pick == 0:
        return SPECIAL[rng.integers(len(SPECIAL))]
    if pick == 1:
        return float(rng.integers(-10 ** 6, 10 ** 6))
    if pick == 2:
        return float(rng.uniform(-1, 1) * 10.0 ** rng.integers(-320, 308))
    while True:  # uniform over bit patterns
        x = float(np.frombuffer(rng.bytes(8), dtype=np.float64)[0])
        if math.isfinite(x):
            return x


def float_column(rng, rows):
    """Python floats, numpy float64 scalars, or a mix of both."""
    wrap = [float, np.float64, None][rng.integers(3)]
    return [(wrap or (float, np.float64)[rng.integers(2)])(random_float(rng))
            for _ in range(rows)]


def other_column(rng, rows):
    """A column the per-cell rule formats: ints, bools, strings, float32,
    or floats mixed with those."""
    makers = [lambda: int(rng.integers(-10 ** 12, 10 ** 12)),
              lambda: bool(rng.integers(2)),
              lambda: ("sphere_radial", "jacobi", "a b", "")[rng.integers(4)],
              lambda: np.int64(rng.integers(-99, 99)),
              lambda: np.float32(rng.uniform(-1, 1)),
              lambda: random_float(rng)]
    kinds = rng.choice(len(makers), size=rng.integers(1, 3), replace=False)
    if len(kinds) == 1 and kinds[0] == len(makers) - 1:
        kinds = [0, kinds[0]]  # a mixed column, not an all-float one
    return [makers[kinds[rng.integers(len(kinds))]]() for _ in range(rows)]


def table(seed, with_other):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(0, 40)), int(rng.integers(1, 7))
    columns = [other_column(rng, rows) if with_other and rng.integers(2)
               else float_column(rng, rows) for _ in range(cols)]
    header = [f"c{j}" for j in range(cols)]
    return rng, header, [tuple(r) for r in zip(*columns)]


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_float_columns_match_the_per_cell_reference(seed):
    _, header, rows = table(seed, with_other=False)
    want = ref_csv_text(header, rows)
    assert csv_text(header, rows) == want
    assert csv_text(header, iter(rows)) == want        # a one-pass iterable
    if rows:                                           # the 2-D array form
        assert csv_text(header, np.array(rows, dtype=float)) == want


def test_float_cells_that_need_every_digit():
    values = [0.1, 1.0 / 3.0, 5e-324, -0.0, 1e308, 2.0 ** 53 + 2.0,
              np.float64(2.0) / 3.0, 9007199254740993.0, 1e-7, 1e21]
    rows = [(v,) for v in values]
    text = csv_text(["x"], rows)
    assert text == ref_csv_text(["x"], rows)
    cells = text.splitlines()[1:]
    assert [float(c) for c in cells] == [float(v) for v in values]  # exact
    assert cells[3] == "-0" and cells[2] == "4.9406564584124654e-324"


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_columns_match_the_per_cell_reference(seed):
    _, header, rows = table(100 + seed, with_other=True)
    assert csv_text(header, rows) == ref_csv_text(header, rows)


def test_ragged_rows_are_rejected():
    # a column-wise table must not drop the cells of its longer rows
    for rows in ([(1.0, 2.0), (3.0,)], [(1.0,), (2.0, 3.0)], [(1,), ()]):
        with pytest.raises(ValueError):
            csv_text(["a", "b"], rows)


def test_bool_int_and_string_cells():
    rows = [(True, 3, "jacobi", 1.5), (False, np.int64(-7), "", 2)]
    assert csv_text(["b", "i", "s", "x"], rows) \
        == "b,i,s,x\ntrue,3,jacobi,1.5\nfalse,-7,,2\n"


def raised(fn, *args):
    with pytest.raises(InvalidParameter) as info:
        fn(*args)
    assert type(info.value) is InvalidParameter
    return str(info.value)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_cells_name_the_first_in_row_order(seed, bad):
    rng, header, rows = table(200 + seed, with_other=seed % 2 == 1)
    if not rows:
        rows = [tuple(1.0 for _ in header)]
    grid = [list(r) for r in rows]
    # two or three bad cells, the later ones of other kinds and columns
    for value in (bad, *rng.permutation([math.nan, math.inf, -math.inf])[:2]):
        i, j = rng.integers(len(grid)), rng.integers(len(header))
        grid[i][j] = (float, np.float64)[rng.integers(2)](value)
    rows = [tuple(r) for r in grid]
    message = raised(ref_csv_text, header, rows)
    assert message.startswith("non-finite value in output: ")
    assert raised(csv_text, header, rows) == message
    if all(isinstance(x, float) for r in rows for x in r):
        assert raised(csv_text, header, np.array(rows)) == message


def test_non_finite_message_for_each_value():
    for bad, shown in ((math.nan, "nan"), (math.inf, "inf"),
                       (-math.inf, "-inf"), (np.float64("nan"), "nan")):
        rows = [(1.0, 2), (0.5, 3), (bad, 4), (math.nan, 5)]
        assert raised(csv_text, ["x", "k"], rows) \
            == f"non-finite value in output: {shown}"
    # the earlier row wins over the earlier column
    rows = [(1.0, "a"), (2.0, math.inf), (math.nan, "b")]
    assert raised(csv_text, ["x", "s"], rows) \
        == "non-finite value in output: inf"


@pytest.mark.parametrize("seed", range(3))
def test_field_csv_matches_the_per_cell_reference(tmp_path, seed):
    rng = np.random.default_rng(300 + seed)
    space = build_space("sphere_radial", 3, 3.0, 16 + 17 * seed)
    f = space.field(rng.standard_normal(space.resolution) * 1e3)
    g = space.field(rng.standard_normal(space.resolution))
    path = tmp_path / "field.csv"
    write_field_csv(str(path), space, {"f": f, "g": g})
    rows = ((float(space.grid[i]), float(f.values[i]), float(g.values[i]))
            for i in range(space.resolution))
    assert path.read_bytes() \
        == ref_csv_text(["theta", "f", "g"], rows).encode("utf-8")


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

def random_series(rng):
    out = []
    for k in range(int(rng.integers(1, 4))):
        n = int(rng.integers(1, 60))
        scale = 10.0 ** rng.integers(-6, 7)
        xs = np.sort(rng.uniform(-1, 1, n)) * scale
        ys = rng.standard_normal(n) * scale
        shape = rng.integers(4)
        if shape == 1:                       # a flat series
            ys = np.full(n, -0.0 if rng.integers(2) else 2.5)
        elif shape == 2:                     # Python lists with ints, -0.0
            xs = [int(x) if i % 3 == 0 else float(x) for i, x in enumerate(xs)]
            ys = [-0.0 if i % 4 == 0 else float(y) for i, y in enumerate(ys)]
        elif shape == 3:                     # float64 scalars in a list
            xs = [np.float64(x) for x in xs]
        out.append((f"s{k}", xs, ys))
    return out


@pytest.mark.parametrize("seed", range(16))
def test_svg_matches_the_per_point_reference(seed):
    series = random_series(np.random.default_rng(400 + seed))
    labels = {"title": "t", "xlabel": "x", "ylabel": "y"}
    assert svg_line_plot(series, **labels) == ref_svg(series, **labels)


def test_svg_single_point_and_zero_signs():
    labels = {"title": "t", "xlabel": "x", "ylabel": "y"}
    for series in ([("a", [0.0], [-0.0])],
                   [("a", [-0.0, 0.0], [0.0, -0.0]), ("b", [0.0], [1.0])],
                   [("a", (1, 2, 3), (3, 2, 1))]):
        assert svg_line_plot(series, **labels) == ref_svg(series, **labels)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_svg_rejects_non_finite_values(bad):
    labels = {"title": "t", "xlabel": "x", "ylabel": "y"}
    for series in ([("a", [0.0, bad], [1.0, 2.0])],
                   [("a", [0.0, 1.0], [1.0, 2.0]),
                    ("b", np.array([0.0, 1.0]), np.array([bad, 2.0]))],
                   [("a", [], [])]):
        message = raised(ref_svg, series, *labels.values())
        assert raised(svg_line_plot, series, *labels.values()) == message


@pytest.mark.parametrize("xs, ys", [
    ([0.0, 1.0, 2.0], [0.0, 10.0]),         # would draw 2 of 3 points
    (np.array([0.0]), np.array([1.0, 2.0])),
    ([], [1.0]),
])
def test_svg_rejects_series_of_unequal_lengths(xs, ys):
    series = [("a", [0.0, 1.0], [1.0, 2.0]), ("b", xs, ys)]
    with pytest.raises(InvalidParameter, match="as many xs as ys"):
        svg_line_plot(series, title="t", xlabel="x", ylabel="y")


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def ref_trig_poly(space, rng, degree, amplitude):
    """The field with every mode evaluated afresh."""
    coeffs = rng.uniform(-1.0, 1.0, degree)
    p = np.zeros(space.resolution)
    for k, c in enumerate(coeffs, start=1):
        p += c * np.cos(k * space.grid)
    sup = float(np.abs(p).max())
    if sup > 0.0:
        p = p / sup
    return 1.0 + amplitude * p


@pytest.mark.parametrize("seed", [0, 7])
def test_corpus_fields_match_successive_trig_poly_fields(seed):
    spaces = _spheres(64)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for i, space, field in _corpus(spaces, 12, seed):
        assert space is spaces[i % 3]
        assert np.array_equal(field.values, trig_poly_field(space, rng).values)
        assert np.array_equal(field.values,
                              ref_trig_poly(space, ref_rng, 4, 0.9))
    for degree, amplitude in ((2, 0.5), (3, 1.0), (4, 0.3)):
        assert np.array_equal(
            trig_poly_field(spaces[0], rng, degree, amplitude).values,
            ref_trig_poly(spaces[0], ref_rng, degree, amplitude))
