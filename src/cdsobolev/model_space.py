"""Discretized 1-D weighted measure spaces and their differential operators.

A model space is a cell-centered uniform grid on (0, pi) carrying a
normalized weighted measure nu with density exp(-W)/Z, W(theta) =
-(n-1) log sin(theta), and generator L f = f'' + (n-1) cot(theta) f'.  It
satisfies CD(n-1, n).  Two kinds are supported:

* ``sphere_radial`` -- the radial part of the round d-sphere, n = d;
* ``jacobi``        -- a real effective dimension n > 2.

Pointwise fields (Gamma, Gamma_2, L) use centered second-order finite
differences with even-reflection closure at the poles.  They act on
ghost-padded arrays of shape (..., N+2) whose end cells ``_fill_ghosts``
sets, so a batch of rows is differenced in one call and a result can be
written straight into the interior of the next padded operand.  The drift
W' is evaluated analytically as -(n-1) cot(theta), once per space, never by
differencing W.

``ModelSpace.field`` is the one boundary from values to a ``ScalarField``:
one owned, read-only float copy of grid-shaped values; any other shape, a
scalar included, raises ``SpaceMismatch``, a non-finite ``InvalidConfig``.

The finite-volume stiffness S lives here only.  ``build_space`` evaluates
its face weights c_f = sin^{n-1}(theta_f)/(Z h) once, and they give S's
bands and stencil and the face sum u^T S v, the one integrated Gamma.  Its
solve, of one vector b, is one LAPACK gtsv call through ctypes into the
OpenBLAS that numpy >= 2 wheels bundle and numpy has already loaded; the
symbol is bound on the first solve: commands that never solve never touch it.
"""

from __future__ import annotations

import math
from ctypes import CDLL, byref, c_double, c_int64
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidConfig, InvalidParameter, SingularMatrix,
                     SpaceMismatch)

KINDS = ("sphere_radial", "jacobi")

MIN_RESOLUTION = 16
MAX_RESOLUTION = 1 << 20


@dataclass(frozen=True)
class ModelSpace:
    """Immutable discretized weighted measure space."""

    kind: str
    d: int
    n: float
    rho: float
    grid: np.ndarray
    quad_weights: np.ndarray
    h: float
    resolution: int
    drift: np.ndarray              # W'(theta)
    faces: np.ndarray              # c_f at faces i*h, i < N; 0 at the poles

    def __post_init__(self):
        for arr in (self.grid, self.quad_weights, self.drift, self.faces):
            arr.setflags(write=False)

    @property
    def key(self):
        """Value identity used for field/space compatibility checks."""
        return (self.kind, self.d, float(self.n), self.resolution)

    def field(self, values) -> "ScalarField":
        """One owned, read-only float copy of the grid-shaped ``values`` as a
        field; any other shape raises ``SpaceMismatch``."""
        try:
            vals = np.array(values, dtype=float)
        except ValueError as exc:  # a ragged nesting has no grid shape
            raise SpaceMismatch(f"field values: {exc}") from None
        return ScalarField(vals, self)


@dataclass(frozen=True)
class ScalarField:
    """A real-valued function sampled on a model-space grid."""

    values: np.ndarray
    space: ModelSpace = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.space.grid.shape:
            raise SpaceMismatch(
                f"field has {vals.shape} values, grid has {self.space.grid.shape}")
        if not np.isfinite(vals).all():
            raise InvalidConfig("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def min(self) -> float:
        return float(self.values.min())


def build_space(kind: str, d: int, n: float, resolution: int) -> ModelSpace:
    """Construct a model space of the given kind, with rho = n - 1."""
    if kind not in KINDS:
        raise InvalidConfig(f"unknown kind {kind!r}; expected one of {KINDS}")
    if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
        raise InvalidConfig(f"resolution {resolution} outside "
                            f"[{MIN_RESOLUTION}, {MAX_RESOLUTION}]")
    if not (math.isfinite(d) and d >= 1):
        raise InvalidConfig(f"d = {d} must be finite and >= 1")
    d, n = int(d), float(n)

    if not (math.isfinite(n) and n > 2.0):
        raise InvalidConfig(
            f"effective dimension n = {n} must be finite and exceed 2")
    if kind == "sphere_radial" and n != d:
        raise InvalidConfig("sphere_radial requires n = d")
    if n < d:
        raise InvalidConfig("n must be >= d")

    h = np.pi / resolution
    grid = (np.arange(resolution) + 0.5) * h
    log_w = -(n - 1.0) * np.log(np.sin(grid))
    drift = -(n - 1.0) / np.tan(grid)
    dens = np.exp(-log_w) * h
    Z = float(dens.sum())
    w = dens / Z if Z > 0.0 else dens
    if not w.min() > 0.0:  # subnormal weights are kept: they still solve
        raise InvalidConfig(
            f"n = {n} at resolution {resolution}: the measure sin^(n-1) of "
            f"{np.count_nonzero(w == 0.0)} cells underflows to 0")
    faces = np.sin(np.arange(1, resolution) * h) ** (n - 1.0) / (Z * h)
    return ModelSpace(kind=kind, d=d, n=n, rho=n - 1.0, grid=grid,
                      quad_weights=w, h=h, resolution=resolution,
                      drift=drift, faces=faces)


def _check_same_space(space: ModelSpace, *fields: ScalarField):
    for f in fields:
        if f.space is not space and f.space.key != space.key:
            raise SpaceMismatch(
                f"field lives on {f.space.key}, expected {space.key}")


def _fill_ghosts(a: np.ndarray) -> np.ndarray:
    """Set the end cells of an (..., N+2) array along its last axis by even
    reflection.  Returns ``a``."""
    a[..., 0], a[..., -1] = a[..., 1], a[..., -2]
    return a


def _with_ghosts(v: np.ndarray) -> np.ndarray:
    """A ghost-padded (..., N+2) copy of the values v."""
    a = np.empty(v.shape[:-1] + (v.shape[-1] + 2,))
    a[..., 1:-1] = v
    return _fill_ghosts(a)


def _diff1(space: ModelSpace, p: np.ndarray, out=None) -> np.ndarray:
    """Centered first difference of the ghost-padded array p."""
    out = np.subtract(p[..., 2:], p[..., :-2], out=out)
    return np.divide(out, 2.0 * space.h, out=out)


def _diff2(space: ModelSpace, p: np.ndarray, out=None) -> np.ndarray:
    """Centered second difference (p+ - 2 p) + p-, over h^2, of the
    ghost-padded array p."""
    out = np.multiply(p[..., 1:-1], 2.0, out=out)
    np.subtract(p[..., 2:], out, out=out)
    np.add(out, p[..., :-2], out=out)
    return np.divide(out, space.h * space.h, out=out)


def _quadrature(space: ModelSpace, values: np.ndarray) -> float:
    """int v dnu of the raw values v.  The weights are positive, so the sum
    is finite exactly when every value is; raises ``InvalidConfig`` as
    ``space.field`` would otherwise."""
    total = float(np.dot(space.quad_weights, values))
    if not math.isfinite(total):
        raise InvalidConfig("field values must be finite")
    return total


def integrate(space: ModelSpace, f: ScalarField) -> float:
    """Quadrature of int f dnu over the normalized measure."""
    _check_same_space(space, f)
    return _quadrature(space, f.values)


def _apply_L(space: ModelSpace, p: np.ndarray, dp=None,
             out=None) -> np.ndarray:
    """L v = v'' - W' v' of the ghost-padded p; ``dp`` is v' if the caller
    has it."""
    if dp is None:
        dp = _diff1(space, p)
    out = _diff2(space, p, out)
    return np.subtract(out, space.drift * dp, out=out)


def _gamma_terms(space: ModelSpace, v: np.ndarray):
    """(L v, Gamma(v), Gamma_2(v)) of the values v, each evaluated once;
    Gamma_2(v) = L(Gamma(v))/2 - Gamma(v, Lv)."""
    p = _with_ghosts(v)
    dv = _diff1(space, p)
    lv, g = np.empty_like(p), np.empty_like(p)
    _apply_L(space, p, dv, out=lv[1:-1])
    np.multiply(dv, dv, out=g[1:-1])
    g2 = 0.5 * _apply_L(space, _fill_ghosts(g)) \
        - dv * _diff1(space, _fill_ghosts(lv))
    return lv[1:-1], g[1:-1], g2


def apply_L(space: ModelSpace, f: ScalarField) -> ScalarField:
    """Generator L f = f'' - W' f'."""
    _check_same_space(space, f)
    return space.field(_apply_L(space, _with_ghosts(f.values)))


def gamma(space: ModelSpace, f: ScalarField, g: ScalarField) -> ScalarField:
    """Carre du champ Gamma(f, g) = f' g' pointwise."""
    _check_same_space(space, f, g)
    df = _diff1(space, _with_ghosts(f.values))
    dg = df if g is f else _diff1(space, _with_ghosts(g.values))
    return space.field(df * dg)


def gamma2(space: ModelSpace, f: ScalarField) -> ScalarField:
    """Iterated carre du champ Gamma_2(f) = L(Gamma(f))/2 - Gamma(f, Lf)."""
    _check_same_space(space, f)
    return space.field(_gamma_terms(space, f.values)[2])


def ibp_residual(space: ModelSpace, u: ScalarField, v: ScalarField) -> float:
    """Discrete integration-by-parts defect, a quality certificate O(h^2).

    Returns max(|int (Lu) v + int Gamma(u,v)|, |int (Lu) v - int u (Lv)|).
    """
    _check_same_space(space, u, v)
    lu_v = _quadrature(space, apply_L(space, u).values * v.values)
    u_lv = _quadrature(space, u.values * apply_L(space, v).values)
    g_uv = integrate(space, gamma(space, u, v))
    return max(abs(lu_v + g_uv), abs(lu_v - u_lv))


def fv_stiffness(space: ModelSpace) -> tuple[np.ndarray, np.ndarray]:
    """Bands (main, off) of the symmetric tridiagonal Dirichlet form S of the
    face weights c: positive semidefinite, with 1^T S = 0 exactly."""
    c = space.faces
    return np.append(c, 0.0) + np.append(0.0, c), -c


def apply_stiffness(bands, v: np.ndarray) -> np.ndarray:
    """S v by the 3-point stencil.  Rows add lower, main, upper terms in
    that order; artifacts computed with S depend on it to the last bit."""
    main, off = bands
    out = main * v
    out[1:] += off * v[:-1]
    out[:-1] += off * v[1:]
    return out


def _dirichlet_form(space: ModelSpace, u: np.ndarray, v: np.ndarray) -> float:
    """u^T S v = sum_f c_f (u_{f+1} - u_f)(v_{f+1} - v_f) of raw values, 0 on
    a constant; raises ``InvalidConfig`` as ``_quadrature`` does."""
    total = float(np.dot(space.faces, (u[1:] - u[:-1]) * (v[1:] - v[:-1])))
    if not math.isfinite(total):
        raise InvalidConfig("field values must be finite")
    return total


_gtsv = None  # LAPACK dgtsv, bound by _load_gtsv on the first solve


def _lapack_library():
    """numpy's core extension: dlsym on its handle also searches the OpenBLAS
    it links, which exports LAPACK with ILP64 (int64) sizes."""
    return CDLL(np._core._multiarray_umath.__file__)


def _load_gtsv():
    """Bind ``_gtsv``; ``OSError`` if numpy's LAPACK has no dgtsv."""
    global _gtsv
    try:
        gtsv = _lapack_library().scipy_dgtsv_64_
    except (AttributeError, OSError):
        raise OSError("tridiagonal solve: scipy_dgtsv_64_ not found in "
                      "numpy's LAPACK; it needs a numpy >= 2 wheel with its "
                      "bundled OpenBLAS") from None
    # no argtypes: converting the eight arguments would cost about 3 us a
    # call, and each is a byref of a ctypes object of the type gtsv reads
    gtsv.restype = None
    _gtsv = gtsv
    return gtsv


def tridiagonal_solve(lower, diag, upper, b) -> np.ndarray:
    """T^{-1} b for the tridiagonal T and a vector b, in one gtsv call.

    gtsv overwrites its operands, so it works on copies: one buffer of the
    three bands and one of b, which it returns as x.  Raises
    ``SingularMatrix`` on a zero pivot; ``InvalidParameter`` for N < 3 or
    shapes that do not fit, a 2-D or empty b included; ``OSError`` if numpy
    has no LAPACK to call.
    """
    n = len(diag)
    bands = np.concatenate((lower, diag, upper), dtype=float)
    x = np.array(b, dtype=float)
    # the shapes bound every pointer below: 3N - 2 band and N b entries
    if not (bands.ndim == 1 and x.ndim == 1
            and 3 <= n == len(lower) + 1 == len(upper) + 1 == len(x)):
        raise InvalidParameter(
            f"tridiagonal system of size N = {n} (N >= 3): bands of "
            f"{len(lower)} and {len(upper)} (N - 1), b of shape {np.shape(b)}")
    gtsv = _gtsv or _load_gtsv()
    dl = c_double.from_buffer(bands)
    size, info = c_int64(n), c_int64()
    gtsv(byref(size), byref(c_int64(1)), byref(dl), byref(dl, 8 * (n - 1)),
         byref(dl, 8 * (2 * n - 1)), byref(c_double.from_buffer(x)),
         byref(size), byref(info))
    if info.value != 0:
        raise SingularMatrix(f"tridiagonal solve: gtsv info = {info.value}")
    return x


def weighted_laplacian_fv(space: ModelSpace):
    """L in self-adjoint finite-volume form, L_fv = -diag(w)^{-1} S, as a
    callable: the net face flux c_f (v_{f+1} - v_f) into each cell, none
    through the poles, over its weight; mass-free and nu-symmetric."""
    c, w = space.faces, space.quad_weights

    def apply(values):
        flux = c * np.diff(values)
        return np.concatenate((flux[:1], np.diff(flux), -flux[-1:])) / w
    return apply
