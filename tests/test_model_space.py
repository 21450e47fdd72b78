"""Grid, measure and operator tests for the 1-D model spaces."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from cdsobolev import apply_L, build_space, gamma, gamma2, ibp_residual, integrate
from cdsobolev.errors import (InvalidConfig, InvalidParameter, SingularMatrix,
                              SpaceMismatch)
from cdsobolev.flows import (density_from_field, hessian_second_derivative,
                             renyi_hessian_quadform)
from cdsobolev.model_space import (KINDS, _check_same_space, _diff1, _diff2,
                                   _fill_ghosts, apply_stiffness, fv_stiffness,
                                   tridiagonal_solve, weighted_laplacian_fv)
from cdsobolev.sobolev import lq_norm, sobolev_deficit
from cdsobolev.variational import (gamma2_identity_terms, minimize_subcritical,
                                   rigidity_scan)


def ones_field(space):
    return space.field(np.ones(space.resolution))


def dense_tridiagonal(lower, diag, upper):
    return np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)


def dense_stiffness(space):
    main, off = fv_stiffness(space)
    return dense_tridiagonal(off, main, off)


@pytest.mark.parametrize("kind,d,n", [("sphere_radial", 3, 3.0),
                                      ("sphere_radial", 5, 5.0),
                                      ("jacobi", 2, 4.5),
                                      ("jacobi", 2, 3.5)])
@pytest.mark.parametrize("N", [64, 256])
def test_quadrature_exactness(kind, d, n, N):
    space = build_space(kind, d, n, N)
    assert abs(integrate(space, ones_field(space)) - 1.0) <= 1e-14


def test_invalid_configs():
    for kind in ("torus", "circle"):
        with pytest.raises(InvalidConfig, match=f"unknown kind '{kind}'"):
            build_space(kind, 3, 3.0, 128)
    with pytest.raises(InvalidConfig):
        build_space("sphere_radial", 3, 3.0, 8)       # below min resolution
    with pytest.raises(InvalidConfig):
        build_space("sphere_radial", 3, 4.0, 128)     # sphere needs n = d
    with pytest.raises(InvalidConfig):
        build_space("jacobi", 2, 2.0, 128)            # n must exceed 2
    with pytest.raises(InvalidConfig):
        build_space("jacobi", 4, 3.0, 128)            # n >= d
    for n in (np.nan, np.inf):                         # n must be finite
        with pytest.raises(InvalidConfig):
            build_space("jacobi", 2, n, 128)
    for d in (np.nan, np.inf, -np.inf):                # so must d
        with pytest.raises(InvalidConfig, match="must be finite"):
            build_space("jacobi", d, 4.5, 128)


@pytest.mark.parametrize("n, N, cells", [(1e6, 16, 16), (120.0, 2048, 2)])
def test_underflowing_measure_is_rejected(n, N, cells):
    # sin^(n-1) underflows to 0 everywhere (Z = 0, so the weights would be
    # 0/0) or at the two pole cells (a singular stiffness in the solver)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfig,
                           match=f"of {cells} cells underflows"):
            build_space("jacobi", 2, n, N)


def test_subnormal_weights_are_kept():
    w = build_space("jacobi", 2, 101.0, 2048).quad_weights
    assert 0.0 < w.min() < np.finfo(float).tiny


def test_field_immutability_and_space_mismatch():
    space = build_space("sphere_radial", 3, 3.0, 64)
    f = space.field(np.cos(space.grid))
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    other = build_space("sphere_radial", 3, 3.0, 128)
    with pytest.raises(SpaceMismatch):
        gamma(space, f, other.field(np.cos(other.grid)))


BOUNDARY_SPACES = pytest.mark.parametrize(
    "kind,d,n", [("sphere_radial", 3, 3.0), ("jacobi", 2, 4.5)])
BOUNDARY_SIZES = pytest.mark.parametrize("N", [16, 257, 4096])


@pytest.mark.parametrize(
    "kind,d,n", [("sphere_radial", 3, 3.0), ("jacobi", 2, 4.5),
                 ("circle", 1, 1.0)])
@BOUNDARY_SIZES
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_field_boundary_copies_and_validates(kind, d, n, N, seed):
    if kind not in KINDS:
        # the circle (rho = 0) is no model space: the boundary refuses it
        # before a field can be made on it
        with pytest.raises(InvalidConfig, match=f"unknown kind '{kind}'"):
            build_space(kind, d, n, N)
        return
    space = build_space(kind, d, n, N)
    rng = np.random.default_rng(seed)
    src = rng.standard_normal(N)
    kept = src.copy()
    f = space.field(src)
    src[:] = 7.0                                  # the field owns its copy
    assert np.array_equal(f.values, kept)
    assert np.array_equal(space.field(kept.tolist()).values, kept)
    with pytest.raises(ValueError):
        f.values[rng.integers(N)] = 0.0           # read-only
    c = float(rng.uniform(-2.0, 2.0))
    for scalar in (c, np.float64(c), np.array(c)):  # no broadcast
        with pytest.raises(SpaceMismatch):
            space.field(scalar)
    for bad in (np.inf, -np.inf, np.nan):
        vals = kept.copy()
        vals[rng.integers(N)] = bad
        with pytest.raises(InvalidConfig):
            space.field(vals)
        with pytest.raises(SpaceMismatch):
            space.field(bad)
    # finite data whose sum overflows is still finite data
    assert np.all(space.field(np.full(N, 1e308)).values == 1e308)


@BOUNDARY_SPACES
@BOUNDARY_SIZES
def test_field_of_wrong_shape_is_space_mismatch(kind, d, n, N):
    space = build_space(kind, d, n, N)
    for bad in (np.ones(N + 1), [1.0] * (N - 1), np.ones((N, 1)),
                np.ones((1, N)), np.ones(1), np.ones((2, N)), [],
                [[1.0] * N, [1.0] * (N - 1)]):              # ragged
        with pytest.raises(SpaceMismatch):
            space.field(bad)


@BOUNDARY_SPACES
@BOUNDARY_SIZES
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_field_space_identity_and_gamma_of_one_field(kind, d, n, N, seed):
    space = build_space(kind, d, n, N)
    f = space.field(np.random.default_rng(seed).standard_normal(N))
    square = gamma(space, f, f).values
    copy = space.field(f.values)
    assert np.array_equal(gamma(space, f, copy).values, square)
    twin = build_space(kind, d, n, N)             # equal key, other object
    assert twin is not space and twin.key == space.key
    on_twin = twin.field(f.values)
    _check_same_space(space, on_twin)
    assert np.array_equal(gamma(space, f, on_twin).values, square)
    for other in (build_space(kind, d, n, 2 * N),
                  build_space("jacobi" if kind == "sphere_radial"
                              else "sphere_radial", 3, 3.0, N)):
        with pytest.raises(SpaceMismatch):
            _check_same_space(
                space, other.field(np.full(other.resolution, f.values[0])))


def test_rho_assignment():
    assert build_space("sphere_radial", 4, 4.0, 64).rho == 3.0
    assert build_space("jacobi", 2, 4.5, 64).rho == 3.5


@pytest.mark.parametrize("kind,d,n", [("sphere_radial", 3, 3.0),
                                      ("jacobi", 2, 4.5)])
def test_eigenfunction_property_second_order(kind, d, n):
    errs = {}
    for N in (256, 512):
        space = build_space(kind, d, n, N)
        f = space.field(np.cos(space.grid))
        resid = apply_L(space, f).values + n * f.values
        errs[N] = np.abs(resid).max()
    assert errs[512] <= 1e-3
    assert errs[256] / errs[512] >= 3.0


def test_chain_rule_defect_identity():
    # (1/2) L(f^2) - f L f = Gamma(f) pointwise, up to O(h^2)
    rng = np.random.default_rng(11)
    errs = {}
    for N in (256, 512):
        space = build_space("sphere_radial", 3, 3.0, N)
        worst = 0.0
        for _ in range(5):
            coef = rng.uniform(-1, 1, 3)
            vals = sum(c * np.cos((k + 1) * space.grid)
                       for k, c in enumerate(coef))
            f = space.field(1.0 + vals)
            lhs = 0.5 * apply_L(space, space.field(f.values ** 2)).values \
                - f.values * apply_L(space, f).values
            worst = max(worst, np.abs(
                lhs - gamma(space, f, f).values).max())
        errs[N] = worst
    assert errs[256] / errs[512] >= 3.0


def test_self_adjointness_second_order():
    errs = {}
    for N in (256, 512):
        space = build_space("sphere_radial", 3, 3.0, N)
        u = space.field(np.cos(space.grid) + 0.3 * np.cos(2 * space.grid))
        v = space.field(1.0 + 0.5 * np.cos(space.grid))
        errs[N] = abs(ibp_residual(space, u, v))
    assert errs[256] / errs[512] >= 3.0


def test_gamma2_refinement_second_order():
    # against the closed form Gamma_2(cos) = 2 + cos^2 on the sphere d=3
    errs = {}
    for N in (256, 512):
        space = build_space("sphere_radial", 3, 3.0, N)
        g2 = gamma2(space, space.field(np.cos(space.grid))).values
        errs[N] = np.abs(g2 - (2.0 + np.cos(space.grid) ** 2)).max()
    assert errs[512] <= 5e-3
    assert errs[256] / errs[512] >= 3.0


@pytest.mark.parametrize("kind,d,n", [("sphere_radial", 3, 3.0),
                                      ("jacobi", 2, 4.5)])
@pytest.mark.parametrize("N", [128, 1024])
def test_gamma2_matches_operator_composition(kind, d, n, N):
    space = build_space(kind, d, n, N)
    rng = np.random.default_rng(N)
    f = space.field(sum(c * np.cos(k * space.grid)
                        for k, c in enumerate(rng.uniform(-1, 1, 4))))
    lf = apply_L(space, f)
    composed = (0.5 * apply_L(space, gamma(space, f, f)).values
                - gamma(space, f, lf).values)
    assert np.array_equal(gamma2(space, f).values, composed)


@pytest.mark.parametrize("kind,d,n", [("sphere_radial", 3, 3.0),
                                      ("jacobi", 2, 4.5)])
@pytest.mark.parametrize("N", [16, 257, 4096])
def test_padded_stencils_match_rows(kind, d, n, N):
    # a (2, 2, N+2) batch, ghost-filled once, differences to the same bits
    # as each row padded on its own, by even reflection
    space = build_space(kind, d, n, N)
    rows = np.random.default_rng(N).standard_normal((2, 2, N))
    batch = np.empty((2, 2, N + 2))
    batch[..., 1:-1] = rows
    _fill_ghosts(batch)
    d1, d2 = np.empty((2, 2, N)), np.empty((2, 2, N))
    assert _diff1(space, batch, out=d1) is d1
    assert _diff2(space, batch, out=d2) is d2
    h = space.h
    for idx in np.ndindex(2, 2):
        v = rows[idx]
        p = np.concatenate(([v[0]], v, [v[-1]]))
        assert np.array_equal(batch[idx], p)
        assert np.array_equal(d1[idx], (p[2:] - p[:-2]) / (2.0 * h))
        assert np.array_equal(d2[idx],
                              (p[2:] - 2.0 * p[1:-1] + p[:-2]) / (h * h))
        assert np.array_equal(_diff1(space, p), d1[idx])
        assert np.array_equal(_diff2(space, p), d2[idx])


def test_moment_oracles():
    space = build_space("sphere_radial", 3, 3.0, 256)
    c = space.field(np.cos(space.grid))
    assert abs(integrate(space, c)) <= 1e-14
    # int cos^2 dnu = (pi/8)/(pi/2) = 1/4; midpoint rule is exact on this
    # low-degree periodic integrand
    c2 = space.field(np.cos(space.grid) ** 2)
    assert abs(integrate(space, c2) - 0.25) <= 1e-14


@pytest.mark.parametrize("kind,d,n", [("sphere_radial", 3, 3.0),
                                      ("jacobi", 2, 4.5)])
def test_fv_stiffness_structure(kind, d, n):
    space = build_space(kind, d, n, 128)
    S = dense_stiffness(space)
    assert np.abs(S - S.T).max() <= 1e-15
    scale = np.abs(S).max()
    assert np.abs(S @ np.ones(128)).max() <= 1e-13 * scale   # constants in kernel
    assert np.abs(np.ones(128) @ S).max() <= 1e-13 * scale   # exact conservation
    eigs = np.linalg.eigvalsh(S)
    assert eigs.min() >= -1e-12


@pytest.mark.parametrize("kind,d,n", [("sphere_radial", 3, 3.0),
                                      ("jacobi", 2, 4.5)])
@pytest.mark.parametrize("N", [128, 2048])
def test_apply_stiffness_matches_csc_matvec_bitwise(kind, d, n, N):
    # the descent's roundoff-chaotic iteration counts depend on this order
    space = build_space(kind, d, n, N)
    bands = fv_stiffness(space)
    main, off = bands
    S = sp.diags([off, main, off], [-1, 0, 1], format="csc")
    rng = np.random.default_rng(N)
    for scale in (1e-3, 1.0, 1e3):
        v = scale * rng.standard_normal(N)
        assert np.array_equal(apply_stiffness(bands, v), S @ v)


def _polish_matrix(kind, d, n, N):
    """The polish's H = 2A S + 2W - 2(q-1)W at a constant state: indefinite,
    and LAPACK's partial pivoting swaps most of its rows."""
    space = build_space(kind, d, n, N)
    main, off = fv_stiffness(space)
    A, q, w = 0.3, 5.0, space.quad_weights
    diag = (2.0 * A) * main + (2.0 * w - 2.0 * (q - 1.0) * w)
    scaled = (2.0 * A) * off
    return scaled, diag, scaled


def _solver_cases():
    rng = np.random.default_rng(7)
    N = 64
    lower, upper = rng.uniform(-1, 1, N - 1), rng.uniform(-1, 1, N - 1)
    dominant = 3.0 + rng.uniform(0, 1, N)
    yield "nonsymmetric", (lower, dominant, upper)
    for kind, d, n in (("jacobi", 2, 4.5), ("sphere_radial", 3, 3.0)):
        yield f"indefinite {kind}", _polish_matrix(kind, d, n, N)


@pytest.mark.parametrize("name,args", list(_solver_cases()))
def test_tridiagonal_solver_matches_dense_solve(name, args):
    T = dense_tridiagonal(*args)
    if "indefinite" in name:
        eigs = np.linalg.eigvalsh(T)
        assert eigs.min() < 0.0 < eigs.max()
    rng = np.random.default_rng(11)
    for b in rng.standard_normal((2, len(T))):
        x = tridiagonal_solve(*args, b)
        ref = np.linalg.solve(T, b)
        assert x.shape == b.shape
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("name,args", list(_solver_cases()) + [
    ("indefinite sphere_radial N=2048",
     _polish_matrix("sphere_radial", 3, 3.0, 2048))])
def test_tridiagonal_solve_matches_gttrf_gttrs_bitwise(name, args):
    # one gtsv call does the arithmetic of gttrf followed by gttrs, so no
    # artifact computed through a solve depends on which of the two ran;
    # scipy's own gtsv is the second reference for numpy's
    from scipy.linalg import lapack
    N = len(args[1])
    *factor, info = lapack.dgttrf(*args)
    assert info == 0
    swaps = np.count_nonzero(factor[4] != np.arange(1, N + 1))
    if N == 2048:
        assert swaps > 1000
    rng = np.random.default_rng(N)
    for b in rng.standard_normal((2, N)):
        x = tridiagonal_solve(*args, b)
        assert x.shape == b.shape
        # scipy's wrappers take b as an N x 1 column
        column = b[:, None]
        assert np.array_equal(x, lapack.dgttrs(*factor, column)[0][:, 0])
        assert np.array_equal(x, lapack.dgtsv(*args, column)[3][:, 0])


def test_tridiagonal_solver_singular_raises():
    N = 16
    off = -np.ones(N - 1)
    path = np.full(N, 2.0)
    path[[0, -1]] = 1.0
    with pytest.raises(SingularMatrix):
        tridiagonal_solve(off, path, off, np.ones(N))      # zero pivot


def test_tridiagonal_solver_rejects_fewer_than_three_unknowns():
    for N in (0, 1, 2):
        with pytest.raises(InvalidParameter):
            tridiagonal_solve(np.ones(max(N - 1, 0)), np.full(N, 4.0),
                              np.ones(max(N - 1, 0)), np.ones(N))
    # N = 3, the smallest system, is taken
    args = ([1.0, -0.5], [4.0, 3.0, 5.0], [0.5, 1.0])
    b = np.array([1.0, -2.0, 0.5])
    x = tridiagonal_solve(*args, b)
    assert np.abs(dense_tridiagonal(*args) @ x - b).max() <= 1e-14


@pytest.mark.parametrize("lower,upper,b", [
    ([1.0, 1.0], [1.0], np.ones(3)),             # short upper band
    ([1.0], [1.0, 1.0], np.ones(3)),             # short lower band
    ([1.0, 1.0, 1.0], [1.0, 1.0], np.ones(3)),   # long lower band
    ([1.0, 1.0], [1.0, 1.0], np.ones(2)),        # short right-hand side
    ([1.0, 1.0], [1.0, 1.0], np.ones((4, 2))),   # long right-hand sides
    ([1.0, 1.0], [1.0, 1.0], np.ones((3, 2, 1))),
    ([1.0, 1.0], [1.0, 1.0], 1.0),
    ([1.0, 1.0], [1.0, 1.0], np.ones((3, 0))),   # gtsv writes a column anyway
    ([1.0, 1.0], [1.0, 1.0], np.ones((3, 2))),   # one vector b, no columns
])
def test_tridiagonal_solve_rejects_mismatched_lengths(lower, upper, b):
    with pytest.raises(InvalidParameter, match="of size N = 3 "):
        tridiagonal_solve(lower, [4.0, 3.0, 2.0], upper, b)


def test_tridiagonal_solve_rejects_columns_as_bands():
    # N x 1 bands concatenate to a 2-D buffer whose rows are not the bands
    column = np.ones((2, 1))
    with pytest.raises(InvalidParameter, match="of size N = 3 "):
        tridiagonal_solve(column, np.full((3, 1), 4.0), column, np.ones(3))


def _strided(a):
    """The numbers of ``a`` as a view with stride 2."""
    out = np.zeros((len(a), 2))
    out[:, 0] = a
    return out[:, 0]


def test_tridiagonal_solve_leaves_its_inputs_unchanged():
    # gtsv overwrites its operands; the minimizer reuses its bands and
    # right-hand sides across iterations
    rng = np.random.default_rng(5)
    N = 32
    lower, upper = rng.uniform(-1, 1, N - 1), rng.uniform(-1, 1, N - 1)
    diag = 3.0 + rng.uniform(0, 1, N)
    T = dense_tridiagonal(lower, diag, upper)
    two = rng.standard_normal((N, 2))
    for b in (two[:, 0].copy(), two[:, 1]):       # contiguous and strided
        inputs = (lower, diag, upper, b)
        kept = [a.copy() for a in inputs]
        x = tridiagonal_solve(*inputs)
        assert all(np.array_equal(a, k) for a, k in zip(inputs, kept))
        assert x.shape == b.shape and x.flags.c_contiguous
        assert np.abs(T @ x - b).max() <= 1e-14
    # lists and strided views of the same numbers give the same bits
    x = tridiagonal_solve(lower, diag, upper, two[:, 0].copy())
    views = [_strided(a) for a in (lower, diag, upper)] + [two[:, 0]]
    assert not any(v.flags.c_contiguous for v in views)
    assert np.array_equal(tridiagonal_solve(*views), x)
    lists = [a.tolist() for a in (lower, diag, upper, two[:, 0])]
    assert np.array_equal(tridiagonal_solve(*lists), x)


def test_missing_lapack_symbol_raises_oserror_on_the_first_solve(monkeypatch):
    import _ctypes
    import ctypes
    from cdsobolev import model_space
    # a loaded library that is not numpy's and has no LAPACK
    monkeypatch.setattr(model_space, "_gtsv", None)
    monkeypatch.setattr(model_space, "_lapack_library",
                        lambda: ctypes.CDLL(_ctypes.__file__))
    with pytest.raises(OSError, match="scipy_dgtsv_64_ not found in "
                                      "numpy's LAPACK"):
        tridiagonal_solve([1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0], np.ones(3))
    assert model_space._gtsv is None


def test_fv_laplacian_matches_centered_operator():
    space = build_space("sphere_radial", 3, 3.0, 512)
    lap = weighted_laplacian_fv(space)
    f = 1.0 + 0.5 * np.cos(space.grid)
    centered = apply_L(space, space.field(f)).values
    gap = lap(f) - centered
    # pointwise agreement away from the poles; the flux closure differs from
    # the centered stencil only in the first boundary cells, whose quadrature
    # weight is O(h^3)
    assert np.abs(gap[8:-8]).max() <= 1e-2
    assert np.sqrt(np.sum(space.quad_weights * gap ** 2)) <= 1e-2


def _cosine_density(space):
    raw = 1.0 + 0.5 * np.cos(space.grid)
    return space.field(raw / integrate(space, space.field(raw)))


# library entries taking a field f that must live on the space passed
FIELD_ENTRIES = {
    "lq_norm": lambda space, f: lq_norm(space, f, 4.0),
    "sobolev_deficit": lambda space, f: sobolev_deficit(space, f, 6.0),
    "density_from_field": lambda space, f: density_from_field(space, f, 6.0),
    "minimize_subcritical": lambda space, f: minimize_subcritical(
        space, 2.1, 5.0, f),
    "rigidity_scan": lambda space, f: rigidity_scan(space, 5.0, [2.1],
                                                    init=f),
    "renyi_hessian_quadform": lambda space, f: renyi_hessian_quadform(
        space, _cosine_density(space), 2.0 / 3.0, f),
    "hessian_second_derivative": lambda space, f: hessian_second_derivative(
        space, _cosine_density(space), 2.0 / 3.0, f),
    "gamma2_identity_terms": lambda space, f: gamma2_identity_terms(
        space, f, 10.0 / 3.0, 1.0),
}


@pytest.mark.parametrize("entry", sorted(FIELD_ENTRIES))
@pytest.mark.parametrize("other", [("sphere_radial", 3, 3.0, 128),
                                   ("jacobi", 2, 4.5, 64)],
                         ids=["other_resolution", "other_kind"])
def test_entries_reject_a_field_of_another_space(entry, other):
    # unchecked, a field at another N ends in numpy's bare ValueError, and
    # one of another kind at the same N gives a silently wrong number
    space = build_space("sphere_radial", 3, 3.0, 64)
    foreign = build_space(*other)
    f = foreign.field(1.0 + 0.4 * np.cos(foreign.grid))
    with pytest.raises(SpaceMismatch):
        FIELD_ENTRIES[entry](space, f)
