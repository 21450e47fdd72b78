"""Subcritical minimization, pressure equation, identity and rigidity."""

import numpy as np
import pytest
import scipy.linalg as sla

from cdsobolev import build_space, integrate, lq_norm, variational
from cdsobolev.errors import InvalidConfig, InvalidExponent, InvalidParameter, NonPositiveField
from cdsobolev.model_space import (apply_L, apply_stiffness, fv_stiffness,
                                   tridiagonal_solve)
from cdsobolev.variational import (MinimizeOptions, a_star, critical_exponent,
                                   gamma2_identity_terms,
                                   minimize_subcritical, pressure_transform,
                                   rigidity_scan, subcritical_params)
from oracles import pressure_pde_residual


@pytest.fixture(scope="module")
def sphere512():
    return build_space("sphere_radial", 3, 3.0, 512)


@pytest.fixture(scope="module")
def bump_init(sphere512):
    return sphere512.field(1.0 + 0.4 * np.cos(sphere512.grid))


@pytest.fixture(scope="module")
def constant_report(sphere512, bump_init):
    return minimize_subcritical(sphere512, 2.1, 5.0, bump_init)


def test_parameter_arithmetic():
    d_prime, lam, c = subcritical_params(2.1, 5.0)
    assert d_prime == 10.0 / 3.0
    assert lam == 3.0 / 4.2
    assert c == 2.0 * lam * (d_prime - 1.0)
    assert abs(a_star(10.0 / 3.0, 2.0) - 1.05) <= 1e-15


def test_minimize_constant_regime(sphere512, constant_report):
    rep = constant_report
    assert rep.converged
    assert rep.constancy <= 1e-6
    assert abs(rep.i_value - 1.0) <= 1e-8
    assert rep.minimizer.min() >= 0.0
    assert abs(lq_norm(sphere512, rep.minimizer, 5.0) - 1.0) <= 1e-10
    assert rep.el_residual_norm <= 1e-8


def test_energy_monotone_along_iteration(sphere512, bump_init):
    # replay each run stopped after k = 1, 2, ... steps: its minimizer is the
    # k-th iterate, whose FV energy A v.S v + w.v^2 the descent never raises
    bands, w = fv_stiffness(sphere512), sphere512.quad_weights

    def energy(A, v):
        return A * (v @ apply_stiffness(bands, v)) + np.dot(w, v * v)

    start = bump_init.values / np.dot(w, bump_init.values ** 5.0) ** 0.2
    for A in (2.1, 0.05):  # a constant and a nonconstant minimizer
        steps = minimize_subcritical(sphere512, A, 5.0, bump_init).iterations
        e = [energy(A, start)]
        for k in range(1, steps + 1):
            opts = MinimizeOptions(max_iter=k, raise_on_failure=False)
            rep = minimize_subcritical(sphere512, A, 5.0, bump_init, opts)
            e.append(energy(A, rep.minimizer.values))
        e = np.array(e)
        assert len(e) >= 2
        assert np.all(np.diff(e) <= 1e-12 * (1.0 + np.abs(e[:-1])))


def test_energy_not_above_init(sphere512, bump_init, constant_report):
    from cdsobolev.sobolev import grad_norm_sq
    v = bump_init.values / lq_norm(sphere512, bump_init, 5.0)
    vf = sphere512.field(v)
    e_init = 2.1 * grad_norm_sq(sphere512, vf) \
        + integrate(sphere512, sphere512.field(v * v))
    assert constant_report.i_value <= e_init + 1e-12


def test_constant_init_is_fixed_point(sphere512):
    init = sphere512.field(np.ones(512))
    rep = minimize_subcritical(sphere512, 2.1, 5.0, init)
    assert rep.converged and rep.iterations <= 2
    assert rep.constancy <= 1e-14
    assert rep.el_residual_norm <= 1e-12


@pytest.mark.parametrize("N", [512, 1024, 2048, 4096])
@pytest.mark.parametrize("kind,d,n,q", [("sphere_radial", 3, 3.0, 5.0),
                                        ("jacobi", 2, 4.5, 3.0)])
def test_el_residual_converges_at_a_nonconstant_minimizer(kind, d, n, q, N):
    # the reported EL residual takes L in the finite-volume form that was
    # minimized, so it certifies the solve at every N
    space = build_space(kind, d, n, N)
    init = space.field(1.0 + 0.4 * np.cos(space.grid))
    rep = minimize_subcritical(space, 0.05, q, init)
    u = rep.i_value ** (1.0 / (q - 2.0)) * rep.minimizer.values
    assert rep.converged and rep.constancy > 0.1
    assert rep.el_residual_norm <= 1e-10 * float(np.max(u ** (q - 1.0)))


def test_symmetry_breaking_small_A(sphere512, bump_init):
    rep = minimize_subcritical(sphere512, 0.05, 5.0, bump_init)
    assert rep.converged
    assert rep.constancy > 0.1
    assert rep.i_value < 1.0


def test_minimize_validation(sphere512, bump_init):
    with pytest.raises(InvalidParameter):
        minimize_subcritical(sphere512, -1.0, 5.0, bump_init)
    for q in (2.0, 6.0, 7.0):
        with pytest.raises(InvalidExponent):
            minimize_subcritical(sphere512, 1.0, q, bump_init)
    with pytest.raises(InvalidParameter):
        minimize_subcritical(sphere512, 1.0, 5.0,
                             sphere512.field(np.zeros(512)))
    # beta <= 1 by construction: tol >= 1 passes at once, tol <= 0 never
    for tol in (1e300, 1.0, 0.0, -1.0, np.nan):
        with pytest.raises(InvalidParameter, match="tol"):
            minimize_subcritical(sphere512, 1.0, 5.0, bump_init,
                                 MinimizeOptions(tol=tol))


def test_pressure_transform_round_trip(sphere512, constant_report):
    v = constant_report.minimizer
    phi = pressure_transform(v, 5.0)
    back = sphere512.field(phi.values ** (-2.0 / 3.0))
    assert np.abs(back.values - v.values).max() <= 1e-13
    with pytest.raises(NonPositiveField):
        pressure_transform(sphere512.field(np.cos(sphere512.grid)), 5.0)


def test_pressure_of_extremal_is_affine(sphere512):
    # at the critical exponent the d=3 pressure is beta - cos theta exactly
    from cdsobolev import extremal_field
    v = extremal_field(sphere512, 2.0)
    vn = sphere512.field(v.values / lq_norm(sphere512, v, 6.0))
    phi = pressure_transform(vn, 6.0)
    ratio = phi.values / (2.0 - np.cos(sphere512.grid))
    assert ratio.max() - ratio.min() <= 1e-12


def test_pressure_pde_residual_cases(sphere512, constant_report):
    ones = sphere512.field(np.ones(512))
    assert pressure_pde_residual(sphere512, ones, 10.0 / 3.0, 1.0) == 0.0
    # converged constant-regime minimizer
    d_prime, lam, _ = subcritical_params(2.1, 5.0)
    v = constant_report.i_value ** (1.0 / 3.0) * constant_report.minimizer.values
    phi = pressure_transform(sphere512.field(v), 5.0)
    assert pressure_pde_residual(sphere512, phi, d_prime, lam) <= 1e-5
    # critical-exponent extremal pressure: lambda = 3/2 matched, others not
    s = 1.0 / np.sqrt(3.0)
    aff = sphere512.field(s * (2.0 - np.cos(sphere512.grid)))
    assert pressure_pde_residual(sphere512, aff, 3.0, 1.5) <= 1e-3
    assert pressure_pde_residual(sphere512, aff, 3.0, 1.2) >= 0.1


def test_el_to_pressure_chain(sphere512, bump_init):
    # the transform scales the EL residual by at most lambda sup(Phi^2 / v).
    # The oracle differences with the centered L, so the EL residual it is
    # bounded by is taken with that L too, not the reported finite-volume one
    rep = minimize_subcritical(sphere512, 0.8, 5.0, bump_init)
    d_prime, lam, _ = subcritical_params(0.8, 5.0)
    v = rep.i_value ** (1.0 / 3.0) * rep.minimizer.values
    lv = apply_L(sphere512, sphere512.field(v)).values
    el = float(np.abs(-0.8 * lv + v - v ** 4.0).max())
    phi = pressure_transform(sphere512.field(v), 5.0)
    pde = pressure_pde_residual(sphere512, phi, d_prime, lam)
    scale = lam * float(np.max(phi.values ** 2 / v))
    assert pde <= 10.0 * el * scale


def test_identity_residual_cases(sphere512, constant_report):
    ones = sphere512.field(np.ones(512))
    assert gamma2_identity_terms(sphere512, ones, 10.0 / 3.0, 1.0) \
        == (0.0, 0.0, 0.0)
    with pytest.raises(NonPositiveField):
        gamma2_identity_terms(sphere512, sphere512.field(np.zeros(512)),
                              10.0 / 3.0, 1.0)
    d_prime, lam, c = subcritical_params(2.1, 5.0)
    v = constant_report.i_value ** (1.0 / 3.0) * constant_report.minimizer.values
    phi = pressure_transform(sphere512.field(v), 5.0)
    t_g2, t_lap, t_gam = gamma2_identity_terms(sphere512, phi, d_prime, c)
    assert abs(t_g2 - t_lap - t_gam) <= 1e-5


def test_rigidity_scan_constant_entries(sphere512):
    entries = rigidity_scan(sphere512, 5.0, [1.05, 2.1])
    for e in entries:
        assert e.report.converged
        assert e.report.constancy <= 1e-6
        # every rigidity term vanishes at a constant minimizer
        for term in (e.term_cd, e.term_gap):
            assert abs(term) <= 1e-12
        assert e.identity_residual <= 1e-12


def test_rigidity_scan_nonconstant_sums_to_zero():
    # the decomposition closes at O(h^2): check the residual at two
    # resolutions and its refinement factor
    rel = {}
    for N in (512, 1024):
        space = build_space("sphere_radial", 3, 3.0, N)
        e = rigidity_scan(space, 5.0, [0.05])[0]
        assert e.report.constancy > 0.1
        total = e.term_cd + e.term_gap
        rel[N] = abs(total) / max(abs(e.term_cd), abs(e.term_gap), 1.0)
    assert rel[1024] <= 5e-3
    assert rel[512] / rel[1024] >= 3.0


def test_rigidity_scan_requires_sorted():
    space = build_space("sphere_radial", 3, 3.0, 64)
    with pytest.raises(InvalidConfig):
        rigidity_scan(space, 5.0, [2.0, 1.0])


def test_jacobi_bifurcation_matches_linearization():
    # independent eigenvalue oracle: lambda_1 of the generalized problem
    # S x = lambda W x equals n; the constant branch destabilizes at
    # A = (q - 2)/lambda_1
    space = build_space("jacobi", 2, 4.5, 256)
    main, off = fv_stiffness(space)
    w = space.quad_weights
    lam1 = sla.eigh_tridiagonal(main / w, off / np.sqrt(w[:-1] * w[1:]),
                                eigvals_only=True, select="i",
                                select_range=(1, 1))[0]
    assert abs(lam1 - space.n) <= 5e-3 * space.n
    q = 3.0
    a_bif = (q - 2.0) / lam1
    init = space.field(1.0 + 0.4 * np.cos(space.grid))
    below = minimize_subcritical(space, 0.95 * a_bif, q, init)
    above = minimize_subcritical(space, 1.05 * a_bif, q, init)
    assert below.constancy > 0.1
    assert above.constancy <= 1e-6


@pytest.mark.parametrize("N", [512, 2048, 8192])
def test_minimizer_mesh_independent(N):
    # the backward-error stop has a roundoff floor independent of N, so the
    # cosine start reaches the minimizer and the rigidity gates hold at
    # every resolution, on both sides of A*
    space = build_space("sphere_radial", 3, 3.0, N)
    init = space.field(1.0 + 0.4 * np.cos(space.grid))
    astar = a_star(10.0 / 3.0, space.rho)
    tol = MinimizeOptions().tol
    for A in (0.05, astar, 2.0 * astar):
        rep = minimize_subcritical(space, A, 5.0, init)
        assert rep.converged and rep.backward_error <= tol
        if A >= astar:
            assert rep.constancy <= 1e-6
            assert abs(rep.i_value - 1.0) <= 1e-8
        else:
            assert rep.constancy > 0.1


def test_no_line_search_below_the_energy_roundoff():
    # near the root the Newton steps predict energy decreases of about
    # 1e-12, which the energy's roundoff hides: searching them took 6
    # iterations and 46 halvings before the full Newton step converged
    space = build_space("sphere_radial", 3, 3.0, 4096)
    init = space.field(1.0 + 0.4 * np.cos(space.grid))
    A = a_star(10.0 / 3.0, space.rho) * 4.0 / 3.0
    rep = minimize_subcritical(space, A, 5.0, init)
    assert rep.converged and rep.constancy <= 1e-6
    assert rep.iterations <= 4
    assert rep.backtracks == 0


def test_scan_converges_from_every_start_amplitude():
    # the scan's eleven A at N = 2048, from cosine starts whose amplitudes
    # are the ends of [0.2, 0.6] and seeded draws inside it
    space = build_space("sphere_radial", 3, 3.0, 2048)
    astar = a_star(10.0 / 3.0, space.rho)
    a_values = [0.05] + list(np.linspace(astar, 2.0 * astar, 10))
    amplitudes = [0.2, 0.6, *np.random.default_rng(20).uniform(0.2, 0.6, 4)]
    opts = MinimizeOptions(raise_on_failure=False)
    for amp in amplitudes:
        init = space.field(1.0 + amp * np.cos(space.grid))
        for A in a_values:
            rep = minimize_subcritical(space, A, 5.0, init, opts)
            assert rep.converged, (amp, A)
            if A >= astar:
                assert rep.constancy <= 1e-6, (amp, A)
                assert abs(rep.i_value - 1.0) <= 1e-8, (amp, A)


def test_near_bifurcation_jacobi():
    # half a percent on either side of A_bif = (q - 2)/lambda_1, with
    # lambda_1 the discrete eigenvalue of S x = lambda W x
    space = build_space("jacobi", 2, 4.5, 1024)
    main, off = fv_stiffness(space)
    w = space.quad_weights
    lam1 = sla.eigh_tridiagonal(main / w, off / np.sqrt(w[:-1] * w[1:]),
                                eigvals_only=True, select="i",
                                select_range=(1, 1))[0]
    a_bif = (3.0 - 2.0) / lam1
    init = space.field(1.0 + 0.4 * np.cos(space.grid))
    above = minimize_subcritical(space, 1.005 * a_bif, 3.0, init)
    below = minimize_subcritical(space, 0.995 * a_bif, 3.0, init)
    assert above.constancy <= 1e-6
    assert below.constancy > 0.1


def _two_column_step(wh_bands, w, q, v, r, cgrad, kappa):
    """The bordered Newton step from H [a b] = [-r, grad C], one solve for
    each of the two columns."""
    lower, diag0, upper = wh_bands
    diag = diag0 - kappa * q * (q - 1.0) * v ** (q - 2.0)
    a, b = (tridiagonal_solve(lower, diag, upper, col / w)
            for col in (-r, cgrad))
    d_kappa = (1.0 - w @ v ** q - cgrad @ a) / (cgrad @ b)
    dv = a + d_kappa * b
    return dv, float(dv @ (d_kappa * cgrad - r))


@pytest.mark.parametrize("kind, d, n, q", [("sphere_radial", 3, 3.0, 5.0),
                                           ("jacobi", 2, 4.5, 3.0)])
@pytest.mark.parametrize("below", [True, False])
def test_newton_step_is_the_two_column_bordered_step(monkeypatch, kind, d,
                                                     n, q, below):
    # at every iterate the loop visits, below A_bif = (q-2)/lambda_1 (a
    # bump) or above A* (the constant), one solve gives the bordered step
    space = build_space(kind, d, n, 512)
    a_bif = (q - 2.0) / (n * space.rho / (n - 1.0))
    A = 0.5 * a_bif if below else \
        1.5 * a_star(critical_exponent(q), space.rho)
    solves, steps = [], []

    def solve(lower, diag, upper, b):
        solves.append(np.ndim(b))
        return tridiagonal_solve(lower, diag, upper, b)

    newton_step = variational._newton_step

    def recorded(*args):
        first = len(solves)
        out = newton_step(*args)
        steps.append((args, out, solves[first:]))
        return out

    monkeypatch.setattr(variational, "tridiagonal_solve", solve)
    monkeypatch.setattr(variational, "_newton_step", recorded)
    rep = minimize_subcritical(space, A, q,
                               space.field(1.0 + 0.4 * np.cos(space.grid)))
    assert rep.converged and (rep.constancy > 0.1) == below
    assert len(steps) == rep.iterations
    eps = np.finfo(float).eps
    for args, (dv, curvature), ndims in steps:
        assert ndims == [1]                    # one solve, one column
        ref, ref_curvature = _two_column_step(*args)
        # the bordering row's 1 - C(v) is summed two ways (w.v^q and
        # grad C.v/q): a few roundoffs of C = 1 move dv by ~eps |v|
        v = args[3]
        assert np.abs(dv - ref).max() <= (1e-10 * np.abs(ref).max()
                                          + 16.0 * eps * v.max())
        assert abs(curvature - ref_curvature) <= 1e-10 * abs(ref_curvature)


def test_backward_error_with_vanishing_cells(sphere512, bump_init):
    # at A = 1e-300 the iterate concentrates and most cells become exactly
    # zero, where r_i and its scale are both 0: they count as exact, not NaN
    rep = minimize_subcritical(sphere512, 1e-300, 5.0, bump_init,
                               MinimizeOptions(raise_on_failure=False))
    assert np.count_nonzero(rep.minimizer.values == 0.0) > 0
    assert np.isfinite(rep.backward_error)
    assert rep.iterations < 100
