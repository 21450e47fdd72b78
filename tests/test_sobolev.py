"""Sobolev deficits, sharp constants and the extremal family."""

import numpy as np
import pytest

from cdsobolev import (build_space, critical_exponent, extremal_field, lq_norm,
                       sharp_constants, sobolev_deficit)
from cdsobolev.acceptance import trig_poly_field
from cdsobolev.errors import (InvalidAlpha, InvalidConfig, InvalidExponent,
                              InvalidParameter)
from cdsobolev.flows import density_from_field, renyi_hessian_quadform
from cdsobolev.model_space import apply_stiffness, fv_stiffness
from cdsobolev.sobolev import a_star, grad_norm_sq
from oracles import renyi_entropy, renyi_grad_norm_sq


def test_critical_exponent_values():
    assert critical_exponent(3.0) == 6.0
    assert critical_exponent(4.0) == 4.0
    assert critical_exponent(6.0) == 3.0


def test_sharp_constants_closed_form():
    assert sharp_constants(3.0, 2.0) == (1.0 / 3.0, 4.0 / 3.0)
    assert sharp_constants(4.0, 3.0) == (1.0 / 4.0, 1.0 / 2.0)
    with pytest.raises(InvalidParameter):
        sharp_constants(2.0, 1.0)
    with pytest.raises(InvalidParameter):
        sharp_constants(3.0, 0.0)


def test_lq_norm_oracle():
    # ||1 + 0.5 cos||_2^2 = 1 + 0.25 * int cos^2 dnu = 1 + 0.25/4 = 1.0625
    space = build_space("sphere_radial", 3, 3.0, 512)
    v = space.field(1.0 + 0.5 * np.cos(space.grid))
    assert abs(lq_norm(space, v, 2.0) - np.sqrt(1.0625)) <= 1e-14
    with pytest.raises(InvalidExponent):
        lq_norm(space, v, 0.5)


def test_lq_norm_homogeneity():
    space = build_space("sphere_radial", 3, 3.0, 256)
    v = space.field(1.0 + 0.3 * np.cos(space.grid))
    assert abs(lq_norm(space, space.field(2.5 * v.values), 4.0)
               - 2.5 * lq_norm(space, v, 4.0)) <= 1e-13


def test_deficit_scale_invariance():
    space = build_space("sphere_radial", 3, 3.0, 512)
    v = space.field(1.0 + 0.4 * np.cos(space.grid))
    base = sobolev_deficit(space, v, 6.0).deficit
    scaled = sobolev_deficit(space, space.field(3.0 * v.values), 6.0).deficit
    assert abs(scaled - 9.0 * base) <= 1e-10 * (1.0 + abs(9.0 * base))


def test_deficit_positive_on_corpus():
    rng = np.random.default_rng(3)
    for kind, d, n in (("sphere_radial", 3, 3.0), ("jacobi", 2, 3.5)):
        space = build_space(kind, d, n, 1024)
        q = critical_exponent(n)
        for _ in range(20):
            rep = sobolev_deficit(space, trig_poly_field(space, rng), q)
            assert rep.deficit >= -1e-6 * (1.0 + rep.rhs)


def test_subcritical_comparison():
    # the inequality persists for smaller exponents
    space = build_space("sphere_radial", 3, 3.0, 1024)
    v = trig_poly_field(space, np.random.default_rng(5))
    for q in (3.0, 4.0, 6.0):
        rep = sobolev_deficit(space, v, q)
        assert rep.deficit >= -1e-6 * (1.0 + rep.rhs)


def test_deficit_exponent_validation():
    space = build_space("sphere_radial", 3, 3.0, 256)
    v = space.field(np.ones(256))
    for q in (2.0, 6.5):
        with pytest.raises(InvalidExponent):
            sobolev_deficit(space, v, q)


def test_deficit_overflow_is_invalid_config():
    # |v|^6 overflows to inf: the quadrature must not return it
    space = build_space("sphere_radial", 3, 3.0, 256)
    v = space.field(np.full(256, 1e100))
    with np.errstate(over="ignore"), pytest.raises(InvalidConfig):
        sobolev_deficit(space, v, 6.0)


def test_constants_saturate():
    space = build_space("sphere_radial", 3, 3.0, 256)
    rep = sobolev_deficit(space, space.field(np.ones(256)), 6.0)
    assert abs(rep.deficit) <= 1e-14


# the family saturates at every n > 2: the sphere's integer n = d and the
# jacobi model's real n alike
@pytest.mark.parametrize("kind, d, n", [
    pytest.param("sphere_radial", 3, 3.0, id="3"),
    pytest.param("sphere_radial", 4, 4.0, id="4"),
    pytest.param("jacobi", 2, 3.5, id="jacobi-3.5"),
    pytest.param("jacobi", 2, 4.5, id="jacobi-4.5"),
    pytest.param("jacobi", 2, 6.0, id="jacobi-6.0")])
@pytest.mark.parametrize("beta", [1.5, 2.0, 4.0])
def test_extremal_saturation_and_refinement(kind, d, n, beta):
    rels = {}
    for N in (512, 1024):
        space = build_space(kind, d, n, N)
        rep = sobolev_deficit(space, extremal_field(space, beta),
                              critical_exponent(n))
        rels[N] = abs(rep.deficit_rel)
    assert rels[1024] <= 1e-3
    assert rels[512] / rels[1024] >= 3.0


def test_extremal_field_validation():
    sphere = build_space("sphere_radial", 3, 3.0, 128)
    with pytest.raises(InvalidParameter):
        extremal_field(sphere, 1.0)                   # singular beta


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("N", [128, 1024, 4096])
@pytest.mark.parametrize("kind,d,n", [("sphere_radial", 3, 3.0),
                                      ("jacobi", 2, 4.5)])
def test_grad_norm_sq_is_the_stiffness_form(kind, d, n, N, seed):
    # the face sum is v^T S v, to roundoff on the scale v^T |S| v of the
    # stencil product, and exactly +0.0 on a constant
    space = build_space(kind, d, n, N)
    bands = fv_stiffness(space)
    abs_bands = tuple(np.abs(band) for band in bands)
    rng = np.random.default_rng(seed)
    v = np.cos(rng.integers(1, 6) * space.grid) + rng.uniform(-1.0, 1.0, N)
    scale = np.abs(v) @ apply_stiffness(abs_bands, np.abs(v))
    assert abs(grad_norm_sq(space, space.field(v))
               - v @ apply_stiffness(bands, v)) <= 1e-15 * scale
    const = grad_norm_sq(space,
                         space.field(np.full(N, rng.uniform(0.1, 10.0))))
    assert const == 0.0 and np.copysign(1.0, const) == 1.0


def _density(space):
    raw = 1.0 + 0.5 * np.cos(space.grid)
    return space.field(raw / np.dot(space.quad_weights, raw))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call, error", [
    (lambda s, x: sharp_constants(x, 2.0), InvalidParameter),
    (lambda s, x: sharp_constants(3.0, x), InvalidParameter),
    (lambda s, x: a_star(x, 2.0), InvalidParameter),
    (lambda s, x: a_star(5.0, x), InvalidParameter),
    (lambda s, x: lq_norm(s, _density(s), x), InvalidExponent),
    (lambda s, x: renyi_entropy(s, _density(s), x), InvalidAlpha),
    (lambda s, x: renyi_grad_norm_sq(s, _density(s), x), InvalidAlpha),
    (lambda s, x: renyi_hessian_quadform(s, _density(s), x, _density(s)),
     InvalidAlpha),
    (lambda s, x: extremal_field(s, x), InvalidParameter),
    (lambda s, x: density_from_field(s, _density(s), x), InvalidExponent),
], ids=["sharp_constants-n", "sharp_constants-rho", "a_star-x", "a_star-rho",
        "lq_norm-q", "renyi_entropy-alpha", "renyi_grad_norm_sq-alpha",
        "renyi_hessian_quadform-alpha", "extremal_field-beta",
        "density_from_field-q"])
def test_non_finite_scalars_raise_typed_errors(call, error, bad):
    # each admissible range is a finite interval, checked before any use
    space = build_space("sphere_radial", 3, 3.0, 64)
    with pytest.raises(error):
        call(space, bad)
