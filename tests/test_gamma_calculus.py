"""Curvature-dimension margins and Bochner diagnostics."""

import numpy as np
import pytest

from cdsobolev import bochner_residual, build_space, cd_margin
from cdsobolev.acceptance import trig_poly_field
from cdsobolev.errors import InvalidConfig


def test_cd_equality_witness_sphere():
    space = build_space("sphere_radial", 3, 3.0, 512)
    rep = cd_margin(space, space.field(np.cos(space.grid)))
    assert abs(rep.cd_margin_min) <= 5e-3
    assert space.rho == 2.0 and space.n == 3.0


def test_cd_equality_witness_jacobi():
    space = build_space("jacobi", 2, 4.5, 512)
    rep = cd_margin(space, space.field(np.cos(space.grid)))
    assert abs(rep.cd_margin_min) <= 5e-3


def test_cd_margin_second_order_refinement():
    vals = {}
    for N in (256, 512):
        space = build_space("sphere_radial", 3, 3.0, N)
        vals[N] = cd_margin(space,
                            space.field(np.cos(space.grid))).cd_margin_min
    assert abs(vals[256]) / abs(vals[512]) >= 3.0


def test_cd_margin_monotone_in_n():
    # dropping the dimension term's weight (larger n) can only help: the
    # margin at n is formed from the report's Gamma, Gamma_2 and L fields
    space = build_space("sphere_radial", 3, 3.0, 256)
    rep = cd_margin(space, space.field(1.0 + 0.5 * np.cos(2 * space.grid)))
    g, g2 = rep.gamma_field.values, rep.gamma2_field.values
    lf = rep.l_field.values
    m1, m2 = (float((g2 - space.rho * g - lf ** 2 / n).min())
              for n in (3.0, 6.0))
    assert m1 == rep.cd_margin_min
    assert m2 >= m1


def test_cd_margin_corpus_nonnegative():
    # low-degree corpus keeps the O(h^2) pointwise error under the tolerance
    rng = np.random.default_rng(7)
    for kind, d, n in (("sphere_radial", 3, 3.0), ("jacobi", 2, 4.5)):
        space = build_space(kind, d, n, 512)
        for _ in range(25):
            f = trig_poly_field(space, rng, degree=2, amplitude=0.5)
            assert cd_margin(space, f).cd_margin_min >= -5e-3


def test_circle_rejected():
    # the circle (rho = 0) satisfies no CD(rho, n) with rho > 0: it is refused
    # when the space is built, so no margin is ever computed on it
    with pytest.raises(InvalidConfig, match="unknown kind 'circle'"):
        build_space("circle", 1, 1.0, 64)


# the six spaces of the benchmark's certification corpus
SPACES = ([("sphere_radial", d, float(d)) for d in (3, 4, 5)]
          + [("jacobi", 2, n) for n in (3.5, 4.5, 6.0)])


def test_bochner_residual_second_order():
    # the bracket is Gamma_2 of L at real n, so every space refines at
    # second order, for every seeded field 1 + sum_{k<=3} c_k cos(k theta)
    for kind, d, n in SPACES:
        for seed in range(8):
            coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, 3)
            errs = []
            for N in (256, 512, 1024):
                space = build_space(kind, d, n, N)
                f = space.field(1.0 + sum(
                    c * np.cos(k * space.grid)
                    for k, c in enumerate(coeffs, start=1)))
                errs.append(bochner_residual(space, f))
            assert errs[0] / errs[1] >= 3.0, (kind, n, seed)
            assert errs[1] / errs[2] >= 3.0, (kind, n, seed)
    # and the bracket's size for a fixed mode-2 field stays pinned
    for kind, d, n in (("sphere_radial", 3, 3.0), ("jacobi", 2, 4.5)):
        space = build_space(kind, d, n, 512)
        f = space.field(np.cos(space.grid) + 0.2 * np.cos(2 * space.grid))
        assert bochner_residual(space, f) <= 1e-3, kind
