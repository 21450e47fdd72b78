"""Finite-dimensional gradient flows and the fast-diffusion machinery."""

import math
import tracemalloc

import numpy as np
import pytest

from cdsobolev import build_space, flows, integrate
from cdsobolev.acceptance import (FINITE_DIM_DT, check_finite_dim_decay,
                                  trig_poly_field)
from cdsobolev.errors import (ConditionViolated, InvalidAlpha, InvalidConfig,
                              InvalidParameter, NotAProbabilityDensity,
                              PositivityLost, StepUnstable)
from cdsobolev.flows import (FiniteDimProblem, _rk4_step,
                             convexity_inequality_margin,
                             convexity_relation_margin, density_from_field,
                             entropy_inequality_margin, fast_diffusion_flow,
                             fd_flow, hessian_second_derivative,
                             renyi_hessian_quadform)
from cdsobolev.model_space import (apply_L, apply_stiffness, fv_stiffness, gamma,
                                   tridiagonal_solve, weighted_laplacian_fv)
from cdsobolev.sobolev import critical_exponent, sobolev_deficit
from cdsobolev.variational import minimize_subcritical
from oracles import condition_215_margin, renyi_entropy, renyi_grad_norm_sq


@pytest.fixture(scope="module")
def sphere():
    return build_space("sphere_radial", 3, 3.0, 256)


@pytest.fixture
def solves(monkeypatch):
    """The sizes of the tridiagonal solves the flows make, in call order."""
    calls = []

    def counted(lower, diag, upper, b):
        calls.append(len(diag))
        return tridiagonal_solve(lower, diag, upper, b)

    monkeypatch.setattr(flows, "tridiagonal_solve", counted)
    return calls


def normalized(space, raw):
    return space.field(raw / integrate(space, space.field(raw)))


# ----------------------------------------------------------------- finite-dim

# G = -5|y|^2: the convexity condition fails wherever grad F != 0
_BAD_COMPANION = (lambda y: -5.0 * np.sum(y * y, axis=-1),
                  lambda y: -10.0 * y)


def test_problem_validation():
    with pytest.raises(InvalidConfig):
        FiniteDimProblem(Q=np.array([[1.0, 0.5], [0.4, 1.0]]), rho=0.5)
    with pytest.raises(InvalidConfig):
        FiniteDimProblem(Q=0.5 * np.eye(2), rho=2.0)
    with pytest.raises(InvalidConfig):
        FiniteDimProblem(Q=np.eye(2), rho=0.5, companion=(lambda y: 0.0,))
    with pytest.raises(InvalidConfig):
        FiniteDimProblem(Q=np.ones((2, 3)), rho=0.5)
    with pytest.raises(InvalidConfig):  # x* = 0 would be F's maximizer
        FiniteDimProblem(Q=-np.eye(2), rho=1.0,
                         companion=(lambda y: -np.sum(y ** 2, axis=-1),
                                    lambda y: -2.0 * y))


def test_quadratic_exact_decay():
    rho = 2.0
    prob = FiniteDimProblem(Q=rho * np.eye(3), rho=rho)
    x0 = np.array([1.0, -0.5, 0.25])
    trace = fd_flow(prob, x0, T=2.0, dt=0.002)
    expected = prob.F(x0) * np.exp(-2.0 * rho * trace.times)
    assert np.abs(trace.entropy - expected).max() <= 1e-8


def test_stationary_at_minimizer():
    prob = FiniteDimProblem(Q=np.eye(2), rho=1.0)
    trace = fd_flow(prob, prob.x_star, T=1.0, dt=0.01)
    assert np.abs(trace.entropy).max() == 0.0
    assert np.abs(trace.grad_norm_sq).max() == 0.0


def test_lyapunov_and_terminal_gradient():
    prob = FiniteDimProblem(Q=2.0 * np.eye(3), rho=2.0, eps=0.1)
    trace = fd_flow(prob, np.ones(3), T=20.0, dt=0.005)
    e = trace.entropy
    assert np.all(np.diff(e) <= 1e-12 * (1.0 + np.abs(e[:-1])))
    assert np.sqrt(trace.grad_norm_sq[-1]) <= 1e-8


def test_fd_flow_companion_column():
    trace = fd_flow(FiniteDimProblem(Q=np.eye(2), rho=1.0), np.ones(2),
                    T=1.0, dt=0.01)
    assert np.array_equal(trace.companion, trace.entropy)  # G = F
    custom = fd_flow(FiniteDimProblem(Q=np.eye(2), rho=1.0,
                                      companion=_BAD_COMPANION),
                     np.ones(2), T=1.0, dt=0.01)
    assert np.array_equal(custom.entropy, trace.entropy)
    assert np.allclose(custom.companion, -10.0 * trace.entropy,
                       rtol=1e-13, atol=0.0)


def test_step_unstable_detected():
    # lambda dt = 4 is outside RK4's stability interval
    prob = FiniteDimProblem(Q=2.0 * np.eye(1), rho=2.0)
    with pytest.raises(StepUnstable,
                       match="F increased from 1.0 to 25.0 at step 1"):
        fd_flow(prob, np.array([1.0]), T=8.0, dt=2.0)


def _reference_fd_flow(problem, x0, T, dt):
    """The per-step loop that ``fd_flow`` batches: F after every step, and
    grad F, G and the distance to x* one recorded point at a time."""
    x = np.array(x0, dtype=float)
    nsteps, dt, every = flows._time_grid(T, dt)
    rhs = lambda y: -problem.grad_F(y)
    times, ent, gn, comp, dist = [], [], [], [], []

    def record(t, y, f):
        times.append(t)
        ent.append(f)
        gn.append(float(np.sum(problem.grad_F(y) ** 2)))
        comp.append(f if problem.companion is None else problem.G(y))
        dist.append(float(np.abs(y - problem.x_star).max()))

    f_prev = problem.F(x)
    record(0.0, x, f_prev)
    for k in range(1, nsteps + 1):
        x = _rk4_step(rhs, x, dt)
        f_now = problem.F(x)
        if f_now > f_prev + 1e-10 * (1.0 + abs(f_prev)):
            raise StepUnstable(
                f"F increased from {f_prev} to {f_now} at step {k}")
        f_prev = f_now
        if k % every == 0:
            record(k * dt, x, f_now)
    return flows._make_trace(times, ent, gn, comp, dist, steps=nsteps)


@pytest.mark.parametrize("problem, x0, T, dt", [
    # nsteps below, equal to and above MAX_RECORDS, and T/dt = 12434 steps,
    # which the grid rounds up to 12441, a multiple of its record interval
    # 13 but not of the block
    (FiniteDimProblem(Q=np.diag([0.5, 2.0, 3.0]), rho=0.5),
     [1.0, -0.5, 0.25], 2.0, 0.005),
    (FiniteDimProblem(Q=0.5 * np.eye(5), rho=0.5),
     [1.5, -1.0, 0.3, 0.0, -2.0], 5.0, 0.005),
    (FiniteDimProblem(Q=2.0 * np.eye(3), rho=2.0, eps=0.1),
     np.ones(3), 20.0, 0.005),
    (FiniteDimProblem(Q=np.diag([1.0, 1.5]), rho=1.0,
                      companion=_BAD_COMPANION),
     [0.7, -1.2], 37.3, 0.003),
], ids=["quadratic-400", "quadratic-1000", "quartic-4000",
        "companion-12434"])
def test_fd_flow_matches_per_step_reference(problem, x0, T, dt):
    trace = fd_flow(problem, x0, T, dt)
    ref = _reference_fd_flow(problem, x0, T, dt)
    for name in ("times", "entropy", "grad_norm_sq", "companion",
                 "dissipation_residual", "sup_distance"):
        assert np.array_equal(getattr(trace, name), getattr(ref, name)), name
    assert trace.steps == ref.steps


def test_fd_flow_dense_q_matches_reference_to_roundoff():
    # a batched x @ Q (gemm) rounds differently from a one-row x @ Q (gemv);
    # the states are stepped one row at a time in both, so they stay equal
    rng = np.random.default_rng(4)
    A = rng.uniform(-1.0, 1.0, (4, 4))
    prob = FiniteDimProblem(Q=A @ A.T + np.eye(4), rho=1.0, eps=0.05)
    x0 = rng.uniform(-2.0, 2.0, 4)
    trace = fd_flow(prob, x0, T=6.0, dt=0.004)
    ref = _reference_fd_flow(prob, x0, T=6.0, dt=0.004)
    assert len(trace.times) == len(ref.times) == 751
    for name in ("times", "sup_distance"):
        assert np.array_equal(getattr(trace, name), getattr(ref, name)), name
    for name in ("entropy", "grad_norm_sq", "companion"):
        assert np.allclose(getattr(trace, name), getattr(ref, name),
                           rtol=1e-14, atol=0.0), name


# the ids give dt and ceil(T/dt); the grid takes at least four steps
@pytest.mark.parametrize("dt, steps", [(0.3, 4), (0.4, 4)],
                         ids=["0.3-4", "0.4-3"])
def test_fd_flow_ends_at_T(dt, steps):
    prob = FiniteDimProblem(Q=np.eye(2), rho=1.0)
    trace = fd_flow(prob, np.ones(2), T=1.0, dt=dt)
    assert trace.times[-1] == 1.0
    assert trace.steps == steps
    assert np.allclose(np.diff(trace.times), 1.0 / steps, rtol=1e-12)


def test_time_grid_properties():
    # log-uniform (T, dt), dt > T among them, and T/dt just above multiples
    # of MAX_RECORDS, where the record interval steps up
    rng = np.random.default_rng(11)
    cases = [tuple(c) for c in 10.0 ** rng.uniform(-4.0, 4.0, (500, 2))]
    cases += [(1.0, 2.0), (1e-3, 1e3), (1.0, 1.0), (0.3, 0.1), (1.1, 0.1)]
    M = flows.MAX_RECORDS
    cases += [((k * M + j) * 1e-3, 1e-3) for k in (1, 2, 7, 13, 40)
              for j in (1, 2, -1)]
    for T, dt in cases:
        nsteps, step, every = flows._time_grid(T, dt)
        assert nsteps >= 4, (T, dt)
        assert nsteps % every == 0, (T, dt)
        assert nsteps // every <= M, (T, dt)
        assert step == T / nsteps
        # at most dt, up to the 1e-9 slack that keeps 1.1 / 0.1 =
        # 11.000000000000002 at 11 steps
        assert T / nsteps <= dt * (1.0 + 1e-9), (T, dt)
        # the rounding up to a multiple of every adds less than one record
        assert nsteps < max(4, math.ceil(T / dt)) + every, (T, dt)


@pytest.mark.parametrize("x0, message", [
    (1e30, "F = nan at step 1"),    # F(x0) finite, the first step overflows
    (1e60, "F = nan at step 1"),
    (1e80, "F = inf at step 0"),    # F(x0) itself overflows
    (1e100, "F = inf at step 0"),
])
def test_non_finite_entropy_is_unstable(x0, message):
    # NaN fails every comparison, so the Lyapunov test alone let these flows
    # return an all-NaN trace
    prob = FiniteDimProblem(Q=np.eye(1), rho=1.0, eps=0.1)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(StepUnstable) as info:
        fd_flow(prob, (x0,), T=1.0, dt=0.01)
    assert str(info.value) == message


@pytest.mark.parametrize("x0", [(math.nan,), (math.inf,), (1.0, 1.0)])
def test_fd_flow_rejects_bad_x0(x0):
    prob = FiniteDimProblem(Q=np.eye(1), rho=1.0, eps=0.1)
    with pytest.raises(InvalidConfig, match="finite, of shape"):
        fd_flow(prob, x0, T=1.0, dt=0.01)


@pytest.mark.parametrize("x2, message", [
    (1e-150, "F increased from 1.3785893819768644e-05 to "
             "1.378800958436463e-05 at step 1052"),
    (1e-300, "F increased from 4.787450858923511e-10 to "
             "6.392189214551528e-10 at step 2126"),
])
def test_step_unstable_after_first_block(x2, message):
    # dt = 0.005 is outside RK4's stability interval for the eigenvalue
    # 600, so the tiny second component grows until F rises, past the
    # first block of MAX_RECORDS steps
    prob = FiniteDimProblem(Q=np.diag([1.0, 600.0]), rho=1.0)
    with pytest.raises(StepUnstable) as info:
        fd_flow(prob, np.array([1.0, x2]), T=20.0, dt=0.005)
    assert str(info.value) == message
    with pytest.raises(StepUnstable) as info:
        _reference_fd_flow(prob, np.array([1.0, x2]), T=20.0, dt=0.005)
    assert str(info.value) == message


def test_fd_flow_memory_is_bounded():
    # the full trajectory of 20,000 steps in dim 50 would take 8 MB
    prob = FiniteDimProblem(Q=np.eye(50), rho=1.0)
    x0 = np.linspace(-1.0, 1.0, 50)
    tracemalloc.start()
    try:
        trace = fd_flow(prob, x0, T=20.0, dt=0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.steps == 20000 and len(trace.times) == 1001
    assert peak < 1_000_000


def _exp_trace(times):
    """Trace of E = exp(-2t) with |grad|^2 = -dE/dt = 2 exp(-2t)."""
    e = np.exp(-2.0 * times)
    return flows._make_trace(times, e, 2.0 * e, e, e)


def test_dissipation_residual_is_fourth_order():
    # halving the record spacing divides the worst residual, end records
    # included, by about 2^4
    worst = [_exp_trace(np.linspace(0.0, 1.0, n)).dissipation_residual.max()
             for n in (21, 41, 81)]
    for coarse, fine in zip(worst, worst[1:]):
        assert coarse / fine >= 12.0


def test_dissipation_residual_of_a_non_uniform_tail():
    # T/dt = 2002 steps is not a multiple of the record interval 3; the grid
    # rounds the flow up to 2004 steps, so the last record is not one step
    # after the one before it and every residual is fourth order
    prob = FiniteDimProblem(Q=np.eye(2), rho=1.0)
    trace = fd_flow(prob, np.ones(2), T=2.002, dt=0.001)
    assert trace.steps == 2004 and len(trace.times) == 669
    assert np.allclose(np.diff(trace.times), 2.002 / 668, rtol=1e-9, atol=0.0)
    assert trace.times[-1] == 2.002
    assert (trace.dissipation_residual / trace.grad_norm_sq).max() <= 1e-9


def test_finite_dim_step_follows_the_error_model(tmp_path):
    # RK4 puts the slope of log F at rho = 2 off by 2 rho (rho dt)^4/120;
    # the check's step keeps that model at a tenth of its 1e-6 gate
    rho, dt = 2.0, FINITE_DIM_DT
    model = 2.0 * rho * (rho * dt) ** 4 / 120.0
    result = check_finite_dim_decay(str(tmp_path))
    assert result.passed
    assert abs(result.measured - model) <= 0.1 * model
    assert model <= 0.1 * result.tolerance


def test_condition_margin():
    rho = 1.5
    prob = FiniteDimProblem(Q=2.0 * np.eye(2), rho=rho)
    x = np.array([0.3, -0.7])
    g2 = float(np.sum(prob.grad_F(x) ** 2))
    assert condition_215_margin(prob, x) >= 2.0 * rho * g2 - 1e-12
    assert condition_215_margin(prob, np.zeros(2)) == 0.0


def test_convexity_margin_and_violation():
    prob = FiniteDimProblem(Q=np.eye(2), rho=1.0)
    assert convexity_inequality_margin(prob, prob.x_star) == 0.0
    x = np.array([0.5, -1.0])
    # F = G = |x|^2/2, rho = 1: margin is exactly |x|^2
    assert abs(convexity_inequality_margin(prob, x)
               - float(np.sum(x ** 2))) <= 1e-14
    bad = FiniteDimProblem(Q=np.eye(2), rho=1.0, companion=_BAD_COMPANION)
    with pytest.raises(ConditionViolated):
        convexity_inequality_margin(bad, x)


@pytest.mark.parametrize("eps", [0.0, 0.05])
@pytest.mark.parametrize("dim", [2, 3, 5])
def test_batch_margins_match_rows(dim, eps):
    rng = np.random.default_rng(dim)
    A = rng.uniform(-1.0, 1.0, (dim, dim))
    prob = FiniteDimProblem(Q=A @ A.T + np.eye(dim), rho=1.0, eps=eps)
    pts = rng.uniform(-2.0, 2.0, (50, dim))
    for fn in (condition_215_margin, convexity_inequality_margin):
        batch = fn(prob, pts)
        rows = np.array([fn(prob, x) for x in pts])
        assert batch.shape == (50,)
        assert np.all(np.abs(batch - rows) <= 1e-14 * np.abs(rows))
        assert isinstance(fn(prob, pts[0]), float)
    for fn in (prob.F, prob.G):
        assert np.allclose(fn(pts), [fn(x) for x in pts], rtol=1e-14, atol=0)
    # one violating row in a batch is enough to raise
    bad = FiniteDimProblem(Q=np.eye(dim), rho=1.0, eps=eps,
                           companion=_BAD_COMPANION)
    mixed = np.zeros((4, dim))
    mixed[2] = pts[0]
    assert np.all(convexity_inequality_margin(bad, mixed[:2]) == 0.0)
    with pytest.raises(ConditionViolated, match="1 of 4"):
        convexity_inequality_margin(bad, mixed)


def test_rk4_fourth_order():
    # scalar y' = -y over one unit of time: halving dt cuts the error ~16x
    errs = []
    for dt in (0.1, 0.05):
        y = 1.0
        for _ in range(int(round(1.0 / dt))):
            y = _rk4_step(lambda z: -z, y, dt)
        errs.append(abs(y - np.exp(-1.0)))
    assert errs[0] / errs[1] >= 12.0


# ------------------------------------------------------------- Renyi entropy

def test_renyi_entropy_oracles(sphere):
    ones = sphere.field(np.ones(256))
    assert renyi_entropy(sphere, ones, 2.0 / 3.0) == -4.5
    assert renyi_entropy(sphere, ones, 2.0) == 0.5
    mu = normalized(sphere, 1.0 + 0.5 * np.cos(sphere.grid))
    fine = build_space("sphere_radial", 3, 3.0, 2048)
    mu_fine = normalized(fine, 1.0 + 0.5 * np.cos(fine.grid))
    coarse = renyi_entropy(sphere, mu, 2.0 / 3.0)
    ref = renyi_entropy(fine, mu_fine, 2.0 / 3.0)
    assert abs(coarse - ref) <= 1e-4
    assert coarse > -4.5


def test_renyi_validation(sphere):
    ones = sphere.field(np.ones(256))
    with pytest.raises(InvalidAlpha):
        renyi_entropy(sphere, ones, 1.0)
    with pytest.raises(InvalidAlpha):
        renyi_entropy(sphere, ones, -0.5)
    with pytest.raises(NotAProbabilityDensity):
        renyi_entropy(sphere, sphere.field(2.0 * np.ones(256)), 0.5)
    with pytest.raises(NotAProbabilityDensity):
        renyi_entropy(sphere, sphere.field(np.cos(sphere.grid)), 0.5)


def test_grad_norm_quadratic_vanishing(sphere):
    assert renyi_grad_norm_sq(sphere, sphere.field(np.ones(256)),
                              2.0 / 3.0) == 0.0
    ratios = {}
    for eps in (0.02, 0.01):
        mu = normalized(sphere, 1.0 + eps * np.cos(sphere.grid))
        ratios[eps] = renyi_grad_norm_sq(sphere, mu, 2.0 / 3.0) / eps ** 2
    assert abs(ratios[0.02] / ratios[0.01] - 1.0) <= 0.05


@pytest.mark.parametrize("alpha", [0.4, 2.0 / 3.0, 0.9])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("N", [128, 1024, 4096])
@pytest.mark.parametrize("kind,d,n", [("sphere_radial", 3, 3.0),
                                      ("jacobi", 2, 4.5)])
def test_otto_norm_is_the_semi_discrete_dissipation(kind, d, n, N, seed,
                                                     alpha):
    # along w mu' = -(1/alpha) S mu^alpha, dR_alpha/dt = sum w Phi mu' with
    # Phi = mu^{alpha-1}/(alpha-1): the Otto norm is exactly -dR_alpha/dt
    space = build_space(kind, d, n, N)
    bands = fv_stiffness(space)
    abs_bands = tuple(np.abs(band) for band in bands)
    w = space.quad_weights
    rng = np.random.default_rng(seed)
    mu = normalized(space, 1.0 + 0.5 * np.cos(space.grid)
                    + rng.uniform(0.0, 0.5, N)).values
    phi, mu_a = mu ** (alpha - 1.0) / (alpha - 1.0), mu ** alpha
    mu_dot = -apply_stiffness(bands, mu_a) / (alpha * w)
    scale = np.abs(phi) @ apply_stiffness(abs_bands, mu_a) / alpha
    assert abs(flows._otto_grad_norm_sq(space, mu, alpha)
               + np.dot(w * phi, mu_dot)) <= 1e-15 * scale
    const = flows._otto_grad_norm_sq(space, np.ones(N), alpha)
    assert const == 0.0 and np.copysign(1.0, const) == 1.0


def test_hessian_quadform_oracle(sphere):
    ones = sphere.field(np.ones(256))
    const = sphere.field(np.full(256, 3.0))
    assert renyi_hessian_quadform(sphere, ones, 2.0 / 3.0, const) == 0.0
    # closed form 3 (1 - int cos^2 dnu) = 9/4 at (mu=1, phi=cos, alpha=2/3)
    val = renyi_hessian_quadform(sphere, ones, 2.0 / 3.0,
                                 sphere.field(np.cos(sphere.grid)))
    assert abs(val - 2.25) <= 1e-3


def test_hessian_matches_path_second_derivative(sphere):
    rng = np.random.default_rng(17)
    for alpha in (0.5, 2.0 / 3.0):
        mu = normalized(sphere, trig_poly_field(sphere, rng,
                                                amplitude=0.3).values)
        phi = trig_poly_field(sphere, rng, degree=3)
        quad = renyi_hessian_quadform(sphere, mu, alpha, phi)
        path = hessian_second_derivative(sphere, mu, alpha, phi)
        assert abs(quad - path) <= 1e-3 * max(abs(quad), 1e-12)


def _reference_path_second_derivative(space, mu, alpha, phi, s):
    """Centered second difference (R(s) + R(-s) - 2 R(0)) / s^2 along the
    transport path built from the public field operators, 8 RK4 steps to
    each side."""
    def rhs(state):
        mf, pf = space.field(state[0]), space.field(state[1])
        div = gamma(space, mf, pf).values + state[0] * apply_L(space, pf).values
        return np.stack([-div, -0.5 * gamma(space, pf, pf).values])

    def renyi(m):
        return float(np.dot(space.quad_weights, m ** alpha)
                     / (alpha * (alpha - 1.0)))

    steps = 8
    ends = []
    for sign in (1.0, -1.0):
        state = np.stack([mu.values, phi.values])
        for _ in range(steps):
            state = _rk4_step(rhs, state, sign * s / steps)
        ends.append(renyi(state[0]))
    return (ends[0] + ends[1] - 2.0 * renyi(mu.values)) / (s * s)


# N = 4096 is the finest resolution the benchmark corpus certifies
@pytest.mark.parametrize("N, alpha", [
    pytest.param(N, alpha, id=str(N) if alpha == 2.0 / 3.0
                 else f"{N}-alpha{alpha}")
    for N in (128, 1024, 4096) for alpha in (0.4, 2.0 / 3.0, 0.9)])
@pytest.mark.parametrize("kind,d,n", [("sphere_radial", 3, 3.0),
                                      ("jacobi", 2, 4.5)])
def test_path_second_derivative_matches_reference_bitwise(kind, d, n, N,
                                                          alpha):
    # the exact second derivative of the semi-discrete path is the s -> 0
    # limit of the RK4 reference: its error is O(s^2), and Richardson
    # extrapolation of two step sizes removes that term
    space = build_space(kind, d, n, N)
    rng = np.random.default_rng(N)
    mu = normalized(space, trig_poly_field(space, rng, amplitude=0.3).values)
    phi = trig_poly_field(space, rng, degree=3)
    got = hessian_second_derivative(space, mu, alpha, phi)
    coarse, fine = (_reference_path_second_derivative(space, mu, alpha, phi, s)
                    for s in (5e-3, 2.5e-3))
    assert 3.9 <= (coarse - got) / (fine - got) <= 4.1
    assert abs((4.0 * fine - coarse) / 3.0 - got) <= 1e-7 * abs(got)


@pytest.mark.parametrize("kind,d,n", [("sphere_radial", 3, 3.0),
                                      ("jacobi", 2, 4.5), ("jacobi", 2, 6.0)])
def test_hessian_path_gap_is_second_order(kind, d, n):
    # both sides discretize the same continuum Hessian at O(h^2), so the
    # worst quadform-vs-path gap of a fixed corpus falls 4x per halving of h
    worst = []
    for N in (512, 1024, 2048):
        space = build_space(kind, d, n, N)
        rng = np.random.default_rng(5)
        gaps = []
        for i in range(20):
            alpha = (0.4, 0.5, 2.0 / 3.0, 0.75, 0.9)[i % 5]
            mu = normalized(space, trig_poly_field(space, rng,
                                                   amplitude=0.3).values)
            phi = trig_poly_field(space, rng, degree=3)
            quad = renyi_hessian_quadform(space, mu, alpha, phi)
            path = hessian_second_derivative(space, mu, alpha, phi)
            gaps.append(abs(quad - path) / max(abs(quad), 1e-12))
        worst.append(max(gaps))
    for coarse, fine in zip(worst, worst[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_path_large_potential_matches_quadform(sphere):
    # the jet has no step size, so a steep potential is no blow-up
    mu = sphere.field(np.ones(256))
    phi = sphere.field(1e3 * np.cos(sphere.grid))
    quad = renyi_hessian_quadform(sphere, mu, 0.5, phi)
    path = hessian_second_derivative(sphere, mu, 0.5, phi)
    assert abs(quad - path) <= 1e-3 * abs(quad)


def test_path_overflow_is_invalid_config(sphere):
    mu = sphere.field(np.ones(256))
    phi = sphere.field(1e160 * np.cos(sphere.grid))
    with np.errstate(all="ignore"), pytest.raises(InvalidConfig):
        hessian_second_derivative(sphere, mu, 0.5, phi)


def test_hessian_positivity_under_cd():
    # quadform >= (rho/alpha) int Gamma(Phi) mu^alpha for alpha = 1 - 1/n
    rng = np.random.default_rng(19)
    for kind, d, n in (("sphere_radial", 3, 3.0), ("jacobi", 2, 4.5)):
        space = build_space(kind, d, n, 1024)
        for _ in range(10):
            mu = normalized(space, trig_poly_field(space, rng,
                                                   amplitude=0.5).values)
            margin = convexity_relation_margin(space, mu, space.n)
            assert margin >= -1e-4 * (1.0 + abs(margin))


# -------------------------------------------------------------- the PDE flow

def test_fast_diffusion_equilibrium_start(sphere):
    trace = fast_diffusion_flow(sphere, sphere.field(np.ones(256)),
                                2.0 / 3.0, T=1.0)
    assert trace.grad_norm_sq[-1] <= 1e-12
    assert abs(trace.entropy[-1]) <= 1e-14   # R_alpha(mu) - R_alpha(1)
    # the gradient is below GRAD_STOP from the start; the flow stops once
    # it holds the five records of the stencils
    assert trace.stop_reason == "grad_stop" and len(trace.times) == 5


# a non-finite parameter fails no comparison with its bound; unchecked it
# reached int(), a NaN field or an overflow instead of a typed error
NON_FINITE_ENTRIES = {
    "fd_flow": (InvalidParameter, ("T", "dt"), lambda space, **kw: fd_flow(
        FiniteDimProblem(Q=np.eye(2), rho=1.0), [1.0, 1.0],
        **{"T": 1.0, "dt": 1e-2, **kw})),
    "fast_diffusion_flow": (InvalidParameter, ("T", "dt"),
                            lambda space, **kw: fast_diffusion_flow(
        space, normalized(space, 1.0 + 0.5 * np.cos(space.grid)), 2.0 / 3.0,
        **{"T": 1.0, **kw})),
    "FiniteDimProblem": (InvalidConfig, ("rho", "eps"),
                         lambda space, **kw: FiniteDimProblem(
        **{"Q": np.eye(2), "rho": 1.0, **kw})),
    "minimize_subcritical": (InvalidParameter, ("A",),
                             lambda space, **kw: minimize_subcritical(
        space, q=2.5, init=space.field(np.ones(space.resolution)), **kw)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("entry, key", [
    (entry, key) for entry, (_, keys, _) in NON_FINITE_ENTRIES.items()
    for key in keys])
def test_non_finite_parameters_raise_typed_errors(entry, key, bad, sphere):
    error, _, call = NON_FINITE_ENTRIES[entry]
    with pytest.raises(error, match="A = " if key == "A" else None):
        call(sphere, **{key: bad})


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("key", ["T", "dt"])
def test_both_flows_reject_a_bad_time_grid_alike(key, bad, sphere):
    messages = set()
    for entry in ("fd_flow", "fast_diffusion_flow"):
        with pytest.raises(InvalidParameter) as info:
            NON_FINITE_ENTRIES[entry][2](sphere, **{key: bad})
        messages.add(str(info.value))
    assert len(messages) == 1, messages


def test_both_flows_accept_dt_above_T(sphere):
    fd = fd_flow(FiniteDimProblem(Q=np.eye(2), rho=1.0), [1.0, 1.0],
                 T=1.0, dt=2.0)
    mu = normalized(sphere, 1.0 + 0.5 * np.cos(sphere.grid))
    fast = fast_diffusion_flow(sphere, mu, 2.0 / 3.0, T=0.01, dt=1.0)
    for trace, T in ((fd, 1.0), (fast, 0.01)):
        assert trace.steps == 4 and len(trace.times) == 5
        assert trace.times[-1] == T


def test_fast_diffusion_validation(sphere):
    mu = normalized(sphere, 1.0 + 0.5 * np.cos(sphere.grid))
    with pytest.raises(InvalidAlpha):
        fast_diffusion_flow(sphere, mu, 1.5, T=1.0)
    with pytest.raises(InvalidParameter):
        fast_diffusion_flow(sphere, mu, 2.0 / 3.0, T=0.0)
    with pytest.raises(InvalidParameter):
        fast_diffusion_flow(sphere, mu, 2.0 / 3.0, T=1.0, dt=0.0)
    with pytest.raises(NotAProbabilityDensity):
        fast_diffusion_flow(sphere, sphere.field(2.0 + np.zeros(256)),
                            2.0 / 3.0, T=1.0)


def test_fast_diffusion_floor_abort(sphere, monkeypatch):
    mu = normalized(sphere, 1.0 + 0.5 * np.cos(sphere.grid))
    monkeypatch.setattr(flows, "POSITIVITY_FLOOR", 0.99)
    with pytest.raises(PositivityLost):
        fast_diffusion_flow(sphere, mu, 2.0 / 3.0, T=1.0)


def test_fast_diffusion_structure(sphere):
    mu = normalized(sphere, 1.0 + 0.5 * np.cos(sphere.grid))
    trace = fast_diffusion_flow(sphere, mu, 2.0 / 3.0, T=5.0)
    # mass conservation
    assert np.abs(np.asarray(trace.mass) - 1.0).max() <= 1e-8
    # Lyapunov
    e = trace.entropy
    assert np.all(np.diff(e) <= 1e-12 * (1.0 + np.abs(e[:-1])))
    # dissipation identity at every record, end records included
    gn = trace.grad_norm_sq
    scale = np.maximum(gn, 1e-6 * gn.max())
    assert (trace.dissipation_residual / scale).max() <= 1e-3
    # equilibrium limits
    assert trace.sup_distance[-1] <= 1e-4
    assert abs(e[-1]) <= 1e-6


def test_fast_diffusion_step_refinement():
    # the linearly implicit midpoint rule is second order: halving dt
    # quarters the endpoint error, so successive differences shrink by a
    # factor near 4 on both kinds and across alpha
    for kind, d, n in (("sphere_radial", 3, 3.0), ("jacobi", 2, 4.5)):
        space = build_space(kind, d, n, 256)
        mu = normalized(space, 1.0 + 0.5 * np.cos(space.grid))
        for alpha in (0.4, 2.0 / 3.0, 0.9):
            ends = [fast_diffusion_flow(space, mu, alpha, T=0.05,
                                        dt=dt).entropy[-1]
                    for dt in (0.005, 0.0025, 0.00125)]
            d1, d2 = ends[0] - ends[1], ends[1] - ends[2]
            assert 3.9 <= d1 / d2 <= 4.1, (kind, alpha, d1 / d2)


@pytest.mark.parametrize("kind, d, n", [("sphere_radial", 3, 3.0)])
def test_fast_diffusion_matches_explicit_reference(kind, d, n):
    # the banded implicit solve against explicit RK4 on the sparse FV
    # operator with a tiny step: the gap is the O(dt^2) midpoint error
    space = build_space(kind, d, n, 64)
    mu = normalized(space, 1.0 + 0.5 * np.cos(space.grid))
    alpha, T, steps = 2.0 / 3.0, 0.05, 2000
    lap = weighted_laplacian_fv(space)
    m = np.array(mu.values)
    for _ in range(steps):
        m = _rk4_step(lambda v: lap(v ** alpha) / alpha, m, T / steps)
    # R_alpha(m) - R_alpha(1), summed term by term
    ref = np.dot(space.quad_weights, m ** alpha - 1.0 - alpha * (m - 1.0)) \
        / (alpha * (alpha - 1.0))
    trace = fast_diffusion_flow(space, mu, alpha, T=T, dt=0.00125)
    assert abs(trace.entropy[-1] - ref) <= 1e-7


@pytest.mark.parametrize("N", [128, 256, 1024])
@pytest.mark.parametrize("kind, d, n", [("sphere_radial", 3, 3.0),
                                        ("jacobi", 2, 4.5)])
def test_fast_diffusion_invariants(kind, d, n, N, monkeypatch, solves):
    # mass, Lyapunov decrease and the stopping rule over seeded cosine
    # starts; GRAD_STOP = 1e-4 lets some flows stop early and some reach T
    space = build_space(kind, d, n, N)
    T = 1.0
    monkeypatch.setattr(flows, "GRAD_STOP", 1e-4)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        p = sum(c * np.cos(k * space.grid)
                for k, c in enumerate(rng.uniform(-1.0, 1.0, 3), start=1))
        mu = normalized(space, 1.0 + 0.5 * p / np.abs(p).max())
        solves.clear()
        trace = fast_diffusion_flow(space, mu, 2.0 / 3.0, T=T)
        assert np.abs(trace.mass - trace.mass[0]).max() <= 1e-10
        assert np.all(np.diff(trace.entropy) < 0.0)
        assert trace.steps == len(trace.times) - 1
        assert len(solves) == trace.steps  # one tridiagonal solve a step
        if trace.stop_reason == "grad_stop":
            assert trace.grad_norm_sq[-1] < flows.GRAD_STOP
            assert trace.times[-1] < T
        else:
            assert trace.stop_reason == "T"
            assert abs(trace.times[-1] - T) <= 1e-12
            assert np.all(trace.grad_norm_sq >= flows.GRAD_STOP)


def test_flow_telemetry(sphere, solves):
    mu = normalized(sphere, 1.0 + 0.5 * np.cos(sphere.grid))
    trace = fast_diffusion_flow(sphere, mu, 2.0 / 3.0, T=0.05)
    assert trace.steps == 5 and trace.stop_reason == "T"  # default dt 1e-2
    assert solves == [sphere.resolution] * trace.steps
    prob = FiniteDimProblem(Q=np.eye(2), rho=1.0)
    trace = fd_flow(prob, np.ones(2), T=1.0, dt=0.01)
    assert (trace.steps, trace.stop_reason) == (100, "T")


# ------------------------------------------------------ entropy-Sobolev link

def test_entropy_margin_equilibrium(sphere):
    assert entropy_inequality_margin(sphere, sphere.field(np.ones(256))) == 0.0


def test_entropy_margin_bridge(sphere):
    rng = np.random.default_rng(23)
    n = sphere.n
    q = critical_exponent(n)
    for _ in range(10):
        f = trig_poly_field(sphere, rng)
        mu = density_from_field(sphere, f, q)
        margin = entropy_inequality_margin(sphere, mu)
        fn = sphere.field(mu.values ** ((n - 2.0) / (2.0 * n)))
        rep = sobolev_deficit(sphere, fn, q)
        bridge = 2.0 * n * n / (n - 2.0) ** 2 * rep.deficit
        assert margin >= -1e-6 * (1.0 + rep.rhs)
        assert abs(margin - bridge) <= 1e-8 * (abs(margin) + abs(bridge)
                                               + 1e-300)


def test_entropy_margin_extremal_density():
    from cdsobolev import extremal_field
    space = build_space("sphere_radial", 3, 3.0, 1024)
    f = extremal_field(space, 2.0)
    mu = density_from_field(space, f, 6.0)
    margin = entropy_inequality_margin(space, mu)
    fn = space.field(mu.values ** (1.0 / 6.0))
    rhs = sobolev_deficit(space, fn, 6.0).rhs
    assert abs(margin) / (18.0 * rhs) <= 1e-3


def test_literal_grad_norm_matches_substitution():
    # the power-then-Gamma evaluation agrees with the Gamma-of-power form
    # at second order in h
    gaps = {}
    for N in (512, 1024):
        space = build_space("sphere_radial", 3, 3.0, N)
        mu = normalized(space, 1.0 + 0.5 * np.cos(space.grid))
        n, rho = space.n, space.rho
        alpha, beta = 1.0 - 1.0 / n, 1.0 - 2.0 / n
        literal = alpha / (2.0 * rho) * renyi_grad_norm_sq(space, mu, alpha)
        from cdsobolev.sobolev import grad_norm_sq
        f = space.field(mu.values ** (beta / 2.0))
        subst = alpha / (2.0 * rho) * (4.0 / beta ** 2) \
            * grad_norm_sq(space, f)
        gaps[N] = abs(literal - subst) / subst
    assert gaps[1024] <= 1e-3
    assert gaps[512] / gaps[1024] >= 3.0


def test_density_from_field(sphere):
    f = sphere.field(1.0 + 0.5 * np.cos(sphere.grid))
    mu = density_from_field(sphere, f, 6.0)
    assert abs(integrate(sphere, mu) - 1.0) <= 1e-14
    with pytest.raises(InvalidParameter):
        density_from_field(sphere, sphere.field(np.zeros(256)), 6.0)
