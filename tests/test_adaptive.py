"""Per-iteration optimum, precision recursion, schedules, and endpoint bounds."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hamest import adaptive, core, qfim
from hamest.errors import (
    DegenerateInput,
    DivergentTime,
    DomainError,
    NoContraction,
    SingularJacobian,
)

G0_REFERENCE = 1.2986  # published four-digit value
IDENTITY_RTOL = 1e-12
SCHEDULE_RTOL = 1e-10


def phi(g):
    return 1.0 / g + 2.0 * g / math.sin(g) ** 2


# ---------------------------------------------------------------------------
# gain and g0


def test_gain_at_quarter_period():
    assert adaptive.gain(math.pi / 2) == pytest.approx(1.0 / math.pi**2 + 0.5, rel=1e-14)


def test_gain_at_g0():
    assert adaptive.gain(adaptive.g0()) == pytest.approx(0.6872017903857487, rel=1e-12)


def test_gain_small_argument_divergence():
    x = 1e-3
    assert adaptive.gain(x) * 4.0 * x**2 / 3.0 == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("x", [0.0, -1.0, math.pi, 4.0])
def test_gain_domain(x):
    with pytest.raises(DomainError):
        adaptive.gain(x)


@pytest.mark.filterwarnings("error")
def test_gain_array_equals_float_calls():
    # Across the series threshold, up to the last float below pi, and down to
    # 5e-324: below about 7.5e-155 csc^2(x) overflows, and below about 1.6e-162
    # x^2 is 0; both give inf, in a float as in an array, with no warning.
    x = np.concatenate([
        [5e-324, 1e-320, 1e-200, 1.5e-162],
        np.geomspace(1e-160, 1e-3, 4000),
        np.linspace(1e-3, math.pi, 6000, endpoint=False),
        [1e-4, np.nextafter(1e-4, 0.0), np.nextafter(math.pi, 0.0)],
    ])
    batched = adaptive.gain(x)
    assert batched.tobytes() == np.array([adaptive.gain(v) for v in x.tolist()]).tobytes()
    assert np.isinf(batched[:5]).all()
    assert adaptive.gain(5e-324) == math.inf
    assert isinstance(adaptive.gain(1.0), float)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.pi, 4.0, math.nan])
def test_gain_array_names_its_first_entry_outside(bad):
    with pytest.raises(DomainError) as scalar:
        adaptive.gain(bad)
    with pytest.raises(DomainError) as batched:
        adaptive.gain(np.array([[1.0, 2.0], [bad, 5.0]]))
    assert str(batched.value) == str(scalar.value)


def test_solve_g0_reference_value():
    assert adaptive.solve_g0(1e-6) == pytest.approx(G0_REFERENCE, abs=1e-3)


def test_solve_g0_is_local_minimum():
    g = adaptive.solve_g0(1e-10)
    assert phi(g) < phi(g + 0.01)
    assert phi(g) < phi(g - 0.01)


def test_solve_g0_bracket_is_the_scan_bracket():
    # A 61-point scan of [0.5, 3] picks the neighbours of its minimum as the
    # bracket; the objective has no parameters, so that is always G0_BRACKET.
    grid = np.linspace(0.5, 3.0, 61)
    imin = int(np.argmin([phi(g) for g in grid]))
    assert 0 < imin < len(grid) - 1
    assert (float(grid[imin - 1]), float(grid[imin + 1])) == adaptive.G0_BRACKET
    lo, hi = adaptive.G0_BRACKET
    assert phi(grid[imin]) < min(phi(lo), phi(hi))
    assert lo < adaptive.g0() < hi


def test_solve_g0_tolerance_domain():
    for tol in (1e-13, 1e-2):
        with pytest.raises(DomainError):
            adaptive.solve_g0(tol)


def test_g0_cached_value():
    assert adaptive.g0() == pytest.approx(1.2986027893222916, rel=1e-14)
    assert adaptive.g0() == adaptive.solve_g0(1e-12)


def test_expected_dE2_proportional_to_phi():
    # at t = g/omega the expected next-step gap is omega * phi(g) / T
    rng = np.random.default_rng(73)
    for _ in range(20):
        g = rng.uniform(0.05, math.pi - 0.05)
        dE2 = rng.uniform(0.1, 10.0)
        omega = math.sqrt(dE2) / 2.0
        T = 50.0
        value = adaptive.expected_dE2_next(T, g / omega, dE2)
        assert value == pytest.approx(omega * phi(g) / T, rel=IDENTITY_RTOL)


# ---------------------------------------------------------------------------
# iteration covariance


def test_iteration_covariance_single_axis():
    b, n, t = 0.5, 10, 2.0
    c = adaptive.iteration_covariance((b, 0.0, 0.0), n, t)
    transverse = b**2 / (4 * n * math.sin(b * t) ** 2)
    assert_allclose(
        c.m, np.diag([1.0 / (4 * n * t**2), transverse, transverse]), rtol=1e-12
    )


def test_iteration_covariance_off_diagonals_vanish():
    for axis in range(3):
        delta = np.zeros(3)
        delta[axis] = 0.8
        c = adaptive.iteration_covariance(delta, 4, 1.3)
        off = c.m - np.diag(np.diag(c.m))
        assert np.abs(off).max() < 1e-15


def test_iteration_covariance_inverts_information():
    from hamest.core import get_model

    rng = np.random.default_rng(79)
    model = get_model("pauli")
    done = 0
    while done < 100:
        delta = rng.uniform(-1.5, 1.5, 3)
        norm = np.linalg.norm(delta)
        t = rng.uniform(0.2, 4.0)
        if norm < 0.05 or abs(math.sin(norm * t)) < 1e-2:
            continue
        c = adaptive.iteration_covariance(delta, 6, t)
        f = qfim.qfim_entangled(model, delta, t)
        assert_allclose(c.m, np.linalg.inv(6 * f.m), rtol=1e-8)
        done += 1


def test_iteration_covariance_trace_identity_at_optimum():
    rng = np.random.default_rng(83)
    g = adaptive.g0()
    for _ in range(20):
        delta = rng.uniform(-1.0, 1.0, 3)
        norm = np.linalg.norm(delta)
        n = int(rng.integers(1, 50))
        c = adaptive.iteration_covariance(delta, n, g / norm)
        assert np.trace(c.m) == pytest.approx(
            norm**2 * adaptive.gain(g) / n, rel=IDENTITY_RTOL
        )


def test_iteration_covariance_errors():
    with pytest.raises(DegenerateInput):
        adaptive.iteration_covariance((0.0, 0.0, 0.0), 5, 1.0)
    with pytest.raises(DivergentTime):
        adaptive.iteration_covariance((1.0, 0.0, 0.0), 5, math.pi)


@pytest.mark.parametrize("size", [1e-155, 1e-158, 1e-200])
def test_iteration_covariance_direction_stays_unit_for_tiny_residuals(size):
    # |delta_beta|^2 is subnormal or 0 here; the direction u keeps its digits.
    rng = np.random.default_rng(97)
    z = rng.standard_normal((2000, 3))
    delta = size * z / np.hypot.reduce(z, axis=1)[:, None]
    t = adaptive.g0() / size
    eps = np.finfo(float).eps
    u = adaptive.iteration_covariance(delta, 10, t).u
    assert np.all(np.abs(np.hypot.reduce(u, axis=1) - 1.0) <= 4.0 * eps)
    assert abs(math.hypot(*adaptive.iteration_covariance(delta[0], 10, t).u) - 1.0) <= 4.0 * eps


def test_iteration_covariance_batch_matches_single_calls():
    # A stack of residuals with per-entry n and t gives each entry's own matrix, bit for bit.
    rng = np.random.default_rng(89)
    delta = rng.uniform(-1.5, 1.5, (40, 3))
    delta[0] = (2e-5, 0.0, 0.0)  # w t below the csc^2 series threshold
    n = rng.integers(1, 2000, 40)
    t = rng.uniform(1e-2, 1.5, 40)
    batch = adaptive.iteration_covariance(delta, n, t).m
    assert batch.shape == (40, 3, 3)
    for i in range(40):
        assert np.array_equal(batch[i], adaptive.iteration_covariance(delta[i], int(n[i]), float(t[i])).m)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "delta,n,t,error",
    [
        ([[0.3, 0.1, 0.2], [0.0, 0.0, 0.0]], 5, 1.0, DegenerateInput),
        ([[0.3, 0.1, 0.2], [1.0, 0.0, 0.0]], 5, [1.0, math.pi], DivergentTime),
        ([[0.3, 0.1, 0.2], [math.nan, 0.0, 0.0]], 5, 1.0, DomainError),
        ([[0.3, 0.1, 0.2], [1.0, 0.0, 0.0]], [5, 0], 1.0, DomainError),
        ([[0.3, 0.1, 0.2], [1.0, 0.0, 0.0]], 5, [1.0, -1.0], DomainError),
        ([[0.3, 0.1, 0.2], [1e200, 0.0, 0.0]], 5, 1.0, DomainError),
        ([[0.3, 0.1, 0.2], [1e-200, 0.0, 0.0]], 5, 1e-200, DomainError),
    ],
)
def test_iteration_covariance_checks_every_entry(delta, n, t, error):
    # One bad entry rejects the stack, with no numpy warning on the way.
    with pytest.raises(error):
        adaptive.iteration_covariance(delta, n, t)


# ---------------------------------------------------------------------------
# expected_dE2_next and optimal_time


def test_expected_small_time_limit():
    T, t = 30.0, 1e-6
    value = adaptive.expected_dE2_next(T, t, 4.0)
    assert value * T * t / 3.0 == pytest.approx(1.0, abs=1e-6)


def test_expected_minimum_location():
    rng = np.random.default_rng(89)
    for _ in range(50):
        dE2 = rng.uniform(0.05, 20.0)
        t_star = 2.0 * adaptive.g0() / math.sqrt(dE2)
        grid = np.linspace(0.6 * t_star, 1.4 * t_star, 2001)
        values = [adaptive.expected_dE2_next(100.0, float(t), dE2) for t in grid]
        spacing = grid[1] - grid[0]
        assert abs(grid[int(np.argmin(values))] - t_star) <= spacing


def test_expected_at_optimum_equals_recursion():
    rng = np.random.default_rng(97)
    for _ in range(20):
        dE2 = rng.uniform(0.05, 20.0)
        n = int(rng.integers(1, 200))
        t = adaptive.optimal_time(dE2)
        value = adaptive.expected_dE2_next(n * t, t, dE2)
        assert value == pytest.approx(adaptive.recursion(dE2, n), rel=IDENTITY_RTOL)


def test_expected_validation():
    with pytest.raises(DomainError):
        adaptive.expected_dE2_next(0.5, 1.0, 4.0)  # T < t


def test_optimal_time_values():
    assert adaptive.optimal_time(4.0) == pytest.approx(adaptive.g0(), rel=1e-14)
    assert adaptive.optimal_time(4.0 * adaptive.g0() ** 2) == pytest.approx(1.0, rel=1e-14)


def test_optimal_time_scaling():
    x, c = 0.37, 5.0
    assert adaptive.optimal_time(c**2 * x) == pytest.approx(
        adaptive.optimal_time(x) / c, rel=1e-14
    )


def test_optimal_time_domain():
    with pytest.raises(DomainError):
        adaptive.optimal_time(0.0)


# ---------------------------------------------------------------------------
# recursion and schedule


def test_recursion_contracts_with_single_trial():
    factor = adaptive.recursion(1.0, 1)
    assert factor == pytest.approx(adaptive.gain(adaptive.g0()), rel=1e-14)
    assert factor < 1.0


def test_recursion_hundred_trials():
    assert adaptive.recursion(1.0, 100) == pytest.approx(6.872017903857487e-3, rel=1e-12)


def test_recursion_matches_schedule_power():
    v0, n, m = 2.5, 40, 5
    plan = adaptive.plan_schedule(v0, n, target_m=m)
    dE2 = 4.0 * v0  # seed convention
    for _ in range(m):
        dE2 = adaptive.recursion(dE2, n)
    assert plan.v_m == pytest.approx(dE2 / 4.0, rel=IDENTITY_RTOL)
    contraction = adaptive.gain(adaptive.g0()) / n
    assert plan.v_m == pytest.approx(v0 * contraction**m, rel=IDENTITY_RTOL)


def test_schedule_target_precision_iteration_count():
    plan = adaptive.plan_schedule(1.0, 100, target_v=1e-6)
    assert plan.m == 3
    assert plan.v_m <= 1e-6


def test_schedule_contraction_exact_per_step():
    plan = adaptive.plan_schedule(1.0, 100, target_m=6)
    contraction = adaptive.gain(plan.g0) / plan.n
    vs = [r.v_k for r in plan.records]
    for prev, cur in zip(vs, vs[1:]):
        assert cur / prev == pytest.approx(contraction, rel=1e-14)


def test_schedule_times_grow_geometrically():
    v0, n = 1.0, 100
    plan = adaptive.plan_schedule(v0, n, target_m=7)
    g = plan.g0
    ratio = math.sqrt(n / adaptive.gain(g))
    times = [r.t for r in plan.records]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    for k, t in enumerate(times, start=1):
        assert t == pytest.approx(
            g / math.sqrt(v0) * ratio ** (k - 1), rel=SCHEDULE_RTOL
        )


@pytest.mark.parametrize("m", range(1, 11))
def test_schedule_exact_time_relation(m):
    plan = adaptive.plan_schedule(0.7, 50, target_m=m)
    assert plan.exact_v == pytest.approx(plan.v_m, rel=SCHEDULE_RTOL)


@pytest.mark.parametrize("n,m", [(100, 3), (100, 4), (1000, 3), (5000, 6)])
def test_schedule_large_n_approximation(n, m):
    plan = adaptive.plan_schedule(1.0, n, target_m=m)
    assert math.sqrt(plan.n / adaptive.gain(plan.g0)) > 10.0
    assert plan.large_n_v == pytest.approx(plan.exact_v, rel=0.01)


def test_schedule_ratio_converges_to_asymptote():
    plan = adaptive.plan_schedule(1.0, 1000, target_m=6)
    factor = 4.0 * plan.g0**2 * adaptive.gain(plan.g0) / 3.0
    assert plan.asymptotic_ratio == pytest.approx(factor, rel=1e-14)
    assert plan.ratio == pytest.approx(factor, rel=0.01)
    assert plan.ratio == pytest.approx(1.5462304877456077, rel=1e-10)


def test_schedule_baseline_uses_same_time_budget():
    plan = adaptive.plan_schedule(1.0, 200, target_m=5)
    sum_t_sq = sum(r.t**2 for r in plan.records)
    assert plan.v_oc == pytest.approx(3.0 / (4 * plan.n * sum_t_sq), rel=1e-12)
    assert plan.ratio == pytest.approx(plan.v_m / plan.v_oc, rel=1e-12)
    assert plan.t_tot == pytest.approx(sum(r.t for r in plan.records), rel=1e-12)
    assert plan.t_tot_sequential == pytest.approx(
        plan.n * plan.t_tot, rel=1e-12
    )


def test_schedule_validation():
    with pytest.raises(NoContraction):
        adaptive.plan_schedule(1.0, 0, target_m=2)
    with pytest.raises(DomainError):
        adaptive.plan_schedule(1.0, 10)
    with pytest.raises(DomainError):
        adaptive.plan_schedule(1.0, 10, target_v=1e-3, target_m=2)
    with pytest.raises(DomainError):
        adaptive.plan_schedule(1.0, 10, target_v=2.0)
    with pytest.raises(DomainError):
        adaptive.plan_schedule(-1.0, 10, target_m=2)


# ---------------------------------------------------------------------------
# optimal-control baseline


def test_baseline_unit_values():
    cov, v_oc = adaptive.optimal_control_baseline(1, 1.0)
    assert v_oc == pytest.approx(0.75, rel=1e-14)
    assert_allclose(cov.m, np.eye(3) / 4.0, rtol=1e-14)


def test_baseline_is_zero_residual_limit():
    rng = np.random.default_rng(103)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    n, t = 20, 1.7
    cov, _ = adaptive.optimal_control_baseline(n, t)
    limit = adaptive.iteration_covariance(1e-7 * direction, n, t)
    assert np.abs(limit.m - cov.m).max() < 1e-4 * np.abs(cov.m).max()


def test_baseline_heisenberg_scaling():
    _, v1 = adaptive.optimal_control_baseline(10, 1.0)
    _, v2 = adaptive.optimal_control_baseline(10, 10.0)
    assert v2 == pytest.approx(v1 / 100.0, rel=1e-14)


# ---------------------------------------------------------------------------
# original-parameter bounds


def test_bounds_headline_factor():
    b = adaptive.alpha_variance_bounds(np.eye(3), 1.0, 1.0)
    g = adaptive.g0()
    expected = 4.0 * g**2 / math.sin(g) ** 2 - 1.0
    assert b.headline_factor == pytest.approx(expected, rel=1e-14)
    assert b.headline_factor == pytest.approx(6.27, abs=0.01)


def test_bounds_identity_jacobian_monte_carlo():
    from hamest.util import sample_stream

    g = adaptive.g0()
    n = 1000
    rng = sample_stream(314, 0)
    for _ in range(100):
        jac = rng.normal(size=(3, 3))
        while abs(np.linalg.det(jac)) <= 0.1:
            jac = rng.normal(size=(3, 3))
        omega = 10.0 ** rng.uniform(-2.0, 1.0)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        t = g / omega
        c_beta = adaptive.iteration_covariance(omega * direction, n, t).m
        _, v_oc = adaptive.optimal_control_baseline(n, t)
        bounds = adaptive.alpha_variance_bounds(jac, float(np.trace(c_beta)), v_oc)
        k = np.linalg.inv(jac)
        c_alpha = np.diag(k @ c_beta @ k.T)
        assert np.all(c_alpha <= bounds.upper * (1 + 1e-12))
        c_oc = np.diag(k @ (np.eye(3) / (4 * n * t * t)) @ k.T)
        assert np.all(c_oc >= bounds.lower_oc * (1 - 1e-12))


def test_bounds_jacobian_scaling():
    ref = adaptive.alpha_variance_bounds(np.eye(3), 0.2, 0.1)
    scaled = adaptive.alpha_variance_bounds(3.0 * np.eye(3), 0.2, 0.1)
    assert_allclose(scaled.upper, ref.upper / 9.0, rtol=1e-12)
    assert_allclose(scaled.lower_oc, ref.lower_oc / 9.0, rtol=1e-12)
    assert scaled.combined_factor == pytest.approx(ref.combined_factor, rel=1e-14)
    assert scaled.headline_factor == ref.headline_factor


def test_bounds_mu_max_matches_pair_loop():
    # mu_max_i = max over r != s of |K_ir K_is| and nu_max_i = max_r K_ir^2, K = J^{-1}, bit for bit.
    rng = np.random.default_rng(17)
    for _ in range(200):
        jac = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3.0, 3.0)
        if abs(np.linalg.det(jac)) < 1e-9:
            continue
        k = np.linalg.inv(jac)
        ref = [max(abs(k[i, r] * k[i, s]) for r in range(3) for s in range(3) if r != s) for i in range(3)]
        bounds = adaptive.alpha_variance_bounds(jac, 1.0, 1.0)
        assert bounds.mu_max.tolist() == ref
        assert bounds.nu_max.tolist() == [max(k[i, r] * k[i, r] for r in range(3)) for i in range(3)]


def test_bounds_kappa_and_singular():
    b = adaptive.alpha_variance_bounds(np.eye(3), 0.4, 0.2)
    assert b.kappa == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(SingularJacobian):
        adaptive.alpha_variance_bounds(np.diag([1.0, 1.0, 0.0]), 1.0, 1.0)


def test_bounds_at_a_weak_btp_field():
    # det J = B^2 cos(theta) = 9.2e-13, and J is well conditioned: the bounds exist.
    jac = core.model_evaluate(core.get_model("btp"), (1e-6, 0.4, 0.3)).jac
    b = adaptive.alpha_variance_bounds(jac, 1.0, 1.0)
    for v in (b.mu_max, b.nu_max, b.upper, b.lower_oc):
        assert np.all(np.isfinite(v)) and np.all(v > 0.0)


def test_deviation_weight_value():
    g = adaptive.g0()
    assert adaptive.deviation_weight() == pytest.approx(
        g**2 / math.sin(g) ** 2, rel=1e-14
    )
    assert adaptive.deviation_weight() == pytest.approx(1.8177518730791193, rel=1e-12)
