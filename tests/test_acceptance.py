"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass;
without -s pytest shows them only for failing criteria. Every criterion
carries a runtime budget checked on top of its tolerance.
"""

import math
import time

import numpy as np
from scipy import integrate

from hamest import adaptive, robustness, simulator, variance
from hamest.core import btp_model, pauli_model
from hamest.qfim import qfim_entangled, qfim_weighted_initial, weak_commutativity_residual
from hamest.util import csc_squared, sample_stream

from reference_routes import deviation_factors, generator_oracle

PAULI = pauli_model()
BTP = btp_model()


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {detail}  ({elapsed:.4f} s, budget {budget} s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: runtime {elapsed:.4f} s over budget {budget} s"


def random_case(rng, t_low, t_high):
    """One random (model, alpha, t) working point, half pauli, half btp."""
    if rng.uniform() < 0.5:
        model = PAULI
        alpha = rng.uniform(-2.0, 2.0, size=3)
    else:
        model = BTP
        alpha = np.array(
            [rng.uniform(0.3, 2.5), rng.uniform(-1.2, 1.2), rng.uniform(-math.pi, math.pi)]
        )
    return model, alpha, rng.uniform(t_low, t_high)


def oracle_steps(model, alpha, t):
    gap = 2.0 * np.linalg.norm(model.pauli_map(alpha))
    return max(300, int(math.ceil(60.0 * (1.0 + gap) * t)))


def test_criterion_01_g0_value():
    adaptive.solve_g0(1e-6)  # warm the code path before timing
    t0 = time.perf_counter()
    g = adaptive.solve_g0(1e-6)
    elapsed = time.perf_counter() - t0
    report(1, abs(g - 1.2986) <= 1e-3, f"solve_g0(1e-6) = {g:.7f} within 1e-3 of 1.2986", elapsed, 0.001)


def test_criterion_02_adaptive_vs_optimal_factor():
    adaptive.solve_g0(1e-6)
    t0 = time.perf_counter()
    g = adaptive.solve_g0(1e-6)
    factor = 4.0 * g * g * adaptive.gain(g) / 3.0
    sched = adaptive.plan_schedule(1.0, 1000, target_m=6)
    elapsed = time.perf_counter() - t0
    ok = abs(factor - 1.55) <= 0.01 and abs(sched.ratio / factor - 1.0) <= 0.01
    report(
        2,
        ok,
        f"4 g0^2 G/3 = {factor:.6f} (vs 1.55) and schedule ratio {sched.ratio:.6f} within 1%",
        elapsed,
        0.010,
    )


def test_criterion_03_original_parameter_factor():
    t0 = time.perf_counter()
    g = adaptive.solve_g0(1e-6)
    headline = 4.0 * g * g * csc_squared(g) - 1.0
    n = 1000
    rng = sample_stream(314, 0)
    violations = 0
    worst = 0.0
    for _ in range(500):
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
        c_oc = np.diag(k @ (np.eye(3) / (4.0 * n * t * t)) @ k.T)
        if np.any(c_alpha > bounds.upper * (1.0 + 1e-12)):
            violations += 1
        if np.any(c_oc < bounds.lower_oc * (1.0 - 1e-12)):
            violations += 1
        worst = max(worst, float(np.max(c_alpha / bounds.upper)))
    elapsed = time.perf_counter() - t0
    ok = abs(headline - 6.27) <= 0.01 and violations == 0
    report(
        3,
        ok,
        f"4 g0^2 csc^2 g0 - 1 = {headline:.4f} (vs 6.27), {violations} bound violations in 500 "
        f"(tightest upper-bound ratio {worst:.3f})",
        elapsed,
        5.0,
    )


def test_criterion_04_qfim_matches_quadrature_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(500):
        model, alpha, t = random_case(rng, 1e-3, 20.0)
        steps = oracle_steps(model, alpha, t)
        h = [generator_oracle(model, alpha, i, t, steps) for i in (1, 2, 3)]
        f_oracle = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                f_oracle[i, j] = (
                    2.0 * np.trace(h[i] @ h[j]).real
                    - np.trace(h[i]).real * np.trace(h[j]).real
                )
        diff = np.max(np.abs(f_oracle - qfim_entangled(model, alpha, t).m))
        worst = max(worst, float(diff))
    elapsed = time.perf_counter() - t0
    report(4, worst <= 1e-8, f"closed-form vs Simpson-oracle QFIM, worst max-abs {worst:.2e} <= 1e-8", elapsed, 30.0)


def test_criterion_05_variance_forms_match_inverse_qfim():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    n = 5
    worst = 0.0
    cases = 0
    while cases < 500:
        model, alpha, t = random_case(rng, 0.1, 3.0)
        gap = 2.0 * np.linalg.norm(model.pauli_map(alpha))
        if abs(math.sin(gap * t / 2.0)) < 1e-3:
            continue
        cases += 1
        v = variance.estimator_variances(model, alpha, t, n)
        f = qfim_entangled(model, alpha, t)
        brute = np.diag(np.linalg.inv(n * f.m))
        worst = max(worst, float(np.max(np.abs(v / brute - 1.0))))
    elapsed = time.perf_counter() - t0
    report(5, worst <= 1e-8, f"closed-form variances vs diag (nF)^-1, worst rel {worst:.2e} <= 1e-8", elapsed, 10.0)


def test_criterion_06_heisenberg_branch():
    t0 = time.perf_counter()
    n = 7
    alpha = np.array([2.0, math.pi / 4.0, 0.3])
    worst = 0.0
    for t in np.geomspace(0.1, 100.0, 50):
        v = variance.estimator_variances(BTP, alpha, float(t), n)
        worst = max(worst, abs(v[0] * (4.0 * n * t * t) - 1.0))
    elapsed = time.perf_counter() - t0
    report(6, worst <= 1e-10, f"btp B-variance vs 1/(4 n t^2), worst rel {worst:.2e} <= 1e-10", elapsed, 1.0)


def test_criterion_07_balanced_initial_state_dominates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        model, alpha, t = random_case(rng, 0.05, 5.0)
        x = rng.uniform(0.0, 1.0)
        delta = qfim_weighted_initial(model, alpha, t, 0.5).m - qfim_weighted_initial(model, alpha, t, x).m
        worst = min(worst, float(np.linalg.eigvalsh(delta)[0]))
    elapsed = time.perf_counter() - t0
    report(7, worst >= -1e-10, f"F(1/2) - F(x) PSD, most negative eigenvalue {worst:.2e} >= -1e-10", elapsed, 10.0)


def test_criterion_08_weak_commutativity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(500):
        model, alpha, t = random_case(rng, 0.05, 5.0)
        worst = max(worst, weak_commutativity_residual(model, alpha, t))
    elapsed = time.perf_counter() - t0
    report(8, worst < 1e-10, f"weak-commutativity residual, worst {worst:.2e} < 1e-10", elapsed, 10.0)


def test_criterion_09_deviation_distribution():
    t0 = time.perf_counter()
    params = robustness.deviation_params()
    variance_d = (2.0 + 4.0 * params.a**2) / params.s**2
    rng = np.random.default_rng(9)
    n = 1_000_000
    # One batched draw, bit-identical to n sequential reference_routes.sample_deviation(rng) calls.
    draws = deviation_factors(rng.standard_normal((n, 3)))
    mean_err = abs(draws.mean() - 1.0)
    mean_tol = 3.0 * math.sqrt(variance_d / n)
    norm, _ = integrate.quad(robustness.deviation_pdf, 0.0, 60.0, limit=200)
    xs = np.linspace(0.0, 60.0, 240_001)
    pdf = robustness.deviation_pdf(xs)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(xs))])
    cdf /= cdf[-1]
    edges = np.linspace(0.0, 8.0, 201)
    counts, _ = np.histogram(draws, bins=edges)
    l1 = float(np.abs(counts / n - np.diff(np.interp(edges, xs, cdf))).sum())
    elapsed = time.perf_counter() - t0
    ok = mean_err < mean_tol and abs(norm - 1.0) < 1e-6 and l1 < 0.02
    report(
        9,
        ok,
        f"E[D] err {mean_err:.2e} < {mean_tol:.2e}, pdf norm err {abs(norm - 1.0):.2e} < 1e-6, "
        f"histogram L1 {l1:.4f} < 0.02",
        elapsed,
        30.0,
    )


def test_criterion_10_penalty_beats_even_odds():
    t0 = time.perf_counter()
    p = [robustness.robustness_mc(m, 1_000_000, 20260816).p_below_one for m in (2, 3, 4)]
    elapsed = time.perf_counter() - t0
    ok = all(q > 0.5 for q in p) and p[0] < p[1] < p[2]
    report(
        10,
        ok,
        f"p_below_one(m=2,3,4) = {p[0]:.4f}, {p[1]:.4f}, {p[2]:.4f}, all > 0.5 and increasing",
        elapsed,
        60.0,
    )


def test_criterion_11_gaussian_end_to_end_bias():
    t0 = time.perf_counter()
    config = simulator.ExperimentConfig(beta_true=(0.8, -0.4, 0.3), m=4, n=1000, seed=11)
    trace = simulator.run_repetitions(config, 500)
    ratio = float(np.mean(trace.realized_sq_error) / trace.planned_v_m)
    elapsed = time.perf_counter() - t0
    report(
        11,
        1.0 / 1.3 <= ratio <= 1.3,
        f"mean realized error / planned V_m = {ratio:.4f} within factor 1.3",
        elapsed,
        120.0,
    )


def test_criterion_12_bell_backend_saturates_crb():
    t0 = time.perf_counter()
    delta_beta = np.array([0.012, -0.007, 0.009])
    t = 5.0
    n = 100_000
    estimates = np.array(
        [
            simulator.estimate_step_bell(delta_beta, n, t, delta_beta, sample_stream(2024, r))
            for r in range(2000)
        ]
    )
    empirical = float(np.trace(np.cov(estimates.T)))
    target = float(np.trace(np.linalg.inv(n * qfim_entangled(PAULI, delta_beta, t).m)))
    ratio = empirical / target
    elapsed = time.perf_counter() - t0
    report(
        12,
        abs(ratio - 1.0) <= 0.15,
        f"bell estimator covariance trace / Tr (nF)^-1 = {ratio:.4f} within 15%",
        elapsed,
        300.0,
    )
