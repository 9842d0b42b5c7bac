"""Bell-basis sampling, per-step estimators, and the adaptive experiment loop."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from hamest import adaptive, robustness, simulator
from hamest.errors import DomainError, MleNonconvergence
from hamest.util import sample_stream

BETA_REFERENCE = (0.8, -0.4, 0.3)


def ref_config(**overrides):
    base = dict(beta_true=BETA_REFERENCE, m=2, n=1000, seed=13)
    base.update(overrides)
    return simulator.ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Bell probabilities and counts


def test_probabilities_identity_at_zero_residual():
    assert_allclose(simulator.bell_probabilities((0.0, 0.0, 0.0), 1.3), [1, 0, 0, 0], atol=0)
    assert_allclose(simulator.bell_probabilities((0.4, -0.2, 0.1), 0.0), [1, 0, 0, 0], atol=0)


@pytest.mark.parametrize(
    "axis,hot",
    [((1.0, 0.0, 0.0), 1), ((0.0, 1.0, 0.0), 2), ((0.0, 0.0, 1.0), 3)],
)
def test_probabilities_quarter_period_pulses(axis, hot):
    # a pi/2 rotation about one axis maps Phi+ onto a single other Bell state
    p = simulator.bell_probabilities(axis, math.pi / 2.0)
    expected = np.zeros(4)
    expected[hot] = 1.0
    assert_allclose(p, expected, atol=1e-12)


def test_probabilities_closed_form():
    # (cos^2 theta, sin^2 theta nhat_i^2) with theta = |delta_beta| t
    rng = np.random.default_rng(101)
    for _ in range(50):
        db = rng.uniform(-2.0, 2.0, size=3)
        t = rng.uniform(0.05, 4.0)
        theta = np.linalg.norm(db) * t
        nhat = db / np.linalg.norm(db)
        expected = np.concatenate([[math.cos(theta) ** 2], math.sin(theta) ** 2 * nhat**2])
        assert_allclose(simulator.bell_probabilities(db, t), expected, atol=1e-12)


def test_probabilities_even_in_each_component():
    db = np.array([0.7, -0.3, 0.5])
    base = simulator.bell_probabilities(db, 1.1)
    for i in range(3):
        flipped = db.copy()
        flipped[i] = -flipped[i]
        assert_allclose(simulator.bell_probabilities(flipped, 1.1), base, atol=1e-15)


def test_probabilities_normalized():
    p = simulator.bell_probabilities((1.2, 0.4, -0.9), 2.7)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(p >= 0.0)


def test_counts_validation():
    bc = simulator.BellOutcomeCounts(counts=(3, 1, 0, 6), n=10)
    assert bc.counts == (3, 1, 0, 6)
    with pytest.raises(DomainError):
        simulator.BellOutcomeCounts(counts=(3, 1, 6), n=10)
    with pytest.raises(DomainError):
        simulator.BellOutcomeCounts(counts=(3, -1, 2, 6), n=10)
    with pytest.raises(DomainError):
        simulator.BellOutcomeCounts(counts=(3, 1, 0, 6), n=11)


def test_sample_counts_stream_determinism():
    p = simulator.bell_probabilities((0.5, 0.2, -0.1), 1.4)
    a = simulator.sample_counts(p, 600, sample_stream(3, 0))
    b = simulator.sample_counts(p, 600, sample_stream(3, 0))
    assert a == b
    assert sum(a.counts) == 600


def test_sample_counts_degenerate_distribution():
    bc = simulator.sample_counts((1.0, 0.0, 0.0, 0.0), 50, sample_stream(0, 0))
    assert bc.counts == (50, 0, 0, 0)


@pytest.mark.parametrize(
    "p,n",
    [
        ((0.5, 0.5, 0.1, -0.1), 10),
        ((0.4, 0.4, 0.4, 0.4), 10),
        ((0.5, 0.5), 10),
        ((0.25, 0.25, 0.25, 0.25), 0),
    ],
)
def test_sample_counts_validation(p, n):
    with pytest.raises(DomainError):
        simulator.sample_counts(p, n, sample_stream(0, 0))


# ---------------------------------------------------------------------------
# per-step estimators


def test_gaussian_step_reconstruction():
    # same stream, manual C^{1/2} z with the covariance at the operating point
    res = np.array([0.3, -0.2, 0.4])
    err = simulator.estimate_step_gaussian(res, 200, 1.7, sample_stream(3, 1), model_magnitude=0.9)
    operating = res * (0.9 / np.linalg.norm(res))
    w, v = np.linalg.eigh(adaptive.iteration_covariance(operating, 200, 1.7).m)
    root = v @ np.diag(np.sqrt(w)) @ v.T
    expected = root @ sample_stream(3, 1).standard_normal(3)
    assert_allclose(err, expected, rtol=0.0, atol=0.0)


def test_gaussian_step_sample_covariance():
    res = np.array([0.3, -0.2, 0.4])
    t = adaptive.g0() / np.linalg.norm(res)
    cov = adaptive.iteration_covariance(res, 500, t).m
    rng = sample_stream(17, 0)
    errs = np.array([simulator.estimate_step_gaussian(res, 500, t, rng) for _ in range(4000)])
    sample = errs.T @ errs / len(errs)
    assert np.linalg.norm(sample - cov) < 0.15 * np.linalg.norm(cov)
    assert np.abs(errs.mean(axis=0)).max() < 4.0 * math.sqrt(np.trace(cov) / len(errs))


def test_gaussian_step_deviation_law():
    # |error|^2 / tr(C) at the optimal time follows the control-error law
    res = np.array([0.3, -0.2, 0.4])
    t = adaptive.g0() / np.linalg.norm(res)
    trace = np.trace(adaptive.iteration_covariance(res, 500, t).m)
    rng = sample_stream(23, 0)
    factors = np.array(
        [simulator.estimate_step_gaussian(res, 500, t, rng) for _ in range(4000)]
    )
    factors = np.einsum("ij,ij->i", factors, factors) / trace
    law_rng = sample_stream(24, 0)
    law = np.array([robustness.sample_deviation(law_rng) for _ in range(4000)])
    assert stats.ks_2samp(factors, law).pvalue > 0.01


def test_gaussian_step_domain():
    with pytest.raises(DomainError):
        simulator.estimate_step_gaussian((0.1, 0.0, 0.0), 100, 1.0, sample_stream(0, 0), -1.0)
    with pytest.raises(DomainError):
        simulator.estimate_step_gaussian((0.0, 0.0, 0.0), 100, 1.0, sample_stream(0, 0), 0.5)


def test_bell_step_consistency():
    db = np.array([0.05, -0.03, 0.04])
    t = adaptive.g0() / np.linalg.norm(db)
    sigma = math.sqrt(np.trace(adaptive.iteration_covariance(db, 100_000, t).m))
    est = simulator.estimate_step_bell(db, 100_000, t, db, sample_stream(31, 0))
    assert np.linalg.norm(est - db) < 5.0 * sigma


def test_bell_step_prior_resolves_signs():
    # the likelihood is even in every component; the prior picks the branch
    db = np.array([0.05, -0.03, 0.04])
    t = adaptive.g0() / np.linalg.norm(db)
    plus = simulator.estimate_step_bell(db, 100_000, t, db, sample_stream(31, 0))
    minus = simulator.estimate_step_bell(db, 100_000, t, -db, sample_stream(31, 0))
    assert_allclose(minus, -plus, atol=1e-8)


def test_bell_step_domain():
    with pytest.raises(DomainError):
        simulator.estimate_step_bell((0.1, 0.0, 0.0), 50, 1.0, (0.1, 0.0, 0.0), sample_stream(0, 0))
    with pytest.raises(DomainError):
        simulator.estimate_step_bell((0.1, 0.0, 0.0), 200, 0.0, (0.1, 0.0, 0.0), sample_stream(0, 0))


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_resolve_to_prior():
    cfg = ref_config()
    assert_allclose(cfg.resolved_guess(), BETA_REFERENCE)
    assert cfg.resolved_bound() == pytest.approx(np.linalg.norm(BETA_REFERENCE), rel=1e-15)
    assert cfg.resolved_pi0() == adaptive.g0()
    assert cfg.resolved_extra() == cfg.n


def test_config_zero_prior_needs_explicit_bound():
    cfg = simulator.ExperimentConfig(beta_true=(0.0, 0.0, 0.0), m=1, n=100)
    with pytest.raises(DomainError):
        cfg.resolved_bound()
    assert simulator.ExperimentConfig(
        beta_true=(0.0, 0.0, 0.0), m=1, n=100, beta0_bound=0.5
    ).resolved_bound() == 0.5


@pytest.mark.parametrize(
    "overrides",
    [
        {"beta_true": (1.0, 2.0)},
        {"beta_true": (math.nan, 0.0, 0.0)},
        {"backend": "projective"},
        {"m": 0},
        {"n": 0},
        {"backend": "bell", "n": 50},
        {"seed": -1},
        {"extra_trials": 0},
        {"beta0_guess": (1.0,)},
        {"beta0_bound": 0.0},
        {"pi0": 0.0},
        {"pi0": math.pi},
        {"seed": 2**64},
    ],
)
def test_config_validation(overrides):
    with pytest.raises(DomainError):
        ref_config(**overrides)


# ---------------------------------------------------------------------------
# adaptive experiment, gaussian backend


def test_single_iteration_trace():
    cfg = ref_config(m=1, seed=9)
    trace = simulator.run_adaptive_experiment(cfg)
    assert len(trace.iterations) == 1
    it = trace.iterations[0]
    v0 = float(np.dot(BETA_REFERENCE, BETA_REFERENCE))
    assert it.control == (0.0, 0.0, 0.0)
    assert it.t == adaptive.optimal_time(4.0 * v0)
    assert it.d_factor == 1.0  # default bound equals the true magnitude
    assert it.trace_cov == pytest.approx(trace.planned_v_m, rel=1e-12)
    assert trace.planned_v_m == pytest.approx(v0 * adaptive.gain(adaptive.g0()) / cfg.n, rel=1e-12)
    assert it.error_norm == pytest.approx(
        math.dist(trace.beta_hat, cfg.beta_true), rel=1e-15
    )
    assert not trace.aborted


def test_trace_bookkeeping():
    cfg = ref_config(m=3, seed=2)
    trace = simulator.run_adaptive_experiment(cfg)
    contraction = adaptive.gain(adaptive.g0()) / cfg.n
    v0 = float(np.dot(BETA_REFERENCE, BETA_REFERENCE))
    for idx, it in enumerate(trace.iterations, start=1):
        assert it.k == idx
        assert it.n_used == cfg.n
        assert it.dE2_planned == pytest.approx(4.0 * v0 * contraction ** (idx - 1), rel=1e-12)
    assert trace.iterations[-1].beta_hat == trace.beta_hat
    err = np.asarray(trace.beta_hat) - np.asarray(cfg.beta_true)
    assert trace.realized_sq_error == pytest.approx(float(err @ err), rel=1e-12)
    # each control cancels the previous estimate
    assert_allclose(trace.iterations[1].control, np.negative(trace.iterations[0].beta_hat))


def test_mean_ratio_tracks_plan():
    traces = simulator.run_repetitions(ref_config(), 300)
    ratio = np.mean([t.realized_sq_error for t in traces]) / traces[0].planned_v_m
    assert 0.7 < ratio < 1.4


def test_repetition_worker_independence():
    traces = simulator.run_repetitions(ref_config(), 8)
    assert [t.rep for t in traces] == list(range(8))


def test_repetition_validation():
    with pytest.raises(DomainError):
        simulator.run_repetitions(ref_config(), 0)


def test_refinement_keeps_time_budget():
    cfg = ref_config(m=3, seed=5, time_refinement=True)
    trace = simulator.run_adaptive_experiment(cfg)
    for it in trace.iterations[1:]:
        t_plan = adaptive.optimal_time(it.dE2_planned)
        assert it.t != t_plan
        assert it.n_used == max(1, round(cfg.n * t_plan / it.t))


def test_iteration_deviation_factors_follow_law():
    # d_factor of iterations 2..m against the control-error law, two-sample KS
    cfg = simulator.ExperimentConfig(beta_true=BETA_REFERENCE, m=3, n=1000, seed=42)
    traces = simulator.run_repetitions(cfg, 10_000)
    ref_rng = sample_stream(999, 0)
    reference = np.array([robustness.sample_deviation(ref_rng) for _ in range(200_000)])
    for k in (1, 2):
        factors = np.array([t.iterations[k].d_factor for t in traces])
        assert stats.ks_2samp(factors, reference).statistic < 0.012


def test_refined_process_follows_total_penalty_law():
    # With a near-exact refinement measurement the realized final variance
    # over the planned one follows the whole-process penalty distribution.
    cfg = simulator.ExperimentConfig(
        beta_true=BETA_REFERENCE,
        m=3,
        n=10_000,
        seed=21,
        time_refinement=True,
        extra_trials=500_000,
    )
    traces = simulator.run_repetitions(cfg, 10_000)
    realized = np.array([t.iterations[-1].trace_cov / t.planned_v_m for t in traces])
    reference = np.empty(100_000)
    for j in range(reference.size):
        rng = sample_stream(77, j)
        devs = [1.0, robustness.sample_deviation(rng), robustness.sample_deviation(rng)]
        reference[j] = robustness.ratio_total(devs)
    assert stats.ks_2samp(realized, reference).statistic < 0.05


def test_nonconvergent_fit_aborts(monkeypatch):
    def explode(counts, t, prior):
        raise MleNonconvergence("forced")

    monkeypatch.setattr(simulator, "_fit_bell_counts", explode)
    cfg = ref_config(backend="bell", n=200, seed=1)
    trace = simulator.run_adaptive_experiment(cfg)
    assert trace.aborted
    assert trace.iterations == ()
    assert trace.beta_hat == (0.0, 0.0, 0.0)
    assert trace.realized_sq_error == pytest.approx(
        float(np.dot(BETA_REFERENCE, BETA_REFERENCE)), rel=1e-15
    )


# ---------------------------------------------------------------------------
# adaptive experiment, bell backend


def test_bell_trace_carries_counts():
    cfg = ref_config(m=1, n=2000, backend="bell", seed=6)
    trace = simulator.run_adaptive_experiment(cfg)
    it = trace.iterations[0]
    assert it.trace_cov is None
    assert len(it.counts) == 4
    assert sum(it.counts) == cfg.n


def test_bell_mean_ratio_tracks_plan():
    cfg = ref_config(m=1, n=2000, backend="bell", seed=6)
    traces = simulator.run_repetitions(cfg, 200)
    assert not any(t.aborted for t in traces)
    ratio = np.mean([t.realized_sq_error for t in traces]) / traces[0].planned_v_m
    assert 0.8 < ratio < 1.25
