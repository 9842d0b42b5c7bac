"""Bell-basis sampling, per-step estimators, and the adaptive experiment loop."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from hamest import adaptive, cli, core, simulator
from hamest.errors import DomainError, MleNonconvergence
from hamest.util import sample_stream
from reference_routes import deviation_factors, gaussian_step_eigh, phase_candidates_full, ratio_total, sample_deviation

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


def test_sample_counts_stream_determinism():
    p = simulator.bell_probabilities((0.5, 0.2, -0.1), 1.4)
    a = simulator.sample_counts(p, 600, sample_stream(3, 0))
    b = simulator.sample_counts(p, 600, sample_stream(3, 0))
    assert np.array_equal(a, b)
    assert a.sum() == 600


def test_sample_counts_degenerate_distribution():
    counts = simulator.sample_counts((1.0, 0.0, 0.0, 0.0), 50, sample_stream(0, 0))
    assert counts.tolist() == [50, 0, 0, 0]


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
    # The closed-form root against the eigendecomposition oracle at phase g0 on random residuals
    rng = np.random.default_rng(3)
    res = rng.normal(size=(20_000, 3)) * 10.0 ** rng.uniform(-3.0, 1.0, (20_000, 1))
    n = rng.integers(1, 10**4, 20_000)
    cov = adaptive.iteration_covariance(res, n, adaptive.g0() / np.linalg.norm(res, axis=1))
    z = rng.standard_normal((20_000, 3))
    gap = np.linalg.norm(simulator.estimate_step_gaussian(cov, z) - gaussian_step_eigh(cov.m, z), axis=1)
    scale = np.sqrt(np.maximum(cov.a, cov.b)) * np.linalg.norm(z, axis=1)
    assert np.all(gap <= 16.0 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("delta", [1e-6, 1e-8, 2e-9])
def test_gaussian_step_axial_root_near_pole(delta):
    # At w t = pi - delta the transverse variance is csc^2 larger; the root along u stays sqrt(a)
    w, n = 0.9, 200
    t = (math.pi - delta) / w
    cov = adaptive.iteration_covariance(w * np.array([0.3, -0.2, 0.4]) / math.sqrt(0.29), n, t)
    along = simulator.estimate_step_gaussian(cov, cov.u) @ cov.u
    assert along == pytest.approx(1.0 / (2.0 * t * math.sqrt(n)), rel=1e-5)


def test_gaussian_step_batch_matches_single_steps():
    # One batched root per measurement gives each rep's single-call draw, bit for bit.
    rng = np.random.default_rng(7)
    res = rng.uniform(-1.0, 1.0, (25, 3))
    t = rng.uniform(0.2, 1.5, 25)
    cov = adaptive.iteration_covariance(res, 300, t)
    z = rng.standard_normal((25, 3))
    batch = simulator.estimate_step_gaussian(cov, z)
    for i in range(25):
        single = simulator.estimate_step_gaussian(adaptive.iteration_covariance(res[i], 300, t[i]), z[i])
        assert np.array_equal(batch[i], single)


def test_gaussian_step_sample_covariance():
    res = np.array([0.3, -0.2, 0.4])
    t = adaptive.g0() / np.linalg.norm(res)
    cov = adaptive.iteration_covariance(res, 500, t)
    rng = sample_stream(17, 0)
    errs = np.array([simulator.estimate_step_gaussian(cov, rng.standard_normal(3)) for _ in range(4000)])
    sample = errs.T @ errs / len(errs)
    assert np.linalg.norm(sample - cov.m) < 0.15 * np.linalg.norm(cov.m)
    assert np.abs(errs.mean(axis=0)).max() < 4.0 * math.sqrt(np.trace(cov.m) / len(errs))


def test_gaussian_step_deviation_law():
    # |error|^2 / tr(C) at the optimal time follows the control-error law
    res = np.array([0.3, -0.2, 0.4])
    t = adaptive.g0() / np.linalg.norm(res)
    cov = adaptive.iteration_covariance(res, 500, t)
    trace = np.trace(cov.m)
    rng = sample_stream(23, 0)
    factors = np.array([simulator.estimate_step_gaussian(cov, rng.standard_normal(3)) for _ in range(4000)])
    factors = np.einsum("ij,ij->i", factors, factors) / trace
    law_rng = sample_stream(24, 0)
    law = np.array([sample_deviation(law_rng) for _ in range(4000)])
    assert stats.ks_2samp(factors, law).pvalue > 0.01


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


def _nearest(cands, target):
    return min(cands, key=lambda c: abs(c - target))


def test_nearest_phase_is_the_full_list_nearest():
    # The closed form pi j + sign(target - pi j) theta0 picks, bit for bit,
    # the nearest of every Bell-fit phase candidate.
    half_pi = math.pi / 2.0
    rng = np.random.default_rng(41)
    for _ in range(2000):
        theta0, target = rng.uniform(0.0, half_pi), math.exp(rng.uniform(math.log(1e-3), math.log(3e3)))
        nearest = _nearest(phase_candidates_full(theta0, target), target)
        assert simulator._nearest_phase(theta0, target) == nearest
    # Targets on block edges, quarter points and exact midpoints between
    # candidates: ties in real arithmetic, which rounding may break either way.
    cases = [
        (theta0, 2.0 * math.pi * (j + frac))
        for theta0 in (0.0, half_pi / 2.0, half_pi, 0.3)
        for j in range(6)
        for frac in (0.0, 0.125, 0.25, 0.5, 0.75, 1.0)
    ]
    for theta0, target in cases + [(0.3, 0.0), (0.0, 0.0), (half_pi, 1e-300)]:
        full = phase_candidates_full(theta0, target)
        phase = simulator._nearest_phase(theta0, target)
        assert phase in full
        assert abs(phase - target) <= abs(_nearest(full, target) - target) + 8.0 * math.ulp(target + math.pi)
    # The tie rule: target / pi = j + 1/2 rounds j half to even, and a target
    # at pi j takes + theta0.
    assert simulator._nearest_phase(0.3, 2.5 * math.pi) == 2.0 * math.pi + 0.3
    assert simulator._nearest_phase(0.3, 3.5 * math.pi) == 4.0 * math.pi - 0.3
    assert simulator._nearest_phase(0.3, 2.0 * math.pi) == 2.0 * math.pi + 0.3
    assert simulator._nearest_phase(0.3, 0.0) == 0.3
    assert simulator._nearest_phase(0.0, 0.0) == 0.0


@settings(deadline=None, max_examples=200, database=None)
@given(
    theta0=st.floats(min_value=0.0, max_value=math.pi / 2.0),
    target=st.floats(min_value=0.0, max_value=3e3),
)
def test_nearest_phase_is_a_nearest_candidate(theta0, target):
    # Off exact ties the pick is the full list's nearest; near one, rounding
    # may pick the other candidate, at the same distance to a few ulps (at
    # most 3 ulps of target + pi over 10^5 targets within 4 ulps of a tie).
    full = phase_candidates_full(theta0, target)
    phase = simulator._nearest_phase(theta0, target)
    assert phase in full
    assert abs(phase - target) <= abs(_nearest(full, target) - target) + 8.0 * math.ulp(target + math.pi)


def test_fit_stays_at_the_closed_form_inversion():
    # The Bell model is saturated, so the inversion is the likelihood maximum:
    # its score is at the rounding level, and L-BFGS returns it bit for bit on
    # 300 of criterion 12's draws.
    delta_beta, t, n = np.array([0.012, -0.007, 0.009]), 5.0, 100_000
    p = simulator.bell_probabilities(delta_beta, t)
    for r in range(300):
        counts = simulator.sample_counts(p, n, sample_stream(2024, r)).astype(float)
        closed = simulator._invert_bell_counts(counts, t, delta_beta)
        fit = simulator._fit_bell_counts(counts, t, delta_beta)
        assert np.array_equal(fit, closed)
        assert np.array_equal(np.sign(fit), np.sign(delta_beta))


@pytest.mark.parametrize("side", ["below", "above"])
def test_score_matches_central_differences(side):
    # Random points away from the optimum: mixed signs, one zero count, and
    # phases on both sides of pi/2. A 1e-6 central difference of the same nll
    # agrees to 1e-7 of the largest component (8e-10 measured).
    rng = np.random.default_rng(17)
    for i in range(50):
        x = rng.uniform(0.05, 1.0, 3) * rng.choice([-1.0, 1.0], 3)
        phase = rng.uniform(0.2, 1.4) if side == "below" else rng.uniform(1.75, 3.0)
        t = phase / np.linalg.norm(x)
        counts = rng.integers(50, 1000, 4).astype(float)
        counts[1 + i % 3] = 0.0
        _, score = simulator._bell_nll(x, counts, t)
        h = 1e-6
        central = np.array([
            simulator._bell_nll(x + e, counts, t)[0] - simulator._bell_nll(x - e, counts, t)[0]
            for e in h * np.eye(3)
        ]) / (2.0 * h)
        assert np.max(np.abs(score - central)) <= 1e-7 * np.max(np.abs(score))


def test_bell_fit_samples_and_evaluates_once_per_rep(monkeypatch):
    # The bell-fit benchmark's field: one probability call samples the counts
    # and one evaluates the seed, where the score stops L-BFGS.
    calls = []
    probabilities = simulator.bell_probabilities

    def counted(*args):
        calls.append(args)
        return probabilities(*args)

    monkeypatch.setattr(simulator, "bell_probabilities", counted)
    cfg = simulator.ExperimentConfig(beta_true=(0.05, -0.03, 0.04), m=1, n=100_000, backend="bell", seed=4)
    reps = 20
    simulator.run_repetitions(cfg, reps)
    assert len(calls) <= 2 * reps


def test_all_phi_plus_counts_fit_zero_without_a_polish(monkeypatch):
    # Every outcome Phi+ under a zero prior puts the phase at 0: the inversion
    # gives the zero residual, and the fit returns it before L-BFGS.
    def no_polish(*args, **kwargs):
        raise AssertionError("minimize called")

    monkeypatch.setattr(scipy.optimize, "minimize", no_polish)
    counts = np.array([500.0, 0.0, 0.0, 0.0])
    assert simulator._invert_bell_counts(counts, 1.3, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    assert simulator._fit_bell_counts(counts, 1.3, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_resolve_to_prior():
    cfg = ref_config()
    assert_allclose(cfg.resolved_guess(), BETA_REFERENCE)
    assert cfg.resolved_bound() == pytest.approx(np.linalg.norm(BETA_REFERENCE), rel=1e-15)
    assert cfg.resolved_extra() == cfg.n


def test_config_zero_prior_needs_explicit_bound():
    # The default bound |beta0| = 0 is rejected when the config is built.
    with pytest.raises(DomainError, match="--bound"):
        simulator.ExperimentConfig(beta_true=(0.0, 0.0, 0.0), m=1, n=100)
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
        {"seed": 2**64},
        {"beta0_bound": 1e200},
        {"beta_true": (1e200, 0.0, 0.0), "beta0_bound": 1.0},
        {"beta0_guess": (1e200, 0.0, 0.0), "beta0_bound": 1.0},
    ],
)
def test_config_validation(overrides):
    with pytest.raises(DomainError):
        ref_config(**overrides)


# ---------------------------------------------------------------------------
# adaptive experiment, gaussian backend


def test_single_iteration_trace():
    cfg = ref_config(m=1, seed=9)
    trace = simulator.run_repetitions(cfg, 1)
    assert len(trace.iterations) == 1
    it = trace.iterations[0]
    v0 = float(np.dot(BETA_REFERENCE, BETA_REFERENCE))
    assert it.control.tolist() == [[0.0, 0.0, 0.0]]
    assert it.t.tolist() == [adaptive.optimal_time(4.0 * v0)]
    assert it.d_factor.tolist() == [1.0]  # default bound equals the true magnitude
    assert it.trace_cov[0] == pytest.approx(trace.planned_v_m, rel=1e-12)
    assert trace.planned_v_m == pytest.approx(v0 * adaptive.gain(adaptive.g0()) / cfg.n, rel=1e-12)
    assert it.error_norm[0] == pytest.approx(
        math.dist(trace.beta_hat[0], cfg.beta_true), rel=1e-15
    )


def test_trace_bookkeeping():
    cfg = ref_config(m=3, seed=2)
    trace = simulator.run_repetitions(cfg, 1)
    contraction = adaptive.gain(adaptive.g0()) / cfg.n
    v0 = float(np.dot(BETA_REFERENCE, BETA_REFERENCE))
    for idx, it in enumerate(trace.iterations, start=1):
        assert it.k == idx
        assert it.n_used.tolist() == [cfg.n]
        assert it.dE2_planned == pytest.approx(4.0 * v0 * contraction ** (idx - 1), rel=1e-12)
    assert trace.iterations[-1].beta_hat.tolist() == trace.beta_hat.tolist()
    err = trace.beta_hat[0] - np.asarray(cfg.beta_true)
    assert trace.realized_sq_error[0] == pytest.approx(float(err @ err), rel=1e-12)
    # each control cancels the previous estimate
    assert_allclose(trace.iterations[1].control, np.negative(trace.iterations[0].beta_hat))


def test_mean_ratio_tracks_plan():
    trace = simulator.run_repetitions(ref_config(), 300)
    ratio = np.mean(trace.realized_sq_error) / trace.planned_v_m
    assert 0.7 < ratio < 1.4


def _leading_rows(record, reps=None):
    """A record's fields, each array as the bytes of its first reps rows."""
    return {
        name: value[:reps].tobytes() if isinstance(value, np.ndarray) else value
        for name, value in vars(record).items()
        if name != "iterations"
    }


def test_repetition_worker_independence():
    # Each measurement draws for the reps from one stream, in rep order: the
    # first rows of a longer run are the shorter run, bit for bit, on every
    # backend. Measurement j's key does not depend on m, so the iterations of
    # a run with m = 2 are the first two of a run with m = 3.
    for cfg in (ref_config(m=3), ref_config(m=3, time_refinement=True), ref_config(backend="bell")):
        short, long = simulator.run_repetitions(cfg, 3), simulator.run_repetitions(cfg, 8)
        assert short.beta_hat.shape == (3, 3)
        for a, b in zip((short, *short.iterations), (long, *long.iterations), strict=True):
            assert _leading_rows(a) == _leading_rows(b, 3)
    for refine in (False, True):
        short = simulator.run_repetitions(ref_config(m=2, time_refinement=refine), 3)
        long = simulator.run_repetitions(ref_config(m=3, time_refinement=refine), 8)
        for a, b in zip(short.iterations, long.iterations[:2], strict=True):
            assert _leading_rows(a) == _leading_rows(b, 3)


@pytest.mark.parametrize("backend", ["gaussian", "bell"])
@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("reps", [1, 5])
def test_one_stream_per_measurement(monkeypatch, backend, refine, reps):
    # Measurement j draws every rep's normals, or counts, from the one stream
    # (seed, j): the refinement measurement before the main one.
    made, normals, counts = [], [], {}
    step, sample = simulator.estimate_step_gaussian, simulator.sample_counts

    def recording_stream(seed, index):
        made.append(((seed, index), sample_stream(seed, index)))
        return made[-1][1]

    def recording_step(cov, z):
        normals.append(z)
        return step(cov, z)

    def recording_counts(p, n, rng):
        drawn = sample(p, n, rng)
        key = next(key for key, g in made if g is rng)
        counts.setdefault(key, []).append((np.asarray(p) / np.sum(p), n, drawn))
        return drawn

    monkeypatch.setattr(simulator, "sample_stream", recording_stream)
    monkeypatch.setattr(simulator, "estimate_step_gaussian", recording_step)
    monkeypatch.setattr(simulator, "sample_counts", recording_counts)
    cfg = ref_config(m=3, backend=backend, time_refinement=refine)
    simulator.run_repetitions(cfg, reps)
    keys = [(cfg.seed, j) for j in range(2 * cfg.m - 1 if refine else cfg.m)]
    assert [key for key, _ in made] == keys
    if backend == "gaussian":
        assert len(normals) == len(keys)
        for key, z in zip(keys, normals, strict=True):
            assert np.array_equal(z, sample_stream(*key).standard_normal((reps, 3)))
        return
    assert list(counts) == keys
    for key, draws in counts.items():
        p, n, drawn = (np.array(column) for column in zip(*draws, strict=True))
        assert np.array_equal(drawn, sample_stream(*key).multinomial(n, p))


def test_trace_memory_stays_near_its_arrays():
    # At 20 000 reps of the README Gaussian run the peak traced allocation
    # stays within 3x the trace's own arrays: no per-rep generators or draws
    # outlive the measurement that uses them.
    cfg = simulator.ExperimentConfig(beta_true=BETA_REFERENCE, m=4, n=1000, seed=11)
    tracemalloc.start()
    try:
        trace = simulator.run_repetitions(cfg, 20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    records = (trace, *trace.iterations)
    held = sum(v.nbytes for r in records for v in vars(r).values() if isinstance(v, np.ndarray))
    assert peak < 3 * held


def test_repetition_validation():
    with pytest.raises(DomainError):
        simulator.run_repetitions(ref_config(), 0)


def test_refinement_keeps_time_budget():
    cfg = ref_config(m=3, seed=5, time_refinement=True)
    trace = simulator.run_repetitions(cfg, 1)
    for it in trace.iterations[1:]:
        t_plan = adaptive.optimal_time(it.dE2_planned)
        assert it.t.item() != t_plan
        assert it.n_used.item() == max(1, round(cfg.n * t_plan / it.t.item()))


@pytest.mark.parametrize("refine,calls", [(False, 3), (True, 5)])
def test_one_covariance_per_gaussian_measurement(monkeypatch, refine, calls):
    # m measurements, plus m - 1 refinement measurements with refine, for all reps at once
    made = []

    def counting(*args):
        made.append(args)
        return adaptive.iteration_covariance(*args)

    monkeypatch.setattr(simulator, "iteration_covariance", counting)
    simulator.run_repetitions(ref_config(m=3, time_refinement=refine), 50)
    assert len(made) == calls


def test_iteration_deviation_factors_follow_law():
    # d_factor of iterations 2..m against the control-error law, two-sample KS
    cfg = simulator.ExperimentConfig(beta_true=BETA_REFERENCE, m=3, n=1000, seed=42)
    trace = simulator.run_repetitions(cfg, 10_000)
    reference = deviation_factors(sample_stream(999, 0).standard_normal((200_000, 3)))
    for k in (1, 2):
        factors = trace.iterations[k].d_factor
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
    trace = simulator.run_repetitions(cfg, 10_000)
    realized = trace.iterations[-1].trace_cov / trace.planned_v_m
    reference = np.empty(100_000)
    for j in range(reference.size):
        rng = sample_stream(77, j)
        devs = [1.0, sample_deviation(rng), sample_deviation(rng)]
        reference[j] = ratio_total(devs)
    assert stats.ks_2samp(realized, reference).statistic < 0.05


def test_nonconvergent_fit_aborts(monkeypatch):
    # A fit that fails at iteration 1 aborts the run: the error reaches the
    # caller unchanged instead of becoming a zero-estimate trace.
    def explode(counts, t, prior):
        raise MleNonconvergence("forced")

    monkeypatch.setattr(simulator, "_fit_bell_counts", explode)
    cfg = ref_config(backend="bell", n=200, seed=1)
    with pytest.raises(MleNonconvergence, match="^forced$"):
        simulator.run_repetitions(cfg, 1)


def test_nonconvergent_fit_ends_the_run(monkeypatch, capsys, tmp_path):
    # A fit that does not converge at iteration 2 ends the whole run: the
    # library raises, and the CLI exits 3 with one line and no output.
    fit = simulator._fit_bell_counts

    def fail_at_iteration_2(counts, t, prior):
        if not np.any(prior):
            raise MleNonconvergence("forced")
        return fit(counts, t, prior)

    monkeypatch.setattr(simulator, "_fit_bell_counts", fail_at_iteration_2)
    with pytest.raises(MleNonconvergence):
        simulator.run_repetitions(ref_config(backend="bell", n=200, seed=1), 3)
    path = tmp_path / "reps.csv"
    code = cli.main([
        "simulate", "--beta0", "0.8,-0.4,0.3", "--n", "200", "--m", "2", "--backend", "bell",
        "--seed", "1", "--reps", "3", "--csv", str(path),
    ])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:")
    assert err.count("\n") == 1
    assert not path.exists()


def test_btp_parameters_meet_their_bounds_end_to_end():
    # The Gaussian protocol on a btp field, mapped back to (B, theta, phi):
    # each parameter's mean squared error lies between the time-matched
    # optimal-control floor and the adaptive upper bound, and within the
    # headline factor 4A - 1 of the floor.
    model = core.get_model("btp")
    alpha = np.array([1.0, 0.4, 0.3])
    beta = model.pauli_map(alpha)
    cfg = simulator.ExperimentConfig(beta_true=tuple(beta), m=4, n=1000, seed=5)
    b = simulator.run_repetitions(cfg, 4000).beta_hat
    mag = np.linalg.norm(b, axis=1)
    phi = np.arctan2(b[:, 1], b[:, 0])
    phi = alpha[2] + (phi - alpha[2] + math.pi) % (2.0 * math.pi) - math.pi
    sq = (np.stack([mag, np.arcsin(b[:, 2] / mag), phi], axis=1) - alpha) ** 2
    realized = sq.mean(axis=0)
    se = sq.std(axis=0, ddof=1) / math.sqrt(len(sq))
    plan = adaptive.plan_schedule(float(beta @ beta), 1000, target_m=4)
    bounds = adaptive.alpha_variance_bounds(core.model_evaluate(model, alpha).jac, plan.v_m, plan.v_oc)
    assert np.all(realized + 3.0 * se <= bounds.upper)
    assert np.all(realized - 3.0 * se >= bounds.lower_oc)
    assert np.all(realized / bounds.lower_oc <= bounds.headline_factor)


# ---------------------------------------------------------------------------
# adaptive experiment, bell backend


def test_bell_trace_carries_counts():
    cfg = ref_config(m=1, n=2000, backend="bell", seed=6)
    it = simulator.run_repetitions(cfg, 1).iterations[0]
    assert it.trace_cov is None
    assert it.counts.shape == (1, 4)
    assert it.counts.sum() == cfg.n


def test_bell_mean_ratio_tracks_plan():
    cfg = ref_config(m=1, n=2000, backend="bell", seed=6)
    trace = simulator.run_repetitions(cfg, 200)
    ratio = np.mean(trace.realized_sq_error) / trace.planned_v_m
    assert 0.8 < ratio < 1.25
