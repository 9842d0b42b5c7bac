"""Deviation-factor law, per-iteration and whole-process penalties, MC driver."""

import math
import multiprocessing
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from hamest import adaptive, robustness
from hamest.errors import DomainError
from hamest.util import KeyedStream
from reference_routes import (
    deviation_factors,
    penalty_law,
    ratio_total,
    robustness_ratios_per_sample,
    robustness_summary_reference,
    sample_deviation,
    summary_statistics_reference,
)

DEVIATION_WEIGHT = 1.8177518730791193  # g0^2 csc^2(g0)
DEVIATION_VARIANCE = 0.7081609204640834  # (2 + 4 a^2) / s^2
SAMPLE_COUNT = 100_000
SAMPLE_SEED = 2718


@pytest.fixture(scope="module")
def deviation_draws():
    return deviation_factors(np.random.default_rng(SAMPLE_SEED).standard_normal((SAMPLE_COUNT, 3)))


@pytest.fixture(scope="module")
def model_cdf():
    """Trapezoid CDF of the deviation density on a grid dense enough that the
    integration error is far below the sampling noise it is compared against."""
    xs = np.linspace(0.0, 60.0, 240_001)
    pdf = robustness.deviation_pdf(xs)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(xs))])
    return xs, cdf / cdf[-1]


# ---------------------------------------------------------------------------
# law constants and density


def test_deviation_params_values():
    p = robustness.deviation_params()
    assert p.a == pytest.approx(DEVIATION_WEIGHT, rel=1e-12)
    assert p.s == 2.0 * p.a + 1.0
    assert p.c == pytest.approx((2.0 * p.a - 1.0 - 1.0 / p.a) / 2.0, rel=1e-14)
    # E[D] = (1 + 2a) / s = 1 by construction
    assert (1.0 + 2.0 * p.a) / p.s == pytest.approx(1.0, rel=1e-15)


def test_deviation_variance_identity():
    p = robustness.deviation_params()
    assert (2.0 + 4.0 * p.a**2) / p.s**2 == pytest.approx(DEVIATION_VARIANCE, rel=1e-12)


def test_pdf_vanishes_at_and_below_origin():
    assert robustness.deviation_pdf(0.0) == 0.0
    assert robustness.deviation_pdf(-1.0) == 0.0


def test_pdf_array_matches_scalar():
    xs = np.concatenate([
        [-0.5, 0.0, 0.3, 1.0, 4.7],
        np.linspace(-1.0, 60.0, 10_000),
        [0.0, -0.0, -1e-300, 1e-300, 5e-324, np.nan, np.inf, -np.inf],
    ])
    batched = robustness.deviation_pdf(xs)
    assert batched.tobytes() == np.array([robustness.deviation_pdf(x) for x in xs.tolist()]).tobytes()
    assert batched[-8:-5].tolist() == [0.0, 0.0, 0.0]
    assert math.isnan(batched[-3])
    assert robustness.deviation_pdf(xs[None, :]).tobytes() == batched.tobytes()
    assert isinstance(robustness.deviation_pdf(1.0), float)


def test_pdf_normalization():
    norm, _ = integrate.quad(robustness.deviation_pdf, 0.0, 60.0, limit=200)
    assert norm == pytest.approx(1.0, abs=1e-6)


def test_pdf_first_moment():
    mom, _ = integrate.quad(lambda d: d * robustness.deviation_pdf(d), 0.0, 60.0, limit=200)
    assert mom == pytest.approx(1.0, abs=1e-5)


# ---------------------------------------------------------------------------
# sampling against the density


def test_batched_draws_equal_sequential_draws():
    # The tests draw their large samples in one batch; it must equal sample_deviation draw by draw.
    rng = np.random.default_rng(SAMPLE_SEED)
    sequential = np.array([sample_deviation(rng) for _ in range(20_000)])
    batched = deviation_factors(np.random.default_rng(SAMPLE_SEED).standard_normal((20_000, 3)))
    assert sequential.tobytes() == batched.tobytes()


def test_draws_positive(deviation_draws):
    assert np.all(deviation_draws > 0.0)


def test_sample_mean(deviation_draws):
    sigma = math.sqrt(DEVIATION_VARIANCE / SAMPLE_COUNT)
    assert abs(deviation_draws.mean() - 1.0) < 3.0 * sigma


def test_sample_variance(deviation_draws):
    assert deviation_draws.var() == pytest.approx(DEVIATION_VARIANCE, rel=0.05)


def test_empirical_cdf_matches_density(deviation_draws, model_cdf):
    xs, cdf = model_cdf
    srt = np.sort(deviation_draws)
    model = np.interp(srt, xs, cdf)
    steps = np.arange(SAMPLE_COUNT + 1) / SAMPLE_COUNT
    ks = max(np.abs(steps[1:] - model).max(), np.abs(steps[:-1] - model).max())
    assert ks < 0.01  # 0.0038 at the frozen seed; 95% point is 0.0043


def test_histogram_matches_density(deviation_draws, model_cdf):
    xs, cdf = model_cdf
    edges = np.linspace(0.0, 8.0, 201)
    counts, _ = np.histogram(deviation_draws, bins=edges)
    mass = np.diff(np.interp(edges, xs, cdf))
    assert np.abs(counts / SAMPLE_COUNT - mass).sum() < 0.05


# ---------------------------------------------------------------------------
# single-iteration penalty


def test_ratio_single_identity_at_one():
    assert robustness.ratio_single(1.0) == 1.0


def test_ratio_single_small_deviation_limit():
    g = adaptive.g0()
    limit = 3.0 / (4.0 * g * g) / adaptive.gain(g)
    assert limit == pytest.approx(0.6471788535358873, rel=1e-12)
    assert robustness.ratio_single(1e-9) == pytest.approx(limit, rel=1e-8)


def test_ratio_single_strictly_increasing():
    d_max = (math.pi / adaptive.g0()) ** 2
    grid = np.linspace(0.01, d_max - 0.01, 10_000)
    vals = np.array([robustness.ratio_single(d) for d in grid])
    assert np.all(np.diff(vals) > 0.0)


@pytest.mark.parametrize("d", [0.0, -0.3, (math.pi / 1.2986027893222916) ** 2, 7.0])
def test_ratio_single_domain(d):
    with pytest.raises(DomainError):
        robustness.ratio_single(d)


def test_ratio_single_array_equals_float_calls_bitwise():
    # From the smallest D whose R is finite, through 1e-300, to the last points
    # whose planned phase stays below pi.
    d_max = (math.pi / adaptive.g0()) ** 2
    d = np.concatenate([
        [3.29861612251727e-309, 1e-308],
        np.geomspace(1e-300, 1e-2, 3000),
        np.linspace(1e-2, d_max, 7000, endpoint=False),
        [d_max * (1.0 - 1e-15), d_max * (1.0 - 1e-12)],
    ])
    batched = robustness.ratio_single(d)
    assert batched.tobytes() == np.array([robustness.ratio_single(x) for x in d.tolist()]).tobytes()
    assert np.isfinite(batched).all()
    assert isinstance(robustness.ratio_single(1.0), float)


@pytest.mark.parametrize("tiny", [5e-324, 1e-310, 3.298616122517264e-309])
def test_ratio_single_raises_where_it_overflows(tiny):
    # Below D ~ 3.3e-309 the csc^2 term of gain(sqrt(D) g0) overflows; R is
    # not written as inf. An array names its first such point, as a float does.
    with pytest.raises(DomainError, match=f"overflows .* got {tiny!r}$") as scalar:
        robustness.ratio_single(tiny)
    with pytest.raises(DomainError) as batched:
        robustness.ratio_single(np.array([0.5, 1e-300, tiny, 1e-320]))
    assert str(batched.value) == str(scalar.value)


@pytest.mark.parametrize("bad", [0.0, -0.3, 7.0, math.nan])
def test_ratio_single_array_raises_on_its_first_bad_point(bad):
    with pytest.raises(DomainError) as scalar:
        robustness.ratio_single(bad)
    with pytest.raises(DomainError) as batched:
        robustness.ratio_single(np.array([0.5, 1.0, bad, 8.0, -1.0]))
    assert str(batched.value) == str(scalar.value)


def test_ratio_single_array_checks_the_phase_after_the_domain():
    # The last float below (pi / g0)^2 passes the D check, but its phase rounds to pi.
    edge = np.nextafter((math.pi / adaptive.g0()) ** 2, 0.0)
    with pytest.raises(DomainError) as scalar:
        robustness.ratio_single(edge)
    assert str(scalar.value).startswith("gain argument")
    with pytest.raises(DomainError) as batched:
        robustness.ratio_single(np.array([0.5, edge, 2.0, edge]))
    assert str(batched.value) == str(scalar.value)
    with pytest.raises(DomainError, match="deviation factor .* got 8.0"):
        robustness.ratio_single(np.array([0.5, edge, 8.0]))


# ---------------------------------------------------------------------------
# re-optimized recursion


@pytest.mark.parametrize("dE2,n", [(1.0, 100), (0.37, 250), (4.2e-3, 12)])
def test_modified_recursion_recovers_ideal_recursion(dE2, n):
    total_time = n * adaptive.optimal_time(dE2)
    assert robustness.modified_recursion(dE2, 1.0, total_time) == pytest.approx(
        adaptive.recursion(dE2, n), rel=1e-12
    )


def test_modified_recursion_sqrt_homogeneity():
    base = robustness.modified_recursion(0.9, 1.0, 30.0)
    assert robustness.modified_recursion(0.9, 2.5, 30.0) == pytest.approx(
        math.sqrt(2.5) * base, rel=1e-12
    )
    assert robustness.modified_recursion(0.9 * 4.0, 1.0, 30.0) == pytest.approx(
        2.0 * base, rel=1e-12
    )


@pytest.mark.parametrize(
    "dE2,d,total_time",
    [(0.0, 1.0, 10.0), (-1.0, 1.0, 10.0), (1.0, 0.0, 10.0), (1.0, -0.5, 10.0), (1.0, 1.0, 0.0)],
)
def test_modified_recursion_domain(dE2, d, total_time):
    with pytest.raises(DomainError):
        robustness.modified_recursion(dE2, d, total_time)


# ---------------------------------------------------------------------------
# whole-process penalty


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_ratio_total_no_deviation(m):
    assert ratio_total(np.ones(m)) == 1.0


def test_ratio_total_single_step_square_root():
    assert ratio_total([1.0, 4.0]) == pytest.approx(2.0, rel=1e-15)


def test_ratio_total_matches_composed_recursions():
    # Running the re-optimized recursion with and without the deviations and
    # taking the quotient of the endpoints must reproduce the closed form.
    rng = np.random.default_rng(5)
    m = 5
    devs = np.concatenate([[1.0], [sample_deviation(rng) for _ in range(m - 1)]])
    times = rng.uniform(5.0, 50.0, size=m - 1)
    noisy, ideal = 0.9, 0.9
    for k in range(1, m):
        noisy = robustness.modified_recursion(noisy, devs[k], times[k - 1])
        ideal = robustness.modified_recursion(ideal, 1.0, times[k - 1])
    assert noisy / ideal == pytest.approx(ratio_total(devs), rel=1e-12)


@pytest.mark.parametrize("k,m", [(2, 4), (3, 4), (4, 4), (2, 2)])
def test_ratio_total_scaling_in_one_factor(k, m):
    rng = np.random.default_rng(k + 10 * m)
    devs = np.concatenate([[1.0], rng.uniform(0.4, 2.5, size=m - 1)])
    scaled = devs.copy()
    scaled[k - 1] *= 3.0
    expected = 3.0 ** (1.0 / 2.0 ** (m - k + 1))
    assert ratio_total(scaled) / ratio_total(devs) == pytest.approx(
        expected, rel=1e-12
    )


@pytest.mark.parametrize(
    "devs", [[0.9, 1.0], [1.0, -0.2], [1.0, 0.0, 1.3], [], [[1.0, 1.1]]]
)
def test_ratio_total_domain(devs):
    with pytest.raises(DomainError):
        ratio_total(devs)


# ---------------------------------------------------------------------------
# Monte Carlo driver


def test_mc_penalty_usually_below_one():
    summaries = [robustness.robustness_mc(m, 20_000, 7) for m in (2, 3, 4)]
    p = [s.p_below_one for s in summaries]
    assert all(q > 0.5 for q in p)
    assert p[0] < p[1] < p[2]
    # counter-based streams make the estimate reproducible to the last bit
    assert p[1] == 0.67305


def test_mc_draws_once_per_block(monkeypatch):
    keyed = []
    draw = KeyedStream.standard_normal

    def counting(self, seed, index, shape):
        keyed.append((seed, index, shape))
        return draw(self, seed, index, shape)

    monkeypatch.setattr(KeyedStream, "standard_normal", counting)
    robustness.robustness_mc(3, 10_000, 1)
    block = robustness.MC_BLOCK
    # The caller and the helper thread claim blocks in either order.
    assert sorted(keyed) == [(1, 0, (block, 2, 3)), (1, 1, (block, 2, 3)), (1, 2, (10_000 - 2 * block, 2, 3))]


@pytest.mark.parametrize("m", [2, 5])
def test_mc_matches_per_sample_reference(m):
    s = robustness.robustness_mc(m, 10_000, 11)
    mean, deciles, p_below_one = summary_statistics_reference(robustness_ratios_per_sample(m, 10_000, 11))
    assert s.mean == pytest.approx(mean, rel=1e-12)
    assert_allclose(s.deciles, deciles, rtol=1e-12, atol=0.0)
    assert s.p_below_one == p_below_one


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.fixture(scope="module")
def mc_helper():
    """A helper thread of this module's own, started even where the process may run on one CPU."""
    return robustness._Helper()


MC_CASES = pytest.mark.parametrize(
    "samples, seed, m",
    [
        (samples, seed, m)
        for samples in (10_001, 3 * robustness.MC_BLOCK + 57, 5 * robustness.MC_BLOCK - 1)
        for seed in (0, 11, 2**63 + 5)
        for m in (2, 3, 5)
    ],
)


@MC_CASES
def test_mc_summary_bitwise_equals_numpy_statistics_in_draw_order(m, seed, samples):
    # The mean before the in-place sort, the count below 1 and the deciles read
    # off the sorted ratios all keep the bits of numpy's routines on the ratios
    # in draw order.
    s = robustness.robustness_mc(m, samples, seed)
    mean, deciles, p_below_one = robustness_summary_reference(m, samples, seed)
    assert _bits([s.mean, s.p_below_one, *s.deciles]) == _bits([mean, p_below_one, *deciles])


@MC_CASES
def test_mc_summary_bitwise_equal_with_and_without_the_helper(m, seed, samples, mc_helper, monkeypatch):
    monkeypatch.setattr(robustness, "_helper", lambda: None)
    alone = robustness.robustness_mc(m, samples, seed)
    monkeypatch.setattr(robustness, "_helper", lambda: mc_helper)
    shared = robustness.robustness_mc(m, samples, seed)
    assert _bits([shared.mean, shared.p_below_one, *shared.deciles]) == _bits(
        [alone.mean, alone.p_below_one, *alone.deciles]
    )


@pytest.mark.parametrize("failing", [0, 1])
def test_mc_block_error_propagates_from_either_thread(failing, mc_helper, monkeypatch):
    # The caller holds block 0 until the helper has started block 1, so each
    # thread draws one of them; the error of either reaches the caller as it
    # was raised, and the helper serves the next call.
    monkeypatch.setattr(robustness, "_helper", lambda: mc_helper)
    samples = 5 * robustness.MC_BLOCK - 1
    expected = robustness.robustness_mc(3, samples, 4)
    draw = KeyedStream.standard_normal
    helper_started = threading.Event()
    threads = {}
    error = RuntimeError(f"block {failing} failed")

    def failing_draw(self, seed, index, shape):
        threads[index] = threading.get_ident()
        if index == 1:
            helper_started.set()
        elif index == 0:
            assert helper_started.wait(30), "the helper never drew block 1"
        if index == failing:
            raise error
        return draw(self, seed, index, shape)

    monkeypatch.setattr(KeyedStream, "standard_normal", failing_draw)
    with pytest.raises(RuntimeError) as raised:
        robustness.robustness_mc(3, samples, 4)
    assert raised.value is error
    assert threads[0] == threading.get_ident() != threads[1]
    monkeypatch.setattr(KeyedStream, "standard_normal", draw)
    assert robustness.robustness_mc(3, samples, 4) == expected


def test_mc_concurrent_callers_share_one_helper(mc_helper, monkeypatch):
    # More callers than CPUs hand their blocks to the one helper while the
    # interpreter switches threads as often as it can: each caller still gets
    # its summary bit for bit, and each block key is drawn exactly once.
    cases = [(m, 5 * robustness.MC_BLOCK - 1, 40 + m) for m in (2, 3, 4, 5)]
    monkeypatch.setattr(robustness, "_helper", lambda: None)
    expected = [robustness.robustness_mc(*case) for case in cases]
    monkeypatch.setattr(robustness, "_helper", lambda: mc_helper)
    draw = KeyedStream.standard_normal
    keyed = []

    def counting(self, seed, index, shape):
        keyed.append((seed, index))
        return draw(self, seed, index, shape)

    monkeypatch.setattr(KeyedStream, "standard_normal", counting)
    rounds = 5
    results = [[] for _ in cases]

    def call(i):
        for _ in range(rounds):
            results[i].append(robustness.robustness_mc(*cases[i]))

    callers = [threading.Thread(target=call, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == [[summary] * rounds for summary in expected]
    assert sorted(keyed) == sorted((seed, b) for _, _, seed in cases for b in range(5) for _ in range(rounds))


def _send_summary(conn, m, samples, seed):
    conn.send(robustness.robustness_mc(m, samples, seed))
    conn.close()


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
@pytest.mark.parametrize("helper", ["process", "inherited"])
def test_mc_fork_child_returns_the_parents_summary(helper, mc_helper, monkeypatch):
    # A fork child inherits the helper object but not its thread. With the
    # process's own helper it starts a new thread; handed the inherited object,
    # whose thread never runs, its caller draws every block itself. A hang
    # fails the test on the timeout instead of stalling the suite.
    if helper == "inherited":
        monkeypatch.setattr(robustness, "_helper", lambda: mc_helper)
    args = (4, 3 * robustness.MC_BLOCK + 57, 8)
    parent = robustness.robustness_mc(*args)
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    child = fork.Process(target=_send_summary, args=(send, *args))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the fork child sent no summary in 60 s"
        summary = receive.recv()
        child.join(30)
    finally:
        if child.is_alive():
            child.terminate()
            child.join(30)
    assert summary == parent
    assert child.exitcode == 0


def test_mc_ratio_of_exactly_one_is_not_below_one(monkeypatch):
    # z = (1, 1, 1) makes every D = (1 + 2a) / (2a + 1) exactly 1, so every
    # ratio is 1.0 and none lies strictly below one.
    monkeypatch.setattr(KeyedStream, "standard_normal", lambda self, seed, index, shape: np.ones(shape))
    s = robustness.robustness_mc(3, 10_000, 1)
    assert (s.mean, s.p_below_one, s.deciles) == (1.0, 0.0, (1.0,) * 9)


def _decile_cases():
    rng = np.random.default_rng(20261020)
    for n in rng.integers(10_000, 50_001, size=4).tolist():
        yield pytest.param(rng.lognormal(-0.2, 0.6, n), id=f"lognormal-{n}")
    for n in (10_001, 100_001):
        yield pytest.param(rng.random(n), id=f"uniform-{n}")
    yield pytest.param(np.round(rng.normal(0.0, 1.0, 30_011), 1), id="ties")
    # Adjacent order statistics of a short array are far apart, so the two
    # lerp branches round differently at some of its deciles.
    for n in rng.integers(2, 200, size=8).tolist():
        yield pytest.param(rng.random(n), id=f"short-{n}")
    yield pytest.param(np.full(12_345, 0.7), id="constant")


@pytest.mark.parametrize("values", list(_decile_cases()))
def test_sorted_deciles_bitwise_equal_np_quantile(values):
    expected = np.quantile(values, np.arange(0.1, 0.95, 0.1))
    assert _bits(robustness._sorted_deciles(np.sort(values))) == _bits(expected)


def test_mc_peak_memory_holds_one_array_of_ratios():
    # The ratios themselves plus a few blocks of normals: any full-size copy
    # of the ratios (a partitioned copy, a mask, a sorted copy) exceeds it.
    m, samples = 4, 10**6
    robustness.robustness_mc(m, 10_000, 5)  # fill the cached constants untraced
    block = 8 * robustness.MC_BLOCK * 3 * (m - 1)
    tracemalloc.start()
    try:
        robustness.robustness_mc(m, samples, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * samples + 4 * block


def test_exact_penalty_law_at_two_iterations():
    # At m = 2, R_tot = sqrt(D_2): P(R_tot < 1) = P(D < 1), by quadrature of the
    # density. A decile is read from the CDF by linear interpolation between grid
    # points, which costs about 1e-7 in probability at the default step.
    p, deciles, density = penalty_law(2)
    assert p == pytest.approx(integrate.quad(robustness.deviation_pdf, 0.0, 1.0, epsabs=1e-13)[0], abs=1e-8)
    for q, r, f in zip(np.arange(1, 10) / 10.0, deciles, density):
        assert integrate.quad(robustness.deviation_pdf, 0.0, r * r, epsabs=1e-13)[0] == pytest.approx(q, abs=1e-6)
        assert f == pytest.approx(2.0 * r * robustness.deviation_pdf(r * r), rel=1e-6)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_mc_matches_exact_penalty_law(m):
    # Within 5 standard errors: binomial for P(R_tot < 1), order statistic
    # sqrt(q (1 - q) / N) / f(r_q) for the deciles.
    samples = 10**6
    s = robustness.robustness_mc(m, samples, 31)
    p, deciles, density = penalty_law(m)
    assert abs(s.p_below_one - p) < 5.0 * math.sqrt(p * (1.0 - p) / samples)
    q = np.arange(1, 10) / 10.0
    assert np.all(np.abs(np.array(s.deciles) - deciles) < 5.0 * np.sqrt(q * (1.0 - q) / samples) / density)


def test_mc_median_below_one():
    s = robustness.robustness_mc(2, 20_000, 7)
    assert s.deciles[4] < 1.0
    assert s.mean < 1.0  # E[sqrt(D)] < sqrt(E[D]) = 1


def test_mc_summary_shape():
    s = robustness.robustness_mc(3, 10_000, 3)
    assert (s.m, s.samples, s.seed) == (3, 10_000, 3)
    assert len(s.deciles) == 9
    assert np.all(np.diff(s.deciles) >= 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"m": 1, "samples": 10_000, "seed": 0},
        {"m": 2, "samples": 9_999, "seed": 0},
        {"m": 2, "samples": 10_000, "seed": -1},
        {"m": 2, "samples": 10_000, "seed": 2**64},
        {"m": 2, "samples": 10**8 + 1, "seed": 0},
    ],
)
def test_mc_domain(kwargs):
    with pytest.raises(DomainError):
        robustness.robustness_mc(**kwargs)
