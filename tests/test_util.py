"""Numeric helpers: csc^2 and its series branch for floats and arrays, the
trial-count rule, FD steps, keyed RNG streams, phase policy."""

import math

import numpy as np
import pytest

from hamest.errors import DomainError
from hamest.util import KeyedStream, check_phase, check_trials, csc_squared, fd_step, near_pole, sample_stream


def assert_array_matches_scalars(x):
    """csc_squared of an array is its float results, bit for bit, in its shape."""
    x = np.asarray(x, dtype=float)
    got = csc_squared(x)
    assert isinstance(got, np.ndarray) and got.shape == x.shape
    assert got.ravel().tolist() == [csc_squared(v) for v in x.ravel().tolist()]


def test_csc_squared_reference_points():
    assert csc_squared(math.pi / 2.0) == 1.0
    assert csc_squared(math.pi / 4.0) == pytest.approx(2.0, rel=1e-12)
    assert csc_squared(-0.7) == csc_squared(0.7)
    assert type(csc_squared(0.7)) is float
    assert_array_matches_scalars([math.pi / 2.0, math.pi / 4.0, -0.7, 0.7])


def test_csc_squared_series_agrees_with_direct_form():
    # inside the series branch the truncation error is ~x^4/15 relative,
    # far below what the direct evaluation can resolve
    x = 0.5e-4
    assert csc_squared(x) == pytest.approx(1.0 / math.sin(x) ** 2, rel=1e-10)
    # Both branches and the threshold itself, in the (..., 1, 1) shape of a covariance stack.
    assert_array_matches_scalars(np.array([x, -x, 1e-4, -1e-4, 1.0001e-4, 2.0, 1e-150]).reshape(7, 1, 1))


def test_csc_squared_series_matches_expansion():
    x = 2e-4
    assert csc_squared(x) == pytest.approx(1.0 / x**2 + 1.0 / 3.0 + x**2 / 15.0, rel=1e-10)
    rng = np.random.default_rng(4)
    assert_array_matches_scalars(np.concatenate([[x], rng.uniform(-3e-4, 3e-4, 500), rng.uniform(-9.0, 9.0, 500)]))


@pytest.mark.parametrize(
    "n", [1, 2, 1000, 2**53, np.int64(7), 5.0, np.float64(2.0**53), np.array([1.0, 3.0, 2.0**53])]
)
def test_check_trials_accepts_integer_counts(n):
    check_trials(n)


@pytest.mark.parametrize(
    "n",
    [0, -3, 2**53 + 1, 10**400, -(10**400), 2.5, math.nan, math.inf, np.array([1.0, 0.5]),
     np.array([2.0, math.inf]), np.array([[1.0], [0.0]])],
)
def test_check_trials_rejects_other_counts(n):
    with pytest.raises(DomainError, match="trial count must"):
        check_trials(n)


@pytest.mark.parametrize(
    "value,step", [(0.0, 1e-6), (0.5, 1e-6), (5.0, 1e-6 * 5.0), (-3.0, 1e-6 * 3.0)]
)
def test_fd_step(value, step):
    assert fd_step(value) == step


def test_sample_stream_keyed_determinism():
    a = sample_stream(12, 7).standard_normal(8)
    b = sample_stream(12, 7).standard_normal(8)
    assert np.array_equal(a, b)
    c = sample_stream(12, 8).standard_normal(8)
    d = sample_stream(13, 7).standard_normal(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_keyed_stream_matches_fresh_streams():
    draws = KeyedStream()
    rng = np.random.default_rng(3)
    for _ in range(200):
        seed = int(rng.integers(0, 2**32))
        index = int(rng.integers(0, 2**32))
        shape = (int(rng.integers(1, 4)), 3)
        got = draws.standard_normal(seed, index, shape)
        want = sample_stream(seed, index).standard_normal(shape)
        assert np.array_equal(got, want)


def test_keyed_stream_has_no_state_leakage():
    draws = KeyedStream()
    first = draws.standard_normal(5, 0, (2, 3))
    draws.standard_normal(7, 3, (4, 3))
    again = draws.standard_normal(5, 0, (2, 3))
    assert np.array_equal(first, again)


@pytest.mark.parametrize(
    "x,period,tol,expected",
    [
        (0.1, math.pi, 0.2, False),
        (math.pi - 1e-9, math.pi, 1e-6, True),
        (2.0 * math.pi + 1e-7, math.pi, 1e-6, True),
        (1.5, math.pi, 0.1, False),
        (0.0, math.pi, 1.0, False),
    ],
)
def test_near_pole(x, period, tol, expected):
    assert near_pole(x, period, tol) is expected


@pytest.mark.parametrize("period", [math.pi, 2.0 * math.pi])
def test_near_pole_mask_matches_scalar_calls(period):
    # Random phases plus points 2e-9 around each pole and exact half-periods.
    rng = np.random.default_rng(12)
    k = np.arange(0, 40)
    x = np.concatenate(
        [rng.uniform(0.0, 40.0 * period, 2000), k * period, k * period + 2e-9, k * period - 2e-9,
         (k + 0.5) * period]
    )
    mask = near_pole(x, period)
    assert mask.dtype == bool
    assert mask.tolist() == [near_pole(v, period) for v in x.tolist()]
    assert mask[2000:2040].tolist() == [False] + [True] * 39
    assert not mask[2040:].any()


@pytest.mark.parametrize("x", [0.0, -1.0, 2.0**35 - 1.0, -(2.0**35 - 1.0)])
def test_check_phase_accepts_resolvable_phases(x):
    check_phase(x)


@pytest.mark.parametrize("x", [2.0**35, -(2.0**35), 1e139, math.inf, -math.inf, math.nan])
def test_check_phase_rejects_unresolvable_phases(x):
    # At 2^35 the float spacing 2^-17 exceeds 2 pi * 1e-6.
    with pytest.raises(DomainError):
        check_phase(x)
