"""Numeric helpers: csc^2 and its series branch for floats and arrays, the
trial-count rule, the one array norm, FD steps, keyed RNG streams, phase policy."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import hamest
from hamest.errors import DomainError
from hamest.util import (
    POLE_PHASE_ATOL,
    KeyedStream,
    check_phase,
    check_trials,
    csc_squared,
    fd_step,
    near_pole,
    row_norms,
    sample_stream,
)


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
    "n,ok",
    [
        (math.nan, False),
        (math.inf, False),
        (-math.inf, False),
        (0.0, False),
        (0.5, False),
        (2.5, False),
        (2.0**51 + 0.5, False),
        (2.0**53, True),
        (np.int64(2**53 + 1), False),
        (2.0**53 + 2.0, False),
        (2**64, False),
    ],
    ids=["nan", "inf", "-inf", "0", "0.5", "2.5", "2^51+0.5", "2^53", "int64-2^53+1", "float-2^53+2", "int-2^64"],
)
def test_check_trials_array_and_scalar_decide_alike(n, ok):
    # The vectorized array rule gives the scalar rule's decision, without a
    # warning, in the value's own dtype (object for an int beyond uint64).
    dtype = np.asarray(n).dtype
    arrays = [np.array([n]), np.array([[3, n], [1, 2]], dtype=dtype), np.full(500, n, dtype=dtype)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in [n, *arrays]:
            if ok:
                check_trials(value)
            else:
                with pytest.raises(DomainError, match="trial count must"):
                    check_trials(value)


def test_row_norms_keep_digits_at_every_scale():
    # sqrt(x . x) where the square is a normal float; hypot where it is subnormal or overflows.
    rng = np.random.default_rng(12)
    u = rng.standard_normal((200, 3))
    unit = u / np.hypot.reduce(u, axis=1)[:, None]
    for scale in (1e-300, 1e-200, 1e-158, 1e-155, 1e-150, 1.0, 1e150, 1e155, 1e300):
        got = row_norms(scale * unit)
        assert np.all(np.abs(got / scale - 1.0) <= 4.0 * np.finfo(float).eps)
    assert row_norms(np.zeros((2, 3))).tolist() == [0.0, 0.0]
    assert row_norms(np.array([3.0, 4.0, 12.0])) == 13.0
    assert row_norms(np.array([3e-200, 4e-200, 12e-200])) == pytest.approx(13e-200, rel=1e-15)


def test_row_norms_is_the_only_array_norm():
    # One home for the Euclidean norm of an array: a bare sqrt of a dot
    # product overflows where row_norms scales.
    package = Path(hamest.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "util.py":
            text = path.read_text(encoding="utf-8")
            assert "np.sqrt(np.vecdot(" not in text and "np.linalg.norm(" not in text, path.name


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


@pytest.mark.parametrize(
    "seed,index", [(0, 0), (12, 7), (3, 99_999), (2**64 - 1, 2**64 - 1), (2**64 - 1, 0), (0, 2**64 - 1)]
)
def test_sample_stream_is_the_philox_keyed_stream(seed, index):
    # The pin: numpy's Philox keyed by the uint64 words (seed, index), counter at zero.
    # The key is an array; numpy converts the list [2**64 - 1, 0] to another key.
    key = np.array([seed, index], dtype=np.uint64)
    ours, reference = sample_stream(seed, index), np.random.Generator(np.random.Philox(key=key))
    state = [json.dumps(g.bit_generator.state, default=np.ndarray.tolist) for g in (ours, reference)]
    assert state[0] == state[1]
    assert ours.bit_generator.state["state"]["key"].tolist() == [seed, index]
    assert not ours.bit_generator.state["state"]["counter"].any()
    assert np.array_equal(ours.standard_normal(1000).view(np.uint64), reference.standard_normal(1000).view(np.uint64))
    p = [0.1, 0.2, 0.3, 0.4]
    assert np.array_equal(ours.multinomial(12345, p), reference.multinomial(12345, p))


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
    "x,period,expected",
    [
        (math.pi - 0.5 * POLE_PHASE_ATOL, math.pi, True),
        (math.pi - 2.0 * POLE_PHASE_ATOL, math.pi, False),
        (2.0 * math.pi + 0.5 * POLE_PHASE_ATOL, math.pi, True),
        (2.0 * math.pi + 2.0 * POLE_PHASE_ATOL, math.pi, False),
        (4.0 * math.pi - 0.5 * POLE_PHASE_ATOL, 2.0 * math.pi, True),
        (4.0 * math.pi - 2.0 * POLE_PHASE_ATOL, 2.0 * math.pi, False),
        (1.5, math.pi, False),
        # k = 0 is no pole, however close x is to it.
        (0.0, math.pi, False),
        (0.5 * POLE_PHASE_ATOL, math.pi, False),
    ],
    ids=["inside-pi", "outside-pi", "inside-2pi", "outside-2pi", "inside-4pi", "outside-4pi", "between",
         "zero", "near-zero"],
)
def test_near_pole(x, period, expected):
    # Half the tolerance from a pole is on it, twice the tolerance is off it.
    assert near_pole(x, period) is expected


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
