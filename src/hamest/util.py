"""Small numeric helpers used by several modules."""

import numpy as np

from .errors import DomainError

# Below this |x| the direct csc^2 evaluation loses digits to cancellation in
# 1/sin^2(x) - 1/x^2 style combinations; the truncation error of the series
# is ~x^2/15, under 1e-9 at the threshold.
CSC2_SERIES_THRESHOLD = 1e-4


def csc_squared(x):
    """csc^2(x) with the small-argument series 1/x^2 + 1/3 below threshold."""
    if abs(x) < CSC2_SERIES_THRESHOLD:
        return 1.0 / (x * x) + 1.0 / 3.0
    s = np.sin(x)
    return 1.0 / (s * s)


def fd_step(value):
    """Central-difference step: 1e-6 * max(1, |value|)."""
    return 1e-6 * max(1.0, abs(value))


def check_seed(seed):
    """Reject a seed that cannot key a sample_stream (one uint64 word)."""
    if not 0 <= seed < 2**64:
        raise DomainError("seed must be an integer in [0, 2^64)")


def sample_stream(seed, index):
    """RNG stream keyed by (seed, index); index numbers a simulator rep or a
    Monte Carlo block. The generator is counter-based, so streams for distinct
    keys are independent and each can be redrawn on its own, in any order."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class KeyedStream:
    """sample_stream(seed, index).standard_normal(shape) under the span name the
    benchmark traces for the Monte Carlo draws; the tracer wraps plain methods only."""

    def standard_normal(self, seed, index, shape):
        return sample_stream(seed, index).standard_normal(shape)


def near_pole(x, period, tol):
    """True when x is within tol of k*period for some integer k >= 1."""
    if x < 0.5 * period:
        return False
    k = round(x / period)
    return k >= 1 and abs(x - k * period) < tol
