"""Small numeric helpers used by several modules."""

import math

import numpy as np

from .errors import DomainError

# Below this |x| the direct csc^2 evaluation loses digits to cancellation in
# 1/sin^2(x) - 1/x^2 style combinations; the truncation error of the series
# is ~x^2/15, under 1e-9 at the threshold.
CSC2_SERIES_THRESHOLD = 1e-4


def csc_squared(x):
    """csc^2(x) with the small-argument series 1/x^2 + 1/3 below threshold:
    elementwise for an array, a float for a float or a 0-d array."""
    # Both branches are evaluated; each entry keeps the one its size selects.
    # A float pays numpy's per-call cost too; g0() solves with it once per process.
    with np.errstate(divide="ignore", over="ignore"):
        s = np.sin(x)
        out = np.where(np.abs(x) < CSC2_SERIES_THRESHOLD, 1.0 / (x * x) + 1.0 / 3.0, 1.0 / (s * s))
    return float(out) if out.ndim == 0 else out


def first_outside(x, lo, hi):
    """The first entry of x outside the open interval (lo, hi), NaN included,
    or None: x itself for a float x, a float in C order for an array."""
    if isinstance(x, np.ndarray):
        outside = x[~((lo < x) & (x < hi))]
        return float(outside[0]) if outside.size else None
    return None if lo < x < hi else x


# Largest trial count: every count up to it is exact as a float.
MAX_TRIALS = 2**53


def check_trials(n) -> None:
    """Reject a trial count, or an array of them, that is not an integer in
    [1, MAX_TRIALS]. The simulator holds its counts as floats, so a float
    with an integer value counts as an integer."""
    # Exact for every numeric dtype, and in Python for an int of any size; NaN and inf fail, with no warning.
    if isinstance(n, np.ndarray) and n.dtype.kind in "biuf":
        ok = np.all((1 <= n) & (n <= MAX_TRIALS) & (np.floor(n) == n))
    else:
        counts = n.ravel().tolist() if isinstance(n, np.ndarray) else [n]
        ok = all(1 <= v <= MAX_TRIALS and v % 1 == 0 for v in counts)
    if not ok:
        raise DomainError("trial count must be an integer in [1, 2^53]")


def row_norms(x):
    """Euclidean norm over the last axis of x: sqrt(x . x), or hypot, which scales as
    it goes, where x . x is subnormal or overflows (|row| outside about 1e-154 .. 1e154)."""
    with np.errstate(over="ignore"):
        sq = np.vecdot(x, x)
    off = (sq < 2.0**-1022) | (sq == math.inf)
    return np.where(off, np.hypot.reduce(x, axis=-1), np.sqrt(sq))[()] if np.any(off) else np.sqrt(sq)


def fd_step(value):
    """Central-difference step: 1e-6 * max(1, |value|)."""
    return 1e-6 * max(1.0, abs(value))


def check_seed(seed):
    """Reject a seed that cannot key a sample_stream (one uint64 word)."""
    if not 0 <= seed < 2**64:
        raise DomainError("seed must be an integer in [0, 2^64)")


def sample_stream(seed, index):
    """RNG stream keyed by (seed, index); index numbers a simulator measurement
    or a Monte Carlo block. The generator is counter-based, so streams for distinct
    keys are independent and each can be redrawn on its own, in any order.

    The key is passed as a uint64 array: numpy converts a Python list such as
    [2**64 - 1, 0] with a warning and to a different key."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


class KeyedStream:
    """sample_stream(seed, index).standard_normal(shape) under the span name the
    benchmark traces for the Monte Carlo draws; the tracer wraps plain methods only."""

    def standard_normal(self, seed, index, shape):
        return sample_stream(seed, index).standard_normal(shape)


# The policy of every reader of a phase modulo its period: a phase within
# POLE_PHASE_ATOL of k * period, k >= 1, is on a pole; one whose float spacing
# exceeds PHASE_SPACING_LIMIT (a millionth of 2 pi) has no usable position.
POLE_PHASE_ATOL = 1e-9
PHASE_SPACING_LIMIT = 2.0 * math.pi * 1e-6


def near_pole(x, period):
    """True where x is within POLE_PHASE_ATOL of k*period for some integer k >= 1: a bool
    for a float x, a boolean mask for an array."""
    k = (x / period + 0.5) // 1.0
    return (k >= 1) & (abs(x - k * period) < POLE_PHASE_ATOL)


def check_phase(x: float) -> None:
    """Reject a phase that floats cannot resolve within its period, inf and NaN
    included. The spacing grows with |x|, so an array caller passes its largest."""
    if not math.ulp(x) <= PHASE_SPACING_LIMIT:
        raise DomainError(f"phase {x!r} is beyond float resolution: spacing {math.ulp(x):.3g} > 2 pi * 1e-6")
