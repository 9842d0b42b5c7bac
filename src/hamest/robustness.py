"""Robustness of the adaptive schedule to control-parameter errors.

When the compensating control carries a random error, the realized residual
gap-squared after an iteration is a random multiple D of its ideal value.
For isotropic Gaussian control errors at the optimal operating point,

    D = (Z1^2 + a (Z2^2 + Z3^2)) / (2a + 1),   a = g0^2 csc^2(g0),

with Z_i iid standard normal, so E[D] = 1. The per-iteration penalty and the
whole-process penalty under re-optimized times are closed-form in the D_k,
and the Monte Carlo driver estimates how often the full process comes out
ahead of the ideal plan. It keeps one array of penalties and summarizes it
in place: the mean in draw order, then one sort, from which the deciles
(numpy's linear rule) and the count below 1 are read.

robustness_mc draws its blocks on the calling thread and, where the process
may run on two or more CPUs, on one helper thread that lives as long as the
process: numpy releases the GIL while it fills the normals and runs the log
and exp loops, and each block has its own keyed stream and its own slice of
the penalties. The summary is read only after the last block, so it keeps every
bit whatever thread drew which block.
"""

import math
import os
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .adaptive import deviation_weight, g0, gain
from .errors import DomainError
from .util import KeyedStream, check_seed, first_outside

# Samples per block of robustness_mc. Each block has its own keyed stream, so
# this size is part of the seeded output of `robustness total`.
MC_BLOCK = 4096
# Largest Monte Carlo size, 100 times the README's 1e6. The ratios are the one
# array that grows with the samples, 8 bytes each: `robustness total --m 4`
# peaked at 44 MB RSS for 1e6 samples and 113 MB for 1e7 (x86-64, Python 3.11,
# numpy 2.4), so about 0.8 GB here by extrapolation.
MC_MAX_SAMPLES = 10**8
# Largest iteration count: 2^(m - 1), the inverse weight of D_2, stays a float,
# and one block of normals takes MC_BLOCK * 3 * (m - 1) floats, 100 MB at 1024.
# With two blocks in flight, each with its factors formed beside its normals,
# `robustness total --m 1024 --samples 10000` peaked at 271-283 MB RSS.
MC_MAX_ITERATIONS = 1024
# The levels of the nine deciles that robustness_mc reports.
_DECILE_LEVELS = np.arange(0.1, 0.95, 0.1).tolist()


@dataclass(frozen=True)
class DeviationParams:
    """Constants of the deviation-factor law: weight a, normalizer s = 2a + 1,
    and the erf argument scale c = (2a - 1 - 1/a) / 2."""

    a: float
    s: float
    c: float


@dataclass(frozen=True)
class RobustnessSummary:
    m: int
    samples: int
    seed: int
    mean: float
    p_below_one: float
    deciles: tuple


def deviation_params() -> DeviationParams:
    a = deviation_weight()
    return DeviationParams(a=a, s=2.0 * a + 1.0, c=(2.0 * a - 1.0 - 1.0 / a) / 2.0)


def deviation_pdf(d):
    """Density of the deviation factor, f(d) = s e^{-s d / 2a} erf(sqrt(c d))
    / (2 sqrt(a (a - 1))); zero for d <= 0, NaN for NaN. A float for a float
    d, elementwise for an array."""
    p = deviation_params()
    pref = p.s / (2.0 * math.sqrt(p.a * (p.a - 1.0)))
    arr = np.asarray(d, dtype=float)
    # numpy has no erf, so each point takes math.exp and math.erf as a float.
    pdf = [
        0.0 if x <= 0.0 else pref * math.exp(-p.s * x / (2.0 * p.a)) * math.erf(math.sqrt(p.c * x))
        for x in arr.ravel().tolist()
    ]
    return pdf[0] if arr.ndim == 0 else np.reshape(pdf, arr.shape)


def ratio_single(d):
    """Variance penalty of one iteration whose time was planned before the
    control error: R(D) = D gain(sqrt(D) g0) / gain(g0) for D in
    (0, (pi / g0)^2). The planned phase sqrt(D) g0 must stay below pi. A
    float for a float D, elementwise for an array, bit for bit the same; an
    array raises on its first point outside the domain."""
    g = g0()
    d_max = (math.pi / g) ** 2
    bad = first_outside(d, 0.0, d_max)
    if bad is not None:
        raise DomainError(f"deviation factor must lie in (0, {d_max:.6f}), got {bad}")
    root = np.sqrt(d) if isinstance(d, np.ndarray) else math.sqrt(d)
    r = d * gain(root * g) / gain(g)
    # Below D ~ 3.3e-309, csc^2(x) ~ 1 / x^2 in gain(sqrt(D) g0) overflows to
    # inf, though R(D) tends to 3 / (4 g0^2 gain(g0)) as D -> 0.
    overflow = np.isinf(r)
    if np.any(overflow):
        tiny = np.asarray(d)[overflow].tolist()[0]
        raise DomainError(f"R(D) overflows for D below about 3.3e-309, got {tiny!r}")
    return r


def modified_recursion(dE2: float, d: float, total_time: float) -> float:
    """Expected gap-squared uncertainty after an iteration whose time was
    re-optimized to the realized residual: (2 g0 gain(g0) / T) sqrt(D dE2)."""
    if not dE2 > 0.0:
        raise DomainError(f"gap-squared uncertainty must be positive, got {dE2}")
    if not d > 0.0:
        raise DomainError(f"deviation factor must be positive, got {d}")
    if not total_time > 0.0:
        raise DomainError(f"total time must be positive, got {total_time}")
    g = g0()
    return 2.0 * g * gain(g) / total_time * math.sqrt(d * dE2)


def _sorted_deciles(s: np.ndarray) -> tuple:
    """The nine deciles of the ascending array s, n >= 2, by numpy's default
    linear rule (Hyndman and Fan type 7), bit for bit what np.quantile gives.

    Level q sits at position v = (n - 1) q between s[floor(v)] and the next
    value, and the two combine as numpy's _lerp does: a + (b - a) g, or
    b - (b - a)(1 - g) where the fraction g is at least 1/2."""
    last = s.size - 1
    deciles = []
    for q in _DECILE_LEVELS:
        v = last * q
        i = math.floor(v)
        a, b = s[i : i + 2].tolist()
        g = v - i
        deciles.append(b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g)
    return tuple(deciles)


class _Blocks:
    """Blocks 0 .. count - 1 of one robustness_mc call, which the calling thread
    and the helper thread claim in turn from one counter. Block 0 is the
    caller's. The caller waits only for blocks the helper has claimed, so a
    helper that never runs (its thread is gone in a fork child, say) leaves
    the caller to draw every block itself."""

    def __init__(self, count, draw):
        self._turn = threading.Condition(threading.Lock())
        self._draw = draw
        self._count = count
        self._next = 1
        self._helping = 0  # blocks the helper has claimed and not yet drawn
        self._error = None

    def _claim(self, by_helper):
        with self._turn:
            b = self._next
            if b >= self._count:
                return None
            self._next = b + 1
            self._helping += by_helper
            return b

    def help(self):
        """Draw unclaimed blocks on the helper thread. The first exception a
        block raises stops the claims and goes to the caller, which raises it."""
        while (b := self._claim(True)) is not None:
            error = None
            try:
                self._draw(b)
            except BaseException as exc:  # raised again on the calling thread by run()
                error = exc
            with self._turn:
                self._helping -= 1
                if error is not None:
                    self._error, self._next = error, self._count
                self._turn.notify()

    def run(self):
        """Draw block 0, then unclaimed blocks, on the calling thread; return when
        every block the helper claimed is drawn, raising what a block raised."""
        try:
            b = 0
            while b is not None:
                self._draw(b)
                b = self._claim(False)
        finally:
            with self._turn:
                self._next = self._count
                self._turn.wait_for(lambda: not self._helping)
            self._draw = None  # a job still queued for the helper keeps no ratios
        if self._error is not None:
            raise self._error


class _Helper:
    """A daemon thread that helps each _Blocks handed to it, in turn."""

    def __init__(self):
        self._ready = threading.Condition(threading.Lock())
        self._jobs = deque()
        self._thread = threading.Thread(target=self._serve, name="hamest-mc-helper", daemon=True)
        self._thread.start()

    def is_alive(self):
        return self._thread.is_alive()

    def submit(self, blocks):
        with self._ready:
            self._jobs.append(blocks)
            self._ready.notify()

    def _serve(self):
        while True:
            with self._ready:
                self._ready.wait_for(lambda: self._jobs)
                blocks = self._jobs.popleft()
            blocks.help()


# The process's one helper: at most two blocks are in flight in a call, which
# keeps the peak memory of robustness_mc within its tested bound.
_HELPER = None
_HELPER_START = threading.Lock()


def _helper():
    """The helper thread, started on first use and again in a fork child (whose
    copy of the thread is dead), or None where the process may run on one CPU."""
    global _HELPER
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if cpus < 2:
        return None
    with _HELPER_START:
        if _HELPER is None or not _HELPER.is_alive():
            _HELPER = _Helper()
        return _HELPER


def robustness_mc(m: int, samples: int, seed: int) -> RobustnessSummary:
    """Monte Carlo over control-error histories of the whole-process penalty.

    Block b holds samples [b MC_BLOCK, (b + 1) MC_BLOCK) and draws them in one
    call from the stream keyed by (seed, b), so the summary is reproducible bit
    for bit. A short last block draws a prefix of a full block's draws. The
    calling thread draws block 0 and shares the rest with the helper thread,
    if there is one; each block writes only its own slice of the ratios.

    The mean is numpy's pairwise sum over the ratios in draw order. The ratios
    are then sorted in place, once: the deciles are read off them by numpy's
    linear rule and p_below_one is the count below 1, each bit for bit what
    np.quantile and np.mean(ratios < 1) give, with no copy of the ratios.
    """
    if m < 2:
        raise DomainError("need m >= 2 iterations for any control error to act")
    if m > MC_MAX_ITERATIONS:
        raise DomainError(f"at most {MC_MAX_ITERATIONS} iterations, got {m}")
    if samples < 10000:
        raise DomainError("need at least 1e4 samples for a stable tail estimate")
    if samples > MC_MAX_SAMPLES:
        raise DomainError(f"at most {MC_MAX_SAMPLES} samples fit in memory, got {samples}")
    check_seed(seed)
    p = deviation_params()
    exponents = np.array([1.0 / 2.0 ** (m - k + 1) for k in range(2, m + 1)])
    draws = KeyedStream()
    ratios = np.empty(samples)

    def draw_block(b):
        start = b * MC_BLOCK
        stop = min(start + MC_BLOCK, samples)
        z = draws.standard_normal(seed, b, (stop - start, m - 1, 3))
        # D = (z0^2 + a (z1^2 + z2^2)) / s with no full-size temporary: the same
        # bits as the formula, since IEEE addition and multiplication commute.
        z *= z
        d = z[..., 1] + z[..., 2]
        d *= p.a
        d += z[..., 0]
        del z
        d /= p.s
        np.exp(np.vecdot(np.log(d, out=d), exponents), out=ratios[start:stop])

    blocks = _Blocks(-(-samples // MC_BLOCK), draw_block)
    helper = _helper()
    if helper is not None:
        helper.submit(blocks)
    blocks.run()
    # numpy's pairwise sum over the ratios in draw order, before the sort.
    mean = float(ratios.mean())
    ratios.sort()
    return RobustnessSummary(
        m=int(m),
        samples=int(samples),
        seed=int(seed),
        mean=mean,
        p_below_one=int(np.searchsorted(ratios, 1.0)) / ratios.size,
        deciles=_sorted_deciles(ratios),
    )
