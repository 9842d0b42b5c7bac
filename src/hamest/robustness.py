"""Robustness of the adaptive schedule to control-parameter errors.

When the compensating control carries a random error, the realized residual
gap-squared after an iteration is a random multiple D of its ideal value.
For isotropic Gaussian control errors at the optimal operating point,

    D = (Z1^2 + a (Z2^2 + Z3^2)) / (2a + 1),   a = g0^2 csc^2(g0),

with Z_i iid standard normal, so E[D] = 1. The per-iteration penalty and the
whole-process penalty under re-optimized times are closed-form in the D_k,
and the Monte Carlo driver estimates how often the full process comes out
ahead of the ideal plan.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adaptive import deviation_weight, g0, gain
from .errors import DomainError
from .util import KeyedStream, check_seed

# Samples per block of robustness_mc. Each block has its own keyed stream, so
# this size is part of the seeded output of `robustness total`.
MC_BLOCK = 4096


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


def _deviation_factors(z: np.ndarray, p: DeviationParams):
    """D = (z0^2 + a (z1^2 + z2^2)) / s over the last axis of standard normals z."""
    return (z[..., 0] * z[..., 0] + p.a * (z[..., 1] * z[..., 1] + z[..., 2] * z[..., 2])) / p.s


def sample_deviation(rng: np.random.Generator) -> float:
    """Draw one deviation factor D from the control-error law."""
    return _deviation_factors(rng.standard_normal(3), deviation_params())


def deviation_pdf(d):
    """Density of the deviation factor, f(d) = s e^{-s d / 2a} erf(sqrt(c d))
    / (2 sqrt(a (a - 1))); zero for d <= 0. Accepts scalars or arrays."""
    p = deviation_params()
    pref = p.s / (2.0 * math.sqrt(p.a * (p.a - 1.0)))

    def _scalar(x: float) -> float:
        if x <= 0.0:
            return 0.0
        return pref * math.exp(-p.s * x / (2.0 * p.a)) * math.erf(math.sqrt(p.c * x))

    arr = np.asarray(d, dtype=float)
    if arr.ndim == 0:
        return _scalar(float(arr))
    out = np.empty(arr.shape)
    flat_in = arr.ravel()
    flat_out = out.ravel()
    for i in range(flat_in.size):
        flat_out[i] = _scalar(float(flat_in[i]))
    return out


def ratio_single(d: float) -> float:
    """Variance penalty of one iteration whose time was planned before the
    control error: R(D) = D gain(sqrt(D) g0) / gain(g0) for D in
    (0, (pi / g0)^2). The planned phase sqrt(D) g0 must stay below pi."""
    g = g0()
    d_max = (math.pi / g) ** 2
    if not 0.0 < d < d_max:
        raise DomainError(f"deviation factor must lie in (0, {d_max:.6f}), got {d}")
    return d * gain(math.sqrt(d) * g) / gain(g)


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


def ratio_total(deviations) -> float:
    """Whole-process variance penalty after m re-optimized iterations:

        R_tot = prod_k D_k^(1 / 2^(m - k + 1)).

    deviations holds (D_1, ..., D_m) with D_1 = 1 (the first iteration has no
    control to err on)."""
    devs = np.asarray(deviations, dtype=float)
    if devs.ndim != 1 or devs.size < 1:
        raise DomainError("deviations must be a nonempty 1-d sequence")
    if abs(devs[0] - 1.0) > 1e-9:
        raise DomainError(f"the first deviation factor must be 1, got {devs[0]}")
    if not np.all(devs > 0.0):
        raise DomainError("deviation factors must be positive")
    m = devs.size
    log_total = 0.0
    for k in range(1, m + 1):
        log_total += math.log(devs[k - 1]) / 2.0 ** (m - k + 1)
    return math.exp(log_total)


def robustness_mc(m: int, samples: int, seed: int) -> RobustnessSummary:
    """Monte Carlo over control-error histories of the whole-process penalty.

    Block b holds samples [b MC_BLOCK, (b + 1) MC_BLOCK) and draws them in one
    call from the stream keyed by (seed, b), so the summary is reproducible bit
    for bit. A short last block draws a prefix of a full block's draws.
    """
    if m < 2:
        raise DomainError("need m >= 2 iterations for any control error to act")
    if samples < 10000:
        raise DomainError("need at least 1e4 samples for a stable tail estimate")
    check_seed(seed)
    p = deviation_params()
    exponents = np.array([1.0 / 2.0 ** (m - k + 1) for k in range(2, m + 1)])
    draws = KeyedStream()
    ratios = np.empty(samples)
    for b, start in enumerate(range(0, samples, MC_BLOCK)):
        stop = min(start + MC_BLOCK, samples)
        z = draws.standard_normal(seed, b, (stop - start, m - 1, 3))
        d = _deviation_factors(z, p)
        ratios[start:stop] = np.exp(np.vecdot(np.log(d), exponents))
    deciles = tuple(float(q) for q in np.quantile(ratios, np.arange(0.1, 0.95, 0.1)))
    return RobustnessSummary(
        m=int(m),
        samples=int(samples),
        seed=int(seed),
        mean=float(ratios.mean()),
        p_below_one=float(np.mean(ratios < 1.0)),
        deciles=deciles,
    )
