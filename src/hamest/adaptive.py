"""Adaptive scheduling of evolution times for gap-driven estimation.

One adaptive iteration evolves for a time t chosen from the current gap
uncertainty, measures n copies, and feeds the refined estimate back as a
control. The expected gap-squared uncertainty obeys

    dE2_next = (1 / (n t)) * (1 / t + 2 t w^2 csc^2(w t)),   w = sqrt(dE2) / 2,

and choosing w t = g0, the minimizer of 1/g + 2 g csc^2(g) on (0, pi), gives
the contraction dE2_next = gain(g0) / n * dE2 per iteration. The schedule
planner expands that recursion, tracks the total evolution time, and compares
the endpoint against a time-matched optimal-control baseline.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Covariance3, inverse_jacobian
from .errors import DegenerateInput, DivergentTime, DomainError, NoContraction
from .util import check_phase, check_trials, csc_squared, first_outside, near_pole, row_norms

# The objective has one minimum on (0, pi), at g0 ~ 1.2986: this bracket
# holds it with the objective larger at both ends.
G0_BRACKET = (1.25, 4.0 / 3.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _objective(g: float) -> float:
    return 1.0 / g + 2.0 * g * csc_squared(g)


def gain(x):
    """Contraction kernel G(x) = 1 / (4 x^2) + csc^2(x) / 2 on (0, pi): a float
    for a float x, elementwise for an array, bit for bit the same."""
    bad = first_outside(x, 0.0, math.pi)
    if bad is not None:
        raise DomainError(f"gain argument must lie in (0, pi), got {bad}")
    # A float takes the array route as a 0-d array: below x ~ 1.6e-162, x^2 is
    # 0, which a Python float division raises on. Below x ~ 7.5e-155, csc^2(x)
    # ~ 1 / x^2 overflows, or divides by 0, to inf.
    a = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        g = 1.0 / (4.0 * a * a) + 0.5 * csc_squared(a)
    return g if isinstance(x, np.ndarray) else float(g)


def solve_g0(tolerance: float = 1e-10) -> float:
    """Locate the optimal phase g0 = argmin 1/g + 2 g csc^2(g).

    Golden-section search narrows G0_BRACKET to the requested tolerance.
    """
    if not 1e-12 <= tolerance <= 1e-3:
        raise DomainError(f"tolerance must lie in [1e-12, 1e-3], got {tolerance}")
    a, b = G0_BRACKET
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = _objective(c), _objective(d)
    while b - a > tolerance:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = _objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = _objective(d)
    return 0.5 * (a + b)


@functools.cache
def g0() -> float:
    """The optimal phase, solved once to 1e-12 and cached."""
    return solve_g0(1e-12)


def deviation_weight() -> float:
    """a = g0^2 csc^2(g0), the transverse weight of the optimal iteration."""
    g = g0()
    return g * g * csc_squared(g)


@dataclass(frozen=True)
class AxialCovariance:
    """Covariance a P_par + b P_perp, axial about the unit vectors u: P_par = u u^T
    and P_perp = I - P_par. For a stack, a and b have its shape (...), u (..., 3)."""

    a: np.ndarray
    b: np.ndarray
    u: np.ndarray

    @property
    def m(self) -> np.ndarray:
        """The covariance as a matrix, or a stack of them of shape (..., 3, 3)."""
        p_par = self.u[..., :, None] * self.u[..., None, :]
        return self.a[..., None, None] * p_par + self.b[..., None, None] * (np.eye(3) - p_par)


def iteration_covariance(delta_beta, n, t) -> AxialCovariance:
    """Covariance of one iteration's estimate of the residual field delta_beta.

    C = a P_par + b P_perp,  a = 1 / (4n t^2),  b = w^2 csc^2(w t) / (4n),
    w = |delta_beta|, with P_par the projector onto the residual direction u.
    A stack of residuals (..., 3), with n and t scalars or of shape (...), gives
    a and b of shape (...) and u of shape (..., 3).
    """
    delta_beta = np.asarray(delta_beta, dtype=float)
    n, t = np.asarray(n), np.asarray(t, dtype=float)
    if delta_beta.shape[-1:] != (3,) or not np.all(np.isfinite(delta_beta)):
        raise DomainError("delta_beta must be a finite 3-vector")
    if not np.all(t > 0.0):
        raise DomainError(f"evolution time must be positive, got {np.min(t)}")
    check_trials(n)
    # Every entry is computed; a zero residual, a bad phase or an overflow is rejected after.
    with np.errstate(all="ignore"):
        w = row_norms(delta_beta)
        x = w * t
        a = 1.0 / (4.0 * n * t * t)
        b = w * w * csc_squared(x) / (4.0 * n)
        u = delta_beta / w[..., None]
        pole = near_pole(x, math.pi)
    if np.any(w == 0.0):
        raise DegenerateInput("residual field vanishes; direction is undefined")
    check_phase(float(np.max(x)))
    if np.any(pole):
        raise DivergentTime(f"w * t = {x[pole][0]:.12g} sits on a multiple of pi; covariance diverges")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("iteration covariance is not finite; the field or time is too large")
    return AxialCovariance(a=a, b=b, u=u)


def expected_dE2_next(total_time: float, t: float, dE2: float) -> float:
    """Expected gap-squared uncertainty after one iteration.

    The iteration spends a total evolution time total_time = n t split into
    trials of duration t each, so the value is

        (1 / total_time) * (1 / t + 2 t w^2 csc^2(w t)),   w = sqrt(dE2) / 2.
    """
    if not dE2 > 0.0:
        raise DomainError(f"gap-squared uncertainty must be positive, got {dE2}")
    if not t > 0.0:
        raise DomainError(f"evolution time must be positive, got {t}")
    if total_time < t:
        raise DomainError("total time cannot be shorter than a single trial")
    w = math.sqrt(dE2) / 2.0
    check_phase(w * t)
    if near_pole(w * t, math.pi):
        raise DivergentTime(f"w * t = {w * t:.12g} sits on a multiple of pi; no information accrues")
    return (1.0 / t + 2.0 * t * w * w * csc_squared(w * t)) / total_time


def optimal_time(dE2: float) -> float:
    """Evolution time 2 g0 / sqrt(dE2) that maximizes the contraction."""
    if not dE2 > 0.0:
        raise DomainError(f"gap-squared uncertainty must be positive, got {dE2}")
    return 2.0 * g0() / math.sqrt(dE2)


def recursion(dE2: float, n: int) -> float:
    """One planned contraction step: dE2 -> gain(g0) / n * dE2.

    This is expected_dE2_next evaluated at the optimal time with n trials;
    the seed value for a field of strength beta0 is dE2_1 = 4 |beta0|^2.
    """
    if not dE2 > 0.0:
        raise DomainError(f"gap-squared uncertainty must be positive, got {dE2}")
    check_trials(n)
    return gain(g0()) / n * dE2


@dataclass(frozen=True)
class IterationRecord:
    k: int
    n: int
    t: float
    dE2_mean: float
    dE2_next: float
    v_k: float


@dataclass(frozen=True)
class AdaptiveSchedule:
    """Planned iteration schedule and its endpoint accounting.

    v0 is the initial variance scale (dE2_1 = 4 v0). v_m is the planned
    endpoint (gain / n)^m v0; exact_v re-derives it from the total parallel
    time t_tot and must agree; large_n_v is the large-budget 1/T^2
    approximation of that relation. v_oc is the optimal-control baseline
    spending the identical time budget, and ratio = v_m / v_oc.
    """

    v0: float
    n: int
    m: int
    target_v: float | None
    g0: float
    records: tuple
    v_m: float
    t_tot: float
    t_tot_sequential: float
    exact_v: float
    large_n_v: float
    v_oc: float
    ratio: float
    asymptotic_ratio: float


def optimal_control_baseline(n: int, t: float) -> tuple[Covariance3, float]:
    """Covariance I / (4 n t^2) and total variance 3 / (4 n t^2) of the
    time-optimal control strategy, which saturates the isotropic bound."""
    check_trials(n)
    if not t > 0.0:
        raise DomainError(f"evolution time must be positive, got {t}")
    scale = 1.0 / (4.0 * n * t * t)
    return Covariance3(m=scale * np.eye(3)), 3.0 * scale


def _check_normal(name: str, v: float) -> None:
    # The ratio v_m / v_oc needs both as positive normal floats.
    if not np.finfo(float).tiny <= v < math.inf:
        raise DomainError(f"schedule underflows: {name} = {v} is not a positive normal float")


def plan_schedule(
    v0: float,
    n: int,
    target_v: float | None = None,
    target_m: int | None = None,
) -> AdaptiveSchedule:
    """Expand the adaptive recursion from v0 for n trials per iteration.

    Exactly one of target_v (precision goal, sets m by ceiling) and target_m
    (iteration count) must be given. Each iteration runs at the optimal time
    for its incoming uncertainty; the ceiling can overshoot target_v, in
    which case the full iterations run and v_m reports the overshoot. The
    first v_k that is not a positive normal float raises DomainError, so a
    schedule ends where V_m leaves the float range, whatever target_m asks.
    """
    # 4 * v0 is the first gap-squared uncertainty; past ~4.5e307 it overflows.
    if not 0.0 < 4.0 * v0 < math.inf:
        raise DomainError(f"initial variance must be positive with 4 * v0 finite, got {v0}")
    g = g0()
    if not n > gain(g):
        raise NoContraction(
            f"need n > {gain(g):.4f} trials per iteration, got {n}"
        )
    check_trials(n)
    if (target_v is None) == (target_m is None):
        raise DomainError("exactly one of target_v and target_m must be given")
    contraction = gain(g) / n
    if target_m is not None:
        if target_m < 1:
            raise DomainError("iteration count must be >= 1")
        m = int(target_m)
    else:
        if not 0.0 < target_v < v0:
            raise DomainError("target variance must lie in (0, v0)")
        # A difference of logs: the quotient target_v / v0 can underflow to 0.
        m = math.ceil((math.log(target_v) - math.log(v0)) / math.log(contraction))
        m = max(m, 1)

    records = []
    dE2 = 4.0 * v0
    for k in range(1, m + 1):
        t_k = optimal_time(dE2)
        dE2_next = recursion(dE2, n)
        v_k = dE2_next / 4.0
        # The v_k fall with k, so a schedule stops at its first underflow.
        _check_normal(f"v_{k}", v_k)
        records.append(IterationRecord(k=k, n=n, t=t_k, dE2_mean=dE2, dE2_next=dE2_next, v_k=v_k))
        dE2 = dE2_next

    v_m = records[-1].v_k
    t_par = sum(r.t for r in records)
    t_seq = sum(r.n * r.t for r in records)
    rho = math.sqrt(n / gain(g))
    # contraction = rho^-2; written in rho^-m, the relation cannot overflow.
    exact_v = (g * (1.0 - rho**-m) / (rho - 1.0)) ** 2 / (t_par * t_par)
    # Large-budget 1/T^2 form: drop only the rho^-m term of the exact
    # relation. Keeping the (rho - 1) prefactor keeps the approximation
    # within 1% of exact_v once sqrt(n / gain) >= 10 and m >= 3.
    large_n_v = (g / (rho - 1.0)) ** 2 / (t_par * t_par)
    sum_t_sq = sum(r.t * r.t for r in records)
    _, v_oc = optimal_control_baseline(n, math.sqrt(sum_t_sq))
    _check_normal("v_oc", v_oc)
    asymptotic = 4.0 * g * g * gain(g) / 3.0
    return AdaptiveSchedule(
        v0=float(v0),
        n=int(n),
        m=m,
        target_v=target_v,
        g0=g,
        records=tuple(records),
        v_m=v_m,
        t_tot=t_par,
        t_tot_sequential=t_seq,
        exact_v=exact_v,
        large_n_v=large_n_v,
        v_oc=v_oc,
        ratio=v_m / v_oc,
        asymptotic_ratio=asymptotic,
    )


@dataclass(frozen=True)
class AlphaVarianceBounds:
    """Per-parameter variance bounds after mapping back through the Jacobian."""

    mu_max: np.ndarray
    nu_max: np.ndarray
    upper: np.ndarray
    lower_oc: np.ndarray
    kappa: float
    combined_factor: float
    headline_factor: float


def alpha_variance_bounds(jac, v_m: float, v_oc: float) -> AlphaVarianceBounds:
    """Bound the original-parameter variances of both strategies.

    With K = J^{-1}, mu_max_i = max_{r != s} |K_ir K_is| and
    nu_max_i = max_r K_ir^2. The adaptive endpoint satisfies

        C_ii <= (2 mu_max_i (A - 1) / (1 + 2A) + nu_max_i) v_m,

    the baseline satisfies C_oc_ii >= nu_max_i v_oc / 3, and combining them
    through mu_max_i <= nu_max_i gives the parameter-independent factor
    (12A - 3) / (1 + 2A) * kappa with kappa = v_m / v_oc. At the matched
    budget kappa = (1 + 2A) / 3 the factor collapses to 4A - 1.
    """
    k_inv = inverse_jacobian(jac)
    if not v_m > 0.0 or not v_oc > 0.0:
        raise DomainError("variance scales must be positive")
    # Rounding is monotone, so the largest products come from the largest |K_ir|.
    top = np.sort(np.abs(k_inv), axis=1)
    nu_max, mu_max = top[:, 2] ** 2, top[:, 2] * top[:, 1]
    a = deviation_weight()
    upper = (2.0 * mu_max * (a - 1.0) / (1.0 + 2.0 * a) + nu_max) * v_m
    lower_oc = nu_max * v_oc / 3.0
    kappa = v_m / v_oc
    combined = (12.0 * a - 3.0) / (1.0 + 2.0 * a) * kappa
    return AlphaVarianceBounds(
        mu_max=mu_max,
        nu_max=nu_max,
        upper=upper,
        lower_oc=lower_oc,
        kappa=kappa,
        combined_factor=combined,
        headline_factor=4.0 * a - 1.0,
    )
