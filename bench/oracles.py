"""Independent references for the benchmark's correctness checks.

Nothing here imports hamest. Each quantity is derived from the physics by a
route the library does not take, so a defect in the library cannot cancel
out of the comparison.
"""

import functools
import math

import numpy as np
from scipy import integrate, optimize, special

# A QFIM may differ from the closed form by the finite-difference Jacobian
# error of the custom model (about 3e-10 relative); 1e-7 leaves a wide margin
# yet catches any real formula error.
QFIM_RTOL = 1e-7
# Inverse quantities (covariances, variances) lose digits in proportion to
# the condition number of the QFIM, so their tolerance is QFIM_RTOL * cond(F).
INVERSE_RTOL = QFIM_RTOL
# A Monte Carlo mean passes when it lies within this many standard errors
# of the exact mean (two-sided false-alarm rate 6e-7 per call).
MC_SIGMAS = 5.0
# A simulated rep fails when its squared error exceeds this multiple of the
# planned V_m. Gaussian reps peak at 8x (plain) and 33x (--refine) over
# 20000 reps each, Bell m=1 reps at 11x over 25000; the Bell m=2 divergence
# puts 91 % of reps above 100x.
SIM_ERROR_MULTIPLE = 100.0


# A minimizer located from function values alone is only accurate to about
# sqrt(machine epsilon); the library's g0 sits 3e-9 from the exact root, which
# moves gain(g0)^m by about 1e-8. Planned V_m is compared to this tolerance.
PLANNED_RTOL = 1e-6


@functools.cache
def optimal_phase() -> float:
    """g0 = argmin 1/g + 2 g csc^2(g) on (0, pi), as the root of the
    derivative -1/g^2 + 2 csc^2(g) - 4 g cot(g) csc^2(g)."""
    return optimize.brentq(
        lambda g: -1.0 / g**2 + 2.0 / math.sin(g) ** 2 - 4.0 * g * math.cos(g) / math.sin(g) ** 3,
        1.0,
        1.6,
        xtol=1e-15,
        rtol=1e-15,
    )


def contraction_gain() -> float:
    g = optimal_phase()
    return 1.0 / (4.0 * g * g) + 0.5 / math.sin(g) ** 2


def planned_v_m(beta, n: int, m: int) -> float:
    """Planned endpoint variance |beta|^2 (gain(g0) / n)^m of the schedule
    seeded by the true field."""
    v0 = float(np.dot(beta, beta))
    return v0 * (contraction_gain() / n) ** m


@functools.cache
def deviation_moment(q: float) -> float:
    """E[D^q] for D = (Z1^2 + a (Z2^2 + Z3^2)) / (2a + 1), a = g0^2 csc^2(g0).

    Y = Z2^2 + Z3^2 is exponential with mean 2, so E[(z^2 + a Y)^q] is an
    upper incomplete gamma function in closed form; the remaining average
    over Z1 = z is one quadrature.
    """
    g = optimal_phase()
    a = g * g / math.sin(g) ** 2
    s = 2.0 * a + 1.0
    gamma_q = special.gamma(q + 1.0)

    def integrand(z):
        x = z * z / (2.0 * a)
        # (2a)^q e^x Gamma(q+1, x) times the half-normal density of z,
        # with e^x folded into the Gaussian factor so nothing overflows.
        return (
            (2.0 * a) ** q
            * gamma_q
            * special.gammaincc(q + 1.0, x)
            * math.exp(x - 0.5 * z * z)
            * math.sqrt(2.0 / math.pi)
        )

    val, _ = integrate.quad(integrand, 0.0, 40.0, epsabs=1e-14, epsrel=1e-12, limit=200)
    return val / s**q


def penalty_moments(m: int) -> tuple[float, float]:
    """Exact E[R] and E[R^2] of the whole-process penalty
    R = prod_{k=2..m} D_k^(1 / 2^(m-k+1)) with independent D_k."""
    exps = [1.0 / 2.0 ** (m - k + 1) for k in range(2, m + 1)]
    mean = math.prod(deviation_moment(p) for p in exps)
    second = math.prod(deviation_moment(2.0 * p) for p in exps)
    return mean, second


# Parameterizations with analytic Jacobians J[i][j] = d f_i / d alpha_j.


def pauli_map(a):
    return np.asarray(a, dtype=float)


def pauli_jac(a):
    return np.eye(3)


def btp_map(a):
    b, th, ph = a
    return b * np.array([math.cos(th) * math.cos(ph), math.cos(th) * math.sin(ph), math.sin(th)])


def btp_jac(a):
    b, th, ph = a
    ct, st, cp, sp = math.cos(th), math.sin(th), math.cos(ph), math.sin(ph)
    return np.array(
        [
            [ct * cp, -b * st * cp, -b * ct * sp],
            [ct * sp, -b * st * sp, b * ct * cp],
            [st, b * ct, 0.0],
        ]
    )


def custom_map(a):
    """A nonlinear map the library only sees as a black box, so it takes the
    finite-difference Jacobian path."""
    return np.array([a[0] + 0.3 * math.sin(a[1]), a[1] + 0.2 * a[2] ** 2, a[2] - 0.25 * a[0] * a[1]])


def custom_jac(a):
    return np.array(
        [
            [1.0, 0.3 * math.cos(a[1]), 0.0],
            [0.0, 1.0, 0.4 * a[2]],
            [-0.25 * a[1], -0.25 * a[0], 1.0],
        ]
    )


PARAMETERIZATIONS = {
    "pauli": (pauli_map, pauli_jac),
    "btp": (btp_map, btp_jac),
    "custom": (custom_map, custom_jac),
}


def qfim_reference(model: str, alpha, t: float) -> np.ndarray:
    """Entangled-probe QFIM in the original parameters: the Pauli-coordinate
    closed form 4 [t^2 P + sin^2(|b| t) / |b|^2 (I - P)], P = b b^T / |b|^2,
    pulled back through the analytic Jacobian as J^T F J."""
    fmap, jmap = PARAMETERIZATIONS[model]
    b = fmap(alpha)
    bn = float(np.linalg.norm(b))
    p = np.outer(b, b) / (bn * bn)
    f_beta = 4.0 * (t * t * p + (math.sin(bn * t) / bn) ** 2 * (np.eye(3) - p))
    jac = jmap(alpha)
    return jac.T @ f_beta @ jac


def gap(model: str, alpha) -> float:
    fmap, _ = PARAMETERIZATIONS[model]
    return 2.0 * float(np.linalg.norm(fmap(alpha)))
