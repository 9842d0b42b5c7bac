"""Closed-form estimation variances from the spectral data of the model.

Everything here is built from five gauge-invariant ingredients evaluated at
the working point: the level derivatives dE_l/d alpha_i (Hellmann-Feynman),
the gap derivatives d_i = d(dE)/d alpha_i, and the real and imaginary parts
(mu, nu) of <E0|d_i E1> from first-order perturbation theory.

The per-parameter variance of the saturating estimator is

    v_i(t) = (csc^2(dE t / 2) t^2 xi1_i + xi2_i) / (n t^2 xi3)

which equals the i-th diagonal element of (n F)^{-1} exactly. The xi
coefficients are polynomial in (mu, nu, d) and independent of both the
eigenvector phase gauge and the labeling order of the other two parameters.
"""

from dataclasses import dataclass

import numpy as np

from .core import HamiltonianModel, model_evaluate, spectral_decompose
from .errors import DegenerateSpectrum, DivergentTime, DomainError, SingularQfim
from .util import check_phase, csc_squared, near_pole
from .qfim import _spectral_derivatives, covariance_from_qfim, qfim_entangled

DEGENERACY_RTOL = 1e-10
# The xi coefficients are quartic in the overlaps <E0|d_i E1> ~ |d_i H| / dE;
# past this size they overflow, so the gap is numerically zero.
OVERLAP_LIMIT = 1e50
TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SpectralSensitivities:
    """Derivatives of the spectral data with respect to the model parameters.

    dE has shape (2, 3): row l holds dE_l/d alpha_i for the upper (l = 0) and
    lower (l = 1) level. dgap, mu, nu have shape (3,).
    """

    dE: np.ndarray
    dgap: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    gap: float


@dataclass(frozen=True)
class XiCoefficients:
    xi1: np.ndarray
    xi2: np.ndarray
    xi3: float


@dataclass(frozen=True)
class VarianceCurveRow:
    t: float
    v1: float
    v2: float
    v3: float
    envelope: float
    infimum: float
    flag: str


def spectral_sensitivities(model: HamiltonianModel, alpha) -> SpectralSensitivities:
    """Hellmann-Feynman level derivatives and perturbative overlaps at alpha."""
    ev = model_evaluate(model, alpha)
    spec = spectral_decompose(ev.h)
    scale = max(abs(spec.e0), abs(spec.e1))
    if spec.gap <= DEGENERACY_RTOL * scale or spec.gap == 0.0:
        raise DegenerateSpectrum(
            f"spectral gap {spec.gap:.3e} too small relative to |H| = {scale:.3e}"
        )
    dE, c01 = _spectral_derivatives(ev, spec)
    if np.max(np.abs(c01)) > OVERLAP_LIMIT:
        raise DegenerateSpectrum(
            f"spectral gap {spec.gap:.3e} too small: perturbative overlaps exceed {OVERLAP_LIMIT:.0e}"
        )
    return SpectralSensitivities(
        dE=dE,
        dgap=dE[0] - dE[1],
        mu=c01.real.copy(),
        nu=c01.imag.copy(),
        gap=spec.gap,
    )


def xi_coefficients(sens: SpectralSensitivities) -> XiCoefficients:
    """Variance coefficients; xi1/xi2 are per parameter, xi3 is shared."""
    mu, nu, d = sens.mu, sens.nu, sens.dgap
    xi1 = np.empty(3)
    xi2 = np.empty(3)
    for i in range(3):
        j, k = [idx for idx in range(3) if idx != i]
        xi1[i] = (mu[j] * d[k] - mu[k] * d[j]) ** 2 + (nu[j] * d[k] - nu[k] * d[j]) ** 2
        xi2[i] = 16.0 * (mu[k] * nu[j] - mu[j] * nu[k]) ** 2
    xi3 = 16.0 * float(mu @ np.cross(d, nu)) ** 2
    return XiCoefficients(xi1=xi1, xi2=xi2, xi3=xi3)


def _check_time_and_trials(t: float, n: int) -> None:
    if not t > 0.0:
        raise DomainError(f"evolution time must be positive, got {t}")
    if n < 1:
        raise DomainError("trial count must be >= 1")


def _csc2(gap: float, t: float) -> float:
    """csc^2(dE t / 2) at the phase dE t; DivergentTime on a multiple of 2 pi."""
    phase = gap * t
    check_phase(phase)
    if near_pole(phase, TWO_PI):
        raise DivergentTime(f"dE * t = {phase:.12g} sits on a multiple of 2 pi; variance diverges")
    return csc_squared(phase / 2.0)


def _variances(xi: XiCoefficients, c: float, t: float, n: int) -> np.ndarray:
    """(c t^2 xi1 + xi2) / (n t^2 xi3) per parameter: the variances at
    c = csc^2(dE t / 2), their lower envelope at c = 1.

    The caller holds np.errstate(over="ignore", invalid="ignore"); a value
    that overflows is reported here as one DomainError.
    """
    if xi.xi3 == 0.0:
        raise SingularQfim("xi3 vanishes; the three parameters are not jointly identifiable")
    den = n * t * t * xi.xi3
    v = (c * t * t * xi.xi1 + xi.xi2) / den
    if not (np.isfinite(den) and np.all(np.isfinite(v))):
        raise DomainError(f"variances overflow at t = {t!r} with n = {n}")
    return v


def estimator_variances(model: HamiltonianModel, alpha, t: float, n: int) -> np.ndarray:
    """Per-parameter variances of the optimal estimator after n trials.

    Closed form in the xi coefficients; falls back to the diagonal of
    (n F)^{-1} when the spectrum is too degenerate for the spectral route.
    """
    _check_time_and_trials(t, n)
    try:
        sens = spectral_sensitivities(model, alpha)
    except DegenerateSpectrum:
        cov = covariance_from_qfim(qfim_entangled(model, alpha, t), n)
        return np.diag(cov.m).copy()
    xi = xi_coefficients(sens)
    with np.errstate(over="ignore", invalid="ignore"):
        return _variances(xi, _csc2(sens.gap, t), t, n)


def variance_envelope(xi: XiCoefficients, t: float, n: int) -> np.ndarray:
    """Lower envelope (t^2 xi1 + xi2) / (n t^2 xi3) of the variance curve,
    one value per parameter.

    It touches the curve at the csc^2 minima, is non-increasing in t and
    tends to xi1 / (n xi3).
    """
    _check_time_and_trials(t, n)
    with np.errstate(over="ignore", invalid="ignore"):
        return _variances(xi, 1.0, t, n)


def variance_infimum(xi: XiCoefficients, n: int) -> np.ndarray:
    """Large-t limit xi1 / (n xi3) of the envelope, per parameter."""
    if n < 1:
        raise DomainError("trial count must be >= 1")
    if xi.xi3 == 0.0:
        raise SingularQfim("xi3 vanishes; the three parameters are not jointly identifiable")
    return xi.xi1 / (n * xi.xi3)


def variance_curve(model: HamiltonianModel, alpha, t_grid, n: int) -> list:
    """Evaluate the three variances plus envelope/infimum on a time grid.

    The model is evaluated once. A row is flagged "pole", with NaN
    variances, exactly where estimator_variances raises DivergentTime: where
    util.near_pole puts dE t on 2 pi k, k >= 1. A t whose phase dE t floats
    cannot resolve raises DomainError. Envelope and infimum refer to the
    first parameter.
    """
    sens = spectral_sensitivities(model, alpha)
    xi = xi_coefficients(sens)
    inf1 = float(variance_infimum(xi, n)[0])
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in np.asarray(t_grid, dtype=float).tolist():
            _check_time_and_trials(t, n)
            env1 = float(_variances(xi, 1.0, t, n)[0])
            flag = ""
            try:
                v = _variances(xi, _csc2(sens.gap, t), t, n).tolist()
            except DivergentTime:
                v, flag = [np.nan] * 3, "pole"
            rows.append(VarianceCurveRow(t, *v, env1, inf1, flag))
    return rows
