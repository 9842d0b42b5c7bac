"""Closed-form estimation variances from the spectral data of the model.

From the gap dE = E0 - E1, its derivatives d_i = d(dE)/d alpha_i
(Hellmann-Feynman) and the matrix elements m_i = <E0|d_i H|E1>, with a = Re m,
b = Im m and componentwise squares, and no eigenstate differentiated,

    xi1 = ((a x d)^2 + (b x d)^2) / 4,   xi2 = (a x b)^2,   xi3 = (a . (d x b))^2,
    v_i(t) = (xi1_i / sinc^2(dE t / 2) + xi2_i) / (n t^2 xi3),   sinc(x) = sin(x) / x,

is the variance of the saturating estimator after n trials, the i-th diagonal
element of (n F)^{-1}. The xi depend neither on the gap nor on the phase gauge
nor on which level is called E0. The paper's coefficients, from the overlaps
<E0|d_i E1> = m_i / (E1 - E0), are (16 / dE^4) ((dE / 2)^2 xi1, xi2, xi3), in
which the relation reads (csc^2(dE t / 2) t^2 xi1 + xi2) / (n t^2 xi3). At
dE = 0, sinc = 1 gives the limit (1 / (4 n t^2) per component at a zero Pauli
field); the envelope ((dE t / 2)^2 xi1 + xi2) / (n t^2 xi3) and its infimum
(dE / 2)^2 xi1 / (n xi3) have no field direction there: DegenerateSpectrum.
With the closed-form eigenvectors of core.spectral_decompose, dE_l = J^T <E_l|sigma|E_l>
and m = J^T <E0|sigma|E1>, as d_i H = sum_k J[k, i] sigma_k: no 2x2 matrix is formed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import HamiltonianModel, model_evaluate, spectral_decompose
from .errors import DegenerateSpectrum, DivergentTime, DomainError, SingularQfim
from .util import check_phase, check_trials, near_pole


@dataclass(frozen=True)
class SpectralSensitivities:
    """Derivatives of the spectral data with respect to the model parameters.

    dE has shape (2, 3): row l holds dE_l/d alpha_i for the upper (l = 0) and
    lower (l = 1) level. dgap and the complex m_i = <E0|d_i H|E1> have shape (3,).
    """

    dE: np.ndarray
    dgap: np.ndarray
    m: np.ndarray
    gap: float


@dataclass(frozen=True)
class XiCoefficients:
    """The gap-free xi of the module docstring from the columns (m_i, d_i)
    scaled by 2^-e_i, e = exponents (see xi_coefficients), and the gap dE."""

    xi1: np.ndarray
    xi2: np.ndarray
    xi3: float
    gap: float
    exponents: np.ndarray | int = 0


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
    """Hellmann-Feynman level derivatives and matrix elements <E0|d_i H|E1> at alpha."""
    ev = model_evaluate(model, alpha)
    spec = spectral_decompose(ev.f)
    u, v = spec.v0.tolist(), spec.v1.tolist()
    # Rows <E0|sigma|E0>, <E1|sigma|E1>, <E0|sigma|E1>: row @ J holds the <E_l|d_i H|E_l'>.
    # A huge or infinite J gives inf or NaN here; xi_coefficients rejects it.
    with np.errstate(all="ignore"):
        s = np.array([_pauli_elements(u, u), _pauli_elements(v, v), _pauli_elements(u, v)]) @ ev.jac
        dE = s[:2].real
        dgap = dE[0] - dE[1]
    return SpectralSensitivities(dE=dE, dgap=dgap, m=s[2], gap=spec.gap)


def _pauli_elements(u, v) -> tuple:
    # (<u|sigma_x|v>, <u|sigma_y|v>, <u|sigma_z|v>) of two 2-vectors of Python complex numbers.
    a0, a1 = u[0].conjugate(), u[1].conjugate()
    return (a0 * v[1] + a1 * v[0], 1j * (a1 * v[0] - a0 * v[1]), a0 * v[0] - a1 * v[1])


def _cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def xi_coefficients(sens: SpectralSensitivities) -> XiCoefficients:
    """Variance coefficients; xi1/xi2 are per parameter, xi3 is shared.

    Column i enters scaled by 2^-e_i, with e_i the binary exponent of
    max(|m_i|, |d_i|) (0 for a zero column). v_i, the envelope and the
    infimum of parameter i then scale by 2^(2 e_i), which the relations undo
    exactly: powers of two move no digit, and the scaled xi stay in range for
    any finite derivatives of H. DomainError where they are not finite.
    """
    a, b, d, exponents = [], [], [], []
    for x, y in zip(sens.m.tolist(), sens.dgap.tolist()):
        e = math.frexp(max(abs(x), abs(y)))[1]
        a.append(math.ldexp(x.real, -e))
        b.append(math.ldexp(x.imag, -e))
        d.append(math.ldexp(y, -e))
        exponents.append(e)
    ad, bd = _cross(a, d), _cross(b, d)
    xi1 = [(x * x + y * y) / 4.0 for x, y in zip(ad, bd)]
    xi2 = [x * x for x in _cross(a, b)]
    triple = a[0] * bd[0] + a[1] * bd[1] + a[2] * bd[2]
    if not all(map(math.isfinite, xi1 + xi2 + [triple * triple])):
        raise DomainError("xi coefficients are not finite: the derivatives of H are too large")
    return XiCoefficients(
        xi1=np.array(xi1), xi2=np.array(xi2), xi3=triple * triple, gap=sens.gap, exponents=np.array(exponents)
    )


def _check_time_and_trials(t, n: int) -> None:
    if not (np.asarray(t) > 0.0).all():
        raise DomainError(f"evolution time must be positive, got {np.min(t)}")
    check_trials(n)


def _relation(xi: XiCoefficients, q, t, n: int, pole=False) -> np.ndarray:
    """(q^2 xi1 + xi2) / (n t^2 xi3) per parameter at one time t or a column of
    times: the variances at q = x / sin(x), the envelope at q = x = dE t / 2. Under
    the caller's np.errstate(all="ignore"), an overflow off a pole raises DomainError."""
    if xi.xi3 == 0.0:
        raise SingularQfim("xi3 vanishes; the three parameters are not jointly identifiable")
    den = n * t * t * xi.xi3
    v = np.ldexp((q * q * xi.xi1 + xi.xi2) / den, -2 * xi.exponents)
    ok = np.isfinite(den) & np.isfinite(v) | pole
    if not ok.all():
        bad = np.broadcast_to(t, ok.shape)[~ok][0]
        raise DomainError(f"variances overflow at t = {float(bad)!r} with n = {n}")
    return v


def _variances(xi: XiCoefficients, t, n: int):
    """The variances at one time t or a column of times, NaN where util.near_pole
    puts dE t on 2 pi k, k >= 1, and those pole flags. A phase dE t that floats
    cannot resolve raises DomainError (util.check_phase)."""
    phase = xi.gap * t
    check_phase(np.asarray(phase).max(initial=0.0))
    pole = near_pole(phase, 2.0 * math.pi)
    x = phase / 2.0
    with np.errstate(all="ignore"):
        q = np.where(x == 0.0, 1.0, x / np.sin(x))
        return np.where(pole, np.nan, _relation(xi, q, t, n, pole)), pole


def estimator_variances(model: HamiltonianModel, alpha, t: float, n: int) -> np.ndarray:
    """Per-parameter variances of the optimal estimator after n trials: the
    one-time case of variance_curve. DivergentTime where dE t is on a pole."""
    _check_time_and_trials(t, n)
    xi = xi_coefficients(spectral_sensitivities(model, alpha))
    v, pole = _variances(xi, t, n)
    if pole:
        raise DivergentTime(f"dE * t = {xi.gap * t:.12g} sits on a multiple of 2 pi; variance diverges")
    return v


def _check_direction(xi: XiCoefficients) -> None:
    if xi.gap == 0.0:
        raise DegenerateSpectrum("the gap is zero: the variance envelope has no field direction")


def variance_envelope(xi: XiCoefficients, t, n: int) -> np.ndarray:
    """Lower envelope ((dE t / 2)^2 xi1 + xi2) / (n t^2 xi3) of the variance
    curve, one value per parameter, for one time t or a column of times.

    It touches the curve where sin^2(dE t / 2) = 1, is non-increasing in t and
    tends to (dE / 2)^2 xi1 / (n xi3).
    """
    _check_time_and_trials(t, n)
    _check_direction(xi)
    with np.errstate(all="ignore"):
        return _relation(xi, xi.gap * t / 2.0, t, n)


def variance_infimum(xi: XiCoefficients, n: int) -> np.ndarray:
    """Large-t limit (dE / 2)^2 xi1 / (n xi3) of the envelope, per parameter;
    DomainError where it overflows."""
    check_trials(n)
    _check_direction(xi)
    if xi.xi3 == 0.0:
        raise SingularQfim("xi3 vanishes; the three parameters are not jointly identifiable")
    with np.errstate(all="ignore"):
        inf = np.ldexp(np.square(xi.gap / 2.0) * xi.xi1 / (n * xi.xi3), -2 * xi.exponents)
    if not np.all(np.isfinite(inf)):
        raise DomainError(f"variance infimum overflows with n = {n}")
    return inf


def variance_curve(model: HamiltonianModel, alpha, t_grid, n: int) -> list:
    """Evaluate the three variances plus envelope/infimum on a time grid.

    The model is evaluated once and the relation once over the whole grid. A
    row is flagged "pole", with NaN variances, exactly where
    estimator_variances raises DivergentTime, and otherwise carries its
    variances bit for bit. The checks run over the grid in the order they
    apply to one time: t and n, envelope overflow, phase, variance overflow.
    Envelope and infimum refer to the first parameter.
    """
    xi = xi_coefficients(spectral_sensitivities(model, alpha))
    inf1 = float(variance_infimum(xi, n)[0])
    t = np.asarray(t_grid, dtype=float).reshape(-1, 1)
    env1 = variance_envelope(xi, t, n)[:, 0]
    v, pole = _variances(xi, t, n)
    return [
        VarianceCurveRow(ti, *vi, e, inf1, "pole" if p else "")
        for ti, vi, e, p in zip(t[:, 0].tolist(), v.tolist(), env1.tolist(), pole[:, 0].tolist())
    ]
