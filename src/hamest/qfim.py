"""Generators of parameter translation and the quantum Fisher information matrix.

The production QFIM path is the trace formula

    F_ij = 2 Tr(h_i h_j) - Tr(h_i) Tr(h_j)

on the generators h_i(t) of the extended (probe + maximally entangled
ancilla) scheme. The generators come from the spectral closed form; the
quadrature oracle `generator_oracle` integrates the defining integral
directly and exists for tests.

Eigenvector derivatives are never taken numerically. Where a derivative of an
eigenstate is needed it is computed with first-order perturbation theory,
<E0|d_i E1> = <E0|(d_i H)|E1> / (E1 - E0), which is gauge-stable.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    HamiltonianModel,
    model_evaluate,
    pauli_compose,
    pauli_decompose,
    spectral_decompose,
    evolve_unitary,
)
from .errors import (
    DomainError,
    EstimationError,
    IndexOutOfRange,
    SingularJacobian,
    SingularQfim,
)
from .util import fd_step

QFIM_SYMMETRY_ATOL = 1e-10
# Minimum eigenvalue must satisfy min >= -1e-10 * max(1, max eigenvalue).
QFIM_PSD_RTOL = 1e-10
QFIM_INVERTIBLE_RTOL = 1e-12
# Below |dE|*|t| = 1e-8 the generator takes its degenerate limit t * dH.
GENERATOR_LIMIT_THRESHOLD = 1e-8
BELL_PROBABILITY_FLOOR = 1e-14


@dataclass(frozen=True)
class QfimMatrix:
    """3x3 quantum Fisher information matrix with its evaluation context."""

    m: np.ndarray
    t: float
    model: str = ""
    alpha: tuple = ()


@dataclass(frozen=True)
class Covariance3:
    """3x3 covariance matrix for n trials at evolution time t."""

    m: np.ndarray
    n: int
    t: float


def _validated_qfim(m, t, model="", alpha=()) -> QfimMatrix:
    m = np.asarray(m, dtype=float)
    asym = np.max(np.abs(m - m.T))
    if asym > QFIM_SYMMETRY_ATOL:
        raise EstimationError(f"QFIM symmetry violated by {asym:.3e}")
    m = 0.5 * (m + m.T)
    eigs = np.linalg.eigvalsh(m)
    floor = -QFIM_PSD_RTOL * max(1.0, float(eigs[-1]))
    if eigs[0] < floor:
        raise EstimationError(
            f"QFIM positive semi-definiteness violated: min eigenvalue {eigs[0]:.3e}"
        )
    return QfimMatrix(m=m, t=float(t), model=model, alpha=tuple(np.asarray(alpha).tolist()))


def generator(model: HamiltonianModel, alpha, i: int, t: float) -> np.ndarray:
    """Generator h_i(t) of the parameter translation, as a Hermitian matrix.

    Spectral closed form: diagonal terms t * (d_i E_l) |E_l><E_l| plus
    oscillatory off-diagonal terms built from <E0|d_i E1>. When |dE|*|t| is
    below threshold (degenerate or zero Hamiltonian) the limit t * d_i H is
    returned.
    """
    if i not in (1, 2, 3):
        raise IndexOutOfRange(f"parameter index must be 1, 2, or 3, got {i}")
    if not np.isfinite(t):
        raise DomainError("time must be finite")
    ev = model_evaluate(model, alpha)
    dh = pauli_compose(ev.jac[:, i - 1])
    spec = spectral_decompose(ev.h)
    if spec.gap * abs(t) < GENERATOR_LIMIT_THRESHOLD:
        return t * dh
    d0 = (spec.v0.conj() @ dh @ spec.v0).real
    d1 = (spec.v1.conj() @ dh @ spec.v1).real
    # First-order perturbation theory for <E0|d_i E1>.
    c01 = (spec.v0.conj() @ dh @ spec.v1) / (spec.e1 - spec.e0)
    p0 = np.outer(spec.v0, spec.v0.conj())
    p1 = np.outer(spec.v1, spec.v1.conj())
    off = 1j * (np.exp(1j * spec.gap * t) - 1.0) * c01 * np.outer(spec.v0, spec.v1.conj())
    return t * d0 * p0 + t * d1 * p1 + off + off.conj().T


def generator_oracle(
    model: HamiltonianModel, alpha, i: int, t: float, steps: int = 200
) -> np.ndarray:
    """Quadrature oracle for the generator: composite Simpson on the integral

        h_i(t) = int_0^t exp(iH tau) (d_i H) exp(-iH tau) d tau.

    Test-only route, deliberately independent of the spectral closed form.
    """
    if i not in (1, 2, 3):
        raise IndexOutOfRange(f"parameter index must be 1, 2, or 3, got {i}")
    if steps < 100:
        raise DomainError("oracle quadrature needs at least 100 panels")
    ev = model_evaluate(model, alpha)
    dh = pauli_compose(ev.jac[:, i - 1])
    if t == 0.0:
        return np.zeros((2, 2), dtype=complex)
    panels = steps + (steps % 2)
    tau = np.linspace(0.0, t, panels + 1)
    trace_part, b = pauli_decompose(ev.h)
    theta = np.linalg.norm(b) * tau
    # sin(|b| tau)/|b| via sinc, exact in the |b| -> 0 limit
    radial = np.sinc(theta / np.pi) * tau
    phase = np.exp(-1j * trace_part * tau)
    u = phase[:, None, None] * (
        np.cos(theta)[:, None, None] * np.eye(2, dtype=complex)
        - 1j * radial[:, None, None] * pauli_compose(b)
    )
    integrand = np.einsum("sba,bc,scd->sad", u.conj(), dh, u)
    weights = np.full(panels + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return np.tensordot(weights, integrand, axes=(0, 0)) * (t / panels / 3.0)


def qfim_entangled(model: HamiltonianModel, alpha, t: float) -> QfimMatrix:
    """QFIM for the maximally entangled probe+ancilla input, trace formula."""
    hs = [generator(model, alpha, i, t) for i in (1, 2, 3)]
    traces = [np.trace(h).real for h in hs]
    m = np.empty((3, 3))
    for a in range(3):
        for b in range(a, 3):
            val = 2.0 * np.trace(hs[a] @ hs[b]).real - traces[a] * traces[b]
            m[a, b] = val
            m[b, a] = val
    return _validated_qfim(m, t, model.name, alpha)


def qfim_weighted_initial(model: HamiltonianModel, alpha, t: float, x: float) -> QfimMatrix:
    """QFIM for the input sqrt(x)|00> + sqrt(1-x)|11>, in the computational basis.

    At x = 1/2 this coincides with qfim_entangled.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"weight x must lie in [0, 1], got {x}")
    hs = [generator(model, alpha, i, t) for i in (1, 2, 3)]
    m = np.empty((3, 3))
    for a in range(3):
        ha = hs[a]
        mean_a = x * ha[0, 0].real + (1.0 - x) * ha[1, 1].real
        for b in range(a, 3):
            hb = hs[b]
            mean_b = x * hb[0, 0].real + (1.0 - x) * hb[1, 1].real
            second = (
                x * (ha[0, 0] * hb[0, 0] + ha[0, 1] * hb[1, 0])
                + (1.0 - x) * (ha[1, 0] * hb[0, 1] + ha[1, 1] * hb[1, 1])
            ).real
            val = 4.0 * (second - mean_a * mean_b)
            m[a, b] = val
            m[b, a] = val
    return _validated_qfim(m, t, model.name, alpha)


def weak_commutativity_residual(model: HamiltonianModel, alpha, t: float) -> float:
    """max_ij |Im Tr(h_i h_j) / 2|, the entangled-input commutativity residual."""
    hs = [generator(model, alpha, i, t) for i in (1, 2, 3)]
    worst = 0.0
    for a in range(3):
        for b in range(3):
            worst = max(worst, abs(np.trace(hs[a] @ hs[b]).imag) / 2.0)
    return worst


def _invert_qfim(f: QfimMatrix) -> np.ndarray:
    eigs = np.linalg.eigvalsh(f.m)
    if eigs[0] <= QFIM_INVERTIBLE_RTOL * max(abs(eigs[-1]), 1e-300):
        raise SingularQfim(
            f"QFIM is not invertible (eigenvalues {eigs[0]:.3e} .. {eigs[-1]:.3e})"
        )
    return np.linalg.inv(f.m)


def covariance_from_qfim(f: QfimMatrix, n: int) -> Covariance3:
    """Cramer-Rao covariance (n F)^{-1} for n trials."""
    if n < 1:
        raise DomainError("trial count must be >= 1")
    return Covariance3(m=_invert_qfim(f) / n, n=int(n), t=f.t)


def scalar_bound(w, f: QfimMatrix, n: int) -> float:
    """Weighted precision bound Tr(W F^{-1}) / n."""
    if n < 1:
        raise DomainError("trial count must be >= 1")
    w = np.asarray(w, dtype=float)
    if w.shape != (3, 3) or np.max(np.abs(w - w.T)) > QFIM_SYMMETRY_ATOL:
        raise DomainError("weight matrix must be 3x3 symmetric")
    return float(np.trace(w @ _invert_qfim(f)) / n)


def _inverse_jacobian(jac) -> np.ndarray:
    jac = np.asarray(jac, dtype=float)
    if abs(np.linalg.det(jac)) < 1e-12:
        raise SingularJacobian("Jacobian is singular")
    return np.linalg.inv(jac)


def reparameterize_qfim(f: QfimMatrix, jac, direction: str) -> QfimMatrix:
    """Transform a QFIM between the original and Pauli parameterizations.

    The Jacobian convention is fixed: J[i][j] = d beta_i / d alpha_j.
    direction "beta_to_alpha" maps F_beta to F_alpha = J^T F_beta J;
    "alpha_to_beta" applies the inverse transform (J must be invertible).
    """
    jac = np.asarray(jac, dtype=float)
    if direction == "beta_to_alpha":
        m = jac.T @ f.m @ jac
    elif direction == "alpha_to_beta":
        inv = _inverse_jacobian(jac)
        m = inv.T @ f.m @ inv
    else:
        raise DomainError(f"unknown direction {direction!r}")
    return _validated_qfim(m, f.t, f.model, f.alpha)


def reparameterize_covariance(c: Covariance3, jac, direction: str) -> Covariance3:
    """Covariances transform contravariantly: C_alpha = J^{-1} C_beta J^{-T}."""
    jac = np.asarray(jac, dtype=float)
    if direction == "beta_to_alpha":
        inv = _inverse_jacobian(jac)
        m = inv @ c.m @ inv.T
    elif direction == "alpha_to_beta":
        m = jac @ c.m @ jac.T
    else:
        raise DomainError(f"unknown direction {direction!r}")
    return Covariance3(m=m, n=c.n, t=c.t)


def bell_cfi(model: HamiltonianModel, alpha, t: float) -> np.ndarray:
    """Classical Fisher information of the Bell-basis measurement.

    Outcome probabilities are differentiated by central differences in the
    original parameters.  An outcome whose probability falls below 1e-14
    vanishes (at least) quadratically in the parameters, so the ratio
    (d_i p)(d_j p)/p has the removable limit 2 d_i d_j p; that Hessian term,
    also by central differences, replaces the singular quotient there.
    """
    from .simulator import bell_probabilities

    alpha = np.asarray(alpha, dtype=float)

    def probs(a):
        if model.domain_check is not None:
            model.domain_check(a)
        return bell_probabilities(np.asarray(model.pauli_map(a), dtype=float), t)

    p0 = probs(alpha)
    steps = np.array([fd_step(alpha[i]) for i in range(3)])
    p_up = np.empty((3, 4))
    p_dn = np.empty((3, 4))
    for i in range(3):
        up = np.array(alpha)
        dn = np.array(alpha)
        up[i] += steps[i]
        dn[i] -= steps[i]
        p_up[i] = probs(up)
        p_dn[i] = probs(dn)
    dp = (p_up - p_dn) / (2.0 * steps[:, None])

    low = p0 < BELL_PROBABILITY_FLOOR
    cfi = np.zeros((3, 3))
    for k in range(4):
        if not low[k]:
            cfi += np.outer(dp[:, k], dp[:, k]) / p0[k]
    if not np.any(low):
        return cfi

    # Limiting contribution of the vanishing outcomes: 2 * Hessian of p_k.
    hess = np.zeros((4, 3, 3))
    for i in range(3):
        hess[:, i, i] = (p_up[i] + p_dn[i] - 2.0 * p0) / steps[i] ** 2
    for i in range(3):
        for j in range(i + 1, 3):
            shifted = []
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                a = np.array(alpha)
                a[i] += si * steps[i]
                a[j] += sj * steps[j]
                shifted.append(probs(a))
            mixed = (shifted[0] - shifted[1] - shifted[2] + shifted[3]) / (
                4.0 * steps[i] * steps[j]
            )
            hess[:, i, j] = mixed
            hess[:, j, i] = mixed
    for k in range(4):
        if low[k]:
            cfi += 2.0 * hess[k]
    return cfi
