"""Generators of parameter translation and the quantum Fisher information matrix.

The one production QFIM path is the weighted-state formula

    F_ij = 4 Re[Tr(rho h_i h_j) - Tr(rho h_i) Tr(rho h_j)],   rho = diag(x, 1 - x),

on the generators h_i(t), for the probe + ancilla input
sqrt(x)|00> + sqrt(1-x)|11>. The maximally entangled scheme is its x = 1/2
case, where it equals the trace formula 2 Tr(h_i h_j) - Tr(h_i) Tr(h_j);
that formula is kept as a test oracle only. The generators come from the
spectral closed form, all three from one evaluation of the model and one
spectral decomposition.

Eigenvector derivatives are never taken numerically. Where a derivative of an
eigenstate is needed it is computed with first-order perturbation theory,
<E0|d_i E1> = <E0|(d_i H)|E1> / (E1 - E0), which is gauge-stable.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    HamiltonianModel,
    ModelEvaluation,
    SpectralDecomposition2,
    inverse_jacobian,
    model_evaluate,
    pauli_compose,
    spectral_decompose,
)
from .errors import DomainError, EstimationError, SingularQfim
from .util import check_phase

QFIM_SYMMETRY_ATOL = 1e-10
# Minimum eigenvalue must satisfy min >= -1e-10 * max(1, max eigenvalue).
QFIM_PSD_RTOL = 1e-10
QFIM_INVERTIBLE_RTOL = 1e-12
# Below |dE|*|t| = 1e-8 the generator takes its degenerate limit t * dH.
GENERATOR_LIMIT_THRESHOLD = 1e-8


@dataclass(frozen=True)
class QfimMatrix:
    """3x3 quantum Fisher information matrix."""

    m: np.ndarray


@dataclass(frozen=True)
class Covariance3:
    """3x3 covariance matrix, or a stack of them of shape (..., 3, 3)."""

    m: np.ndarray


def _validated_qfim(m) -> QfimMatrix:
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise DomainError("QFIM entries are not finite; the evolution time or field is too large")
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
    return QfimMatrix(m=m)


def _spectral_derivatives(ev: ModelEvaluation, spec: SpectralDecomposition2):
    """(dE, c01) at a point with a nonzero gap: the Hellmann-Feynman level
    derivatives dE[l, i] = <E_l|d_i H|E_l>, shape (2, 3), and the perturbative
    overlaps c01[i] = <E0|d_i H|E1> / (E1 - E0) = <E0|d_i E1>, shape (3,)."""
    dE = np.empty((2, 3))
    c01 = np.empty(3, dtype=complex)
    for i in range(3):
        dh = pauli_compose(ev.jac[:, i])
        dE[0, i] = (spec.v0.conj() @ dh @ spec.v0).real
        dE[1, i] = (spec.v1.conj() @ dh @ spec.v1).real
        c01[i] = (spec.v0.conj() @ dh @ spec.v1) / (spec.e1 - spec.e0)
    return dE, c01


def generator(model: HamiltonianModel, alpha, t: float) -> np.ndarray:
    """Generators h_1(t), h_2(t), h_3(t) of the parameter translations, stacked
    as a (3, 2, 2) array of Hermitian matrices.

    Spectral closed form: diagonal terms t * (d_i E_l) |E_l><E_l| plus
    oscillatory off-diagonal terms built from <E0|d_i E1>. When |dE|*|t| is
    below threshold (degenerate or zero Hamiltonian) the limit t * d_i H is
    returned; an unresolvable phase dE t raises DomainError (util.check_phase).
    The model is evaluated and decomposed once for all three.
    """
    ev = model_evaluate(model, alpha)
    spec = spectral_decompose(ev.h)
    check_phase(spec.gap * t)
    if spec.gap * abs(t) < GENERATOR_LIMIT_THRESHOLD:
        return np.stack([t * pauli_compose(ev.jac[:, i]) for i in range(3)])
    dE, c01 = _spectral_derivatives(ev, spec)
    p0 = np.outer(spec.v0, spec.v0.conj())
    p1 = np.outer(spec.v1, spec.v1.conj())
    p01 = np.outer(spec.v0, spec.v1.conj())
    phase = 1j * (np.exp(1j * spec.gap * t) - 1.0)
    hs = np.empty((3, 2, 2), dtype=complex)
    for i in range(3):
        # Per-index scalar arithmetic: vectorising over i changes last bits.
        off = phase * c01[i] * p01
        hs[i] = t * dE[0, i] * p0 + t * dE[1, i] * p1 + off + off.conj().T
    return hs


def qfim_weighted_initial(model: HamiltonianModel, alpha, t: float, x: float) -> QfimMatrix:
    """QFIM for the input sqrt(x)|00> + sqrt(1-x)|11>, in the computational basis."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"weight x must lie in [0, 1], got {x}")
    hs = generator(model, alpha, t)
    m = np.empty((3, 3))
    # An overflow is reported once, as the DomainError of _validated_qfim.
    with np.errstate(over="ignore", invalid="ignore"):
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
    return _validated_qfim(m)


def qfim_entangled(model: HamiltonianModel, alpha, t: float) -> QfimMatrix:
    """QFIM for the maximally entangled probe+ancilla input: the x = 1/2 case
    of qfim_weighted_initial."""
    return qfim_weighted_initial(model, alpha, t, 0.5)


def weak_commutativity_residual(model: HamiltonianModel, alpha, t: float) -> float:
    """max_ij |Im Tr(h_i h_j) / 2|, the entangled-input commutativity residual."""
    hs = generator(model, alpha, t)
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
    return Covariance3(m=_invert_qfim(f) / n)


def scalar_bound(w, f: QfimMatrix, n: int) -> float:
    """Weighted precision bound Tr(W F^{-1}) / n."""
    if n < 1:
        raise DomainError("trial count must be >= 1")
    w = np.asarray(w, dtype=float)
    if w.shape != (3, 3) or np.max(np.abs(w - w.T)) > QFIM_SYMMETRY_ATOL:
        raise DomainError("weight matrix must be 3x3 symmetric")
    return float(np.trace(w @ _invert_qfim(f)) / n)


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
        inv = inverse_jacobian(jac)
        m = inv.T @ f.m @ inv
    else:
        raise DomainError(f"unknown direction {direction!r}")
    return _validated_qfim(m)


def reparameterize_covariance(c: Covariance3, jac, direction: str) -> Covariance3:
    """Covariances transform contravariantly: C_alpha = J^{-1} C_beta J^{-T}."""
    jac = np.asarray(jac, dtype=float)
    if direction == "beta_to_alpha":
        inv = inverse_jacobian(jac)
        m = inv @ c.m @ inv.T
    elif direction == "alpha_to_beta":
        m = jac @ c.m @ jac.T
    else:
        raise DomainError(f"unknown direction {direction!r}")
    return Covariance3(m=m)
