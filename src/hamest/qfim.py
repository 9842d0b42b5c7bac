"""Generators of parameter translation and the quantum Fisher information matrix.

For H = f.sigma every generator

    h_i(t) = int_0^t exp(iHs) (d_i H) exp(-iHs) ds

is itself a Pauli vector, h_i = g_i.sigma: conjugation by exp(iHs) turns
J_i = d_i f about n = f / |f| through the angle -2|f|s, so with w = |f|

    g_i = t (n.J_i) n + t sinc(2wt) (J_i - (n.J_i) n) - t sin(wt) sinc(wt) (n x J_i),

sinc(x) = sin(x) / x, which needs no branch as w -> 0 (there n = 0).

The one production QFIM path is the weighted-state formula

    F_ij = 4 Re[Tr(rho h_i h_j) - Tr(rho h_i) Tr(rho h_j)],   rho = diag(x, 1 - x),

for the probe + ancilla input sqrt(x)|00> + sqrt(1-x)|11>. With z = 2x - 1,
rho = (I + z sigma_z) / 2 and h_i h_j = (g_i.g_j) I + i (g_i x g_j).sigma, so
F = 4 (G G^T - z^2 g_3 g_3^T), where G stacks the g_i as rows and g_3 is its
third column. The maximally entangled scheme is the x = 1/2 case, where it
equals the trace formula 2 Tr(h_i h_j) - Tr(h_i) Tr(h_j); that formula is
kept as a test oracle only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import INVERTIBLE_RTOL, HamiltonianModel, inverse_jacobian, model_evaluate
from .errors import DomainError, EstimationError, SingularQfim
from .util import check_phase, check_trials

# Asymmetry must satisfy max |m - m^T| <= 1e-10 * max(1, max |m|), as rounding scales.
QFIM_SYMMETRY_ATOL = 1e-10
# Minimum eigenvalue must satisfy min >= -1e-10 * max(1, max eigenvalue).
QFIM_PSD_RTOL = 1e-10


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
    if asym > QFIM_SYMMETRY_ATOL * max(1.0, np.max(np.abs(m))):
        raise EstimationError(f"QFIM symmetry violated by {asym:.3e}")
    m = 0.5 * (m + m.T)
    eigs = np.linalg.eigvalsh(m)
    floor = -QFIM_PSD_RTOL * max(1.0, float(eigs[-1]))
    if eigs[0] < floor:
        raise EstimationError(
            f"QFIM positive semi-definiteness violated: min eigenvalue {eigs[0]:.3e}"
        )
    return QfimMatrix(m=m)


def generator(model: HamiltonianModel, alpha, t: float) -> np.ndarray:
    """Pauli vectors g_i of the generators h_i(t) = g_i.sigma of the parameter
    translations, as the rows of a real (3, 3) array.

    Closed form of the module docstring, from one evaluation of the model. An
    unresolvable phase 2|f|t raises DomainError (util.check_phase).
    """
    ev = model_evaluate(model, alpha)
    w = math.hypot(*ev.f)
    check_phase(2.0 * w * t)
    n = ev.f / w if w > 0.0 else np.zeros(3)
    rows = ev.jac.T
    along = np.outer(rows @ n, n)
    return (
        t * along
        + t * np.sinc(2.0 * w * t / math.pi) * (rows - along)
        - t * math.sin(w * t) * np.sinc(w * t / math.pi) * np.cross(n, rows)
    )


def _check_weight(x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"weight x must lie in [0, 1], got {x}")


def _weighted_qfim(g, x: float) -> QfimMatrix:
    """From the generator rows g: the QFIM 4 (G G^T - z^2 g_3 g_3^T),
    z = 2x - 1, of the input sqrt(x)|00> + sqrt(1-x)|11>."""
    _check_weight(x)
    z = 2.0 * x - 1.0
    # An overflow is reported once, as the DomainError of _validated_qfim.
    with np.errstate(over="ignore", invalid="ignore"):
        return _validated_qfim(4.0 * (g @ g.T - z * z * np.outer(g[:, 2], g[:, 2])))


def _weighted_information(g, x: float) -> tuple[QfimMatrix, float]:
    """_weighted_qfim(g, x) and the commutativity residual max_ij |z (g_i x g_j)_3|
    of the same input, for the callers that read both."""
    f = _weighted_qfim(g, x)
    z = 2.0 * x - 1.0
    rows = g[:, :2].tolist()
    return f, max(abs(z * (p[0] * q[1] - p[1] * q[0])) for p in rows for q in rows)


def qfim_weighted_initial(model: HamiltonianModel, alpha, t: float, x: float) -> QfimMatrix:
    """QFIM for the input sqrt(x)|00> + sqrt(1-x)|11>, in the computational
    basis: 4 (G G^T - z^2 g_3 g_3^T) with z = 2x - 1."""
    return _weighted_qfim(generator(model, alpha, t), x)


def qfim_entangled(model: HamiltonianModel, alpha, t: float) -> QfimMatrix:
    """QFIM for the maximally entangled probe+ancilla input: the x = 1/2 case
    of qfim_weighted_initial."""
    return qfim_weighted_initial(model, alpha, t, 0.5)


def weak_commutativity_residual(model: HamiltonianModel, alpha, t: float, x: float = 0.5) -> float:
    """max_ij |Im <psi|h_i h_j (x) I|psi>| = max_ij |z (g_i x g_j)_3|, z = 2x - 1:
    the commutativity residual of the input sqrt(x)|00> + sqrt(1-x)|11>
    (default: the maximally entangled probe, where it is 0)."""
    return _weighted_information(generator(model, alpha, t), x)[1]


def _invert_qfim(f: QfimMatrix) -> np.ndarray:
    # core's invertibility rule, with the eigenvalues of the PSD QFIM as its singular values.
    eigs = np.linalg.eigvalsh(f.m)
    if eigs[0] <= INVERTIBLE_RTOL * max(abs(eigs[-1]), 1e-300):
        raise SingularQfim(
            f"QFIM is not invertible (eigenvalues {eigs[0]:.3e} .. {eigs[-1]:.3e})"
        )
    return np.linalg.inv(f.m)


def covariance_from_qfim(f: QfimMatrix, n: int) -> Covariance3:
    """Cramer-Rao covariance (n F)^{-1} for n trials."""
    check_trials(n)
    return Covariance3(m=_invert_qfim(f) / n)


def scalar_bound(w, f: QfimMatrix, n: int) -> float:
    """Weighted precision bound Tr(W F^{-1}) / n."""
    check_trials(n)
    w = np.asarray(w, dtype=float)
    if w.shape != (3, 3) or not np.all(np.isfinite(w)):
        raise DomainError("weight matrix must be 3x3 and finite")
    if np.max(np.abs(w - w.T)) > QFIM_SYMMETRY_ATOL * max(1.0, np.max(np.abs(w))):
        raise DomainError("weight matrix must be symmetric")
    return float(np.trace(w @ _invert_qfim(f)) / n)


def reparameterize_qfim(f: QfimMatrix, jac) -> QfimMatrix:
    """F_alpha = J^T F_beta J, with J[i][j] = d beta_i / d alpha_j. The
    reverse map is the same call with core.inverse_jacobian(jac)."""
    jac = np.asarray(jac, dtype=float)
    return _validated_qfim(jac.T @ f.m @ jac)


def reparameterize_covariance(c: Covariance3, jac) -> Covariance3:
    """Covariances transform contravariantly: C_alpha = J^{-1} C_beta J^{-T}.
    The reverse map is the same call with core.inverse_jacobian(jac)."""
    inv = inverse_jacobian(jac)
    return Covariance3(m=inv @ c.m @ inv.T)
