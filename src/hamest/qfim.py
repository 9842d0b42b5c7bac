"""Generators of parameter translation and the quantum Fisher information matrix.

For H = f.sigma every generator

    h_i(t) = int_0^t exp(iHs) (d_i H) exp(-iHs) ds

is itself a Pauli vector, h_i = g_i.sigma: conjugation by exp(iHs) turns
J_i = d_i f about n = f / |f| through the angle -2|f|s, so with w = |f|, x = w t,
p = t sin(2x) / (2x) and r = t sin(x) sin(x) / x (both ratios are 1 at x = 0)

    g_i = (t - p) (n.J_i) n + p J_i - r (n x J_i),   G = J^T R,   R = (t - p) n n^T + p I + r [n]_x,

with [n]_x v = n x v and the g_i as the rows of G; at w = 0, n = 0 and G = t J^T.

The one production QFIM path is the weighted-state formula

    F_ij = 4 Re[Tr(rho h_i h_j) - Tr(rho h_i) Tr(rho h_j)],   rho = diag(x, 1 - x),

for the probe + ancilla input sqrt(x)|00> + sqrt(1-x)|11>. With z = 2x - 1,
rho = (I + z sigma_z) / 2 and h_i h_j = (g_i.g_j) I + i (g_i x g_j).sigma, so
F = 4 (G G^T - z^2 g_3 g_3^T), where G stacks the g_i as rows and g_3 is its
third column. The maximally entangled scheme is the x = 1/2 case, where it
equals the trace formula 2 Tr(h_i h_j) - Tr(h_i) Tr(h_j); that formula is
kept as a test oracle only.

Every QfimMatrix checks itself when it is built, whoever builds it: a finite
3x3 array, symmetric up to rounding and positive semi-definite. It keeps the
eigenvalues of that one decomposition, so covariance_from_qfim and
scalar_bound test invertibility without a second one.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import INVERTIBLE_RTOL, Covariance3, HamiltonianModel, inverse_jacobian, model_evaluate
from .errors import DomainError, EstimationError, SingularQfim
from .util import check_phase, check_trials

# Asymmetry must satisfy max |m - m^T| <= 1e-10 * max(1, max |m|), as rounding scales.
QFIM_SYMMETRY_ATOL = 1e-10
# Minimum eigenvalue must satisfy min >= -1e-10 * max(1, max eigenvalue).
QFIM_PSD_RTOL = 1e-10


@dataclass(frozen=True)
class QfimMatrix:
    """3x3 quantum Fisher information matrix, checked once, when it is built.

    m must be a 3x3 array whose symmetrized entries are finite (DomainError),
    symmetric within QFIM_SYMMETRY_ATOL (EstimationError), both checks on its
    nine entries as Python floats, and positive semi-definite within
    QFIM_PSD_RTOL (EstimationError) by its one eigvalsh. It is stored
    symmetrized, with those eigenvalues for every inversion.
    """

    m: np.ndarray
    _eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3):
            raise DomainError(f"QFIM must be a 3x3 matrix, got shape {m.shape}")
        # m and m^T as nine floats each; finite entries past about 9e307 overflow m + m^T.
        rows = m.tolist()
        entries, partners = rows[0] + rows[1] + rows[2], [a for column in zip(*rows) for a in column]
        sym = [0.5 * (a + b) for a, b in zip(entries, partners)]
        if not all(map(math.isfinite, sym)):
            raise DomainError("QFIM entries are not finite; the evolution time or field is too large")
        asym = max(abs(a - b) for a, b in zip(entries, partners))
        if asym > QFIM_SYMMETRY_ATOL * max(1.0, max(map(abs, entries))):
            raise EstimationError(f"QFIM symmetry violated by {asym:.3e}")
        sym = np.array(sym).reshape(3, 3)
        eigs = np.linalg.eigvalsh(sym)
        floor = -QFIM_PSD_RTOL * max(1.0, float(eigs[-1]))
        if eigs[0] < floor:
            raise EstimationError(
                f"QFIM positive semi-definiteness violated: min eigenvalue {eigs[0]:.3e}"
            )
        object.__setattr__(self, "m", sym)
        object.__setattr__(self, "_eigenvalues", eigs)


def generator(model: HamiltonianModel, alpha, t: float) -> np.ndarray:
    """Pauli vectors g_i of the generators h_i(t) = g_i.sigma of the parameter
    translations, as the rows of a real (3, 3) array.

    Closed form of the module docstring, from one evaluation of the model. An
    unresolvable phase 2|f|t raises DomainError (util.check_phase).
    """
    ev = model_evaluate(model, alpha)
    w = math.hypot(*ev.f)
    check_phase(2.0 * w * t)
    n1, n2, n3 = (ev.f / w).tolist() if w > 0.0 else (0.0, 0.0, 0.0)
    x = w * t
    s = math.sin(x)
    p, r = (t * (math.sin(2.0 * x) / (2.0 * x)), t * s * (s / x)) if x != 0.0 else (t, 0.0)
    c = t - p
    rot = [[c * n1 * n1 + p, c * n1 * n2 - r * n3, c * n1 * n3 + r * n2],
           [c * n2 * n1 + r * n3, c * n2 * n2 + p, c * n2 * n3 - r * n1],
           [c * n3 * n1 - r * n2, c * n3 * n2 + r * n1, c * n3 * n3 + p]]
    return ev.jac.T @ np.array(rot)


def _check_weight(x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"weight x must lie in [0, 1], got {x}")


def _weighted_qfim(g, x: float) -> QfimMatrix:
    """From the generator rows g: the QFIM 4 (G G^T - z^2 g_3 g_3^T),
    z = 2x - 1, of the input sqrt(x)|00> + sqrt(1-x)|11>."""
    _check_weight(x)
    z = 2.0 * x - 1.0
    # An overflow is reported once, as the DomainError of QfimMatrix.
    with np.errstate(over="ignore", invalid="ignore"):
        return QfimMatrix(m=4.0 * (g @ g.T - z * z * np.outer(g[:, 2], g[:, 2])))


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
    eigs = f._eigenvalues
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
    return QfimMatrix(m=jac.T @ f.m @ jac)


def reparameterize_covariance(c: Covariance3, jac) -> Covariance3:
    """Covariances transform contravariantly: C_alpha = J^{-1} C_beta J^{-T}.
    The reverse map is the same call with core.inverse_jacobian(jac)."""
    inv = inverse_jacobian(jac)
    return Covariance3(m=inv @ c.m @ inv.T)
