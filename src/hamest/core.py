"""Exact 2x2 Hermitian/unitary algebra and the Hamiltonian model abstraction.

Conventions used throughout the package:

- Energies are angular frequencies (hbar = 1), everything dimensionless.
- A Hamiltonian is a 2x2 complex Hermitian numpy array, usually written as
  c*I + b.sigma with real c and a real 3-vector b of Pauli coefficients.
- Eigenvalues are ordered E0 >= E1, so the gap dE = E0 - E1 is nonnegative.
- Eigenvector global phases are fixed by making the largest-magnitude
  component real and positive (ties go to the first component).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonHermitianInput, SingularJacobian
from .util import fd_step

HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-10
# Below ||b||*|t| = 1e-8 the sin(x)/x form of the propagator switches to its
# series limit to avoid cancellation.
EVOLVE_SERIES_THRESHOLD = 1e-8
SINGULAR_JACOBIAN_TOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def as_pauli_vector(b) -> np.ndarray:
    """Validate and return b as a finite float 3-vector."""
    b = np.asarray(b, dtype=float)
    if b.shape != (3,):
        raise DomainError(f"expected a 3-vector of Pauli coefficients, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise DomainError("Pauli coefficients must be finite")
    return b


def pauli_compose(b) -> np.ndarray:
    """Return b1*sigma_x + b2*sigma_y + b3*sigma_z (traceless Hermitian)."""
    b = as_pauli_vector(b)
    return np.array(
        [[b[2], b[0] - 1j * b[1]], [b[0] + 1j * b[1], -b[2]]], dtype=complex
    )


def pauli_decompose(h) -> tuple[float, np.ndarray]:
    """Split a Hermitian 2x2 matrix into (c, b) with h = c*I + b.sigma."""
    h = np.asarray(h, dtype=complex)
    c = 0.5 * np.trace(h).real
    b = np.array(
        [h[1, 0].real, h[1, 0].imag, 0.5 * (h[0, 0] - h[1, 1]).real]
    )
    return c, b


def is_hermitian(m, atol=HERMITIAN_ATOL) -> bool:
    m = np.asarray(m)
    return bool(np.all(np.abs(m - m.conj().T) <= atol)) and bool(
        np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))
    )


def check_hermitian(m, atol=HERMITIAN_ATOL) -> np.ndarray:
    """Return m as a complex array, raising NonHermitianInput if it is not Hermitian."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise NonHermitianInput(f"expected a 2x2 matrix, got shape {m.shape}")
    if not is_hermitian(m, atol):
        raise NonHermitianInput("matrix is not Hermitian within tolerance")
    return m


@dataclass(frozen=True)
class SpectralDecomposition2:
    """Eigensystem of a 2x2 Hermitian matrix with E0 >= E1 and gap = E0 - E1."""

    e0: float
    e1: float
    v0: np.ndarray
    v1: np.ndarray
    gap: float


def _fix_phase(v: np.ndarray) -> np.ndarray:
    # Largest-magnitude component made real positive; tie goes to the first.
    idx = 0 if abs(v[0]) >= abs(v[1]) else 1
    phase = v[idx] / abs(v[idx])
    return v * phase.conjugate()


def spectral_decompose(h) -> SpectralDecomposition2:
    """Eigendecompose a Hermitian 2x2 matrix under the package conventions."""
    h = check_hermitian(h)
    w, v = np.linalg.eigh(h)
    # eigh returns ascending eigenvalues; our convention is E0 >= E1.
    e0, e1 = float(w[1]), float(w[0])
    v0 = _fix_phase(v[:, 1].astype(complex))
    v1 = _fix_phase(v[:, 0].astype(complex))
    return SpectralDecomposition2(e0=e0, e1=e1, v0=v0, v1=v1, gap=e0 - e1)


def evolve_unitary(h, t: float) -> np.ndarray:
    """exp(-i*h*t) for Hermitian h, via the closed Pauli form.

    For h = c*I + b.sigma the propagator is
    exp(-i*c*t) * (cos(||b||t)*I - i*sin(||b||t)/||b|| * b.sigma);
    when ||b||*|t| < 1e-8 the limits cos -> 1 and sin(x)/x -> 1 apply.
    """
    h = check_hermitian(h)
    if not np.isfinite(t):
        raise DomainError("time must be finite")
    c, b = pauli_decompose(h)
    bn = float(np.linalg.norm(b))
    phase = np.exp(-1j * c * t)
    if bn * abs(t) < EVOLVE_SERIES_THRESHOLD:
        return phase * (IDENTITY_2 - 1j * t * pauli_compose(b))
    x = bn * t
    return phase * (np.cos(x) * IDENTITY_2 - 1j * (np.sin(x) / bn) * pauli_compose(b))


def central_difference_jacobian(pauli_map: Callable, alpha: np.ndarray) -> np.ndarray:
    """J[i][j] = d f_i / d alpha_j by central differences with per-column steps."""
    alpha = np.asarray(alpha, dtype=float)
    jac = np.empty((3, 3))
    for j in range(3):
        h = fd_step(alpha[j])
        up = np.array(alpha)
        dn = np.array(alpha)
        up[j] += h
        dn[j] -= h
        jac[:, j] = (np.asarray(pauli_map(up)) - np.asarray(pauli_map(dn))) / (2.0 * h)
    return jac


@dataclass(frozen=True)
class HamiltonianModel:
    """A named parameterization alpha -> f(alpha).sigma with its Jacobian.

    jacobian is the analytic J(alpha), or None for a central-difference
    Jacobian. pauli_map may raise DomainError outside the model's domain.
    """

    name: str
    pauli_map: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class ModelEvaluation:
    """Hamiltonian, Pauli coefficients, and Jacobian at one parameter point."""

    h: np.ndarray
    f: np.ndarray
    jac: np.ndarray


def model_evaluate(model: HamiltonianModel, alpha) -> ModelEvaluation:
    """Evaluate H = f(alpha).sigma and J[i][j] = d f_i/d alpha_j.

    A singular Jacobian is not fatal here; only operations that need J^{-1}
    reject it, through inverse_jacobian.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (3,):
        raise DomainError(f"expected 3 parameters, got shape {alpha.shape}")
    if not np.all(np.isfinite(alpha)):
        raise DomainError("parameters must be finite")
    f = as_pauli_vector(model.pauli_map(alpha))
    if model.jacobian is not None:
        jac = np.asarray(model.jacobian(alpha), dtype=float)
    else:
        jac = central_difference_jacobian(model.pauli_map, alpha)
    return ModelEvaluation(h=pauli_compose(f), f=f, jac=jac)


def inverse_jacobian(jac) -> np.ndarray:
    """J^{-1}, raising SingularJacobian when |det J| < SINGULAR_JACOBIAN_TOL."""
    jac = np.asarray(jac, dtype=float)
    if abs(np.linalg.det(jac)) < SINGULAR_JACOBIAN_TOL:
        raise SingularJacobian("Jacobian is singular")
    return np.linalg.inv(jac)


def _btp_map(alpha):
    b_amp, theta, phi = alpha
    if b_amp <= 0.0:
        raise DomainError("btp model requires B > 0")
    return np.array(
        [
            b_amp * np.cos(theta) * np.cos(phi),
            b_amp * np.cos(theta) * np.sin(phi),
            b_amp * np.sin(theta),
        ]
    )


def _btp_jacobian(alpha):
    b_amp, theta, phi = alpha
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    return np.array(
        [
            [ct * cp, -b_amp * st * cp, -b_amp * ct * sp],
            [ct * sp, -b_amp * st * sp, b_amp * ct * cp],
            [st, b_amp * ct, 0.0],
        ]
    )


def pauli_model() -> HamiltonianModel:
    """f(alpha) = alpha: the Pauli coefficients are the parameters."""
    return HamiltonianModel(
        name="pauli",
        pauli_map=lambda a: np.asarray(a, dtype=float),
        jacobian=lambda a: np.eye(3),
    )


def btp_model() -> HamiltonianModel:
    """Field magnitude and two angles: f = B*(cos(theta)cos(phi), cos(theta)sin(phi), sin(theta))."""
    return HamiltonianModel(
        name="btp",
        pauli_map=_btp_map,
        jacobian=_btp_jacobian,
    )


def custom_model(pauli_map: Callable, name: str = "custom") -> HamiltonianModel:
    """Wrap an externally supplied pauli_map with a finite-difference Jacobian."""
    return HamiltonianModel(name=name, pauli_map=pauli_map)


_BUILTIN_MODELS = {"pauli": pauli_model, "btp": btp_model}


def get_model(name: str) -> HamiltonianModel:
    try:
        factory = _BUILTIN_MODELS[name]
    except KeyError:
        raise DomainError(
            f"unknown model {name!r}; built-ins are {sorted(_BUILTIN_MODELS)}"
        ) from None
    return factory()
