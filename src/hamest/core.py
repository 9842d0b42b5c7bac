"""Exact qubit propagators and spectra, and the Hamiltonian model abstraction.

Conventions used throughout the package:

- Energies are angular frequencies (hbar = 1), everything dimensionless.
- A Hamiltonian is the Pauli vector b, H = b.sigma: a real finite 3-vector.
  Every qubit Hamiltonian is one up to an identity part, which only adds a
  global phase and is never represented.
- Eigenvalues are ordered E0 >= E1, so the gap dE = E0 - E1 is nonnegative.
- Eigenvector global phases are fixed by making the largest-magnitude
  component real and positive (ties go to the first component).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SingularJacobian
from .util import fd_step

# Below ||b||*|t| = 1e-8 the sin(x)/x form of the propagator switches to its
# series limit to avoid cancellation.
EVOLVE_SERIES_THRESHOLD = 1e-8
# A matrix is singular when its smallest singular value is <= INVERTIBLE_RTOL times its largest.
INVERTIBLE_RTOL = 1e-12

IDENTITY_2 = np.eye(2, dtype=complex)


def as_pauli_vector(b) -> np.ndarray:
    """Validate and return b as a finite real float 3-vector."""
    b = np.asarray(b)
    if b.shape != (3,):
        raise DomainError(f"expected a 3-vector of Pauli coefficients, got shape {b.shape}")
    if np.iscomplexobj(b):
        raise DomainError("Pauli coefficients must be real")
    b = b.astype(float, copy=False)
    if not np.all(np.isfinite(b)):
        raise DomainError("Pauli coefficients must be finite")
    return b


def pauli_compose(b) -> np.ndarray:
    """Return b1*sigma_x + b2*sigma_y + b3*sigma_z (traceless Hermitian)."""
    return _compose(as_pauli_vector(b))


def _compose(b: np.ndarray) -> np.ndarray:
    return np.array(
        [[b[2], b[0] - 1j * b[1]], [b[0] + 1j * b[1], -b[2]]], dtype=complex
    )


@dataclass(frozen=True)
class SpectralDecomposition2:
    """Eigensystem of H = b.sigma with E0 >= E1 and gap = E0 - E1."""

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


def spectral_decompose(b) -> SpectralDecomposition2:
    """Eigendecompose H = b.sigma under the package conventions."""
    w, v = np.linalg.eigh(pauli_compose(b))
    # eigh returns ascending eigenvalues; our convention is E0 >= E1.
    e0, e1 = float(w[1]), float(w[0])
    v0 = _fix_phase(v[:, 1].astype(complex))
    v1 = _fix_phase(v[:, 0].astype(complex))
    return SpectralDecomposition2(e0=e0, e1=e1, v0=v0, v1=v1, gap=e0 - e1)


def evolve_unitary(b, t: float) -> np.ndarray:
    """exp(-i*t*b.sigma) = cos(||b||t)*I - i*sin(||b||t)/||b|| * b.sigma;
    when ||b||*|t| < 1e-8 the limits cos -> 1 and sin(x)/x -> 1 apply.
    """
    b = as_pauli_vector(b)
    if not np.isfinite(t):
        raise DomainError("time must be finite")
    bn = float(np.linalg.norm(b))
    if bn * abs(t) < EVOLVE_SERIES_THRESHOLD:
        return IDENTITY_2 - 1j * t * _compose(b)
    x = bn * t
    return np.cos(x) * IDENTITY_2 - 1j * (np.sin(x) / bn) * _compose(b)


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
    """Pauli vector f of H = f.sigma and Jacobian at one parameter point."""

    f: np.ndarray
    jac: np.ndarray


def model_evaluate(model: HamiltonianModel, alpha) -> ModelEvaluation:
    """Evaluate the Pauli vector f(alpha) of H and J[i][j] = d f_i/d alpha_j.

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
    return ModelEvaluation(f=f, jac=jac)


def inverse_jacobian(jac) -> np.ndarray:
    """J^{-1} of a finite 3x3 J, raising SingularJacobian when J is singular under INVERTIBLE_RTOL."""
    jac = np.asarray(jac, dtype=float)
    if jac.shape != (3, 3) or not np.all(np.isfinite(jac)):
        raise DomainError("Jacobian must be a finite 3x3 matrix")
    s = np.linalg.svd(jac, compute_uv=False)
    if s[-1] <= INVERTIBLE_RTOL * s[0]:
        raise SingularJacobian(f"Jacobian is singular (singular values {s[-1]:.3e} .. {s[0]:.3e})")
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
