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

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SingularJacobian
from .util import fd_step, row_norms

# Below ||b||*|t| = 1e-8 the sin(x)/x form of the propagator switches to its
# series limit to avoid cancellation.
EVOLVE_SERIES_THRESHOLD = 1e-8
# A matrix is singular when its smallest singular value is <= INVERTIBLE_RTOL times its largest.
INVERTIBLE_RTOL = 1e-12

IDENTITY_2 = np.eye(2, dtype=complex)


def as_pauli_vector(b, stack: bool = False) -> np.ndarray:
    """Validate and return b as a finite real float 3-vector, or with stack=True
    as a stack of them, shape (..., 3)."""
    b = np.asarray(b)
    if b.shape != (3,) and not (stack and b.shape[-1:] == (3,)):
        raise DomainError(f"expected a 3-vector of Pauli coefficients, got shape {b.shape}")
    if np.iscomplexobj(b):
        raise DomainError("Pauli coefficients must be real")
    b = b.astype(float, copy=False)
    if not (all(map(math.isfinite, b.tolist())) if b.ndim == 1 else np.isfinite(b).all()):
        raise DomainError("Pauli coefficients must be finite")
    return b


def pauli_compose(b) -> np.ndarray:
    """Return b1*sigma_x + b2*sigma_y + b3*sigma_z (traceless Hermitian)."""
    return _compose(as_pauli_vector(b))


def _compose(b: np.ndarray) -> np.ndarray:
    # b.sigma for b of shape (..., 3): (..., 2, 2), entrywise the same ops for every row.
    x, y, z = b[..., 0], b[..., 1], b[..., 2]
    top = np.stack([z.astype(complex), x - 1j * y], axis=-1)
    bottom = np.stack([x + 1j * y, (-z).astype(complex)], axis=-1)
    return np.stack([top, bottom], axis=-2)


@dataclass(frozen=True)
class SpectralDecomposition2:
    """Eigensystem of H = b.sigma with E0 >= E1 and gap = E0 - E1."""

    e0: float
    e1: float
    v0: np.ndarray
    v1: np.ndarray
    gap: float


def _fix_phase(a: complex, c: complex, norm: float) -> np.ndarray:
    # (a, c) / norm, its largest-magnitude component made real positive; a tie goes to the first.
    top = a if abs(a) >= abs(c) else c
    phase = top.conjugate() / (abs(top) * norm)
    return np.array([a * phase, c * phase])


def spectral_decompose(b) -> SpectralDecomposition2:
    """Eigensystem of H = b.sigma in closed form: E0 = -E1 = |b|, v0 along (a, c) = (1 + n_z, n_x + i n_y)
    if n_z >= 0, else (n_x - i n_y, 1 - n_z), v1 along (-c*, a*); n = b / |b|, or -z at b = 0."""
    x, y, z = as_pauli_vector(b).tolist()
    e = math.hypot(x, y, z)
    x, y, z = (x / e, y / e, z / e) if e > 0.0 else (0.0, 0.0, -1.0)
    a, c = (complex(1.0 + z), complex(x, y)) if z >= 0.0 else (complex(x, -y), complex(1.0 - z))
    norm = math.hypot(a.real, a.imag, c.real, c.imag)
    v0 = _fix_phase(a, c, norm)
    v1 = _fix_phase(-c.conjugate(), a.conjugate(), norm)
    return SpectralDecomposition2(e0=e, e1=-e, v0=v0, v1=v1, gap=2.0 * e)


def evolve_unitary(b, t) -> np.ndarray:
    """exp(-i*t*b.sigma) = cos(||b||t)*I - i*sin(||b||t)/||b|| * b.sigma;
    where ||b||*|t| < 1e-8 the limits cos -> 1 and sin(x)/x -> 1 apply.

    b of shape (..., 3) and t of shape (...) give (..., 2, 2); each row has
    the bits of its own 3-vector call, and a 3-vector gives one 2x2 matrix.
    """
    b = as_pauli_vector(b, stack=True)
    if not np.isfinite(t).all():
        raise DomainError("time must be finite")
    # row_norms scales where b . b overflows or is subnormal (|b| outside about 1e-154 .. 1e154).
    bn = row_norms(b)
    with np.errstate(over="ignore"):
        x = bn * t
    series = bn * np.abs(t) < EVOLVE_SERIES_THRESHOLD
    cos = np.where(series, 1.0, np.cos(x))
    coef = np.where(series, t, np.sin(x) / np.where(series, 1.0, bn))
    return cos[..., None, None] * IDENTITY_2 - (1j * coef)[..., None, None] * _compose(b)


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
    if not all(map(math.isfinite, alpha.tolist())):
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


@dataclass(frozen=True)
class Covariance3:
    """3x3 covariance matrix."""

    m: np.ndarray


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
