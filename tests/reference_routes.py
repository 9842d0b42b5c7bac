"""Independent routes to the information quantities, the full-list Bell
phase search and the per-sample robustness Monte Carlo: the references that
the tests compare the library's production routes against."""

import math

import numpy as np

from hamest.core import HamiltonianModel, model_evaluate, pauli_compose
from hamest.errors import DomainError
from hamest.qfim import QfimMatrix, _validated_qfim, generator
from hamest.robustness import MC_BLOCK, deviation_params, ratio_total
from hamest.simulator import bell_probabilities
from hamest.util import fd_step, sample_stream
from hamest.variance import spectral_sensitivities

BELL_PROBABILITY_FLOOR = 1e-14


def generator_oracle(
    model: HamiltonianModel, alpha, i: int, t: float, steps: int = 200
) -> np.ndarray:
    """Quadrature oracle for the generator: composite Simpson on the integral

        h_i(t) = int_0^t exp(iH tau) (d_i H) exp(-iH tau) d tau.
    """
    if steps < 100:
        raise DomainError("oracle quadrature needs at least 100 panels")
    ev = model_evaluate(model, alpha)
    dh = pauli_compose(ev.jac[:, i - 1])
    if t == 0.0:
        return np.zeros((2, 2), dtype=complex)
    panels = steps + (steps % 2)
    tau = np.linspace(0.0, t, panels + 1)
    theta = np.linalg.norm(ev.f) * tau
    # sin(|f| tau)/|f| via sinc, exact in the |f| -> 0 limit
    radial = np.sinc(theta / np.pi) * tau
    u = (
        np.cos(theta)[:, None, None] * np.eye(2, dtype=complex)
        - 1j * radial[:, None, None] * pauli_compose(ev.f)
    )
    integrand = np.einsum("sba,bc,scd->sad", u.conj(), dh, u)
    weights = np.full(panels + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return np.tensordot(weights, integrand, axes=(0, 0)) * (t / panels / 3.0)


def generator_matrices(model: HamiltonianModel, alpha, t: float) -> np.ndarray:
    """The generators h_i = g_i.sigma as a (3, 2, 2) stack of Hermitian matrices."""
    return np.stack([pauli_compose(g) for g in generator(model, alpha, t)])


def qfim_trace_formula(model: HamiltonianModel, alpha, t: float) -> QfimMatrix:
    """Entangled-probe QFIM by the trace formula on the generators:

        F_ij = 2 Tr(h_i h_j) - Tr(h_i) Tr(h_j).
    """
    hs = generator_matrices(model, alpha, t)
    traces = [np.trace(h).real for h in hs]
    m = np.empty((3, 3))
    for a in range(3):
        for b in range(a, 3):
            m[a, b] = m[b, a] = 2.0 * np.trace(hs[a] @ hs[b]).real - traces[a] * traces[b]
    return _validated_qfim(m)


def _probe_state(x: float) -> np.ndarray:
    """The 4-dimensional probe+ancilla state sqrt(x)|00> + sqrt(1-x)|11>."""
    return np.array([math.sqrt(x), 0.0, 0.0, math.sqrt(1.0 - x)])


def commutativity_residual_explicit(hs, x: float) -> float:
    """max_ij |Im <psi|(h_i h_j) (x) I|psi>| on the probe+ancilla state psi."""
    psi = _probe_state(x)
    return max(
        abs((psi @ np.kron(hs[a] @ hs[b], np.eye(2)) @ psi).imag)
        for a in range(3)
        for b in range(3)
    )


def qfim_explicit_state(hs, x: float) -> np.ndarray:
    """F_ij = 4 Re[<psi|(h_i h_j) (x) I|psi> - <psi|h_i (x) I|psi> <psi|h_j (x) I|psi>]
    on the probe+ancilla state psi."""
    psi = _probe_state(x)
    big = [np.kron(h, np.eye(2)) for h in hs]
    means = [(psi @ h @ psi).real for h in big]
    return np.array(
        [[4.0 * ((psi @ big[a] @ big[b] @ psi).real - means[a] * means[b]) for b in range(3)] for a in range(3)]
    )


def qfim_spectral_form(model: HamiltonianModel, alpha, t: float) -> QfimMatrix:
    """QFIM assembled from spectral sensitivities:

        F = t^2 d d^T + 16 sin^2(dE t / 2) (mu mu^T + nu nu^T).
    """
    s = spectral_sensitivities(model, alpha)
    osc = 16.0 * np.sin(s.gap * t / 2.0) ** 2
    m = t * t * np.outer(s.dgap, s.dgap) + osc * (np.outer(s.mu, s.mu) + np.outer(s.nu, s.nu))
    return _validated_qfim(m)


def bell_cfi(model: HamiltonianModel, alpha, t: float) -> np.ndarray:
    """Classical Fisher information of the Bell-basis measurement.

    Outcome probabilities are differentiated by central differences in the
    original parameters.  An outcome whose probability falls below 1e-14
    vanishes (at least) quadratically in the parameters, so the ratio
    (d_i p)(d_j p)/p has the removable limit 2 d_i d_j p; that Hessian term,
    also by central differences, replaces the singular quotient there.
    """
    alpha = np.asarray(alpha, dtype=float)

    def probs(a):
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


def phase_candidates_full(theta0: float, target: float) -> list:
    """Every Bell-fit phase candidate of blocks j = 0 .. top, in block order.

    The production search builds only the blocks next to target; its nearest
    candidate (first on ties) must equal the nearest one of this list.
    """
    top = int(math.ceil((target + math.pi) / (2.0 * math.pi))) + 1
    cands = []
    for j in range(top + 1):
        cands.append(2.0 * math.pi * j + theta0)
        cands.append(2.0 * math.pi * (j + 1) - theta0)
        cands.append(2.0 * math.pi * j + (math.pi - theta0))
        cands.append(2.0 * math.pi * j + (math.pi + theta0))
    return [c for c in cands if c >= 0.0]


def robustness_ratios_per_sample(m: int, samples: int, seed: int) -> np.ndarray:
    """Whole-process penalty of every sample of robustness_mc, one at a time.

    Block b draws a full (MC_BLOCK, m - 1, 3) array from sample_stream(seed, b)
    and the last block keeps only its first rows. Each sample's deviation
    factors go through the scalar ratio_total([1, D_2, ..., D_m]).
    """
    p = deviation_params()
    ratios = []
    for b, start in enumerate(range(0, samples, MC_BLOCK)):
        z = sample_stream(seed, b).standard_normal((MC_BLOCK, m - 1, 3))
        for zs in z[: samples - start]:
            devs = [(z1 * z1 + p.a * (z2 * z2 + z3 * z3)) / p.s for z1, z2, z3 in zs.tolist()]
            ratios.append(ratio_total([1.0, *devs]))
    return np.array(ratios)
