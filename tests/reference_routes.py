"""Independent routes to the information quantities, the eigensolver
spectral decomposition, the full-list Bell
phase search, the eigendecomposition square root of a Gaussian step, the
deviation factor of one draw or of a batch, the whole-process penalty, the
per-sample robustness Monte Carlo, the summary statistics of the penalties
in draw order, the exact law of the whole-process penalty and the row-by-row
`simulate` document: the references that the tests compare the library's
production routes against."""

import csv
import io
import json
import math

import numpy as np

from hamest.cli import SCHEMA_VERSION
from hamest.core import HamiltonianModel, SpectralDecomposition2, model_evaluate, pauli_compose
from hamest.errors import DomainError
from hamest.qfim import QfimMatrix, generator
from hamest.robustness import MC_BLOCK, deviation_params
from hamest.simulator import ExperimentConfig, bell_probabilities, run_repetitions
from hamest.util import fd_step, sample_stream

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
    return QfimMatrix(m=m)


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


def _fix_phase(v: np.ndarray) -> np.ndarray:
    # Largest-magnitude component made real positive; tie goes to the first.
    idx = 0 if abs(v[0]) >= abs(v[1]) else 1
    phase = v[idx] / abs(v[idx])
    return v * phase.conjugate()


def spectral_decompose_eigh(b) -> SpectralDecomposition2:
    """Eigensystem of H = b.sigma from a Hermitian eigensolver on the 2x2
    matrix, under the package conventions (E0 >= E1, phase rule of core)."""
    w, v = np.linalg.eigh(pauli_compose(b))
    # eigh returns ascending eigenvalues; the convention is E0 >= E1.
    e0, e1 = float(w[1]), float(w[0])
    v0 = _fix_phase(v[:, 1].astype(complex))
    v1 = _fix_phase(v[:, 0].astype(complex))
    return SpectralDecomposition2(e0=e0, e1=e1, v0=v0, v1=v1, gap=e0 - e1)


def _spectral_data_eigh(model: HamiltonianModel, alpha):
    """The eigh spectrum of H(alpha), the gap derivatives d_i and the matrix
    elements m_i = <E0|d_i H|E1>, each from the explicit 2x2 matrix d_i H."""
    ev = model_evaluate(model, alpha)
    spec = spectral_decompose_eigh(ev.f)
    dgap = np.empty(3)
    m = np.empty(3, dtype=complex)
    for i in range(3):
        dh = pauli_compose(ev.jac[:, i])
        dgap[i] = (spec.v0.conj() @ dh @ spec.v0).real - (spec.v1.conj() @ dh @ spec.v1).real
        m[i] = spec.v0.conj() @ dh @ spec.v1
    return spec, dgap, m


def qfim_spectral_form(model: HamiltonianModel, alpha, t: float) -> QfimMatrix:
    """QFIM assembled from the eigh spectral data, with m_i = <E0|d_i H|E1>:

        F = t^2 d d^T + 4 t^2 sinc^2(dE t / 2) (Re m Re m^T + Im m Im m^T).
    """
    spec, dgap, mel = _spectral_data_eigh(model, alpha)
    osc = 4.0 * t * t * np.sinc(spec.gap * t / (2.0 * math.pi)) ** 2
    m = t * t * np.outer(dgap, dgap) + osc * (np.outer(mel.real, mel.real) + np.outer(mel.imag, mel.imag))
    return QfimMatrix(m=m)


def paper_form_variances(model: HamiltonianModel, alpha, t: float, n: int):
    """Variances, envelope and infimum by the paper's perturbative route.

    With the first-order overlaps <E0|d_i E1> = <E0|d_i H|E1> / (E1 - E0) =
    mu_i + i nu_i and the gap derivatives d, the coefficients are
    xi1_i = (mu x d)_i^2 + (nu x d)_i^2, xi2_i = 16 (mu x nu)_i^2 and
    xi3 = 16 (mu . (d x nu))^2, and

        v_i = (csc^2(dE t / 2) t^2 xi1_i + xi2_i) / (n t^2 xi3),

    with csc^2 -> 1 for the envelope and xi1 / (n xi3) for the infimum.
    """
    spec, dgap, m = _spectral_data_eigh(model, alpha)
    overlap = m / (spec.e1 - spec.e0)
    mu, nu = overlap.real, overlap.imag
    xi1 = np.cross(mu, dgap) ** 2 + np.cross(nu, dgap) ** 2
    xi2 = 16.0 * np.cross(mu, nu) ** 2
    xi3 = 16.0 * float(mu @ np.cross(dgap, nu)) ** 2
    csc2 = 1.0 / math.sin(spec.gap * t / 2.0) ** 2
    variances = (csc2 * t * t * xi1 + xi2) / (n * t * t * xi3)
    envelope = (t * t * xi1 + xi2) / (n * t * t * xi3)
    return variances, envelope, xi1 / (n * xi3)


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
    """Every Bell-fit phase candidate of blocks j = 0 .. top, in block order:
    the phases pi i +/- theta0 >= 0 that share the Bell probabilities of theta0.

    The production fit picks the nearest to target in closed form; off exact
    ties that pick must equal the nearest one of this list, and on a tie it
    must be a candidate at the same distance up to rounding.
    """
    top = int(math.ceil((target + math.pi) / (2.0 * math.pi))) + 1
    cands = []
    for j in range(top + 1):
        cands.append(2.0 * math.pi * j + theta0)
        cands.append(2.0 * math.pi * (j + 1) - theta0)
        cands.append(2.0 * math.pi * j + (math.pi - theta0))
        cands.append(2.0 * math.pi * j + (math.pi + theta0))
    return [c for c in cands if c >= 0.0]


def gaussian_step_eigh(c, z) -> np.ndarray:
    """Estimation errors C^{1/2} z for covariance matrices c of shape (..., 3, 3)
    and normals z of shape (..., 3), with the symmetric square root from an
    eigendecomposition. Rounding can leave an eigenvalue slightly negative;
    it is clipped to 0."""
    w, v = np.linalg.eigh(c)
    root = v @ (np.sqrt(np.clip(w, 0.0, None))[..., None] * np.eye(3)) @ np.swapaxes(v, -1, -2)
    return (root @ np.asarray(z)[..., None])[..., 0]


def deviation_factors(z: np.ndarray) -> np.ndarray:
    """D = (z0^2 + a (z1^2 + z2^2)) / s over the last axis of standard normals z,
    written out as sample_deviation writes it for one draw."""
    p = deviation_params()
    return (z[..., 0] * z[..., 0] + p.a * (z[..., 1] * z[..., 1] + z[..., 2] * z[..., 2])) / p.s


def sample_deviation(rng: np.random.Generator) -> float:
    """One deviation factor D = (z1^2 + a (z2^2 + z3^2)) / s from three
    standard normals of rng: the draw that robustness_mc makes in blocks."""
    p = deviation_params()
    z1, z2, z3 = rng.standard_normal(3).tolist()
    return (z1 * z1 + p.a * (z2 * z2 + z3 * z3)) / p.s


def ratio_total(deviations) -> float:
    """Whole-process variance penalty after m re-optimized iterations:

        R_tot = prod_k D_k^(1 / 2^(m - k + 1)).

    deviations holds (D_1, ..., D_m) with D_1 = 1 (the first iteration has no
    control to err on)."""
    devs = np.asarray(deviations, dtype=float)
    if devs.ndim != 1 or devs.size < 1:
        raise DomainError("deviations must be a nonempty 1-d sequence")
    if abs(devs[0] - 1.0) > 1e-9:
        raise DomainError(f"the first deviation factor must be 1, got {devs[0]}")
    if not np.all(devs > 0.0):
        raise DomainError("deviation factors must be positive")
    m = devs.size
    log_total = 0.0
    for k in range(1, m + 1):
        log_total += math.log(devs[k - 1]) / 2.0 ** (m - k + 1)
    return math.exp(log_total)


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


def summary_statistics_reference(ratios: np.ndarray) -> tuple:
    """(mean, deciles, p_below_one) of ratios in draw order by numpy's own
    routines: np.mean, np.quantile at the nine decile levels, and the mean of
    the mask r < 1. None of them reorders ratios."""
    deciles = np.quantile(ratios, np.arange(0.1, 0.95, 0.1))
    return float(np.mean(ratios)), tuple(deciles.tolist()), float(np.mean(ratios < 1.0))


def robustness_summary_reference(m: int, samples: int, seed: int) -> tuple:
    """summary_statistics_reference of robustness_mc's ratios, drawn block by
    block as it draws them: a full (MC_BLOCK, m - 1, 3) block from
    sample_stream(seed, b), its first rows for a short last block, and the
    product of the D_k^(1 / 2^(m - k + 1)) as exp of a dot of logs."""
    exponents = np.array([1.0 / 2.0 ** (m - k + 1) for k in range(2, m + 1)])
    blocks = []
    for b, start in enumerate(range(0, samples, MC_BLOCK)):
        z = sample_stream(seed, b).standard_normal((MC_BLOCK, m - 1, 3))[: samples - start]
        blocks.append(np.exp(np.vecdot(np.log(deviation_factors(z)), exponents)))
    return summary_statistics_reference(np.concatenate(blocks))


def _log_deviation_density(x: np.ndarray) -> np.ndarray:
    """log of the density of log D at x, that is log f(e^x) + x with f the
    deviation_pdf law, in log space: erf(y) for y = sqrt(c e^x) below e^-20
    is its leading term 2 y / sqrt(pi), and an e^x that overflows gives -inf."""
    p = deviation_params()
    log_y = 0.5 * (math.log(p.c) + x)
    small = log_y < -20.0
    with np.errstate(over="ignore"):
        e = np.exp(x)
        y = np.exp(np.where(small, 0.0, log_y))
    erf = np.array([math.erf(v) for v in y.tolist()])
    log_erf = np.where(small, math.log(2.0 / math.sqrt(math.pi)) + log_y, np.log(np.where(small, 1.0, erf)))
    pref = p.s / (2.0 * math.sqrt(p.a * (p.a - 1.0)))
    return math.log(pref) - p.s * e / (2.0 * p.a) + log_erf + x


def penalty_law(m: int, h: float = 1e-3, lo: float = -60.0, hi: float = 8.0):
    """Exact P(R_tot < 1), deciles and the density of R_tot at them, for the
    whole-process penalty of robustness_mc.

    log R_tot = sum_{k=2}^m 2^-(m-k+1) log D_k with iid D_k, so its density is
    the convolution of m - 1 scaled log-D densities, each sampled on the grid
    [lo, hi] of step h and convolved by FFT. The CDF is the trapezoid rule on
    that grid; a plain cumulative sum would be off by half a cell.
    """
    n = int(round((hi - lo) / h)) + 1
    u = lo + h * np.arange(n)
    size = (m - 1) * (n - 1) + 1
    spectrum = np.ones(size // 2 + 1, dtype=complex)
    for k in range(2, m + 1):
        w = 2.0 ** -(m - k + 1)
        spectrum *= np.fft.rfft(np.exp(_log_deviation_density(u / w)) / w, size)
    # FFT rounding leaves tiny negative densities in the tails.
    g = np.maximum(np.fft.irfft(spectrum, size) * h ** (m - 2), 0.0)
    z = (m - 1) * lo + h * np.arange(size)
    cdf = h * (np.cumsum(g) - 0.5 * (g[0] + g))
    log_deciles = np.interp(np.arange(1, 10) / 10.0, cdf, z)
    deciles = np.exp(log_deciles)
    return float(np.interp(0.0, z, cdf)), deciles, np.interp(log_deciles, z, g) / deciles


def simulate_reference(args) -> tuple:
    """stdout and CSV text of `hamest simulate` with parsed arguments args,
    built row by row: one dict per rep and per iteration, the whole document
    through json.dumps(indent=2, allow_nan=False)."""
    config = ExperimentConfig(
        beta_true=args.beta0,
        m=args.m,
        n=args.n,
        backend=args.backend,
        seed=args.seed,
        time_refinement=args.refine,
        extra_trials=args.extra_trials,
        beta0_bound=args.bound,
        beta0_guess=args.guess,
    )
    trace = run_repetitions(config, args.reps)
    with np.errstate(over="ignore"):
        mean_sq_error = float(np.mean(trace.realized_sq_error))
        ratio = float(mean_sq_error / trace.planned_v_m)
    beta_hat, sq_error = trace.beta_hat.tolist(), trace.realized_sq_error.tolist()
    iterations = []
    for record in trace.iterations:
        columns = {
            name: value.tolist() if isinstance(value, np.ndarray) else [value] * args.reps
            for name, value in vars(record).items()
        }
        iterations.append([dict(zip(columns, row)) for row in zip(*columns.values())])
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "params": {**vars(config), "pi0": None},
        "seed": config.seed,
        "rows": [
            {
                "rep": r,
                "beta_hat": beta_hat[r],
                "realized_sq_error": sq_error[r],
                "planned_v_m": trace.planned_v_m,
                "aborted": False,
                "iterations": [rows[r] for rows in iterations],
            }
            for r in range(args.reps)
        ],
        "summary": {
            "mean_sq_error": mean_sq_error,
            "planned_v_m": trace.planned_v_m,
            "ratio": ratio,
        },
    }
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["rep", "beta_hat_1", "beta_hat_2", "beta_hat_3", "realized_sq_error"])
    w.writerows([r, *map(repr, b), repr(e)] for r, (b, e) in enumerate(zip(beta_hat, sq_error)))
    return json.dumps(doc, indent=2, allow_nan=False) + "\n", out.getvalue()
