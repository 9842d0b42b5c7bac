"""End-to-end simulation of the adaptive estimation protocol.

Two measurement backends share the same adaptive loop:

* "gaussian" draws each iteration's estimate from the asymptotic normal law
  of the optimal measurement. The covariance is evaluated at the operating
  point the schedule assumes for that iteration (the mean-field residual
  magnitude, or the refined one when time refinement is on) along the true
  residual direction. Evaluating it at the realized residual instead would
  put weight arbitrarily close to the csc^2 divergence and give the realized
  squared error an infinite mean, which the contraction recursion never
  models; with the mean-field operating point the realized deviation factors
  follow the control-error law exactly, at every iteration. The covariance
  is axial about the residual direction, so each estimate applies its square
  root in closed form and no matrix is built. It stays finite up to w t = pi,
  so this backend hides the phase-branch ambiguity that the Bell backend has
  to resolve. A residual that is exactly zero (a deep schedule can reach one)
  takes the true field's direction.
* "bell" samples Bell-basis outcome counts from the exact probabilities and
  estimates the residual field by maximum likelihood: four frequencies fix
  three parameters, so each rep's estimate inverts them in closed form. One
  L-BFGS call on the stacked reps of the measurement then checks those
  points against the summed likelihood's closed-form score. It returns them
  after one evaluation unless a score component reaches its tolerance, as
  it can for a small residual (m >= 2, or a tiny field), since the score
  grows as 1/|residual|; then the reps share its steps. The Bell probabilities are even in every
  component of the residual, so the likelihood has an eight-fold sign
  degeneracy plus a phase-branch degeneracy; both are resolved toward the
  prior for the iteration.

Iteration 1 runs without a control. Iteration k >= 2 applies the control
-beta_hat_{k-1} and estimates the remaining residual. The evolution times,
the planned dE2 of each iteration and the planned endpoint V_m all come from
adaptive.plan_schedule, seeded with v0 = bound^2. With time_refinement
enabled, the time for iteration k is re-derived as g0 / omega, the optimal
phase over the residual strength omega of a fresh estimate at the previous
settings, while holding that iteration's total time budget n * t_planned
fixed, in a trial count no smaller than the backend's floor.
The reps are the batch axis of this loop and of its result: one
ExperimentTrace of m IterationOutcome records, each array rep-axis first.
Each measurement works on all reps at once, on either backend.
Measurement j, counted in run order (refinement before main), draws for all
reps from the one stream (seed, j) in rep order: row r's draws do not depend
on the rep count, and a run with a smaller m is a prefix of a larger one.
Row r's estimates do not depend on it either, except where the L-BFGS call
of a Bell measurement takes a step: its reps share the line search, so their
estimates can move in the last bits with the rep count.

scipy.optimize is imported inside the Bell fit, on its first call, so that
importing hamest and running every other command never loads scipy. The
rng annotations are strings, so importing this module does not load
numpy.random either: util.sample_stream loads it with the first stream.
"""

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .adaptive import g0, iteration_covariance, plan_schedule
from .core import evolve_unitary
from .errors import DomainError, MleNonconvergence
from .util import MAX_TRIALS, check_seed, check_trials, row_norms, sample_stream

PROBABILITY_LOG_FLOOR = 1e-300
MLE_MAX_ITERATIONS = 200
BELL_MIN_TRIALS = 100
# Largest repetition count. `simulate` peak memory grows by about 0.8 kB per Gaussian rep, 0.12 GB at
# the cap, and 1.1 kB per Bell rep, 0.19 GB at the cap: the stacked fit's L-BFGS workspace grows with 3 R.
MAX_REPS = 10**5


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one adaptive run.

    beta0_guess defaults to the true field (a well-calibrated prior);
    beta0_bound defaults to |beta0_guess| and seeds the planned schedule
    through dE2_1 = 4 bound^2. extra_trials is the budget of the time
    refinement measurement (defaults to n; a Bell fit takes at least
    BELL_MIN_TRIALS).
    """

    beta_true: tuple
    m: int
    n: int
    backend: str = "gaussian"
    seed: int = 0
    time_refinement: bool = False
    extra_trials: int | None = None
    beta0_guess: tuple | None = None
    beta0_bound: float | None = None

    def __post_init__(self):
        beta = np.asarray(self.beta_true, dtype=float)
        if beta.shape != (3,) or not np.all(np.isfinite(beta)):
            raise DomainError("beta_true must be a finite 3-vector")
        object.__setattr__(self, "beta_true", tuple(beta.tolist()))
        if self.backend not in ("gaussian", "bell"):
            raise DomainError(f"unknown backend {self.backend!r}")
        if self.m < 1:
            raise DomainError("iteration count must be >= 1")
        check_trials(self.n)
        if self.backend == "bell" and self.n < BELL_MIN_TRIALS:
            raise DomainError(f"bell backend needs n >= {BELL_MIN_TRIALS} for a usable fit")
        check_seed(self.seed)
        if self.extra_trials is not None:
            check_trials(self.extra_trials)
        if self.beta0_guess is not None:
            guess = np.asarray(self.beta0_guess, dtype=float)
            if guess.shape != (3,) or not np.all(np.isfinite(guess)):
                raise DomainError("beta0_guess must be a finite 3-vector")
            object.__setattr__(self, "beta0_guess", tuple(guess.tolist()))
        if self.beta0_bound is not None and not self.beta0_bound > 0.0:
            raise DomainError("beta0_bound must be positive")
        # dE2_1 = 4 bound^2 seeds the schedule: the same rule as plan_schedule,
        # with v0 = bound^2 a normal float so that neither underflows to zero.
        # The true field and the guess obey it too, so their phases stay finite.
        fields = {"beta_true": self.beta_true, "beta0_guess": self.beta0_guess}
        bound = self.resolved_bound()
        with np.errstate(over="ignore"):
            sizes = {name: 4.0 * float(np.dot(v, v)) for name, v in fields.items() if v is not None}
        if not (sys.float_info.min <= bound * bound and 4.0 * (bound * bound) < math.inf):
            raise DomainError(
                "prior bound (--bound) must have bound^2 a positive normal float and 4 * bound^2 finite, "
                f"got {bound}"
            )
        for name, size in sizes.items():
            if not size < math.inf:
                raise DomainError(f"{name} must have 4 * |{name}|^2 finite, got {fields[name]}")

    def resolved_guess(self) -> np.ndarray:
        if self.beta0_guess is not None:
            return np.asarray(self.beta0_guess, dtype=float)
        return np.asarray(self.beta_true, dtype=float)

    def resolved_bound(self) -> float:
        if self.beta0_bound is not None:
            return float(self.beta0_bound)
        return float(row_norms(self.resolved_guess()))

    def min_trials(self) -> int:
        """The smallest count a measurement takes: a Bell fit needs BELL_MIN_TRIALS."""
        return BELL_MIN_TRIALS if self.backend == "bell" else 1

    def resolved_extra(self) -> int:
        extra = int(self.extra_trials) if self.extra_trials is not None else int(self.n)
        return max(extra, self.min_trials())


@dataclass(frozen=True)
class IterationOutcome:
    """Iteration k of R reps. Past the scalars k and dE2_planned, each field is
    an array with the rep axis first: (R, 3) control and beta_hat, (R, 4)
    counts (None for Gaussian), and (R,) the rest (trace_cov None for Bell)."""

    k: int
    control: np.ndarray
    t: np.ndarray
    n_used: np.ndarray
    dE2_planned: float
    residual_norm_sq: np.ndarray
    trace_cov: np.ndarray | None
    d_factor: np.ndarray
    counts: np.ndarray | None
    beta_hat: np.ndarray
    error_norm: np.ndarray


@dataclass(frozen=True)
class ExperimentTrace:
    """R reps: one IterationOutcome per iteration, then (R, 3) beta_hat and (R,) realized_sq_error."""

    iterations: tuple
    beta_hat: np.ndarray
    planned_v_m: float
    realized_sq_error: np.ndarray


def bell_probabilities(delta_beta, t) -> np.ndarray:
    """Bell-basis outcome probabilities after evolving one half of a
    maximally entangled pair under the residual field for time t.

    Outcome order: (Phi+, Psi+, Psi-, Phi-). Residuals of shape (..., 3) and
    times of shape (...) give (..., 4), row by row the bits of one rep.
    """
    u = evolve_unitary(delta_beta, t)
    u00, u01, u10, u11 = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    amps = np.stack([(u00 + u11) / 2.0, (u01 + u10) / 2.0, (u01 - u10) / 2.0, (u00 - u11) / 2.0], axis=-1)
    p = np.abs(amps) ** 2
    return p / p.sum(axis=-1, keepdims=True)


def sample_counts(p, n, rng: "np.random.Generator") -> np.ndarray:
    """Multinomial draws of n Bell-outcome totals from probabilities p of shape
    (..., 4): counts of p's shape, from one rng.multinomial call on the
    stacked n and p, whose rows are the draws of one row at a time in order."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (4,) or np.any(p < 0.0):
        raise DomainError("p must be four nonnegative probabilities")
    total = p.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0) > 1e-9
    if off.any():
        raise DomainError(f"probabilities sum to {total[off][0]:.12g}, not 1")
    check_trials(n)
    return rng.multinomial(n, p / total)


def estimate_step_gaussian(cov, z) -> np.ndarray:
    """Estimation errors C^{1/2} z from axial covariances cov (from
    adaptive.iteration_covariance) and standard normals z of shape (..., 3).
    C^{1/2} = sqrt(a) P_par + sqrt(b) P_perp, applied in closed form."""
    root_a, root_b = np.sqrt(cov.a)[..., None], np.sqrt(cov.b)[..., None]
    return root_b * z + (root_a - root_b) * np.vecdot(cov.u, z)[..., None] * cov.u


def _nearest_phase(theta0: float, target: float) -> float:
    """The phase pi j +/- theta0 >= 0 nearest target >= 0, for theta0 in
    [0, pi/2]: j = round(target / pi), half to even, and + theta0 where
    target >= pi j. Built as 2 pi (j // 2) + (pi (j % 2) +/- theta0)."""
    j = round(target / math.pi)
    reflection = theta0 if target >= math.pi * j else -theta0
    return 2.0 * math.pi * (j // 2) + (math.pi * (j % 2) + reflection)


def _invert_bell_counts(counts: np.ndarray, t, prior: np.ndarray) -> np.ndarray:
    """Closed-form maximum-likelihood residual from Bell-outcome counts: the
    phase |x| t is pi j +/- theta0 with sin^2 theta0 = 1 - p0 and |x_i| goes
    as sqrt(p_i). The likelihood is invariant under per-component sign flips
    and these reflections, so the result takes the phase nearest |prior| t and
    the prior's signs (+ at zero): the equal-likelihood pattern nearest it.

    Counts (..., 4), times (...) and priors (..., 3) give residuals (..., 3).
    Every step is elementwise but the phase, which math.asin and
    _nearest_phase take rep by rep in Python floats."""
    phat = counts / counts.sum(axis=-1, keepdims=True)
    s2 = phat[..., 1] + phat[..., 2] + phat[..., 3]
    prior_norm = np.sqrt(np.vecdot(prior, prior))
    target = np.broadcast_to(prior_norm * t, s2.shape)
    theta = np.reshape([
        _nearest_phase(math.asin(min(1.0, math.sqrt(s))), g)
        for s, g in zip(s2.ravel().tolist(), target.ravel().tolist())
    ], s2.shape)
    # s2 = 0 takes the prior's direction. A row with theta = 0 is zero, whatever its
    # quotients give: 0 / 0, or a prior norm that underflows to 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = np.where((s2 > 0.0)[..., None], np.sqrt(phat[..., 1:] / s2[..., None]),
                        np.abs(prior) / prior_norm[..., None])
        x = (theta / t)[..., None] * unit * np.where(prior >= 0.0, 1.0, -1.0)
    return np.where((theta == 0.0)[..., None], 0.0, x)


def _bell_nll(x: np.ndarray, counts: np.ndarray, t):
    """Negative log-likelihood of a stack of reps' Bell-outcome counts
    (R, 4) at residuals x, flattened to (3 R,) as L-BFGS holds them, with
    times t (R,): the sum of the reps' values, and their scores, flattened
    the same way. A single rep is a stack of one. With
    p = (cos^2 phi, sin^2 phi x_i^2 / w^2), w = |x|, phi = w t and
    S = c_1 + c_2 + c_3, a rep's score is
    -2 [c_j / x_j + (t (S cot phi - c_0 tan phi) - S / w) x_j / w],
    with c_j / x_j taken as 0 where c_j = 0."""
    x, counts, t = np.reshape(x, (-1, 3)), np.reshape(counts, (-1, 4)), np.reshape(t, -1)
    p = np.clip(bell_probabilities(x, t), PROBABILITY_LOG_FLOOR, None)
    # row_norms scales where x . x underflows, for the tiny residuals of a deep schedule.
    w = row_norms(x)
    tan = np.tan(w * t)
    s = counts[:, 1:].sum(axis=1)
    # S / tan phi and S / w overflow to inf, without a warning, as phi or w goes to 0.
    with np.errstate(divide="ignore", over="ignore"):
        cot_term, s_over_w = s / tan, s / w
    radial = t * (cot_term - counts[:, 0] * tan) - s_over_w
    per_axis = np.divide(counts[:, 1:], x, out=np.zeros_like(x), where=counts[:, 1:] != 0.0)
    score = -2.0 * (per_axis + radial[:, None] * x / w[:, None])
    return -float(np.vecdot(counts, np.log(p)).sum()), score.ravel()


def _fit_bell_counts(counts: np.ndarray, t, prior: np.ndarray) -> np.ndarray:
    """Maximum-likelihood residuals of a stack of reps from their Bell-outcome
    counts (R, 4), times (R,) and priors (R, 3); a single rep (4,) is a stack
    of one. The reps' closed-form inversions start one L-BFGS call on the
    stacked reps whose inversion is not zero, with the summed likelihood and
    its score; the zero rows keep their inversion. The sum leaves each
    component's score as it is, so the gradient tolerance applies per
    component. The model is saturated, so each rep's score at its inversion
    is at the rounding level, and L-BFGS returns the inversions after one
    evaluation, unless a component reaches the tolerance. That can happen
    for a small residual (m >= 2, or a tiny field), since the score grows as
    1/|x|; the live reps then share its steps and line search."""
    x0 = _invert_bell_counts(counts, t, prior)
    live = x0.any(axis=-1)
    if not live.any():
        return x0

    # Imported here, not at module level: scipy.optimize takes most of hamest's import time.
    import scipy.optimize

    res = scipy.optimize.minimize(
        _bell_nll, x0[live].ravel(), args=(counts[live], np.broadcast_to(t, live.shape)[live]), jac=True,
        method="L-BFGS-B", options={"maxiter": MLE_MAX_ITERATIONS},
    )
    if res.status == 1:
        raise MleNonconvergence(
            f"likelihood fit did not converge within {MLE_MAX_ITERATIONS} iterations"
        )
    x = x0.copy()
    x[live] = np.copysign(res.x.reshape(-1, 3), x0[live])
    return x


def estimate_step_bell(
    delta_beta_true, n: int, t: float, prior, rng: "np.random.Generator"
) -> np.ndarray:
    """Sample n Bell-basis outcomes under the true residual and return the
    maximum-likelihood estimate, degeneracies resolved toward the prior."""
    if n < BELL_MIN_TRIALS:
        raise DomainError(f"bell estimation needs n >= {BELL_MIN_TRIALS} for a usable fit")
    if not t > 0.0:
        raise DomainError(f"evolution time must be positive, got {t}")
    prior = np.asarray(prior, dtype=float)
    counts = sample_counts(bell_probabilities(delta_beta_true, t), n, rng)
    return _fit_bell_counts(counts.astype(float), t, prior)


def _measure(config: ExperimentConfig, residual, n, t, magnitude, prior, rng):
    """One measurement of every rep's residual: (estimates, trace_cov, counts).
    Gaussian: residual + C^{1/2} z, with C axial about each residual direction at the
    operating magnitude and z one (R, 3) normal draw from rng; trace_cov is tr C = a + 2 b.
    A residual that is exactly zero takes the direction of config.beta_true.
    Bell: one bell_probabilities call on the (R, 3) residuals, one multinomial
    draw from rng on the stacked n and p, and one stacked fit of the counts,
    each rep toward its prior.
    """
    if config.backend == "gaussian":
        direction = np.where((residual == 0.0).all(axis=1, keepdims=True), config.beta_true, residual)
        norm = row_norms(direction)
        if np.any(norm == 0.0):
            raise DomainError("residual direction is undefined at zero residual")
        cov = iteration_covariance(direction * (magnitude / norm)[:, None], n, t)
        z = rng.standard_normal(residual.shape)
        return residual + estimate_step_gaussian(cov, z), cov.a + 2.0 * cov.b, None
    counts = sample_counts(bell_probabilities(residual, t), n.astype(np.int64), rng)
    return _fit_bell_counts(counts.astype(float), t, prior), None, counts


def run_adaptive_experiment(config: ExperimentConfig, reps: int) -> ExperimentTrace:
    """Run reps 0..reps-1 of the experiment as one batch, measurement j on the
    stream (config.seed, j), and return their trace: rep r is row r of its arrays.

    A likelihood fit that does not converge raises MleNonconvergence and
    ends the run. run_repetitions is the validated entry point; both names
    stay public because the benchmark traces each as a span of its own.
    """
    # The plan bounds m before any normals are drawn: it ends where V_m underflows.
    bound = config.resolved_bound()
    plan = plan_schedule(bound * bound, config.n, target_m=config.m)
    # One stream per measurement, in run order: the refinement measurement before the main one.
    streams = (sample_stream(config.seed, j) for j in itertools.count())
    beta_true = np.asarray(config.beta_true, dtype=float)

    beta_hat = np.zeros((reps, 3))
    history = []
    prev_trace_cov = None
    for rec in plan.records:
        k, t_plan, dE2_plan = rec.k, rec.t, rec.dE2_mean
        control = -beta_hat
        residual = beta_true + control
        t_k, n_k = np.full(reps, t_plan), np.full(reps, float(config.n))
        magnitude = np.full(reps, math.sqrt(dE2_plan) / 2.0)
        prior = np.broadcast_to(config.resolved_guess() if k == 1 else np.zeros(3), (reps, 3))
        if k >= 2 and config.time_refinement:
            second, _, _ = _measure(
                config, prev_residual, np.full(reps, float(config.resolved_extra())), prev_t,
                prev_magnitude, prev_estimate, next(streams),
            )
            omega_tilde = np.sqrt(np.vecdot(prev_estimate - second, prev_estimate - second))
            refined = omega_tilde > 0.0
            with np.errstate(divide="ignore"):
                t_k = np.where(refined, g0() / omega_tilde, t_plan)
            # The same time budget n * t_plan, in a count the backend can measure with.
            n_refined = np.clip(np.round(config.n * t_plan / t_k), config.min_trials(), MAX_TRIALS)
            n_k = np.where(refined, n_refined, n_k)
            magnitude = np.where(refined, omega_tilde, magnitude)
        estimate, trace_cov, counts = _measure(config, residual, n_k, t_k, magnitude, prior, next(streams))

        res_sq = np.vecdot(residual, residual)
        # A huge residual overflows d_factor to inf, which the CLI rejects.
        with np.errstate(over="ignore"):
            d_factor = res_sq / prev_trace_cov if prev_trace_cov is not None else 4.0 * res_sq / dE2_plan
        beta_hat = beta_hat + estimate
        err = beta_hat - beta_true
        history.append(IterationOutcome(
            k=k, control=control, t=t_k, n_used=n_k.astype(np.int64), dE2_planned=dE2_plan,
            residual_norm_sq=res_sq, trace_cov=trace_cov, d_factor=d_factor, counts=counts,
            beta_hat=beta_hat, error_norm=np.sqrt(np.vecdot(err, err)),
        ))
        prev_residual, prev_t, prev_magnitude = residual, t_k, magnitude
        prev_estimate, prev_trace_cov = estimate, trace_cov

    return ExperimentTrace(tuple(history), beta_hat, plan.v_m, np.vecdot(err, err))


def run_repetitions(config: ExperimentConfig, reps: int) -> ExperimentTrace:
    """Run 1 <= reps <= MAX_REPS repetitions, measurement j on stream (seed, j),
    and return their trace, rep r in row r: the entry point the CLI calls."""
    if not 1 <= reps <= MAX_REPS:
        raise DomainError(f"repetition count must lie in [1, {MAX_REPS}], got {reps}")
    return run_adaptive_experiment(config, reps)
