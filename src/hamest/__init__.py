"""Adaptive estimation of all three field components of a qubit Hamiltonian."""

from .core import (
    HamiltonianModel,
    ModelEvaluation,
    SpectralDecomposition2,
    btp_model,
    custom_model,
    evolve_unitary,
    get_model,
    inverse_jacobian,
    model_evaluate,
    pauli_compose,
    pauli_model,
    spectral_decompose,
)
from .errors import (
    DegenerateInput,
    DegenerateSpectrum,
    DivergentTime,
    DomainError,
    EstimationError,
    MleNonconvergence,
    NoContraction,
    SingularJacobian,
    SingularQfim,
)
from .qfim import (
    Covariance3,
    QfimMatrix,
    covariance_from_qfim,
    generator,
    qfim_entangled,
    qfim_weighted_initial,
    reparameterize_covariance,
    reparameterize_qfim,
    scalar_bound,
    weak_commutativity_residual,
)
from .variance import (
    SpectralSensitivities,
    XiCoefficients,
    estimator_variances,
    spectral_sensitivities,
    variance_curve,
    variance_envelope,
    variance_infimum,
    xi_coefficients,
)
from .adaptive import (
    AdaptiveSchedule,
    AlphaVarianceBounds,
    IterationRecord,
    alpha_variance_bounds,
    deviation_weight,
    expected_dE2_next,
    g0,
    gain,
    iteration_covariance,
    optimal_control_baseline,
    optimal_time,
    plan_schedule,
    recursion,
    solve_g0,
)
from .robustness import (
    DeviationParams,
    RobustnessSummary,
    deviation_params,
    deviation_pdf,
    modified_recursion,
    ratio_single,
    robustness_mc,
)
from .simulator import (
    ExperimentConfig,
    ExperimentTrace,
    IterationOutcome,
    bell_probabilities,
    estimate_step_bell,
    estimate_step_gaussian,
    run_adaptive_experiment,
    run_repetitions,
    sample_counts,
)

__version__ = "0.1.0"
