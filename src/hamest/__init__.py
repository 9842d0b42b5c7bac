"""Adaptive estimation of all three field components of a qubit Hamiltonian.

Each layer loads on first use. `import hamest` itself loads no layer: an
exported name, such as `hamest.g0`, is looked up in `_LAYER_EXPORTS` on every
access, its layer is imported if it is not loaded yet, and the layer's
attribute of that moment is returned. Nothing is bound into this namespace,
so `hamest.g0` is always `hamest.adaptive.g0`, also while that is patched.
A layer name, such as `hamest.robustness`, imports the layer and gives the
module.
"""

import importlib

__version__ = "0.1.0"

# Each export and the layer that defines it.
_LAYER_EXPORTS = {
    "core": (
        "Covariance3",
        "HamiltonianModel",
        "ModelEvaluation",
        "SpectralDecomposition2",
        "btp_model",
        "custom_model",
        "evolve_unitary",
        "get_model",
        "inverse_jacobian",
        "model_evaluate",
        "pauli_compose",
        "pauli_model",
        "spectral_decompose",
    ),
    "errors": (
        "DegenerateInput",
        "DegenerateSpectrum",
        "DivergentTime",
        "DomainError",
        "EstimationError",
        "MleNonconvergence",
        "NoContraction",
        "SingularJacobian",
        "SingularQfim",
    ),
    "qfim": (
        "QfimMatrix",
        "covariance_from_qfim",
        "generator",
        "qfim_entangled",
        "qfim_weighted_initial",
        "reparameterize_covariance",
        "reparameterize_qfim",
        "scalar_bound",
        "weak_commutativity_residual",
    ),
    "variance": (
        "SpectralSensitivities",
        "XiCoefficients",
        "estimator_variances",
        "spectral_sensitivities",
        "variance_curve",
        "variance_envelope",
        "variance_infimum",
        "xi_coefficients",
    ),
    "adaptive": (
        "AdaptiveSchedule",
        "AlphaVarianceBounds",
        "IterationRecord",
        "alpha_variance_bounds",
        "deviation_weight",
        "expected_dE2_next",
        "g0",
        "gain",
        "iteration_covariance",
        "optimal_control_baseline",
        "optimal_time",
        "plan_schedule",
        "recursion",
        "solve_g0",
    ),
    "robustness": (
        "DeviationParams",
        "RobustnessSummary",
        "deviation_params",
        "deviation_pdf",
        "modified_recursion",
        "ratio_single",
        "robustness_mc",
    ),
    "simulator": (
        "ExperimentConfig",
        "ExperimentTrace",
        "IterationOutcome",
        "bell_probabilities",
        "estimate_step_bell",
        "estimate_step_gaussian",
        "run_adaptive_experiment",
        "run_repetitions",
        "sample_counts",
    ),
}
_LAYERS = ("core", "errors", "util", "qfim", "variance", "adaptive", "robustness", "simulator", "cli")
_LAYER_OF = {name: layer for layer, names in _LAYER_EXPORTS.items() for name in names}

__all__ = list(_LAYER_OF)


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is not None:
        return getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_LAYERS))
