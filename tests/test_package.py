"""The package surface: what `import hamest` exports and what it loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import hamest
from hamest import adaptive

# The public exports, by the layer that defines each.
EXPORTS = {
    "core": [
        "Covariance3", "HamiltonianModel", "ModelEvaluation", "SpectralDecomposition2", "btp_model",
        "custom_model", "evolve_unitary", "get_model", "inverse_jacobian", "model_evaluate", "pauli_compose",
        "pauli_model", "spectral_decompose",
    ],
    "errors": [
        "DegenerateInput", "DegenerateSpectrum", "DivergentTime", "DomainError", "EstimationError",
        "MleNonconvergence", "NoContraction", "SingularJacobian", "SingularQfim",
    ],
    "qfim": [
        "QfimMatrix", "covariance_from_qfim", "generator", "qfim_entangled",
        "qfim_weighted_initial", "reparameterize_covariance", "reparameterize_qfim", "scalar_bound",
        "weak_commutativity_residual",
    ],
    "variance": [
        "SpectralSensitivities", "XiCoefficients", "estimator_variances", "spectral_sensitivities",
        "variance_curve", "variance_envelope", "variance_infimum", "xi_coefficients",
    ],
    "adaptive": [
        "AdaptiveSchedule", "AlphaVarianceBounds", "IterationRecord", "alpha_variance_bounds",
        "deviation_weight", "expected_dE2_next", "g0", "gain", "iteration_covariance",
        "optimal_control_baseline", "optimal_time", "plan_schedule", "recursion", "solve_g0",
    ],
    "robustness": [
        "DeviationParams", "RobustnessSummary", "deviation_params", "deviation_pdf", "modified_recursion",
        "ratio_single", "robustness_mc",
    ],
    "simulator": [
        "ExperimentConfig", "ExperimentTrace", "IterationOutcome", "bell_probabilities", "estimate_step_bell",
        "estimate_step_gaussian", "run_adaptive_experiment", "run_repetitions", "sample_counts",
    ],
}
LAYERS = ["core", "errors", "util", "qfim", "variance", "adaptive", "robustness", "simulator", "cli"]


def _run_fresh(script):
    """Run script in a fresh interpreter that imports this hamest; its stdout."""
    env = dict(os.environ)
    src = str(Path(hamest.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_the_export_list():
    assert sorted(hamest.__all__) == sorted(name for names in EXPORTS.values() for name in names)
    assert len(set(hamest.__all__)) == len(hamest.__all__)


def test_every_export_is_its_layers_object():
    for layer, names in EXPORTS.items():
        mod = importlib.import_module(f"hamest.{layer}")
        for name in names:
            assert getattr(hamest, name) is getattr(mod, name), name


def test_dir_lists_every_export_and_layer():
    assert set(hamest.__all__) | set(LAYERS) <= set(dir(hamest))


def test_unknown_name_raises_attribute_error():
    assert not hasattr(hamest, "no_such_name")
    try:
        hamest.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("no AttributeError")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from hamest import *", namespace)
    for name in hamest.__all__:
        assert namespace[name] is getattr(hamest, name), name


def test_exports_are_resolved_on_every_access(monkeypatch):
    # A patch of the layer is seen through the package, and so is its undo:
    # the package binds no export of its own.
    original = adaptive.g0

    def patched():
        return -1.0

    monkeypatch.setattr(adaptive, "g0", patched)
    assert hamest.g0 is patched
    assert hamest.g0() == -1.0
    monkeypatch.undo()
    assert hamest.g0 is original
    assert "g0" not in vars(hamest)


def test_import_loads_only_the_layers_it_uses():
    # A fresh interpreter: the import, the first g0() and the CLI module load
    # neither qfim, simulator, robustness nor variance, nor numpy.random,
    # concurrent.futures or scipy. A `robustness total` call then loads
    # robustness (with numpy.random, for its streams, and concurrent.futures,
    # for its helper) and still not simulator; a `qfim` call adds qfim.
    script = """
import contextlib, io, json, sys
watched = [
    "hamest.qfim", "hamest.simulator", "hamest.robustness", "hamest.variance", "numpy.random",
    "concurrent.futures", "scipy",
]
loaded = {}
import hamest
loaded["import"] = [m for m in watched if m in sys.modules]
layers = [m for m in sys.modules if m.startswith("hamest.")]
hamest.g0()
loaded["g0"] = [m for m in watched if m in sys.modules]
import hamest.cli
loaded["cli"] = [m for m in watched if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    assert hamest.cli.main("robustness total --m 2 --samples 10000 --seed 1".split()) == 0
loaded["total"] = [m for m in watched if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    assert hamest.cli.main("qfim --alpha 0.8,-0.4,0.3 --t 2.0".split()) == 0
loaded["qfim"] = [m for m in watched if m in sys.modules]
print(json.dumps({"loaded": loaded, "layers": layers}))
"""
    doc = json.loads(_run_fresh(script))
    assert doc["layers"] == []
    assert doc["loaded"] == {
        "import": [],
        "g0": [],
        "cli": [],
        "total": ["hamest.robustness", "numpy.random", "concurrent.futures"],
        "qfim": ["hamest.qfim", "hamest.robustness", "numpy.random", "concurrent.futures"],
    }


def test_layers_resolve_after_a_bare_import():
    # Each layer name imports its layer, cli included, which hamest never
    # imports itself. No layer loads numpy.random before it builds a stream.
    script = """
import sys, types
import hamest
for layer in %r:
    mod = getattr(hamest, layer)
    assert isinstance(mod, types.ModuleType) and mod is sys.modules["hamest." + layer], layer
assert "numpy.random" not in sys.modules
""" % (LAYERS,)
    _run_fresh(script)
