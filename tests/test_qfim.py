"""Translation generators, the entangled-scheme QFIM, and information bounds."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hamest import core, qfim, variance
from hamest.errors import DomainError, EstimationError, SingularJacobian, SingularQfim

from reference_routes import (
    bell_cfi,
    commutativity_residual_explicit,
    generator_matrices,
    generator_oracle,
    qfim_explicit_state,
    qfim_spectral_form,
    qfim_trace_formula,
)

ORACLE_ATOL = 1e-8
SPECTRAL_ATOL = 1e-8
GAUGE_ATOL = 1e-10
PSD_SLACK = -1e-10
CFI_ORDER_SLACK = -1e-8
CFI_EQUALITY_RTOL = 1e-7

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SX, SY, SZ)


def oracle_steps(model, alpha, t):
    # Simpson error grows like (gap * t)^4 / steps^4; scale accordingly.
    gap = 2.0 * np.linalg.norm(model.pauli_map(np.asarray(alpha, dtype=float)))
    return max(300, math.ceil(60.0 * (1.0 + gap) * abs(t)))


def random_case(rng):
    """Random (model, alpha) pair, btp kept clear of its polar degeneracy."""
    if rng.random() < 0.5:
        return core.get_model("pauli"), rng.uniform(-2.0, 2.0, 3)
    alpha = np.array(
        [rng.uniform(0.3, 2.5), rng.uniform(-1.2, 1.2), rng.uniform(-math.pi, math.pi)]
    )
    return core.get_model("btp"), alpha


# ---------------------------------------------------------------------------
# generator


def test_generator_zero_field_is_scaled_pauli():
    model = core.get_model("pauli")
    for i, s in enumerate(PAULIS, start=1):
        assert_allclose(generator_matrices(model, (0.0, 0.0, 0.0), 2.0)[i - 1], 2.0 * s)


def test_generator_commuting_direction():
    g = generator_matrices(core.get_model("pauli"), (0.7, 0.0, 0.0), 2.0)[0]
    assert_allclose(g, 2.0 * SX, atol=1e-14)


def test_generator_t_zero():
    g = generator_matrices(core.get_model("pauli"), (0.3, -0.2, 0.5), 0.0)[1]
    assert_allclose(g, np.zeros((2, 2)), atol=1e-15)


@pytest.mark.parametrize(
    "w,t",
    [(0.7, 0.0), (0.0, 2.0), (0.0, 0.0), (1e-150, 1e-150), (1e-300, 1.0), (1.0, 1e-300), (1e-300, 1e-300)],
    ids=["t=0", "w=0", "w=t=0", "w=t=1e-150", "w=1e-300", "t=1e-300", "wt-underflows"],
)
def test_generator_small_phase_limits(w, t):
    # sin(2x)/(2x) and sin(x)/x take their limit 1 at x = w t = 0; below
    # that no ratio is formed, so nothing warns, overflows or divides by 0.
    pauli, n = core.get_model("pauli"), np.array([0.6, -0.48, 0.64])
    cases = [(pauli, w * n)]
    if w > 0.0:
        cases.append((core.get_model("btp"), np.array([w, 0.4, -0.3])))
    for model, alpha in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = generator_matrices(model, alpha, t)
        assert np.all(np.isfinite(g))
        # |g_i| <= t |J_i|, so the tolerance scales with both.
        tol = 1e-12 * t * np.abs(core.model_evaluate(model, alpha).jac).max()
        for i in (1, 2, 3):
            assert np.abs(g[i - 1] - generator_oracle(model, alpha, i, t)).max() <= tol
    if w > 0.0:
        # The rotation part of G = R, r [n]_x with r = t sin(x)^2 / x ~ t x, keeps its digits.
        cross = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
        g = qfim.generator(pauli, w * n, t)
        assert_allclose((g - g.T) / 2.0, t * (w * t) * cross, rtol=1e-12, atol=0.0)


def test_generator_matches_quadrature_oracle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        model, alpha = random_case(rng)
        t = rng.uniform(1e-3, 20.0)
        i = int(rng.integers(1, 4))
        lhs = generator_matrices(model, alpha, t)[i - 1]
        rhs = generator_oracle(model, alpha, i, t, steps=oracle_steps(model, alpha, t))
        assert np.abs(lhs - rhs).max() < ORACLE_ATOL


# ---------------------------------------------------------------------------
# qfim_entangled


def test_qfim_zero_field():
    f = qfim.qfim_entangled(core.get_model("pauli"), (0.0, 0.0, 0.0), 1.5)
    assert_allclose(f.m, 4.0 * 1.5**2 * np.eye(3), atol=1e-12)


def test_qfim_single_axis_closed_form():
    b, t = 0.8, 1.3
    f = qfim.qfim_entangled(core.get_model("pauli"), (b, 0.0, 0.0), t)
    transverse = 4.0 * math.sin(b * t) ** 2 / b**2
    assert_allclose(f.m, np.diag([4.0 * t**2, transverse, transverse]), atol=1e-12)


def test_qfim_t_zero():
    f = qfim.qfim_entangled(core.get_model("pauli"), (0.3, 0.2, -0.1), 0.0)
    assert_allclose(f.m, np.zeros((3, 3)), atol=1e-15)


def test_qfim_symmetric_psd():
    rng = np.random.default_rng(29)
    for _ in range(200):
        model, alpha = random_case(rng)
        f = qfim.qfim_entangled(model, alpha, rng.uniform(0.0, 8.0))
        assert np.abs(f.m - f.m.T).max() < 1e-10
        floor = PSD_SLACK * max(1.0, np.linalg.eigvalsh(f.m).max())
        assert np.linalg.eigvalsh(f.m).min() >= floor


def test_qfim_matches_spectral_form():
    rng = np.random.default_rng(31)
    for _ in range(500):
        model, alpha = random_case(rng)
        t = rng.uniform(0.0, 8.0)
        lhs = qfim.qfim_entangled(model, alpha, t)
        rhs = qfim_spectral_form(model, alpha, t)
        assert np.abs(lhs.m - rhs.m).max() < SPECTRAL_ATOL


def test_qfim_evaluates_model_once():
    calls = []

    def pauli_map(alpha):
        calls.append(1)
        return np.asarray(alpha, dtype=float) ** 3

    model = core.custom_model(pauli_map)
    alpha = (0.8, -0.7, 0.9)
    variance.spectral_sensitivities(model, alpha)
    one_evaluation = len(calls)
    calls.clear()
    qfim.qfim_entangled(model, alpha, 1.3)
    assert len(calls) == one_evaluation > 0


def test_qfim_gauge_and_ordering_invariance():
    # The spectral assembly must not depend on the eigenvector phase gauge
    # (Re m, Im m rotate as a pair) nor on which eigenvalue is called E0.
    rng = np.random.default_rng(37)
    for _ in range(100):
        model, alpha = random_case(rng)
        t = rng.uniform(0.1, 6.0)
        sens = variance.spectral_sensitivities(model, alpha)
        f_ref = qfim.qfim_entangled(model, alpha, t).m

        def assemble(dgap, m, gap):
            outer = np.outer(m.real, m.real) + np.outer(m.imag, m.imag)
            sinc = math.sin(gap * t / 2.0) / (gap * t / 2.0)
            return t**2 * np.outer(dgap, dgap) + 4.0 * t**2 * sinc**2 * outer

        phi = rng.uniform(0.0, 2.0 * math.pi)
        m_rot = np.exp(1j * phi) * sens.m
        assert np.abs(assemble(sens.dgap, m_rot, sens.gap) - f_ref).max() < GAUGE_ATOL

        # ordering swap: dgap flips sign, m is conjugated, gap flips sign
        assert np.abs(assemble(-sens.dgap, sens.m.conj(), -sens.gap) - f_ref).max() < GAUGE_ATOL


def test_qfim_rank_matches_generator_gram():
    model = core.get_model("pauli")
    cases = [
        ((0.9, -0.4, 0.2), 1.7),  # generic: full rank
        ((1.0, 0.0, 0.0), math.pi),  # sin(bt)=0 kills both transverse rows
        ((0.0, 0.0, 0.0), 0.0),  # t=0: everything vanishes
    ]
    for alpha, t in cases:
        f = qfim.qfim_entangled(model, alpha, t).m
        g = qfim.generator(model, alpha, t)
        gram = g @ g.T
        assert np.linalg.matrix_rank(f, tol=1e-9) == np.linalg.matrix_rank(
            gram, tol=1e-9
        )


# ---------------------------------------------------------------------------
# weighted initial state


def test_weighted_half_equals_entangled():
    rng = np.random.default_rng(41)
    for _ in range(50):
        model, alpha = random_case(rng)
        t = rng.uniform(0.1, 5.0)
        full = qfim_trace_formula(model, alpha, t)
        half = qfim.qfim_weighted_initial(model, alpha, t, 0.5)
        assert np.abs(full.m - half.m).max() < GAUGE_ATOL


def test_weighted_symmetric_about_half():
    model = core.get_model("pauli")
    alpha = (0.6, -0.3, 0.8)
    for eps in (0.05, 0.2, 0.4):
        lhs = qfim.qfim_weighted_initial(model, alpha, 1.2, 0.5 + eps)
        rhs = qfim.qfim_weighted_initial(model, alpha, 1.2, 0.5 - eps)
        assert np.abs(lhs.m - rhs.m).max() < GAUGE_ATOL


def test_weighted_half_dominates():
    rng = np.random.default_rng(43)
    model = core.get_model("pauli")
    for _ in range(50):
        alpha = rng.uniform(-1.5, 1.5, 3)
        t = rng.uniform(0.1, 4.0)
        x = rng.uniform(0.0, 1.0)
        delta = (
            qfim.qfim_weighted_initial(model, alpha, t, 0.5).m
            - qfim.qfim_weighted_initial(model, alpha, t, x).m
        )
        assert np.linalg.eigvalsh(delta).min() >= PSD_SLACK


def test_weighted_domain():
    model = core.get_model("pauli")
    for x in (-0.1, 1.1):
        with pytest.raises(DomainError):
            qfim.qfim_weighted_initial(model, (1.0, 0.0, 0.0), 1.0, x)


# ---------------------------------------------------------------------------
# weak commutativity


def test_weak_commutativity_t_zero():
    r = qfim.weak_commutativity_residual(core.get_model("pauli"), (0.4, 0.1, -0.9), 0.0)
    assert r == 0.0


def test_weak_commutativity_random_sweep():
    rng = np.random.default_rng(47)
    for _ in range(100):
        model, alpha = random_case(rng)
        r = qfim.weak_commutativity_residual(model, alpha, rng.uniform(0.0, 10.0))
        assert r < 1e-10


@pytest.mark.parametrize("x", [0.0, 0.3, 0.5, 1.0])
def test_weak_commutativity_weighted_matches_explicit_state(x):
    rng = np.random.default_rng(48)
    for _ in range(50):
        model, alpha = random_case(rng)
        t = rng.uniform(0.0, 10.0)
        ref = commutativity_residual_explicit(generator_matrices(model, alpha, t), x)
        r = qfim.weak_commutativity_residual(model, alpha, t, x)
        assert r == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("x", [0.0, 0.3, 1.0])
def test_small_field_matches_explicit_state(x):
    # Below |f| t ~ 1e-8 the first-order term -t (|f| t) (n x J_i) of the generator
    # still moves the weighted QFIM and the residual by ~|f| t relative.
    for model, alpha in ((core.get_model("pauli"), (0.6, -0.3, 0.8)), (core.get_model("btp"), (1.0, 0.4, 0.3))):
        w = np.linalg.norm(model.pauli_map(np.asarray(alpha, dtype=float)))
        for wt in (1e-12, 1e-10, 1e-9, 3e-9, 1e-7):
            t = wt / w
            hs = [generator_oracle(model, alpha, i, t) for i in (1, 2, 3)]
            ref = qfim_explicit_state(hs, x)
            f = qfim.qfim_weighted_initial(model, alpha, t, x).m
            assert np.abs(f - ref).max() <= 1e-12 * np.abs(ref).max()
            r = qfim.weak_commutativity_residual(model, alpha, t, x)
            assert r == pytest.approx(commutativity_residual_explicit(hs, x), rel=1e-12)


def test_weak_commutativity_weight_default_and_domain():
    model, alpha, t = core.get_model("pauli"), (0.8, -0.4, 0.3), 2.0
    assert qfim.weak_commutativity_residual(model, alpha, t) == (
        qfim.weak_commutativity_residual(model, alpha, t, 0.5)
    )
    # Away from x = 1/2 the generators need not commute on the probe.
    assert qfim.weak_commutativity_residual(model, alpha, t, 0.3) > 0.5
    for x in (-0.1, 1.1, math.nan):
        with pytest.raises(DomainError):
            qfim.weak_commutativity_residual(model, alpha, t, x)


# ---------------------------------------------------------------------------
# covariance and scalar bounds


def test_covariance_is_inverse_information():
    rng = np.random.default_rng(53)
    for _ in range(100):
        model, alpha = random_case(rng)
        t = rng.uniform(0.2, 5.0)
        f = qfim.qfim_entangled(model, alpha, t)
        if np.linalg.matrix_rank(f.m, tol=1e-9) < 3:
            continue
        c = qfim.covariance_from_qfim(f, 12)
        assert_allclose(c.m @ (12 * f.m), np.eye(3), atol=1e-8)


def test_covariance_singular_information():
    f = qfim.qfim_entangled(core.get_model("pauli"), (1.0, 0.0, 0.0), 0.0)
    with pytest.raises(SingularQfim):
        qfim.covariance_from_qfim(f, 5)


@pytest.mark.parametrize(
    "m,error,match",
    [
        ([[1.0, 5.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], EstimationError, "symmetry violated"),
        (np.diag([1.0, -2.0, 3.0]), EstimationError, "semi-definiteness violated"),
        (np.diag([1.0, math.nan, 3.0]), DomainError, "not finite"),
        (np.diag([1.0, math.inf, 3.0]), DomainError, "not finite"),
        (np.eye(2), DomainError, "3x3"),
        # Finite, but m + m^T overflows.
        (np.diag([1.7e308, 1.0, 1.0]), DomainError, "not finite"),
        # Finite, with a finite m + m^T, but m - m^T overflows.
        ([[1.0, 1.7e308, 0.0], [-1.7e308, 1.0, 0.0], [0.0, 0.0, 1.0]], EstimationError, "symmetry violated"),
    ],
)
def test_qfim_matrix_checks_itself(m, error, match):
    # A caller's own matrix meets the checks of the production QFIM, so no covariance comes of it.
    with pytest.raises(error, match=match):
        qfim.QfimMatrix(m=m)
    with pytest.raises(error, match=match):
        qfim.covariance_from_qfim(qfim.QfimMatrix(m=m), 1)


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-5, 1.0, 1e5, 1e150, 1e300])
def test_qfim_matrix_stores_the_symmetrized_bits(scale):
    # The checks read the entries as floats; what is stored is 0.5 (m + m^T)
    # and the eigvalsh of it, bit for bit.
    rng = np.random.default_rng(67)
    for _ in range(40):
        a = rng.normal(size=(3, 3))
        m = scale * (a @ a.T + 0.1 * np.eye(3))
        # An asymmetry inside QFIM_SYMMETRY_ATOL, so m is accepted but not symmetric.
        m = m + 1e-12 * np.abs(m).max() * rng.uniform(-1.0, 1.0, (3, 3))
        assert not np.array_equal(m, m.T)
        f = qfim.QfimMatrix(m=m)
        sym = 0.5 * (m + m.T)
        assert f.m.shape == (3, 3) and f.m.tobytes() == sym.tobytes()
        assert f._eigenvalues.tobytes() == np.linalg.eigvalsh(sym).tobytes()


def test_one_decomposition_per_qfim(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a):
        calls.append(1)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    f = qfim.qfim_entangled(core.get_model("btp"), (1.0, 0.4, 0.3), 1.3)
    qfim.covariance_from_qfim(f, 1)
    assert len(calls) == 1
    qfim.scalar_bound(np.eye(3), f, 1)
    assert len(calls) == 1


def test_scalar_bound_identity_weight():
    n, t = 7, 1.3
    f = qfim.qfim_entangled(core.get_model("pauli"), (0.0, 0.0, 0.0), t)
    assert qfim.scalar_bound(np.eye(3), f, n) == pytest.approx(
        3.0 / (4.0 * n * t**2), rel=1e-12
    )


def test_scalar_bound_zero_weight():
    f = qfim.qfim_entangled(core.get_model("pauli"), (0.0, 0.0, 0.0), 1.0)
    assert qfim.scalar_bound(np.zeros((3, 3)), f, 3) == 0.0


def test_scalar_bound_single_diagonal():
    f = qfim.QfimMatrix(m=np.diag([2.0, 3.0, 4.0]))
    w = np.diag([1.0, 0.0, 0.0])
    assert qfim.scalar_bound(w, f, 5) == pytest.approx(1.0 / (5 * 2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# reparameterization


def test_reparameterize_identity():
    f = qfim.qfim_entangled(core.get_model("pauli"), (0.5, -0.2, 0.9), 1.1)
    out = qfim.reparameterize_qfim(f, np.eye(3))
    assert_allclose(out.m, f.m, atol=1e-14)


def test_reparameterize_scaling():
    f = qfim.qfim_entangled(core.get_model("pauli"), (0.5, -0.2, 0.9), 1.1)
    out = qfim.reparameterize_qfim(f, 3.0 * np.eye(3))
    assert_allclose(out.m, 9.0 * f.m, rtol=1e-12)


def test_reparameterize_round_trip():
    rng = np.random.default_rng(59)
    f = qfim.qfim_entangled(core.get_model("pauli"), (0.5, -0.2, 0.9), 1.1)
    c = qfim.covariance_from_qfim(f, 4)
    for _ in range(50):
        jac = rng.normal(size=(3, 3))
        if abs(np.linalg.det(jac)) < 0.1:
            continue
        fa = qfim.reparameterize_qfim(f, jac)
        back = qfim.reparameterize_qfim(fa, core.inverse_jacobian(jac))
        assert np.abs(back.m - f.m).max() < 1e-10 * max(1.0, np.abs(f.m).max())
        ca = qfim.reparameterize_covariance(c, jac)
        # contravariant transform keeps the Cramer-Rao pairing intact
        assert_allclose(ca.m, np.linalg.inv(4 * fa.m), rtol=1e-8, atol=1e-12)
        back = qfim.reparameterize_covariance(ca, core.inverse_jacobian(jac))
        assert np.abs(back.m - c.m).max() < 1e-10 * max(1.0, np.abs(c.m).max())


def _btp_product(alpha, t):
    """The btp Jacobian J at alpha, the Pauli QFIM F at its field, and J^T F J."""
    ev = core.model_evaluate(core.get_model("btp"), alpha)
    f = qfim.qfim_entangled(core.get_model("pauli"), ev.f, t)
    return ev.jac, f, ev.jac.T @ f.m @ ev.jac


# J^T F J rounds to an asymmetry of 1.1e-10 and 2.6e-10 here, past 1e-10 in absolute terms.
@pytest.mark.parametrize("alpha,t", [((1000.0, 0.4, 0.3), 1.0), ((1.0, 0.4, 0.3), 1000.0)])
def test_reparameterize_tolerates_rounding_at_scale(alpha, t):
    jac, f, product = _btp_product(alpha, t)
    out = qfim.reparameterize_qfim(f, jac)
    assert np.array_equal(out.m, 0.5 * (product + product.T))
    # The weight-matrix check takes the same rule.
    assert qfim.scalar_bound(product, qfim.QfimMatrix(m=np.eye(3)), 1) == pytest.approx(np.trace(product))


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e12])
def test_real_asymmetry_raises_at_every_scale(scale):
    m = scale * np.diag([1.0, 2.0, 3.0])
    m[0, 1] += 1e-6 * np.abs(m).max()
    with pytest.raises(EstimationError, match="symmetry violated"):
        qfim.reparameterize_qfim(qfim.QfimMatrix(m=m), np.eye(3))
    with pytest.raises(DomainError, match="symmetric"):
        qfim.scalar_bound(m, qfim.QfimMatrix(m=np.eye(3)), 1)


@pytest.mark.parametrize("entry", [(0, 1), (1, 1)])
def test_scalar_bound_rejects_non_finite_weight(entry):
    w = np.eye(3)
    w[entry] = math.inf
    with pytest.raises(DomainError, match="finite"):
        qfim.scalar_bound(w, qfim.QfimMatrix(m=np.eye(3)), 1)


def test_reparameterize_singular_jacobian():
    f = qfim.qfim_entangled(core.get_model("pauli"), (0.5, -0.2, 0.9), 1.1)
    bad = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(SingularJacobian):
        qfim.reparameterize_qfim(f, core.inverse_jacobian(bad))
    c = qfim.covariance_from_qfim(f, 4)
    with pytest.raises(SingularJacobian):
        qfim.reparameterize_covariance(c, bad)


# ---------------------------------------------------------------------------
# Bell-basis classical Fisher information


def test_cfi_never_beats_qfim():
    # Sampling is kept clear of outcome-probability zeros, where the
    # finite-difference quotient amplifies truncation error; see the
    # project notes for the measured margins behind this choice.
    model = core.get_model("pauli")
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(300):
        alpha = rng.choice([-1.0, 1.0], 3) * rng.uniform(0.15, 0.9, 3)
        t = rng.uniform(0.1, 1.2)
        fq = qfim.qfim_entangled(model, alpha, t).m
        fc = bell_cfi(model, alpha, t)
        eigs = np.linalg.eigvalsh(fq - fc)
        assert eigs.min() >= CFI_ORDER_SLACK
        worst = max(worst, np.abs(fq - fc).max() / np.abs(fq).max())
    # The Bell measurement is optimal in the extended scheme: its CFI equals
    # the QFIM, up to the finite-difference error of bell_cfi.
    assert worst <= CFI_EQUALITY_RTOL


def test_cfi_small_gap_limit():
    c = bell_cfi(core.get_model("pauli"), (1e-4, 0.0, 0.0), 1.0)
    assert np.abs(c - 4.0 * np.eye(3)).max() / 4.0 < 1e-3


def test_cfi_t_zero():
    c = bell_cfi(core.get_model("pauli"), (0.3, 0.2, -0.1), 0.0)
    assert_allclose(c, np.zeros((3, 3)), atol=1e-15)
