"""Pauli algebra, spectral decomposition, propagators, and model plumbing."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from hamest import core
from hamest.errors import DomainError, SingularJacobian

from reference_routes import spectral_decompose_eigh

RECONSTRUCT_ATOL = 1e-12
UNITARY_ATOL = 1e-10
JACOBIAN_RTOL = 1e-6
# Closed form against the eigh oracle: a few ulps, in the vectors absolutely
# and in the eigenvalues relative to |b|.
EIGH_ATOL = 4e-15

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_pauli(rng, scale=10.0):
    return rng.uniform(-scale, scale, 3)


# ---------------------------------------------------------------------------
# pauli_compose


def test_compose_zero():
    assert_allclose(core.pauli_compose((0.0, 0.0, 0.0)), np.zeros((2, 2)))


def test_compose_sz():
    assert_allclose(core.pauli_compose((0.0, 0.0, 1.0)), SZ)


def test_compose_generic():
    expected = np.array([[3.0, 1.0 - 2.0j], [1.0 + 2.0j, -3.0]])
    assert_allclose(core.pauli_compose((1.0, 2.0, 3.0)), expected)


def test_compose_traceless_hermitian():
    rng = np.random.default_rng(0)
    for _ in range(50):
        h = core.pauli_compose(random_pauli(rng))
        assert abs(np.trace(h)) < 1e-14
        assert np.array_equal(h, h.conj().T)


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((2, 2), dtype=complex),
        SZ,
        np.ones(4),
        np.ones(2),
        np.array([1.0, 0.0, 1.0j]),
        np.array([1.0, np.nan, 0.0]),
        np.array([np.inf, 0.0, 0.0]),
    ],
    ids=["zero-matrix", "sigma-z-matrix", "4-vector", "2-vector", "complex", "nan", "inf"],
)
def test_pauli_vector_only(bad):
    with pytest.raises(DomainError):
        core.spectral_decompose(bad)
    with pytest.raises(DomainError):
        core.evolve_unitary(bad, 1.0)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_evolve_unitary_rejects_non_finite_time(t):
    with pytest.raises(DomainError, match="time must be finite"):
        core.evolve_unitary((0.3, 0.2, 0.5), t)


# ---------------------------------------------------------------------------
# spectral_decompose


def test_spectral_sz():
    d = core.spectral_decompose((0.0, 0.0, 1.0))
    assert d.e0 == pytest.approx(1.0)
    assert d.e1 == pytest.approx(-1.0)
    assert_allclose(d.v0, [1.0, 0.0], atol=RECONSTRUCT_ATOL)
    assert_allclose(d.v1, [0.0, 1.0], atol=RECONSTRUCT_ATOL)


def test_spectral_eigenvalues_norm():
    d = core.spectral_decompose((1.0, 2.0, 3.0))
    assert d.e0 == pytest.approx(math.sqrt(14.0))
    assert d.e1 == pytest.approx(-math.sqrt(14.0))
    assert d.gap == pytest.approx(2.0 * math.sqrt(14.0))


def test_spectral_zero_matrix():
    d = core.spectral_decompose(np.zeros(3))
    assert d.e0 == 0.0 and d.e1 == 0.0 and d.gap == 0.0
    assert abs(np.vdot(d.v0, d.v1)) < RECONSTRUCT_ATOL
    assert np.linalg.norm(d.v0) == pytest.approx(1.0)
    assert np.linalg.norm(d.v1) == pytest.approx(1.0)


def test_spectral_reconstruction_sweep():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        b = random_pauli(rng)
        h = core.pauli_compose(b)
        d = core.spectral_decompose(b)
        assert d.e0 >= d.e1
        back = d.e0 * np.outer(d.v0, d.v0.conj()) + d.e1 * np.outer(
            d.v1, d.v1.conj()
        )
        assert np.abs(back - h).max() < RECONSTRUCT_ATOL * max(
            1.0, np.abs(h).max()
        )
        assert abs(np.vdot(d.v0, d.v1)) < RECONSTRUCT_ATOL


def test_spectral_phase_gauge():
    rng = np.random.default_rng(8)
    for _ in range(100):
        d = core.spectral_decompose(random_pauli(rng))
        for v in (d.v0, d.v1):
            top = v[np.argmax(np.abs(v))]
            assert top.imag == pytest.approx(0.0, abs=RECONSTRUCT_ATOL)
            assert top.real > 0.0


def assert_matches_eigh(b):
    d, ref = core.spectral_decompose(b), spectral_decompose_eigh(np.asarray(b, dtype=float))
    scale = max(abs(ref.e0), abs(ref.e1))
    assert abs(d.e0 - ref.e0) <= EIGH_ATOL * scale and abs(d.e1 - ref.e1) <= EIGH_ATOL * scale
    assert d.e1 == -d.e0 and d.gap == 2.0 * d.e0
    assert np.abs(d.v0 - ref.v0).max() <= EIGH_ATOL
    assert np.abs(d.v1 - ref.v1).max() <= EIGH_ATOL
    return d


def test_spectral_matches_eigh_across_magnitudes():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        u = rng.standard_normal(3)
        assert_matches_eigh(u / np.linalg.norm(u) * 10.0 ** rng.uniform(-300.0, 300.0))


@pytest.mark.parametrize("scale", [1e-300, 1e-5, 1.0, 1e5, 1e300])
@pytest.mark.parametrize("eps", [0.0, 1e-17, 1e-12, 1e-8, -1e-8, 1e-3])
def test_spectral_south_pole_branch(scale, eps):
    # n_z < 0 takes the (n_x - i n_y, 1 - n_z) branch, which keeps its digits at n_z -> -1.
    d = assert_matches_eigh(scale * np.array([eps, eps, -1.0]))
    assert abs(np.vdot(d.v0, d.v1)) <= EIGH_ATOL
    assert np.linalg.norm(d.v0) == pytest.approx(1.0, abs=EIGH_ATOL)


@pytest.mark.parametrize("c", [1e-300, -1e-300, 1e-5, 1.0, -1.0, 3.7, -2e150, 1e300])
def test_spectral_field_along_x_ties_to_first_component(c):
    # Both components have magnitude 1/sqrt(2): the phase rule fixes the first.
    d = assert_matches_eigh((c, 0.0, 0.0))
    for v in (d.v0, d.v1):
        assert abs(v[0]) == abs(v[1])
        assert v[0].imag == 0.0 and v[0].real > 0.0


def test_spectral_zero_field_convention():
    # An eigensolver returns the identity's columns at b = 0: v0 = (0, 1), v1 = (1, 0).
    d = assert_matches_eigh((0.0, 0.0, 0.0))
    assert d.v0.tolist() == [0.0, 1.0] and d.v1.tolist() == [1.0, 0.0]


# ---------------------------------------------------------------------------
# evolve_unitary


def test_evolve_sz_quarter_turn():
    u = core.evolve_unitary((0.0, 0.0, 1.0), math.pi / 2)
    assert_allclose(u, np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)]), atol=UNITARY_ATOL)


def test_evolve_zero_hamiltonian():
    assert_allclose(core.evolve_unitary(np.zeros(3), 5.0), np.eye(2), atol=UNITARY_ATOL)


def test_evolve_sx_half_turn_vs_expm():
    u = core.evolve_unitary((1.0, 0.0, 0.0), math.pi)
    assert_allclose(u, -np.eye(2), atol=UNITARY_ATOL)
    assert_allclose(u, expm(-1j * SX * math.pi), atol=UNITARY_ATOL)


def test_evolve_matches_expm_sweep():
    rng = np.random.default_rng(11)
    for _ in range(100):
        b = random_pauli(rng, scale=3.0)
        t = rng.uniform(-4.0, 4.0)
        assert_allclose(
            core.evolve_unitary(b, t), expm(-1j * core.pauli_compose(b) * t), atol=1e-11
        )


def test_evolve_inverse_property():
    rng = np.random.default_rng(12)
    for _ in range(200):
        b = random_pauli(rng)
        t = rng.uniform(-10.0, 10.0)
        prod = core.evolve_unitary(b, t) @ core.evolve_unitary(b, -t)
        assert np.abs(prod - np.eye(2)).max() < UNITARY_ATOL


def test_evolve_composition_law():
    rng = np.random.default_rng(13)
    for _ in range(200):
        b = random_pauli(rng, scale=5.0)
        t1, t2 = rng.uniform(-3.0, 3.0, 2)
        lhs = core.evolve_unitary(b, t1 + t2)
        rhs = core.evolve_unitary(b, t1) @ core.evolve_unitary(b, t2)
        assert np.abs(lhs - rhs).max() < UNITARY_ATOL


def test_evolve_small_norm_branch():
    # Below the series threshold the closed form must not divide by ~0.
    b = (1e-12, 0.0, 0.0)
    u = core.evolve_unitary(b, 1.0)
    assert_allclose(u, expm(-1j * core.pauli_compose(b)), atol=1e-14)


# ---------------------------------------------------------------------------
# models


def test_pauli_model_identity():
    ev = core.model_evaluate(core.get_model("pauli"), (1.0, 2.0, 3.0))
    assert_allclose(ev.f, [1.0, 2.0, 3.0])
    assert_allclose(ev.jac, np.eye(3))
    assert_allclose(core.inverse_jacobian(ev.jac), np.eye(3))


def test_btp_axis_aligned():
    ev = core.model_evaluate(core.get_model("btp"), (1.0, 0.0, 0.0))
    assert_allclose(ev.f, [1.0, 0.0, 0.0], atol=1e-15)
    assert_allclose(ev.jac[:, 0], [1.0, 0.0, 0.0], atol=1e-15)


def test_btp_polar_degeneracy():
    ev = core.model_evaluate(core.get_model("btp"), (2.0, math.pi / 2, 0.3))
    assert_allclose(ev.f, [0.0, 0.0, 2.0], atol=1e-14)
    assert abs(np.linalg.det(ev.jac)) < 1e-12
    with pytest.raises(SingularJacobian):
        core.inverse_jacobian(ev.jac)


def _btp_jac(alpha):
    return core.model_evaluate(core.get_model("btp"), alpha).jac


# Each determinant is below 1e-12, yet each matrix is far from singular.
@pytest.mark.parametrize("jac", [1e-5 * np.eye(3), _btp_jac((1e-6, 0.4, 0.3)), _btp_jac((1e-9, 0.4, 0.3))])
def test_inverse_jacobian_is_scale_free(jac):
    assert abs(np.linalg.det(jac)) < 1e-12
    ref = np.linalg.inv(jac)
    assert np.abs(core.inverse_jacobian(jac) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("b_amp", [2.0, 1e-6])
def test_inverse_jacobian_rejects_singular_at_any_scale(b_amp):
    with pytest.raises(SingularJacobian):
        core.inverse_jacobian(_btp_jac((b_amp, math.pi / 2, 0.3)))
    with pytest.raises(SingularJacobian):
        core.inverse_jacobian(b_amp * np.diag([1.0, 1.0, 0.0]))


@pytest.mark.parametrize("jac", [np.eye(2), np.full((3, 3), math.nan), np.diag([math.inf, 1.0, 1.0])])
def test_inverse_jacobian_rejects_malformed(jac):
    with pytest.raises(DomainError, match="finite 3x3"):
        core.inverse_jacobian(jac)


def test_btp_domain():
    with pytest.raises(DomainError):
        core.model_evaluate(core.get_model("btp"), (0.0, 0.1, 0.2))
    with pytest.raises(DomainError):
        core.model_evaluate(core.get_model("btp"), (-1.0, 0.1, 0.2))


def test_get_model_unknown():
    with pytest.raises(DomainError):
        core.get_model("heisenberg-xxz")


@pytest.mark.parametrize("name", ["pauli", "btp"])
def test_analytic_jacobian_matches_fd(name):
    model = core.get_model(name)
    rng = np.random.default_rng(17)
    for _ in range(50):
        if name == "btp":
            # keep away from the cos(theta)=0 degeneracy
            alpha = np.array(
                [rng.uniform(0.5, 3.0), rng.uniform(-1.2, 1.2), rng.uniform(-3.0, 3.0)]
            )
        else:
            alpha = rng.uniform(-3.0, 3.0, 3)
        jac = model.jacobian(alpha)
        fd = core.central_difference_jacobian(model.pauli_map, alpha)
        assert_allclose(jac, fd, rtol=JACOBIAN_RTOL, atol=1e-9)


def test_model_hamiltonian_traceless():
    rng = np.random.default_rng(19)
    for name in ("pauli", "btp"):
        model = core.get_model(name)
        for _ in range(20):
            alpha = rng.uniform(0.3, 2.0, 3)
            ev = core.model_evaluate(model, alpha)
            # H = f.sigma has no identity part: its levels are +-|f|.
            assert ev.f.shape == (3,) and ev.f.dtype == np.float64
            assert np.array_equal(ev.f, model.pauli_map(alpha))
            d = core.spectral_decompose(ev.f)
            assert d.e0 == pytest.approx(np.linalg.norm(ev.f), rel=1e-14)
            assert d.e1 == pytest.approx(-d.e0, rel=1e-14)


def test_custom_model_uses_fd_jacobian():
    model = core.custom_model(lambda a: np.array([a[0] ** 2, a[1], math.sin(a[2])]))
    assert model.jacobian is None
    ev = core.model_evaluate(model, (1.5, -0.3, 0.7))
    assert_allclose(ev.f, [2.25, -0.3, math.sin(0.7)])
    expected = np.diag([3.0, 1.0, math.cos(0.7)])
    assert_allclose(ev.jac, expected, rtol=1e-6, atol=1e-9)


def _alpha_with(k, value):
    alpha = [0.5, -0.2, 0.3]
    alpha[k] = value
    return alpha


@pytest.mark.parametrize(
    "model,alpha,match",
    [
        (core.pauli_model(), _alpha_with(k, bad), "parameters must be finite")
        for k in range(3)
        for bad in (math.nan, math.inf, -math.inf)
    ]
    + [(core.pauli_model(), np.full(shape, 0.5), "expected 3 parameters") for shape in [(2,), (3, 1)]]
    + [
        (core.custom_model(lambda a: np.array([1.0, math.nan, 0.0])), (0.5, -0.2, 0.3), "must be finite"),
        (core.custom_model(lambda a: np.array([1.0, 0.0, -math.inf])), (0.5, -0.2, 0.3), "must be finite"),
        (core.custom_model(lambda a: np.array([1.0, 0.0, 1j])), (0.5, -0.2, 0.3), "must be real"),
        (core.custom_model(lambda a: np.ones(4)), (0.5, -0.2, 0.3), "expected a 3-vector"),
    ],
)
def test_model_evaluate_checks_its_inputs(model, alpha, match):
    # The parameters are checked before the map runs, and the map's Pauli vector after it.
    with pytest.raises(DomainError, match=match):
        core.model_evaluate(model, alpha)
