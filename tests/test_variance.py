"""Closed-form estimator variances, their envelope, and the time curve."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hamest import core, qfim, variance
from hamest.errors import DegenerateSpectrum, DivergentTime, DomainError, SingularQfim

from reference_routes import paper_form_variances

HF_RTOL = 1e-6
CLOSED_FORM_RTOL = 1e-8
HEISENBERG_RTOL = 1e-10


def random_case(rng):
    if rng.random() < 0.5:
        return core.get_model("pauli"), rng.uniform(-2.0, 2.0, 3)
    alpha = np.array(
        [rng.uniform(0.3, 2.5), rng.uniform(-1.2, 1.2), rng.uniform(-math.pi, math.pi)]
    )
    return core.get_model("btp"), alpha


# ---------------------------------------------------------------------------
# spectral sensitivities


def test_sensitivities_longitudinal_axis():
    b = 0.7
    s = variance.spectral_sensitivities(core.get_model("pauli"), (0.0, 0.0, b))
    assert_allclose(s.dE, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], atol=1e-12)
    assert_allclose(s.dgap, [0.0, 0.0, 2.0], atol=1e-12)
    assert s.gap == pytest.approx(2.0 * b)
    # the diagonal perturbation direction carries no off-diagonal element
    assert abs(s.m[2]) == pytest.approx(0.0, abs=1e-12)
    # transverse directions: |<E0|dH|E1>| = 1, split between Re m and Im m
    assert_allclose(np.abs(s.m)[:2], [1.0, 1.0], rtol=1e-12)


def test_sensitivities_btp_field_magnitude():
    s = variance.spectral_sensitivities(core.get_model("btp"), (1.3, 0.4, -0.2))
    assert_allclose(s.dgap, [2.0, 0.0, 0.0], atol=1e-12)


def test_sensitivities_match_eigenvalue_fd():
    rng = np.random.default_rng(61)
    for _ in range(50):
        model, alpha = random_case(rng)
        s = variance.spectral_sensitivities(model, alpha)
        assert_allclose(s.dgap, s.dE[0] - s.dE[1], atol=0)
        for i in range(3):
            h = 1e-6 * max(1.0, abs(alpha[i]))
            up = np.array(alpha, dtype=float)
            dn = np.array(alpha, dtype=float)
            up[i] += h
            dn[i] -= h
            d_up = core.spectral_decompose(core.model_evaluate(model, up).f)
            d_dn = core.spectral_decompose(core.model_evaluate(model, dn).f)
            fd0 = (d_up.e0 - d_dn.e0) / (2 * h)
            fd1 = (d_up.e1 - d_dn.e1) / (2 * h)
            assert s.dE[0][i] == pytest.approx(fd0, rel=HF_RTOL, abs=1e-7)
            assert s.dE[1][i] == pytest.approx(fd1, rel=HF_RTOL, abs=1e-7)


def test_envelope_needs_a_nonzero_gap():
    # At a zero field the sensitivities and variances exist, but the envelope
    # has no field direction.
    model = core.get_model("pauli")
    xi = xi_for((0.0, 0.0, 0.0))
    assert xi.gap == 0.0
    with pytest.raises(DegenerateSpectrum):
        variance.variance_envelope(xi, 1.0, 8)
    with pytest.raises(DegenerateSpectrum):
        variance.variance_infimum(xi, 8)
    with pytest.raises(DegenerateSpectrum):
        variance.variance_curve(model, (0.0, 0.0, 0.0), [0.5, 1.0], 8)
    # a tiny but nonzero gap has a direction
    assert variance.variance_infimum(xi_for((1e-300, 0.0, 0.0)), 8)[0] == 0.0


def test_xi_gauge_invariance():
    rng = np.random.default_rng(67)
    for _ in range(50):
        model, alpha = random_case(rng)
        s = variance.spectral_sensitivities(model, alpha)
        xi = variance.xi_coefficients(s)
        phi = rng.uniform(0.0, 2 * math.pi)
        rotated = variance.SpectralSensitivities(dE=s.dE, dgap=s.dgap, m=np.exp(1j * phi) * s.m, gap=s.gap)
        # calling the lower level E0 conjugates m and flips the gap and its derivatives
        swapped = variance.SpectralSensitivities(dE=s.dE[::-1], dgap=-s.dgap, m=s.m.conj(), gap=-s.gap)
        for other in (rotated, swapped):
            xi_other = variance.xi_coefficients(other)
            assert_allclose(xi_other.xi1, xi.xi1, rtol=1e-12, atol=1e-15)
            assert_allclose(xi_other.xi2, xi.xi2, rtol=1e-12, atol=1e-15)
            assert xi_other.xi3 == pytest.approx(xi.xi3, rel=1e-12)


# ---------------------------------------------------------------------------
# closed-form variances


def test_variances_single_axis_closed_form():
    b, t, n = 0.7, 1.1, 9
    v = variance.estimator_variances(core.get_model("pauli"), (0.0, 0.0, b), t, n)
    transverse = b**2 / (4 * n * math.sin(b * t) ** 2)
    assert_allclose(v, [transverse, transverse, 1.0 / (4 * n * t**2)], rtol=1e-12)


def test_variances_single_axis_at_large_field():
    # No xi holds a power of 1 / dE, so they neither underflow nor vanish here.
    b, n = 1e70, 9
    t = 1.1 / b
    v = variance.estimator_variances(core.get_model("pauli"), (0.0, 0.0, b), t, n)
    transverse = b**2 / (4 * n * math.sin(b * t) ** 2)
    assert_allclose(v, [transverse, transverse, 1.0 / (4 * n * t**2)], rtol=1e-12)


def test_variances_match_inverse_information():
    rng = np.random.default_rng(71)
    done = 0
    while done < 100:
        model, alpha = random_case(rng)
        t = rng.uniform(0.1, 5.0)
        gap = 2.0 * np.linalg.norm(model.pauli_map(alpha))
        if abs(math.sin(gap * t / 2.0)) < 1e-3:
            continue
        f = qfim.qfim_entangled(model, alpha, t)
        direct = np.diag(np.linalg.inv(7 * f.m))
        v = variance.estimator_variances(model, alpha, t, 7)
        assert_allclose(v, direct, rtol=CLOSED_FORM_RTOL)
        done += 1


def test_variances_degenerate_fallback():
    t, n = 1.5, 10
    for alpha in ((0.0, 0.0, 0.0), (1e-300, 0.0, 0.0)):
        v = variance.estimator_variances(core.get_model("pauli"), alpha, t, n)
        assert_allclose(v, np.full(3, 1.0 / (4 * n * t**2)), rtol=1e-12)


def custom_nonlinear_model():
    return core.custom_model(
        lambda a: np.array([a[0] + 0.3 * math.sin(a[1]), a[1] + 0.2 * a[2] ** 2, a[2] - 0.25 * a[0] * a[1]])
    )


def test_variances_match_paper_form():
    # The paper's perturbative xi, built from <E0|d_i E1> = m_i / (E1 - E0),
    # give the same variances, envelope and infimum away from the poles. An
    # entry that is zero in exact arithmetic is roundoff in both routes, hence
    # the absolute floor at 1e-15 of the largest entry.
    rng = np.random.default_rng(73)
    done = 0
    while done < 300:
        model, alpha = random_case(rng)
        if done % 3 == 2:
            model, alpha = custom_nonlinear_model(), rng.uniform(-2.0, 2.0, 3)
        t, n = rng.uniform(0.1, 5.0), int(rng.integers(1, 1000))
        xi = variance.xi_coefficients(variance.spectral_sensitivities(model, alpha))
        if abs(math.sin(xi.gap * t / 2.0)) < 1e-3:
            continue
        got = (
            variance.estimator_variances(model, alpha, t, n),
            variance.variance_envelope(xi, t, n),
            variance.variance_infimum(xi, n),
        )
        for new, ref in zip(got, paper_form_variances(model, alpha, t, n)):
            assert_allclose(new, ref, rtol=1e-12, atol=1e-15 * np.abs(ref).max())
        done += 1


def test_btp_field_variance_heisenberg():
    model = core.get_model("btp")
    n = 5
    for t in np.geomspace(0.1, 100.0, 25):
        v = variance.estimator_variances(model, (1.3, 0.4, -0.2), float(t), n)
        assert abs(v[0] * (4 * n * t**2) - 1.0) < HEISENBERG_RTOL


# ---------------------------------------------------------------------------
# envelope and infimum


def xi_for(alpha):
    return variance.xi_coefficients(
        variance.spectral_sensitivities(core.get_model("pauli"), alpha)
    )


def test_envelope_monotone_non_increasing():
    xi = xi_for((0.4, -0.6, 0.9))
    prev = None
    for t in np.linspace(0.2, 20.0, 200):
        env = variance.variance_envelope(xi, float(t), 8)
        if prev is not None:
            assert np.all(env <= prev + 1e-15)
        prev = env


def test_envelope_constant_when_xi2_vanishes():
    xi = variance.XiCoefficients(
        xi1=np.array([2.0, 1.0, 0.5]), xi2=np.zeros(3), xi3=10.0, gap=2.0
    )
    ref = variance.variance_envelope(xi, 0.3, 4)
    for t in (1.0, 5.0, 40.0):
        assert_allclose(variance.variance_envelope(xi, t, 4), ref, rtol=1e-12)


def test_envelope_bounds_variance_below():
    alpha = (0.4, -0.6, 0.9)
    xi = xi_for(alpha)
    for t in np.linspace(0.3, 8.0, 60):
        v = variance.estimator_variances(core.get_model("pauli"), alpha, float(t), 8)
        env = variance.variance_envelope(xi, float(t), 8)
        assert np.all(v >= env - 1e-12)


def test_envelope_domain_errors():
    xi = xi_for((0.4, -0.6, 0.9))
    with pytest.raises(DomainError):
        variance.variance_envelope(xi, 0.0, 8)
    with pytest.raises(DomainError):
        variance.variance_envelope(xi, 1.0, 0)
    bad = variance.XiCoefficients(xi1=np.ones(3), xi2=np.ones(3), xi3=0.0, gap=1.0)
    with pytest.raises(SingularQfim):
        variance.variance_envelope(bad, 1.0, 8)
    with pytest.raises(SingularQfim):
        variance.variance_infimum(bad, 8)


@pytest.mark.filterwarnings("error")
def test_overflowing_variance_raises_domain_error():
    alpha = (0.4, -0.6, 0.9)
    model = core.get_model("pauli")
    with pytest.raises(DomainError, match="overflow"):
        variance.variance_envelope(xi_for(alpha), 1e200, 8)
    # A denominator n t^2 xi3 that overflows would otherwise read as variance 0.
    with pytest.raises(DomainError, match="overflow"):
        variance.estimator_variances(model, (3e-141, -4e-141, 1.2e-140), 1e150, 2**53)
    with pytest.raises(DomainError, match="overflow"):
        variance.variance_curve(model, alpha, [1.0, 1e200], 8)


def _eye_with(entry):
    jac = np.eye(3)
    jac[1, 2] = entry
    return jac


@pytest.mark.parametrize(
    "jac", [np.full((3, 3), 1e308), _eye_with(math.inf), _eye_with(math.nan)], ids=["huge", "inf", "nan"]
)
@pytest.mark.parametrize("route", ["estimator_variances", "variance_curve"])
@pytest.mark.filterwarnings("error")
def test_non_finite_sensitivities_raise_domain_error_without_warning(jac, route):
    model = core.HamiltonianModel("fixed-jacobian", lambda a: np.asarray(a, dtype=float), lambda a: jac)
    alpha = (0.3, 0.2, 0.5)
    with pytest.raises(DomainError, match="xi coefficients are not finite"):
        if route == "estimator_variances":
            variance.estimator_variances(model, alpha, 1.0, 100)
        else:
            variance.variance_curve(model, alpha, [1.0, 2.0], 100)


@pytest.mark.parametrize("field", [1e80, 1e150])
@pytest.mark.filterwarnings("error")
def test_btp_variances_scale_with_the_field(field):
    # (B, t) -> (c B, t / c) keeps H t: v_B scales by c^2, v_theta and v_phi do not.
    # The xi are built from columns scaled by powers of two, so they stay in range.
    model = core.get_model("btp")
    ref = variance.estimator_variances(model, (1.0, 0.3, 0.2), 0.1, 100)
    v = variance.estimator_variances(model, (field, 0.3, 0.2), 0.1 / field, 100)
    assert_allclose(v / [field * field, 1.0, 1.0], ref, rtol=1e-12)


def test_infimum_is_large_time_envelope():
    xi = xi_for((0.4, -0.6, 0.9))
    inf = variance.variance_infimum(xi, 8)
    assert_allclose(inf, np.ldexp((xi.gap / 2.0) ** 2 * xi.xi1 / (8 * xi.xi3), -2 * xi.exponents), rtol=1e-12)
    env = variance.variance_envelope(xi, 1e6, 8)
    assert_allclose(env, inf, rtol=1e-9)


# ---------------------------------------------------------------------------
# variance curve


def test_curve_pole_rows_flagged_not_dropped():
    grid = [0.5, math.pi, 4.0]
    rows = variance.variance_curve(core.get_model("pauli"), (0.0, 0.0, 1.0), grid, 10)
    assert [r.t for r in rows] == grid
    assert rows[1].flag == "pole"
    assert math.isnan(rows[1].v1) and math.isnan(rows[1].v3)
    assert rows[0].flag == "" and rows[2].flag == ""


def assert_rows_match_pointwise(model, alpha, grid, n):
    """Every curve row is flagged "pole" exactly where estimator_variances
    raises DivergentTime, and otherwise carries its variances bit for bit."""
    rows = variance.variance_curve(model, alpha, grid, n)
    assert [r.t for r in rows] == list(grid)
    for r in rows:
        try:
            v = variance.estimator_variances(model, alpha, r.t, n)
        except DivergentTime:
            assert r.flag == "pole"
            assert math.isnan(r.v1) and math.isnan(r.v2) and math.isnan(r.v3)
            continue
        assert r.flag == ""
        assert (r.v1, r.v2, r.v3) == tuple(v)
    return rows


def test_curve_rows_match_pointwise_variances():
    rng = np.random.default_rng(8)
    for _ in range(20):
        model, alpha = random_case(rng)
        gap = variance.spectral_sensitivities(model, alpha).gap
        pole_times = [2.0 * math.pi * k / gap for k in (1, 2)]
        near = [pole_times[0] + 5e-7, pole_times[1] + 1e-12]
        grid = sorted(list(rng.uniform(0.05, 3.0 * pole_times[0], 12)) + pole_times + near)
        flags = {r.t: r.flag for r in assert_rows_match_pointwise(model, alpha, grid, 7)}
        # The rule is on the phase dE t: 5e-7 past a pole time dE t is clear of
        # 2 pi and the row is finite, 1e-12 past one it is not.
        assert [flags[t] for t in pole_times + near] == ["pole", "pole", "", "pole"]


@pytest.mark.parametrize("b", [1e-60, 1e-300])
def test_curve_at_near_zero_field(b):
    # The xi hold no 1 / dE, so a field this small is an ordinary working point.
    n = 10
    rows = assert_rows_match_pointwise(core.get_model("pauli"), (b, 0.0, 0.0), np.linspace(0.1, 6.0, 7), n)
    for r in rows:
        assert_allclose([r.v1, r.v2, r.v3], 1.0 / (4 * n * r.t**2), rtol=1e-12)


@pytest.mark.parametrize("gap", [1e4, 1e7])
def test_curve_flags_no_finite_row_at_large_gap(gap):
    # A rule in t would flag rows here as the pole spacing 2 pi / gap shrinks.
    alpha = np.array([0.6, 0.0, 0.8]) * (gap / 2.0)
    grid = np.linspace(1.0, 2.0, 2001).tolist()
    rows = assert_rows_match_pointwise(core.get_model("pauli"), alpha, grid, 100)
    assert all(r.flag == "" for r in rows)


@pytest.mark.parametrize("t", [1e139, 1e140, math.inf])
def test_unresolvable_phase_raises_domain_error(t):
    model, alpha = core.get_model("pauli"), (0.6, 0.0, 0.8)
    with pytest.raises(DomainError, match="float resolution"):
        variance.estimator_variances(model, alpha, t, 100)
    with pytest.raises(DomainError, match="float resolution"):
        qfim.generator(model, alpha, t)
    if math.isfinite(t):
        with pytest.raises(DomainError, match="float resolution"):
            variance.variance_curve(model, alpha, [1.0, t], 100)


def test_curve_evaluates_model_once():
    calls = []

    def pauli_map(alpha):
        calls.append(1)
        return np.asarray(alpha, dtype=float) ** 3

    model = core.custom_model(pauli_map)
    counts = []
    for points in (2, 60):
        calls.clear()
        variance.variance_curve(model, (0.8, -0.7, 0.9), np.linspace(0.1, 6.0, points), 10)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_curve_btp_field_column_heisenberg_scaling():
    grid = list(np.geomspace(0.2, 20.0, 30))
    rows = variance.variance_curve(core.get_model("btp"), (1.3, 0.4, -0.2), grid, 5)
    products = [r.v1 * r.t**2 for r in rows]
    assert_allclose(products, products[0], rtol=1e-10)


def test_curve_minima_at_odd_half_periods():
    # csc^2(gap t / 2) has minima at gap t / 2 = (2k+1) pi / 2
    b = 1.0
    gap = 2.0 * b
    for k in (0, 1, 2):
        t_star = (2 * k + 1) * math.pi / gap
        grid = list(np.linspace(t_star - 0.2, t_star + 0.2, 81))
        rows = variance.variance_curve(core.get_model("pauli"), (b, 0.0, 0.0), grid, 10)
        v2 = np.array([r.v2 for r in rows])
        assert abs(grid[int(np.argmin(v2))] - t_star) < 0.01


def test_curve_small_time_scaling():
    grid = list(np.geomspace(1e-3, 1e-2, 20))
    rows = variance.variance_curve(core.get_model("pauli"), (1.0, 0.0, 0.0), grid, 10)
    products = np.array([r.v2 * r.t**2 for r in rows])
    assert np.abs(products / products[0] - 1.0).max() < 0.01


def test_curve_envelope_and_infimum_columns():
    xi = xi_for((0.4, -0.6, 0.9))
    grid = [0.5, 1.5, 3.0]
    rows = variance.variance_curve(core.get_model("pauli"), (0.4, -0.6, 0.9), grid, 8)
    inf = variance.variance_infimum(xi, 8)[0]
    for r in rows:
        assert r.infimum == pytest.approx(inf, rel=1e-12)
        assert r.envelope == pytest.approx(
            float(variance.variance_envelope(xi, r.t, 8)[0]), rel=1e-12
        )
        assert r.envelope >= r.infimum - 1e-15
