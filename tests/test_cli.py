"""CLI surface: output schemas, golden values, exit codes, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import hamest
from hamest import adaptive, cli, qfim, robustness, variance
from hamest.core import get_model
from hamest.errors import EstimationError
from hamest.qfim import covariance_from_qfim, qfim_entangled, scalar_bound

from reference_routes import commutativity_residual_explicit, generator_matrices, simulate_reference

HALF_PI = math.pi / 2.0
# A 401-digit count, beyond every count the CLI accepts and the float range.
HUGE = "1" + "0" * 400


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# qfim


def test_qfim_zero_field_golden(capsys):
    code, out, _ = run_cli(capsys, "qfim", "--alpha", "0,0,0", "--t", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "qfim"
    assert np.array_equal(np.array(doc["rows"]), 16.0 * np.eye(3))
    assert np.array_equal(np.array(doc["covariance"]), np.eye(3) / 16.0)
    assert doc["scalar_bound"] == 3.0 / 16.0
    assert doc["singular"] is False
    assert doc["commutativity_residual"] == 0.0


def test_qfim_zero_time_reports_singular(capsys):
    code, out, err = run_cli(capsys, "qfim", "--alpha", "0.3,0.1,-0.2", "--t", "0")
    assert code == 2
    doc = json.loads(out)
    assert np.array_equal(np.array(doc["rows"]), np.zeros((3, 3)))
    assert doc["singular"] is True
    assert doc["covariance"] is None
    assert doc["scalar_bound"] is None
    assert "SingularQfim" in err


def test_qfim_btp_matches_library_bitwise(capsys):
    code, out, _ = run_cli(capsys, "qfim", "--model", "btp", "--alpha", "1,0.4,0.3", "--t", "1")
    assert code == 0
    doc = json.loads(out)
    f = qfim_entangled(get_model("btp"), (1.0, 0.4, 0.3), 1.0)
    assert np.array_equal(np.array(doc["rows"]), f.m)
    assert np.array_equal(np.array(doc["covariance"]), covariance_from_qfim(f, 1).m)


def test_qfim_csv_sections(capsys):
    code, out, _ = run_cli(
        capsys, "qfim", "--model", "btp", "--alpha", "1,0.4,0.3", "--t", "1", "--format", "csv"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["section", "i", "c1", "c2", "c3"]
    f = qfim_entangled(get_model("btp"), (1.0, 0.4, 0.3), 1.0)
    got_f = np.array([[float(c) for c in r[2:]] for r in rows if r[0] == "qfim"])
    got_c = np.array([[float(c) for c in r[2:]] for r in rows if r[0] == "covariance"])
    assert np.array_equal(got_f, f.m)
    assert np.array_equal(got_c, covariance_from_qfim(f, 1).m)
    (bound_row,) = [r for r in rows if r[0] == "scalar_bound"]
    assert float(bound_row[2]) == scalar_bound(np.eye(3), f, 1)


def test_qfim_weighted_initial_state(capsys):
    code, out, _ = run_cli(capsys, "qfim", "--alpha", "0.5,0.2,-0.1", "--t", "1.3", "--weight", "0.5")
    assert code == 0
    balanced = json.loads(out)["rows"]
    code, out, _ = run_cli(capsys, "qfim", "--alpha", "0.5,0.2,-0.1", "--t", "1.3")
    np.testing.assert_allclose(np.array(balanced), np.array(json.loads(out)["rows"]), rtol=1e-12)


def test_qfim_weighted_commutativity_residual(capsys):
    # The residual is that of the weighted probe sqrt(x)|00> + sqrt(1-x)|11>:
    # max_ij |Im <psi|h_i h_j (x) I|psi>| = max_ij |Im Tr(diag(x, 1-x) h_i h_j)|.
    code, out, _ = run_cli(capsys, "qfim", "--weight", "0.3", "--alpha", "0.8,-0.4,0.3", "--t", "2.0")
    assert code == 0
    expected = commutativity_residual_explicit(generator_matrices(get_model("pauli"), (0.8, -0.4, 0.3), 2.0), 0.3)
    residual = json.loads(out)["commutativity_residual"]
    assert residual == pytest.approx(expected, rel=1e-12)
    assert residual == pytest.approx(0.738, abs=5e-4)


@pytest.mark.parametrize(
    "argv",
    [
        ["--model", "pauli", "--alpha", "0.8,-0.4,0.3", "--t", "2.0"],
        ["--model", "btp", "--alpha", "1.0,0.4,0.3", "--t", "1.0", "--format", "csv"],
    ],
)
def test_qfim_default_weight_is_half(capsys, argv):
    # One route: the entangled probe is the weighted state at x = 1/2.
    code, default, _ = run_cli(capsys, "qfim", *argv)
    assert code == 0
    _, half, _ = run_cli(capsys, "qfim", *argv, "--weight", "0.5")
    assert default == half


def test_qfim_builds_the_generators_once(capsys, monkeypatch):
    calls = []
    original = qfim.generator

    def counted(*args):
        calls.append(args)
        return original(*args)

    # Every module binding of the generator, as the benchmark's tracer patches them.
    for name, mod in list(sys.modules.items()):
        if name.startswith("hamest") and getattr(mod, "generator", None) is original:
            monkeypatch.setattr(mod, "generator", counted)
    # The JSON document carries both the QFIM and the commutativity residual.
    code, _, _ = run_cli(capsys, "qfim", "--model", "btp", "--alpha", "1.0,0.4,0.3", "--t", "1.0")
    assert code == 0
    assert len(calls) == 1


def test_qfim_malformed_triple_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["qfim", "--alpha", "1,2", "--t", "1"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["qfim", "--alpha", "a,b,c", "--t", "1"])
    assert excinfo.value.code == 2
    assert "not a numeric triple: 'a,b,c'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# variance-curve


def test_variance_curve_keeps_pole_rows(capsys):
    grid = [HALF_PI, math.pi, 3.0 * HALF_PI]
    code, out, _ = run_cli(
        capsys,
        "variance-curve",
        "--alpha",
        "0.6,0,0.8",
        "--n",
        "100",
        "--t-start",
        repr(grid[0]),
        "--t-stop",
        repr(grid[-1]),
        "--points",
        "3",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "v1", "v2", "v3", "envelope", "infimum", "flag"]
    assert len(rows) == 3
    library = variance.variance_curve(get_model("pauli"), (0.6, 0.0, 0.8), np.array(grid), 100)
    for got, ref in zip(rows, library):
        assert float(got[0]) == ref.t
        assert got[6] == ref.flag
        for col, name in zip(got[1:6], ("v1", "v2", "v3", "envelope", "infimum")):
            value = float(col)
            expected = getattr(ref, name)
            assert value == expected or (math.isnan(value) and math.isnan(expected))
    pole = rows[1]
    assert pole[6] == "pole"
    assert math.isnan(float(pole[1]))
    assert not math.isnan(float(pole[4]))


def test_variance_curve_btp_heisenberg_slope(capsys):
    code, out, _ = run_cli(
        capsys,
        "variance-curve",
        "--model",
        "btp",
        "--alpha",
        "2,0.7853981633974483,0.3",
        "--n",
        "100",
        "--t-start",
        "0.5",
        "--t-stop",
        "5",
        "--points",
        "10",
    )
    assert code == 0
    _, rows = parse_csv(out)
    ts = np.array([float(r[0]) for r in rows])
    v1 = np.array([float(r[1]) for r in rows])
    slope = np.polyfit(np.log(ts), np.log(v1), 1)[0]
    assert abs(slope + 2.0) < 0.01


def test_variance_curve_out_file_matches_stdout(capsys, tmp_path):
    argv = ["variance-curve", "--alpha", "0.3,0.2,0.1", "--n", "50", "--t-start", "0.4", "--t-stop", "2.4", "--points", "6"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "curve.csv"
    code2, piped, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code2 == 0 and piped == ""
    assert path.read_text(encoding="utf-8") == out


@pytest.mark.parametrize(
    "bad",
    [
        ["--points", "1"],
        ["--t-start", "0", "--t-stop", "2"],
        ["--t-start", "3", "--t-stop", "2"],
    ],
)
def test_variance_curve_validation(capsys, bad):
    argv = ["variance-curve", "--alpha", "0.3,0.2,0.1", "--n", "50", "--t-start", "0.4", "--t-stop", "2.4", "--points", "6"]
    flags = dict(zip(argv[1::2], argv[2::2]))
    flags.update(dict(zip(bad[::2], bad[1::2])))
    rebuilt = ["variance-curve"]
    for k, v in flags.items():
        rebuilt += [k, v]
    code, _, err = run_cli(capsys, *rebuilt)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.filterwarnings("error")
def test_variance_curve_near_zero_field(capsys):
    # The variances of a field of 1e-300 are those of a zero field, 1 / (4 n t^2).
    code, out, err = run_cli(
        capsys, "variance-curve", "--alpha", "1e-300,0,0", "--n", "100", "--t-start", "0.1", "--t-stop", "6.0",
        "--points", "5",
    )
    assert code == 0
    assert err == ""
    _, rows = parse_csv(out)
    for row in rows:
        t = float(row[0])
        assert_allclose([float(v) for v in row[1:4]], 1.0 / (400 * t * t), rtol=1e-12)
        assert row[6] == ""


# ---------------------------------------------------------------------------
# schedule


def test_schedule_precision_target(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--v0", "1", "--n", "100", "--target", "1e-6")
    assert code == 0
    doc = json.loads(out)
    sched = doc["schedule"]
    assert sched["m"] == 3
    assert len(doc["rows"]) == 3
    assert sched["v_m"] <= 1e-6
    assert doc["rows"][0]["t"] == adaptive.g0()
    assert sched["asymptotic_ratio"] == 1.5451679153860798


def test_schedule_iteration_target(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--v0", "1", "--n", "1000", "--m", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["schedule"]["ratio"] == 1.5462304877456077
    assert len(doc["rows"]) == 6


def test_schedule_no_contraction_exit(capsys):
    code, _, err = run_cli(capsys, "schedule", "--v0", "1", "--n", "0", "--m", "2")
    assert code == 2
    assert "trials per iteration" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "--v0", "1", "--n", "100", "--target", "1e-6", "--m", "3"],
        ["schedule", "--v0", "1", "--n", "100"],
    ],
)
def test_schedule_target_flags_are_exclusive(argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# robustness


def test_robustness_single_golden(capsys):
    code, out, _ = run_cli(capsys, "robustness", "single", "--grid", "0.5:2.0:0.5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["D", "R", "pdf"]
    assert [float(r[0]) for r in rows] == [0.5, 1.0, 1.5, 2.0]
    for r in rows:
        d = float(r[0])
        assert float(r[1]) == robustness.ratio_single(d)
        assert float(r[2]) == robustness.deviation_pdf(d)


def test_robustness_single_fine_grid(capsys):
    code, out, _ = run_cli(capsys, "robustness", "single", "--grid", "0.01:5.8:0.01")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 580
    assert abs(float(rows[-1][0]) - 5.8) < 1e-9
    penalties = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(penalties) > 0.0)


@pytest.mark.parametrize(
    "grid,digest",
    [
        ("0.01:5.8:0.01", "01e0bc0e9c0fd45408ab6a4e7853a7140cf02d54b6810c0be71af92e732ab9e8"),
        ("1e-300:5.8:0.001", "c3a60c0d7e6476ecb4199165483a5f92f0aa14c138cdf896e1800e404aba426f"),
    ],
)
def test_robustness_single_output_pinned(capsys, grid, digest):
    code, out, _ = run_cli(capsys, "robustness", "single", "--grid", grid)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_robustness_single_computes_each_column_in_one_call(capsys, monkeypatch):
    calls = []
    for name in ("ratio_single", "deviation_pdf"):
        route = getattr(robustness, name)
        monkeypatch.setattr(robustness, name, lambda d, route=route, name=name: calls.append(name) or route(d))
    code, out, _ = run_cli(capsys, "robustness", "single", "--grid", "0.01:5.8:0.01")
    assert code == 0
    assert out.count("\n") == 581
    assert calls == ["ratio_single", "deviation_pdf"]


def test_robustness_single_overflow_exit(capsys):
    # R(D) is finite as D -> 0, but its formula overflows below D ~ 3.3e-309:
    # the command names the point instead of writing inf.
    code, out, err = run_cli(capsys, "robustness", "single", "--grid", "1e-310:1:0.5")
    assert (code, out) == (2, "")
    assert err == "error: R(D) overflows for D below about 3.3e-309, got 1e-310\n"


def test_robustness_single_domain_exit(capsys):
    code, _, err = run_cli(capsys, "robustness", "single", "--grid", "5.8:6.0:0.1")
    assert code == 2
    assert err.startswith("error:")


def test_robustness_single_domain_exit_writes_no_file(capsys, tmp_path):
    path = tmp_path / "single.csv"
    code, out, _ = run_cli(capsys, "robustness", "single", "--grid", "0.5:7:1.0", "--out", str(path))
    assert code == 2
    assert out == ""
    assert not path.exists()


def test_robustness_total_deterministic(capsys):
    argv = ["robustness", "total", "--m", "4", "--samples", "10000", "--seed", "42"]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    assert first == (
        "statistic,value\n"
        "mean,0.8230264842911312\n"
        "p_below_one,0.714\n"
        "decile_10,0.34317133570718283\n"
        "decile_20,0.4610815549325794\n"
        "decile_30,0.5587086307058865\n"
        "decile_40,0.657512054602342\n"
        "decile_50,0.7544942374713861\n"
        "decile_60,0.8582338399798891\n"
        "decile_70,0.9798892415644254\n"
        "decile_80,1.1466029366820507\n"
        "decile_90,1.3967581135580796\n"
    )
    _, again, _ = run_cli(capsys, *argv)
    assert again == first
    _, threaded, _ = run_cli(capsys, "--threads", "4", *argv)
    assert threaded == first


@pytest.mark.parametrize(
    "m,samples,digest",
    [
        (2, 10_000, "9ff6224c537fd7dc9a4ea2bc9067ff0cb3b34e505a29546a30e544235860ca94"),
        (3, 10_000, "ffee84e1af5aeac006f4ebb029216892270a24892065853622fa77b111da3b72"),
        (4, 10_000, "168d6622c6b9e5ca8216d9e902c2fd46d20934cc4c1fd0e071fa8a10ffeaf2a0"),
        # a short last block of 12345 - 3 * 4096 = 57 samples
        (3, 12_345, "c3ff8dc7ce36938fda95578402ac540613ba430c3ad441a7060af1b894c91b7f"),
        (3, 1_000_000, "28f6b8939b1355cdf2b9ac0476771be9c7fa097868c8d197b071b530c619586a"),
    ],
)
def test_robustness_total_output_pinned(capsys, m, samples, digest):
    argv = ["robustness", "total", "--m", str(m), "--samples", str(samples), "--seed", "42"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_robustness_total_seed_required():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["robustness", "total", "--m", "3", "--samples", "10000"])
    assert excinfo.value.code == 2


def test_robustness_mode_required():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["robustness"])
    assert excinfo.value.code == 2


def test_robustness_bad_grid_spec(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["robustness", "single", "--grid", "1.0:2.0"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["robustness", "single", "--grid", "a:b:c"])
    assert excinfo.value.code == 2
    assert "not a numeric range: 'a:b:c'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_single_iteration_record(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--beta0", "0.8,-0.4,0.3", "--n", "200", "--m", "1", "--seed", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 3
    assert len(doc["rows"]) == 1
    rep = doc["rows"][0]
    assert rep["aborted"] is False
    assert len(rep["iterations"]) == 1
    assert rep["iterations"][0]["k"] == 1
    assert doc["summary"]["ratio"] == rep["realized_sq_error"] / rep["planned_v_m"]


def test_simulate_rerun_is_byte_identical(capsys):
    argv = ["simulate", "--beta0", "0.8,-0.4,0.3", "--n", "300", "--m", "2", "--seed", "11", "--reps", "4"]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    _, again, _ = run_cli(capsys, *argv)
    assert again == first


def test_simulate_bell_below_fit_floor(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--beta0", "0.8,-0.4,0.3", "--n", "50", "--m", "1",
        "--backend", "bell", "--seed", "3",
    )
    assert code == 2
    assert "n >= 100" in err


@pytest.mark.parametrize(
    "extra,digest",
    [
        ([], "fdf1d77ca15d8c635dd63e51ebf0cff822df03d14f7ac18b9be992cf7df8391d"),
        (["--refine"], "dd157ec173899926a9f94e86cba244765e7566526606e795c00d6a9a16558e24"),
        (["--backend", "bell"], "bed12b528c369f6b1bc9414a7f8308fe8687560be9f932f68a7eb5808b123859"),
        (
            ["--backend", "bell", "--refine"],
            "28c221d80c870933f34dc8031670caac6e4759f2d0d9bdc17d3dae83d22f25e0",
        ),
    ],
)
def test_simulate_output_pinned(capsys, extra, digest):
    argv = ["simulate", "--beta0", "0.8,-0.4,0.3", "--n", "1000", "--m", "3", "--seed", "11", "--reps", "3"]
    code, out, _ = run_cli(capsys, *argv, *extra)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "extra,digest",
    [
        ([], "89a1c6006c5faff312420b212ccb61c2f233ee2b96277ba5647aac4b92fc2007"),
        (["--refine"], "85177c9a271d4d0fe9dbacaedcc84370aa5ecb5d80188321762092ddcef3921d"),
    ],
)
def test_simulate_readme_output_pinned(capsys, extra, digest):
    argv = ["simulate", "--beta0", "0.8,-0.4,0.3", "--n", "1000", "--m", "4", "--seed", "11", "--reps", "500"]
    code, out, _ = run_cli(capsys, *argv, *extra)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("extra", [[], ["--refine"], ["--backend", "bell"]])
def test_rows_do_not_depend_on_reps(capsys, extra):
    # One stream per measurement, drawn in rep order, so a longer run only appends rows.
    argv = ["simulate", "--beta0", "0.8,-0.4,0.3", "--n", "1000", "--m", "3", "--seed", "11", *extra]
    _, short, _ = run_cli(capsys, *argv, "--reps", "2")
    _, long, _ = run_cli(capsys, *argv, "--reps", "5")
    assert json.loads(short)["rows"] == json.loads(long)["rows"][:2]


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["variance-curve", "--model", "pauli", "--alpha", "0.6,0,0.8", "--n", "100",
             "--t-start", "0.1", "--t-stop", "6.0", "--points", "60"],
            "f24e6ee56718c78f5399870e9fcfa1ddcce72bd7cf8c8f9079b5b98af26a146c",
        ),
        (
            ["qfim", "--model", "btp", "--alpha", "1.0,0.4,0.3", "--t", "1.0", "--format", "csv"],
            "ca823146821b8aaa066e7673194b94a90f5a79094bc7d4777a3c00772cd3f02e",
        ),
    ],
)
def test_information_output_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _random_runs(count, seed):
    """(beta, n, m) with |beta_i| < 2, n in [2, 10^4] and m <= 5: the final
    error stays far above the resolution of beta, so no residual rounds to
    exactly zero."""
    rng = np.random.default_rng(seed)
    return [
        (tuple(rng.uniform(-2.0, 2.0, 3).tolist()), int(10.0 ** rng.uniform(0.3, 4.0)), int(rng.integers(1, 6)))
        for _ in range(count)
    ]


@pytest.mark.parametrize("beta,n,m", [((0.8, -0.4, 0.3), 10000, 2)] + _random_runs(40, 17))
def test_simulate_planned_v_m_is_the_schedule_value(capsys, beta, n, m):
    code, out, _ = run_cli(
        capsys, "simulate", "--beta0=" + ",".join(map(repr, beta)), "--n", str(n), "--m", str(m), "--seed", "1"
    )
    assert code == 0
    doc = json.loads(out)
    # The default prior bound is |beta|, and the schedule starts from v0 = bound^2.
    bound = float(np.linalg.norm(beta))
    v_m = adaptive.plan_schedule(bound * bound, n, target_m=m).v_m
    assert doc["rows"][0]["planned_v_m"] == v_m
    assert doc["summary"]["planned_v_m"] == v_m


SIMULATE_CASES = (
    [
        ["--beta0", "0.8,-0.4,0.3", "--n", "200", "--m", "1", "--seed", "3", "--reps", "1"],
        ["--beta0", "0.8,-0.4,0.3", "--n", "1000", "--m", "2", "--seed", "5", "--reps", "4", "--backend", "bell",
         "--refine", "--extra-trials", "150"],
        ["--beta0", "0.8,-0.4,0.3", "--n", "500", "--m", "3", "--seed", "2", "--reps", "3",
         "--guess=-0.7,-0.5,0.2", "--bound", "1.5"],
        ["--beta0=-0.0,0.5,-0.2", "--n", "300", "--m", "3", "--seed", "7", "--reps", "3", "--refine"],
    ]
    + [
        ["--beta0=" + ",".join(map(repr, beta)), "--n", str(n), "--m", str(m), "--seed", "4", "--reps", "3"]
        for beta, n, m in _random_runs(10, 29)
    ]
    + [
        # beta_hat_2 and beta_hat_3 are 0.0 in every rep: shared columns, still in the CSV.
        ["--backend", "bell", "--beta0", "0.05,0,0", "--n", "1000", "--m", "1", "--seed", "1", "--reps", "5"],
        ["--beta0", "0.8,-0.4,0.3", "--n", "200", "--m", "2", "--seed", "3", "--reps", "2"],
        # The refined int n_used differs between reps.
        ["--beta0", "0.8,-0.4,0.3", "--n", "1000", "--m", "3", "--seed", "11", "--reps", "7", "--refine"],
        # One rep past the real chunk size of 1000: one seam at the default _CHUNK_REPS.
        ["--beta0", "0.8,-0.4,0.3", "--n", "200", "--m", "1", "--seed", "3", "--reps", "1001"],
    ]
)


def assert_simulate_matches_reference(capsys, tmp_path, argv):
    path = tmp_path / "reps.csv"
    code, out, _ = run_cli(capsys, "simulate", *argv, "--csv", str(path))
    assert code == 0
    text, csv_text = simulate_reference(cli.build_parser().parse_args(["simulate", *argv]))
    assert out == text
    assert path.read_text(encoding="utf-8") == csv_text


@pytest.mark.parametrize("argv", SIMULATE_CASES)
def test_simulate_matches_the_row_by_row_reference(capsys, tmp_path, argv):
    # The writer fills one json.dumps template per rep from the trace's columns;
    # the reference builds every row as a dict and dumps the whole document.
    assert_simulate_matches_reference(capsys, tmp_path, argv)


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("argv", SIMULATE_CASES)
def test_simulate_chunk_seams_match_the_reference(capsys, tmp_path, monkeypatch, argv, chunk):
    # Rows are formatted and written in chunks of reps; the seams between
    # chunks must not show in the bytes.
    monkeypatch.setattr(cli, "_CHUNK_REPS", chunk)
    assert_simulate_matches_reference(capsys, tmp_path, argv)


def test_simulate_bell_far_guess_runs(capsys):
    # The Bell fit searches only the phase branches next to |guess| * t, so a
    # guess 1e12 from the field neither exhausts memory nor stalls the run.
    code, out, _ = run_cli(
        capsys, "simulate", "--backend", "bell", "--beta0", "0.05,0.03,0.04", "--guess", "1e12,0,0",
        "--bound", "1", "--n", "1000", "--m", "2", "--seed", "1",
    )
    assert code == 0
    assert len(json.loads(out)["rows"]) == 1


def test_refined_trial_count_stays_in_range(capsys):
    # At --n = 2^53 a refined iteration keeps its time budget n * t only up to
    # the largest trial count.
    code, out, _ = run_cli(
        capsys, "simulate", "--beta0", "0.8,-0.4,0.3", "--n", str(2**53), "--m", "2",
        "--seed", "1", "--refine", "--reps", "5",
    )
    assert code == 0
    used = [it["n_used"] for rep in json.loads(out)["rows"] for it in rep["iterations"]]
    assert len(used) == 10
    assert all(1 <= n <= 2**53 for n in used)


def test_refined_bell_count_keeps_the_fit_floor(capsys):
    # Holding the time budget n * t would take some refined Bell counts down to
    # 10 trials here; they stop at the fit's floor of 100, and some reach it.
    code, out, _ = run_cli(
        capsys, "simulate", "--beta0", "0.05,-0.03,0.04", "--n", "100", "--m", "3", "--backend", "bell",
        "--refine", "--reps", "200", "--seed", "1",
    )
    assert code == 0
    used = [it["n_used"] for rep in json.loads(out)["rows"] for it in rep["iterations"]]
    assert min(used) == 100


def test_simulate_seed_required():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["simulate", "--beta0", "0.8,-0.4,0.3", "--n", "200", "--m", "1"])
    assert excinfo.value.code == 2


def test_simulate_csv_sidecar(capsys, tmp_path):
    path = tmp_path / "reps.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--beta0", "0.8,-0.4,0.3", "--n", "200", "--m", "1",
        "--seed", "3", "--reps", "3", "--csv", str(path),
    )
    assert code == 0
    doc = json.loads(out)
    header, rows = parse_csv(path.read_text(encoding="utf-8"))
    assert header == ["rep", "beta_hat_1", "beta_hat_2", "beta_hat_3", "realized_sq_error"]
    assert [int(r[0]) for r in rows] == [0, 1, 2]
    for row, rep in zip(rows, doc["rows"]):
        assert float(row[4]) == rep["realized_sq_error"]


# ---------------------------------------------------------------------------
# process-level conventions


def test_internal_failure_exits_three(capsys, monkeypatch):
    def explode(model, alpha, t):
        raise EstimationError("forced")

    monkeypatch.setattr(cli, "generator", explode)
    code, _, err = run_cli(capsys, "qfim", "--alpha", "0,0,0", "--t", "2")
    assert code == 3
    assert err.startswith("internal error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["qfim", "--alpha", "0.8,-0.4,0.3", "--t", "nan"],
        ["qfim", "--alpha", "0.8,-0.4,0.3", "--t", "inf"],
        # A zero gap leaves the envelope without a field direction.
        ["variance-curve", "--alpha", "0,0,0", "--n", "100", "--t-start", "0.1",
         "--t-stop", "6.0", "--points", "5"],
        ["schedule", "--v0", "inf", "--n", "1000", "--m", "3"],
        ["robustness", "total", "--m", "3", "--samples", "10000", "--seed", str(2**64)],
        ["robustness", "total", "--m", "2", "--samples", "100000000000000000000", "--seed", "0"],
        ["simulate", "--beta0", "0.8,-0.4,0.3", "--n", "200", "--m", "1", "--seed", str(2**64)],
        ["qfim", "--alpha", "0.8,-0.4,0.3", "--t", "1e200"],
        ["schedule", "--v0", "1e308", "--n", "1000", "--m", "3"],
        ["simulate", "--beta0", "0,0,0", "--n", "1000", "--m", "2", "--seed", "1", "--bound", "1"],
        ["qfim", "--model", "btp", "--alpha", "1e300,0.3,0.2", "--t", "1e10"],
        ["simulate", "--beta0", "3.0,0.0,1e300", "--n", "2889", "--m", "1", "--seed", "1"],
        ["simulate", "--beta0", "1e200,0,0", "--n", "2889", "--m", "1", "--seed", "1"],
        ["simulate", "--beta0", "1e154,0,0", "--n", "2889", "--m", "1", "--seed", "1"],
        ["schedule", "--v0", "1e-300", "--n", "3211", "--m", "5"],
        ["simulate", "--beta0", "1e200,0,0", "--bound", "1", "--n", "2889", "--m", "1", "--seed", "1"],
        ["simulate", "--beta0", "1e200,0,0", "--bound", "1", "--n", "2889", "--m", "1", "--seed", "1",
         "--backend", "bell"],
        ["simulate", "--beta0", "0.05,0.03,0.04", "--guess", "1e200,0,0", "--bound", "1", "--n", "2889",
         "--m", "1", "--seed", "1", "--backend", "bell"],
        ["variance-curve", "--alpha", "0.6,0,0.8", "--n", "100", "--t-start", "1e150",
         "--t-stop", "1e200", "--points", "60"],
        ["simulate", "--beta0", "0.05,0.03,0.04", "--guess", "1e153,0,0", "--bound", "1", "--n", "2889",
         "--m", "2", "--seed", "1", "--backend", "bell"],
        # Phases dE t that floats cannot resolve within a period.
        ["variance-curve", "--alpha", "0.6,0,0.8", "--n", "100", "--t-start", "1e139",
         "--t-stop", "1.0000001e139", "--points", "4"],
        ["variance-curve", "--alpha", "0.6,0,0.8", "--n", "100", "--t-start", "1e140",
         "--t-stop", "1e150", "--points", "4"],
        ["qfim", "--alpha", "0.8,-0.4,0.3", "--t", "1e20"],
        # Deviation grids that leave (0, (pi / g0)^2) after some valid points, or at once.
        ["robustness", "single", "--grid", "0.5:7:1.0"],
        ["robustness", "single", "--grid", "0:1:0.5"],
        # The scaled xi stay in range; at B = 1e300 the infimum, of order B^2 / 1e35, overflows.
        ["variance-curve", "--model", "btp", "--alpha", "1e300,0.3,0.2", "--n", "100", "--t-start", "1e-301",
         "--t-stop", "1e-300", "--points", "5"],
        # Grids past MAX_GRID_POINTS, rejected before they are allocated.
        ["variance-curve", "--alpha", "0.6,0,0.8", "--n", "100", "--t-start", "0.1",
         "--t-stop", "6.0", "--points", "10000000000000"],
        ["robustness", "single", "--grid", "0:1:1e-13"],
        # Trial counts past 2^53, rejected before they reach a float.
        ["schedule", "--v0", "1", "--n", HUGE, "--m", "3"],
        ["variance-curve", "--alpha", "0.6,0,0.8", "--n", HUGE, "--t-start", "0.1", "--t-stop", "6.0",
         "--points", "5"],
        ["simulate", "--beta0", "0.8,-0.4,0.3", "--n", HUGE, "--m", "1", "--seed", "1"],
        ["simulate", "--beta0", "0.8,-0.4,0.3", "--n", "1000", "--m", "2", "--seed", "1", "--refine",
         "--extra-trials", HUGE],
        # Repetition and iteration counts past their caps, rejected before any allocation.
        ["simulate", "--beta0", "0.8,-0.4,0.3", "--n", "1000", "--m", "1", "--seed", "1", "--reps", HUGE],
        ["schedule", "--v0", "1", "--n", "1", "--m", "100000000000"],
        ["simulate", "--beta0", "0.8,-0.4,0.3", "--n", "1000", "--m", "100000000000", "--seed", "1"],
        ["robustness", "total", "--m", "1025", "--samples", "10000", "--seed", "0"],
        # Grid ends where linspace's steps leave the float range.
        ["variance-curve", "--alpha", "0.5,0,-0.25", "--n", "100", "--t-start", "1", "--t-stop", "inf",
         "--points", "2"],
        ["variance-curve", "--alpha", "1.25,0,0", "--n", "100", "--t-start", "1",
         "--t-stop", "1.7976931348623157e+308", "--points", "28"],
        # Prior bounds whose square leaves the normal floats, by default from |beta0| or given.
        ["simulate", "--beta0", "1e-200,0,0", "--n", "1000", "--m", "2", "--seed", "1"],
        ["simulate", "--beta0", "0.8,-0.4,0.3", "--n", "1000", "--m", "2", "--seed", "1", "--bound", "1e-170"],
        # A finite QFIM, 4 t^2 I, whose symmetrization overflows.
        ["qfim", "--alpha", "0,0,0", "--t", "6e153"],
    ],
)
@pytest.mark.filterwarnings("error")
def test_invalid_numeric_input_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flags", [["--beta0", "1e-200,0,0"], ["--beta0", "0.8,-0.4,0.3", "--bound", "1e-170"]])
def test_tiny_prior_bound_names_the_flag(capsys, flags):
    # |beta0| is taken without underflow, and bound^2 must be a normal float.
    code, _, err = run_cli(capsys, "simulate", *flags, "--n", "1000", "--m", "2", "--seed", "1")
    assert code == 2
    assert "--bound" in err


@pytest.mark.filterwarnings("error")
def test_tiny_residual_keeps_its_direction(capsys):
    # |beta|^2 = 1e-400 underflows; the residual's norm must not.
    code, out, err = run_cli(
        capsys, "simulate", "--beta0", "1e-200,0,0", "--bound", "1e-100", "--n", "1000", "--m", "2", "--seed", "1"
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    iterations = doc["rows"][0]["iterations"]
    assert len(iterations) == 2
    assert all(math.isfinite(it["trace_cov"]) and it["trace_cov"] > 0.0 for it in iterations)
    assert 0.0 < doc["summary"]["ratio"] < math.inf


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "--v0", "1", "--m", "3"],
        ["variance-curve", "--alpha", "0.6,0,0.8", "--t-start", "0.1", "--t-stop", "6.0", "--points", "3"],
        ["simulate", "--beta0", "0.8,-0.4,0.3", "--m", "2", "--reps", "1", "--seed", "1"],
    ],
)
@settings(deadline=None, max_examples=50, database=None)
@given(n=st.integers(min_value=-10, max_value=10**4) | st.integers(min_value=-10, max_value=10**400))
def test_any_trial_count_exits_zero_or_two(argv, n):
    # In process, a traceback is an exception that reaches this test. Warnings
    # are errors inside the call only, so that a failure is reported cleanly.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv + ["--n", str(n)])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1


def _number(text):
    return st.floats(-3.0, 3.0).map(repr) | st.floats(allow_nan=True, allow_infinity=True).map(repr) | st.just(text)


def _count(past, top):
    """An integer in [-3, top], or one in [past, 10^400]: past a cap."""
    return st.integers(-3, top) | st.integers(past, 10**400)


def _vector():
    return st.tuples(_number("0.5"), _number("0"), _number("-0.25")).map(",".join)


def _flags(**drawn):
    """The drawn flags in = form, which argparse reads as values even when
    they start with '-'; a None value leaves its optional flag out."""
    return st.fixed_dictionaries(drawn).map(
        lambda d: [f"--{name.replace('_', '-')}={value}" for name, value in d.items() if value is not None]
    )


# A known model or an unknown name.
_MODEL = st.sampled_from(["pauli", "btp", "ising"])
# A file flag: unset, a writable file, a path in a missing directory, or the
# directory itself, under the directory that _OUT_DIR stands for.
_OUT_DIR = "<out-dir>"
_OUT = st.sampled_from([None, f"{_OUT_DIR}/out.csv", f"{_OUT_DIR}/missing/out.csv", _OUT_DIR])


def _argv(parts, drop):
    """The command words and their flags, less the flag at index drop (if any):
    a left-out required flag is an argparse rejection."""
    command, flags = parts
    return command + [flag for i, flag in enumerate(flags) if i != drop]


# Every numeric flag of qfim, variance-curve, schedule, robustness and simulate
# on both backends, with --model and the file flags, in ranges that keep each
# call to milliseconds: beyond them a grid, sample count or iteration count
# exits 2 before it allocates. Unknown --format and --backend choices, grids
# with STOP < START or STEP <= 0 and a left-out flag reach argparse's rejections.
NUMERIC_COMMANDS = st.builds(_argv, st.one_of(
    st.tuples(st.just(["qfim"]), _flags(
        model=_MODEL, alpha=_vector(), t=_number("1.0"), weight=_number("0.5"),
        format=st.sampled_from(["json", "csv", "xml"]),
    )),
    st.tuples(st.just(["variance-curve"]), _flags(
        model=_MODEL, alpha=_vector(), n=_count(2, 10**4),
        t_start=_number("0.1"), t_stop=_number("6.0"), points=_count(10**6 + 1, 40), out=_OUT,
    )),
    st.tuples(st.just(["schedule"]), _flags(
        v0=_number("1.0"), n=_count(2, 10**4), m=_count(10**6, 40),
    ) | _flags(v0=_number("1.0"), n=_count(2, 10**4), target=_number("1e-6"))),
    st.tuples(st.just(["robustness", "single"]), st.tuples(
        st.floats(-1.0, 6.0), st.floats(0.0, 6.0) | st.floats(-6.0, -0.05),
        st.floats(0.05, 6.0) | st.floats(1e-14, 1e-12) | st.floats(-1.0, 0.0), _flags(out=_OUT),
    ).map(lambda g: [f"--grid={g[0]!r}:{g[0] + g[1]!r}:{g[2]!r}"] + g[3])),
    st.tuples(st.just(["robustness", "total"]), _flags(
        m=_count(1025, 6), samples=st.integers(-3, 12000) | st.integers(10**8 + 1, 10**400),
        seed=_count(2**64, 100), out=_OUT,
    )),
    st.tuples(st.sampled_from([["simulate"], ["simulate", "--refine"], ["simulate", "--backend=fast"]]), _flags(
        beta0=_vector(), n=_count(2, 10**4), m=_count(10**6, 5), seed=_count(2**64, 100),
        reps=_count(10**5 + 1, 8), extra_trials=st.none() | _count(2, 10**4),
        bound=st.none() | _number("1.0"), guess=st.none() | _vector(), csv=_OUT,
    )),
    # Bell draws valid counts, seeds and n on both sides of the fit floor, so
    # that about a third of its calls reach the fits.
    st.tuples(st.sampled_from([["simulate", "--backend=bell"], ["simulate", "--backend=bell", "--refine"]]), _flags(
        beta0=_vector(), n=st.integers(50, 10**4), m=st.integers(1, 4), seed=st.integers(0, 2**64 - 1),
        reps=st.integers(1, 64), extra_trials=st.none() | st.integers(1, 10**4),
        bound=st.none() | _number("1.0"), guess=st.none() | _vector(), csv=_OUT,
    )),
), st.none() | st.integers(0, 29))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("out")


@settings(deadline=None, max_examples=150, database=None)
@given(argv=NUMERIC_COMMANDS)
def test_any_numeric_flags_exit_cleanly(out_dir, argv):
    # In process, a traceback is an exception that reaches this test, and a
    # warning is one while the call runs.
    argv = [arg.replace(_OUT_DIR, str(out_dir)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's rejection
            code = exc.code
            assert (code, out.getvalue()) == (2, "")
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code in (2, 3)
        assert err.getvalue().startswith(("error:", "internal error:"))
        assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["qfim", "--alpha=-0.8,0.4,0.3", "--t", "2"],
        ["variance-curve", "--alpha=-0.6,0,0.8", "--n", "100", "--t-start", "0.1", "--t-stop", "6.0",
         "--points", "5"],
        ["simulate", "--beta0=-0.8,0.4,0.3", "--n", "200", "--m", "2", "--seed", "1"],
        ["simulate", "--beta0", "0.8,-0.4,0.3", "--guess=-1,0,0", "--n", "200", "--m", "2", "--seed", "1"],
    ],
)
def test_negative_first_component_takes_the_equals_form(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out
    # Written apart, the vector reads as a flag and argparse rejects the call.
    i = next(i for i, arg in enumerate(argv) if "=-" in arg)
    apart = argv[:i] + argv[i].split("=", 1) + argv[i + 1:]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(apart)
    assert excinfo.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--beta0", "0.8,-0.4,0.3", "--n", "200", "--m", "1", "--seed", "1", "--backend", "foo"],
        ["qfim", "--alpha", "0.8,-0.4,0.3", "--t", "1", "--format", "xml"],
        ["robustness", "single", "--grid", "1:0:1"],
        ["robustness", "single", "--grid", "0:1:0"],
        ["robustness", "total", "--m", "3", "--samples", "100"],
        ["robustness"],
        ["frobnicate"],
        [],
        ["qfim", "--alpha", "0.8,-0.4,0.3", "--t", "1", "--bogus"],
        # argparse echoes an unrecognized argument raw; its line break is escaped.
        ["qfim", "--alpha", "1,0,0", "--t", "1", "a\nb"],
    ],
)
def test_argparse_rejection_is_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (excinfo.value.code, out) == (2, "")
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_simulate_zero_residual_is_a_perfect_iteration(capsys):
    # On this deep schedule an estimate equals the true field to the last bit;
    # the next residual is exactly zero and its covariance takes the true field's direction.
    argv = ["simulate", "--beta0", "1.3836194857834143,0.6945873935063278,0.7797346139714283",
            "--n", "407032", "--m", "8", "--seed", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    iterations = json.loads(out)["rows"][0]["iterations"]
    assert len(iterations) == 8
    assert 0.0 in [it["residual_norm_sq"] for it in iterations]


@pytest.mark.parametrize(
    "argv,expected",
    [
        # rho = sqrt(n / gain) is about 1206: rho^m is about 1e185 at m = 60 and
        # beyond the float range at m = 101, where V_m underflows instead.
        (["schedule", "--v0", "1e300", "--n", "1000000", "--m", "60"], 0),
        (["schedule", "--v0", "1e300", "--n", "1000000", "--m", "101"], 2),
        # The same plan as the first case: V_m is about 1.7e-70.
        (["simulate", "--beta0", "1e150,0,0", "--n", "1000000", "--m", "60", "--seed", "1"], 0),
    ],
)
@pytest.mark.filterwarnings("error")
def test_extreme_schedule_exits_cleanly(capsys, argv, expected):
    code, _, err = run_cli(capsys, *argv)
    assert code == expected
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error:")
        assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_schedule_target_far_below_v0(capsys):
    # target_v / v0 underflows to zero on both calls: the first plan stays in
    # the float range, the second reaches a subnormal v_k first.
    code, out, _ = run_cli(capsys, "schedule", "--v0", "1e300", "--n", "1000", "--target", "1e-30")
    assert code == 0
    assert json.loads(out)["schedule"]["v_m"] <= 1e-30
    code, out, err = run_cli(capsys, "schedule", "--v0", "2", "--n", "1000", "--target", "5e-324")
    assert (code, out) == (2, "")
    assert err.startswith("error: schedule underflows")


def test_non_finite_result_writes_no_csv(capsys, tmp_path):
    path = tmp_path / "reps.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--beta0", "0.05,0.03,0.04", "--guess", "1e153,0,0", "--bound", "1",
        "--n", "2889", "--m", "2", "--seed", "1", "--backend", "bell", "--csv", str(path),
    )
    assert code == 2
    assert out == ""
    assert not path.exists()
    # Gaussian: d_factor = 4 |beta0|^2 / (4 bound^2) = 1e600 overflows; the rest of the trace is finite.
    code, out, err = run_cli(
        capsys, "simulate", "--beta0", "1e150,0,0", "--bound", "1e-150", "--n", "1000", "--m", "1",
        "--seed", "1", "--csv", str(path),
    )
    assert (code, out) == (2, "")
    assert err == "error: result is not finite and cannot be written as JSON\n"
    assert not path.exists()


FILE_FLAG_COMMANDS = [
    ["variance-curve", "--alpha", "0.6,0,0.8", "--n", "100", "--t-start", "0.1", "--t-stop", "6.0",
     "--points", "5", "--out"],
    ["robustness", "single", "--grid", "0.1:0.2:0.1", "--out"],
    ["robustness", "total", "--m", "2", "--samples", "10000", "--seed", "1", "--out"],
    ["simulate", "--beta0", "0.8,-0.4,0.3", "--n", "200", "--m", "1", "--seed", "3", "--csv"],
]


@pytest.mark.parametrize(
    "argv", FILE_FLAG_COMMANDS, ids=["variance-curve", "robustness-single", "robustness-total", "simulate"]
)
@pytest.mark.parametrize("where", ["missing-directory", "directory", "line-break"])
def test_unwritable_file_flag_exits_two(capsys, tmp_path, argv, where):
    path = {
        "missing-directory": str(tmp_path / "missing" / "out.csv"),
        "directory": str(tmp_path),
        "line-break": str(tmp_path / "no\ndir" / "x.csv"),
    }[where]
    code, out, err = run_cli(capsys, *argv, path)
    assert (code, out) == (2, "")
    # The path is written with repr, so a line break in it stays escaped.
    assert err.startswith(f"error: cannot write {path!r}: ")
    assert err.count("\n") == 1


def _module_env():
    env = dict(os.environ)
    src = str(Path(hamest.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_python_dash_m_runs_cli(capsys):
    argv = ["schedule", "--v0", "1", "--n", "1000", "--m", "2"]
    proc = subprocess.run(
        [sys.executable, "-m", "hamest", *argv], capture_output=True, text=True, env=_module_env(), timeout=60
    )
    assert proc.returncode == 0
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert proc.stdout == out


def test_closed_stdout_ends_quietly():
    # 200 reps print far more than a pipe buffer holds, so the write after
    # the reader has gone fails, as it does under `| head -2`.
    argv = ["simulate", "--beta0", "0.8,-0.4,0.3", "--n", "1000", "--m", "4", "--seed", "11", "--reps", "200"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "hamest", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_module_env(),
    )
    assert proc.stdout.read(40).startswith(b"{")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""


# The README's example commands; the Bell one also writes {csv}.
README_COMMANDS = [
    "qfim --model pauli --alpha 0.8,-0.4,0.3 --t 2.0",
    "qfim --model btp --alpha 1.0,0.4,0.3 --t 1.0 --format csv",
    "variance-curve --model pauli --alpha 0.6,0,0.8 --n 100 --t-start 0.1 --t-stop 6.0 --points 60",
    "schedule --v0 1.0 --n 1000 --target 1e-6",
    "schedule --v0 1.0 --n 1000 --m 6",
    "robustness single --grid 0.01:5.8:0.01",
    "robustness total --m 4 --samples 1000000 --seed 42",
    "simulate --beta0 0.8,-0.4,0.3 --n 1000 --m 4 --seed 11 --reps 500",
    "simulate --beta0 0.05,-0.03,0.04 --n 100000 --m 2 --backend bell --seed 3 --reps 50 --csv {csv}",
]


def test_only_the_bell_fit_loads_scipy():
    # A fresh interpreter: importing hamest and every README command but the
    # Bell one run without scipy; the first Bell fit, here of one rep of the
    # README Bell command, imports scipy.optimize.
    bell = "simulate --beta0 0.05,-0.03,0.04 --n 100000 --m 2 --backend bell --seed 3 --reps 1"
    script = f"""
import contextlib, io, sys
import hamest, hamest.cli
hamest.g0()
for line in {README_COMMANDS[:-1]!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert hamest.cli.main(line.split()) == 0, line
print("scipy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    assert hamest.cli.main({bell!r}.split()) == 0
print("scipy.optimize" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_module_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_shared_parser_gives_fresh_process_output(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    # A call that argparse rejects and one that fails validation leave the
    # shared parser as it was.
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["qfim", "--alpha", "1,2", "--t", "1"])
    assert excinfo.value.code == 2
    assert "argument --alpha" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "qfim", "--alpha", "0.8,-0.4,0.3", "--t", "2.0", "--weight", "1.5")
    assert (code, out) == (2, "")
    assert err.startswith("error: weight x must lie in [0, 1]")
    for line in README_COMMANDS:
        argv = line.format(csv=tmp_path / "in_process.csv").split()
        code, out, err = run_cli(capsys, *argv)
        fresh = line.format(csv=tmp_path / "fresh.csv").split()
        proc = subprocess.run(
            [sys.executable, "-m", "hamest", *fresh], capture_output=True, text=True, env=_module_env(), timeout=120
        )
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), line
    assert (tmp_path / "in_process.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["qfim", "--alpha", "0.8,-0.4,0.3", "--t", "2.0"],
        ["variance-curve", "--alpha", "0.6,0,0.8", "--n", "100", "--t-start", "0.1", "--t-stop", "6.0",
         "--points", "5"],
        ["schedule", "--v0", "1", "--n", "1000", "--m", "2"],
        ["robustness", "single", "--grid", "0.1:0.3:0.1"],
    ],
)
def test_every_command_validates_threads(capsys, argv):
    code, out, err = run_cli(capsys, "--threads", "0", *argv)
    assert (code, out) == (2, "")
    assert err == "error: thread count must be >= 1\n"
