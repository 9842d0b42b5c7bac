"""The benchmark workloads.

A workload is a closed loop: one caller, one call at a time, each call
waiting for the previous one. Calls are grouped into passes, a fixed
sequence of call kinds whose inputs are derived from (seed, pass, position),
so every seed gives the same amount of work per pass and any pass can be
rebuilt on its own. The library only ever sees the derived inputs.

Each workload provides:
  calls(p)          the calls of pass p
  execute(call)     the timed call into hamest
  digest(result)    bytes identifying the output, for rerun comparisons
  check(call, res)  the untimed check against an independent reference
  reruns(call)      extra executions whose output must equal the original
and names the traced spans it must exercise (`exercises`).
"""

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import oracles


def derived_seed(seed: int, *path: int) -> int:
    """A 31-bit seed derived from the benchmark seed and a call's position."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


@dataclass
class Call:
    kind: str
    items: int
    args: object


@dataclass
class Outcome:
    """Result of checking one call.

    failed: items of the call that missed a check.
    errors: failures that make the run incorrect.
    misses: items that missed only an accuracy bound of a workload with a
        recorded defect; they count in failed but not in errors.
    pool: (group, sum, count) that the runner adds up over a phase and hands
        to the workload's check_pool, for checks too weak on one call.
    """

    failed: int = 0
    errors: list = field(default_factory=list)
    misses: int = 0
    pool: tuple | None = None  # (group, sum, count) for a run-level check


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


class CliWorkload:
    """Workloads that run README commands through hamest.cli.main in-process."""

    setup_imports = "import hamest, hamest.cli"
    known_defect = None

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self):
        import hamest.cli

        self._cli = hamest.cli

    def execute(self, call: Call) -> CliResult:
        return self._run(call.args)

    def _run(self, argv) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self._cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback from the real command
                code = 1
                err.write(f"{type(exc).__name__}: {exc}")
        return CliResult(code, out.getvalue(), err.getvalue())

    def digest(self, result: CliResult) -> str:
        return hashlib.sha256(f"{result.code}\n{result.stdout}".encode()).hexdigest()

    def output_bytes(self, result: CliResult) -> int:
        return len(result.stdout.encode())

    def t_evaluations(self, call):
        return 0, 0

    def reruns(self, call: Call):
        """The same command again, with --threads 1 and with --threads 2."""
        return [
            (f"--threads {w}", lambda w=w: self._run(["--threads", str(w), *call.args]))
            for w in (1, 2)
        ]

    def check(self, call: Call, result: CliResult) -> Outcome:
        if result.code != 0:
            return Outcome(call.items, [f"{call.kind}: exit code {result.code}: {result.stderr.strip()[-200:]}"])
        try:
            return self.check_output(call, result.stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return Outcome(call.items, [f"{call.kind}: unreadable output: {type(exc).__name__}: {exc}"])


class McRobustness(CliWorkload):
    name = "mc-robustness"
    item = "Monte Carlo sample"
    why = (
        "README `robustness total` for m = 2, 3, 4: the per-sample Python loop and "
        "KeyedStream resets of robustness_mc (ROADMAP open item 3)"
    )
    # The library minimum of 10000 samples per call gives the most calls,
    # hence the steadiest median per kind: about 120 in a 20 s run.
    samples = 10000
    tail_pct = 75.0
    exercises = (
        "cli.main",
        "robustness.robustness_mc",
        "util.KeyedStream.standard_normal",
        "robustness.deviation_params",
        "adaptive.g0",
    )

    def calls(self, p):
        return [
            Call(
                f"m={m}",
                self.samples,
                ["robustness", "total", "--m", str(m), "--samples", str(self.samples),
                 "--seed", str(derived_seed(self.seed, p, m))],
            )
            for m in (2, 3, 4)
        ]

    def check_output(self, call, stdout):
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["statistic", "value"]:
            raise ValueError(f"unexpected header {rows[0]}")
        stats = {k: float(v) for k, v in rows[1:]}
        errors = []
        error = self.check_pool(call.kind, stats["mean"], call.items)
        if error:
            errors.append(error)
        deciles = [stats[f"decile_{d}"] for d in range(10, 100, 10)]
        if not 0.0 <= stats["p_below_one"] <= 1.0 or deciles != sorted(deciles):
            errors.append(f"{call.kind}: p_below_one or deciles out of order")
        pool = (call.kind, stats["mean"] * call.items, call.items)
        return Outcome(call.items if errors else 0, errors, pool=pool)

    def check_pool(self, group, mean, count):
        """The mean of `count` samples of kind `group` ("m=3") against the
        exact mean, within MC_SIGMAS standard errors. Pooled over a run the
        check resolves a bias of about 0.3 %; one call only about 2 %."""
        exact, second = oracles.penalty_moments(int(group[2:]))
        se = math.sqrt((second - exact * exact) / count)
        if abs(mean - exact) <= oracles.MC_SIGMAS * se:
            return None
        return (
            f"{group}: mean {mean!r} of {count} samples is {abs(mean - exact) / se:.1f} "
            f"standard errors from the exact {exact!r}"
        )


class Simulate(CliWorkload):
    """A README `simulate` command; one item is one rep."""

    def __init__(self, seed, beta, n, m, reps, variants):
        super().__init__(seed)
        self.beta = np.array(beta)
        self.n, self.m, self.reps = n, m, reps
        self.variants = variants  # per pass: (kind, extra flags)

    def calls(self, p):
        base = ["simulate", "--beta0", ",".join(repr(float(b)) for b in self.beta), "--n", str(self.n),
                "--m", str(self.m)]
        return [
            Call(kind, self.reps, [*base, *flags, "--reps", str(self.reps),
                                   "--seed", str(derived_seed(self.seed, p, i))])
            for i, (kind, flags) in enumerate(self.variants)
        ]

    def check_output(self, call, stdout):
        doc = json.loads(stdout)
        rows = doc["rows"]
        planned = oracles.planned_v_m(self.beta, self.n, self.m)
        errors = []
        if len(rows) != self.reps:
            errors.append(f"{call.kind}: {len(rows)} rows for {self.reps} reps")
        failed = misses = 0
        for row in rows:
            if not math.isclose(row["planned_v_m"], planned, rel_tol=oracles.PLANNED_RTOL):
                errors.append(f"{call.kind}: planned_v_m {row['planned_v_m']!r}, expected {planned!r}")
                break
            err = row["realized_sq_error"]
            if row["aborted"] or err > oracles.SIM_ERROR_MULTIPLE * planned:
                failed += 1
                misses += 1
            elif len(row["iterations"]) != self.m or not math.isfinite(err):
                failed += 1
                errors.append(f"{call.kind}: rep {row['rep']} has an incomplete trace")
        mean = float(np.mean([row["realized_sq_error"] for row in rows]))
        if not math.isclose(doc["summary"]["mean_sq_error"], mean, rel_tol=1e-12):
            errors.append(f"{call.kind}: summary mean_sq_error disagrees with its rows")
        if misses and self.known_defect is None:
            errors.append(
                f"{call.kind}: {misses} reps aborted or above "
                f"{oracles.SIM_ERROR_MULTIPLE:g} x planned V_m"
            )
        if errors and not failed:
            failed = call.items
        return Outcome(failed, errors, misses if self.known_defect else 0)


class SimGaussian(Simulate):
    name = "sim-gaussian"
    item = "rep"
    why = (
        "README Gaussian `simulate` (500 reps), plain and --refine: simulator steps, "
        "iteration_covariance, per-rep sample_stream and 1.4 MB of JSON per call"
    )
    # Two plain calls per --refine call, so the median is a plain call and
    # p75 a --refine call; with equal shares the median would fall in the
    # gap between the two latency clusters.
    tail_pct = 75.0
    exercises = (
        "cli.main",
        "simulator.run_repetitions",
        "simulator.run_adaptive_experiment",
        "simulator.estimate_step_gaussian",
        "adaptive.iteration_covariance",
        "adaptive.optimal_time",
        "util.sample_stream",
    )

    def __init__(self, seed):
        super().__init__(seed, (0.8, -0.4, 0.3), 1000, 4, 500,
                         [("plain", []), ("refine", ["--refine"]), ("plain", [])])


class BellSimulate(Simulate):
    """The README Bell command; its time is the L-BFGS fit of each step."""

    item = "rep"
    # sim-bell makes about 25 calls of 0.8 s in a 20 s run, fewer under
    # load; p75 would need 40 for ten calls beyond it.
    tail_pct = 50.0
    exercises = (
        "cli.main",
        "simulator.run_adaptive_experiment",
        "simulator.sample_counts",
        "simulator.bell_probabilities",
        "scipy.optimize.minimize",
        "core.evolve_unitary",
        "util.sample_stream",
    )

    def __init__(self, seed, m):
        super().__init__(seed, (0.05, -0.03, 0.04), 100000, m, 50,
                         [("bell", ["--backend", "bell"])])


class SimBell(BellSimulate):
    name = "sim-bell"
    why = (
        "README Bell example unchanged (m=2, 50 reps): the L-BFGS fit, about 60 likelihood "
        "evaluations per fit (ROADMAP open item 2); its reps diverge today"
    )
    known_defect = "Bell m >= 2 diverges from the planned V_m (ROADMAP open item 2)"

    def __init__(self, seed):
        super().__init__(seed, 2)


class BellFit(BellSimulate):
    name = "bell-fit"
    why = (
        "README Bell command at m=1, where every rep meets its plan: the L-BFGS fit and its "
        "likelihood evaluations (ROADMAP open item 2)"
    )

    def __init__(self, seed):
        super().__init__(seed, 1)


@dataclass
class Point:
    model: str
    alpha: np.ndarray
    t: float
    curve: bool


@dataclass
class InfoResult:
    qfim: np.ndarray
    cov: np.ndarray
    var: np.ndarray
    curve: list


class InfoSweep:
    """README library example at random working points, one item per point."""

    name = "info-sweep"
    item = "working point"
    why = (
        "the only workload in qfim and variance: single-t queries share no work, "
        "60-point variance curves share one working point (ROADMAP open item 4)"
    )
    setup_imports = "import hamest"
    known_defect = None
    models = ("pauli", "btp", "custom")
    points_per_pass = 48
    # Every 16th point also runs a curve; curves then take about half of the
    # time and the model of the curve point rotates through all three.
    curve_every = 16
    n = 1000
    curve_n = 100
    grid = np.linspace(0.1, 6.0, 60)
    # About 10000 points in a 20 s run, 6 % of them curves.
    tail_pct = 99.0
    exercises = (
        "qfim.qfim_entangled",
        "qfim.generator",
        "qfim.covariance_from_qfim",
        "core.model_evaluate",
        "core.spectral_decompose",
        "core.central_difference_jacobian",
        "variance.spectral_sensitivities",
        "variance.estimator_variances",
        "variance.variance_curve",
    )

    def __init__(self, seed):
        self.seed = seed

    def prepare(self):
        from hamest import core, qfim, variance

        self._qfim, self._variance = qfim, variance
        self._models = {
            "pauli": core.pauli_model(),
            "btp": core.btp_model(),
            "custom": core.custom_model(oracles.custom_map, name="custom"),
        }

    def calls(self, p):
        return [self._point(p, i) for i in range(self.points_per_pass)]

    def _point(self, p, i):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, p, i]))
        model = self.models[i % len(self.models)]
        while True:
            if model == "btp":
                alpha = np.array([rng.uniform(0.3, 2.0), rng.uniform(-1.2, 1.2), rng.uniform(-math.pi, math.pi)])
            else:
                alpha = rng.uniform(-1.5, 1.5, size=3)
            if oracles.gap(model, alpha) >= 0.6:
                break
        # Phase gap * t in [0.4, 5.8] keeps t clear of the first pole at 2 pi.
        t = rng.uniform(0.4, 5.8) / oracles.gap(model, alpha)
        curve = i % self.curve_every == self.curve_every - 1
        return Call(f"{model}+curve" if curve else model, 1, Point(model, alpha, t, curve))

    def execute(self, call):
        pt = call.args
        model = self._models[pt.model]
        f = self._qfim.qfim_entangled(model, pt.alpha, pt.t)
        cov = self._qfim.covariance_from_qfim(f, self.n)
        var = self._variance.estimator_variances(model, pt.alpha, pt.t, self.n)
        rows = self._variance.variance_curve(model, pt.alpha, self.grid, self.curve_n) if pt.curve else []
        return InfoResult(f.m, cov.m, var, rows)

    def t_evaluations(self, call):
        """(working points, time points) the call evaluates; a curve shares
        one working point across its whole grid."""
        return 1, 1 + (len(self.grid) if call.args.curve else 0)

    def digest(self, result):
        h = hashlib.sha256()
        for arr in (result.qfim, result.cov, result.var):
            h.update(np.ascontiguousarray(arr).tobytes())
        for r in result.curve:
            h.update(np.array([r.t, r.v1, r.v2, r.v3, r.envelope, r.infimum]).tobytes())
            h.update(r.flag.encode())
        return h.hexdigest()

    def output_bytes(self, result):
        return 0

    def reruns(self, call):
        return [("rerun", lambda: self.execute(call))]

    def check(self, call, res):
        pt = call.args
        errors = []
        ref = oracles.qfim_reference(pt.model, pt.alpha, pt.t)
        if not _close(res.qfim, ref, oracles.QFIM_RTOL):
            errors.append(f"{pt.model}: qfim_entangled differs from the closed form")
        cov_ref = np.linalg.inv(ref) / self.n
        tol = oracles.INVERSE_RTOL * np.linalg.cond(ref)
        if not _close(res.cov, cov_ref, tol):
            errors.append(f"{pt.model}: covariance_from_qfim differs from the inverse closed form")
        if not _close(res.var, np.diag(cov_ref), tol, elementwise=True):
            errors.append(f"{pt.model}: estimator_variances differ from diag of the inverse closed form")
        if pt.curve:
            gap = oracles.gap(pt.model, pt.alpha)
            for r in res.curve:
                k = round(r.t * gap / (2.0 * math.pi))
                near_pole = k >= 1 and abs(r.t - 2.0 * math.pi * k / gap) < 1e-6
                if r.flag == "pole":
                    if not near_pole:
                        errors.append(f"{pt.model}: curve row t={r.t!r} flagged pole off a pole")
                    continue
                f_t = oracles.qfim_reference(pt.model, pt.alpha, r.t)
                v_ref = np.diag(np.linalg.inv(f_t)) / self.curve_n
                if not _close(np.array([r.v1, r.v2, r.v3]), v_ref,
                              oracles.INVERSE_RTOL * np.linalg.cond(f_t), elementwise=True):
                    errors.append(f"{pt.model}: variance_curve row t={r.t!r} differs from the closed form")
        return Outcome(call.items if errors else 0, errors)


def _close(x, ref, rtol, elementwise=False):
    x = np.asarray(x, dtype=float)
    if x.shape != ref.shape or not np.all(np.isfinite(x)):
        return False
    if elementwise:
        return bool(np.all(np.abs(x - ref) <= rtol * np.abs(ref)))
    return bool(np.max(np.abs(x - ref)) <= rtol * np.max(np.abs(ref)))


WORKLOADS = {w.name: w for w in (McRobustness, SimGaussian, BellFit, InfoSweep, SimBell)}
