#!/usr/bin/env python3
"""hamest benchmark.

One workload, in this process:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, each in a fresh process, with a table of all metrics:

    python3 bench/run.py --all --seed N --seconds S [--trace 0|1]

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
measures half its time untraced and half traced, and reports the per-layer
metrics and the tracing overhead. The last line of stdout is the result
{"correct", "attempted", "failed", "metrics"}; the line before it is a
report with the environment and the details behind the metrics. See
bench/README.md for the workloads, metrics and predictions.
"""

import os
import sys

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# One caller issuing one call at a time: BLAS is pinned to one thread before
# numpy loads, here and in every child process (they inherit the variables).
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
# A CLI call's thread count comes from its own argv, never the environment.
os.environ.pop("HAMEST_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPAN_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 5
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10
MAX_ERROR_MESSAGES = 20

# End-to-end metrics of the untraced run. Their times are scaled to a
# machine of fixed speed (see reference_seconds): on a shared host the same
# call runs anywhere from 1.0x to 2x its fastest time, in stretches of
# seconds to minutes that no statistic of a single run can see past.
END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Reported with them but not gated: the per-call latency tail and the
# failure share, which is zero on every workload but sim-bell, and the
# unscaled times.

# The reference loop takes REFERENCE_S on this benchmark's reference
# machine (2-vCPU KVM guest, Intel Xeon, numpy 2.4.6); measured times are
# reported as if every reference loop had taken exactly that long.
REFERENCE_S = 0.008
# A reference loop closes each stretch of at least this much call time,
# and every pass; it costs about a tenth of the timed phase.
REFERENCE_EVERY_S = 0.08

# Per-layer metrics of the traced run; counts and times are per item.
LAYER_CALLS = (
    "util.KeyedStream.standard_normal",
    "simulator.estimate_step_gaussian",
    "adaptive.iteration_covariance",
    "util.sample_stream",
    "simulator.sample_counts",
    "core.evolve_unitary",
    "core.model_evaluate",
    "core.spectral_decompose",
    "qfim.generator",
    "variance.spectral_sensitivities",
)
LAYER_SELF = (
    "robustness.robustness_mc",
    "simulator.run_adaptive_experiment",
    "cli.main",
    "scipy.optimize.minimize",
    "qfim.qfim_entangled",
    "variance.estimator_variances",
    "variance.variance_curve",
)
PER_LAYER = {
    **{f"{n}.calls": "calls/item" for n in LAYER_CALLS},
    **{f"{n}.self_s": "s/item" for n in LAYER_SELF},
    "robustness.us_per_sample": "us",
    "simulator.bell_probabilities.calls_per_fit": "calls/fit",
    "scipy.optimize.minimize.nit_mean": "count",
    "cli.stdout_bytes": "bytes/item",
    "info.curve_time_share": "fraction",
    "trace.spans": "spans/item",
    "trace.span_errors": "errors/item",
    "trace.wall_s_untraced": "s",
    "trace.wall_s_traced": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _reference_work():
    """Fixed work that does not touch hamest, in the proportions the
    workloads spend their time: small numpy draws and eigensolves, Python
    float and dict code, and JSON emission."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    rows = []
    for i in range(300):
        x = rng.standard_normal(3)
        w, _ = np.linalg.eigh(np.outer(x, x) + np.eye(3))
        acc += float(w[-1]) * 1e-3 + math.sin(acc)
        rows.append({"i": i, "x": [float(v) for v in x], "acc": acc})
    return json.dumps(rows)


def reference_seconds():
    """Wall time of one reference loop, right now.

    A call's time divided by the mean of the reference loops just before and
    just after it moves little when the host slows down: over repeated runs
    whose unscaled pass times ranged over 30-45 %, the scaled ones ranged
    over 7 %.
    """
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


class Phase:
    """Everything measured and checked while one stretch of passes runs."""

    def __init__(self):
        self.latencies = []  # seconds per call, as measured
        self.scaled = []  # the same, scaled to the reference machine
        self.references = []
        self.kinds = []
        self.pass_times = []  # unscaled
        self.items = 0
        self.measured = 0.0
        self.digests = {}  # (pass, position) -> digest
        self.failed = {}  # (pass, position) -> failed items
        self.errors = []
        self.error_count = 0
        self.misses = 0
        self.stdout_bytes = 0
        self.t_points = 0
        self.curve_t_points = 0
        self.pools = {}  # group -> [sum, count]

    def fail(self, key, items, errors):
        self.failed[key] = max(self.failed.get(key, 0), items)
        self.error_count += len(errors)
        room = MAX_ERROR_MESSAGES - len(self.errors)
        self.errors.extend(errors[: max(room, 0)])

    @property
    def failed_items(self):
        return sum(self.failed.values())

    def reference(self):
        dt = reference_seconds()
        self.references.append(dt)
        self.measured += dt
        return dt

    def pass_time(self, pass_calls):
        """One pass on the reference machine: the median scaled time of
        each call's kind, summed over the pass."""
        by_kind = {}
        for kind, dt in zip(self.kinds, self.scaled):
            by_kind.setdefault(kind, []).append(dt)
        return sum(statistics.median(by_kind[c.kind]) for c in pass_calls)


def run_phase(wl, seconds, tracer=None, between_passes=None):
    """Run whole passes until calls and reference loops have taken `seconds`.

    Only the calls and the reference loops between them are timed; building
    inputs, checking outputs and `between_passes(measured)` happen between
    them, off the clock.
    """
    from workloads import Outcome

    phase = Phase()
    p = 0
    while phase.measured < seconds or p == 0:
        pass_time = 0.0
        before = phase.reference()
        open_calls = []  # calls waiting for the reference loop after them
        calls = wl.calls(p)
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = wl.execute(call)
                else:
                    result = tracer.span(f"bench.{wl.name}", wl.execute, call)
            except Exception as exc:  # the library raised: a failed call, not a crashed run
                result, raised = None, f"{call.kind}: raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            pass_time += dt
            phase.measured += dt
            phase.latencies.append(dt)
            phase.kinds.append(call.kind)
            open_calls.append(dt)
            if i == len(calls) - 1 or sum(open_calls) >= REFERENCE_EVERY_S:
                after = phase.reference()
                scale = 2.0 * REFERENCE_S / (before + after)
                phase.scaled.extend(d * scale for d in open_calls)
                open_calls, before = [], after
            phase.items += call.items
            points, t_points = wl.t_evaluations(call)
            phase.t_points += t_points
            phase.curve_t_points += t_points - points
            if result is None:
                outcome = Outcome(call.items, [raised])
            else:
                phase.digests[(p, i)] = wl.digest(result)
                phase.stdout_bytes += wl.output_bytes(result)
                outcome = wl.check(call, result)
            phase.misses += outcome.misses
            if outcome.failed or outcome.errors:
                phase.fail((p, i), outcome.failed, outcome.errors)
            if outcome.pool:
                group, total, count = outcome.pool
                acc = phase.pools.setdefault(group, [0.0, 0])
                acc[0] += total
                acc[1] += count
        phase.pass_times.append(pass_time)
        p += 1
        if between_passes is not None:
            between_passes(phase.measured)
    for group, (total, count) in phase.pools.items():
        error = wl.check_pool(group, total / count, count)
        if error:
            messages = [error]
            for q in range(p):
                for i, call in enumerate(wl.calls(q)):
                    if call.kind == group:
                        phase.fail((q, i), call.items, messages)
                        messages = []
    return phase


def check_reruns(wl, phase):
    """Rerun the first call of each kind in pass 0; outputs must match."""
    checked = []
    seen = set()
    for i, call in enumerate(wl.calls(0)):
        if call.kind in seen or (0, i) not in phase.digests:
            continue
        seen.add(call.kind)
        for label, thunk in wl.reruns(call):
            try:
                same = wl.digest(thunk()) == phase.digests[(0, i)]
            except Exception as exc:  # a rerun that raises is a mismatch
                same = False
                label = f"{label} raised {type(exc).__name__}"
            checked.append({"call": call.kind, "variant": label, "identical": same})
            if not same:
                phase.fail((0, i), call.items, [f"{call.kind}: output of {label} differs"])
    return checked


class SetupTimer:
    """Set-up time in fresh interpreters: import hamest (and the CLI for CLI
    workloads) plus the first g0(), scaled to the reference machine by the
    reference loops just before and after each child.

    The children run one at a time between passes, spread evenly over the
    timed phase, so their median samples the whole stretch of the run rather
    than its first seconds.
    """

    def __init__(self, wl, seconds):
        self.script = "\n".join(
            [
                "import sys, time",
                "t0 = time.perf_counter()",
                f"sys.path.insert(0, {str(SRC)!r})",
                wl.setup_imports,
                "hamest.g0()",
                "print(repr(time.perf_counter() - t0))",
            ]
        )
        self.every = seconds / SETUP_REPEATS
        self.times = []
        self.unscaled = []

    def between_passes(self, measured):
        if len(self.times) < SETUP_REPEATS and measured >= len(self.times) * self.every:
            self._measure()

    def finish(self):
        while len(self.times) < SETUP_REPEATS:
            self._measure()
        return self.times

    def _measure(self):
        before = reference_seconds()
        proc = subprocess.run(
            [sys.executable, "-c", self.script], capture_output=True, text=True, cwd=ROOT, timeout=120
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        after = reference_seconds()
        dt = float(proc.stdout.strip().splitlines()[-1])
        self.unscaled.append(dt)
        self.times.append(dt * 2.0 * REFERENCE_S / (before + after))


def tail_percentile(n_calls, preferred):
    """The workload's fixed tail percentile, or the next lower rung of the
    ladder that still leaves at least ten calls beyond it."""
    for pct in TAIL_LADDER:
        if pct <= preferred and n_calls * (1.0 - pct / 100.0) >= MIN_BEYOND_TAIL:
            return pct
    return TAIL_LADDER[-1]


def environment():
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def end_to_end_metrics(wl, phase, setup, rss_mb):
    lat = np.array(phase.scaled)
    pct = tail_percentile(lat.size, wl.tail_pct)
    pass_calls = wl.calls(0)
    wall = phase.pass_time(pass_calls)
    items = sum(c.items for c in pass_calls)
    values = {
        "wall_s": wall,
        "items_per_s": items / wall,
        "call_p50_ms": 1e3 * float(np.percentile(lat, 50.0)),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup.times),
    }
    details = {
        "call_tail_ms": 1e3 * float(np.percentile(lat, pct)),
        "tail_percentile": pct,
        "calls": int(lat.size),
        "passes": len(phase.pass_times),
        "reference_s_median": statistics.median(phase.references),
        "unscaled": {
            "wall_s_median": statistics.median(phase.pass_times),
            "items_per_s_mean": phase.items / sum(phase.latencies),
            "call_p50_ms": 1e3 * statistics.median(phase.latencies),
            "setup_s": statistics.median(setup.unscaled),
        },
        "setup_s_samples": setup.times,
    }
    return values, details


def layer_metrics(wl, untraced, traced, tracer):
    summary = tracer.summary()

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    items = traced.items
    values = {f"{n}.calls": get(n, "calls") / items for n in LAYER_CALLS}
    values.update({f"{n}.self_s": get(n, "self_s") / items for n in LAYER_SELF})
    mc_calls = get("robustness.robustness_mc", "calls")
    values["robustness.us_per_sample"] = 1e6 * get("robustness.robustness_mc", "incl_s") / items if mc_calls else 0.0
    fits = get("simulator.sample_counts", "calls")
    values["simulator.bell_probabilities.calls_per_fit"] = get("simulator.bell_probabilities", "calls") / fits if fits else 0.0
    minimize_calls = get("scipy.optimize.minimize", "calls")
    values["scipy.optimize.minimize.nit_mean"] = tracer.minimize_nit / minimize_calls if minimize_calls else 0.0
    values["cli.stdout_bytes"] = traced.stdout_bytes / items
    values["info.curve_time_share"] = get("variance.variance_curve", "incl_s") / traced.measured
    values["trace.spans"] = tracer.span_count / items
    values["trace.span_errors"] = sum(s["errors"] for s in summary.values()) / items
    values["trace.wall_s_untraced"] = untraced.pass_time(wl.calls(0))
    values["trace.wall_s_traced"] = traced.pass_time(wl.calls(0))
    values["trace.overhead_s"] = values["trace.wall_s_traced"] - values["trace.wall_s_untraced"]
    return values, summary


def run_workload(args):
    if not (SRC / "hamest" / "__init__.py").is_file():
        raise BenchError(f"no hamest sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)

    import hamest

    if Path(hamest.__file__).resolve().parent != SRC / "hamest":
        raise BenchError(f"imported hamest from {hamest.__file__}, not from {SRC}")
    wl.prepare()
    for call in wl.calls(0):  # warm-up: lazy imports and first-call costs
        wl.execute(call)

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "item": wl.item,
        "why": wl.why,
        "known_defect": wl.known_defect,
        "environment": environment(),
    }
    if not args.trace:
        setup = SetupTimer(wl, args.seconds)
        phase = run_phase(wl, args.seconds, between_passes=setup.between_passes)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup.finish()
        phases = [phase]
        report["reruns"] = check_reruns(wl, phase)
        metrics, details = end_to_end_metrics(wl, phase, setup, rss_mb)
        report.update(details)
        units = END_TO_END
    else:
        from tracing import Tracer

        untraced = run_phase(wl, args.seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        try:
            missed = tracer.unpatched_bindings()
            traced = run_phase(wl, args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        report["reruns"] = check_reruns(wl, untraced)
        for key, digest in traced.digests.items():
            if key in untraced.digests and untraced.digests[key] != digest:
                traced.fail(key, wl.calls(key[0])[key[1]].items, [f"traced output of call {key} differs from untraced"])
        metrics, summary = layer_metrics(wl, untraced, traced, tracer)
        silent = [n for n in wl.exercises if summary.get(n, {}).get("calls", 0) == 0]
        self_check = missed + [f"{n} never called" for n in silent]
        if self_check:
            traced.fail(("self-check",), 0, [f"trace self-check: {m}" for m in self_check])
        spans_file = SPAN_DIR / f"spans-{wl.name}-seed{args.seed}.npz"
        tracer.write(spans_file)
        report.update(
            {
                "compared_calls": sum(k in untraced.digests for k in traced.digests),
                "spans_file": str(spans_file.relative_to(ROOT)),
                "layers": summary,
            }
        )
        units = PER_LAYER

    attempted = sum(ph.items for ph in phases)
    failed = sum(ph.failed_items for ph in phases)
    errors = [e for ph in phases for e in ph.errors]
    error_count = sum(ph.error_count for ph in phases)
    t_points = sum(ph.t_points for ph in phases)
    if t_points:
        report["curve_t_share"] = sum(ph.curve_t_points for ph in phases) / t_points
    report.update(
        {
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "known_defect_misses": sum(ph.misses for ph in phases),
            "error_count": error_count,
            "errors": errors,
        }
    )
    result = {
        "correct": error_count == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own fresh process, then one table."""
    from workloads import WORKLOADS

    results, reports = {}, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            raise BenchError(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-1000:]}")
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1])
        reports[name] = json.loads(lines[-2])["report"]

    names = list(results)
    units = PER_LAYER if args.trace else END_TO_END
    width = max(len(n) for n in units) + 14
    print(f"{'metric':<{width}}" + "".join(f"{n:>16}" for n in names))
    for metric, unit in units.items():
        cells = "".join(f"{results[n]['metrics'][metric]['value']:>16.6g}" for n in names)
        print(f"{metric + ' [' + unit + ']':<{width}}{cells}")
    rows = []
    if not args.trace:
        rows += [("call_tail_ms [ms]", lambda n: f"{reports[n]['call_tail_ms']:.6g}"),
                 ("tail_percentile", lambda n: f"{reports[n]['tail_percentile']:g}"),
                 ("calls", lambda n: str(reports[n]["calls"]))]
    rows += [("fail_frac", lambda n: f"{reports[n]['fail_frac']:.4g}"),
             ("attempted", lambda n: str(results[n]["attempted"])),
             ("correct", lambda n: str(results[n]["correct"]))]
    for label, cell in rows:
        print(f"{label:<{width}}" + "".join(f"{cell(n):>16}" for n in names))
    print(f"environment: {json.dumps(reports[names[0]]['environment'])}")
    print(json.dumps(results))


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0.0:
        parser.error("need --seed >= 0 and --seconds > 0")
    try:
        if args.all:
            run_all(args)
        else:
            run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
