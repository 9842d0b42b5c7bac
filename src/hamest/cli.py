"""Command-line interface.

Subcommands map one-to-one onto the library layers: `qfim` and
`variance-curve` evaluate the single-shot information quantities, `schedule`
plans the adaptive iteration sequence, `robustness` quantifies control-error
penalties (a `single` deviation grid or a `total` Monte Carlo), and
`simulate` runs the full protocol.

Output conventions: JSON documents follow one record shape (schema_version,
command, params, rows, plus command-specific sections) in the layout of
json.dumps(indent=2) and serialize floats with repr, the shortest round-trip
form. `simulate` writes its rows straight from the trace's columns into one
json.dumps template of a row, the same bytes json.dumps gives for the rows
as dicts. CSV uses a header row, comma separators, LF line endings, UTF-8.
Vector-valued flags take comma-separated components (`--alpha 0.1,0.2,0.3`)
and deviation grids take START:STOP:STEP. A vector whose first component is
negative must follow an `=` (`--alpha=-0.8,0.4,0.3`): argparse reads a
separate `-0.8,...` as a flag.
Outputs contain no timestamps, so a rerun with the same arguments is
byte-identical. Stochastic subcommands require an explicit --seed. Exit
codes: 0 on success, 2 on domain or argument validation errors, 3 on
internal invariant failures.
"""

import argparse
import contextlib
import csv
import functools
import json
import os
import sys

import numpy as np

from . import adaptive, robustness, variance
from .core import get_model
from .errors import DomainError, EstimationError, SingularQfim
from .qfim import _weighted_information, covariance_from_qfim, generator, scalar_bound
from .simulator import ExperimentConfig, run_repetitions

SCHEMA_VERSION = 1
# Largest time or deviation grid a command evaluates: 8 MB per float column.
MAX_GRID_POINTS = 10**6
_VECTOR_HELP = "comma-separated components; a negative first one needs '=', as in --{}=-0.8,0.4,0.3"
_NOT_FINITE = "result is not finite and cannot be written as JSON"
# Placeholders of the simulate writer: a per-rep number, and the list of rows.
_LEAF, _ROWS = "<leaf>", "<rows>"


def _json_text(doc: dict) -> str:
    """The output document as JSON text; JSON has no non-finite numbers."""
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(doc)
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise DomainError(_NOT_FINITE) from None


def _csv_writer(stream):
    return csv.writer(stream, lineterminator="\n")


def _fmt(x: float) -> str:
    return repr(float(x))


def _triple(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated values, e.g. 0.1,0.2,0.3")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a numeric triple: {text!r}")


def _grid_spec(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected START:STOP:STEP")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a numeric range: {text!r}")
    if not (step > 0.0 and start <= stop):
        raise argparse.ArgumentTypeError("need STOP >= START and STEP > 0")
    return start, stop, step


def _check_grid_size(points) -> None:
    if not points <= MAX_GRID_POINTS:
        size = "a count past the float range" if points > sys.float_info.max else f"{points:.6g}"
        raise DomainError(f"at most {MAX_GRID_POINTS} grid points, got {size}")


def _check_threads(args) -> None:
    """Validate --threads for every command, kept for compatibility: commands run serially."""
    if args.threads is not None and args.threads < 1:
        raise DomainError("thread count must be >= 1")


def _open_out(path):
    if path:
        return open(path, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def _cmd_qfim(args) -> int:
    model = get_model(args.model)
    # One generator build gives both the QFIM and the commutativity residual.
    f, residual = _weighted_information(generator(model, args.alpha, args.t), args.weight)
    cov = bound = singular_reason = None
    try:
        cov = covariance_from_qfim(f, 1).m
        bound = scalar_bound(np.eye(3), f, 1)
    except SingularQfim as exc:
        singular_reason = str(exc)
    if args.format == "csv":
        w = _csv_writer(sys.stdout)
        w.writerow(["section", "i", "c1", "c2", "c3"])
        for i in range(3):
            w.writerow(["qfim", i + 1] + [_fmt(v) for v in f.m[i]])
        if cov is not None:
            for i in range(3):
                w.writerow(["covariance", i + 1] + [_fmt(v) for v in cov[i]])
            w.writerow(["scalar_bound", 1, _fmt(bound), "", ""])
    else:
        doc = {
            "command": "qfim",
            "params": {
                "model": args.model,
                "alpha": list(args.alpha),
                "t": args.t,
                "weight": args.weight,
            },
            "rows": f.m.tolist(),
            "covariance": None if cov is None else cov.tolist(),
            "scalar_bound": bound,
            "singular": singular_reason is not None,
            "commutativity_residual": residual,
        }
        sys.stdout.write(_json_text(doc))
    if singular_reason is not None:
        print(f"error: SingularQfim: {singular_reason}", file=sys.stderr)
        return 2
    return 0


def _cmd_variance_curve(args) -> int:
    model = get_model(args.model)
    if args.points < 2:
        raise DomainError("need at least 2 grid points")
    _check_grid_size(args.points)
    if not 0.0 < args.t_start < args.t_stop:
        raise DomainError("need 0 < t-start < t-stop")
    # An end at or near the float range overflows linspace's steps.
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(args.t_start, args.t_stop, args.points)
    if not np.all(np.isfinite(grid)):
        raise DomainError("the time grid leaves the float range")
    rows = variance.variance_curve(model, args.alpha, grid, args.n)
    with _open_out(args.out) as out:
        w = _csv_writer(out)
        w.writerow(["t", "v1", "v2", "v3", "envelope", "infimum", "flag"])
        for r in rows:
            w.writerow(
                [_fmt(r.t), _fmt(r.v1), _fmt(r.v2), _fmt(r.v3), _fmt(r.envelope), _fmt(r.infimum), r.flag]
            )
    return 0


def _cmd_schedule(args) -> int:
    sched = adaptive.plan_schedule(args.v0, args.n, target_v=args.target, target_m=args.m)
    doc = {
        "command": "schedule",
        "params": {"v0": args.v0, "n": args.n, "target": args.target, "m": args.m},
        "rows": [vars(r) for r in sched.records],
        "schedule": {name: value for name, value in vars(sched).items() if name != "records"},
    }
    sys.stdout.write(_json_text(doc))
    return 0


def _cmd_robustness_single(args) -> int:
    start, stop, step = args.grid
    _check_grid_size((stop + 0.5 * step - start) / step)
    grid = np.arange(start, stop + 0.5 * step, step)
    # Every row is computed first, so a grid point outside the domain writes nothing.
    rows = [[_fmt(d), _fmt(robustness.ratio_single(d)), _fmt(robustness.deviation_pdf(d))] for d in grid]
    with _open_out(args.out) as out:
        w = _csv_writer(out)
        w.writerow(["D", "R", "pdf"])
        w.writerows(rows)
    return 0


def _cmd_robustness_total(args) -> int:
    summary = robustness.robustness_mc(args.m, args.samples, args.seed)
    with _open_out(args.out) as out:
        w = _csv_writer(out)
        w.writerow(["statistic", "value"])
        w.writerow(["mean", _fmt(summary.mean)])
        w.writerow(["p_below_one", _fmt(summary.p_below_one)])
        for decile, value in zip(range(10, 100, 10), summary.deciles):
            w.writerow([f"decile_{decile}", _fmt(value)])
    return 0


def _per_rep(value, columns: list):
    """The row template's entry for one field. An array with the rep axis
    first becomes placeholders shaped like one rep's entry and appends its
    columns, one list of Python numbers per placeholder in placeholder order,
    to columns; any other value is shared by every rep and is its own entry."""
    if not isinstance(value, np.ndarray):
        return value
    if value.dtype.kind == "f" and not np.isfinite(value).all():
        raise DomainError(_NOT_FINITE)
    if value.ndim == 1:
        columns.append(value.tolist())
        return _LEAF
    columns.extend(value.T.tolist())
    return [_LEAF] * value.shape[1]


def _cmd_simulate(args) -> int:
    config = ExperimentConfig(
        beta_true=args.beta0,
        m=args.m,
        n=args.n,
        backend=args.backend,
        seed=args.seed,
        time_refinement=args.refine,
        extra_trials=args.extra_trials,
        beta0_bound=args.bound,
        beta0_guess=args.guess,
    )
    trace = run_repetitions(config, args.reps)
    with np.errstate(over="ignore"):
        mean_sq_error = float(np.mean(trace.realized_sq_error))
        ratio = float(mean_sq_error / trace.planned_v_m)
    # Every row has rep 0's layout: json.dumps writes it once, with a
    # placeholder at each per-rep number, and each rep fills the placeholders
    # from its own entries of the columns, in the same order.
    columns = []
    row = {
        "rep": _per_rep(np.arange(args.reps), columns),
        "beta_hat": _per_rep(trace.beta_hat, columns),
        "realized_sq_error": _per_rep(trace.realized_sq_error, columns),
        "planned_v_m": trace.planned_v_m,
        "aborted": False,  # a schema-1 field: a fit that does not converge ends the run
        "iterations": [
            {name: _per_rep(value, columns) for name, value in vars(it).items()} for it in trace.iterations
        ],
    }
    doc = {
        "command": "simulate",
        "params": vars(config),
        "seed": config.seed,
        "rows": [_ROWS, row, _ROWS],
        "summary": {
            "mean_sq_error": mean_sq_error,
            "planned_v_m": trace.planned_v_m,
            "ratio": ratio,
        },
    }
    head, middle, tail = _json_text(doc).split(json.dumps(_ROWS))
    separator = middle[: middle.index("{")]
    # %r writes a float with float.__repr__ and an int with int.__repr__, as json does.
    template = middle[len(separator) : -len(separator)].replace("%", "%%").replace(json.dumps(_LEAF), "%r")
    text = head + separator.join([template % values for values in zip(*columns)]) + tail
    # A rejected document leaves no CSV, and a closed stdout does not cost one.
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            w = _csv_writer(fh)
            w.writerow(["rep", "beta_hat_1", "beta_hat_2", "beta_hat_3", "realized_sq_error"])
            # rep, beta_hat and realized_sq_error are the first five columns; csv writes floats with repr.
            w.writerows(zip(*columns[:5]))
    sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The shared argument parser: built on the first call, then returned
    again, so each main call parses without rebuilding the tree."""
    parser = argparse.ArgumentParser(
        prog="hamest",
        description="Adaptive estimation of a qubit Hamiltonian's field components.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="thread count, validated (an integer >= 1) for compatibility; results "
        "and speed do not depend on it (default: 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qfim", help="quantum Fisher information at a working point")
    p.add_argument("--model", default="pauli", help="model name (pauli or btp)")
    p.add_argument("--alpha", type=_triple, required=True, metavar="A1,A2,A3", help=_VECTOR_HELP.format("alpha"))
    p.add_argument("--t", type=float, required=True, help="evolution time")
    p.add_argument(
        "--weight", type=float, default=0.5,
        help="initial-state weight x in [0, 1] (default: 0.5, the maximally entangled probe)",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_qfim)

    p = sub.add_parser("variance-curve", help="estimator variances on a time grid (CSV)")
    p.add_argument("--model", default="pauli")
    p.add_argument("--alpha", type=_triple, required=True, metavar="A1,A2,A3", help=_VECTOR_HELP.format("alpha"))
    p.add_argument("--n", type=int, required=True, help="trials per point")
    p.add_argument("--t-start", type=float, required=True)
    p.add_argument("--t-stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_variance_curve)

    p = sub.add_parser("schedule", help="plan the adaptive iteration schedule (JSON)")
    p.add_argument("--v0", type=float, required=True, help="initial variance scale")
    p.add_argument("--n", type=int, required=True, help="trials per iteration")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--target", type=float, default=None, help="precision goal")
    g.add_argument("--m", type=int, default=None, help="iteration count")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("robustness", help="control-error penalties (CSV)")
    rsub = p.add_subparsers(dest="mode", required=True)
    ps = rsub.add_parser("single", help="per-iteration penalty over a deviation grid")
    ps.add_argument("--grid", type=_grid_spec, required=True, metavar="START:STOP:STEP")
    ps.add_argument("--out", default=None, help="write CSV here instead of stdout")
    ps.set_defaults(func=_cmd_robustness_single)
    pt = rsub.add_parser("total", help="Monte Carlo of the whole-process penalty")
    pt.add_argument("--m", type=int, required=True, help="iteration count")
    pt.add_argument("--samples", type=int, required=True)
    pt.add_argument("--seed", type=int, required=True)
    pt.add_argument("--out", default=None, help="write CSV here instead of stdout")
    pt.set_defaults(func=_cmd_robustness_total)

    p = sub.add_parser("simulate", help="run the adaptive protocol end to end (JSON)")
    p.add_argument("--beta0", type=_triple, required=True, metavar="B1,B2,B3", help=_VECTOR_HELP.format("beta0"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--backend", choices=("gaussian", "bell"), default="gaussian")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--refine", action="store_true", help="re-derive times from fresh estimates")
    p.add_argument("--extra-trials", type=int, default=None)
    p.add_argument("--bound", type=float, default=None, help="prior bound on |beta0|")
    p.add_argument(
        "--guess", type=_triple, default=None, metavar="B1,B2,B3",
        help="prior field guess, " + _VECTOR_HELP.format("guess"),
    )
    p.add_argument("--csv", default=None, help="also write a per-rep summary CSV here")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_threads(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left early, as `| head` does: a normal end. Devnull keeps
        # the interpreter's final flush of stdout from failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
