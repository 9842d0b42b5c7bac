"""Command-line interface.

Subcommands map one-to-one onto the library layers: `qfim` and
`variance-curve` evaluate the single-shot information quantities, `schedule`
plans the adaptive iteration sequence, `robustness` quantifies control-error
penalties (a `single` deviation grid or a `total` Monte Carlo), and
`simulate` runs the full protocol. This module imports core and adaptive,
which the first g0() loads anyway; `qfim`, `variance-curve`, `robustness`
and `simulate` each import their own layer when they run, so a process loads
only the layers of the commands it runs.

Output conventions: JSON documents follow one record shape (schema_version,
command, params, rows, plus command-specific sections) in the layout of
json.dumps(indent=2) and serialize floats with repr, the shortest round-trip
form. `simulate` writes its rows straight from the trace's columns: one row is
dumped once and split at its per-rep numbers, and each rep's strings are
joined between the pieces, the same bytes json.dumps gives for the rows as
dicts. A column that holds the same bits in every rep is a shared number in
the pieces; one bit-equal to an earlier column, or to an earlier float
column's negation, reuses its strings (sign flipped), so repr runs once per
distinct column and rep. Rows go out in chunks of reps, so memory stays bounded.
CSV uses a header row, comma separators, LF line endings, UTF-8.
Vector-valued flags take comma-separated components (`--alpha 0.1,0.2,0.3`)
and deviation grids take START:STOP:STEP. A vector whose first component is
negative must follow an `=` (`--alpha=-0.8,0.4,0.3`): argparse reads a
separate `-0.8,...` as a flag.
Outputs contain no timestamps, so a rerun with the same arguments is
byte-identical. Stochastic subcommands require an explicit --seed. Exit
codes: 0 on success, 2 on domain or argument validation errors or an
output path that cannot be written, 3 on internal invariant failures. Every
failure, argparse's rejections included, writes one line to stderr: `error:`
for exit 2, `internal error:` for exit 3.
"""

import argparse
import contextlib
import csv
import functools
import json
import os
import sys

import numpy as np

from . import adaptive
from .core import get_model
from .errors import DomainError, EstimationError, SingularQfim

SCHEMA_VERSION = 1
# Largest time or deviation grid a command evaluates: 8 MB per float column.
MAX_GRID_POINTS = 10**6
_VECTOR_HELP = "comma-separated components; a negative first one needs '=', as in --{}=-0.8,0.4,0.3"
_NOT_FINITE = "result is not finite and cannot be written as JSON"
# Placeholders of the simulate writer: a per-rep number, and the list of rows.
_LEAF, _ROWS = "<leaf>", "<rows>"
# Reps per chunk of `simulate` rows formatted and written at once.
_CHUNK_REPS = 1000


def _json_text(doc: dict) -> str:
    """The output document as JSON text; JSON has no non-finite numbers."""
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(doc)
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise DomainError(_NOT_FINITE) from None


def _write_csv(path, header: list, rows) -> None:
    """Write the header and rows as CSV to path, or to stdout when path is
    None. csv writes a Python float with repr, the shortest round-trip form.
    A file that cannot be opened or written is a DomainError that names it
    with repr, so a line break in the path stays on the one error line."""
    try:
        with open(path, "w", encoding="utf-8", newline="") if path else contextlib.nullcontext(sys.stdout) as out:
            w = csv.writer(out, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
    except OSError as exc:
        if not path:
            raise  # a closed stdout ends quietly in main
        raise DomainError(f"cannot write {path!r}: {exc.strerror or exc}") from None


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
    """Validate --threads for every command, kept for compatibility: it sets no thread count."""
    if args.threads is not None and args.threads < 1:
        raise DomainError("thread count must be >= 1")


def _cmd_qfim(args) -> int:
    from .qfim import _weighted_information, covariance_from_qfim, generator

    model = get_model(args.model)
    # One generator build gives both the QFIM and the commutativity residual.
    f, residual = _weighted_information(generator(model, args.alpha, args.t), args.weight)
    cov = bound = singular_reason = None
    try:
        cov = covariance_from_qfim(f, 1).m
        bound = float(np.trace(cov))  # Tr F^{-1}: scalar_bound(I, f, 1), bit for bit
    except SingularQfim as exc:
        singular_reason = str(exc)
    if args.format == "csv":
        rows = [["qfim", i] + row for i, row in enumerate(f.m.tolist(), 1)]
        if cov is not None:
            rows += [["covariance", i] + row for i, row in enumerate(cov.tolist(), 1)]
            rows.append(["scalar_bound", 1, bound, "", ""])
        _write_csv(None, ["section", "i", "c1", "c2", "c3"], rows)
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
    from . import variance

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
    _write_csv(args.out, ["t", "v1", "v2", "v3", "envelope", "infimum", "flag"], (vars(r).values() for r in rows))
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
    from . import robustness

    start, stop, step = args.grid
    _check_grid_size((stop + 0.5 * step - start) / step)
    grid = np.arange(start, stop + 0.5 * step, step)
    # Both columns are computed first, so a grid point outside the domain writes nothing.
    ratios, pdf = robustness.ratio_single(grid), robustness.deviation_pdf(grid)
    _write_csv(args.out, ["D", "R", "pdf"], zip(grid.tolist(), ratios.tolist(), pdf.tolist()))
    return 0


def _cmd_robustness_total(args) -> int:
    from . import robustness

    summary = robustness.robustness_mc(args.m, args.samples, args.seed)
    rows = [("mean", summary.mean), ("p_below_one", summary.p_below_one)]
    rows += [(f"decile_{decile}", value) for decile, value in zip(range(10, 100, 10), summary.deciles)]
    _write_csv(args.out, ["statistic", "value"], rows)
    return 0


def _bits(column):
    """A float or int column as unsigned integers of its width: equal bits,
    equal entries, with 0.0 and -0.0 apart."""
    return column.view(f"u{column.itemsize}")


class _RepColumns:
    """The sources of the placeholders in the `simulate` row text, in
    placeholder order: a column to format with repr, or (j, flip), the
    strings of the formatted column at placeholder j, signs flipped if flip."""

    def __init__(self):
        self.sources = []
        self._formatted = {}  # (dtype kind, hash of the bits) -> placeholder

    def _find(self, kind, bits):
        """The placeholder of the formatted column of this kind with these bits, or None."""
        j = self._formatted.get((kind, hash(bits.tobytes())))
        return j if j is not None and np.array_equal(_bits(self.sources[j]), bits) else None

    def add(self, column):
        """The row text's entry for one column: a number when every rep holds
        the same bits, otherwise a placeholder whose source is appended."""
        bits, kind = _bits(column), column.dtype.kind
        if (bits == bits[0]).all():
            return column[0].item()
        # repr(-x) is repr(x) with its sign flipped, 0.0 and -0.0 included;
        # for an int it is not (-0 is written 0), so ints are never negated.
        if (j := self._find(kind, bits)) is not None:
            self.sources.append((j, False))
        elif kind == "f" and (j := self._find(kind, _bits(-column))) is not None:
            self.sources.append((j, True))
        else:
            self._formatted.setdefault((kind, hash(bits.tobytes())), len(self.sources))
            self.sources.append(column)
        return _LEAF

    def strings(self, start, stop):
        """Each placeholder's strings for reps start..stop-1."""
        strings = []
        for source in self.sources:
            if isinstance(source, np.ndarray):
                strings.append(list(map(repr, source[start:stop].tolist())))
            else:
                j, flip = source
                strings.append([s[1:] if s[0] == "-" else "-" + s for s in strings[j]] if flip else strings[j])
        return strings


def _per_rep(value, columns: _RepColumns):
    """The row text's entry for one field. An array with the rep axis
    first becomes entries shaped like one rep's, one per column: a column
    whose reps all hold the same bits is a shared number that json.dumps
    writes into the row text once; any other is a placeholder, and its
    source goes to columns. repr then runs at most once per distinct column
    and rep: a column bit-equal to an earlier one reuses its strings, and a
    float column equal to an earlier one's negation reuses them with the
    sign flipped. Any other value is shared by every rep and is its own entry."""
    if not isinstance(value, np.ndarray):
        return value
    if value.dtype.kind == "f" and not np.isfinite(value).all():
        raise DomainError(_NOT_FINITE)
    if value.ndim == 1:
        return columns.add(value)
    return [columns.add(column) for column in value.T]


def _cmd_simulate(args) -> int:
    from .simulator import ExperimentConfig, run_repetitions

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
    columns = _RepColumns()
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
        "params": {**vars(config), "pi0": None},  # a schema-1 field: refinement targets g0
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
    # The row text split at its placeholders, each piece followed by a slot: a rep's
    # string fills each slot but the last, which keeps the separator to the next row.
    pieces = middle[len(separator) : -len(separator)].split(json.dumps(_LEAF))
    row_parts = [part for piece in pieces for part in (piece, separator)]
    # A rejected document leaves no CSV, and an unwritable CSV leaves stdout empty.
    if args.csv:
        header = ["rep", "beta_hat_1", "beta_hat_2", "beta_hat_3", "realized_sq_error"]
        rows = zip(range(args.reps), *trace.beta_hat.T.tolist(), trace.realized_sq_error.tolist())
        _write_csv(args.csv, header, rows)
    # The rows go out in chunks of _CHUNK_REPS reps, one join each, so the strings
    # held at once do not grow with reps. Only the last chunk drops its separator.
    sys.stdout.write(head)
    for start in range(0, args.reps, _CHUNK_REPS):
        parts = row_parts * min(_CHUNK_REPS, args.reps - start)
        for j, strings in enumerate(columns.strings(start, start + _CHUNK_REPS)):
            parts[2 * j + 1 :: len(row_parts)] = strings
        if start + _CHUNK_REPS >= args.reps:
            parts.pop()
        sys.stdout.write("".join(parts))
    sys.stdout.write(tail)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose rejections, its subparsers' included, are one
    `error:` line on stderr and exit 2, without the usage block."""

    def error(self, message):
        # argparse echoes some arguments raw, as in `unrecognized arguments:`;
        # a character that is not printable, a line break included, is
        # escaped as repr writes it.
        message = "".join(c if c.isprintable() else repr(c)[1:-1] for c in message)
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The shared argument parser: built on the first call, then returned
    again, so each main call parses without rebuilding the tree."""
    parser = _Parser(
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

