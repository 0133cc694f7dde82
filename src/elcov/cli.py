"""Command-line interface.

Subcommands: ``lr0`` (compute and store a reference), ``estimate`` (one
estimator spec on a stored sample covariance, its constraint selected from
lr0 where the spec names a selector), ``simulate`` (Monte Carlo experiment
from a config file) and ``sinr`` (score one estimate against a true
covariance).  Exit codes: 0 success, 1 input error, 2 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import sys

from .estimators import SampleStats, condition_number
from .exceptions import InputError, NumericalError, _number
from .harness import (
    _ESTIMATORS,
    EstimatorSpec,
    build_estimate,
    load_experiment_config,
    run_experiment,
)
from .likelihood import LRReference, log_lr_value, lr0_reference, lr0_store
from .metrics import normalized_sinr
from .scenario import matrix_load, read_cmat, steering_vector
from .selection import _log

__all__ = ["cli", "main"]


def _emit(fmt: str, pairs: list[tuple[str, object]]) -> None:
    if sys.stdout is None:  # fd 1 was closed at start: no reader, as after EPIPE
        raise BrokenPipeError("stdout is closed")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in pairs:
            writer.writerow([key, value])
        sys.stdout.write(buf.getvalue())
    else:
        for key, value in pairs:
            sys.stdout.write(f"{key}={value}\n")


def _float_list(values) -> str:
    return ",".join(f"{v:.12g}" for v in values)


def _cmd_lr0(args) -> int:
    ref = lr0_reference(args.n, args.k)
    lr0_store(ref, args.table)
    pairs = [("n", ref.n), ("k", ref.k), ("lr0", f"{ref.lr0:.12g}")]
    pairs += [(f"q{int(100 * p):02d}", f"{v:.12g}") for p, v in ref.quantiles]
    pairs.append(("table", args.table))
    _emit(args.format, pairs)
    return 0


def _cmd_estimate(args) -> int:
    spec = EstimatorSpec.parse(args.estimator)
    entry = _ESTIMATORS[spec.name]
    if entry.reads_sigma2 and args.sigma2 is None:
        raise InputError(f"--sigma2 is required for estimator {spec}")
    sigma2 = args.sigma2 if args.sigma2 is not None else 1.0  # unread where not required
    stats = SampleStats.from_sample_covariance(matrix_load(args.input), k=args.k, sigma2=sigma2)
    joint = None
    if spec.name == "RCML_EL_SIGMA":  # the joint selection clamps r_init; the CLI rejects it
        if not 0 <= args.r_init < stats.n:
            raise InputError(f"--r-init {args.r_init} outside [0, {stats.n - 1}]")
        if args.training is None:
            raise InputError(f"--training is required for estimator {spec}")
        training = read_cmat(args.training)
        if training.shape[1] != args.k:
            raise InputError(f"--training has {training.shape[1]} columns, but --k is {args.k}")
        joint = (args.r_init, training, steering_vector(stats.n, args.angle))
    # the selectors take the reference itself, whose log lr0 stays finite
    # where its lr0 underflows to 0
    lr0 = args.lr0
    if lr0 is None and entry.needs_lr0:
        lr0 = lr0_reference(stats.n, args.k)
    est = build_estimate(spec, stats, lr0, joint)
    log_lr = log_lr_value(est.lambdas, stats.d)
    pairs = [("estimator", spec), ("n", stats.n), ("k", stats.k)]
    if entry.needs_lr0:
        shown = lr0.lr0 if isinstance(lr0, LRReference) else lr0
        pairs += [("lr0", f"{shown:.12g}"), ("log_lr0", f"{_log(lr0):.12g}")]
    con = est.constraints
    if con.r is not None:
        pairs.append(("rank", con.r))
    if con.sigma2 is not None:
        pairs.append(("sigma2", f"{con.sigma2:.12g}"))
    if con.kmax is not None:
        pairs.append(("kmax", f"{con.kmax:.12g}"))
        pairs.append(("condition_number", f"{condition_number(est):.12g}"))
    if con.beta is not None:
        pairs.append(("beta", f"{con.beta:.12g}"))
    pairs.append(("lr", f"{math.exp(log_lr):.12g}"))
    pairs.append(("log_lr", f"{log_lr:.12g}"))
    pairs.append(("eigenvalues", _float_list(est.lambdas)))
    _emit(args.format, pairs)
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_experiment_config(args.config)
    records = run_experiment(cfg)
    pairs = [("records", len(records)), ("output", cfg.output_path)]
    _emit(args.format, pairs)
    return 0


def _cmd_sinr(args) -> int:
    r_hat = matrix_load(args.rhat)
    r_true = matrix_load(args.rtrue)
    if r_hat.shape != r_true.shape:
        raise InputError("estimate and true covariance dimensions differ")
    s = steering_vector(r_true.shape[0], args.angle)
    eta = normalized_sinr(r_hat, r_true, s)
    _emit(args.format, [
        ("angle", f"{args.angle:.12g}"),
        ("eta", f"{eta:.12g}"),
        ("sinr_db", f"{10.0 * math.log10(eta):.12g}"),
    ])
    return 0


def _read_as(convert):
    """An argparse type reading a number as a data file or config does
    (:func:`_number`); argparse names it as ``convert`` in a usage error."""
    def read(text):
        return _number(text, convert)
    read.__name__ = convert.__name__
    return read


_INT, _FLOAT = _read_as(int), _read_as(float)


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elcov",
        description="Structured covariance estimation with likelihood-ratio matched constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lr0 = sub.add_parser("lr0", help="compute and store an invariant LR reference")
    p_lr0.add_argument("--n", type=_INT, required=True)
    p_lr0.add_argument("--k", type=_INT, required=True)
    p_lr0.add_argument("--table", required=True, help="LR0TABLE file to append to")
    p_lr0.set_defaults(func=_cmd_lr0)

    p_est = sub.add_parser("estimate", help="run one estimator on a stored sample covariance")
    p_est.add_argument("--input", required=True, help="CMAT file holding the sample covariance")
    p_est.add_argument("--k", type=_INT, required=True, help="sample count behind the input")
    p_est.add_argument("--sigma2", type=_FLOAT, default=None, help="noise power")
    p_est.add_argument("--estimator", required=True,
                       help="estimator spec as a config names it, e.g. FML or RCML_FIXED(5)")
    p_est.add_argument("--lr0", type=_FLOAT, default=None,
                       help="reference LR value for an EL estimator; else computed for (n, k)")
    p_est.add_argument("--training", default=None,
                       help="RCML_EL_SIGMA: CMAT file with the n-by-k training, a column a sample")
    p_est.add_argument("--r-init", type=_INT, default=0, help="RCML_EL_SIGMA: initial rank")
    p_est.add_argument("--angle", type=_FLOAT, default=0.0,
                       help="RCML_EL_SIGMA: steering angle in degrees")
    p_est.set_defaults(func=_cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment from a config file")
    p_sim.add_argument("--config", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sinr = sub.add_parser("sinr", help="normalized SINR of one estimate vs the truth")
    p_sinr.add_argument("--rhat", required=True, help="CMAT file with the estimate")
    p_sinr.add_argument("--rtrue", required=True, help="CMAT file with the true covariance")
    p_sinr.add_argument("--angle", type=_FLOAT, required=True, help="steering angle in degrees")
    p_sinr.set_defaults(func=_cmd_sinr)

    for sp in (p_lr0, p_est, p_sim, p_sinr):
        sp.add_argument("--format", choices=("kv", "csv"), default="kv",
                        help="output as key=value lines or CSV key,value rows")
    return parser


def cli(argv) -> int:
    """Entry point returning an exit code instead of raising SystemExit.
    A closed stdout, or none at all, raises :class:`BrokenPipeError`, which
    :func:`main` handles."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # not an input error: the reader of stdout is gone
        raise
    except OSError as exc:  # an unreadable input file
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = cli(sys.argv[1:])
        if sys.stdout is not None:
            sys.stdout.flush()  # so that a closed stdout raises here, not at exit
    except BrokenPipeError:
        # as Python's signal docs advise on EPIPE: point fd 1 at devnull, so
        # that the flush at exit writes nowhere and reports nothing; with no
        # stdout there is nothing to flush, and fd 1 may be another file's
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
