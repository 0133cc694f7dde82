"""Command-line interface.

Subcommands: ``lr0`` (compute and store a reference), ``estimate`` (one
estimator on a stored sample covariance), ``select`` (constraint selection),
``simulate`` (Monte Carlo experiment from a config file) and ``sinr``
(score one estimate against a true covariance).  Exit codes: 0 success,
1 input error, 2 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys

from .estimators import SampleStats, condition_number
from .exceptions import InputError, NumericalError
from .harness import EstimatorSpec, build_estimate, load_experiment_config, run_experiment
from .likelihood import LRReference, log_lr_value, lr0_reference, lr0_store
from .metrics import normalized_sinr
from .scenario import matrix_load, read_cmat, steering_vector
from .selection import _log, select_kmax, select_loading, select_rank, select_rank_sigma

__all__ = ["cli", "main"]


def _emit(fmt: str, pairs: list[tuple[str, object]]) -> None:
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


def _load_stats(args) -> SampleStats:
    s = matrix_load(args.input)
    sigma2 = args.sigma2 if args.sigma2 is not None else 1.0
    return SampleStats.from_sample_covariance(s, k=args.k, sigma2=sigma2)


def _require_sigma2(args, context: str) -> None:
    if args.sigma2 is None:
        raise InputError(f"--sigma2 is required for {context}")


def _cmd_estimate(args) -> int:
    spec = EstimatorSpec.parse(args.estimator)
    if spec.name != "SMI":
        _require_sigma2(args, f"estimator {spec}")
    stats = _load_stats(args)
    est = build_estimate(spec, stats)
    log_lr = log_lr_value(est.lambdas, stats.d)
    pairs = [("estimator", spec), ("n", stats.n), ("k", stats.k)]
    con = est.constraints
    if con.r is not None:
        pairs.append(("rank", con.r))
    if con.sigma2 is not None:
        pairs.append(("sigma2", f"{con.sigma2:.12g}"))
    if con.kmax is not None:
        pairs.append(("kmax", f"{con.kmax:.12g}"))
        pairs.append(("condition_number", f"{condition_number(est):.12g}"))
    pairs.append(("lr", f"{math.exp(log_lr):.12g}"))
    pairs.append(("log_lr", f"{log_lr:.12g}"))
    pairs.append(("eigenvalues", _float_list(est.lambdas)))
    _emit(args.format, pairs)
    return 0


def _cmd_select(args) -> int:
    mode = args.mode
    if mode in ("rank", "kmax"):
        _require_sigma2(args, f"mode {mode}")
    stats = _load_stats(args)
    if mode == "rank-sigma":  # select_rank_sigma clamps r_init; the CLI rejects it here
        if not 0 <= args.r_init < stats.n:
            raise InputError(f"--r-init {args.r_init} outside [0, {stats.n - 1}]")
        if args.training is None:
            raise InputError("--training is required for mode rank-sigma")
        training = read_cmat(args.training)
        if training.shape[1] != args.k:
            raise InputError(f"--training has {training.shape[1]} columns, but --k is {args.k}")
    # the selectors take the reference itself, whose log lr0 stays finite
    # where its lr0 underflows to 0
    lr0 = args.lr0 if args.lr0 is not None else lr0_reference(stats.n, args.k)
    log_lr0 = _log(lr0)
    shown = lr0.lr0 if isinstance(lr0, LRReference) else lr0
    pairs = [("mode", mode), ("n", stats.n), ("k", stats.k), ("lr0", f"{shown:.12g}"),
             ("log_lr0", f"{log_lr0:.12g}")]
    if mode == "rank":
        sel = select_rank(stats, lr0)
        pairs.append(("r_hat", sel.r_hat))
        pairs.append(("visited_r", ",".join(str(r) for r, _ in sel.visited)))
        pairs.append(("visited_log_lr", _float_list(log_lr for _, log_lr in sel.visited)))
    elif mode == "rank-sigma":
        steering = steering_vector(stats.n, args.angle)
        joint = select_rank_sigma(stats.s_eig, args.k, args.r_init, lr0, training, steering)
        pairs.append(("r_hat", joint.r_hat))
        pairs.append(("sigma2_hat", f"{joint.sigma2_hat:.12g}"))
        pairs.append(("chosen_from", joint.chosen_from))
        pairs.append(("iterations", joint.iterations))
    elif mode == "kmax":
        sel = select_kmax(stats, lr0)
        pairs.append(("kmax_hat", f"{sel.kmax_hat:.12g}"))
        pairs.append(("constraint_active", str(sel.constraint_active).lower()))
        pairs.append(("final_step", f"{sel.final_step:.12g}"))
        pairs.append(("visited_kmax", _float_list(k for k, _ in sel.visited)))
        pairs.append(("visited_log_lr", _float_list(log_lr for _, log_lr in sel.visited)))
    elif mode == "loading":
        beta = select_loading(stats, lr0)
        pairs.append(("beta_hat", f"{beta:.12g}"))
        pairs.append(("lr_at_beta", f"{math.exp(log_lr_value(stats.d + beta, stats.d)):.12g}"))
    else:
        raise InputError(f"unknown mode {mode!r}")
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


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elcov",
        description="Structured covariance estimation with likelihood-ratio matched constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lr0 = sub.add_parser("lr0", help="compute and store an invariant LR reference")
    p_lr0.add_argument("--n", type=int, required=True)
    p_lr0.add_argument("--k", type=int, required=True)
    p_lr0.add_argument("--table", required=True, help="LR0TABLE file to append to")
    p_lr0.set_defaults(func=_cmd_lr0)

    p_est = sub.add_parser("estimate", help="run one estimator on a stored sample covariance")
    p_est.add_argument("--input", required=True, help="CMAT file holding the sample covariance")
    p_est.add_argument("--k", type=int, required=True, help="sample count behind the input")
    p_est.add_argument("--sigma2", type=float, default=None, help="noise power")
    p_est.add_argument("--estimator", required=True,
                       help="estimator spec as a config names it, e.g. FML or RCML_FIXED(5)")
    p_est.set_defaults(func=_cmd_estimate)

    p_sel = sub.add_parser("select", help="select constraints by likelihood-ratio matching")
    p_sel.add_argument("--input", required=True, help="CMAT file holding the sample covariance")
    p_sel.add_argument("--k", type=int, required=True)
    p_sel.add_argument("--mode", required=True, choices=("rank", "rank-sigma", "kmax", "loading"))
    p_sel.add_argument("--sigma2", type=float, default=None)
    p_sel.add_argument("--r-init", type=int, default=0, help="initial rank for rank-sigma")
    p_sel.add_argument("--lr0", type=float, default=None, help="reference LR value")
    p_sel.add_argument("--training", default=None,
                       help="CMAT file with the n-by-k training, one column per sample")
    p_sel.add_argument("--angle", type=float, default=0.0, help="steering angle in degrees")
    p_sel.set_defaults(func=_cmd_select)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment from a config file")
    p_sim.add_argument("--config", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sinr = sub.add_parser("sinr", help="normalized SINR of one estimate vs the truth")
    p_sinr.add_argument("--rhat", required=True, help="CMAT file with the estimate")
    p_sinr.add_argument("--rtrue", required=True, help="CMAT file with the true covariance")
    p_sinr.add_argument("--angle", type=float, required=True, help="steering angle in degrees")
    p_sinr.set_defaults(func=_cmd_sinr)

    for sp in (p_lr0, p_est, p_sel, p_sim, p_sinr):
        sp.add_argument("--format", choices=("kv", "csv"), default="kv",
                        help="output as key=value lines or CSV key,value rows")
    return parser


def cli(argv) -> int:
    """Entry point returning an exit code instead of raising SystemExit."""
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
