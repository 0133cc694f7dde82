"""Monte Carlo experiment runner with seeded reproducibility and CSV output.

A run sweeps sample counts and estimator specs over independent trials.
For each sample count the trials run in blocks of at most
:func:`_block_size` trials.  A block draws each trial's training from the
scenario's true covariance with the trial's own seeded stream, then makes
one stacked pass for the whole block: the sample covariances, their
descending ``eigh`` with pinned phases, and the projections onto each
eigenbasis that SINR scoring needs.  The estimators, their constraint
selectors included, then run as one stacked pass over the ``(B, N)``
spectra of several blocks (:func:`_passes`); only ``RCML_EL_SIGMA``, which
reads each trial's training, runs per trial.  Each trial scores all its
estimates in one call, by normalized SINR averaged over a steering grid in
the trial's sample eigenbasis.  Every stacked result equals its per-trial
form bit for bit, so neither blocks nor passes change any output, and
identical configuration and master seed reproduce the output CSVs byte
for byte.
"""

from __future__ import annotations

import configparser
import csv
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .estimators import (
    ConstraintRecord,
    CovarianceEstimate,
    SampleStats,
    _cncml_ml_rows,
    _cncml_rows,
    _fml_rows,
    _lsmi_rows,
    _one_row,
    _rcml_rows,
    _smi_rows,
    rcml,
)
from .exceptions import ElcovError, InputError, SingularMatrixError
from .hermitian import (
    EigenDecomposition,
    _eigh_desc,
    derive_rng,
    sample_covariance,
    sqrt_factor,
)
from .likelihood import lr0_lookup
from .metrics import apply_inverse
from .scenario import (
    CorruptionSpec,
    ScenarioConfig,
    draw_training,
    jammer_covariance,
    steering_vector,
)
from .selection import _kmax_rows, _loading_rows, _rank_rows, select_rank_sigma

__all__ = [
    "EstimatorSpec",
    "ExperimentConfig",
    "TrialRecord",
    "build_estimate",
    "default_steering_grid",
    "load_experiment_config",
    "run_experiment",
]


# Matrix elements per stacked block of trials, B * N * max(N, K).  Blocks of
# 10 to 20 trials at N = 20 already pay for the per-block numpy calls, and
# their arrays (about 128 KB each) fit in memory the process holds anyway,
# so blocking does not raise the peak RSS.
_BLOCK_ELEMENTS = 2**13
# Elements of the N x N eigenbasis projections that one stacked estimator
# pass keeps until its trials are scored.  A pass spans whole blocks, so
# that where a block holds one trial (N = 64, K = 128) the passes still
# share their fixed numpy cost: 8 trials at N = 64, about 80 at N = 20.
_PASS_ELEMENTS = 2**15


class _Estimator(NamedTuple):
    takes_param: bool
    needs_lr0: bool
    # (d, sigma2, param, lr0) -> (lambdas, constraints), for a (B, N) stack of
    # spectra; None for RCML_EL_SIGMA, which needs each trial's training and is
    # built one spectrum at a time by ``build``
    rows: Callable[..., tuple[np.ndarray, list[ConstraintRecord]]] | None
    build: Callable[..., CovarianceEstimate] | None = None  # (stats, param, lr0, joint)


def _rcml_el_sigma(stats, param, lr0, joint):
    r_init, training, nmf_steering = joint
    sel = select_rank_sigma(stats.s_eig, stats.k, r_init, lr0, training, nmf_steering)
    return rcml(replace(stats, sigma2=sel.sigma2_hat), sel.r_hat)


def _cncml_el_rows(d, sigma2, lr0):
    sel = _kmax_rows(d, sigma2, lr0)
    return sel.lambdas, [ConstraintRecord(sigma2=sigma2, kmax=k) for k in sel.kmax_hat.tolist()]


# the one estimator dispatch; the CLI's estimate command uses it too
_ESTIMATORS = {
    "SMI": _Estimator(False, False, lambda d, s2, p, lr0: _smi_rows(d)),
    "FML": _Estimator(False, False, lambda d, s2, p, lr0: _fml_rows(d, s2)),
    "RCML_FIXED": _Estimator(
        True, False, lambda d, s2, p, lr0: _rcml_rows(d, s2, [int(p)] * len(d))
    ),
    "RCML_EL": _Estimator(
        False, True, lambda d, s2, p, lr0: _rcml_rows(d, s2, _rank_rows(d, s2, lr0)[0].tolist())
    ),
    "RCML_EL_SIGMA": _Estimator(False, True, None, _rcml_el_sigma),
    "CNCML_ML": _Estimator(False, False, lambda d, s2, p, lr0: _cncml_ml_rows(d, s2)),
    "CNCML_FIXED": _Estimator(True, False, lambda d, s2, p, lr0: _cncml_rows(d, s2, float(p))),
    "CNCML_EL": _Estimator(False, True, lambda d, s2, p, lr0: _cncml_el_rows(d, s2, lr0)),
    "LSMI_EL": _Estimator(
        False, True, lambda d, s2, p, lr0: _lsmi_rows(d, _loading_rows(d, lr0)[0])
    ),
}


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator column of the experiment, e.g. FML or RCML_FIXED(5)."""

    name: str
    param: float | None = None

    @classmethod
    def parse(cls, text: str) -> "EstimatorSpec":
        token = text.strip()
        param = None
        if "(" in token:
            if not token.endswith(")"):
                raise InputError(f"malformed estimator spec {text!r}")
            token, arg = token[:-1].split("(", 1)
            try:
                param = float(arg)
            except ValueError as exc:
                raise InputError(f"malformed estimator parameter in {text!r}") from exc
        name = token.strip().upper()
        if name not in _ESTIMATORS:
            raise InputError(f"unknown estimator {text!r}; known: {', '.join(_ESTIMATORS)}")
        takes_param = _ESTIMATORS[name].takes_param
        if takes_param and param is None:
            raise InputError(f"estimator {name} requires a parameter, e.g. {name}(5)")
        if not takes_param and param is not None:
            raise InputError(f"estimator {name} takes no parameter")
        if name == "RCML_FIXED" and not param.is_integer():
            raise InputError(f"rank in {text!r} must be a finite whole number")
        return cls(name=name, param=param)

    def __str__(self) -> str:
        if self.param is None:
            return self.name
        return f"{self.name}({self.param:g})"


@dataclass
class ExperimentConfig:
    scenario: ScenarioConfig
    k_list: tuple[int, ...]
    trials: int
    master_seed: int
    estimators: tuple[EstimatorSpec, ...]
    output_path: str
    lr0_table_path: str | None = None
    autocompute_lr0: bool = True
    steering_grid: tuple[float, ...] | None = None
    nmf_angle: float = 0.0
    r_init: int | None = None
    corruption: CorruptionSpec | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise InputError("trials must be at least 1")
        if not self.k_list:
            raise InputError("k_list must not be empty")
        if not self.estimators:
            raise InputError("estimator list must not be empty")
        if min(self.k_list) < 1:
            raise InputError(f"sample counts in k_list must be at least 1, got {min(self.k_list)}")
        for what, items in (("k_list", self.k_list),
                            ("estimator list", [str(spec) for spec in self.estimators])):
            repeated = sorted({str(x) for x in items if items.count(x) > 1})
            if repeated:
                raise InputError(f"{what} repeats {', '.join(repeated)}")
        for spec in self.estimators:
            if spec.name == "RCML_FIXED" and not 0 <= spec.param <= self.scenario.n:
                raise InputError(f"rank in {spec} outside [0, {self.scenario.n}]")
            if spec.name == "CNCML_FIXED" and not 1 <= spec.param < math.inf:
                raise InputError(f"bound in {spec} must be finite and at least 1")


@dataclass
class TrialRecord:
    """Result of one (k, trial, estimator) cell.

    ``wall_time`` is the time to build the estimate plus an equal share of
    its trial's one scoring call.  An estimator built in one stacked pass
    over ``B`` trials is charged that pass's time over ``B``.  The blocks'
    shared draw, ``eigh`` and eigenbasis projections are not in it.  It is
    informational only and kept out of the CSV files so reruns stay
    byte-identical.
    """

    trial_index: int
    k: int
    estimator: str
    r_hat: int | None
    sigma2_hat: float | None
    kmax_hat: float | None
    beta_hat: float | None
    sinr_db: float
    wall_time: float


def default_steering_grid(scenario: ScenarioConfig) -> tuple[float, ...]:
    """19 angles uniform over [-90, 90] degrees, skipping jammer directions.

    Grid angles within one degree of a jammer's arrival direction are
    dropped; radian-mode phase angles are mapped back to the equivalent
    arrival angle for the comparison.
    """
    grid = np.linspace(-90.0, 90.0, 19)
    if scenario.angle_mode == "degrees":
        jam_arrivals = list(scenario.jammer_angles)
    else:
        jam_arrivals = [
            float(np.rad2deg(np.arcsin(np.clip(phi / np.pi, -1.0, 1.0))))
            for phi in scenario.jammer_angles
        ]
    keep = [a for a in grid if all(abs(a - j) > 1.0 for j in jam_arrivals)]
    return tuple(float(a) for a in keep)


def build_estimate(
    spec: EstimatorSpec, stats: SampleStats, lr0=None, joint=None
) -> CovarianceEstimate:
    """Estimate named by ``spec``; ``lr0`` feeds the selectors and ``joint``,
    ``(r_init, training, nmf_steering)``, feeds ``RCML_EL_SIGMA`` only.
    A stacked estimator is built as a stack of one spectrum."""
    estimator = _ESTIMATORS[spec.name]
    if estimator.rows is None:
        return estimator.build(stats, spec.param, lr0, joint)
    return _one_row(stats, *estimator.rows(stats.d[np.newaxis], stats.sigma2, spec.param, lr0))


def _block_size(n: int, k: int) -> int:
    """Trials per block: as many ``N x max(N, K)`` matrices as fit the budget."""
    return max(1, _BLOCK_ELEMENTS // (n * max(n, k)))


def _passes(n: int, k: int, trials: int) -> list[range]:
    """The first trials of the blocks of each stacked estimator pass.  A pass
    takes whole blocks, as many as keep their ``N x N`` projections within
    the budget (at least one), and the passes split the blocks evenly."""
    block = _block_size(n, k)
    firsts = range(0, trials, block)
    count = -(-len(firsts) // max(1, _PASS_ELEMENTS // (n * n * block)))
    bounds = [len(firsts) * j // count for j in range(count + 1)]
    return [firsts[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _eigenbasis_projections(v, r_true, steer):
    """``W0 = V^H steer`` and the symmetrized ``G = V^H R V`` for a stack of
    bases ``V``."""
    vh = v.conj().swapaxes(-1, -2)
    g = vh @ r_true @ v
    return vh @ steer, 0.5 * (g + g.conj().swapaxes(-1, -2))


def _sinr_scorer(lambdas, w0, g, den_true) -> np.ndarray:
    """Mean normalized SINR in dB over the steering grid of each row of an
    ``(E, N)`` stack of estimate eigenvalues on one basis ``V``.

    With ``w0 = V^H s``, ``G = V^H R V`` and ``y = w0 / lambdas``, the filter
    ``x = V y`` has ``s^H x = sum |w0|^2 / lambdas`` and ``x^H R x = y^H G y``.
    """
    if (lambdas <= 0).any():
        raise SingularMatrixError("estimate has a non-positive eigenvalue")
    q = 1.0 / lambdas
    w2 = np.abs(w0) ** 2
    # one matvec per row: a single (E, N) @ (N, S) product rounds differently
    num = np.array([q_e @ w2 for q_e in q])
    y = w0 * q[:, :, None]
    den = (y.conj() * (g @ y)).sum(axis=1).real
    db = 10.0 * np.log10(num**2 / (den * den_true))
    return db.sum(axis=1) / db.shape[1]  # np.mean's sum and division, without its overhead


def run_experiment(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Run the configured sweep and write trials.csv plus summary.csv.

    Returns the per-trial records.  Output lands under ``cfg.output_path``
    (created if needed).
    """
    scenario = cfg.scenario
    n = scenario.n
    r_true = jammer_covariance(scenario)
    factor = sqrt_factor(r_true)
    angles = cfg.steering_grid if cfg.steering_grid else default_steering_grid(scenario)
    if not angles:
        raise InputError("steering grid is empty")
    steer = np.column_stack([steering_vector(n, a) for a in angles])
    den_true = np.abs(np.sum(steer.conj() * apply_inverse(r_true, steer), axis=0))

    needs_lr0 = any(_ESTIMATORS[spec.name].needs_lr0 for spec in cfg.estimators)
    lr0_by_k = {
        k: lr0_lookup(n, k, cfg.lr0_table_path, cfg.autocompute_lr0) if needs_lr0 else None
        for k in cfg.k_list
    }

    r_init = cfg.r_init if cfg.r_init is not None else scenario.jammer_count
    nmf_steering = steering_vector(n, cfg.nmf_angle)

    records: list[TrialRecord] = []
    sigma2 = scenario.noise_power
    # the per-trial build needs each trial's eigenbasis and training
    per_trial = any(_ESTIMATORS[spec.name].rows is None for spec in cfg.estimators)
    for k in cfg.k_list:
        lr0 = lr0_by_k[k]
        block = _block_size(n, k)
        for firsts in _passes(n, k, cfg.trials):
            trials = range(firsts[0], min(firsts[-1] + block, cfg.trials))
            d = np.empty((len(trials), n))
            w0 = np.empty((len(trials), n, steer.shape[1]), dtype=complex)
            g = np.empty((len(trials), n, n), dtype=complex)
            bases, training = [], []
            for first in firsts:
                part = slice(first - trials.start, min(first + block, trials.stop) - trials.start)
                draws = [
                    draw_training(
                        factor, k, cfg.corruption, derive_rng(cfg.master_seed, "trial", k, t)
                    )
                    for t in trials[part]
                ]
                d[part], v = _eigh_desc(sample_covariance(np.stack([draw.z for draw in draws])))
                w0[part], g[part] = _eigenbasis_projections(v, r_true, steer)
                if per_trial:
                    bases.extend(v)
                    training.extend(draw.z for draw in draws)
            # per estimator: (lambdas, constraints, seconds per trial) of its
            # stacked pass, or None to build it trial by trial
            stacked = []
            for spec in cfg.estimators:
                rows, built = _ESTIMATORS[spec.name].rows, None
                if rows is not None:
                    start = time.perf_counter()
                    try:
                        lambdas, constraints = rows(d, sigma2, spec.param, lr0)
                        built = lambdas, constraints, (time.perf_counter() - start) / len(trials)
                    except ElcovError:
                        pass  # rerun per trial, which raises at the failing trial and estimator
                stacked.append(built)
            for i, trial in enumerate(trials):
                stats = None
                lambdas, constraints, builds = [], [], []
                for spec, built in zip(cfg.estimators, stacked):
                    if built is not None:
                        lambdas.append(built[0][i])
                        constraints.append(built[1][i])
                        builds.append(built[2])
                        continue
                    estimator = _ESTIMATORS[spec.name]
                    start = time.perf_counter()
                    if estimator.rows is not None:  # a failed pass, rerun on this trial's row
                        lam, con = estimator.rows(d[i : i + 1], sigma2, spec.param, lr0)
                        lam, con = lam[0], con[0]
                    else:
                        if stats is None:
                            eig = EigenDecomposition(eigenvalues=d[i], eigenvectors=bases[i])
                            stats = SampleStats(n=n, k=k, s_eig=eig, sigma2=sigma2)
                        joint = r_init, training[i], nmf_steering
                        est = estimator.build(stats, spec.param, lr0, joint)
                        lam, con = est.lambdas, est.constraints
                    builds.append(time.perf_counter() - start)
                    lambdas.append(lam)
                    constraints.append(con)
                start = time.perf_counter()
                sinr_db = _sinr_scorer(np.stack(lambdas), w0[i], g[i], den_true)
                score_share = (time.perf_counter() - start) / len(lambdas)
                for spec, con, build, sinr in zip(cfg.estimators, constraints, builds, sinr_db):
                    records.append(
                        TrialRecord(
                            trial_index=trial,
                            k=k,
                            estimator=str(spec),
                            r_hat=con.r,
                            sigma2_hat=con.sigma2,
                            kmax_hat=con.kmax,
                            beta_hat=con.beta,
                            sinr_db=float(sinr),
                            wall_time=build + score_share,
                        )
                    )
    _write_outputs(cfg, records)
    return records


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def _write_outputs(cfg: ExperimentConfig, records: list[TrialRecord]) -> None:
    out_dir = Path(cfg.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "trials.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "trial", "estimator", "r", "sigma2", "kmax", "beta", "sinr_db"])
        for rec in records:
            writer.writerow(
                [
                    rec.k,
                    rec.trial_index,
                    rec.estimator,
                    _fmt(rec.r_hat),
                    _fmt(rec.sigma2_hat),
                    _fmt(rec.kmax_hat),
                    _fmt(rec.beta_hat),
                    _fmt(rec.sinr_db),
                ]
            )
    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "estimator", "trials", "mean_sinr_db"])
        cells: dict[tuple[int, str], list[float]] = {}
        for rec in records:
            cells.setdefault((rec.k, rec.estimator), []).append(rec.sinr_db)
        for k in cfg.k_list:
            for spec in cfg.estimators:
                cell = cells[k, str(spec)]
                mean = math.fsum(cell) / len(cell)
                writer.writerow([k, str(spec), len(cell), _fmt(mean)])


_CONFIG_SCHEMA = {
    "scenario": {
        "n", "noise_power", "jammer_powers", "jammer_angles", "jammer_bandwidths",
        "sinc_convention", "angle_mode",
    },
    # lr0_trials is deprecated and ignored: the lr0 reference is exact
    "experiment": {
        "k_list", "trials", "master_seed", "estimators", "output", "lr0_table",
        "lr0_trials", "autocompute", "steering_grid", "nmf_angle", "r_init",
    },
    "corruption": {"fraction", "amplitude", "angle"},
}


def _floats(text: str) -> tuple[float, ...]:
    items = [tok.strip() for tok in text.split(",")]
    return tuple(float(tok) for tok in items if tok)


def load_experiment_config(path) -> ExperimentConfig:
    """Parse a line-oriented ``key = value`` experiment configuration file.

    Sections are ``[scenario]``, ``[experiment]`` and optionally
    ``[corruption]``; unknown sections or keys are hard errors so sweep
    typos fail fast rather than silently using defaults.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise InputError(f"config file {path!r} not found or unreadable")
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise InputError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _CONFIG_SCHEMA[section]:
                raise InputError(f"unknown key {key!r} in section [{section}]")
    for required in ("scenario", "experiment"):
        if required not in parser:
            raise InputError(f"missing required config section [{required}]")

    sc = parser["scenario"]
    try:
        scenario = ScenarioConfig(
            n=sc.getint("n"),
            jammer_powers=_floats(sc.get("jammer_powers", "")),
            jammer_angles=_floats(sc.get("jammer_angles", "")),
            jammer_bandwidths=_floats(sc.get("jammer_bandwidths", "")),
            noise_power=sc.getfloat("noise_power", 1.0),
            sinc_convention=sc.get("sinc_convention", "unnormalized"),
            angle_mode=sc.get("angle_mode", "degrees"),
        )
    except ValueError as exc:
        raise InputError(f"bad [scenario] value: {exc}") from exc

    ex = parser["experiment"]
    for key in ("k_list", "trials", "master_seed", "estimators", "output"):
        if key not in ex:
            raise InputError(f"missing required key {key!r} in [experiment]")
    try:
        k_list = tuple(int(v) for v in _floats(ex["k_list"]))
        estimators = tuple(
            EstimatorSpec.parse(tok) for tok in ex["estimators"].split(",") if tok.strip()
        )
        steering = _floats(ex["steering_grid"]) if "steering_grid" in ex else None
        config = ExperimentConfig(
            scenario=scenario,
            k_list=k_list,
            trials=ex.getint("trials"),
            master_seed=ex.getint("master_seed"),
            estimators=estimators,
            output_path=ex["output"],
            lr0_table_path=ex.get("lr0_table", None),
            autocompute_lr0=ex.getboolean("autocompute", True),
            steering_grid=steering,
            nmf_angle=ex.getfloat("nmf_angle", 0.0),
            r_init=ex.getint("r_init") if "r_init" in ex else None,
        )
    except ValueError as exc:
        raise InputError(f"bad [experiment] value: {exc}") from exc

    if "corruption" in parser:
        co = parser["corruption"]
        for key in ("fraction", "amplitude"):
            if key not in co:
                raise InputError(f"missing required key {key!r} in [corruption]")
        try:
            config.corruption = CorruptionSpec(
                fraction=co.getfloat("fraction"),
                amplitude=co.getfloat("amplitude"),
                steering=steering_vector(scenario.n, co.getfloat("angle", 0.0)),
            )
        except ValueError as exc:
            raise InputError(f"bad [corruption] value: {exc}") from exc
    return config
