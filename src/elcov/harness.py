"""Monte Carlo experiment runner with seeded reproducibility and CSV output.

A run sweeps sample counts and estimator specs over independent trials.
For each sample count the trials run in blocks of at most
:func:`_block_size` trials.  A block draws each trial's training from the
scenario's true covariance with the trial's own seeded stream, then makes
one stacked pass for the whole block: the sample covariances, their
descending ``eigh`` with pinned phases, and the projections onto each
eigenbasis that SINR scoring needs.  Every estimator, its constraint
selector included, then runs as one map over a pass of several blocks
(:func:`_passes`), which reads their ``(B, N)`` spectra and, for
``RCML_EL_SIGMA``, their bases and training.  Each trial scores all its
estimates in one call, by normalized SINR averaged over a steering grid in
the trial's sample eigenbasis.  Every row of a pass equals the estimate
built on its trial alone, bit for bit, so neither blocks nor passes change
any output, and identical configuration and master seed reproduce the
output CSVs byte for byte.  For the same reason a pass raises exactly when
one of its trials would raise alone; its error, from the first failing
estimator in configuration order, ends the sweep before the pass is scored,
and no CSV is written.
"""

from __future__ import annotations

import configparser
import csv
import math
import time
from dataclasses import dataclass
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
)
from .exceptions import InputError, SingularMatrixError
from .hermitian import EigenDecomposition, _eigh_desc, derive_rng, sample_covariance, sqrt_factor
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


class _Pass(NamedTuple):
    """What an estimator pass reads, one row per trial: the ``(B, N)``
    spectra ``d``, their ``(B, N, N)`` bases ``v`` and ``(B, N, K)``
    training ``z``, and the sweep's settings for the selectors."""

    d: np.ndarray
    v: np.ndarray
    z: np.ndarray | None
    k: int
    sigma2: float
    lr0: float | None
    r_init: int | None
    nmf_steering: np.ndarray | None


class _Estimator(NamedTuple):
    takes_param: bool
    needs_lr0: bool
    # (pass, param) -> (lambdas, constraints), one row of each per trial
    rows: Callable[[_Pass, float | None], tuple[np.ndarray, list[ConstraintRecord]]]


def _cncml_el_rows(p: _Pass):
    sel = _kmax_rows(p.d, p.sigma2, p.lr0)
    return sel.lambdas, [ConstraintRecord(sigma2=p.sigma2, kmax=k) for k in sel.kmax_hat.tolist()]


def _joint_rows(p: _Pass):
    """RCML at each row's jointly selected rank and noise power, the joint
    selector running row by row as its one-call public form."""
    lambdas, constraints = np.empty_like(p.d), []
    for i, (d, v, z) in enumerate(zip(p.d, p.v, p.z)):
        sel = select_rank_sigma(EigenDecomposition(d, v), p.k, p.r_init, p.lr0, z, p.nmf_steering)
        lam, con = _rcml_rows(d[np.newaxis], sel.sigma2_hat, [sel.r_hat])
        lambdas[i] = lam[0]
        constraints += con
    return lambdas, constraints


# the one estimator dispatch; the CLI's estimate command uses it too
_ESTIMATORS = {
    "SMI": _Estimator(False, False, lambda p, _: _smi_rows(p.d)),
    "FML": _Estimator(False, False, lambda p, _: _fml_rows(p.d, p.sigma2)),
    "RCML_FIXED": _Estimator(
        True, False, lambda p, rank: _rcml_rows(p.d, p.sigma2, [int(rank)] * len(p.d))
    ),
    "RCML_EL": _Estimator(
        False, True,
        lambda p, _: _rcml_rows(p.d, p.sigma2, _rank_rows(p.d, p.sigma2, p.lr0)[0].tolist()),
    ),
    "RCML_EL_SIGMA": _Estimator(False, True, lambda p, _: _joint_rows(p)),
    "CNCML_ML": _Estimator(False, False, lambda p, _: _cncml_ml_rows(p.d, p.sigma2)),
    "CNCML_FIXED": _Estimator(
        True, False, lambda p, kmax: _cncml_rows(p.d, p.sigma2, float(kmax))
    ),
    "CNCML_EL": _Estimator(False, True, lambda p, _: _cncml_el_rows(p)),
    "LSMI_EL": _Estimator(False, True, lambda p, _: _lsmi_rows(p.d, _loading_rows(p.d, p.lr0)[0])),
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

    ``wall_time`` is the estimator's share of its pass, that pass's time
    over its ``B`` trials, plus an equal share of the trial's one scoring
    call.  The blocks' shared draw, ``eigh`` and eigenbasis projections are
    not in it.  It is informational only and kept out of the CSV files so
    reruns stay byte-identical.
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
    """Estimate named by ``spec``, built as a pass of one trial; ``lr0``
    feeds the selectors and ``joint``, ``(r_init, training, nmf_steering)``,
    feeds ``RCML_EL_SIGMA`` only.  Raises :class:`InputError` when the
    estimator needs either and it is missing."""
    if lr0 is None and _ESTIMATORS[spec.name].needs_lr0:
        raise InputError(f"estimator {spec} needs lr0")
    if joint is None and spec.name == "RCML_EL_SIGMA":
        raise InputError(f"estimator {spec} needs joint = (r_init, training, nmf_steering)")
    r_init, z, nmf_steering = joint if joint is not None else (None, None, None)
    one = _Pass(stats.d[np.newaxis], stats.s_eig.eigenvectors[np.newaxis],
                None if z is None else np.asarray(z)[np.newaxis],
                stats.k, stats.sigma2, lr0, r_init, nmf_steering)
    return _one_row(stats, *_ESTIMATORS[spec.name].rows(one, spec.param))


def _timed(spec: EstimatorSpec, p: _Pass):
    """``spec``'s map over the pass ``p``, and its time per row."""
    start = time.perf_counter()
    lambdas, constraints = _ESTIMATORS[spec.name].rows(p, spec.param)
    return lambdas, constraints, (time.perf_counter() - start) / len(p.d)


def _block_size(n: int, k: int) -> int:
    """Trials per block: as many ``N x max(N, K)`` matrices as fit the budget."""
    return max(1, _BLOCK_ELEMENTS // (n * max(n, k)))


def _passes(n: int, k: int, trials: int) -> list[list[range]]:
    """The blocks of trials of each stacked estimator pass.  A pass takes
    whole blocks, as many as keep their ``N x N`` projections within the
    budget (at least one), and the passes split the blocks evenly."""
    block = _block_size(n, k)
    blocks = [range(first, min(first + block, trials)) for first in range(0, trials, block)]
    count = -(-len(blocks) // max(1, _PASS_ELEMENTS // (n * n * block)))
    bounds = [len(blocks) * j // count for j in range(count + 1)]
    return [blocks[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


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
    if not (lambdas > 0).all():  # also catches NaN, for which `<= 0` is false
        raise SingularMatrixError("estimate has a non-positive or NaN eigenvalue")
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
    for k in cfg.k_list:
        for blocks in _passes(n, k, cfg.trials):
            trials = range(blocks[0].start, blocks[-1].stop)
            b = len(trials)
            p = _Pass(np.empty((b, n)), np.empty((b, n, n), dtype=complex),
                      np.empty((b, n, k), dtype=complex), k, scenario.noise_power, lr0_by_k[k],
                      r_init, nmf_steering)
            w0 = np.empty((b, n, steer.shape[1]), dtype=complex)
            g = np.empty((b, n, n), dtype=complex)
            for block in blocks:
                part = slice(block.start - trials.start, block.stop - trials.start)
                for trial in block:
                    rng = derive_rng(cfg.master_seed, "trial", k, trial)
                    p.z[trial - trials.start] = draw_training(factor, k, cfg.corruption, rng).z
                p.d[part], p.v[part] = _eigh_desc(sample_covariance(p.z[part]))
                w0[part], g[part] = _eigenbasis_projections(p.v[part], r_true, steer)
            # per estimator: (lambdas, constraints, seconds per trial) of its pass
            built = [_timed(spec, p) for spec in cfg.estimators]
            for i, trial in enumerate(trials):
                lambdas = [lam[i] for lam, _, _ in built]
                start = time.perf_counter()
                sinr_db = _sinr_scorer(np.stack(lambdas), w0[i], g[i], den_true)
                score_share = (time.perf_counter() - start) / len(lambdas)
                for spec, (_, constraints, build), sinr in zip(cfg.estimators, built, sinr_db):
                    con = constraints[i]
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
            del p, w0, g  # free this pass's arrays before the next pass allocates its own
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
    "experiment": {
        "k_list", "trials", "master_seed", "estimators", "output", "lr0_table",
        "autocompute", "steering_grid", "nmf_angle", "r_init",
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
