"""Monte Carlo experiment runner with seeded reproducibility and CSV output.

A run sweeps sample counts and estimator specs over independent trials.
Its ``(k, trial)`` cells, in output order, run in passes that
:func:`_passes` fills under one memory budget, the one batching level; a
pass can span sample counts.  Each run of one sample count in a pass draws
its training from the scenario's true covariance in one stacked core: each
trial's own seeded stream fills its row of the run's normals and picks its
corrupted columns, and the scale, the product with the covariance's
square-root factor, the corruption and the sample covariances run once
per run.  The pass then computes, in one stacked call each, the
descending ``eigh`` with pinned phases of all its sample covariances and
the projections onto each eigenbasis that SINR scoring needs.  Every
estimator, its constraint selector included, runs as one map over the
pass, which reads its ``(B, N)`` spectra, each row's ``log lr0`` (its
sample count's log median, the one form of lr0 a sweep holds) and, for
``RCML_EL_SIGMA``, each row's basis and training.  The pass then scores its
estimates by normalized SINR averaged over a steering grid in each trial's
sample eigenbasis, one call per block of a few consecutive cells, sized so
that the call's temporaries stay in cache.  Every row of a pass equals the
estimate built on its trial alone, and every score the score of that
estimate alone, bit for bit, so the passes and blocks change no output, and
identical configuration and master seed reproduce the output CSVs byte for
byte.  For the same reason a pass raises exactly when one of its cells
would raise alone; its error, from the first failing estimator in
configuration order, ends the sweep before the pass is scored, and no CSV
is written.  Since a pass can span sample counts, that estimator may fail
at a later sample count than another estimator's failure.
"""

from __future__ import annotations

import configparser
import csv
import itertools
import math
import time
from dataclasses import MISSING, dataclass, fields
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
from .hermitian import _eigh_desc, derive_rng, sample_covariance, sqrt_factor
from .likelihood import lr0_lookup
from .metrics import apply_inverse
from .scenario import (
    CorruptionSpec,
    ScenarioConfig,
    _draw_rows,
    jammer_covariance,
    steering_vector,
)
from .selection import _kmax_rows, _loading_rows, _log, _rank_rows, _rank_sigma_row

__all__ = [
    "EstimatorSpec",
    "ExperimentConfig",
    "TrialRecord",
    "build_estimate",
    "default_steering_grid",
    "load_experiment_config",
    "run_experiment",
]


# Budget of a pass, counted as the matrix elements of its training and
# bases: N * (N + K) a cell, so at most 81 to 54 cells a pass at N = 20 and
# K = 20 to 40, 5 at N = 64 and K = 128 (so that the passes still share
# numpy's fixed cost per call), and 16 at N = 4 and K = 1000.  A pass also
# holds its (B, N, N) sample covariances, their concatenation, G and the
# output of eigh, so at K near N its footprint is several times the count.
_PASS_ELEMENTS = 2**16

# Budget of one scoring call, counted as the elements of its (b, E, N, S)
# filters y = w0 / lambdas: 3 cells a call at N = 20, seven estimators and
# the 19-angle grid, 1 at N = 64, so that a call's temporaries stay in cache.
_SCORE_ELEMENTS = 2**13


class _Pass(NamedTuple):
    """What an estimator pass reads, one row per ``(k, trial)`` cell: the
    ``(B, N)`` spectra ``d`` and their ``(B, N, N)`` bases ``v``; each row's
    ``(N, K)`` training ``z``; ``log_lr0``, a ``(B,)`` array of each row's,
    or one float for every row; and the sweep's settings for the selectors.
    ``RCML_EL_SIGMA`` reads each row's basis, training and ``log lr0``."""

    d: np.ndarray
    v: np.ndarray
    z: list[np.ndarray] | None
    sigma2: float
    log_lr0: np.ndarray | float | None
    r_init: int | None
    nmf_steering: np.ndarray | None


class _Estimator(NamedTuple):
    takes_param: bool
    needs_lr0: bool
    # (pass, param) -> (lambdas, constraints), one row of each per cell
    rows: Callable[[_Pass, float | None], tuple[np.ndarray, list[ConstraintRecord]]]


def _cncml_el_rows(p: _Pass):
    sel = _kmax_rows(p.d, p.sigma2, p.log_lr0)
    return sel.lambdas, [ConstraintRecord(sigma2=p.sigma2, kmax=k) for k in sel.kmax_hat.tolist()]


def _joint_rows(p: _Pass):
    """RCML at each row's jointly selected rank and noise power, the joint
    core running row by row on the row's basis, training and log lr0 and
    returning the row's estimate with its selection."""
    lambdas, constraints = np.empty_like(p.d), []
    log_lr0 = np.full(len(p.d), p.log_lr0).tolist()
    for i, (d, v, z, row_lr0) in enumerate(zip(p.d, p.v, p.z, log_lr0)):
        sel, lambdas[i] = _rank_sigma_row(d, v, p.r_init, row_lr0, z, p.nmf_steering)
        constraints.append(ConstraintRecord(r=sel.r_hat, sigma2=sel.sigma2_hat))
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
        lambda p, _: _rcml_rows(p.d, p.sigma2, _rank_rows(p.d, p.sigma2, p.log_lr0)[0].tolist()),
    ),
    "RCML_EL_SIGMA": _Estimator(False, True, lambda p, _: _joint_rows(p)),
    "CNCML_ML": _Estimator(False, False, lambda p, _: _cncml_ml_rows(p.d, p.sigma2)),
    "CNCML_FIXED": _Estimator(
        True, False, lambda p, kmax: _cncml_rows(p.d, p.sigma2, float(kmax))
    ),
    "CNCML_EL": _Estimator(False, True, lambda p, _: _cncml_el_rows(p)),
    "LSMI_EL": _Estimator(
        False, True, lambda p, _: _lsmi_rows(p.d, _loading_rows(p.d, p.log_lr0)[0])
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
        if self.master_seed < 0:
            raise InputError(f"master_seed must be non-negative, got {self.master_seed}")
        if not math.isfinite(self.nmf_angle):
            raise InputError(f"nmf_angle must be finite, got {self.nmf_angle}")
        if self.steering_grid is not None and not all(map(math.isfinite, self.steering_grid)):
            raise InputError("steering grid angles must be finite")
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
        if self.r_init is not None and not 0 <= self.r_init < self.scenario.n:
            raise InputError(f"r_init {self.r_init} outside [0, {self.scenario.n - 1}]")
        needing = [str(spec) for spec in self.estimators if _ESTIMATORS[spec.name].needs_lr0]
        if needing and self.lr0_table_path is None and not self.autocompute_lr0:
            raise InputError(f"{', '.join(needing)} need lr0, but autocompute is disabled "
                             "and no lr0 table is set")


@dataclass
class TrialRecord:
    """Result of one (k, trial, estimator) cell.

    ``wall_time`` is the estimator's share of its pass, that pass's time
    over its ``B`` cells, whatever their sample counts, plus an equal share
    of the scoring call of the cell's block, that call's time over its
    ``b`` cells times ``E`` estimators.  The pass's shared draws, ``eigh``
    and eigenbasis projections are not in it, nor is stacking its estimates
    for scoring.  It is informational only and kept out of the CSV files so
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
    dropped, and +-90 degrees, which give one steering vector, count as one
    direction.  A jammer's arrival direction is its in-range alias: an angle
    past 90 degrees arrives as ``arcsin(sin angle)``, and a radian-mode
    phase is wrapped into ``[-pi, pi]`` and mapped back to the equivalent
    arrival angle.  Angles already in range are compared as given.
    """
    grid = np.linspace(-90.0, 90.0, 19)
    jam_arrivals = []
    for angle in scenario.jammer_angles:
        if scenario.angle_mode == "degrees":
            if abs(angle) > 90.0:
                angle = float(np.rad2deg(np.arcsin(np.sin(np.deg2rad(angle)))))
        else:
            if abs(angle) > math.pi:
                angle = math.remainder(angle, 2.0 * math.pi)
            angle = float(np.rad2deg(np.arcsin(np.clip(angle / np.pi, -1.0, 1.0))))
        jam_arrivals.append(angle)
    keep = [a for a in grid if all(abs(a - j) > 1.0 and (abs(a) < 90.0 or abs(a + j) > 1.0)
                                   for j in jam_arrivals)]
    return tuple(float(a) for a in keep)


def build_estimate(
    spec: EstimatorSpec, stats: SampleStats, lr0=None, joint=None
) -> CovarianceEstimate:
    """Estimate named by ``spec``, built as a pass of one trial; ``lr0``
    feeds the selectors and ``joint``, ``(r_init, training, nmf_steering)``,
    feeds ``RCML_EL_SIGMA`` only, taken as a sweep builds them.  Raises
    :class:`InputError` when the estimator needs either and it is missing,
    and on a given lr0 outside ``(0, 1]``, whether or not the estimator reads it."""
    if lr0 is None and _ESTIMATORS[spec.name].needs_lr0:
        raise InputError(f"estimator {spec} needs lr0")
    if joint is None and spec.name == "RCML_EL_SIGMA":
        raise InputError(f"estimator {spec} needs joint = (r_init, training, nmf_steering)")
    r_init, z, nmf_steering = joint if joint is not None else (None, None, None)
    one = _Pass(stats.d[np.newaxis], stats.s_eig.eigenvectors[np.newaxis],
                None if z is None else [np.asarray(z)], stats.sigma2,
                None if lr0 is None else _log(lr0), r_init, nmf_steering)
    return _one_row(stats, *_ESTIMATORS[spec.name].rows(one, spec.param))


def _timed(spec: EstimatorSpec, p: _Pass):
    """``spec``'s map over the pass ``p``, and its time per row."""
    start = time.perf_counter()
    lambdas, constraints = _ESTIMATORS[spec.name].rows(p, spec.param)
    return lambdas, constraints, (time.perf_counter() - start) / len(p.d)


def _passes(n: int, cells: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """The ``(k, trial)`` cells in order, split into passes: each pass takes
    cells while its training and bases, ``N (N + K)`` elements a cell, stay
    within the budget, and takes at least one."""
    passes, size = [], _PASS_ELEMENTS
    for cell in cells:
        elements = n * (n + cell[0])
        if size + elements > _PASS_ELEMENTS:
            passes.append([])
            size = 0
        passes[-1].append(cell)
        size += elements
    return passes


def _eigenbasis_projections(v, r_true, steer):
    """``W0 = V^H steer`` and the symmetrized ``G = V^H R V`` for a stack of
    bases ``V``."""
    vh = v.conj().swapaxes(-1, -2)
    g = vh @ r_true @ v
    return vh @ steer, 0.5 * (g + g.conj().swapaxes(-1, -2))


def _sinr_scorer(lambdas, w0, g, den_true) -> np.ndarray:
    """Mean normalized SINR in dB over the steering grid of each estimate in
    a ``(..., E, N)`` stack of estimate eigenvalues, the ``E`` estimates of
    each cell on its one basis ``V``: a cell's ``(E, N)``, or a block's
    ``(b, E, N)`` with ``(b, N, S)`` and ``(b, N, N)`` projections.

    With ``w0 = V^H s``, ``G = V^H R V`` and ``y = w0 / lambdas``, the filter
    ``x = V y`` has ``s^H x = sum |w0|^2 / lambdas`` and ``x^H R x = y^H G y``.
    Each estimate's score equals its score alone, bit for bit, whatever the
    stack.
    """
    if not (lambdas > 0).all():  # also catches NaN, for which `<= 0` is false
        raise SingularMatrixError("estimate has a non-positive or NaN eigenvalue")
    q = 1.0 / lambdas
    w0, g = w0[..., np.newaxis, :, :], g[..., np.newaxis, :, :]  # broadcast over E
    w2 = np.abs(w0) ** 2
    # stacks of per-estimate products, one (1, N) @ (N, S) matvec for num and
    # one (N, N) @ (N, S) gemm for G y: a single (E, N) @ (N, S) product, or
    # one over a block's cells, rounds differently
    num = (q[..., np.newaxis, :] @ w2)[..., 0, :]
    y = w0 * q[..., np.newaxis]
    den = (y.conj() * (g @ y)).sum(axis=-2).real
    db = 10.0 * np.log10(num**2 / (den * den_true))
    return db.sum(axis=-1) / db.shape[-1]  # np.mean's sum and division, without its overhead


def _score_pass(estimates, w0, g, den_true) -> tuple[list[list[float]], list[float]]:
    """Scores of a pass's ``(B, E, N)`` estimates, a list of each cell's
    ``E``, one :func:`_sinr_scorer` call per block of cells, and each cell's
    share of its block's time per estimate: the block's time over its
    ``b E`` scores.  A block takes ``_SCORE_ELEMENTS // (E N S)`` cells, and
    at least one."""
    cells, e, n = estimates.shape
    step = max(1, _SCORE_ELEMENTS // (e * n * len(den_true)))
    sinr_db, shares = [], []
    for lo in range(0, cells, step):
        block = slice(lo, lo + step)
        start = time.perf_counter()
        db = _sinr_scorer(estimates[block], w0[block], g[block], den_true)
        seconds = time.perf_counter() - start
        sinr_db += db.tolist()
        shares += [seconds / db.size] * len(db)
    return sinr_db, shares


def run_experiment(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Run the configured sweep and write trials.csv plus summary.csv.

    Returns the per-trial records.  Output lands under ``cfg.output_path``
    (created if needed).
    """
    scenario = cfg.scenario
    n = scenario.n
    r_true = jammer_covariance(scenario)
    factor = sqrt_factor(r_true)
    angles = default_steering_grid(scenario) if cfg.steering_grid is None else cfg.steering_grid
    if not angles:
        raise InputError("steering grid is empty")
    steer = np.column_stack([steering_vector(n, a) for a in angles])
    den_true = np.abs(np.sum(steer.conj() * apply_inverse(r_true, steer), axis=0))

    needs_lr0 = any(_ESTIMATORS[spec.name].needs_lr0 for spec in cfg.estimators)
    # one log lr0 per sample count, so every row of that k sees the same float
    log_lr0_by_k = {k: lr0_lookup(n, k, cfg.lr0_table_path, cfg.autocompute_lr0).log_lr0
                    for k in cfg.k_list if needs_lr0}

    r_init = cfg.r_init if cfg.r_init is not None else scenario.jammer_count
    nmf_steering = steering_vector(n, cfg.nmf_angle)

    names = [str(spec) for spec in cfg.estimators]
    records: list[TrialRecord] = []
    cells = [(k, trial) for k in cfg.k_list for trial in range(cfg.trials)]
    for cells_of_pass in _passes(n, cells):
        # the pass's runs of one sample count: a training draw and its
        # sample covariances each
        zs, covariances = [], []
        for k, run in itertools.groupby(cells_of_pass, key=lambda cell: cell[0]):
            rngs = [derive_rng(cfg.master_seed, "trial", k, trial) for _, trial in run]
            z, _ = _draw_rows(factor, k, cfg.corruption, rngs)
            zs += list(z)
            covariances.append(sample_covariance(z))
        d, v = _eigh_desc(np.concatenate(covariances))
        w0, g = _eigenbasis_projections(v, r_true, steer)
        p = _Pass(d, v, zs, scenario.noise_power,
                  np.array([log_lr0_by_k[k] for k, _ in cells_of_pass]) if needs_lr0 else None,
                  r_init, nmf_steering)
        # per estimator: (lambdas, constraints, seconds per cell) of its pass
        built = [_timed(spec, p) for spec in cfg.estimators]
        estimates = np.stack([lam for lam, _, _ in built], axis=1)  # (B, E, N)
        sinr_db, score_shares = _score_pass(estimates, w0, g, den_true)
        for i, ((k, trial), sinr_row, share) in enumerate(
                zip(cells_of_pass, sinr_db, score_shares)):
            for name, (_, constraints, build), sinr in zip(names, built, sinr_row):
                con = constraints[i]
                records.append(TrialRecord(trial, k, name, con.r, con.sigma2, con.kmax,
                                           con.beta, sinr, build + share))
        # free this pass's arrays before the next pass allocates its own
        del p, zs, covariances, d, v, w0, g, estimates
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
        writer.writerows(
            [rec.k, rec.trial_index, rec.estimator, _fmt(rec.r_hat), _fmt(rec.sigma2_hat),
             _fmt(rec.kmax_hat), _fmt(rec.beta_hat), _fmt(rec.sinr_db)]
            for rec in records
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


def _floats(text: str) -> tuple[float, ...]:
    items = [tok.strip() for tok in text.split(",")]
    return tuple(float(tok) for tok in items if tok)


def _sample_counts(text: str) -> tuple[int, ...]:
    counts = _floats(text)
    for v in counts:
        if not v.is_integer():  # also false for inf and NaN
            raise InputError(f"k_list entries must be finite whole numbers, got {v:g}")
    return tuple(int(v) for v in counts)


def _specs(text: str) -> tuple[EstimatorSpec, ...]:
    return tuple(EstimatorSpec.parse(tok) for tok in text.split(",") if tok.strip())


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"Not a boolean: {text}")
    return states[text.lower()]


def _corruption(n: int, fraction: float, amplitude: float, **angle) -> CorruptionSpec:
    """The ``[corruption]`` spec: its ``angle``, if set, is the arrival angle
    in degrees of the ``steering`` field, as :func:`steering_vector` takes it."""
    return CorruptionSpec(fraction, amplitude, steering_vector(n, **angle))


# section -> key -> (the field it sets, its conversion from the file's text)
_CONFIG_SCHEMA = {
    "scenario": {
        "n": ("n", int), "noise_power": ("noise_power", float),
        "jammer_powers": ("jammer_powers", _floats), "jammer_angles": ("jammer_angles", _floats),
        "jammer_bandwidths": ("jammer_bandwidths", _floats),
        "sinc_convention": ("sinc_convention", str), "angle_mode": ("angle_mode", str),
    },
    "experiment": {
        "k_list": ("k_list", _sample_counts), "trials": ("trials", int),
        "master_seed": ("master_seed", int), "estimators": ("estimators", _specs),
        "output": ("output_path", str), "lr0_table": ("lr0_table_path", str),
        "autocompute": ("autocompute_lr0", _boolean), "steering_grid": ("steering_grid", _floats),
        "nmf_angle": ("nmf_angle", float), "r_init": ("r_init", int),
    },
    # angle is no field: _corruption turns it into the steering vector
    "corruption": {"fraction": ("fraction", float), "amplitude": ("amplitude", float),
                   "angle": ("angle_deg", float)},
}

# the keys each section must set: those whose field has no default
_REQUIRED = {
    section: [key for key, (name, _) in _CONFIG_SCHEMA[section].items()
              if any(f.name == name and f.default is MISSING and f.default_factory is MISSING
                     for f in fields(cls))]
    for section, cls in (("scenario", ScenarioConfig), ("experiment", ExperimentConfig),
                         ("corruption", CorruptionSpec))
}


def _section(parser: configparser.ConfigParser, name: str, build, **given):
    """``build(**given)`` plus the keys of ``[name]`` that the file sets, each
    converted onto its field, so an absent key takes its field's default."""
    section = parser[name]
    for key in _REQUIRED[name]:
        if key not in section:
            raise InputError(f"missing required key {key!r} in [{name}]")
    schema = _CONFIG_SCHEMA[name]
    try:
        for key, text in section.items():
            field, convert = schema[key]
            given[field] = convert(text)
        return build(**given)
    except (ValueError, configparser.Error) as exc:  # an interpolation error on a '%'
        raise InputError(f"bad [{name}] value: {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    """Parse a line-oriented ``key = value`` experiment configuration file.

    Sections are ``[scenario]``, ``[experiment]`` and optionally
    ``[corruption]``; unknown sections or keys are hard errors so sweep
    typos fail fast rather than silently using defaults.  Each key sets one
    field of :class:`ScenarioConfig`, :class:`ExperimentConfig` or
    :class:`CorruptionSpec` (``_CONFIG_SCHEMA``); a key the file leaves out
    takes its field's default, and one whose field has none is required.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if not parser.read(path, encoding="utf-8"):
            raise InputError(f"config file {path!r} not found or unreadable")
    except UnicodeDecodeError as exc:
        raise InputError(f"config file {path!r} is not UTF-8 text ({exc.reason})") from exc
    except configparser.Error as exc:  # its messages span lines; the CLI prints one
        raise InputError(f"config file {path!r}: {' '.join(str(exc).split())}") from exc
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise InputError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _CONFIG_SCHEMA[section]:
                raise InputError(f"unknown key {key!r} in section [{section}]")
            if "\n" in parser.get(section, key, raw=True):
                raise InputError(f"value of {key!r} in section [{section}] spans lines")
    for required in ("scenario", "experiment"):
        if required not in parser:
            raise InputError(f"missing required config section [{required}]")

    scenario = _section(parser, "scenario", ScenarioConfig)
    config = _section(parser, "experiment", ExperimentConfig, scenario=scenario)
    if "corruption" in parser:
        config.corruption = _section(parser, "corruption", _corruption, n=scenario.n)
    return config
