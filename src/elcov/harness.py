"""Monte Carlo experiment runner with seeded reproducibility and CSV output.

A run sweeps sample counts and estimator specs over independent trials.
For each sample count the trials run in blocks of at most
:func:`_block_size` trials.  A block draws each trial's training from the
scenario's true covariance with the trial's own seeded stream, then makes
one stacked pass for the whole block: the sample covariances, their
descending ``eigh`` with pinned phases, and the projections onto each
eigenbasis that SINR scoring needs.  Each trial then applies every
estimator (running its constraint selector when the spec asks for one)
and scores all its estimates in one call, by normalized SINR averaged over
a steering grid in the trial's sample eigenbasis.  Every stacked result
equals its per-trial form bit for bit, so blocking changes no output, and
identical configuration and master seed reproduce the output CSVs byte for
byte.
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

from .estimators import CovarianceEstimate, SampleStats, cncml, fml, lsmi, rcml, smi
from .exceptions import InputError, SingularMatrixError
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
from .selection import select_kmax, select_loading, select_rank, select_rank_sigma

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


class _Estimator(NamedTuple):
    takes_param: bool
    needs_lr0: bool
    build: Callable[..., CovarianceEstimate]  # (stats, param, lr0, joint)


def _rcml_el_sigma(stats, param, lr0, joint):
    r_init, training, nmf_steering = joint
    sel = select_rank_sigma(stats.s_eig, stats.k, r_init, lr0, training, nmf_steering)
    return rcml(replace(stats, sigma2=sel.sigma2_hat), sel.r_hat)


# the one estimator dispatch; the CLI's estimate command uses it too
_ESTIMATORS = {
    "SMI": _Estimator(False, False, lambda s, p, lr0, j: smi(s)),
    "FML": _Estimator(False, False, lambda s, p, lr0, j: fml(s)),
    "RCML_FIXED": _Estimator(True, False, lambda s, p, lr0, j: rcml(s, int(p))),
    "RCML_EL": _Estimator(False, True, lambda s, p, lr0, j: rcml(s, select_rank(s, lr0).r_hat)),
    "RCML_EL_SIGMA": _Estimator(False, True, _rcml_el_sigma),
    "CNCML_ML": _Estimator(
        False, False, lambda s, p, lr0, j: cncml(s, max(float(s.d[0] / s.sigma2), 1.0))
    ),
    "CNCML_FIXED": _Estimator(True, False, lambda s, p, lr0, j: cncml(s, float(p))),
    "CNCML_EL": _Estimator(False, True, lambda s, p, lr0, j: select_kmax(s, lr0).estimate),
    "LSMI_EL": _Estimator(False, True, lambda s, p, lr0, j: lsmi(s, select_loading(s, lr0))),
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
    lr0_trials: int = 20000
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
    its trial's one scoring call; the block's shared draw, ``eigh`` and
    eigenbasis projections are not in it.  It is informational only and
    kept out of the CSV files so reruns stay byte-identical.
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


def _lr0_seed(master_seed: int, n: int, k: int) -> int:
    ss = np.random.SeedSequence([int(master_seed), 0x6C7230, int(n), int(k)])
    return int(ss.generate_state(1)[0])


def build_estimate(
    spec: EstimatorSpec, stats: SampleStats, lr0=None, joint=None
) -> CovarianceEstimate:
    """Estimate named by ``spec``; ``lr0`` feeds the selectors and ``joint``,
    ``(r_init, training, nmf_steering)``, feeds ``RCML_EL_SIGMA`` only."""
    return _ESTIMATORS[spec.name].build(stats, spec.param, lr0, joint)


def _block_size(n: int, k: int) -> int:
    """Trials per block: as many ``N x max(N, K)`` matrices as fit the budget."""
    return max(1, _BLOCK_ELEMENTS // (n * max(n, k)))


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
        k: lr0_lookup(n, k, cfg.lr0_table_path, cfg.lr0_trials,
                      _lr0_seed(cfg.master_seed, n, k), cfg.autocompute_lr0)
        if needs_lr0 else None
        for k in cfg.k_list
    }

    r_init = cfg.r_init if cfg.r_init is not None else scenario.jammer_count
    nmf_steering = steering_vector(n, cfg.nmf_angle)

    records: list[TrialRecord] = []
    for k in cfg.k_list:
        block = _block_size(n, k)
        for first in range(0, cfg.trials, block):
            trials = range(first, min(first + block, cfg.trials))
            draws = [
                draw_training(factor, k, cfg.corruption, derive_rng(cfg.master_seed, "trial", k, t))
                for t in trials
            ]
            d, v = _eigh_desc(sample_covariance(np.stack([draw.z for draw in draws])))
            w0, g = _eigenbasis_projections(v, r_true, steer)
            for i, trial in enumerate(trials):
                eig = EigenDecomposition(eigenvalues=d[i], eigenvectors=v[i])
                stats = SampleStats(n=n, k=k, s_eig=eig, sigma2=scenario.noise_power)
                joint = (r_init, draws[i].z, nmf_steering)
                estimates, builds = [], []
                for spec in cfg.estimators:
                    start = time.perf_counter()
                    estimates.append(build_estimate(spec, stats, lr0_by_k[k], joint))
                    builds.append(time.perf_counter() - start)
                start = time.perf_counter()
                sinr_db = _sinr_scorer(
                    np.stack([est.lambdas for est in estimates]), w0[i], g[i], den_true
                )
                score_share = (time.perf_counter() - start) / len(estimates)
                for spec, est, build, sinr in zip(cfg.estimators, estimates, builds, sinr_db):
                    con = est.constraints
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
            lr0_trials=ex.getint("lr0_trials", 20000),
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
