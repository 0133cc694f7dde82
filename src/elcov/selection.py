"""Automatic constraint selection by matching a reference likelihood ratio.

Each selector tunes one imperfectly known constraint (clutter rank, noise
power, condition-number bound, or diagonal loading) so the likelihood ratio
of the resulting estimate lands as close as possible to the precomputed
invariant median ``lr0``.  The LR is monotone in each constraint, so each
match is a closed form or one bracketed root.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .estimators import CovarianceEstimate, SampleStats, _CnPath, _TailSums, _cn_estimate
from .exceptions import InputError, NoRootError, NumericalError
from .hermitian import EigenDecomposition
from .likelihood import (
    LambertBranch,
    _BRANCH_POINT,
    lambert_w,
    log_lr_value,
)

__all__ = [
    "JointSelection",
    "KmaxSelection",
    "NoiseRoots",
    "RankSelection",
    "select_kmax",
    "select_loading",
    "select_rank",
    "select_rank_sigma",
    "sigma_el_roots",
    "sigma_ml",
]


@dataclass
class RankSelection:
    """Selected rank plus the LR at every rank ``0..p`` (``p = #{d_i > sigma2}``)."""

    r_hat: int
    visited: list[tuple[int, float]]
    lr0: float


def _rank_log_lr(d: np.ndarray, sigma2: float) -> np.ndarray:
    """Log LR of the rank-``r`` estimate at noise power ``sigma2`` for every
    ``r`` in ``0..p`` (``p = #{d_i > sigma2}``), as suffix sums."""
    x = d / sigma2
    p = int(np.count_nonzero(x > 1.0))
    with np.errstate(divide="ignore"):
        terms = np.log(x) + 1.0 - x
    return np.append(np.cumsum(terms[::-1])[::-1], 0.0)[: p + 1]


def select_rank(stats: SampleStats, lr0: float) -> RankSelection:
    """Pick the rank whose constrained-estimate LR is closest to ``lr0``.

    Ranks at or above ``p = #{d_i > sigma2}`` all give the FML estimate.  For
    ``r <= p`` the log LR is the suffix sum
    ``sum_{i >= r} [log(d_i/sigma2) + 1 - d_i/sigma2]`` (the tail profile at
    ``t = sigma2``), so every rank is scored at once and the first argmin of
    ``|log lr(r) - log lr0|`` over ``0..p`` is the global optimum with ties,
    including equal-estimate plateaus, resolved to the smallest rank.  The
    mismatch is taken on log LR because the LR changes by orders of
    magnitude per rank step around the effective rank.
    """
    if not 0 < lr0 <= 1:
        raise InputError("lr0 must lie in (0, 1]")
    log_lr = _rank_log_lr(stats.d, stats.sigma2)
    r_hat = int(np.argmin(np.abs(log_lr - math.log(lr0))))
    visited = [(r, math.exp(v)) for r, v in enumerate(log_lr.tolist())]
    return RankSelection(r_hat=r_hat, visited=visited, lr0=lr0)


def sigma_ml(sample_lambdas, r: int) -> float:
    """ML noise power for rank ``r``: mean of the ``N - r`` trailing eigenvalues."""
    d = np.asarray(sample_lambdas, dtype=float)
    if not 0 <= r < len(d):
        raise InputError(f"rank {r} outside [0, {len(d) - 1}]; the trailing mean needs r < N")
    return float(np.mean(d[r:]))


@dataclass
class NoiseRoots:
    """Noise powers whose tail-profile LR equals the reference.

    ``count`` follows the peak trichotomy: 0 when the reference exceeds the
    attainable maximum, 1 at the peak itself, else 2 roots bracketing the
    ML noise power.
    """

    count: int
    roots: tuple[float, ...]
    sigma_ml: float


def sigma_el_roots(sample_lambdas, r: int, lr0: float) -> NoiseRoots:
    """Closed-form noise-power roots of ``lr(t) = lr0`` for a fixed rank.

    The tail-profile LR peaks at the trailing-mean noise power; when two
    roots exist they are obtained from the two real Lambert W branches of
    the transformed equation.  The trailing eigenvalues ``d[r:]`` must be
    non-negative; a zero among them sends the peak to ``-inf`` (no roots).
    """
    if not 0 < lr0 <= 1:
        raise InputError("lr0 must lie in (0, 1]")
    d = np.asarray(sample_lambdas, dtype=float)
    if not 0 <= r < len(d):
        raise InputError(f"rank {r} outside [0, {len(d) - 1}]; the trailing mean needs r < N")
    tail = d[r:]
    m = len(tail)
    if (tail < 0).any():
        raise InputError("trailing eigenvalues must be non-negative")
    b = float(tail.sum())
    s_ml = b / m
    if not s_ml > 0:
        raise InputError("trailing eigenvalues sum to zero; noise power is unidentifiable")
    with np.errstate(divide="ignore"):
        log_peak = float(np.log(tail / s_ml).sum() + m - b / s_ml)
    log_lr0 = math.log(lr0)
    if abs(log_lr0 - log_peak) <= 1e-10:
        return NoiseRoots(count=1, roots=(s_ml,), sigma_ml=s_ml)
    if log_lr0 > log_peak:
        return NoiseRoots(count=0, roots=(), sigma_ml=s_ml)

    a = float(-m)
    c = log_lr0 - float(np.log(tail).sum()) + a
    z = (b / a) * math.exp(-c / a)
    # rounding can push z a hair below the branch point when lr0 ~ peak
    z = max(z, _BRANCH_POINT)
    hi = math.exp(lambert_w(LambertBranch.PRINCIPAL, z) + c / a)
    lo = math.exp(lambert_w(LambertBranch.LOWER, z) + c / a)
    roots = (min(lo, hi), max(lo, hi))
    return NoiseRoots(count=2, roots=roots, sigma_ml=s_ml)


def _nmf_scorer(s_eig: EigenDecomposition, steering, training):
    """Mean matched filter statistic over the ``training`` columns of any
    estimate on the basis ``V`` of ``s_eig``, as a function of its eigenvalues;
    ``V^H s`` and ``V^H Z`` are projected once for all of them.  A ``(C, N)``
    stack of eigenvalue rows is scored in one product, giving ``C`` means."""
    v_h = s_eig.eigenvectors.conj().T
    ws, w = v_h @ steering, v_h @ training
    ws_conj, ws2, w2 = ws.conj(), np.abs(ws) ** 2, np.abs(w) ** 2

    def mean_nmf(lambdas):
        q = 1.0 / lambdas
        nmf = np.abs((q * ws_conj) @ w) ** 2 / ((q @ ws2)[..., None] * (q @ w2))
        means = np.mean(nmf, axis=-1)
        return float(means) if means.ndim == 0 else means

    return mean_nmf


@dataclass
class JointSelection:
    """Jointly selected rank and noise power."""

    r_hat: int
    sigma2_hat: float
    chosen_from: str
    iterations: int


def select_rank_sigma(
    s_eig: EigenDecomposition,
    k: int,
    r_init: int,
    lr0: float,
    training: np.ndarray,
    steering: np.ndarray,
) -> JointSelection:
    """Alternating selection of rank and noise power, in one pass.

    The inputs are checked once, up front: dimension at least 2 so the
    trailing mean stays defined, ``k >= 1``, a descending and positive
    spectrum, nonzero training columns and a unit-norm steering vector.

    Each rank is climbed to the smallest rank at or above it whose noise
    power roots exist (at most ``n - 1``): those whose tail-profile peak
    ``sum_{i >= r} log d_i - (n - r) log sigma_ml(r)`` reaches ``log lr0``,
    found for every rank in one pass over the tail prefix sums.  Starting
    from the climbed ``r_init`` it repeats: set the noise power to the
    trailing mean, re-select the rank at that noise power with
    :func:`select_rank`'s suffix sums and climb it, until the climbed rank
    stops falling.  It cannot rise (a climbed rank has roots, so its LR
    reaches ``lr0`` and the re-selected rank is at most it), so this takes
    at most ``n`` passes.

    :func:`sigma_el_roots` then runs once, at the final rank.  The
    noise-power candidates (the ML value plus up to two matching roots) are
    scored by the mean matched filter statistic over the target-free
    training columns: the RCML eigenvalues of every candidate form one
    ``(C, N)`` stack, scored in one product against ``V^H Z``, which is
    projected once.  The smallest mean wins, ties going to the earlier of
    ML, EL1, EL2; at rank 0 every candidate is ``sigma2 I``, so the ML value
    is the only one.
    """
    n = s_eig.n
    d = s_eig.eigenvalues
    if n < 2:
        raise InputError("joint rank and noise selection needs dimension >= 2")
    if k < 1:
        raise InputError("sample count k must be at least 1")
    if not 0 < lr0 <= 1:
        raise InputError("lr0 must lie in (0, 1]")
    if (d[1:] > d[:-1]).any():
        raise InputError("sample eigenvalues must be sorted descending")
    training = np.asarray(training, dtype=np.complex128)
    if training.ndim != 2 or training.shape[0] != n or training.shape[1] < 1:
        raise InputError("training must be an n-by-k matrix with at least one column")
    if not training.any(axis=0).all():
        raise InputError("training columns must be nonzero")
    steering = np.asarray(steering, dtype=np.complex128)
    if steering.shape != (n,) or abs(np.linalg.norm(steering) - 1.0) > 1e-6:
        raise InputError("steering must be a unit-norm length-n vector")
    if not d[-1] > 0:
        raise InputError("sample eigenvalues must be positive; noise power is unidentifiable")

    log_lr0 = math.log(lr0)
    # over the m = n - r smallest entries, for r = 0..n-1
    asc, m = d[::-1], np.arange(n, 0, -1)
    peak = np.log(asc).cumsum()[::-1] - m * np.log(asc.cumsum()[::-1] / m)
    # sigma_el_roots' own test for roots; rank n - 1 has them, its peak being 0
    first = np.where(peak >= log_lr0 - 1e-10, np.arange(n), n - 1)
    climbed = np.minimum.accumulate(first[::-1])[::-1]

    r = int(climbed[min(max(int(r_init), 0), n - 1)])
    for iterations in range(1, n + 1):
        # the trailing mean, as sigma_ml computes it
        r_hat = int(np.argmin(np.abs(_rank_log_lr(d, float(d[r:].mean())) - log_lr0)))
        r_new = int(climbed[min(r_hat, n - 1)])
        if r_new >= r:
            break
        r = r_new

    roots = sigma_el_roots(d, r, lr0)
    labels, sigmas = ["ML"], [roots.sigma_ml]
    if roots.count == 2 and r > 0:
        labels += ["EL1", "EL2"]
        sigmas += roots.roots
    sig = np.array(sigmas)[:, None]
    if not np.all(sig > 0):  # the check SampleStats made on each candidate
        raise InputError("noise power sigma2 must be positive")
    # the rcml eigenvalues at every candidate noise power
    lambdas = np.repeat(sig, n, axis=1)
    lambdas[:, :r] = np.maximum(d[:r], sig)
    best = int(np.argmin(_nmf_scorer(s_eig, steering, training)(lambdas)))
    return JointSelection(
        r_hat=r, sigma2_hat=sigmas[best], chosen_from=labels[best], iterations=iterations
    )


@dataclass
class KmaxSelection:
    """Condition-number bound whose LR matches the reference.

    ``visited`` holds the breakpoints of the exact LR path plus the root, as
    ``(kmax, lr)`` in descending ``kmax``.  ``final_step`` is the last Newton
    step on ``kmax``; it is 0 when the bound is ``k_ml`` or 1, which are
    returned in closed form.  ``estimate`` is the condition-number estimate
    built at ``kmax_hat``.
    """

    kmax_hat: float
    estimate: CovarianceEstimate
    visited: list[tuple[float, float]]
    final_step: float
    constraint_active: bool = True


_NEWTON_RTOL, _NEWTON_MAX_STEPS = 1e-12, 60  # last relative step on kmax, step cap
_LOADING_TOL, _LOADING_MAX_EVALS = 1e-9, 60  # log-LR mismatch, evaluation cap


def _clip_log_lr(top, bottom, p, c, tau, u, log=np.log):
    """Log LR of ``clip(x, tau, u)``: ``top = (sum log x, sum x)`` over the
    ``p`` entries above ``u``, ``bottom`` likewise over the ``c`` entries
    below ``tau``; the entries in between contribute nothing."""
    return top[0] - p * log(u) + p - top[1] / u + bottom[0] - c * log(tau) + c - bottom[1] / tau


@dataclass
class _KmaxPath:
    """The columns of :meth:`_CnPath.breakpoints` that :func:`select_kmax`
    reads, with the log LR of the estimate at each breakpoint."""

    kmax: np.ndarray
    log_lr: np.ndarray
    top: np.ndarray
    bottom: np.ndarray
    kmax_b: float


def _kmax_path(sums: _TailSums) -> _KmaxPath:
    """Every breakpoint of the CN path and its log LR, in one vector pass."""
    path = _CnPath(sums)
    kmax, top, bottom, tau, u = path.breakpoints()
    with np.errstate(divide="ignore", invalid="ignore"):
        log_lr = _clip_log_lr(
            (sums.log_top[top], sums.top[top]), (sums.log_bottom[bottom], sums.bottom[bottom]),
            top, bottom, tau, u,
        )
    return _KmaxPath(kmax, log_lr, top, bottom, path.kmax_b)


def select_kmax(stats: SampleStats, lr0: float) -> KmaxSelection:
    """Tune the condition-number bound so the estimate's LR matches ``lr0``.

    The LR is non-decreasing in ``kmax``.  The ML bound ``k_ml = d_1 / sigma2``
    (at least 1) is returned when its LR is at or below ``lr0``, flagged
    ``constraint_active=False`` when ``d_1 <= sigma2``; 1 is returned when
    its LR reaches ``lr0``.  Otherwise the root lies on one segment of the
    exact path (:func:`_kmax_path`), where the log LR is closed form:
    ``sum_top [log(x/kmax) + 1 - x/kmax] + const`` on the boundary and
    ``sum_{top,bot} log x + c log kmax - m log((S_top + kmax S_bot)/m)``
    inside (``p`` top and ``c`` bottom entries, ``m = p + c``).  Both are
    concave and increasing in ``log kmax``, with slope ``g(U)``, so Newton
    steps from the segment's lower end rise monotonically to the root; they
    stop once a step is below ``1e-12`` relative.  The estimate is the cap
    map of the selected bound's segment; nothing is solved a second time.
    """
    if not 0 < lr0 <= 1:
        raise InputError("lr0 must lie in (0, 1]")
    log_lr0 = math.log(lr0)
    x = stats.d / stats.sigma2
    sums = _TailSums(x)
    path = _kmax_path(sums)
    visited = list(zip(path.kmax.tolist(), np.exp(path.log_lr).tolist()))
    if x[0] <= 1.0 or path.log_lr[0] <= log_lr0:
        k_ml = float(path.kmax[0])
        estimate = _cn_estimate(stats, k_ml, 0, int(path.bottom[0]))
        return KmaxSelection(k_ml, estimate, visited, 0.0, bool(x[0] > 1.0))

    at_one = bool(path.log_lr[-1] >= log_lr0)
    # the root lies in [kmax[i], kmax[i-1]]; at kmax = 1 it is the last segment
    i = len(path.kmax) - 1 if at_one else int(np.argmax(path.log_lr <= log_lr0))
    k_lo, k_hi = float(path.kmax[i]), float(path.kmax[i - 1])
    p, c = int(path.top[i - 1]), int(path.bottom[i - 1])
    top = float(sums.log_top[p]), float(sums.top[p])
    bottom = float(sums.log_bottom[c]), float(sums.bottom[c])
    interior = k_lo < path.kmax_b and p + c > 0  # the flat segment clips nothing

    def log_lr_slope(km: float) -> tuple[float, float]:
        """Log LR on this segment and its slope ``g(U)`` in ``log kmax``."""
        u = (top[1] + km * bottom[1]) / (p + c) if interior else km
        tau = u / km if interior else 1.0
        return _clip_log_lr(top, bottom, p, c, tau, u, math.log), top[1] / u - p

    km, step, t_hi = k_lo, 0.0, math.log(k_hi)
    for _ in range(0 if at_one else _NEWTON_MAX_STEPS):
        val, slope = log_lr_slope(km)
        if val >= log_lr0 or slope <= 0.0:
            break
        dt = min((log_lr0 - val) / slope, t_hi - math.log(km))
        km_new = km * math.exp(dt)
        step, km = km_new - km, km_new
        if dt <= _NEWTON_RTOL:
            break
    kmax_hat = min(max(km, 1.0), float(path.kmax[0]))
    if k_lo < kmax_hat < k_hi:
        visited.insert(i, (kmax_hat, math.exp(log_lr_slope(kmax_hat)[0])))
    a = sums.top[p] + kmax_hat * sums.bottom[c]
    u = min((p + c) / a, 1.0 / kmax_hat) if interior else None
    return KmaxSelection(kmax_hat, _cn_estimate(stats, kmax_hat, p, c, u), visited, step)


def select_loading(stats: SampleStats, lr0: float) -> float:
    """Diagonal loading factor whose loaded-sample LR matches ``lr0``.

    On ``x = log beta`` the log LR of ``beta I + S`` is decreasing and
    concave, with slope ``-sum t_i^2`` and curvature ``-2 sum t_i^2 (1 - t_i)``
    for ``t_i = beta / (d_i + beta)``.  Halley steps on ``x`` start at a
    closed-form lower bound of the root, bisect whenever a step leaves the
    bracket and stop at ``|log lr - log lr0| <= 1e-9``.  Raises
    :class:`NoRootError` for a singular sample covariance or when no finite
    loading reaches ``lr0``.
    """
    if not 0 < lr0 < 1:
        raise InputError("lr0 must lie strictly inside (0, 1) for loading selection")
    d = stats.d
    if d[-1] <= 0:
        raise NoRootError("sample covariance is singular; the loaded LR is identically zero")
    log_lr0 = math.log(lr0)
    a, n, log_d_min, ratio = -log_lr0, len(d), math.log(d[-1]), d[-1] / d
    # -log lr <= min(beta^2 sum(d_i^-2) / 2, N log(1 + beta / d_N)) bounds the
    # root below and log lr <= N (1 - log beta) + sum(log d_i) above; x_hi has
    # a spare nat so that a step onto a tight bound (flat d) stays inside
    x_lo = max(
        log_d_min + 0.5 * math.log(2.0 * a / float(ratio @ ratio)),
        log_d_min + a / n + math.log(-math.expm1(-a / n)),
    )
    if x_lo > math.log(sys.float_info.max):
        raise NoRootError(f"no finite loading factor reaches lr0={lr0}")
    x_hi = min(2.0 + (float(np.log(d).sum()) + a) / n, math.log(sys.float_info.max))
    x = x_lo
    for _ in range(_LOADING_MAX_EVALS):
        beta = math.exp(x)
        f = log_lr_value(d + beta, d) - log_lr0
        if abs(f) <= _LOADING_TOL:
            return beta
        if f > 0.0:
            x_lo = x
        elif x == x_lo:  # only the first point, the lower bound, can sit on x_lo
            raise NumericalError("loaded LR is not monotone in the loading factor")
        else:
            x_hi = x
        t = beta / (d + beta)
        tt = t * t
        slope = -float(tt.sum())
        den = 2.0 * slope * slope - 2.0 * f * (slope + float(tt @ t))
        x_new = x - 2.0 * f * slope / den if den > 0.0 else math.nan
        x = x_new if x_lo < x_new < x_hi else 0.5 * (x_lo + x_hi)
    raise NumericalError("loading search failed to reach the log-LR tolerance")
