"""Automatic constraint selection by matching a reference likelihood ratio.

Each selector tunes one imperfectly known constraint (clutter rank, noise
power, condition-number bound, or diagonal loading) so the likelihood ratio
of the resulting estimate lands as close as possible to the precomputed
invariant median ``lr0``.  The LR is monotone in each constraint, so each
match is a closed form or one bracketed root.  The public selectors take
``lr0``, a float or an :class:`LRReference`, and check their input, lr0 in
:func:`_log`; the cores trust each
row's ``log lr0``, the joint core (:func:`_rank_sigma_row`) one row, the
others a stack of rows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimators import (
    CovarianceEstimate,
    SampleStats,
    _clip_log_lr,
    _cn_caps,
    _CnTable,
    _one_row,
)
from .exceptions import InputError, NoRootError, NumericalError
from .hermitian import EigenDecomposition
from .likelihood import (
    LambertBranch,
    LRReference,
    _BRANCH_POINT,
    lambert_w,
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
    """Selected rank plus the log LR at every rank ``0..p``
    (``p = #{d_i > sigma2}``), as ``(r, log lr)``."""

    r_hat: int
    visited: list[tuple[int, float]]
    lr0: float | LRReference  # as given


def _log(lr0: float | LRReference) -> float:
    """A public entry's ``lr0`` as the cores take it, ``log lr0``, and the one
    check of lr0: it must lie in ``(0, 1]``, which NaN fails.  A reference
    gives its ``log_lr0``, which stays finite where its lr0 underflows to 0
    (N = K >= 746)."""
    if isinstance(lr0, LRReference):
        log_lr0 = lr0.log_lr0
    else:
        log_lr0 = math.log(lr0) if 0 < lr0 <= 1 else math.nan
    if not -math.inf < log_lr0 <= 0:  # NaN fails too
        raise InputError("lr0 must lie in (0, 1]")
    return log_lr0


def _rank_rows(d: np.ndarray, sigma2: float, log_lr0):
    """Rank selection for each row of a ``(B, N)`` stack of spectra at one
    noise power, against each row's ``log lr0`` (a float for every row, or
    ``(B,)``): the selected ranks ``(B,)``, the log LR table ``(B, N + 1)``
    whose column ``r`` is the rank-``r`` log LR, and ``p = #{d_i > sigma2}``
    per row.  Columns past a row's ``p`` are not candidates.  Raises
    :class:`InputError` on a negative or NaN entry, whose log has no
    meaning; zero entries are allowed."""
    if not (d >= 0).all():  # also catches NaN, for which `< 0` is false
        raise InputError("sample eigenvalues must be non-negative")
    b, n = d.shape
    x = d / sigma2
    p = (x > 1.0).sum(axis=1)
    with np.errstate(divide="ignore"):
        terms = np.log(x) + 1.0 - x
    log_lr = np.zeros((b, n + 1))
    log_lr[:, :n] = terms[:, ::-1].cumsum(axis=1)[:, ::-1]
    miss = np.abs(log_lr - np.asarray(log_lr0).reshape(-1, 1))
    miss[np.arange(n + 1) > p[:, np.newaxis]] = np.inf
    return miss.argmin(axis=1), log_lr, p


def select_rank(stats: SampleStats, lr0: float | LRReference) -> RankSelection:
    """Pick the rank whose constrained-estimate LR is closest to ``lr0``.

    Ranks at or above ``p = #{d_i > sigma2}`` all give the FML estimate.  For
    ``r <= p`` the log LR is the suffix sum
    ``sum_{i >= r} [log(d_i/sigma2) + 1 - d_i/sigma2]`` (the tail profile at
    ``t = sigma2``), so every rank is scored at once and the first argmin of
    ``|log lr(r) - log lr0|`` over ``0..p`` is the global optimum with ties,
    including equal-estimate plateaus, resolved to the smallest rank.  The
    mismatch is taken on log LR because the LR changes by orders of
    magnitude per rank step around the effective rank; ``visited`` lists
    it too, as it underflows the LR itself.
    """
    r_hat, log_lr, p = _rank_rows(stats.d[np.newaxis], stats.sigma2, _log(lr0))
    visited = list(enumerate(log_lr[0, : p[0] + 1].tolist()))
    return RankSelection(r_hat=int(r_hat[0]), visited=visited, lr0=lr0)


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


def sigma_el_roots(sample_lambdas, r: int, lr0: float | LRReference) -> NoiseRoots:
    """Closed-form noise-power roots of ``lr(t) = lr0`` for a fixed rank.

    The tail-profile LR peaks at the trailing-mean noise power; when two
    roots exist they are obtained from the two real Lambert W branches of
    the transformed equation.  The trailing eigenvalues ``d[r:]`` must be
    non-negative and finite, with a finite sum; a zero among them sends the
    peak to ``-inf`` (no roots).  A closed form that overflows the double
    range raises :class:`~elcov.exceptions.NumericalError`.
    """
    log_lr0 = _log(lr0)
    d = np.asarray(sample_lambdas, dtype=float)
    if not 0 <= r < len(d):
        raise InputError(f"rank {r} outside [0, {len(d) - 1}]; the trailing mean needs r < N")
    tail = d[r:]
    if not tail.min() > 0 and (tail < 0).any():
        raise InputError("trailing eigenvalues must be non-negative")
    with np.errstate(over="ignore"):  # the sum of a finite tail may overflow
        s_ml = float(tail.sum()) / len(tail)
    if not s_ml < math.inf:  # NaN too
        raise InputError("trailing eigenvalues and their sum must be finite")
    if not s_ml > 0:
        raise InputError("trailing eigenvalues sum to zero; noise power is unidentifiable")
    return _noise_roots(tail, log_lr0)


def _noise_roots(tail: np.ndarray, log_lr0: float) -> NoiseRoots:
    """:func:`sigma_el_roots` against a finite ``log lr0``, unchecked: the
    trailing eigenvalues ``tail`` must be non-negative, with a positive, finite sum."""
    m, b = len(tail), float(tail.sum())
    s_ml = b / m
    with np.errstate(divide="ignore"):  # a zero entry's log is -inf
        log_peak = float(np.log(tail / s_ml).sum() + m - b / s_ml)
    if abs(log_lr0 - log_peak) <= 1e-10:
        return NoiseRoots(count=1, roots=(s_ml,), sigma_ml=s_ml)
    if log_lr0 > log_peak:
        return NoiseRoots(count=0, roots=(), sigma_ml=s_ml)

    a = float(-m)
    c = log_lr0 - float(np.log(tail).sum()) + a
    try:
        z = (b / a) * math.exp(-c / a)
        # rounding can push z a hair below the branch point when lr0 ~ peak
        z = max(z, _BRANCH_POINT)
        hi = math.exp(lambert_w(LambertBranch.PRINCIPAL, z) + c / a)
        lo = math.exp(lambert_w(LambertBranch.LOWER, z) + c / a)
    except OverflowError as exc:
        raise NumericalError("the noise-power roots' closed form overflows the double "
                             f"range at log lr0 = {log_lr0:.12g}") from exc
    roots = (min(lo, hi), max(lo, hi))
    return NoiseRoots(count=2, roots=roots, sigma_ml=s_ml)


def _nmf_scorer(v: np.ndarray, steering, training):
    """Mean matched filter statistic over the ``training`` columns of any
    estimate on the basis ``V``, as a function of its eigenvalues; ``V^H s``
    and ``V^H Z`` are projected once for all of them.  A ``(C, N)`` stack of
    eigenvalue rows is scored in one product, giving ``C`` means."""
    v_h = v.conj().T
    ws, w = v_h @ steering, v_h @ training
    ws_conj, ws2, w2 = ws.conj(), np.abs(ws) ** 2, np.abs(w) ** 2

    def mean_nmf(lambdas):
        q = 1.0 / lambdas
        nmf = np.abs((q * ws_conj) @ w) ** 2 / ((q @ ws2)[..., None] * (q @ w2))
        means = nmf.sum(axis=-1) / nmf.shape[-1]  # as np.mean rounds, with less overhead
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
    lr0: float | LRReference,
    training: np.ndarray,
    steering: np.ndarray,
) -> JointSelection:
    """Alternating selection of rank and noise power, in one pass.

    The inputs are checked once: ``k >= 1``, a descending spectrum, and the
    training and steering (:func:`_joint_inputs`) up front, and in the core,
    a dimension of at least 2 so the trailing mean stays defined and a
    positive spectrum.
    ``r_init`` is clamped into ``[0, n - 1]``, not checked; the config loader
    and ``elcov estimate`` reject a value outside that range.
    """
    d = s_eig.eigenvalues
    if k < 1:
        raise InputError("sample count k must be at least 1")
    log_lr0 = _log(lr0)
    if (d[1:] > d[:-1]).any():
        raise InputError("sample eigenvalues must be sorted descending")
    training, steering = _joint_inputs(s_eig.n, training, steering)
    return _rank_sigma_row(d, s_eig.eigenvectors, r_init, log_lr0, training, steering)[0]


def _joint_inputs(n: int, training, steering) -> tuple[np.ndarray, np.ndarray]:
    """The joint selection's training and steering as complex arrays, and
    the one check of both, made by each public entry: an ``n``-row training
    with at least one column, every column nonzero and finite, and a
    unit-norm length-``n`` steering vector.  A sweep draws its training
    and steering, so its map (:func:`_rank_sigma_row`) skips this."""
    training = np.asarray(training, dtype=np.complex128)
    if training.ndim != 2 or training.shape[0] != n or training.shape[1] < 1:
        raise InputError("training must be an n-by-k matrix with at least one column")
    if not (training.any(axis=0).all() and np.isfinite(training).all()):
        raise InputError("training columns must be nonzero and finite")
    steering = np.asarray(steering, dtype=np.complex128)
    if steering.shape != (n,) or not abs(np.linalg.norm(steering) - 1.0) <= 1e-6:
        raise InputError("steering must be a unit-norm length-n vector")
    return training, steering


def _rank_sigma_row(d, v, r_init: int, log_lr0: float, training, steering):
    """The joint selection on one row's descending spectrum ``d``, basis ``v``,
    ``log lr0``, training and steering, and the RCML estimate it selects,
    the ``(N,)`` eigenvalues of the winning candidate.  The ``log lr0`` is
    trusted, as the entry points check lr0; this checks only what depends on
    the spectrum: ``n >= 2``, ``d_N > 0`` and positive, finite candidates.

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

    The noise-power roots (:func:`_noise_roots`) are then solved once, at
    the final rank.  The candidates (the ML value plus up to two matching
    roots) are scored by the mean matched filter statistic over the
    target-free training columns: the RCML eigenvalues of every candidate
    form one ``(C, N)`` stack, scored in one product against ``V^H Z``,
    which is projected once.  The smallest mean wins, ties going to the
    earlier of ML, EL1, EL2; at rank 0 every candidate is ``sigma2 I``, so
    the ML value is the only one.
    """
    n = len(d)
    if n < 2:
        raise InputError("joint rank and noise selection needs dimension >= 2")
    if not d[-1] > 0:
        raise InputError("sample eigenvalues must be positive; noise power is unidentifiable")

    # over the m = n - r smallest entries, for r = 0..n-1
    asc, m = d[::-1], np.arange(n, 0, -1)
    peak = np.log(asc).cumsum()[::-1] - m * np.log(asc.cumsum()[::-1] / m)
    # _noise_roots' own test for roots; rank n - 1 has them, its peak being 0
    first = np.where(peak >= log_lr0 - 1e-10, np.arange(n), n - 1)
    climbed = np.minimum.accumulate(first[::-1])[::-1].tolist()

    r = climbed[min(max(int(r_init), 0), n - 1)]
    for iterations in range(1, n + 1):
        # the trailing mean, rounded as sigma_ml's np.mean rounds it
        r_hat = int(_rank_rows(d[np.newaxis], float(d[r:].sum()) / (n - r), log_lr0)[0][0])
        r_new = climbed[min(r_hat, n - 1)]
        if r_new >= r:
            break
        r = r_new

    roots = _noise_roots(d[r:], log_lr0)
    labels, sigmas = ["ML"], [roots.sigma_ml]
    if roots.count == 2 and r > 0:
        labels += ["EL1", "EL2"]
        sigmas += roots.roots
    if not all(0 < s < math.inf for s in sigmas):  # SampleStats' check on each candidate
        raise InputError("noise power sigma2 must be positive and finite")
    # the rcml eigenvalues at every candidate noise power
    sig = np.array(sigmas)[:, np.newaxis]
    lambdas = np.maximum(d, sig)
    lambdas[:, r:] = sig
    best = int(np.argmin(_nmf_scorer(v, steering, training)(lambdas)))
    return JointSelection(r, sigmas[best], labels[best], iterations), lambdas[best]


@dataclass
class KmaxSelection:
    """Condition-number bound whose LR matches the reference.

    ``visited`` holds the breakpoints of the exact LR path plus the root, as
    ``(kmax, log lr)`` in descending ``kmax``.  ``final_step`` is the last Newton
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


class _KmaxRows(NamedTuple):
    """What :func:`_kmax_rows` selects for each row of a ``(B, N)`` stack."""

    kmax_hat: np.ndarray  # (B,) the selected bounds
    log_lr: np.ndarray  # (B,) the log LR at them
    steps: np.ndarray  # (B,) Newton steps taken, 0 for a closed form
    lambdas: np.ndarray  # (B, N) the condition-number estimates at them
    table: _CnTable
    segment: list[int]  # table row that ends the root's segment, 0 at k_ml
    final_step: list[float]  # the last Newton step on kmax, 0 for a closed form


def _segment_log_lr(km, interior, p, c, top, bottom) -> tuple[float, float]:
    """Log LR at ``km`` on a segment that clips ``p`` entries from the top and
    ``c`` from the bottom, and its slope ``g(U)`` in ``log kmax``; ``top`` and
    ``bottom`` are those entries' ``(sum log x, sum x)``."""
    u = (top[1] + km * bottom[1]) / (p + c) if interior else km
    tau = u / km if interior else 1.0
    return _clip_log_lr(top, bottom, p, c, tau, u, math.log), top[1] / u - p


def _kmax_rows(d: np.ndarray, sigma2: float, log_lr0) -> _KmaxRows:
    """Condition-number bound selection for each row of a ``(B, N)`` stack of
    spectra at one noise power, against each row's ``log lr0`` (a float for
    every row, or ``(B,)``), from one breakpoint table for the stack.

    Each row's closed forms (``k_ml`` or 1) are read off its first and last
    rows, and its root segment off the table's one lookup
    (:meth:`_CnTable.segment`) on the log-LR column, the lookup that
    :func:`cncml` makes on the ``kmax`` column.  The Newton steps stay scalar per
    row, with ``math.log`` and ``math.exp``, as numpy's vector ``log`` and
    ``exp`` can differ from them in the last bit.  The estimates are one cap
    map at the selected bounds, read off the same table.  Raises
    :class:`InputError` on a negative or NaN entry, as :func:`_rank_rows`
    does; zero entries are allowed.
    """
    if not (d >= 0).all():  # also catches NaN, for which `< 0` is false
        raise InputError("sample eigenvalues must be non-negative")
    x = d / sigma2
    table = _CnTable(x)
    log_lr = table.log_lr.ravel()
    targets = np.full(len(x), log_lr0)
    closed = (x[:, 0] <= 1.0) | (log_lr.take(table.first) <= targets)
    at_one = ~closed & (log_lr.take(table.last) >= targets)
    # the root lies in [kmax[i], kmax[above]]; at kmax = 1 it is the last
    # segment.  A closed form's row is the first: the first at or below lr0,
    # or, where dbar_1 <= 1, the path's one row.
    i, segment, above = table.segment(table.log_lr, targets, at_one)
    kmax = table.kmax.ravel()
    p, c = table.top.ravel().take(above), table.bottom.ravel().take(above)
    kmax_hat = np.minimum(np.maximum(kmax.take(i), 1.0), table.k_ml)
    hat_lr = log_lr.take(i)
    steps, final_step = np.zeros(len(x), dtype=int), [0.0] * len(x)

    newton = np.flatnonzero(~closed & ~at_one)
    # this segment's ends and counts, the flat one clipping nothing, and its
    # [sum log x, sum x] over the top and the bottom entries
    interior = (segment > table.switch) & (p + c > 0)
    top, bottom = table.sums(p[:, np.newaxis], c[:, np.newaxis])
    columns = np.stack((kmax.take(i), kmax.take(above), table.k_ml, interior, p, c,
                        top[0, :, 0], top[1, :, 0], bottom[0, :, 0], bottom[1, :, 0]), axis=1)
    hat, lr, targets = kmax_hat.tolist(), hat_lr.tolist(), targets.tolist()
    for j, row in zip(newton.tolist(), columns[newton].tolist()):
        km, k_top, k_cap, inside, p_j, c_j, *sums = row
        top, bottom, target = sums[:2], sums[2:], targets[j]
        step, t_hi = 0.0, math.log(k_top)
        for _ in range(_NEWTON_MAX_STEPS):
            val, slope = _segment_log_lr(km, inside, p_j, c_j, top, bottom)
            if val >= target or slope <= 0.0:
                break
            dt = min((target - val) / slope, t_hi - math.log(km))
            km_new = km * math.exp(dt)
            step, km = km_new - km, km_new
            steps[j] += 1
            if dt <= _NEWTON_RTOL:
                break
        hat[j] = min(max(km, 1.0), k_cap)
        lr[j] = _segment_log_lr(hat[j], inside, p_j, c_j, top, bottom)[0]
        final_step[j] = step
    kmax_hat, hat_lr = np.array(hat), np.array(lr)
    lambdas = _cn_caps(d, sigma2, kmax_hat, *table.solve(kmax_hat))
    return _KmaxRows(kmax_hat, hat_lr, steps, lambdas, table, segment.tolist(), final_step)


def select_kmax(stats: SampleStats, lr0: float | LRReference) -> KmaxSelection:
    """Tune the condition-number bound so the estimate's LR matches ``lr0``.

    The LR is non-decreasing in ``kmax``.  The ML bound ``k_ml = d_1 / sigma2``
    (at least 1) is returned when its LR is at or below ``lr0``, flagged
    ``constraint_active=False`` when ``d_1 <= sigma2``; 1 is returned when
    its LR reaches ``lr0``.  Otherwise the root lies on one segment of the
    breakpoint table (:class:`_CnTable`, the one :func:`cncml` reads), where
    the log LR is closed form:
    ``sum_top [log(x/kmax) + 1 - x/kmax] + const`` on the boundary and
    ``sum_{top,bot} log x + c log kmax - m log((S_top + kmax S_bot)/m)``
    inside (``p`` top and ``c`` bottom entries, ``m = p + c``).  Both are
    concave and increasing in ``log kmax``, with slope ``g(U)``, so Newton
    steps from the segment's lower end rise monotonically to the root; they
    stop once a step is below ``1e-12`` relative.  The estimate is the cap
    map at the selected bound, read off the table as :func:`cncml` reads it;
    nothing is solved a second time.

    This is the one-row case of the stacked :func:`_kmax_rows`; only this
    function lists the path in ``visited``.
    """
    sel = _kmax_rows(stats.d[np.newaxis], stats.sigma2, _log(lr0))
    rows = sel.table.valid[0]
    kmaxes = sel.table.kmax[0, rows].tolist()
    visited = list(zip(kmaxes, sel.table.log_lr[0, rows].tolist()))
    kmax_hat, i = float(sel.kmax_hat[0]), sel.segment[0]
    if 0 < i and kmaxes[i] < kmax_hat < kmaxes[i - 1]:
        visited.insert(i, (kmax_hat, float(sel.log_lr[0])))
    estimate = _one_row(stats, sel.lambdas, {"sigma2": [stats.sigma2], "kmax": [kmax_hat]})
    active = bool(sel.table.x[0, 0] > 1.0)
    return KmaxSelection(kmax_hat, estimate, visited, sel.final_step[0], active)


def _loading_rows(d: np.ndarray, log_lr0) -> tuple[list[float], list[int]]:
    """Diagonal loading factor for each row of a ``(B, N)`` stack of spectra,
    against each row's ``log lr0`` (a float for every row, or ``(B,)``), and
    the number of LR evaluations each row took.

    On ``x = log beta`` the log LR of ``beta I + S`` is decreasing and
    concave, with slope ``-sum t_i^2`` and curvature ``-2 sum t_i^2 (1 - t_i)``
    for ``t_i = beta / (d_i + beta)``.  Halley steps on ``x`` start at a
    closed-form lower bound of the root, bisect whenever a step leaves the
    bracket and stop at ``|log lr - log lr0| <= 1e-9``.  Each step evaluates
    the log LR and its derivatives for all unconverged rows in one stacked
    pass; the bracket and the step itself are scalar per row.  Raises
    :class:`InputError` unless every row's ``log lr0`` is below 0, and
    :class:`NoRootError` when a row's sample covariance is singular or no
    finite loading reaches its lr0.
    """
    targets = np.full(len(d), log_lr0).tolist()
    if not all(target < 0.0 for target in targets):
        raise InputError("lr0 must lie strictly inside (0, 1) for loading selection")
    if not (d[:, -1] > 0).all():
        raise NoRootError("sample covariance is singular; the loaded LR is identically zero")
    b, n = d.shape
    x_max = math.log(sys.float_info.max)
    # -log lr <= min(beta^2 sum(d_i^-2) / 2, N log(1 + beta / d_N)) bounds the
    # root below and log lr <= N (1 - log beta) + sum(log d_i) above; x_hi has
    # a spare nat so that a step onto a tight bound (flat d) stays inside
    # row-wise dot products as stacked matmuls, which round as a 1-D dot does
    ratio = d[:, -1:] / d
    ratio2 = (ratio[:, np.newaxis, :] @ ratio[:, :, np.newaxis]).ravel().tolist()
    log_d_sum = np.log(d).sum(axis=1).tolist()
    x_lo, x_hi = [], []
    for d_min, r2, log_sum, target in zip(d[:, -1].tolist(), ratio2, log_d_sum, targets):
        log_d_min, a = math.log(d_min), -target
        lo = max(
            log_d_min + 0.5 * math.log(2.0 * a / r2),
            log_d_min + a / n + math.log(-math.expm1(-a / n)),
        )
        if lo > x_max:
            raise NoRootError(f"no finite loading factor reaches log lr0={target}")
        x_lo.append(lo)
        x_hi.append(min(2.0 + (log_sum + a) / n, x_max))
    x, beta, evals = list(x_lo), [0.0] * b, [0] * b
    rows, d_rows = list(range(b)), d
    with np.errstate(divide="ignore"):
        for _ in range(_LOADING_MAX_EVALS):
            # per row, as numpy's vector exp can differ from math.exp in the last bit
            betas = [math.exp(x[i]) for i in rows]
            column = np.array(betas)[:, np.newaxis]
            loaded = d_rows + column
            rho = d_rows / loaded
            log_lr = (np.log(rho).sum(axis=1) + n - rho.sum(axis=1)).tolist()
            f = [value - targets[i] for value, i in zip(log_lr, rows)]
            left = [j for j, f_j in enumerate(f) if abs(f_j) > _LOADING_TOL]
            for j, i in enumerate(rows):
                evals[i] += 1
                beta[i] = betas[j]  # final once the row leaves the search
            if not left:
                return beta, evals
            t = column / loaded
            tt = t * t
            slopes = tt.sum(axis=1).tolist()
            cubes = (tt[:, np.newaxis, :] @ t[:, :, np.newaxis]).ravel().tolist()
            for j in left:
                i, f_j = rows[j], f[j]
                if f_j > 0.0:
                    x_lo[i] = x[i]
                elif x[i] == x_lo[i]:  # only the first point, the lower bound, can sit on x_lo
                    raise NumericalError("loaded LR is not monotone in the loading factor")
                else:
                    x_hi[i] = x[i]
                slope = -slopes[j]
                den = 2.0 * slope * slope - 2.0 * f_j * (slope + cubes[j])
                x_new = x[i] - 2.0 * f_j * slope / den if den > 0.0 else math.nan
                x[i] = x_new if x_lo[i] < x_new < x_hi[i] else 0.5 * (x_lo[i] + x_hi[i])
            if len(left) < len(rows):
                rows, d_rows = [rows[j] for j in left], d_rows[left]
    raise NumericalError("loading search failed to reach the log-LR tolerance")


def select_loading(stats: SampleStats, lr0: float | LRReference) -> float:
    """Diagonal loading factor whose loaded-sample LR matches ``lr0``.

    The one-row case of the stacked Halley search :func:`_loading_rows`.
    Raises :class:`NoRootError` for a singular sample covariance or when no
    finite loading reaches ``lr0``.
    """
    return _loading_rows(stats.d[np.newaxis], _log(lr0))[0][0]
