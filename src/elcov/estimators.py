"""Covariance estimators expressed as eigenvalue maps on the sample basis.

All five estimators (SMI, FML, rank-constrained ML, condition-number
constrained ML, diagonal loading) share the eigenvectors of the sample
covariance and differ only in how they reshape its eigenvalues
``d_1 >= ... >= d_N``:

* SMI keeps ``d`` unchanged.
* FML clips at the noise floor: ``max(d_i, sigma2)``.
* RCML keeps the top ``r`` (clipped at ``sigma2``) and floors the rest.
* CNCML clips ``x = d / sigma2`` to ``[tau, kmax tau]``, so the condition
  number is at most ``kmax``; one breakpoint table solves it for every ``kmax``.
* LSMI adds a loading factor: ``d_i + beta``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InputError
from .hermitian import EigenDecomposition, eig_hermitian

__all__ = [
    "CnCase",
    "CnCaseResult",
    "ConstraintRecord",
    "CovarianceEstimate",
    "SampleStats",
    "cncml",
    "cncml_objective",
    "cncml_u_star",
    "condition_number",
    "fml",
    "lsmi",
    "rcml",
    "smi",
]


@dataclass
class SampleStats:
    """Sufficient statistics consumed by the estimators.

    ``s_eig`` is the eigendecomposition of the sample covariance, ``k`` the
    number of training snapshots it was formed from, and ``sigma2`` the
    white-noise power used for flooring and normalization.
    """

    n: int
    k: int
    s_eig: EigenDecomposition
    sigma2: float

    def __post_init__(self):
        if self.n < 1:
            raise InputError("dimension n must be at least 1")
        if self.k < 1:
            raise InputError("sample count k must be at least 1")
        if not 0 < self.sigma2 < np.inf:
            raise InputError("noise power sigma2 must be positive and finite")
        d = self.s_eig.eigenvalues
        if len(d) != self.n:
            raise InputError("eigenvalue count does not match n")
        if np.any(np.diff(d) > 0):
            raise InputError("sample eigenvalues must be sorted descending")

    @classmethod
    def from_sample_covariance(cls, s, k: int, sigma2: float) -> "SampleStats":
        eig = eig_hermitian(s)
        return cls(n=eig.n, k=k, s_eig=eig, sigma2=sigma2)

    @property
    def d(self) -> np.ndarray:
        """Sample eigenvalues, descending."""
        return self.s_eig.eigenvalues


@dataclass
class ConstraintRecord:
    """Constraint values an estimator actually used (absent fields None)."""

    r: int | None = None
    sigma2: float | None = None
    kmax: float | None = None
    beta: float | None = None


@dataclass
class CovarianceEstimate:
    """Estimator output: eigenvalues on the shared sample eigenbasis."""

    lambdas: np.ndarray
    basis: np.ndarray
    constraints: ConstraintRecord = field(default_factory=ConstraintRecord)

    @property
    def n(self) -> int:
        return len(self.lambdas)

    def matrix(self) -> np.ndarray:
        """Dense matrix ``V diag(lambdas) V^H``."""
        v = self.basis
        return (v * self.lambdas) @ v.conj().T


def smi(stats: SampleStats) -> CovarianceEstimate:
    """Sample covariance itself; the unconstrained ML estimate."""
    return CovarianceEstimate(
        lambdas=stats.d.copy(),
        basis=stats.s_eig.eigenvectors,
        constraints=ConstraintRecord(),
    )


def fml(stats: SampleStats) -> CovarianceEstimate:
    """Clip sample eigenvalues at the noise floor.

    Equivalent to RCML with rank equal to the number of eigenvalues above
    ``sigma2``; that implied rank is recorded in the constraints.
    """
    lam = np.maximum(stats.d, stats.sigma2)
    implied_rank = int(np.count_nonzero(stats.d > stats.sigma2))
    return CovarianceEstimate(
        lambdas=lam,
        basis=stats.s_eig.eigenvectors,
        constraints=ConstraintRecord(r=implied_rank, sigma2=stats.sigma2),
    )


def rcml(stats: SampleStats, r: int) -> CovarianceEstimate:
    """Rank-constrained ML: keep the top ``r`` eigenvalues, floor the rest.

    Kept eigenvalues are still clipped at ``sigma2``, so ranks beyond the
    count of eigenvalues above the floor all produce the same estimate.
    ``r = 0`` is allowed and returns ``sigma2 * I``.
    """
    if not 0 <= r <= stats.n:
        raise InputError(f"rank {r} outside [0, {stats.n}]")
    lam = np.full(stats.n, float(stats.sigma2))
    lam[:r] = np.maximum(stats.d[:r], stats.sigma2)
    return CovarianceEstimate(
        lambdas=lam,
        basis=stats.s_eig.eigenvectors,
        constraints=ConstraintRecord(r=int(r), sigma2=stats.sigma2),
    )


def lsmi(stats: SampleStats, beta: float) -> CovarianceEstimate:
    """Diagonally loaded sample covariance ``beta * I + S``."""
    if beta < 0:
        raise InputError("loading factor beta must be non-negative")
    return CovarianceEstimate(
        lambdas=stats.d + beta,
        basis=stats.s_eig.eigenvectors,
        constraints=ConstraintRecord(beta=float(beta)),
    )


class CnCase(enum.Enum):
    """Which branch of the condition-number closed form applied."""

    SCALED_IDENTITY = "ScaledIdentity"
    FML_EQUIVALENT = "FmlEquivalent"
    BOUNDARY_U = "CaseBoundaryU"
    INTERIOR_U = "CaseInteriorU"


@dataclass
class CnCaseResult:
    """Solution of the condition-number inner problem.

    ``u_star`` minimizes the separable objective on ``(0, 1]``; ``p`` and
    ``q`` count eigenvalues pinned at the upper and above the lower cap,
    ``nbar`` counts normalized eigenvalues at or above 1.
    """

    case_id: CnCase
    u_star: float
    p: int
    q: int
    nbar: int


def _lambda_star(u: float, dbar: np.ndarray, kmax: float) -> np.ndarray:
    """Inverse normalized eigenvalues of the CN-constrained solution at ``u``."""
    with np.errstate(divide="ignore"):
        inv_d = np.where(dbar > 0, 1.0 / dbar, np.inf)
    return np.minimum(np.minimum(kmax * u, 1.0), np.maximum(u, inv_d))


def cncml_objective(u, dbar: np.ndarray, kmax: float):
    """Separable objective ``sum_i [-log lam_i(u) + dbar_i lam_i(u)]``.

    ``u`` may be a scalar or an array; the value is the (normalized)
    negative log-likelihood of the condition-number constrained solution
    evaluated at that ``u``.  Exposed mainly so tests can scan it densely.
    """
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    lam = _lambda_star(u_arr[:, None], dbar[None, :], kmax)
    vals = np.sum(dbar[None, :] * lam - np.log(lam), axis=1)
    return vals if np.ndim(u) else float(vals[0])


class _TailSums:
    """Prefix sums over the largest and the smallest entries of a spectrum.

    For the descending ``x``, ``top[p]`` sums the ``p`` largest entries and
    ``bottom[c]`` the ``c`` smallest (``log_top`` and ``log_bottom`` do the
    same for ``log x``).  Tied entries need no special care: an entry equal
    to a clip level contributes nothing on either side.
    """

    def __init__(self, x: np.ndarray):
        self.n = len(x)
        self.asc = x[::-1]
        self.top = np.concatenate(([0.0], x.cumsum()))
        self.bottom = np.concatenate(([0.0], self.asc.cumsum()))

    @functools.cached_property
    def _log_asc(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.asc)

    @functools.cached_property
    def log_top(self) -> np.ndarray:
        return np.concatenate(([0.0], self._log_asc[::-1].cumsum()))

    @functools.cached_property
    def log_bottom(self) -> np.ndarray:
        return np.concatenate(([0.0], self._log_asc.cumsum()))


def _clip_log_lr(top, bottom, p, c, tau, u, log=np.log):
    """Log LR of ``clip(x, tau, u)``: ``top = (sum log x, sum x)`` over the
    ``p`` entries above ``u``, ``bottom`` likewise over the ``c`` entries
    below ``tau``; the entries in between contribute nothing."""
    return top[0] - p * log(u) + p - top[1] / u + bottom[0] - c * log(tau) + c - bottom[1] / tau


class _CnPath:
    """The condition-number solution for every ``kmax``, as a breakpoint table.

    With ``x = d/sigma2`` the estimate is ``clip(x, tau, U)``, ``U = kmax tau``.
    Let ``g(U) = sum max(x/U - 1, 0)`` and ``h(tau) = sum max(1 - x/tau, 0)``.
    On the boundary, ``kmax >= kmax_b`` where ``g(kmax_b) = h(1)``, ``tau`` is 1
    and the breakpoints are the distinct ``x`` above ``kmax_b``.  Below it
    ``g(U) = h(tau) = s`` with ``s`` rising from ``h(1)`` to ``h(mean x)`` (at
    ``kmax = 1``).  Each entry has two breakpoints there: at ``s = h(x)`` the
    lower clip reaches it (``tau = x``) and at ``s = g(x)`` the upper clip
    does (``U = x``).  Between breakpoints, with ``p`` entries clipped from
    above and ``c`` from below, ``tau = S_bot/(c - s)``, ``U = S_top/(s + p)``
    and ``U = (S_top + kmax S_bot)/(p + c)``.

    ``kmax_b = S_top/(p + h(1))`` over the ``p`` entries above it is the one
    boundary/interior switch.  It is 1 when ``mean x <= 1``, where the whole
    path is boundary, and ``x_1`` when no entry is below 1, where the path is
    flat (nothing is clipped) from ``x_1`` down to ``x_1/x_N``.

    Zero entries add 1 to ``h`` at every ``tau``.  When they are the only
    entries below 1, ``h`` stays at ``h(1)`` up to the smallest positive
    entry, whose lower-clip breakpoint then shares ``s = h(1)`` with the
    switch; it gets its own row, and the switch row does not count it.

    The table, built once, lists in descending ``kmax`` each breakpoint's
    ``kmax``, the counts ``top`` and ``bottom`` clipped just under it and the
    log LR ``log_lr`` at it; rows from ``switch`` on open interior segments.
    """

    def __init__(self, x: np.ndarray):
        self.sums = sums = _TailSums(x)
        n, asc = sums.n, sums.asc
        # per entry (ascending): its tie group spans [lo, hi)
        lo, hi = asc.searchsorted(asc, "left"), asc.searchsorted(asc, "right")
        with np.errstate(divide="ignore", invalid="ignore"):
            self.h = lo - sums.bottom[lo] / asc
            self.h[: hi[0]] = 0.0  # nothing lies below the smallest entry, even a zero one
            self.g = sums.top[n - hi] / asc - (n - hi)
        self.c1 = c1 = int(asc.searchsorted(1.0))
        self.h1 = h1 = float((1.0 - x[n - c1 :]).sum())
        p = int(self.g[::-1].searchsorted(h1, "right"))
        self.kmax_b = max(float(x[:p].sum() / (p + h1)), 1.0)
        self.kmax, self.top, self.bottom, self.log_lr, self.switch = self.breakpoints()

    def breakpoints(self):
        """The table's columns, in descending ``kmax``, and its ``switch``."""
        sums, asc, h1, c1 = self.sums, self.sums.asc, self.h1, self.c1
        n = sums.n
        a, starts = np.unique(asc, return_index=True)
        # h(1) = 0 means no entry lies below 1, so the path is flat from k_ml
        # down to x_1/x_N instead of reaching a boundary breakpoint
        j = len(a) if h1 == 0.0 else int(np.searchsorted(a, self.kmax_b, side="right"))
        if j < len(a):
            kmax_bd, top_bd = a[j:][::-1], n - starts[j:][::-1]
        else:  # one point at k_ml, with nothing clipped from above beneath it
            kmax_bd, top_bd = np.array([max(float(a[-1]), 1.0)]), np.zeros(1, dtype=int)
        pieces = [(kmax_bd, top_bd, np.full(len(kmax_bd), c1), np.ones(len(kmax_bd)), kmax_bd)]
        if self.kmax_b > 1.0:
            mean = sums.top[n] / n
            cm = int(asc.searchsorted(mean))
            s_max = max(cm - sums.bottom[cm] / mean, h1)  # equal for a flat spectrum
            s = np.concatenate((self.h, self.g))
            # entries above 1 whose lower-clip breakpoint is h(1), as only zeros allow
            lifted = np.count_nonzero((self.h == h1) & (asc > 1.0)) if asc[0] == 0.0 else 0
            s = np.concatenate((
                [h1], [h1] if lifted and s_max > h1 else [],
                np.unique(s[(s > h1) & (s < s_max)]),
                [s_max] if s_max > 0.0 else [],  # a flat spectrum has one point
            ))
            # the counts clipped from the top and the bottom just above each s
            # (just under it in kmax), and tau, U and kmax at s
            top = self.g[::-1].searchsorted(s, "right")
            bottom = self.h.searchsorted(s, "right")
            with np.errstate(divide="ignore", invalid="ignore"):
                tau = sums.bottom[bottom] / (bottom - s)
                u = sums.top[top] / (s + top)
                kmax = np.maximum(u / tau, 1.0)
            if h1 > 0.0:  # the boundary meets the interior at tau = 1
                tau[0], u[0], kmax[0] = 1.0, self.kmax_b, self.kmax_b
                bottom[0] -= lifted
            kmax[-1] = 1.0  # U = tau = mean x there, whatever U/tau rounds to
            pieces.append((kmax, top, bottom, tau, u))
        elif kmax_bd[-1] > 1.0:  # the boundary reaches kmax = 1, where U = tau = 1
            pieces.append(([1.0], [n - c1], [c1], [1.0], [1.0]))
        kmax, top, bottom, tau, u = (np.concatenate(col) for col in zip(*pieces))
        with np.errstate(divide="ignore", invalid="ignore"):
            log_lr = _clip_log_lr(
                (sums.log_top[top], sums.top[top]), (sums.log_bottom[bottom], sums.bottom[bottom]),
                top, bottom, tau, u,
            )
        return kmax, top, bottom, log_lr, len(kmax_bd) if h1 > 0.0 else 0

    def solve(self, kmax: float) -> tuple[CnCase, float, int, int]:
        """Case, ``u*`` and the counts clipped from the top and the bottom at
        ``kmax``, read off the last row above it, whose segment holds it.  At
        ``k_ml`` (row 0) and above, nothing is clipped from above."""
        if kmax >= self.kmax[0]:
            return CnCase.FML_EQUIVALENT, 1.0 / self.kmax[0], 0, self.c1
        i = int(np.argmax(self.kmax <= kmax)) - 1
        p, c = int(self.top[i]), int(self.bottom[i])
        if i < self.switch:
            return CnCase.BOUNDARY_U, 1.0 / kmax, p, c
        if p + c == 0:  # the flat segment: nothing is clipped
            return CnCase.INTERIOR_U, 1.0 / self.kmax[0], 0, 0
        u = (p + c) / (self.sums.top[p] + kmax * self.sums.bottom[c])
        # the lower cap 1/(u kmax) stays at or above 1 where rounding crosses it
        return CnCase.INTERIOR_U, min(float(u), 1.0 / kmax), p, c


def _cn_solution(stats: SampleStats, kmax: float) -> tuple[CnCase, float, int, int]:
    """Case, ``u*`` and the counts clipped from the top and the bottom."""
    if not kmax >= 1:
        raise InputError("condition-number bound kmax must be at least 1")
    x = stats.d / stats.sigma2
    if x[0] <= 1.0:
        return CnCase.SCALED_IDENTITY, 1.0 / kmax, 0, int(x[::-1].searchsorted(1.0))
    if x[0] <= kmax:  # the boundary tie x_1 == kmax lands here; the profiles coincide
        return CnCase.FML_EQUIVALENT, 1.0 / x[0], 0, int(x[::-1].searchsorted(1.0))
    return _CnPath(x).solve(kmax)


def cncml_u_star(stats: SampleStats, kmax: float) -> CnCaseResult:
    """Solve the scalar problem behind the condition-number estimator.

    Case split on the normalized eigenvalues ``dbar = d / sigma2``:

    1. ``dbar_1 <= 1``: scaled identity, ``u* = 1/kmax``.
    2. ``1 < dbar_1 <= kmax``: the FML estimate, ``u* = 1/dbar_1``.
    3. ``dbar_1 > kmax >= kmax_b``: the constraint boundary, ``u* = 1/kmax``.
    4. otherwise an interior point ``u* = 1/U = m/A``, with ``A = S_top +
       kmax S_bot`` over the ``m`` entries clipped at ``kmax``; ``u* =
       1/dbar_1`` on the flat segment, where nothing is clipped.

    Cases 3 and 4 and the clipped counts are read off the row of the
    breakpoint table (:class:`_CnPath`) whose segment holds ``kmax``, the
    table that :func:`select_kmax` walks.
    """
    case, u, _, _ = _cn_solution(stats, kmax)
    dbar = stats.d / stats.sigma2
    nbar = int(np.count_nonzero(dbar >= 1.0))
    p = int(np.count_nonzero(dbar * u > 1.0))
    q = int(np.count_nonzero(dbar * (u * kmax) > 1.0))
    return CnCaseResult(case_id=case, u_star=u, p=p, q=q, nbar=nbar)


def _cn_estimate(stats: SampleStats, kmax: float, case: CnCase, u: float, p: int, c: int):
    """The condition-number estimate as one cap map: the ``p`` largest sample
    eigenvalues take the upper cap, the ``c`` smallest the lower cap, and the
    rest keep ``d``.  The caps are ``sigma2/u`` and ``sigma2/(u kmax)`` in the
    interior case (``u = 1/U``) and ``sigma2 kmax`` and ``sigma2`` otherwise.
    """
    s2, inside = stats.sigma2, case is CnCase.INTERIOR_U
    lam = stats.d.copy()
    lam[:p] = s2 / u if inside else s2 * kmax
    lam[stats.n - c :] = s2 / (u * kmax) if inside else s2
    return CovarianceEstimate(
        lambdas=lam,
        basis=stats.s_eig.eigenvectors,
        constraints=ConstraintRecord(sigma2=s2, kmax=float(kmax)),
    )


def cncml(stats: SampleStats, kmax: float) -> CovarianceEstimate:
    """Condition-number constrained ML estimate.

    The cap map of the solution behind :func:`cncml_u_star`; the resulting
    condition number is exactly 1, ``d_1/sigma2``, ``kmax`` and ``kmax`` in
    its four cases respectively.
    """
    return _cn_estimate(stats, kmax, *_cn_solution(stats, kmax))


def condition_number(est: CovarianceEstimate) -> float:
    """Spread ``lambdas[0] / lambdas[-1]`` of an estimate."""
    lam = est.lambdas
    if lam[-1] <= 0:
        raise InputError("condition number undefined: smallest eigenvalue is not positive")
    return float(lam[0] / lam[-1])
