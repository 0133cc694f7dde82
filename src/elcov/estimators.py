"""Covariance estimators expressed as eigenvalue maps on the sample basis.

All four estimators (SMI, FML, rank-constrained ML, condition-number
constrained ML) share the eigenvectors of the sample covariance and differ
only in how they reshape its eigenvalues ``d_1 >= ... >= d_N``:

* SMI keeps ``d`` unchanged.
* FML clips at the noise floor: ``max(d_i, sigma2)``.
* RCML keeps the top ``r`` (clipped at ``sigma2``) and floors the rest.
* CNCML caps the spread so the output condition number never exceeds
  ``kmax``; its closed form splits into four cases driven by the scalar
  ``u`` that solves a one-dimensional convex problem.
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
        if not self.sigma2 > 0:
            raise InputError("noise power sigma2 must be positive")
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
    kind: str
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
        kind="SMI",
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
        kind="FML",
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
        kind="RCML",
        constraints=ConstraintRecord(r=int(r), sigma2=stats.sigma2),
    )


def lsmi(stats: SampleStats, beta: float) -> CovarianceEstimate:
    """Diagonally loaded sample covariance ``beta * I + S``."""
    if beta < 0:
        raise InputError("loading factor beta must be non-negative")
    return CovarianceEstimate(
        lambdas=stats.d + beta,
        basis=stats.s_eig.eigenvectors,
        kind="LSMI",
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
    same for ``log x``); :meth:`above` and :meth:`below` count the entries
    strictly above or below a level.  Tied entries need no special care: an
    entry equal to a clip level contributes nothing on either side.
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

    def above(self, level):
        return self.n - np.searchsorted(self.asc, level, side="right")

    def below(self, level):
        return np.searchsorted(self.asc, level, side="left")


def _interior_u(sums: _TailSums, kmax: float) -> float:
    """Stationary point of the separable objective on ``[1/dbar_1, 1/kmax]``.

    Between breakpoints ``1/dbar_i`` and ``1/(kmax dbar_i)`` the slope is
    ``A - m/u`` with ``A = S_top + kmax S_bot`` summed over the ``p`` entries
    above ``1/u`` and the ``c`` entries below ``1/(kmax u)``, ``m = p + c``.
    It is continuous and non-decreasing, so the root is ``m/A`` clamped to
    the segment that follows the last breakpoint with a negative slope.  No
    sort is needed, and when rounding makes every breakpoint slope negative
    the clamp lands on ``1/kmax``, next to the boundary case.
    """
    lo, hi = 1.0 / sums.asc[-1], 1.0 / kmax
    with np.errstate(divide="ignore"):
        inv = 1.0 / sums.asc
    bps = np.concatenate((inv, inv / kmax))
    bps = bps[(bps > lo) & (bps < hi)]

    def slope_terms(u):
        p, c = sums.above(1.0 / u), sums.below(1.0 / (kmax * u))
        return sums.top[p] + kmax * sums.bottom[c], p + c

    a, m = slope_terms(bps)
    u_lo = float(bps[a * bps < m].max(initial=lo))
    u_hi = float(bps[bps > u_lo].min(initial=hi))
    a, m = slope_terms(0.5 * (u_lo + u_hi))
    if m == 0:  # a segment one ulp wide: its midpoint rounds onto an end
        return u_lo
    return min(max(float(m / a), u_lo), u_hi)


def cncml_u_star(stats: SampleStats, kmax: float) -> CnCaseResult:
    """Solve the scalar problem behind the condition-number estimator.

    Case split on the normalized eigenvalues ``dbar = d / sigma2``:

    1. ``dbar_1 <= 1``: scaled identity, ``u* = 1/kmax``.
    2. ``1 < dbar_1 <= kmax``: the FML estimate, ``u* = 1/dbar_1``.
    3. ``dbar_1 > kmax`` with the slope at ``1/kmax`` non-positive:
       ``u* = 1/kmax`` (constraint boundary).
    4. otherwise an interior stationary point on ``(1/dbar_1, 1/kmax)``,
       solved exactly on the segment between breakpoints where the
       piecewise slope ``A - m/u`` changes sign.
    """
    if not kmax >= 1:
        raise InputError("condition-number bound kmax must be at least 1")
    dbar = stats.d / stats.sigma2
    nbar = int(np.count_nonzero(dbar >= 1.0))

    if dbar[0] <= 1.0:
        case, u = CnCase.SCALED_IDENTITY, 1.0 / kmax
    elif dbar[0] <= kmax:
        # boundary tie dbar_1 == kmax lands here; the profiles coincide
        case, u = CnCase.FML_EQUIVALENT, 1.0 / dbar[0]
    else:
        p_guard = int(np.count_nonzero(dbar > kmax))
        slack = p_guard - (dbar[nbar:] - 1.0).sum()
        if kmax >= dbar[:p_guard].sum() / slack:
            case, u = CnCase.BOUNDARY_U, 1.0 / kmax
        else:
            case, u = CnCase.INTERIOR_U, _interior_u(_TailSums(dbar), kmax)

    p = int(np.count_nonzero(dbar * u > 1.0))
    q = int(np.count_nonzero(dbar * (u * kmax) > 1.0))
    return CnCaseResult(case_id=case, u_star=u, p=p, q=q, nbar=nbar)


def cncml(stats: SampleStats, kmax: float) -> CovarianceEstimate:
    """Condition-number constrained ML estimate.

    The eigenvalue profile follows the case split of :func:`cncml_u_star`;
    the resulting condition number is exactly 1, ``d_1/sigma2``, ``kmax``
    and ``kmax`` in the four cases respectively.
    """
    res = cncml_u_star(stats, kmax)
    d = stats.d
    s2 = stats.sigma2
    n = stats.n
    if res.case_id is CnCase.SCALED_IDENTITY:
        lam = np.full(n, float(s2))
    elif res.case_id is CnCase.FML_EQUIVALENT:
        lam = np.maximum(d, s2)
    elif res.case_id is CnCase.BOUNDARY_U:
        lam = np.full(n, float(s2))
        lam[: res.p] = s2 * kmax
        lam[res.p : res.nbar] = d[res.p : res.nbar]
    else:
        u = res.u_star
        lam = np.full(n, s2 / (u * kmax))
        lam[: res.p] = s2 / u
        lam[res.p : res.q] = d[res.p : res.q]
    return CovarianceEstimate(
        lambdas=lam,
        basis=stats.s_eig.eigenvectors,
        kind="CNCML",
        constraints=ConstraintRecord(sigma2=s2, kmax=float(kmax)),
    )


def condition_number(est: CovarianceEstimate) -> float:
    """Spread ``lambdas[0] / lambdas[-1]`` of an estimate."""
    lam = est.lambdas
    if lam[-1] <= 0:
        raise InputError("condition number undefined: smallest eigenvalue is not positive")
    return float(lam[0] / lam[-1])
