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

from .exceptions import InputError, _numeral
from .hermitian import EigenDecomposition, eig_hermitian

__all__ = [
    "CnCase",
    "CnCaseResult",
    "ConstraintRecord",
    "CovarianceEstimate",
    "SampleStats",
    "cncml",
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
    white-noise power used for flooring and normalization.  The eigenvalues
    must be sorted descending, and none may be NaN.
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
        # one comparison for both checks: `>=` is false on NaN, and the
        # first entry's test against itself covers n = 1
        if not ((d[:-1] >= d[1:]).all() and d[0] == d[0]):
            if np.isnan(d).any():
                raise InputError("sample eigenvalues must not be NaN")
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


# Each map below works on a ``(B, N)`` stack of spectra, one estimate per row,
# so a sweep builds all the trials of a pass in one call; the public
# estimators are its one-row case.  A map returns the ``(B, N)`` eigenvalues
# and, in place of records, a length-B list per ConstraintRecord field it sets.
# A map that takes a rank, bound or loading is that parameter's one check.


def _one_row(stats: SampleStats, lambdas: np.ndarray, columns: dict) -> CovarianceEstimate:
    """The estimate on ``stats``'s eigenbasis from a map of the stack ``stats.d[None]``."""
    constraints = ConstraintRecord(**{name: column[0] for name, column in columns.items()})
    return CovarianceEstimate(lambdas[0], stats.s_eig.eigenvectors, constraints)


def _smi_rows(d: np.ndarray):
    return d.copy(), {}


def smi(stats: SampleStats) -> CovarianceEstimate:
    """Sample covariance itself; the unconstrained ML estimate."""
    return _one_row(stats, *_smi_rows(stats.d[np.newaxis]))


def _fml_rows(d: np.ndarray, sigma2: float):
    ranks = (d > sigma2).sum(axis=1).tolist()
    return np.maximum(d, sigma2), {"r": ranks, "sigma2": [sigma2] * len(d)}


def fml(stats: SampleStats) -> CovarianceEstimate:
    """Clip sample eigenvalues at the noise floor.

    Equivalent to RCML with rank equal to the number of eigenvalues above
    ``sigma2``; that implied rank is recorded in the constraints.
    """
    return _one_row(stats, *_fml_rows(stats.d[np.newaxis], stats.sigma2))


def _rcml_rows(d: np.ndarray, sigma2: float, ranks: list):
    n = d.shape[1]
    for r in set(ranks):  # once per distinct rank
        if not 0 <= r <= n:
            raise InputError(f"rank {_numeral(r)} outside [0, {n}]")
        if r % 1:
            raise InputError(f"rank {_numeral(r)} is not a whole number")
    keep = np.arange(n) < np.array(ranks)[:, np.newaxis]
    lambdas = np.where(keep, np.maximum(d, sigma2), float(sigma2))
    return lambdas, {"r": list(map(int, ranks)), "sigma2": [sigma2] * len(ranks)}


def rcml(stats: SampleStats, r: int) -> CovarianceEstimate:
    """Rank-constrained ML: keep the top ``r`` eigenvalues, floor the rest.

    Kept eigenvalues are still clipped at ``sigma2``, so ranks beyond the
    count of eigenvalues above the floor all produce the same estimate.
    ``r`` must be a whole number in ``[0, N]``; ``r = 0`` returns ``sigma2 * I``.
    """
    return _one_row(stats, *_rcml_rows(stats.d[np.newaxis], stats.sigma2, [r]))


def _lsmi_rows(d: np.ndarray, betas: list):
    inf = np.inf  # a local: per row, looking up np.inf costs more than the comparison
    for beta in betas:
        if not 0 <= beta < inf:
            raise InputError("loading factor beta must be finite and non-negative")
    return d + np.array(betas)[:, np.newaxis], {"beta": list(map(float, betas))}


def lsmi(stats: SampleStats, beta: float) -> CovarianceEstimate:
    """Diagonally loaded sample covariance ``beta * I + S``, for a finite ``beta >= 0``."""
    return _one_row(stats, *_lsmi_rows(stats.d[np.newaxis], [beta]))


class CnCase(enum.Enum):
    """Which branch of the condition-number closed form applied."""

    SCALED_IDENTITY = "ScaledIdentity"
    FML_EQUIVALENT = "FmlEquivalent"
    BOUNDARY_U = "CaseBoundaryU"
    INTERIOR_U = "CaseInteriorU"


@dataclass
class CnCaseResult:
    """Solution of the condition-number inner problem.

    ``u_star`` minimizes the separable objective on ``(0, 1]``.  The estimate
    pins its ``p`` largest entries at the upper cap and its ``N - q``
    smallest at the lower cap, and the entries between keep ``d``; ``nbar``
    counts ``d / sigma2 >= 1``.
    """

    case_id: CnCase
    u_star: float
    p: int
    q: int
    nbar: int


def _clip_log_lr(top, bottom, p, c, tau, u, log=np.log):
    """Log LR of ``clip(x, tau, u)``: ``top = (sum log x, sum x)`` over the
    ``p`` entries above ``u``, ``bottom`` likewise over the ``c`` entries
    below ``tau``; the entries in between contribute nothing."""
    return top[0] - p * log(u) + p - top[1] / u + bottom[0] - c * log(tau) + c - bottom[1] / tau


# CnCase in enum order, indexed by the case codes that the stacked solves return
_CN_CASES = tuple(CnCase)
_FML, _BOUNDARY, _INTERIOR = 1, 2, 3


class _CnTable:
    """The condition-number solution for every ``kmax``, as a breakpoint table
    for each row of a ``(B, N)`` stack of descending spectra.

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

    Each spectrum's table lists, in descending ``kmax``, each breakpoint's
    ``kmax``, the counts ``top`` and ``bottom`` clipped just under it and the
    log LR ``log_lr`` at it; rows from ``switch`` on open interior segments.
    The columns hold every candidate row, ``3N + 5`` cells per spectrum:
    one point at ``k_ml`` (a row only when there is no boundary row), a
    boundary row at each entry, the ``h(1)`` row twice, a row at each
    entry's two breakpoints, the ``h(mean x)`` row and a row at ``kmax = 1``.
    ``valid`` marks the cells that are rows; ``first`` and ``last`` are each
    spectrum's first and last row as flat cell indices.  Every path starts
    at ``k_ml`` and ends at ``kmax = 1``.  Every column is filled in by the
    constructor except ``log_lr``, which is computed on first use: only the
    kmax selection reads it (``selection._kmax_rows``, behind
    :func:`select_kmax` and the sweep's CNCML_EL rows).  Both queries, the
    segment that holds a bound (:meth:`solve`) and the one that holds a
    target log LR (``_kmax_rows``), are one lookup, :meth:`segment`.

    The stack is built in one pass: tie groups come from masks on the
    sorted rows, and the candidate breakpoints from one sort of each row's
    breakpoints.  Row by row are only the sums over a row's own slice,
    ``h(1)`` and ``S_top`` at ``kmax_b``, so that they round as that slice's
    numpy sum, and the ranking of the candidates among the breakpoints.
    """

    def __init__(self, x: np.ndarray):
        self.x = x
        b, n = x.shape
        col, col1 = np.arange(n), np.arange(n + 1)
        # rows of [sum log x, sum x] over the p largest (top) and the c
        # smallest (bottom) entries
        self._pairs = pairs = np.zeros((2, 2, b, n + 1))
        self.log_top, self.top_sum, self.log_bottom, self.bottom_sum = pairs.reshape(4, b, n + 1)
        x.cumsum(axis=1, out=self.top_sum[:, 1:])
        x[:, ::-1].cumsum(axis=1, out=self.bottom_sum[:, 1:])
        # row by row on the reversed view: numpy takes a negative-stride log
        # through libm and a contiguous one through its SIMD loop, and the two
        # can differ in the last bit
        with np.errstate(divide="ignore", invalid="ignore"):
            log_asc = np.array([np.log(r[::-1]) for r in x])
            log_asc[:, ::-1].cumsum(axis=1, out=self.log_top[:, 1:])
            log_asc.cumsum(axis=1, out=self.log_bottom[:, 1:])
        # offsets of each spectrum's row in the flattened sums, breakpoints and cells
        rows = np.arange(b)[:, np.newaxis]
        self._at = at = rows * (n + 1)
        self._cells = rows[:, 0] * (3 * n + 5)
        top_sum, bottom_sum = self.top_sum.ravel(), self.bottom_sum.ravel()
        # per entry: how many entries lie above and below its tie group
        change = np.ones((b, n + 1), dtype=bool)
        np.not_equal(x[:, 1:], x[:, :-1], out=change[:, 1:-1])
        above = np.maximum.accumulate(col * change[:, :-1], axis=1)
        below = np.maximum.accumulate(col * change[:, :0:-1], axis=1)[:, ::-1]
        self.c1 = c1 = (x < 1.0).sum(axis=1)
        self.k_ml = k_ml = np.maximum(x[:, 0], 1.0)

        with np.errstate(divide="ignore", invalid="ignore"):
            # each entry's lower-clip (h) and upper-clip (g) breakpoint; nothing
            # lies below the smallest entry, even a zero one
            h = below - bottom_sum.take(below + at) / x
            np.copyto(h, 0.0, where=below == 0)
            g = top_sum.take(above + at) / x - above
            h1 = np.array([r[n - c :].sum() for r, c in zip(1.0 - x, c1.tolist())])
            mean = self.top_sum[:, n] / n
            cm = (x < mean[:, np.newaxis]).sum(axis=1)
            s_max = np.maximum(cm - bottom_sum.take(cm + at[:, 0]) / mean, h1)
            # the entries whose upper-clip breakpoint is at most h(1)
            p = np.array([g_r.searchsorted(v, "right") for g_r, v in zip(g, h1.tolist())])
            kmax_b = np.array([r[:k].sum() for r, k in zip(x, p.tolist())]) / (p + h1)
            kmax_b = np.maximum(kmax_b, 1.0)
        interior, pin = kmax_b > 1.0, h1 > 0.0

        # the interior rows, where kmax_b > 1, at s: h(1) twice, each breakpoint
        # in sorted order and h(mean x); ``ok`` marks the ones that are rows
        s = np.empty((b, 2 * n + 3))
        s[:, 0], s[:, 1], s[:, -1] = h1, h1, s_max
        ranked = s[:, 2:-1]
        ranked[:] = np.sort(np.concatenate((h, g), axis=1), axis=1)
        ok = np.empty(s.shape, dtype=bool)
        ok[:, 0], ok[:, -1] = True, s_max > 0.0  # a flat spectrum has one point
        np.not_equal(ranked[:, 1:], ranked[:, :-1], out=ok[:, 2:-2])
        ok[:, -2] = True
        ok[:, 2:-1] &= (ranked > h1[:, np.newaxis]) & (ranked < s_max[:, np.newaxis])
        # entries above 1 whose lower-clip breakpoint is h(1), as only zeros allow
        lifted = ((h == h1[:, np.newaxis]) & (x > 1.0)).sum(axis=1) * (x[:, -1] == 0.0)
        ok[:, 1] = (lifted > 0) & (s_max > h1)
        ok &= interior[:, np.newaxis]
        # the counts clipped from the top and the bottom just above each row's
        # s (just under it in kmax), as g (for descending x) and h (for
        # ascending x) rank them.  Both are sorted unless the spectrum has
        # negative entries, as eigh returns for a singular covariance; a rank
        # then depends on the values searched before it, so each spectrum
        # searches its own rows' s, as the one-row table did.
        top, bottom = np.zeros((2,) + s.shape, dtype=int)
        rows_s = [s_r[ok_r] for s_r, ok_r in zip(s, ok)]
        top[ok] = np.concatenate([g_r.searchsorted(v, "right") for g_r, v in zip(g, rows_s)])
        bottom[ok] = np.concatenate(
            [h_r[::-1].searchsorted(v, "right") for h_r, v in zip(h, rows_s)]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            # tau, U and kmax at s
            tau = bottom_sum.take(bottom + at) / (bottom - s)
            u = top_sum.take(top + at) / (s + top)
            kmax = np.maximum(u / tau, 1.0)
        # the boundary meets the interior at tau = 1
        bottom[:, 0] -= lifted * pin
        np.copyto(tau[:, 0], 1.0, where=pin)
        np.copyto(u[:, 0], kmax_b, where=pin)
        np.copyto(kmax[:, 0], kmax_b, where=pin)
        # U = tau = mean x at the last interior row, whatever U/tau rounds to
        kmax[:, -1] = 1.0
        np.copyto(kmax[:, 0], 1.0, where=~ok[:, -1])

        # the boundary rows, at the distinct x above kmax_b; h(1) = 0 means no
        # entry lies below 1, so the path is flat from k_ml down to x_1/x_N
        # instead of reaching a boundary breakpoint.  Without them, one point
        # at k_ml, with nothing clipped from above beneath it.
        edge = np.empty((b, n + 1))
        edge[:, 0], edge[:, 1:] = k_ml, x
        bd = np.empty((b, n + 1), dtype=bool)
        np.greater(x, np.where(pin, kmax_b, np.inf)[:, np.newaxis], out=bd[:, 1:])
        bd[:, 1:] &= change[:, 1:]
        np.logical_not(bd[:, 1:].any(axis=1), out=bd[:, 0])
        # where the boundary reaches kmax = 1 without interior rows, U = tau = 1 there
        unit = (~interior & (np.where(bd, edge, np.inf).min(axis=1) > 1.0))[:, np.newaxis]

        self.kmax = np.concatenate((edge, kmax, np.ones((b, 1))), axis=1)
        self.valid = np.concatenate((bd, ok, unit), axis=1)
        self._edge, self._tau, self._u = edge, tau, u
        self.top, self.bottom = np.empty((2, b, 3 * n + 5), dtype=int)
        self.top[:, : n + 1], self.top[:, n + 1 : -1], self.top[:, -1] = col1, top, n - c1
        self.bottom[:, : n + 1] = c1[:, np.newaxis]
        self.bottom[:, n + 1 : -1], self.bottom[:, -1] = bottom, c1
        self.switch = bd.sum(axis=1) * pin
        # each cell's rank among the rows, and the last row at or before it
        self._rank = self.valid.cumsum(axis=1) - 1
        self._prior = np.maximum.accumulate(np.where(self.valid, np.arange(3 * n + 5), -1), axis=1)
        self.first = self.valid.argmax(axis=1) + self._cells
        self.last = self._prior[:, -1] + self._cells

    def sums(self, top: np.ndarray, bottom: np.ndarray):
        """``[sum log x, sum x]`` over the ``top`` largest and the ``bottom``
        smallest entries of each spectrum."""
        pairs = self._pairs.reshape(2, 2, -1)
        return pairs[0].take(top + self._at, axis=1), pairs[1].take(bottom + self._at, axis=1)

    @functools.cached_property
    def log_lr(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            # tau and U at each cell: 1 and kmax on the boundary and at kmax = 1
            n = self.x.shape[1]
            tau, u = np.ones((2,) + self.kmax.shape)
            tau[:, n + 1 : -1] = self._tau
            u[:, : n + 1], u[:, n + 1 : -1] = self._edge, self._u
            return _clip_log_lr(*self.sums(self.top, self.bottom), self.top, self.bottom, tau, u)

    def segment(self, column: np.ndarray, value: np.ndarray, at_last=False):
        """The segment of each spectrum's path that holds its ``value`` on
        ``column`` (``kmax`` or ``log_lr``, both falling along the rows): the
        flat index of its lower end, the first row at or under ``value`` (the
        last row where ``at_last``), that row's rank, and the flat index of
        the row above it.  The first row's row above is the last, as a list
        wraps index -1.  A bound of at least 1 always finds its row, as every
        path ends at ``kmax = 1``."""
        under = self.valid & (column <= value[:, np.newaxis])
        i = np.where(at_last, self.last, under.argmax(axis=1) + self._cells)
        rank = self._rank.ravel().take(i)
        return i, rank, np.where(rank > 0, self._prior.ravel().take(i - 1) + self._cells, self.last)

    def solve(self, kmax: np.ndarray):
        """Case codes, ``u*`` and the counts clipped from the top and the bottom
        at each spectrum's bound ``kmax >= 1``, read off the upper end of the
        segment that holds it.  At ``k_ml`` (row 0) and above it is the FML
        case: nothing is clipped from above, and the entries below 1 are
        floored.  This is the one place a bound's case is decided."""
        _, rank, i = self.segment(self.kmax, kmax)
        at = self._at[:, 0]
        p, c = self.top.ravel().take(i), self.bottom.ravel().take(i)
        inv_k = 1.0 / kmax
        with np.errstate(divide="ignore", invalid="ignore"):
            top, bottom = self.top_sum.ravel().take(p + at), self.bottom_sum.ravel().take(c + at)
            u = (p + c) / (top + kmax * bottom)
        # the lower cap 1/(u kmax) stays at or above 1 where rounding crosses it
        u = np.where(inv_k < u, inv_k, u)
        u = np.where(p + c == 0, 1.0 / self.k_ml, u)  # the flat segment: nothing is clipped
        boundary = rank <= self.switch
        u = np.where(boundary, inv_k, u)
        fml = kmax >= self.k_ml
        u = np.where(fml, 1.0 / self.k_ml, u)
        case = np.where(fml, _FML, np.where(boundary, _BOUNDARY, _INTERIOR))
        return case, u, np.where(fml, 0, p), np.where(fml, self.c1, c)


def _cn_solve(x: np.ndarray, kmax: float):
    """The table's solution for each row of a stack ``x = d/sigma2`` at one bound."""
    if not 1 <= kmax < np.inf:
        raise InputError("condition-number bound kmax must be finite and at least 1")
    return _CnTable(x).solve(np.full(len(x), float(kmax)))


def cncml_u_star(stats: SampleStats, kmax: float) -> CnCaseResult:
    """Solve the scalar problem behind the condition-number estimator.

    Case split on the normalized eigenvalues ``dbar = d / sigma2``:

    1. ``dbar_1 <= 1``: scaled identity, ``u* = 1/kmax``.
    2. ``1 < dbar_1 <= kmax``: the FML estimate, ``u* = 1/dbar_1``.
    3. ``dbar_1 > kmax >= kmax_b``: the constraint boundary, ``u* = 1/kmax``.
    4. otherwise an interior point ``u* = 1/U = m/A``, with ``A = S_top +
       kmax S_bot`` over the ``m`` entries clipped at ``kmax``; ``u* =
       1/dbar_1`` on the flat segment, where nothing is clipped.

    The case, ``u*`` and the clip counts are read off the breakpoint table
    (:class:`_CnTable`) that :func:`cncml` and :func:`select_kmax` read.
    """
    x = stats.d / stats.sigma2
    case, u, p, c = (column[0] for column in _cn_solve(x[np.newaxis], kmax))
    # the table solves dbar_1 <= 1 as the FML case; that is reported as the
    # scaled identity, u* = 1/kmax, with the same cap map
    case, u = (CnCase.SCALED_IDENTITY, 1.0 / kmax) if x[0] <= 1.0 else (_CN_CASES[case], u)
    nbar = int(np.count_nonzero(x >= 1.0))
    return CnCaseResult(case_id=case, u_star=float(u), p=int(p), q=stats.n - int(c), nbar=nbar)


def _cn_caps(d: np.ndarray, sigma2: float, kmax, case, u, p, c) -> np.ndarray:
    """The condition-number estimates of a ``(B, N)`` stack as one cap map per
    row: the ``p`` largest sample eigenvalues take the upper cap, the ``c``
    smallest the lower cap, and the rest keep ``d``.  The caps are ``sigma2/u``
    and ``sigma2/(u kmax)`` in the interior case (``u = 1/U``) and ``sigma2
    kmax`` and ``sigma2`` otherwise."""
    n, inside = d.shape[1], case == _INTERIOR
    upper = np.where(inside, sigma2 / u, sigma2 * kmax)[:, np.newaxis]
    lower = np.where(inside, sigma2 / (u * kmax), sigma2)[:, np.newaxis]
    col = np.arange(n)
    return np.where(col >= n - c[:, np.newaxis], lower, np.where(col < p[:, np.newaxis], upper, d))


def _cncml_rows(d: np.ndarray, sigma2: float, kmax: float):
    """:func:`cncml` for each row of a ``(B, N)`` stack: the cap map of the
    stack's breakpoint table solved at ``kmax``, in every case."""
    lambdas = _cn_caps(d, sigma2, kmax, *_cn_solve(d / sigma2, kmax))
    return lambdas, {"sigma2": [sigma2] * len(d), "kmax": [float(kmax)] * len(d)}


def cncml(stats: SampleStats, kmax: float) -> CovarianceEstimate:
    """Condition-number constrained ML estimate.

    The cap map of the solution behind :func:`cncml_u_star`, for a finite
    bound ``kmax >= 1``; the resulting condition number is exactly 1,
    ``d_1/sigma2``, ``kmax`` and ``kmax`` in its four cases respectively.
    """
    return _one_row(stats, *_cncml_rows(stats.d[np.newaxis], stats.sigma2, kmax))


def _cncml_ml_rows(d: np.ndarray, sigma2: float):
    """:func:`cncml` at each row's ML bound ``kmax = max(d_1/sigma2, 1)``.

    That bound is case 1 or 2 of :func:`cncml_u_star`, where only the lower
    cap binds: the FML map, recorded with its ``kmax``.
    """
    kmaxes = np.maximum(d[:, 0] / sigma2, 1.0).tolist()
    return np.maximum(d, sigma2), {"sigma2": [sigma2] * len(d), "kmax": kmaxes}


def condition_number(est: CovarianceEstimate) -> float:
    """Spread ``lambdas[0] / lambdas[-1]`` of an estimate."""
    lam = est.lambdas
    if lam[-1] <= 0:
        raise InputError("condition number undefined: smallest eigenvalue is not positive")
    return float(lam[0] / lam[-1])
