"""Shared generators and brute-force oracles for the test suite."""

import functools
import math
import sys

import numpy as np
import pytest

from elcov import (
    CnCase,
    ConstraintRecord,
    CovarianceEstimate,
    EigenDecomposition,
    InputError,
    JointSelection,
    LambertBranch,
    NoiseRoots,
    NoRootError,
    NumericalError,
    SampleStats,
    ScenarioConfig,
    log_lr_value,
)
from elcov.hermitian import HERMITIAN_TOL
from elcov.likelihood import _BRANCH_POINT, _branch_series
from elcov.scenario import _sinc
from elcov.selection import KmaxSelection, _rank_rows


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (a + a.conj().T) * scale
    np.fill_diagonal(h, h.diagonal().real)
    return h


def random_psd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = a @ a.conj().T / n * scale
    return 0.5 * (h + h.conj().T)


def stats_from_spectrum(d, k=None, sigma2=1.0):
    """SampleStats with a given eigenvalue vector on the identity basis."""
    d = np.asarray(d, dtype=float)
    n = len(d)
    eig = EigenDecomposition(eigenvalues=d, eigenvectors=np.eye(n, dtype=complex))
    return SampleStats(n=n, k=k if k is not None else 2 * n, s_eig=eig, sigma2=sigma2)


def log_lr_matrix(r, s) -> float:
    """Log likelihood ratio for a general (not co-aligned) estimate ``r``.

    Computes ``log |r^-1 s| + N - tr(r^-1 s)`` via a linear solve, for use
    when the estimate does not share the sample eigenbasis.
    """
    r = np.asarray(r, dtype=np.complex128)
    s = np.asarray(s, dtype=np.complex128)
    n = r.shape[0]
    try:
        x = np.linalg.solve(r, s)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"estimate matrix is singular: {exc}") from exc
    sign, logdet = np.linalg.slogdet(x)
    if sign == 0:
        return -math.inf
    return float(logdet.real + n - np.trace(x).real)


def diag_log_lr(est_lambdas, sample_lambdas):
    """Independent LR oracle: dense determinant/trace on diagonal matrices."""
    return log_lr_matrix(np.diag(est_lambdas), np.diag(sample_lambdas))


def cn_lambda_map(u, dbar, kmax):
    """Normalized inverse-eigenvalue map of the condition-bounded solution."""
    inv_d = np.divide(1.0, dbar, out=np.full(np.shape(dbar), np.inf), where=dbar > 0)
    return np.minimum(np.minimum(kmax * u, 1.0), np.maximum(u, inv_d))


def cncml_objective(u, dbar: np.ndarray, kmax: float):
    """Separable objective ``sum_i [-log lam_i(u) + dbar_i lam_i(u)]``.

    ``u`` may be a scalar or an array; the value is the (normalized)
    negative log-likelihood of the condition-number constrained solution
    evaluated at that ``u``.
    """
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    lam = cn_lambda_map(u_arr[:, None], dbar[None, :], kmax)
    vals = np.sum(dbar[None, :] * lam - np.log(lam), axis=1)
    return vals if np.ndim(u) else float(vals[0])


def cn_objective_grid(dbar, kmax, step=1e-6, chunk=250_000):
    """Brute-force scan of the condition-number objective over u in (0, 1].

    Returns (u_min, value_min) of the grid argmin.  The objective is summed
    one eigenvalue column at a time, in index order.
    """
    u = np.arange(step, 1.0 + 0.5 * step, step)
    best_u, best_val = None, np.inf
    for start in range(0, len(u), chunk):
        uu = u[start : start + chunk]
        lam = cn_lambda_map(uu, dbar[0], kmax)
        total, prod = dbar[0] * lam, lam
        for d_j in dbar[1:]:
            lam = cn_lambda_map(uu, d_j, kmax)
            total, prod = total + d_j * lam, prod * lam
        vals = total - np.log(prod)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_u = float(vals[i]), float(uu[i])
    return best_u, best_val


def bisect_u_oracle(dbar, kmax):
    """Case and ``u*`` for ``dbar_1 > kmax``, bisecting the objective's slope.

    The slope is differentiated term by term from the cap map and bisected
    on ``[1/dbar_1, 1/kmax]`` until the midpoint no longer splits the bracket.
    An array of bounds is bisected at once, each on its own bracket, and
    gives arrays of cases and ``u*``.
    """
    k = np.atleast_1d(np.asarray(kmax, dtype=float))[:, None]

    def cap_map(u):
        return cn_lambda_map(u[:, None], dbar, k)

    def slope(u):
        lam = cap_map(u)
        dlam = np.where(lam == k * u[:, None], k, np.where(lam == u[:, None], 1.0, 0.0))
        return np.sum((dbar - 1.0 / lam) * dlam, axis=1)

    def objective(u):
        lam = cap_map(u)
        return np.sum(dbar * lam - np.log(lam), axis=1)

    lo, hi = np.full(len(k), 1.0 / dbar[0]), 1.0 / k[:, 0]
    boundary = slope(hi) <= 0.0
    while True:
        mid = 0.5 * (lo + hi)
        split = (lo < mid) & (mid < hi) & ~boundary
        if not split.any():
            break
        negative = slope(mid) < 0.0
        lo = np.where(split & negative, mid, lo)
        hi = np.where(split & ~negative, mid, hi)
    u = np.where(boundary, hi, np.where(objective(lo) <= objective(hi), lo, hi))
    cases = np.where(boundary, CnCase.BOUNDARY_U, CnCase.INTERIOR_U)
    return (cases[0], float(u[0])) if np.ndim(kmax) == 0 else (cases, u)


def scalar_rank_oracle(d, sigma2, lr0):
    """The former one-spectrum rank selection: ``(r_hat, visited)``, with
    ``visited`` in log LRs.

    The log LR of every rank ``0..p`` as a suffix sum on a 1-D spectrum,
    and the first argmin of its mismatch to ``log lr0``.
    """
    if not 0 < lr0 <= 1:
        raise InputError("lr0 must lie in (0, 1]")
    x = d / sigma2
    p = int(np.count_nonzero(x > 1.0))
    with np.errstate(divide="ignore"):
        terms = np.log(x) + 1.0 - x
    log_lr = np.append(np.cumsum(terms[::-1])[::-1], 0.0)[: p + 1]
    r_hat = int(np.argmin(np.abs(log_lr - math.log(lr0))))
    return r_hat, list(enumerate(log_lr.tolist()))


def scalar_loading_oracle(d, lr0):
    """The former one-spectrum Halley search for the loading factor:
    ``(beta, evals)``, one :func:`log_lr_value` call per evaluation."""
    if not 0 < lr0 < 1:
        raise InputError("lr0 must lie strictly inside (0, 1) for loading selection")
    if d[-1] <= 0:
        raise NoRootError("sample covariance is singular; the loaded LR is identically zero")
    log_lr0 = math.log(lr0)
    a, n, log_d_min, ratio = -log_lr0, len(d), math.log(d[-1]), d[-1] / d
    x_lo = max(
        log_d_min + 0.5 * math.log(2.0 * a / float(ratio @ ratio)),
        log_d_min + a / n + math.log(-math.expm1(-a / n)),
    )
    if x_lo > math.log(sys.float_info.max):
        raise NoRootError(f"no finite loading factor reaches log lr0={log_lr0}")
    x_hi = min(2.0 + (float(np.log(d).sum()) + a) / n, math.log(sys.float_info.max))
    x = x_lo
    for evals in range(1, 61):
        beta = math.exp(x)
        f = log_lr_value(d + beta, d) - log_lr0
        if abs(f) <= 1e-9:
            return beta, evals
        if f > 0.0:
            x_lo = x
        elif x == x_lo:
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


# The one-spectrum condition-number code that the stacked table replaced,
# kept verbatim as the per-row oracle of ``estimators._CnTable``,
# ``estimators._cncml_rows`` and ``selection._kmax_rows``.
_NEWTON_RTOL, _NEWTON_MAX_STEPS = 1e-12, 60  # last relative step on kmax, step cap


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
    ``log_lr`` is computed on first use: only :func:`select_kmax` reads it.
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
        self.kmax, self.top, self.bottom, self._tau, self._u, self.switch = self.breakpoints()

    def breakpoints(self):
        """The table's columns, in descending ``kmax``, ``tau`` and ``U`` at
        each breakpoint, and its ``switch``."""
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
        return kmax, top, bottom, tau, u, len(kmax_bd) if h1 > 0.0 else 0

    @functools.cached_property
    def log_lr(self) -> np.ndarray:
        sums, top, bottom = self.sums, self.top, self.bottom
        with np.errstate(divide="ignore", invalid="ignore"):
            return _clip_log_lr(
                (sums.log_top[top], sums.top[top]), (sums.log_bottom[bottom], sums.bottom[bottom]),
                top, bottom, self._tau, self._u,
            )

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


scalar_cn_solution_oracle = _cn_solution


def scalar_cncml_oracle(stats: SampleStats, kmax: float) -> CovarianceEstimate:
    """Condition-number constrained ML estimate.

    The cap map of the solution behind :func:`cncml_u_star`; the resulting
    condition number is exactly 1, ``d_1/sigma2``, ``kmax`` and ``kmax`` in
    its four cases respectively.
    """
    return _cn_estimate(stats, kmax, *_cn_solution(stats, kmax))


def scalar_kmax_oracle(stats: SampleStats, lr0: float) -> KmaxSelection:
    """Tune the condition-number bound so the estimate's LR matches ``lr0``.

    The LR is non-decreasing in ``kmax``.  The ML bound ``k_ml = d_1 / sigma2``
    (at least 1) is returned when its LR is at or below ``lr0``, flagged
    ``constraint_active=False`` when ``d_1 <= sigma2``; 1 is returned when
    its LR reaches ``lr0``.  Otherwise the root lies on one segment of the
    breakpoint table (:class:`_CnPath`, the one :func:`cncml` reads), where
    the log LR is closed form:
    ``sum_top [log(x/kmax) + 1 - x/kmax] + const`` on the boundary and
    ``sum_{top,bot} log x + c log kmax - m log((S_top + kmax S_bot)/m)``
    inside (``p`` top and ``c`` bottom entries, ``m = p + c``).  Both are
    concave and increasing in ``log kmax``, with slope ``g(U)``, so Newton
    steps from the segment's lower end rise monotonically to the root; they
    stop once a step is below ``1e-12`` relative.  The estimate is the cap
    map at the selected bound, read off the table as :func:`cncml` reads it
    (:meth:`_CnPath.solve`); nothing is solved a second time.
    """
    if not 0 < lr0 <= 1:
        raise InputError("lr0 must lie in (0, 1]")
    log_lr0 = math.log(lr0)
    x = stats.d / stats.sigma2
    path = _CnPath(x)
    sums = path.sums
    visited = list(zip(path.kmax.tolist(), path.log_lr.tolist()))
    if x[0] <= 1.0 or path.log_lr[0] <= log_lr0:
        k_ml = float(path.kmax[0])
        estimate = _cn_estimate(stats, k_ml, *path.solve(k_ml))
        return KmaxSelection(k_ml, estimate, visited, 0.0, bool(x[0] > 1.0))

    at_one = bool(path.log_lr[-1] >= log_lr0)
    # the root lies in [kmax[i], kmax[i-1]]; at kmax = 1 it is the last segment
    i = len(path.kmax) - 1 if at_one else int(np.argmax(path.log_lr <= log_lr0))
    k_lo, k_hi = float(path.kmax[i]), float(path.kmax[i - 1])
    p, c = int(path.top[i - 1]), int(path.bottom[i - 1])
    top = float(sums.log_top[p]), float(sums.top[p])
    bottom = float(sums.log_bottom[c]), float(sums.bottom[c])
    interior = i > path.switch and p + c > 0  # the flat segment clips nothing

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
        visited.insert(i, (kmax_hat, log_lr_slope(kmax_hat)[0]))
    estimate = _cn_estimate(stats, kmax_hat, *path.solve(kmax_hat))
    return KmaxSelection(kmax_hat, estimate, visited, step)


# The one-call joint selection path as it was before its overhead was cut,
# kept verbatim as the oracle of ``hermitian.as_hermitian``,
# ``hermitian._eigh_desc``, ``likelihood._halley``,
# ``selection.sigma_el_roots``, ``selection._nmf_scorer`` and
# ``selection.select_rank_sigma``: the lean code must match it bit for bit.


def as_hermitian_oracle(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise InputError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(a)):
        raise InputError("matrix entries must be finite")
    delta = a - a.conj().T
    if np.max(np.abs(delta.real)) > HERMITIAN_TOL or np.max(np.abs(delta.imag)) > HERMITIAN_TOL:
        i, j = np.unravel_index(np.argmax(np.abs(delta)), delta.shape)
        raise InputError(
            f"matrix is not Hermitian: entry ({i}, {j}) differs from the "
            f"conjugate of ({j}, {i}) by {abs(delta[i, j]):.3e}"
        )
    return 0.5 * (a + a.conj().T)


def eigh_desc_oracle(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(h)
    # anchors are found before the columns are reversed, on contiguous data;
    # the reversal moves columns, so each column keeps its anchor row
    anchor = np.argmax(np.abs(v), axis=-2)[..., np.newaxis, :]
    pivots = np.take_along_axis(v, anchor, axis=-2)
    # eigh columns are unit norm, so the anchors cannot vanish
    return w[..., ::-1].copy(), v[..., ::-1] * (np.abs(pivots) / pivots)[..., ::-1]


def halley_oracle(z: float, w: float, lower: bool) -> float:
    """The Halley loop that runs all 50 steps when its iterates 2-cycle."""
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - z
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0:
            break
        step = f / denom
        w_new = w - step
        # keep iterates inside the branch half-plane
        if lower and w_new > -1.0:
            w_new = 0.5 * (w - 1.0)
        elif not lower and w_new < -1.0:
            w_new = 0.5 * (w - 1.0)
        if abs(w_new - w) <= 1e-16 * (1.0 + abs(w_new)):
            return w_new
        w = w_new
    return w


def lambert_w_oracle(branch: LambertBranch, z: float) -> float:
    """``likelihood.lambert_w``, starts included, on :func:`halley_oracle`."""
    z = float(z)
    if not math.isfinite(z):
        raise InputError("lambert_w argument must be finite")
    if z < _BRANCH_POINT:
        raise InputError(f"z={z!r} is below the branch point -1/e")
    if z == _BRANCH_POINT:
        return -1.0
    p2 = 2.0 * (math.e * z + 1.0)
    p = math.sqrt(max(p2, 0.0))

    if branch is LambertBranch.PRINCIPAL:
        if z == 0.0:
            return 0.0
        if p < 1e-3:
            return _branch_series(p)
        if z < -0.32:
            w0 = _branch_series(p)
        elif z > math.e:
            log_z = math.log(z)
            w0 = log_z - math.log(log_z)
        else:
            w0 = math.log1p(z)
        return halley_oracle(z, w0, lower=False)

    if branch is LambertBranch.LOWER:
        if z >= 0.0:
            raise InputError("lower branch requires -1/e <= z < 0")
        if p < 1e-3:
            return _branch_series(-p)
        if z < -0.25:
            w0 = _branch_series(-p)
        else:
            log_neg = math.log(-z)
            w0 = log_neg - math.log(-log_neg)
        return halley_oracle(z, w0, lower=True)

    raise InputError(f"unknown Lambert branch {branch!r}")


def sigma_el_roots_oracle(sample_lambdas, r: int, lr0: float) -> NoiseRoots:
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
    hi = math.exp(lambert_w_oracle(LambertBranch.PRINCIPAL, z) + c / a)
    lo = math.exp(lambert_w_oracle(LambertBranch.LOWER, z) + c / a)
    roots = (min(lo, hi), max(lo, hi))
    return NoiseRoots(count=2, roots=roots, sigma_ml=s_ml)


def nmf_scorer_oracle(s_eig: EigenDecomposition, steering, training):
    v_h = s_eig.eigenvectors.conj().T
    ws, w = v_h @ steering, v_h @ training
    ws_conj, ws2, w2 = ws.conj(), np.abs(ws) ** 2, np.abs(w) ** 2

    def mean_nmf(lambdas):
        q = 1.0 / lambdas
        nmf = np.abs((q * ws_conj) @ w) ** 2 / ((q @ ws2)[..., None] * (q @ w2))
        means = np.mean(nmf, axis=-1)
        return float(means) if means.ndim == 0 else means

    return mean_nmf


def select_rank_sigma_oracle(
    s_eig: EigenDecomposition,
    k: int,
    r_init: int,
    lr0: float,
    training: np.ndarray,
    steering: np.ndarray,
) -> JointSelection:
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
    if not (training.any(axis=0).all() and np.isfinite(training).all()):
        raise InputError("training columns must be nonzero and finite")
    steering = np.asarray(steering, dtype=np.complex128)
    if steering.shape != (n,) or not abs(np.linalg.norm(steering) - 1.0) <= 1e-6:
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
        r_hat = int(_rank_rows(d[np.newaxis], float(d[r:].mean()), log_lr0)[0][0])
        r_new = int(climbed[min(r_hat, n - 1)])
        if r_new >= r:
            break
        r = r_new

    roots = sigma_el_roots_oracle(d, r, lr0)
    labels, sigmas = ["ML"], [roots.sigma_ml]
    if roots.count == 2 and r > 0:
        labels += ["EL1", "EL2"]
        sigmas += roots.roots
    sig = np.array(sigmas)[:, None]
    if not np.all((sig > 0) & (sig < np.inf)):  # the check SampleStats made on each candidate
        raise InputError("noise power sigma2 must be positive and finite")
    # the rcml eigenvalues at every candidate noise power
    lambdas = np.repeat(sig, n, axis=1)
    lambdas[:, :r] = np.maximum(d[:r], sig)
    best = int(np.argmin(nmf_scorer_oracle(s_eig, steering, training)(lambdas)))
    return JointSelection(
        r_hat=r, sigma2_hat=sigmas[best], chosen_from=labels[best], iterations=iterations
    )


def draw_training_oracle(factor, k, corruption, rng):
    """The former per-trial training draw: ``sample_training`` and then the
    corruption of ``generate_training``, one trial at a time."""
    factor = np.asarray(factor, dtype=np.complex128)
    n = factor.shape[1]
    w = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    w *= np.sqrt(0.5)
    z = factor @ w
    corrupted = ()
    if corruption is not None and corruption.fraction > 0:
        count = int(np.floor(corruption.fraction * k + 0.5))
        if count > 0:
            picks = np.sort(rng.choice(k, size=count, replace=False))
            z[:, picks] += corruption.amplitude * corruption.steering[:, None]
            corrupted = tuple(int(i) for i in picks)
    return z, corrupted


def jammer_covariance_oracle(cfg: ScenarioConfig) -> np.ndarray:
    """The former element-wise build of ``jammer_covariance``: the sinc and
    the complex exp taken per entry rather than per lag."""
    idx = np.arange(cfg.n)
    delta = idx[:, None] - idx[None, :]
    r = np.zeros((cfg.n, cfg.n), dtype=np.complex128)
    for power, phi, beta in zip(cfg.jammer_powers, cfg.phase_angles(), cfg.jammer_bandwidths):
        envelope = _sinc(0.5 * beta * delta * phi, cfg.sinc_convention)
        r += power * envelope * np.exp(1j * delta * phi)
    r[idx, idx] += cfg.noise_power
    return r


def bartlett_log_lr(gen, n, k, trials):
    """Exact draw of ``log lr`` at the true covariance (K >= N).

    For ``S = Z Z^H / K`` with ``Z`` unit circular complex Gaussian, the
    complex Bartlett decomposition (Goodman 1963) gives ``K S = L L^H`` with
    independent ``|L_ii|^2 = g_i ~ Gamma(K - i)``, ``i < N``, and the
    off-diagonal ``|L_ij|^2`` summing to one ``h ~ Gamma(N(N-1)/2)``, so
    ``log lr = sum_i log(g_i / K) + N - (sum_i g_i + h) / K`` needs no
    matrix.  Trials are drawn in chunks of about two million gammas.
    """
    shapes = np.append(k - np.arange(n), n * (n - 1) / 2)
    chunk = max(1, 2_000_000 // (n + 1))
    logs = np.empty(trials)
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        g = gen.standard_gamma(shapes, size=(m, n + 1))
        logs[start:start + m] = np.log(g[:, :n] / k).sum(axis=1) + n - g.sum(axis=1) / k
    return logs


def reference_scenario():
    """Three-jammer array scenario used by the Monte Carlo gates.

    Phase angles are given directly in radians (20, 40 and 60 degrees of
    electrical phase) and jammer powers linearly (10, 20 and 30 dB over the
    unit noise floor); this parameterization yields a disturbance with
    exactly five eigenvalues more than 10 dB above the noise.
    """
    phases = tuple(float(np.deg2rad(a)) for a in (20.0, 40.0, 60.0))
    return ScenarioConfig(
        n=20,
        jammer_powers=(10.0, 100.0, 1000.0),
        jammer_angles=phases,
        jammer_bandwidths=(0.2, 0.0, 0.3),
        noise_power=1.0,
        angle_mode="radians",
    )



def six_jammer_scenario(n):
    """Six band-limited jammers at -47 to 58 degrees on an ``n``-element array
    (the ``large-n`` benchmark scenario at ``n = 64``)."""
    return ScenarioConfig(
        n=n,
        jammer_powers=(10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0),
        jammer_angles=(-47.0, -25.0, -8.0, 12.0, 33.0, 58.0),
        jammer_bandwidths=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3),
        noise_power=1.0,
    )

@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
