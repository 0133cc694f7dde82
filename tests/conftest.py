"""Shared generators and brute-force oracles for the test suite."""

import math
import sys

import numpy as np
import pytest

from elcov import (
    CnCase,
    EigenDecomposition,
    InputError,
    NoRootError,
    NumericalError,
    SampleStats,
    ScenarioConfig,
    log_lr_value,
)


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


def diag_log_lr(est_lambdas, sample_lambdas):
    """Independent LR oracle: dense determinant/trace on diagonal matrices."""
    r = np.diag(np.asarray(est_lambdas, dtype=complex))
    s = np.diag(np.asarray(sample_lambdas, dtype=complex))
    x = np.linalg.solve(r, s)
    sign, logdet = np.linalg.slogdet(x)
    n = len(est_lambdas)
    return float(logdet.real + n - np.trace(x).real)


def cn_lambda_map(u, dbar, kmax):
    """Normalized inverse-eigenvalue map of the condition-bounded solution."""
    inv_d = np.divide(1.0, dbar, out=np.full(np.shape(dbar), np.inf), where=dbar > 0)
    return np.minimum(np.minimum(kmax * u, 1.0), np.maximum(u, inv_d))


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
    """The former one-spectrum rank selection: ``(r_hat, visited)``.

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
    return r_hat, [(r, math.exp(v)) for r, v in enumerate(log_lr.tolist())]


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
        raise NoRootError(f"no finite loading factor reaches lr0={lr0}")
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
