"""Shared generators and brute-force oracles for the test suite."""

import numpy as np
import pytest

from elcov import CnCase, EigenDecomposition, SampleStats, ScenarioConfig


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
    inv_d = np.where(dbar > 0, 1.0 / dbar, np.inf)
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


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
