"""Likelihood-ratio machinery and the precomputed invariant reference.

The likelihood ratio of an estimate sharing the sample eigenbasis reduces to
a function of the eigenvalue ratios ``rho_i = d_i / lambda_i``::

    lr = prod(rho_i) * exp(N) / exp(sum(rho_i)) <= 1

For the true covariance the distribution of ``lr`` depends only on the
matrix dimension ``N`` and the sample count ``K``, so its median ``lr0`` is
drawn once per ``(N, K)`` from the Bartlett factors (Goodman 1963) and
cached in a small text table.  All arithmetic runs in the log domain; at
large ``N`` the raw ratio underflows double precision.
"""

from __future__ import annotations

import enum
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import SampleStats, rcml
from .exceptions import FormatError, InputError, NumericalError
from .hermitian import derive_rng

__all__ = [
    "LambertBranch",
    "LRReference",
    "lambert_w",
    "log_lr_matrix",
    "log_lr_rcml",
    "log_lr_value",
    "lr0_load",
    "lr0_lookup",
    "lr0_reference",
    "lr0_store",
    "lr_rcml",
    "lr_value",
]

QUANTILE_PROBS = (0.05, 0.25, 0.5, 0.75, 0.95)


def log_lr_value(est_lambdas, sample_lambdas) -> float:
    """Log likelihood ratio of an estimate against the sample eigenvalues.

    Accepts ``sample_lambdas`` entries equal to zero (rank-deficient sample
    covariance), in which case the ratio is zero and the log is ``-inf``.
    """
    lam = np.asarray(est_lambdas, dtype=float)
    d = np.asarray(sample_lambdas, dtype=float)
    if lam.shape != d.shape or lam.ndim != 1:
        raise InputError("eigenvalue vectors must be 1-D and of equal length")
    # array methods: the reductions of np.any / np.sum with less call overhead
    if (lam <= 0).any():
        raise InputError("estimate eigenvalues must be strictly positive")
    if (d < 0).any():
        raise InputError("sample eigenvalues must be non-negative")
    rho = d / lam
    with np.errstate(divide="ignore"):
        log_rho = np.log(rho)
    return float(log_rho.sum() + len(d) - rho.sum())


def lr_value(est_lambdas, sample_lambdas) -> float:
    """Likelihood ratio in linear scale; equals 1 iff all ratios are 1."""
    return math.exp(log_lr_value(est_lambdas, sample_lambdas))


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


def log_lr_rcml(stats: SampleStats, r: int) -> float:
    """Log LR of the rank-``r`` constrained estimate (non-decreasing in ``r``)."""
    return log_lr_value(rcml(stats, r).lambdas, stats.d)


def lr_rcml(stats: SampleStats, r: int) -> float:
    return math.exp(log_lr_rcml(stats, r))


def log_tail_lr(sample_lambdas, r: int, t: float) -> float:
    """Log LR of the profile ``[d_1 .. d_r, t, ..., t]`` as a function of ``t``.

    This unclipped family is what the noise-power root finding inverts; it
    peaks at the mean of the ``N - r`` trailing sample eigenvalues.
    """
    d = np.asarray(sample_lambdas, dtype=float)
    if not 0 <= r < len(d):
        raise InputError(f"rank {r} outside [0, {len(d) - 1}]")
    if not t > 0:
        raise InputError("noise power t must be positive")
    tail = d[r:]
    with np.errstate(divide="ignore"):
        log_tail = np.log(tail / t)
    return float(np.sum(log_tail) + len(tail) - np.sum(tail) / t)


@dataclass
class LRReference:
    """Cached invariant LR statistics for one ``(n, k)`` pair."""

    n: int
    k: int
    trials: int
    seed: int
    lr0: float
    quantiles: list[tuple[float, float]]


def lr0_reference(n: int, k: int, trials: int = 20000, seed: int = 0) -> LRReference:
    """Draw the invariant LR distribution and return its median.

    For ``S = Z Z^H / K`` with ``Z`` unit circular complex Gaussian, the
    complex Bartlett decomposition (Goodman 1963) gives ``K S = L L^H`` with
    independent ``|L_ii|^2 = g_i ~ Gamma(K - i)``, ``i = 0 .. N-1``, and the
    off-diagonal ``|L_ij|^2`` summing to one ``h ~ Gamma(N(N-1)/2)``.  So
    ``lr = |S| exp(N) / exp(tr S)`` is drawn exactly, with no matrix, as
    ``log lr = sum_i log(g_i / K) + N - (sum_i g_i + h) / K``.  Trials are
    rows of one C-order draw, so the first ``t`` trials of any run equal a
    ``t``-trial run.  Quantiles at 5/25/50/75/95 percent are stored
    alongside the median.
    """
    if n < 1 or k < 1:
        raise InputError("n and k must be positive")
    if trials < 2:
        raise InputError("trials must be at least 2")
    if k < n:
        warnings.warn(
            f"lr0 reference with k={k} < n={n}: sample covariance is singular "
            "and every LR value is zero",
            stacklevel=2,
        )
    # a zero shape draws 0, so at k < n the determinant and every LR are 0
    shapes = np.append(np.maximum(k - np.arange(n), 0), n * (n - 1) / 2)
    g = derive_rng(seed, "lr0-bartlett").standard_gamma(shapes, size=(trials, n + 1))
    with np.errstate(divide="ignore"):
        logs = np.log(g[:, :n] / k).sum(axis=1) + n - g.sum(axis=1) / k
    lr = np.exp(logs)
    quantiles = [(p, float(np.quantile(lr, p))) for p in QUANTILE_PROBS]
    return LRReference(
        n=n, k=k, trials=trials, seed=seed, lr0=float(np.median(lr)), quantiles=quantiles
    )


_TABLE_HEADER = "LR0TABLE v1"


def lr0_store(ref: LRReference, path) -> None:
    """Append a reference record to a line-oriented table file.

    Records are keyed by ``(n, k)``; duplicates are allowed in the file and
    resolved last-write-wins at load time.
    """
    qmap = dict(ref.quantiles)
    fields = [str(ref.n), str(ref.k), str(ref.trials), str(ref.seed), f"{ref.lr0:.17g}"]
    fields += [f"{qmap[p]:.17g}" for p in QUANTILE_PROBS]
    line = " ".join(fields) + "\n"
    # append in place: stored records are never rewritten, so a failed write
    # can lose at most the record being added
    with open(path, "ab+") as fh:
        if fh.seek(0, os.SEEK_END) == 0:
            line = _TABLE_HEADER + "\n" + line
        else:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                line = "\n" + line
        fh.write(line.encode("utf-8"))


def _parse_table(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return []
    if not lines or lines[0].strip() != _TABLE_HEADER:
        raise FormatError(f"expected header {_TABLE_HEADER!r}", path=path, line=1)
    records = []
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 5 + len(QUANTILE_PROBS):
            raise FormatError(
                f"expected {5 + len(QUANTILE_PROBS)} fields, found {len(parts)}",
                path=path,
                line=lineno,
            )
        try:
            n, k, trials, seed = (int(parts[i]) for i in range(4))
            values = [float(v) for v in parts[4:]]
        except ValueError as exc:
            raise FormatError(f"unparseable numeric field: {exc}", path=path, line=lineno) from exc
        records.append(
            LRReference(
                n=n,
                k=k,
                trials=trials,
                seed=seed,
                lr0=values[0],
                quantiles=list(zip(QUANTILE_PROBS, values[1:])),
            )
        )
    return records


def lr0_load(n: int, k: int, path) -> LRReference | None:
    """Look up the reference for ``(n, k)``; None when absent.

    If the file holds several records for the key, the last one wins and a
    warning is emitted when they disagree on the seed.
    """
    matches = [rec for rec in _parse_table(path) if rec.n == n and rec.k == k]
    if not matches:
        return None
    if len(matches) > 1 and any(rec.seed != matches[-1].seed for rec in matches[:-1]):
        warnings.warn(
            f"lr0 table {path} holds {len(matches)} records for (n={n}, k={k}) "
            "with differing seeds; using the last one",
            stacklevel=2,
        )
    return matches[-1]


def lr0_lookup(n: int, k: int, table, trials: int, seed: int, autocompute: bool = True) -> float:
    """Reference median for ``(n, k)``: loaded from ``table``, else computed.

    A missing entry is drawn with ``trials`` and ``seed`` and appended to
    ``table``; with no table it is drawn and not stored.  Raises
    :class:`InputError` instead of drawing when ``autocompute`` is off.
    """
    if table is not None:
        ref = lr0_load(n, k, table)
        if ref is not None:
            return ref.lr0
    if not autocompute:
        raise InputError(f"no lr0 table entry for (n={n}, k={k}) and autocompute is disabled")
    ref = lr0_reference(n, k, trials=trials, seed=seed)
    if table is not None:
        lr0_store(ref, table)
    return ref.lr0


class LambertBranch(enum.Enum):
    """Real branches of the Lambert W function.

    ``PRINCIPAL`` is the branch with ``W >= -1`` (commonly indexed 0) and
    ``LOWER`` the branch with ``W <= -1`` on ``[-1/e, 0)`` (commonly
    indexed -1).
    """

    PRINCIPAL = "principal"
    LOWER = "lower"


_BRANCH_POINT = -1.0 / math.e


def _branch_series(p: float) -> float:
    # expansion of W around the branch point, p = +-sqrt(2 (e z + 1))
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0))))


def _halley(z: float, w: float, lower: bool) -> float:
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


def lambert_w(branch: LambertBranch, z: float) -> float:
    """Evaluate a real branch of the Lambert W function.

    Satisfies ``W exp(W) = z`` to near machine precision.  The principal
    branch accepts ``z >= -1/e``; the lower branch accepts
    ``-1/e <= z < 0``.  Both return exactly -1 at the branch point.
    """
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
        w0 = _branch_series(p) if z < -0.32 else math.log1p(z)
        return _halley(z, w0, lower=False)

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
        return _halley(z, w0, lower=True)

    raise InputError(f"unknown Lambert branch {branch!r}")
