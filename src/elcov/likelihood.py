"""Likelihood-ratio machinery and the invariant reference.

The likelihood ratio of an estimate sharing the sample eigenbasis reduces to
a function of the eigenvalue ratios ``rho_i = d_i / lambda_i``::

    lr = prod(rho_i) * exp(N) / exp(sum(rho_i)) <= 1

For the true covariance the distribution of ``lr`` depends only on the
matrix dimension ``N`` and the sample count ``K``.  Its log is a sum of
independent terms over the Bartlett factors (Goodman 1963), so its
cumulant generating function is closed form, and the median ``lr0`` and
the stored quantiles are roots of a saddlepoint CDF (Lugannani & Rice
1980): deterministic, with no draw and no seed.  A small text table can pin
the values per ``(N, K)``.  All arithmetic runs in the log domain; at large
``N`` the raw ratio underflows double precision.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import statistics
import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import SampleStats, rcml
from .exceptions import FormatError, InputError, NumericalError

__all__ = [
    "LambertBranch",
    "LRReference",
    "lambert_w",
    "log_lr_rcml",
    "log_lr_value",
    "lr0_load",
    "lr0_lookup",
    "lr0_reference",
    "lr0_store",
]

QUANTILE_PROBS = (0.05, 0.25, 0.5, 0.75, 0.95)
_NORMAL_QUANTILES = tuple(statistics.NormalDist().inv_cdf(p) for p in QUANTILE_PROBS)


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


def log_lr_rcml(stats: SampleStats, r: int) -> float:
    """Log LR of the rank-``r`` constrained estimate (non-decreasing in ``r``)."""
    return log_lr_value(rcml(stats, r).lambdas, stats.d)


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
    """Invariant LR statistics for one ``(n, k)`` pair.

    ``trials`` and ``seed`` are 0 for an exact reference; tables written by
    the former Monte Carlo reference hold its trial count and seed there.
    """

    n: int
    k: int
    trials: int
    seed: int
    lr0: float
    quantiles: list[tuple[float, float]]


# Bernoulli numbers B_2, B_4, ..., B_16 of the asymptotic polygamma series;
# from x = 10 on, the first omitted term is below 1e-16 of the leading one
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_ASYMPTOTIC_FROM = 10.0


def _digamma(x: float) -> float:
    """psi(x) for x > 0: the recurrence up to x >= 10, then the series."""
    acc = 0.0
    while x < _ASYMPTOTIC_FROM:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    for j in range(len(_BERNOULLI), 0, -1):
        tail = (tail + _BERNOULLI[j - 1] / (2 * j)) * inv2
    return acc + math.log(x) - 0.5 / x - tail


@functools.cache
def _polygamma_coefficients(n: int) -> tuple[int, float, tuple[float, ...]]:
    series = tuple(_BERNOULLI[j - 1] * math.factorial(2 * j + n - 1) / math.factorial(2 * j)
                   for j in range(1, len(_BERNOULLI) + 1))
    return math.factorial(n), float(math.factorial(n - 1)), series


def _polygamma(n: int, x: float) -> float:
    """psi^(n)(x) for n >= 1 and x > 0, built like :func:`_digamma`."""
    fact, lead, series = _polygamma_coefficients(n)
    acc = 0.0
    while x < _ASYMPTOTIC_FROM:
        acc += fact / x ** (n + 1)
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(series):
        tail = (tail + c) * inv2
    acc += (lead + 0.5 * fact / x + tail) / x**n
    return acc if n % 2 else -acc


class _BartlettCgf:
    """Cumulant generating function of ``log lr`` at the true covariance.

    For ``K >= N`` the Bartlett factors give ``log lr`` as a sum of
    independent terms with shapes ``a_i = K - i``, ``i < N``, so::

        kappa(t) = N t (1 - ln K) + sum_i [lnG(a_i + t) - lnG(a_i)] - N (K + t) ln(1 + t/K)

    for ``t > -m``, ``m = K - N + 1`` the smallest shape.  The shapes are
    consecutive, so ``sum_i f(m + t + i)`` for ``f = lnG, psi, psi', ...``
    is ``N f(m + t)`` plus the recurrence steps ``f(y + 1) - f(y)`` at
    ``y = m + t + l``, weighted by ``N - 1 - l``: one scalar function and
    one length-N sum per order.
    """

    def __init__(self, n: int, k: int):
        self.n, self.k, self.m = n, k, k - n + 1
        self._offsets = np.arange(n - 1, dtype=float)
        self._inv_shapes = 1.0 / (self.m + self._offsets)
        self._weights = np.arange(n - 1, 0, -1, dtype=float)

    def derivatives(self, t: float, top: int) -> list[float]:
        """``[kappa(t), kappa'(t), ..., kappa^(top)(t)]``, ``top >= 1``."""
        n, k, m, w = self.n, self.k, self.m, self._weights
        y = m + t
        inv = 1.0 / (y + self._offsets)
        out = [
            n * t * (1.0 - math.log(k)) + n * (math.lgamma(y) - math.lgamma(m))
            + float(w @ np.log1p(t * self._inv_shapes)) - n * (k + t) * math.log1p(t / k),
            n * _digamma(y) + float(w @ inv) - n * math.log(k + t),
        ]
        power = inv
        for order in range(1, top):
            power = power * inv
            # psi^(order)(y + 1) - psi^(order)(y) = (-1)^order order! / y^(order + 1)
            step = (math.factorial(order) * float(w @ power)
                    + n * math.factorial(order - 1) / (k + t) ** order)
            out.append(n * _polygamma(order, y) + (-step if order % 2 else step))
        return out


_NEAR_MEAN = 0.1  # |z| below which the Lugannani-Rice form is taken from its series
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _taylor(coefficients, z: float) -> tuple[float, float]:
    """Value and slope at ``z`` of the polynomial ``sum_i c_i z^i``."""
    value = slope = 0.0
    for c in reversed(coefficients):
        slope = slope * z + value
        value = value * z + c
    return value, slope


class _Saddlepoint:
    """Lugannani-Rice CDF of ``log lr`` at the saddlepoint ``t`` (N >= 2).

    ``F = Phi(w) + phi(w) (1/w - 1/u)`` with ``w = sign(t) sqrt(2 (t x - kappa(t)))``,
    ``u = t sqrt(kappa''(t))`` and ``x = kappa'(t)`` (Lugannani & Rice 1980).
    Both ``1/w`` and ``1/u`` grow like ``1/z``, ``z = t sqrt(kappa''(0))``,
    so near the mean the form cancels.  There ``w`` and ``1/w - 1/u`` come
    from their Taylor series in ``z``, whose coefficients are polynomials in
    the standardized cumulants ``l_r = kappa^(r)(0) / kappa''(0)^(r/2)``;
    at ``z = 0`` the CDF is ``1/2 + l_3 / (6 sqrt(2 pi))``.
    """

    def __init__(self, cgf: _BartlettCgf):
        self.cgf = cgf
        k2, *higher = cgf.derivatives(0.0, 6)[2:]
        self.scale = math.sqrt(k2)
        l3, l4, l5, l6 = (c / k2 ** (r / 2) for r, c in enumerate(higher, start=3))
        self.w_series = (
            1.0, l3 / 3, (9 * l4 - 4 * l3**2) / 72,
            (20 * l3**3 - 45 * l3 * l4 + 36 * l5) / 1080,
            -(400 * l3**4 - 1080 * l3**2 * l4 + 576 * l3 * l5 + 405 * l4**2 - 360 * l6) / 51840,
        )
        self.b_series = (
            l3 / 6, (3 * l4 - 5 * l3**2) / 24,
            (475 * l3**3 - 540 * l3 * l4 + 108 * l5) / 2160,
            -(11375 * l3**4 - 18900 * l3**2 * l4 + 4752 * l3 * l5 + 3645 * l4**2
              - 720 * l6) / 51840,
        )

    def __call__(self, t: float) -> tuple[float, float]:
        """``(F, dF/dt)`` at the saddlepoint ``t``."""
        # F = Phi(w) + phi(w) b with b = 1/w - 1/u, and dF/dt = phi(w) slope
        z = t * self.scale
        if abs(z) < _NEAR_MEAN:
            p, dp = _taylor(self.w_series, z)
            w = z * p
            b, db = _taylor(self.b_series, z)
            slope = ((p + z * dp) * (1.0 - w * b) + db) * self.scale
        else:
            k0, k1, k2, k3 = self.cgf.derivatives(t, 3)
            w = math.copysign(math.sqrt(2.0 * (t * k1 - k0)), t)
            root = math.sqrt(k2)
            b = 1.0 / w - 1.0 / (t * root)
            # from w dw/dt = t kappa''(t) and u = t sqrt(kappa''(t))
            slope = root + 1.0 / (t * t * root) + k3 / (2.0 * t * k2 * root) - t * k2 / w**3
        density = math.exp(-0.5 * w * w) * _INV_SQRT_2PI
        return 0.5 * math.erfc(-w / math.sqrt(2.0)) + density * b, density * slope


class _ScalarExact:
    """Exact CDF of ``log lr = log y + 1 - y``, ``y = g/K``, ``g ~ Gamma(K)`` (N = 1).

    ``log lr <= x`` where ``y`` lies outside the two roots
    ``y = -W(-e^(x - 1))`` on the two real Lambert branches, so the CDF is
    two gamma tails.  The saddlepoint is too coarse here at every ``K``
    (``-2K log lr`` tends to a chi-square with one degree of freedom): its
    quartiles miss by more than a 20 000-trial draw's standard error.
    """

    def __init__(self, cgf: _BartlettCgf):
        self.cgf = cgf

    def __call__(self, t: float) -> tuple[float, float]:
        x, dx = self.cgf.derivatives(t, 2)[1:]
        k = self.cgf.k
        arg = -math.exp(x - 1.0)
        lower = -lambert_w(LambertBranch.PRINCIPAL, arg)
        upper = -lambert_w(LambertBranch.LOWER, arg)
        cdf = 1.0 - _poisson_below(k, k * lower) + _poisson_below(k, k * upper)
        # density of g at k y, times dg/dx = k y / |1 - y|
        density = sum(math.exp(k * math.log(k * y) - k * y - math.lgamma(k)) / abs(1.0 - y)
                      for y in (lower, upper) if 0.0 < y != 1.0)
        return cdf, density * dx


def _poisson_below(k: int, v: float) -> float:
    """``P(Poisson(v) < k)``, that is ``P(Gamma(k) > v)`` for integer ``k``.

    Sums the Poisson terms within 12 standard deviations of ``v`` plus 40;
    the rest are below ``exp(-70)``.
    """
    if v <= 0.0:
        return 1.0
    spread = 12.0 * math.sqrt(v) + 40.0
    first, stop = max(0, int(v - spread)), min(k, int(v + spread) + 1)
    if first >= stop:
        return 0.0 if first >= k else 1.0
    j = np.arange(first, stop, dtype=float)
    # ln j! = ln first! + the sum of ln i over first < i <= j
    log_fact = math.lgamma(first + 1) + np.concatenate(([0.0], np.cumsum(np.log(j[1:]))))
    return float(np.exp(j * math.log(v) - v - log_fact).sum())


_MAX_STEPS = 100
_STEP_TOL = 1e-10


def _solve_quantile(cdf, m: int, p: float, t0: float) -> float:
    """Saddlepoint ``t`` with ``cdf(t) = p``: a bracketed, safeguarded Newton.

    Iterates on ``y = ln(m + t)``, which maps the domain ``t > -m`` onto the
    real line, so no iterate leaves it.  A step is at most 1 in ``y``.  It
    bisects the bracket when Newton leaves it or when a step does not halve
    the one before, which ends the search also where rounding dominates the
    CDF.
    """
    y = math.log(m + t0)
    lo, hi, last = -math.inf, math.inf, math.inf
    for _ in range(_MAX_STEPS):
        t = math.exp(y) - m
        value, slope = cdf(t)
        gap = value - p
        if gap == 0.0:
            return t
        if gap < 0.0:
            lo = y
        else:
            hi = y
        slope *= m + t  # dF/dy
        step = max(-1.0, min(1.0, gap / slope)) if slope > 0.0 else math.copysign(1.0, gap)
        if abs(step) <= _STEP_TOL:
            return math.exp(y - step) - m
        y_new = y - step
        if math.isfinite(lo + hi) and (not lo < y_new < hi or abs(step) > 0.5 * last):
            y_new = 0.5 * (lo + hi)
        last = abs(y_new - y)
        if last <= _STEP_TOL:
            return math.exp(y_new) - m
        y = y_new
    raise NumericalError(f"lr0 quantile p={p} did not converge in {_MAX_STEPS} steps")


def _log_lr_quantiles(n: int, k: int) -> list[float]:
    """Log-LR quantiles at ``QUANTILE_PROBS`` for ``K >= N``: exact at
    ``N = 1``, Lugannani-Rice otherwise."""
    cgf = _BartlettCgf(n, k)
    cdf = _ScalarExact(cgf) if n == 1 else _Saddlepoint(cgf)
    sd = math.sqrt(cgf.derivatives(0.0, 2)[2])
    logs = []
    for p, z in zip(QUANTILE_PROBS, _NORMAL_QUANTILES):
        # start at the normal approximation's saddlepoint, kept inside the domain
        t = _solve_quantile(cdf, cgf.m, p, max(z / sd, -0.5 * cgf.m))
        logs.append(cgf.derivatives(t, 1)[1])
    return logs


def lr0_reference(
    n: int, k: int, trials: int | None = None, seed: int | None = None
) -> LRReference:
    """Median and quantiles of the invariant LR distribution, without a draw.

    For ``S = Z Z^H / K`` with ``Z`` unit circular complex Gaussian, the
    complex Bartlett decomposition (Goodman 1963) gives ``K S = L L^H`` with
    independent ``|L_ii|^2 = g_i ~ Gamma(K - i)``, ``i = 0 .. N-1``, and the
    off-diagonal ``|L_ij|^2`` summing to one ``h ~ Gamma(N(N-1)/2)``.  So
    ``log lr = sum_i log(g_i / K) + N - (sum_i g_i + h) / K`` is a sum of
    independent terms, and its cumulant generating function is closed form
    (:class:`_BartlettCgf`).  Each quantile at 5/25/50/75/95 percent is the
    root of its Lugannani-Rice CDF; at ``N = 1`` it is the root of the exact
    CDF.  The median is ``lr0``.  The result is deterministic; ``trials``
    and ``seed`` are deprecated, ignored, and stored as 0.
    """
    del trials, seed  # deprecated: the reference is exact
    if n < 1 or k < 1:
        raise InputError("n and k must be positive")
    if k < n:
        warnings.warn(
            f"lr0 reference with k={k} < n={n}: sample covariance is singular "
            "and every LR value is zero",
            stacklevel=2,
        )
        logs = [-math.inf] * len(QUANTILE_PROBS)
    else:
        logs = _log_lr_quantiles(n, k)
    quantiles = [(p, math.exp(v)) for p, v in zip(QUANTILE_PROBS, logs)]
    return LRReference(n=n, k=k, trials=0, seed=0, lr0=dict(quantiles)[0.5], quantiles=quantiles)


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


def lr0_lookup(n: int, k: int, table, autocompute: bool = True) -> float:
    """Reference median for ``(n, k)``: loaded from ``table``, else computed.

    A missing entry is computed with :func:`lr0_reference` and appended to
    ``table``; with no table it is computed and not stored.  Raises
    :class:`InputError` instead of computing when ``autocompute`` is off.
    """
    if table is not None:
        ref = lr0_load(n, k, table)
        if ref is not None:
            return ref.lr0
    if not autocompute:
        raise InputError(f"no lr0 table entry for (n={n}, k={k}) and autocompute is disabled")
    ref = lr0_reference(n, k)
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


_HALLEY_STEPS = 50


def _halley(z: float, w: float, lower: bool) -> float:
    """Halley iteration on ``w exp(w) = z`` from ``w``, kept on one branch.

    It stops once a step is within ``1e-16 (1 + |w|)``, after
    ``_HALLEY_STEPS`` steps, or on a 2-cycle: where the stop rule lies below
    one ulp, the iterates can alternate between two neighbours for good.  A
    step depends on ``w`` alone, so such a cycle would repeat to the last
    step, and the one of the two that the last step would return is
    returned now.
    """
    back = math.nan
    for i in range(_HALLEY_STEPS):
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
        if w_new == back:  # iterate i + 1 repeats iterate i - 1
            return w_new if (_HALLEY_STEPS - i) % 2 else w
        back, w = w, w_new
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
