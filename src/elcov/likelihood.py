"""Likelihood-ratio machinery and the invariant reference.

The likelihood ratio of an estimate sharing the sample eigenbasis reduces to
a function of the eigenvalue ratios ``rho_i = d_i / lambda_i``::

    lr = prod(rho_i) * exp(N) / exp(sum(rho_i)) <= 1

For the true covariance the distribution of ``lr`` depends only on the
matrix dimension ``N`` and the sample count ``K``.  Its log is a sum of
independent terms over the Bartlett factors (Goodman 1963), so its moment
generating function ``E[lr^s]`` is closed form, and the median ``lr0`` and
the stored quantiles come from inverting it exactly: the fixed Talbot
contour (Abate & Valko 2004) at small ``N``, the Gil-Pelaez (1951) formula
on the characteristic function above.  They are deterministic, with no
draw and no seed.  A small text table can pin the values per ``(N, K)``.
All arithmetic runs in the log domain; at large ``N`` the raw ratio and
``lr0`` underflow double precision.
"""

from __future__ import annotations

import enum
import math
import os
import statistics
from dataclasses import dataclass

import numpy as np

from .estimators import SampleStats, rcml
from .exceptions import FormatError, InputError, NumericalError, _read_records

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
_NORMAL_QUANTILES = np.array([statistics.NormalDist().inv_cdf(p) for p in QUANTILE_PROBS])


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
    """Invariant LR statistics for one ``(n, k)`` pair: the median ``lr0``
    and the ``(probability, value)`` pairs at ``QUANTILE_PROBS``.

    ``log_lr0``, what a sweep reads, is ``log(lr0)`` wherever lr0 is a positive
    double, whatever was given, else the computed log median (N = K >= 746).
    """

    n: int
    k: int
    lr0: float
    quantiles: list[tuple[float, float]]
    log_lr0: float = -math.inf

    def __post_init__(self):
        if self.lr0 > 0:
            self.log_lr0 = math.log(self.lr0)


# Bernoulli numbers B_2, B_4, ..., B_16 of Stirling's series; from |z| = 10 on,
# the first omitted term is below 1e-16 of the leading one
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_STIRLING = np.array([b / (2 * j * (2 * j - 1)) for j, b in enumerate(_BERNOULLI, start=1)])


def _log1p(z: np.ndarray) -> np.ndarray:
    """Complex ``ln(1 + z)`` to a relative error near eps also at small
    ``|z|``, where numpy's complex ``log1p`` keeps only an absolute one."""
    x, y = z.real, z.imag
    return 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)


def _stirling_rest(z: np.ndarray) -> np.ndarray:
    """``lnG(z) - [(z - 1/2) ln z - z + ln(2 pi) / 2]`` (principal ``ln``) for
    complex ``z`` off the poles, up to a multiple of ``2 pi i``: Stirling's
    series, at ``z + 10`` with the recurrence if some ``|z| < 10``, written
    so that nothing cancels at large ``|z|``.  Below ``Re z = 1/2`` it
    reflects, ``lnG(z) = ln pi - ln sin(pi z) - lnG(1 - z)``, with
    ``ln sin(pi z) = ln(i/2) - i pi z + ln(1 - e^(2 i pi z))`` at ``Im z >= 0``
    (conjugated below)."""
    reflect = z.real < 0.5
    w = np.where(reflect, 1.0 - z, z)
    v = w + 10.0 if (shift := np.abs(w).min() < 10.0) else w
    powers = np.multiply.accumulate(np.repeat((1.0 / (v * v))[..., None], 8, axis=-1), axis=-1)
    rest = v * (powers * _STIRLING).sum(-1)
    if shift:
        ratio = np.prod(w[..., None] + np.arange(10.0), axis=-1) / v**10
        rest += (w - 0.5) * _log1p(10.0 / w) - 10.0 - np.log(ratio)
    if reflect.any():
        zr, below = z[reflect], z[reflect].imag < 0.0
        upper = np.where(below, zr.conj(), zr)
        log_sin = np.log(0.5j) - 1j * math.pi * upper + np.log1p(-np.exp(2j * math.pi * upper))
        rest[reflect] = (1.0 - math.log(2.0) - np.where(below, log_sin.conj(), log_sin)
                         - rest[reflect] - (zr - 0.5) * (np.log(zr) - np.log(w[reflect])))
    return rest


class _BartlettLaw:
    """The law of ``log lr`` at the true covariance, ``K >= N``.  With the
    Bartlett shapes ``a_i = K - i``, ``i < N`` (see :func:`lr0_reference`),
    and ``m = K - N + 1`` the smallest, for ``Re s > -m``::

        kappa(s) = log E[lr^s]
                 = N s (1 - ln K) + sum_i [lnG(a_i + s) - lnG(a_i)] - N (K + s) ln(1 + s/K)

    The shapes are consecutive, so the sum is ``N lnG(m + s)`` plus
    ``ln(m + l + s)`` weighted by ``N - 1 - l``.  Stirling's leading terms
    of ``lnG(m + s)``, each about ``|s| ln|s|`` on a contour, are merged with
    the rest by hand.  The shapes are whole, so the mean ``sum_i psi(a_i) -
    N ln K`` and variance ``sum_i psi'(a_i) - N/K`` are harmonic sums: with
    ``psi(a) = -gamma + sum_(j<a) 1/j`` and ``psi'(a) = pi^2/6 - sum_(j<a)
    1/j^2``, each ``j < K`` enters ``min(N, K - j)`` times.
    """

    def __init__(self, n: int, k: int):
        self.n, self.k, self.m = n, k, (m := k - n + 1)
        # weights of ln(1 + s/a), a = m .. K: N - 1 - l, less N/2 at m and N(N - 1) at K
        self._shapes = m + np.arange(n, dtype=float)
        self._weights = np.arange(n - 1.0, -1.0, -1.0)
        self._weights[0] -= 0.5 * n
        self._weights[-1] -= n * (n - 1.0)
        # Stirling's rest at m: its series from m = 10 on, where lgamma's rounding would show
        rest = (sum(c / float(m) ** (2 * j + 1) for j, c in enumerate(_STIRLING)) if m >= 10
                else math.lgamma(m) - (m - 0.5) * math.log(m) + m - 0.5 * math.log(2 * math.pi))
        self._constant = m * math.log1p((n - 1) / m) - rest
        j = np.arange(1.0, k)
        count = np.minimum(n, k - j)
        self.mean = float(np.sum(count / j)) - n * (np.euler_gamma + math.log(k))
        self.sd = math.sqrt(n * math.pi**2 / 6 - float(np.sum(count / (j * j))) - n / k)

    def kappa(self, s: np.ndarray) -> np.ndarray:
        """``log E[lr^s]`` elementwise, at complex ``s`` off the real axis below ``-m``."""
        n, ms = self.n, self.m + s
        # the weighted log sum as _log1p takes it, each part summed before they join
        x, y = s.real[..., None] / self._shapes, s.imag[..., None] / self._shapes
        steps = (0.5 * (self._weights * np.log1p(x * (2.0 + x) + y * y)).sum(axis=-1)
                 + 1j * (self._weights * np.arctan2(y, 1.0 + x)).sum(axis=-1))
        return n * (_stirling_rest(ms) - ms * _log1p((n - 1) / ms) + self._constant) + steps


def _talbot(law: _BartlettLaw):
    """CDF and density of ``log lr`` by the fixed Talbot inversion (Abate &
    Valko 2004) of ``E[e^(-s y)] = e^(kappa(s))``, ``y = -log lr >= 0``: 32
    nodes ``s = r (theta cot theta + i theta)``, ``theta = j pi / 32``,
    ``r = 64 / (5y)``, wrap the poles and the cut of ``kappa`` on the negative
    real axis; a weight is ``e^(s y) ds / (2 pi i)``, half at ``theta = 0``."""
    theta = math.pi * np.arange(1, 32) / 32
    cot = 1.0 / np.tan(theta)
    nodes = np.append(1.0, theta * cot + 1j * theta)
    slope = np.append(0.5, 1.0 + 1j * (theta + (theta * cot - 1.0) * cot))
    weights = np.exp(12.8 * nodes) * slope / 32

    def cdf(x):
        r = 12.8 / -x
        terms = np.exp(law.kappa(r[:, None] * nodes)) * weights
        return 1.0 - (terms / nodes).real.sum(axis=1), r * terms.real.sum(axis=1)
    return cdf


def _gil_pelaez(law: _BartlettLaw):
    """CDF and density of ``log lr`` by the Gil-Pelaez (1951) inversion of
    ``e^(kappa(iu))``, centred on the mean: a midpoint rule with 80 nodes
    ``(j + 1/2) h``, ``h = 2 pi / (40 sd)``.  Its wrap-around onto a period of
    40 sd and its cut at ``u = 12.6 / sd`` fall below the rounding from N = 8.
    """
    h = 2.0 * math.pi / (40.0 * law.sd)
    u = h * (np.arange(80) + 0.5)
    phi = np.exp(law.kappa(1j * u) - 1j * u * law.mean) * (h / math.pi)

    def cdf(x):
        terms = np.exp(-1j * np.multiply.outer(x - law.mean, u)) * phi
        return 0.5 - (terms.imag / u).sum(axis=1), terms.real.sum(axis=1)
    return cdf


def _solve_quantiles(law: _BartlettLaw, cdf) -> list[float]:
    """Log-LR quantiles at ``QUANTILE_PROBS`` by one Newton solve on
    ``v = ln(-x)``, which maps the support ``x < 0`` onto the real line.  It
    starts at the normal quantiles, taken in ``v``, caps a step at 1 and stops
    after a step below 1e-5 sd; the CDFs round at about 1e-10."""
    v = math.log(-law.mean) + _NORMAL_QUANTILES * (law.sd / law.mean)
    probs = np.array(QUANTILE_PROBS)
    for _ in range(50):
        x = -np.exp(v)
        value, density = cdf(x)
        # dF/dv = f x < 0; where rounding leaves no density, the step is the cap
        step = np.clip((value - probs) / np.minimum(density * x, -1e-300), -1.0, 1.0)
        v -= step
        if np.max(np.abs(step * x)) <= 1e-5 * law.sd:
            return (-np.exp(v)).tolist()
    raise NumericalError(f"lr0 quantiles for (n={law.n}, k={law.k}) did not converge in 50 steps")


def _log_lr_quantiles(n: int, k: int) -> list[float]:
    """Log-LR quantiles at ``QUANTILE_PROBS`` for ``K >= N``."""
    law = _BartlettLaw(n, k)
    return _solve_quantiles(law, _talbot(law) if n <= 7 else _gil_pelaez(law))


def lr0_reference(
    n: int, k: int, trials: int | None = None, seed: int | None = None
) -> LRReference:
    """Median and quantiles of the invariant LR distribution, without a draw.

    For ``S = Z Z^H / K`` with ``Z`` unit circular complex Gaussian, the
    complex Bartlett decomposition (Goodman 1963) gives ``K S = L L^H`` with
    independent ``|L_ii|^2 = g_i ~ Gamma(K - i)``, ``i = 0 .. N-1``, and the
    off-diagonal ``|L_ij|^2`` summing to one ``h ~ Gamma(N(N-1)/2)``.  So
    ``log lr = sum_i log(g_i / K) + N - (sum_i g_i + h) / K`` is a sum of
    independent terms, and its moment generating function is closed form
    (:class:`_BartlettLaw`).  Each quantile at 5/25/50/75/95 percent is the
    root of the exact CDF, inverted from that transform to about 1e-10; the
    median is ``lr0``.  The result is deterministic; ``trials`` and ``seed``,
    the former draw's size and seed, are accepted and ignored.  At ``k < n``,
    where no reference is defined yet, it raises InputError.
    """
    del trials, seed  # the reference is exact
    if n < 1 or k < 1:
        raise InputError("n and k must be positive")
    if k < n:
        raise InputError(f"no lr0 for (n={n}, k={k}): k < n has no reference")
    logs = dict(zip(QUANTILE_PROBS, _log_lr_quantiles(n, k)))
    quantiles = [(p, math.exp(v)) for p, v in logs.items()]
    return LRReference(n, k, math.exp(logs[0.5]), quantiles, logs[0.5])


_TABLE_HEADER = "LR0TABLE v1"


def lr0_store(ref: LRReference, path) -> None:
    """Append a reference record to a line-oriented table file.

    A record is ``n k trials seed lr0 q05 q25 q50 q75 q95``; ``trials`` and
    ``seed`` are written as 0, columns kept from tables of the former Monte
    Carlo reference.  Records are keyed by ``(n, k)``; duplicates are
    allowed in the file and resolved last-write-wins at load time.  An lr0
    outside ``(0, 1]`` raises :class:`InputError`, and nothing is written.
    """
    if ref.lr0 == 0 and math.isfinite(ref.log_lr0):
        raise InputError(f"the median for (n={ref.n}, k={ref.k}) underflows to lr0 = 0 "
                         f"(log_lr0 = {ref.log_lr0:.12g}); {_TABLE_HEADER} holds linear values")
    if not 0 < ref.lr0 <= 1:
        raise InputError(f"lr0 = {ref.lr0:g} for (n={ref.n}, k={ref.k}) is outside (0, 1]")
    qmap = dict(ref.quantiles)
    fields = [str(ref.n), str(ref.k), "0", "0", f"{ref.lr0:.17g}"]
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


def _parse_table(path) -> list[LRReference]:
    try:
        _, records, _ = _read_records(path, _TABLE_HEADER)
    except FileNotFoundError:
        return []
    refs = []
    for lineno, text in records:
        parts = text.split()
        if len(parts) != 5 + len(QUANTILE_PROBS):
            raise FormatError(
                f"expected {5 + len(QUANTILE_PROBS)} fields, found {len(parts)}",
                path=path,
                line=lineno,
            )
        try:
            # trials and seed (parts 2 and 3) must parse but are not kept
            n, k, _, _ = (int(parts[i]) for i in range(4))
            values = [float(v) for v in parts[4:]]
        except ValueError as exc:
            raise FormatError(f"unparseable numeric field: {exc}", path=path, line=lineno) from exc
        if not 0 < values[0] <= 1:
            raise FormatError(f"record holds lr0 = {values[0]:g} for (n={n}, k={k}), "
                              "outside (0, 1]", path=path, line=lineno)
        refs.append(LRReference(n, k, values[0], list(zip(QUANTILE_PROBS, values[1:]))))
    return refs


def lr0_load(n: int, k: int, path) -> LRReference | None:
    """Look up the reference for ``(n, k)``; None when absent.

    If the file holds several records for the key, the last one wins.  A
    record whose lr0 lies outside ``(0, 1]``, whatever its key, raises
    :class:`~elcov.exceptions.FormatError` at its line.
    """
    matches = [rec for rec in _parse_table(path) if rec.n == n and rec.k == k]
    return matches[-1] if matches else None


def lr0_lookup(n: int, k: int, table, autocompute: bool = True) -> LRReference:
    """Reference for ``(n, k)``: loaded from ``table`` by :func:`lr0_load`,
    else computed with :func:`lr0_reference`; ``table`` is only read.  Raises
    :class:`InputError` instead of computing when ``autocompute`` is off or,
    as :func:`lr0_reference` does, at ``k < n`` (a pinned entry is still
    read)."""
    if table is not None and (ref := lr0_load(n, k, table)) is not None:
        return ref
    if not autocompute:
        raise InputError(f"no lr0 table entry for (n={n}, k={k}) and autocompute is disabled")
    return lr0_reference(n, k)


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
        if z < -0.32:
            w0 = _branch_series(p)
        elif z > math.e:
            # the asymptotic start; log1p(z) is far from the root at large z
            log_z = math.log(z)
            w0 = log_z - math.log(log_z)
        else:
            w0 = math.log1p(z)
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
