"""Ground-truth covariance construction, training generation, and matrix IO.

The simulated disturbance is a sum of narrowband or band-limited jammers on
a half-wavelength uniform linear array plus white noise::

    R(n, m) = sum_i p_i * sinc(0.5 * b_i * (n - m) * phi_i) * exp(j (n - m) phi_i)
              + noise_power * delta(n, m)

with ``phi_i = pi * sin(theta_i)`` for arrival angle ``theta_i``.  The sinc
convention is configurable because both ``sin(x)/x`` and ``sin(pi x)/(pi x)``
appear in practice; the unnormalized form is the default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import FormatError, InputError, NumericalError, _number, _read_records
from .hermitian import _sample_rows, as_hermitian, sqrt_factor

__all__ = [
    "CorruptionSpec",
    "ScenarioConfig",
    "TrainingSet",
    "generate_training",
    "jammer_covariance",
    "matrix_load",
    "matrix_save",
    "read_cmat",
    "steering_vector",
    "write_cmat",
]

SINC_CONVENTIONS = ("unnormalized", "normalized")
ANGLE_MODES = ("degrees", "radians")


@dataclass
class ScenarioConfig:
    """Jammer-plus-noise scenario parameters.

    ``jammer_powers`` are powers (squared amplitudes); ``jammer_angles``
    are arrival angles in degrees unless ``angle_mode="radians"``, in which
    case they are electrical phase angles used directly.
    """

    n: int
    jammer_powers: tuple[float, ...] = ()
    jammer_angles: tuple[float, ...] = ()
    jammer_bandwidths: tuple[float, ...] = ()
    noise_power: float = 1.0
    sinc_convention: str = "unnormalized"
    angle_mode: str = "degrees"

    def __post_init__(self):
        if self.n < 1:
            raise InputError("array size n must be at least 1")
        self.jammer_powers = tuple(float(p) for p in self.jammer_powers)
        self.jammer_angles = tuple(float(a) for a in self.jammer_angles)
        self.jammer_bandwidths = tuple(float(b) for b in self.jammer_bandwidths)
        lengths = {len(self.jammer_powers), len(self.jammer_angles), len(self.jammer_bandwidths)}
        if len(lengths) != 1:
            raise InputError("jammer powers, angles and bandwidths must have equal lengths")
        if not all(0 < p < np.inf for p in self.jammer_powers):
            raise InputError("jammer powers must be positive and finite")
        if not np.isfinite(self.jammer_angles).all():
            raise InputError("jammer angles must be finite")
        if any(not 0 <= b < 1 for b in self.jammer_bandwidths):
            raise InputError("fractional bandwidths must lie in [0, 1)")
        if not 0 < self.noise_power < np.inf:
            raise InputError("noise power must be positive and finite")
        if not np.isfinite(sum(self.jammer_powers) + self.noise_power):  # R's diagonal
            raise InputError("jammer and noise powers must sum to a finite power")
        if self.sinc_convention not in SINC_CONVENTIONS:
            raise InputError(f"sinc_convention must be one of {SINC_CONVENTIONS}")
        if self.angle_mode not in ANGLE_MODES:
            raise InputError(f"angle_mode must be one of {ANGLE_MODES}")

    @property
    def jammer_count(self) -> int:
        return len(self.jammer_powers)

    def phase_angles(self) -> tuple[float, ...]:
        """Electrical phase angles ``phi_i`` implied by the configuration."""
        if self.angle_mode == "degrees":
            return tuple(np.pi * np.sin(np.deg2rad(a)) for a in self.jammer_angles)
        return self.jammer_angles


def _sinc(x: np.ndarray, convention: str) -> np.ndarray:
    if convention == "normalized":
        return np.sinc(x)
    return np.sinc(x / np.pi)


def jammer_covariance(cfg: ScenarioConfig) -> np.ndarray:
    """Build the scenario's true covariance matrix.

    The result is exactly Hermitian Toeplitz, its diagonal the total jammer
    power plus the noise power.  It is positive definite by construction,
    but at an extreme jammer-to-noise ratio rounding can leave its smallest
    eigenvalue within the eigensolver's own error, whose sign then depends
    on the BLAS kernel.  So it must clear that error by a margin: a smallest
    eigenvalue at or below ``eps`` times the largest, a condition number of
    ``1/eps`` or more, raises :class:`NumericalError`.
    """
    n = cfg.n
    # entry (i, j) depends on the lag i - j only: build the 2N - 1 lags
    # and gather the Toeplitz matrix
    lags = np.arange(1 - n, n)
    column = np.zeros(2 * n - 1, dtype=np.complex128)
    for power, phi, beta in zip(cfg.jammer_powers, cfg.phase_angles(), cfg.jammer_bandwidths):
        envelope = _sinc(0.5 * beta * lags * phi, cfg.sinc_convention)
        column += power * envelope * np.exp(1j * lags * phi)
    idx = np.arange(n)
    r = column[idx[:, None] - idx[None, :] + (n - 1)]
    r[idx, idx] += cfg.noise_power
    w = np.linalg.eigvalsh(r)
    lam_min, lam_max = float(w[0]), float(w[-1])
    if not lam_min > np.finfo(float).eps * lam_max:
        raise NumericalError("true covariance is not positive definite at this jammer-to-noise"
                             f" ratio (smallest eigenvalue {lam_min:.3e} is not above machine"
                             f" epsilon times the largest, {lam_max:.3e})")
    return r


def steering_vector(n: int, angle_deg: float = 0.0) -> np.ndarray:
    """Unit-norm array steering vector for an arrival angle in degrees,
    broadside by default."""
    if n < 1:
        raise InputError("array size n must be at least 1")
    if not np.isfinite(angle_deg):
        raise InputError(f"steering angle must be finite, got {angle_deg}")
    m = np.arange(n)
    phase = np.pi * np.sin(np.deg2rad(angle_deg))
    return np.exp(1j * m * phase) / np.sqrt(n)


@dataclass
class CorruptionSpec:
    """Target-like contamination of training snapshots.

    A ``fraction`` of the columns receive an additive component
    ``amplitude * steering`` on top of the disturbance draw.
    """

    fraction: float
    amplitude: float
    steering: np.ndarray

    def __post_init__(self):
        if not 0 <= self.fraction <= 1:
            raise InputError("corruption fraction must lie in [0, 1]")
        if not np.isfinite(self.amplitude):
            raise InputError("corruption amplitude must be finite")
        self.steering = np.asarray(self.steering, dtype=np.complex128)
        if self.steering.ndim != 1:
            raise InputError("corruption steering must be a vector")
        if not abs(np.linalg.norm(self.steering) - 1.0) <= 1e-6:  # also catches NaN
            raise InputError("corruption steering must have unit norm")


@dataclass
class TrainingSet:
    """Training matrix plus the indices of its corrupted columns."""

    z: np.ndarray
    corrupted_indices: tuple[int, ...]


def _draw_rows(factor, k: int, corruption: CorruptionSpec | None, rngs):
    """Training of each generator in ``rngs``, stacked ``(B, N, K)``, and
    each row's sorted corrupted columns.

    Each generator draws its normals and then picks its columns; the
    corruption is added to all rows at once.  A row depends on its
    generator alone, bit for bit, whatever the stack, and
    :func:`generate_training` is the one-row case.
    """
    z = _sample_rows(factor, k, rngs)
    picks = [np.empty(0, dtype=int)] * len(rngs)
    if corruption is not None and corruption.fraction > 0:
        if len(corruption.steering) != z.shape[1]:
            raise InputError("corruption steering length does not match the scenario size")
        count = int(np.floor(corruption.fraction * k + 0.5))
        if count > 0:
            picks = [np.sort(rng.choice(k, size=count, replace=False)) for rng in rngs]
            rows = np.repeat(np.arange(len(rngs)), count)
            z[rows, :, np.concatenate(picks)] += corruption.amplitude * corruption.steering
    return z, picks


def generate_training(
    r_true, k: int, corruption: CorruptionSpec | None, rng: np.random.Generator
) -> TrainingSet:
    """Draw ``k`` training snapshots from ``r_true``, through its :func:`sqrt_factor`.

    With a corruption spec, exactly ``round(fraction * k)`` columns (chosen
    by the generator, half-up rounding) receive the target-like component.
    """
    z, picks = _draw_rows(sqrt_factor(r_true), k, corruption, [rng])
    return TrainingSet(z=z[0], corrupted_indices=tuple(picks[0].tolist()))


_CMAT_HEADER = "CMAT v1"


def write_cmat(a, path) -> None:
    """Write a complex matrix as a diff-friendly text file.

    Format: a header line ``CMAT v1 <rows> <cols>`` followed by one line
    per row holding ``re im`` pairs at 17 significant digits (lossless for
    doubles).
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise InputError("only 2-D matrices can be written")
    rows, cols = a.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_CMAT_HEADER} {rows} {cols}\n")
        for row in a.view(np.float64).tolist():  # re, im interleaved
            fh.write(" ".join(map("{:.17g}".format, row)) + "\n")


def read_cmat(path) -> np.ndarray:
    """Read a complex matrix written by :func:`write_cmat`."""
    return _read_cmat(path)[0]


def _read_cmat(path) -> tuple[np.ndarray, list[int]]:
    """The matrix of a CMAT file and the file line number of each of its rows."""
    header, body, end = _read_records(path, _CMAT_HEADER + " <rows> <cols>")
    try:
        rows, cols = _number(header[2], int), _number(header[3], int)
    except ValueError as exc:
        raise FormatError(f"unparseable dimensions: {exc}", path=path, line=1) from exc
    if rows < 1 or cols < 1:
        raise FormatError("dimensions must be positive", path=path, line=1)
    if len(body) != rows:
        raise FormatError(f"expected {rows} data rows, found {len(body)}", path=path, line=end)
    out = np.empty((rows, 2 * cols))  # re, im interleaved
    for i, (lineno, text) in enumerate(body):
        parts = text.split()
        if len(parts) != 2 * cols:
            raise FormatError(
                f"expected {2 * cols} numbers, found {len(parts)}", path=path, line=lineno
            )
        try:
            if not text.isascii() or "_" in text:  # one test a line; _number finds the entry
                raise ValueError
            out[i] = list(map(float, parts))
        except ValueError:
            for j, part in enumerate(parts):  # entry by entry, to name the one that fails
                try:
                    out[i, j] = _number(part)
                except ValueError as exc:
                    raise FormatError(f"unparseable entry: {exc}", path=path, line=lineno,
                                      column=j // 2 + 1) from exc
    return out.view(np.complex128), [lineno for lineno, _ in body]


def matrix_save(h, path) -> None:
    """Write a Hermitian matrix (validated first) to a CMAT file."""
    write_cmat(as_hermitian(h), path)


def matrix_load(path) -> np.ndarray:
    """Read a CMAT file and validate it as Hermitian by :func:`as_hermitian`'s
    rule; a non-finite entry, or else non-Hermitian content, is rejected with
    the file location of the first non-finite or the worst offending entry."""
    a, row_lines = _read_cmat(path)
    if a.shape[0] != a.shape[1]:
        raise FormatError(f"expected a square matrix, got {a.shape}", path=path, line=1)
    try:
        return as_hermitian(a)
    except InputError:
        # argmax stops at the first NaN; a non-finite entry makes its own
        # delta and its mirror's non-finite
        delta = np.abs(a - a.conj().T)
        i, j = (int(v) for v in np.unravel_index(np.argmax(delta), delta.shape))
        if not np.isfinite(delta[i, j]):
            if np.isfinite(a[i, j]):
                i, j = j, i
            raise FormatError(f"matrix entry {a[i, j]} is not finite",
                              path=path, line=row_lines[i], column=j + 1) from None
        raise FormatError(f"matrix is not Hermitian (mismatch {delta[i, j]:.3e} against entry "
                          f"({j + 1}, {i + 1}))", path=path, line=row_lines[i],
                          column=j + 1) from None
