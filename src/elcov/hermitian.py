"""Complex Hermitian linear-algebra kernel.

Everything downstream works on the eigenbasis of a sample covariance matrix,
so this module fixes the conventions once: eigenvalues sorted descending,
eigenvector phases pinned, PSD square roots that tolerate rank deficiency,
and seeded circular complex Gaussian sampling.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, NotPositiveSemidefiniteError

__all__ = [
    "EigenDecomposition",
    "as_hermitian",
    "derive_rng",
    "eig_hermitian",
    "sample_covariance",
    "sample_training",
    "sqrt_factor",
]

HERMITIAN_TOL = 1e-12


def as_hermitian(entries) -> np.ndarray:
    """Validate and canonicalize a square complex array as Hermitian.

    The input must match its conjugate transpose within ``1e-12`` per
    component.  The result is exactly Hermitian with an exactly real
    diagonal (averaging with the conjugate transpose cancels the imaginary
    diagonal parts bit-exactly).
    """
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


@dataclass
class EigenDecomposition:
    """Spectral factorization ``H = V diag(w) V^H`` with ``w`` descending.

    Column phases are pinned by making the largest-magnitude component of
    each eigenvector real and positive, which keeps golden-value tests
    stable across runs.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _eigh_desc(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a stack ``(..., N, N)`` of Hermitian matrices, eigenvalues
    descending and phases pinned as in :class:`EigenDecomposition`."""
    w, v = np.linalg.eigh(h)
    # anchors are found before the columns are reversed, on contiguous data;
    # the reversal moves columns, so each column keeps its anchor row
    anchor = np.argmax(np.abs(v), axis=-2)[..., np.newaxis, :]
    pivots = np.take_along_axis(v, anchor, axis=-2)
    # eigh columns are unit norm, so the anchors cannot vanish
    return w[..., ::-1].copy(), v[..., ::-1] * (np.abs(pivots) / pivots)[..., ::-1]


def eig_hermitian(h) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    w, v = _eigh_desc(as_hermitian(h))
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def sqrt_factor(h) -> np.ndarray:
    """Return ``F`` with ``F F^H = h`` for a PSD Hermitian matrix.

    Built from the eigendecomposition rather than a Cholesky factor so that
    rank-deficient inputs (clutter-only covariances) are accepted; small
    negative eigenvalues down to ``-1e-10 * lambda_max`` are clamped to zero.
    """
    eig = eig_hermitian(h)
    lam_max = max(float(eig.eigenvalues[0]), 0.0)
    if float(eig.eigenvalues[-1]) < -1e-10 * lam_max:
        raise NotPositiveSemidefiniteError(
            f"matrix is not PSD: smallest eigenvalue {eig.eigenvalues[-1]:.6e} "
            f"is below -1e-10 * {lam_max:.6e}"
        )
    root = np.sqrt(np.clip(eig.eigenvalues, 0.0, None))
    return (eig.eigenvectors * root) @ eig.eigenvectors.conj().T


def derive_rng(master_seed: int, *keys) -> np.random.Generator:
    """Derive an independent generator from a master seed and a key path.

    Keys may be non-negative integers (trial indices, chunk counters) or
    strings (purpose tags, hashed via CRC32).  Distinct key paths yield
    statistically independent streams; identical paths are bit-identical.
    """
    ints = [int(master_seed)]
    for key in keys:
        if isinstance(key, str):
            ints.append(zlib.crc32(key.encode("utf-8")))
        else:
            ints.append(int(key))
    if any(k < 0 for k in ints):
        raise InputError("seed components must be non-negative integers")
    return np.random.default_rng(np.random.SeedSequence(ints))


def sample_training(factor: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``k`` columns ``z = F w`` with ``w`` unit-variance circular Gaussian.

    Real and imaginary parts of each ``w`` entry are independent
    ``Normal(0, 1/2)``, so ``E[w w^H] = I`` and ``E[z z^H] = F F^H``.
    """
    factor = np.asarray(factor, dtype=np.complex128)
    if factor.ndim != 2:
        raise InputError("factor must be a matrix")
    if k < 1:
        raise InputError("sample count k must be at least 1")
    n = factor.shape[1]
    w = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    w *= np.sqrt(0.5)
    return factor @ w


def sample_covariance(z) -> np.ndarray:
    """Sample covariance ``S = Z Z^H / K`` of training columns.

    A stack ``(..., N, K)`` of training matrices gives the stack of their
    sample covariances, each equal to the one of its own matrix.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim < 2 or z.shape[-1] < 1:
        raise InputError("training matrix must be at least 2-D with at least one column")
    if not np.all(np.isfinite(z)):
        raise InputError("training entries must be finite")
    k = z.shape[-1]
    s = z @ z.conj().swapaxes(-1, -2) / k
    return 0.5 * (s + s.conj().swapaxes(-1, -2))
