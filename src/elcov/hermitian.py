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
    a_h = a.conj().T
    # a non-finite entry makes its component of delta inf or nan (inf - inf
    # quietly), so one maximum over the components passes only finite,
    # Hermitian input
    with np.errstate(invalid="ignore"):
        delta = np.subtract(a, a_h, order="C")
    if not np.abs(delta.view(np.float64)).max() <= HERMITIAN_TOL:
        if not np.all(np.isfinite(a)):
            raise InputError("matrix entries must be finite")
        i, j = np.unravel_index(np.argmax(np.abs(delta)), delta.shape)
        raise InputError(
            f"matrix is not Hermitian: entry ({i}, {j}) differs from the "
            f"conjugate of ({j}, {i}) by {abs(delta[i, j]):.3e}"
        )
    return 0.5 * (a + a_h)


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
    n = v.shape[-1]
    stack = v.reshape(-1, n, n)
    anchor = np.abs(stack).argmax(axis=1)
    pivots = stack[np.arange(len(stack))[:, np.newaxis], anchor, np.arange(n)]
    phases = (np.abs(pivots) / pivots).reshape(v.shape[:-2] + (1, n))
    # eigh columns are unit norm, so the anchors cannot vanish
    return w[..., ::-1].copy(), v[..., ::-1] * phases[..., ::-1]


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


def _sample_rows(factor, k: int, rngs) -> np.ndarray:
    """Training ``z = F w`` of each generator in ``rngs``, stacked ``(B, N, K)``.

    Each generator fills its own row of one buffer with its real and then
    its imaginary normals, and the scale and the ``F w`` product then run
    once over the stack.  A row depends on its generator alone, bit for
    bit, whatever the stack: the stacked product makes one ``gemm`` call
    per row.  :func:`sample_training` is the one-row case.
    """
    factor = np.asarray(factor, dtype=np.complex128)
    if factor.ndim != 2:
        raise InputError("factor must be a matrix")
    if k < 1:
        raise InputError("sample count k must be at least 1")
    normals = np.empty((len(rngs), 2, factor.shape[1], k))
    for row, rng in zip(normals, rngs):
        rng.standard_normal(out=row)
    w = normals[:, 0] + 1j * normals[:, 1]
    w *= np.sqrt(0.5)
    return factor @ w


def sample_training(factor: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``k`` columns ``z = F w`` with ``w`` unit-variance circular Gaussian.

    Real and imaginary parts of each ``w`` entry are independent
    ``Normal(0, 1/2)``, so ``E[w w^H] = I`` and ``E[z z^H] = F F^H``.
    """
    return _sample_rows(factor, k, [rng])[0]


def sample_covariance(z) -> np.ndarray:
    """Sample covariance ``S = Z Z^H / K`` of training columns.

    A stack ``(..., N, K)`` of training matrices gives the stack of their
    sample covariances, each equal to the one of its own matrix.  Non-finite
    training or a product that overflows leaves ``S`` non-finite and raises.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim < 2 or z.shape[-1] < 1:
        raise InputError("training matrix must be at least 2-D with at least one column")
    k = z.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        s = z @ z.conj().swapaxes(-1, -2) / k
        s = 0.5 * (s + s.conj().swapaxes(-1, -2))
    if not np.isfinite(s).all():
        raise InputError("training entries and their sample covariance must be finite")
    return s
