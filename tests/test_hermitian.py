import numpy as np
import pytest

from conftest import (
    as_hermitian_oracle,
    eigh_desc_oracle,
    random_hermitian,
    random_psd,
    sample_rows_oracle,
)
from elcov import (
    InputError,
    NotPositiveSemidefiniteError,
    as_hermitian,
    derive_rng,
    eig_hermitian,
    jammer_covariance,
    sample_covariance,
    sample_training,
    sqrt_factor,
    ScenarioConfig,
)
from elcov.hermitian import _eigh_desc, _sample_rows


class TestAsHermitian:
    def test_diagonal_imag_zeroed(self):
        h = as_hermitian(np.array([[2.0 + 0j, 1 - 1j], [1 + 1j, 3.0 + 0j]]))
        assert np.all(h.diagonal().imag == 0.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError, match="not Hermitian"):
            as_hermitian(np.array([[1.0, 2.0], [3.0, 1.0]], dtype=complex))

    def test_rejects_non_square_and_nonfinite(self):
        with pytest.raises(InputError):
            as_hermitian(np.ones((2, 3), dtype=complex))
        bad = np.eye(2, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(InputError, match="finite"):
            as_hermitian(bad)


class TestMatchesFormerCode:
    """``as_hermitian`` and ``_eigh_desc`` return, byte for byte, what the
    former code returns (``tests/conftest.py`` keeps it), and raise the same
    errors with the same messages."""

    @staticmethod
    def _outcome(fn, *args):
        try:
            return fn(*args)
        except InputError as exc:
            return str(exc)

    def _inputs(self, rng):
        for n in (1, 2, 3, 8, 20, 33):
            h = random_hermitian(rng, n, scale=float(rng.uniform(0.1, 100.0)))
            yield h
            yield random_psd(rng, n)
            yield np.asfortranarray(h)
            yield h.real
            yield h.tolist()
            for scale in (1e-13, 1e-12, 1.1e-12, 1e-6):
                for part in (1.0, 1j):
                    bumped = h.copy()
                    bumped[0, n - 1] += scale * part
                    yield bumped
            yield np.pad(h, ((0, 0), (0, 1)))[:, :n]  # strided rows
            for bad in (np.nan, np.inf, -np.inf, complex(1.0, np.inf), complex(np.nan, 0.0)):
                for i, j in ((0, 0), (0, n - 1)):
                    broken = h.copy()
                    broken[i, j] = bad
                    yield broken
                    broken = broken.copy()
                    broken[j, i] = bad  # the same entry on both sides
                    yield broken
        yield np.ones((2, 3), dtype=complex)
        yield np.ones(3, dtype=complex)
        yield np.ones((2, 2, 2), dtype=complex)
        yield np.zeros((0, 0), dtype=complex)
        yield np.array([[1.0, 2.0], [3.0, 1.0]], dtype=complex)

    def test_as_hermitian(self, rng):
        for entries in self._inputs(rng):
            mine = self._outcome(as_hermitian, entries)
            former = self._outcome(as_hermitian_oracle, entries)
            if isinstance(former, str):
                assert mine == former
            else:
                assert mine.tobytes() == former.tobytes()
                assert mine.strides == former.strides

    def test_eigh_desc(self, rng):
        for shape in ((1,), (2,), (3,), (8,), (20,), (2, 20), (5, 3), (2, 3, 4), (0, 4)):
            *stack, n = shape
            mats = np.array([random_hermitian(rng, n) for _ in range(int(np.prod(stack, dtype=int)))])
            h = mats.reshape(*stack, n, n)
            w, v = _eigh_desc(h)
            w_former, v_former = eigh_desc_oracle(h)
            assert w.shape == w_former.shape and v.shape == v_former.shape
            assert w.tobytes() == w_former.tobytes()
            assert v.tobytes() == v_former.tobytes()

    @pytest.mark.parametrize("b, n, k", [(1, 1, 1), (5, 64, 128), (54, 20, 30), (3, 7, 2)])
    def test_sample_rows(self, rng, b, n, k):
        factor = random_hermitian(rng, n)
        for seed in (0, 1, 2024):
            rngs = [derive_rng(seed, "trial", k, t) for t in range(b)]
            former = [derive_rng(seed, "trial", k, t) for t in range(b)]
            z = _sample_rows(factor, k, rngs)
            assert z.shape == (b, n, k)
            assert np.array_equal(z.view(np.uint64),
                                  sample_rows_oracle(factor, k, former).view(np.uint64))


class TestEig:
    def test_identity(self):
        eig = eig_hermitian(np.eye(3, dtype=complex))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0, 1.0])
        assert np.allclose(eig.eigenvectors @ eig.eigenvectors.conj().T, np.eye(3), atol=1e-12)

    def test_diagonal_case_sorted_descending(self):
        eig = eig_hermitian(np.diag([5.0, 2.0, 0.1]).astype(complex))
        assert np.allclose(eig.eigenvalues, [5.0, 2.0, 0.1])

    def test_reconstruction_random(self, rng):
        h = random_hermitian(rng, 6)
        eig = eig_hermitian(h)
        scale = max(1.0, np.max(np.abs(h)))
        assert np.max(np.abs(eig.reconstruct() - h)) <= 1e-9 * scale

    def test_reconstruction_sweep(self, rng):
        # 200 random Hermitian matrices over the small-dimension range
        for i in range(200):
            n = 2 + i % 11
            h = random_hermitian(rng, n, scale=float(rng.uniform(0.1, 10)))
            eig = eig_hermitian(h)
            scale = max(1.0, np.max(np.abs(h)))
            assert np.max(np.abs(eig.reconstruct() - h)) <= 1e-9 * scale
            assert np.all(np.diff(eig.eigenvalues) <= 1e-12)
            v = eig.eigenvectors
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10

    def test_phase_convention(self, rng):
        h = random_hermitian(rng, 5)
        v = eig_hermitian(h).eigenvectors
        anchor = np.argmax(np.abs(v), axis=0)
        pivots = v[anchor, np.arange(5)]
        assert np.all(pivots.real > 0)
        assert np.max(np.abs(pivots.imag)) <= 1e-12


class TestSqrtFactor:
    def test_identity(self):
        f = sqrt_factor(np.eye(4, dtype=complex))
        assert np.allclose(f @ f.conj().T, np.eye(4), atol=1e-12)

    def test_diagonal(self):
        h = np.diag([4.0, 9.0]).astype(complex)
        f = sqrt_factor(h)
        assert np.allclose(f @ f.conj().T, h, atol=1e-12)

    def test_jammer_covariance_reconstruction(self):
        cfg = ScenarioConfig(
            n=8, jammer_powers=(50.0, 200.0), jammer_angles=(15.0, -40.0),
            jammer_bandwidths=(0.1, 0.0), noise_power=1.0,
        )
        h = jammer_covariance(cfg)
        f = sqrt_factor(h)
        scale = max(1.0, np.max(np.abs(h)))
        assert np.max(np.abs(f @ f.conj().T - h)) <= 1e-9 * scale

    def test_rank_deficient_accepted(self, rng):
        # PSD with an exactly zero eigenvalue must not raise
        a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        h = a @ a.conj().T
        h = 0.5 * (h + h.conj().T)
        f = sqrt_factor(h)
        assert np.max(np.abs(f @ f.conj().T - h)) <= 1e-9 * max(1.0, np.max(np.abs(h)))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            sqrt_factor(np.diag([1.0, -0.5]).astype(complex))

    def test_psd_eigenvalue_floor(self, rng):
        for _ in range(20):
            h = random_psd(rng, 6)
            w = np.linalg.eigvalsh(h)
            assert w[0] >= -1e-9 * max(w[-1], 0.0)


class TestSampleTraining:
    def test_single_column_shape(self, rng):
        z = sample_training(np.eye(4, dtype=complex), 1, rng)
        assert z.shape == (4, 1)

    def test_unit_variance(self):
        # law of large numbers: per-entry mean and variance of |z|^2 near 1
        z = sample_training(np.eye(2, dtype=complex), 100_000, derive_rng(7, "lln"))
        power = np.abs(z) ** 2
        assert np.mean(power) == pytest.approx(1.0, rel=0.05)
        assert np.var(power) == pytest.approx(1.0, rel=0.05)

    def test_deterministic(self):
        f = np.diag([2.0, 1.0]).astype(complex)
        z1 = sample_training(f, 10, derive_rng(3, "trial", 0))
        z2 = sample_training(f, 10, derive_rng(3, "trial", 0))
        assert np.array_equal(z1, z2)

    def test_derived_streams_differ(self):
        f = np.eye(2, dtype=complex)
        z1 = sample_training(f, 10, derive_rng(3, "trial", 0))
        z2 = sample_training(f, 10, derive_rng(3, "trial", 1))
        assert not np.array_equal(z1, z2)

    def test_rejects_bad_k(self, rng):
        with pytest.raises(InputError):
            sample_training(np.eye(2, dtype=complex), 0, rng)


class TestSampleCovariance:
    def test_single_column_rank_one(self, rng):
        z = (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1)))
        s = sample_covariance(z)
        assert np.allclose(s, z @ z.conj().T, atol=1e-12)
        assert np.linalg.matrix_rank(s) == 1

    def test_scaled_identity_columns(self):
        k = 4
        z = np.sqrt(k) * np.eye(k, dtype=complex)
        assert np.allclose(sample_covariance(z), np.eye(k), atol=1e-12)

    def test_matches_double_loop_oracle(self, rng):
        n, k = 4, 8
        z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        s = sample_covariance(z)
        expected = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                for t in range(k):
                    expected[i, j] += z[i, t] * np.conj(z[j, t])
        expected /= k
        assert np.max(np.abs(s - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))

    def test_rejects_finite_training_whose_product_overflows(self):
        z = np.full((3, 4), 1e200, dtype=complex)
        with pytest.raises(InputError, match="finite"):
            sample_covariance(z)
        with pytest.raises(InputError, match="finite"):
            sample_covariance(np.stack([np.ones((3, 4)), z]))

    def test_psd_floor(self, rng):
        z = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        w = np.linalg.eigvalsh(sample_covariance(z))
        assert w[0] >= -1e-10 * max(w[-1], 0.0)


class TestStackedKernels:
    """The stacked forms behind the sweep's trial passes must equal the
    per-matrix functions bit for bit, on ties and rank deficiency too."""

    N = 6

    def _training_stack(self, rng):
        n = self.N
        z = rng.standard_normal((12, n, 4)) + 1j * rng.standard_normal((12, n, 4))
        z[3] = np.sqrt(4) * np.eye(n, 4)  # exactly tied eigenvalues and zeros
        z[4] = 0.0  # the zero matrix: all eigenvalues tied at 0
        z[5, :, 1:] = z[5, :, :1]  # rank one
        return z

    def _matrix_stack(self, rng):
        n = self.N
        basis = eig_hermitian(random_hermitian(rng, n)).eigenvectors
        spectra = (
            [3.0, 3.0, 3.0, 1.0, 1.0, 0.5],  # tied
            [2.0, 2.0 + 1e-14, 1.0, 1.0 - 1e-15, 0.3, 0.3 + 1e-13],  # near-degenerate
            [5.0, 1.0, 0.0, 0.0, 0.0, 0.0],  # rank-deficient PSD
        )
        mats = [as_hermitian((basis * np.array(d)) @ basis.conj().T) for d in spectra]
        mats += [np.eye(n, dtype=complex), as_hermitian(random_psd(rng, n))]
        mats += [as_hermitian(random_hermitian(rng, n)) for _ in range(3)]
        return np.stack(mats)

    def test_sample_covariance_stack_matches_each_matrix(self, rng):
        z = self._training_stack(rng)
        s = sample_covariance(z)
        assert s.shape == (len(z), self.N, self.N)
        for zi, si in zip(z, s):
            assert np.array_equal(si, sample_covariance(zi))

    def test_eigh_desc_stack_matches_eig_hermitian(self, rng):
        h = np.concatenate([self._matrix_stack(rng), sample_covariance(self._training_stack(rng))])
        w, v = _eigh_desc(h)
        assert w.shape == (len(h), self.N) and v.shape == h.shape
        for hi, wi, vi in zip(h, w, v):
            eig = eig_hermitian(hi)
            assert np.array_equal(wi, eig.eigenvalues)
            assert np.array_equal(vi, eig.eigenvectors)

    def test_rejects_non_finite_training_stack(self, rng):
        z = self._training_stack(rng)
        z[7, 2, 1] = np.inf
        with pytest.raises(InputError, match="finite"):
            sample_covariance(z)


class TestDeriveRng:
    def test_string_and_int_keys(self):
        a = derive_rng(1, "purpose", 5).standard_normal(4)
        b = derive_rng(1, "purpose", 5).standard_normal(4)
        c = derive_rng(1, "other", 5).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            derive_rng(-1)
