import numpy as np
import pytest

from conftest import (
    draw_training_oracle,
    jammer_covariance_oracle,
    random_hermitian,
    reference_scenario,
)
from elcov import (
    CorruptionSpec,
    FormatError,
    InputError,
    NumericalError,
    ScenarioConfig,
    as_hermitian,
    derive_rng,
    eig_hermitian,
    generate_training,
    jammer_covariance,
    matrix_load,
    matrix_save,
    read_cmat,
    steering_vector,
    sqrt_factor,
    write_cmat,
)
from elcov.scenario import _draw_rows


class TestScenarioConfig:
    def test_validates_lengths(self):
        with pytest.raises(InputError, match="equal lengths"):
            ScenarioConfig(n=4, jammer_powers=(1.0,), jammer_angles=(), jammer_bandwidths=())

    def test_validates_ranges(self):
        with pytest.raises(InputError):
            ScenarioConfig(n=4, jammer_powers=(1.0,), jammer_angles=(0.0,),
                           jammer_bandwidths=(1.0,))
        with pytest.raises(InputError):
            ScenarioConfig(n=4, noise_power=0.0)
        with pytest.raises(InputError):
            ScenarioConfig(n=4, sinc_convention="other")

    @pytest.mark.parametrize("power", [np.inf, np.nan])
    def test_rejects_non_finite_powers_and_angles(self, power):
        with pytest.raises(InputError, match="finite"):
            ScenarioConfig(n=4, noise_power=power)
        with pytest.raises(InputError, match="finite"):
            ScenarioConfig(n=4, jammer_powers=(power,), jammer_angles=(0.1,),
                           jammer_bandwidths=(0.0,))
        with pytest.raises(InputError, match="finite"):
            ScenarioConfig(n=4, jammer_powers=(1.0,), jammer_angles=(power,),
                           jammer_bandwidths=(0.0,))

    @pytest.mark.parametrize("powers, noise", [((1e308, 1e308), 1.0), ((1e308,), 1e308)])
    def test_rejects_an_infinite_total_power(self, powers, noise):
        # each power is finite, but R's diagonal, their sum, is not
        with pytest.raises(InputError, match="sum to a finite power"):
            ScenarioConfig(n=4, jammer_powers=powers, jammer_angles=(0.0,) * len(powers),
                           jammer_bandwidths=(0.0,) * len(powers), noise_power=noise)


class TestJammerCovariance:
    def test_no_jammers_scaled_identity(self):
        cfg = ScenarioConfig(n=5, noise_power=2.5)
        assert np.array_equal(jammer_covariance(cfg), 2.5 * np.eye(5))

    def test_diagonal_total_power(self):
        cfg = ScenarioConfig(n=6, jammer_powers=(3.0, 7.0), jammer_angles=(12.0, -30.0),
                             jammer_bandwidths=(0.15, 0.0), noise_power=0.5)
        r = jammer_covariance(cfg)
        assert np.allclose(r.diagonal().real, 3.0 + 7.0 + 0.5, atol=1e-12)
        assert np.all(r.diagonal().imag == 0.0)

    def test_reference_scenario_has_five_strong_eigenvalues(self):
        # the paper-style parameterization: exactly five eigenvalues more
        # than 10 dB above the unit noise floor
        cfg = reference_scenario()
        w = np.linalg.eigvalsh(jammer_covariance(cfg))[::-1]
        assert int(np.sum(w > 10.0 * cfg.noise_power)) == 5

    def test_squared_power_reading_has_ten(self):
        # the same angles fed through the half-wavelength mapping with
        # squared powers spread energy across ten strong directions
        cfg = ScenarioConfig(n=20, jammer_powers=(100.0, 1e4, 1e6),
                             jammer_angles=(20.0, 40.0, 60.0),
                             jammer_bandwidths=(0.2, 0.0, 0.3), noise_power=1.0)
        w = np.linalg.eigvalsh(jammer_covariance(cfg))[::-1]
        assert int(np.sum(w > 10.0)) == 10

    def test_hermitian_psd_random_configs(self, rng):
        for _ in range(100):
            j = int(rng.integers(0, 4))
            cfg = ScenarioConfig(
                n=int(rng.integers(2, 16)),
                jammer_powers=tuple(float(p) for p in rng.uniform(0.5, 1e4, j)),
                jammer_angles=tuple(float(a) for a in rng.uniform(-80, 80, j)),
                jammer_bandwidths=tuple(float(b) for b in rng.uniform(0.0, 0.9, j)),
                noise_power=float(rng.uniform(0.1, 5.0)),
            )
            r = jammer_covariance(cfg)
            assert np.max(np.abs(r - r.conj().T)) <= 1e-12
            w = np.linalg.eigvalsh(r)
            assert w[0] >= -1e-9 * w[-1]

    @pytest.mark.parametrize("convention", ["unnormalized", "normalized"])
    def test_lag_build_equals_elementwise_oracle(self, rng, convention):
        for _ in range(150):
            j = int(rng.integers(0, 7))
            degrees = bool(rng.integers(0, 2))
            cfg = ScenarioConfig(
                n=int(rng.integers(1, 130)),
                jammer_powers=tuple(float(p) for p in rng.uniform(0.5, 1e4, j)),
                jammer_angles=tuple(float(a) for a in (rng.uniform(-80, 80, j) if degrees
                                                       else rng.uniform(-3.0, 3.0, j))),
                jammer_bandwidths=tuple(float(b) for b in rng.uniform(0.0, 0.9, j)),
                noise_power=float(rng.uniform(0.1, 5.0)),
                sinc_convention=convention,
                angle_mode="degrees" if degrees else "radians",
            )
            r = jammer_covariance(cfg)
            assert r.tobytes() == jammer_covariance_oracle(cfg).tobytes()
            # exactly Hermitian, so the as_hermitian pass it once took changed no byte
            assert r.tobytes() == as_hermitian(r).tobytes()

    @pytest.mark.parametrize(
        "cfg",
        [
            ScenarioConfig(n=20, jammer_powers=(1e15,), jammer_angles=(20.0,),
                           jammer_bandwidths=(0.3,)),
            ScenarioConfig(n=20, jammer_powers=(1e16,), jammer_angles=(20.0,),
                           jammer_bandwidths=(0.3,)),
            ScenarioConfig(n=20, jammer_powers=(10.0, 100.0, 1000.0),
                           jammer_angles=(0.349, 0.698, 1.047), jammer_bandwidths=(0.2, 0.0, 0.3),
                           angle_mode="radians", noise_power=1e-30),
        ],
        ids=["jammer-1e15", "jammer-1e16", "noise-1e-30"],
    )
    def test_rounding_past_positive_definite_raises(self, cfg, monkeypatch):
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        monkeypatch.setattr(np.linalg, "eigh", None)  # no clamp-and-rebuild
        with pytest.raises(NumericalError, match=r"not positive definite .*smallest eigenvalue "
                           r"\S+ is not above machine epsilon times the largest, \d"):
            jammer_covariance(cfg)
        assert len(calls) == 1

    @pytest.mark.parametrize("power", [1e12, 1e13, 1e14])
    def test_condition_number_below_one_over_eps_builds(self, power):
        # at 1e14 the smallest eigenvalue still clears eps times the largest
        # about twofold on the SkylakeX, Haswell and SandyBridge kernels; at
        # 1e15 it is within rounding
        for count in (1, 3):
            cfg = ScenarioConfig(n=20, jammer_powers=(power, power / 10, power / 100)[:count],
                                 jammer_angles=(20.0, 40.0, 60.0)[:count],
                                 jammer_bandwidths=(0.3, 0.2, 0.1)[:count])
            assert jammer_covariance(cfg).shape == (20, 20)

    def test_toeplitz_exact(self):
        cfg = ScenarioConfig(n=10, jammer_powers=(100.0,), jammer_angles=(37.0,),
                             jammer_bandwidths=(0.4,), noise_power=1.0)
        r = jammer_covariance(cfg)
        for i in range(9):
            for j in range(9):
                assert r[i, j] == r[i + 1, j + 1]

    def test_zero_bandwidth_is_rank_one(self):
        cfg = ScenarioConfig(n=8, jammer_powers=(50.0,), jammer_angles=(25.0,),
                             jammer_bandwidths=(0.0,), noise_power=1.0)
        w = np.linalg.eigvalsh(jammer_covariance(cfg))[::-1]
        assert int(np.sum(w > 1.0 + 1e-9)) == 1

    def test_normalized_convention_differs(self):
        kw = dict(n=8, jammer_powers=(50.0,), jammer_angles=(25.0,),
                  jammer_bandwidths=(0.3,), noise_power=1.0)
        a = jammer_covariance(ScenarioConfig(sinc_convention="unnormalized", **kw))
        b = jammer_covariance(ScenarioConfig(sinc_convention="normalized", **kw))
        assert not np.allclose(a, b)


class TestSteeringVector:
    def test_broadside_uniform(self):
        s = steering_vector(4, 0.0)
        assert np.allclose(s, np.full(4, 0.5), atol=1e-15)

    def test_unit_norm(self, rng):
        for angle in rng.uniform(-90, 90, 10):
            assert np.linalg.norm(steering_vector(9, float(angle))) == pytest.approx(1.0, abs=1e-12)

    def test_self_coherence(self):
        s = steering_vector(16, 20.0)
        assert np.vdot(s, s).real == pytest.approx(1.0, abs=1e-12)


class TestGenerateTraining:
    def test_no_corruption(self, rng):
        ts = generate_training(np.eye(4, dtype=complex), 10, None, rng)
        assert ts.z.shape == (4, 10)
        assert ts.corrupted_indices == ()

    def test_exact_corruption_count(self, rng):
        spec = CorruptionSpec(fraction=0.5, amplitude=50.0, steering=steering_vector(4, 0.0))
        ts = generate_training(np.eye(4, dtype=complex), 704, spec, rng)
        assert len(ts.corrupted_indices) == 352
        assert all(0 <= i < 704 for i in ts.corrupted_indices)

    def test_corrupted_mean_matches_target(self):
        n, k, alpha = 8, 10_000, 5.0
        s = steering_vector(n, 33.0)
        spec = CorruptionSpec(fraction=0.5, amplitude=alpha, steering=s)
        ts = generate_training(np.eye(n, dtype=complex), k, spec, derive_rng(5, "corr"))
        corrupted = ts.z[:, list(ts.corrupted_indices)]
        m = corrupted.shape[1]
        mean = corrupted.mean(axis=1)
        # disturbance contributes complex variance 1/m per element
        band = 3.0 * np.sqrt(1.0 / m)
        assert np.all(np.abs(mean - alpha * s) <= band)

    def test_deterministic(self):
        spec = CorruptionSpec(fraction=0.3, amplitude=2.0, steering=steering_vector(3, 10.0))
        a = generate_training(np.eye(3, dtype=complex), 20, spec, derive_rng(9, "t", 0))
        b = generate_training(np.eye(3, dtype=complex), 20, spec, derive_rng(9, "t", 0))
        assert np.array_equal(a.z, b.z)
        assert a.corrupted_indices == b.corrupted_indices

    def test_corruption_validation(self):
        with pytest.raises(InputError):
            CorruptionSpec(fraction=1.5, amplitude=1.0, steering=steering_vector(3, 0.0))
        with pytest.raises(InputError):
            CorruptionSpec(fraction=0.5, amplitude=1.0, steering=np.ones(3, dtype=complex))


class TestMatrixIo:
    def test_identity_round_trip(self, tmp_path):
        path = tmp_path / "eye.cmat"
        matrix_save(np.eye(4, dtype=complex), path)
        assert np.array_equal(matrix_load(path), np.eye(4))

    def test_random_round_trip_exact(self, rng, tmp_path):
        h = random_hermitian(rng, 8)
        path = tmp_path / "h.cmat"
        matrix_save(h, path)
        loaded = matrix_load(path)
        scale = np.max(np.abs(h))
        assert np.max(np.abs(loaded - h)) <= 1e-15 * scale

    def test_general_rectangular_round_trip(self, rng, tmp_path):
        z = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        path = tmp_path / "z.cmat"
        write_cmat(z, path)
        assert np.array_equal(read_cmat(path), z)

    def test_rejects_non_hermitian_with_location(self, tmp_path):
        path = tmp_path / "bad.cmat"
        write_cmat(np.array([[1.0, 2.0], [3.0, 1.0]], dtype=complex), path)
        with pytest.raises(FormatError) as err:
            matrix_load(path)
        assert err.value.line is not None and err.value.column is not None

    def test_loads_what_as_hermitian_takes(self, tmp_path):
        # each component of the mismatch is 0.9e-12, within as_hermitian's
        # 1e-12, though its modulus, 1.27e-12, is not: one rule for a file
        # and an array
        a = np.eye(3, dtype=complex)
        a[0, 1] = complex(0.9e-12, 0.9e-12)
        eig_hermitian(a)
        path = tmp_path / "near.cmat"
        write_cmat(a, path)
        assert matrix_load(path).tobytes() == as_hermitian(a).tobytes()
        a[0, 1] = complex(1.1e-12, 0.0)  # one component past it
        write_cmat(a, path)
        with pytest.raises(FormatError, match="mismatch 1.100e-12") as err:
            matrix_load(path)
        assert (err.value.line, err.value.column) == (2, 2)

    @pytest.mark.parametrize("token, row, col", [
        ("nan", 0, 0), ("inf", 1, 2), ("-inf", 2, 0), ("nan", 2, 1)])
    def test_rejects_non_finite_entry_with_location(self, tmp_path, token, row, col):
        # NaN compares false with everything, so a bare "max > tol" let it pass
        a = np.eye(3, dtype=complex)
        path = tmp_path / "bad.cmat"
        write_cmat(a, path)
        lines = path.read_text().splitlines()
        parts = lines[row + 1].split()
        parts[2 * col] = token
        lines[row + 1] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="is not finite") as err:
            matrix_load(path)
        assert (err.value.line, err.value.column) == (row + 2, col + 1)

    def test_rejects_malformed_rows(self, tmp_path):
        path = tmp_path / "short.cmat"
        path.write_text("CMAT v1 2 2\n1 0 0 0\n1 0\n")
        with pytest.raises(FormatError) as err:
            read_cmat(path)
        assert err.value.line == 3

    def test_writes_each_entry_at_17_digits(self, tmp_path):
        path = tmp_path / "pin.cmat"
        write_cmat(np.array([[complex(-0.0, 5e-324), complex(1.7976931348623157e308, -0.0)],
                             [complex(0.1, -1.0), complex(1 / 3, 1.5e-323)]]), path)
        assert path.read_bytes() == (
            b"CMAT v1 2 2\n-0 4.9406564584124654e-324 1.7976931348623157e+308 -0\n"
            b"0.10000000000000001 -1 0.33333333333333331 1.4821969375237396e-323\n")

    def test_read_error_names_the_file_line_after_a_blank_line(self, tmp_path):
        path = tmp_path / "gap.cmat"
        path.write_text("CMAT v1 2 1\n\n1 0\nx 0\n")
        with pytest.raises(FormatError) as err:
            read_cmat(path)
        assert (err.value.line, err.value.column) == (4, 1)
        path.write_text("CMAT v1 2 2\n\n1 0 0 0\n1 0\n")
        with pytest.raises(FormatError, match="expected 4 numbers") as err:
            read_cmat(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("body, line, col", [
        ("\n1 0 2 0\n3 0 1 0\n", 3, 2),         # off-diagonal mismatch in the first row
        ("1 0 0 0\n\n\n0 0 1 1\n", 5, 2),       # complex diagonal in the second row
        ("\n1 0 0 0\n\n0 0 nan 0\n", 5, 2)])    # non-finite entry
    def test_load_error_names_the_file_line_after_a_blank_line(self, tmp_path, body, line, col):
        path = tmp_path / "gap.cmat"
        path.write_text("CMAT v1 2 2\n" + body)
        with pytest.raises(FormatError) as err:
            matrix_load(path)
        assert (err.value.line, err.value.column) == (line, col)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "hdr.cmat"
        path.write_text("WRONG 2 2\n")
        with pytest.raises(FormatError) as err:
            read_cmat(path)
        assert err.value.line == 1

    def test_rejects_unparseable_entry(self, tmp_path):
        path = tmp_path / "tok.cmat"
        path.write_text("CMAT v1 1 2\n1 0 abc 0\n")
        with pytest.raises(FormatError) as err:
            read_cmat(path)
        assert err.value.line == 2 and err.value.column == 2
        # an imaginary part names its entry's column too
        for row, column in (("1 x 0 0", 1), ("1 0 0 1e", 2)):
            path.write_text(f"CMAT v1 1 2\n{row}\n")
            with pytest.raises(FormatError, match="unparseable entry") as err:
                read_cmat(path)
            assert (err.value.line, err.value.column) == (2, column)

    @pytest.mark.parametrize("text, line, message", [
        ("CMAT v1 x 1\n1 0\n", 1,
         "unparseable dimensions: invalid literal for int() with base 10: 'x'"),
        ("CMAT v1 1_0 1\n1 0\n", 1,
         "unparseable dimensions: '1_0' is not an ASCII number without '_'"),
        ("CMAT v1 1 \u0661\n1 0\n", 1,
         "unparseable dimensions: '\u0661' is not an ASCII number without '_'"),
        ("CMAT v1 0 1\n", 1, "dimensions must be positive"),
        ("CMAT v1 1 -1\n1 0\n", 1, "dimensions must be positive"),
        ("CMAT v1 3 1\n1 0\n\n2 0\n", 4, "expected 3 data rows, found 2"),
    ], ids=["letter", "separator", "arabic-indic", "zero-rows", "negative-cols", "rows-missing"])
    def test_rejects_bad_dimensions(self, tmp_path, text, line, message):
        path = tmp_path / "dims.cmat"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_cmat(path)
        assert str(err.value) == f"{path}, line {line}: {message}"
        assert (err.value.line, err.value.column) == (line, None)

    @pytest.mark.parametrize("row, column, entry", [
        ("1_0 -0", 1, "1_0"),                        # float() reads it as 10
        ("1 0 0 0_5", 2, "0_5"),                     # an imaginary part
        ("1 0 \u0661\u0662 0", 2, "\u0661\u0662"),  # float() reads Arabic-Indic 12
        ("1 0 \uff11 0", 2, "\uff11"),              # a fullwidth digit
    ])
    def test_rejects_number_spellings_no_writer_makes(self, tmp_path, row, column, entry):
        cols = len(row.split()) // 2
        path = tmp_path / "spell.cmat"
        path.write_text(f"CMAT v1 2 {cols}\n{' '.join(['0'] * 2 * cols)}\n\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_cmat(path)
        assert str(err.value) == (f"{path}, line 4, column {column}: unparseable entry: "
                                  f"{entry!r} is not an ASCII number without '_'")

    def test_non_ascii_whitespace_still_separates_entries(self, tmp_path):
        # str.split takes it, as before; the row is converted entry by entry
        path = tmp_path / "nbsp.cmat"
        path.write_text("CMAT v1 2 1\n1.5\u00a0-0\n2 0\n", encoding="utf-8")
        np.testing.assert_array_equal(read_cmat(path), [[1.5], [2.0]])

    def test_load_rejects_a_non_square_matrix(self, tmp_path):
        path = tmp_path / "wide.cmat"
        write_cmat(np.ones((1, 2), dtype=complex), path)
        with pytest.raises(FormatError) as err:
            matrix_load(path)
        assert str(err.value) == f"{path}, line 1: expected a square matrix, got (1, 2)"

    def test_large_round_trip_is_bit_exact(self, rng, tmp_path):
        # each row is converted at once: every entry comes back with its bits,
        # -0.0, subnormals and infinities included
        parts = rng.standard_normal((800, 1600)) * 10.0 ** rng.integers(-300, 300, (800, 1600))
        special = np.array([-0.0, 5e-324, -2.5e-320, 2.2250738585072009e-308, np.inf, -np.inf])
        parts.flat[rng.choice(parts.size, 20_000, replace=False)] = rng.choice(special, 20_000)
        z = parts.view(np.complex128)
        path = tmp_path / "big.cmat"
        write_cmat(z, path)
        back = read_cmat(path)
        assert back.shape == (800, 800)
        assert np.array_equal(back.view(np.uint64), z.view(np.uint64))


class TestDrawTraining:
    @pytest.mark.parametrize("fraction", [0.0, 0.4])
    def test_bit_identical_to_generate_training(self, rng, fraction):
        n, k = 6, 25
        r_true = random_hermitian(rng, n)
        r_true = r_true @ r_true.conj().T + np.eye(n)
        spec = CorruptionSpec(fraction=fraction, amplitude=3.0, steering=steering_vector(n, 20.0))
        a = generate_training(r_true, k, spec, derive_rng(4, "draw", k))
        z, picks = _draw_rows(sqrt_factor(r_true), k, spec, [derive_rng(4, "draw", k)])
        assert np.array_equal(a.z, z[0])
        assert a.corrupted_indices == tuple(picks[0].tolist())
        assert len(a.corrupted_indices) == round(fraction * k)

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("k", [1, 6, 12])
    @pytest.mark.parametrize("b", [1, 3, 20])
    def test_stacked_core_equals_per_trial_oracle(self, rng, b, k, fraction):
        n = 6
        r_true = random_hermitian(rng, n)
        factor = sqrt_factor(r_true @ r_true.conj().T + np.eye(n))
        spec = CorruptionSpec(fraction=fraction, amplitude=3.0, steering=steering_vector(n, 20.0))
        z, picks = _draw_rows(factor, k, spec, [derive_rng(4, "draw", k, t) for t in range(b)])
        assert z.shape == (b, n, k) and len(picks) == b
        for t in range(b):
            z_t, corrupted = draw_training_oracle(factor, k, spec, derive_rng(4, "draw", k, t))
            assert z[t].tobytes() == z_t.tobytes()
            assert tuple(picks[t].tolist()) == corrupted
            one, one_picks = _draw_rows(factor, k, spec, [derive_rng(4, "draw", k, t)])
            assert one[0].tobytes() == z_t.tobytes()
            assert tuple(one_picks[0].tolist()) == corrupted
