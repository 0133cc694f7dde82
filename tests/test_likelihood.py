import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, gammaln, polygamma
from scipy.special import lambertw as scipy_lambertw

from conftest import (
    bartlett_log_lr,
    diag_log_lr,
    lambert_w_oracle,
    log_lr_matrix,
    random_psd,
    stats_from_spectrum,
)
from elcov import (
    FormatError,
    InputError,
    LambertBranch,
    derive_rng,
    lambert_w,
    log_lr_rcml,
    log_lr_value,
    lr0_load,
    lr0_reference,
    lr0_store,
    rcml,
    sqrt_factor,
)
from elcov import likelihood
from elcov.likelihood import QUANTILE_PROBS, LRReference, log_tail_lr, lr0_lookup

BRANCH_POINT = -1.0 / math.e


def gram_log_lr(gen, n, k, trials, chunk):
    """Brute-force oracle: log LR of the identity against ``S = Z Z^H / K``.

    Forms each sample covariance from a unit circular complex Gaussian
    ``Z`` and takes ``log|S| + N - tr S``, ``chunk`` trials per draw.
    """
    logs = np.empty(trials)
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        z = (gen.standard_normal((m, n, k)) + 1j * gen.standard_normal((m, n, k)))
        z *= np.sqrt(0.5)
        s = z @ z.conj().transpose(0, 2, 1) / k
        sign, logdet = np.linalg.slogdet(s)
        logs[start:start + m] = logdet.real + n - np.einsum("tii->t", s).real
    return logs


def median_se(iqr, count):
    """Normal-approximation standard error of a sample median (criterion 13)."""
    return 1.2533 * (iqr / 1.349) / math.sqrt(count)


class TestLrValue:
    def test_equal_vectors_give_one(self, rng):
        d = np.sort(rng.gamma(2.0, 1.0, 6))[::-1]
        assert math.exp(log_lr_value(d, d)) == pytest.approx(1.0, abs=1e-15)

    def test_scalar_half_ratio(self):
        # N=1 with d/lambda = 0.5: lr = 0.5 * e^{1 - 0.5} = 0.5 * e^{0.5}
        lr = math.exp(log_lr_value([2.0], [1.0]))
        assert lr == pytest.approx(0.5 * math.exp(0.5), rel=1e-12)

    def test_two_ratios(self):
        # ratios (2, 0.5): lr = 2*0.5 * e^2 / e^{2.5} = e^{-0.5}
        lr = math.exp(log_lr_value([1.0, 2.0], [2.0, 1.0]))
        assert lr == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_matches_dense_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 9))
            d = np.sort(rng.gamma(2.0, 2.0, n))[::-1]
            lam = np.sort(rng.gamma(2.0, 2.0, n))[::-1] + 0.05
            assert log_lr_value(lam, d) == pytest.approx(diag_log_lr(lam, d), abs=1e-10)

    def test_zero_sample_eigenvalue(self):
        assert log_lr_value([1.0, 1.0], [2.0, 0.0]) == -math.inf

    def test_input_validation(self):
        with pytest.raises(InputError):
            log_lr_value([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(InputError):
            log_lr_value([1.0], [1.0, 1.0])
        with pytest.raises(InputError):
            log_lr_value([1.0], [-1.0])


@settings(max_examples=80, deadline=None)
@given(
    ratios=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=10)
)
def test_lr_never_exceeds_one(ratios):
    lam = np.ones(len(ratios))
    d = np.asarray(ratios)
    val = log_lr_value(lam, d)
    assert val <= 1e-12
    if np.all(np.abs(d - 1.0) < 1e-12):
        assert val == pytest.approx(0.0, abs=1e-9)


class TestLrRcml:
    def test_full_rank_above_floor(self):
        stats = stats_from_spectrum([5.0, 3.0, 2.0])
        assert math.exp(log_lr_rcml(stats, 3)) == pytest.approx(1.0, abs=1e-15)

    def test_consistent_with_profile(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 10))
            d = np.sort(rng.gamma(2.0, 2.0, n))[::-1]
            stats = stats_from_spectrum(d, sigma2=float(rng.uniform(0.3, 3.0)))
            r = int(rng.integers(0, n + 1))
            direct = log_lr_value(rcml(stats, r).lambdas, stats.d)
            assert log_lr_rcml(stats, r) == pytest.approx(direct, rel=1e-12, abs=1e-15)

    def test_monotone_and_recurrence(self, rng):
        # 200 random spectra: lr non-decreasing in rank, with the one-step
        # update lr(i+1) = lr(i) * (s2/d) * exp(d/s2 - 1) where d >= s2
        for _ in range(200):
            n = int(rng.integers(2, 12))
            d = np.sort(rng.gamma(1.5, 3.0, n))[::-1]
            stats = stats_from_spectrum(d, sigma2=float(rng.uniform(0.3, 3.0)))
            logs = [log_lr_rcml(stats, r) for r in range(n + 1)]
            for i in range(n):
                assert logs[i + 1] >= logs[i] - 1e-12
                d_next = d[i]
                if d_next >= stats.sigma2:
                    step = math.log(stats.sigma2 / d_next) + d_next / stats.sigma2 - 1.0
                    assert logs[i + 1] == pytest.approx(logs[i] + step, abs=1e-10)
                else:
                    assert logs[i + 1] == logs[i]

    def test_monotonicity_example(self):
        stats = stats_from_spectrum([5.0, 3.0, 0.5, 0.2])
        assert math.exp(log_lr_rcml(stats, 1)) <= math.exp(log_lr_rcml(stats, 2))


class TestCoefficientBound:
    def test_grid(self):
        # g(x) = x * exp(1/x - 1) >= 1 with equality only at x = 1; computed
        # in log space since exp(1/x) overflows at the small-x end
        x = np.logspace(-3, 3, 10_000)
        log_g = np.log(x) + 1.0 / x - 1.0
        assert np.all(log_g >= -1e-12)
        assert x[np.argmin(log_g)] == pytest.approx(1.0, rel=2e-3)

    def test_point_values(self):
        assert 1.0 * math.exp(0.0) == 1.0
        assert 0.5 * math.exp(1.0) == pytest.approx(1.3591409, abs=1e-6)


class TestLr0Reference:
    def test_in_unit_interval(self):
        ref = lr0_reference(4, 16, trials=2000, seed=1)
        assert 0.0 < ref.lr0 < 1.0
        probs = [p for p, _ in ref.quantiles]
        vals = [v for _, v in ref.quantiles]
        assert probs == [0.05, 0.25, 0.5, 0.75, 0.95]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_scalar_oracle(self):
        # N=1: S is a mean of 4 unit exponentials, lr = S * e^{1 - S}
        ref = lr0_reference(1, 4, trials=100_000, seed=3)
        oracle_rng = np.random.default_rng(1234)
        g = np.mean(oracle_rng.exponential(1.0, size=(100_000, 4)), axis=1)
        oracle = float(np.median(g * np.exp(1.0 - g)))
        assert ref.lr0 == pytest.approx(oracle, rel=0.01)

    def test_dimension_trend(self):
        # larger N departs further from the unconstrained maximum
        lo = lr0_reference(8, 64, trials=20_000, seed=5)
        hi = lr0_reference(16, 64, trials=20_000, seed=6)
        assert lo.lr0 > hi.lr0

    def test_deterministic(self):
        a = lr0_reference(3, 9, trials=3000, seed=11)
        b = lr0_reference(3, 9, trials=3000, seed=11)
        assert a.lr0 == b.lr0 and a.quantiles == b.quantiles

    def test_warns_when_undersampled(self):
        with pytest.warns(UserWarning, match="singular"):
            ref = lr0_reference(4, 2)
        assert ref.lr0 == 0.0 and all(v == 0.0 for _, v in ref.quantiles)

    def test_rejects_nonpositive_dimensions(self):
        for n, k in ((0, 4), (2, 0), (-1, 3)):
            with pytest.raises(InputError):
                lr0_reference(n, k)

    def test_ignores_deprecated_trials_and_seed(self, tmp_path):
        # the reference is exact, so the former draw's arguments change no byte
        tables = []
        for i, (trials, seed) in enumerate([(None, None), (1, 0), (20_000, 1), (500, 99)]):
            path = tmp_path / f"t{i}.txt"
            lr0_store(lr0_reference(20, 30, trials=trials, seed=seed), path)
            tables.append(path.read_bytes())
        assert tables[1:] == tables[:1] * 3
        assert lr0_load(20, 30, tmp_path / "t0.txt").trials == 0

    @pytest.mark.parametrize(
        "n, k",
        [(1, 4), (4, 4), (8, 32), (20, 20), (20, 30), (20, 40), (64, 128), (128, 256), (400, 400)],
    )
    def test_quantiles_match_bartlett_oracle(self, n, k):
        # median and quartiles against the exact Bartlett draw, within three
        # combined standard errors of the oracle and of a 20 000-trial draw
        oracle_trials = 40_000 if n >= 400 else 200_000
        gen = derive_rng(17, "bartlett-oracle", n, k)
        logs = np.sort(bartlett_log_lr(gen, n, k, oracle_trials))
        ref = lr0_reference(n, k)
        assert ref.quantiles[2] == (0.5, ref.lr0)
        for p, value in ref.quantiles:
            # density at the quantile from the oracle's quantile spacing
            h = 0.01
            spacing = float(np.quantile(logs, p + h) - np.quantile(logs, p - h)) / (2 * h)
            se_oracle, se_draw = (
                math.sqrt(p * (1 - p) / m) * spacing for m in (oracle_trials, 20_000))
            diff = math.log(value) - float(np.quantile(logs, p))
            assert abs(diff) <= 3.0 * math.sqrt(se_oracle**2 + se_draw**2), (p, diff)

    def test_log_mean_matches_analytic(self):
        # independent closed form: E[log lr] = sum_i psi(k - i) - n log k
        n, k, trials = 6, 12, 20_000
        logs = gram_log_lr(derive_rng(5, "digamma-check"), n, k, trials, chunk=2000)
        analytic = float(np.sum(digamma(k - np.arange(n)))) - n * math.log(k)
        se = logs.std() / math.sqrt(trials)
        assert abs(float(logs.mean()) - analytic) <= 4.0 * se

    @pytest.mark.parametrize(
        "n, k, oracle_trials",
        [(1, 4, 4000), (4, 4, 4000), (20, 20, 4000), (20, 40, 4000), (64, 128, 2000)],
    )
    def test_log_median_matches_gram_oracle(self, n, k, oracle_trials):
        # the Bartlett draw against Gram matrices built from Gaussian samples;
        # (4, 4) has K = N, where the last diagonal gamma shape is 1
        trials = 20_000
        ref = lr0_reference(n, k, trials=trials, seed=131)
        qmap = dict(ref.quantiles)
        se_ref = median_se(math.log(qmap[0.75]) - math.log(qmap[0.25]), trials)
        logs = gram_log_lr(derive_rng(131, "gram-oracle", n, k), n, k, oracle_trials, chunk=250)
        iqr = float(np.quantile(logs, 0.75) - np.quantile(logs, 0.25))
        se_oracle = median_se(iqr, oracle_trials)
        diff = math.log(ref.lr0) - float(np.median(logs))
        assert abs(diff) <= 3.0 * math.sqrt(se_ref**2 + se_oracle**2)

    def test_invariance_small(self, rng):
        # medians from a random PD truth match the identity-based reference
        n, k, trials = 4, 16, 4000
        ref = lr0_reference(n, k, trials=trials, seed=21)
        r0 = random_psd(rng, n) + 0.5 * np.eye(n)
        f = sqrt_factor(r0)
        draws = np.empty(trials)
        gen = np.random.default_rng(77)
        for t in range(trials):
            w = (gen.standard_normal((n, k)) + 1j * gen.standard_normal((n, k))) * np.sqrt(0.5)
            z = f @ w
            s = z @ z.conj().T / k
            draws[t] = math.exp(log_lr_matrix(r0, s))
        med = float(np.median(draws))
        iqr = float(np.quantile(draws, 0.75) - np.quantile(draws, 0.25))
        se = 1.2533 * (iqr / 1.349) / math.sqrt(trials)
        assert abs(med - ref.lr0) <= 3.0 * se * math.sqrt(2.0)


class TestSaddlepointReference:
    GRID = np.logspace(-2, 7, 361)

    def test_series_functions_match_scipy(self):
        # relative error, measured against max(|f|, 1) where f crosses zero
        for x in self.GRID:
            x = float(x)
            for mine, ref in (
                (math.lgamma(x), gammaln(x)),
                (likelihood._digamma(x), digamma(x)),
                *((likelihood._polygamma(n, x), polygamma(n, x)) for n in (1, 2, 3, 4, 5)),
            ):
                assert abs(mine - ref) <= 1e-13 * max(abs(ref), 1.0), (x, mine, ref)

    @pytest.mark.parametrize("n, k", [(1, 1), (1, 4), (3, 3), (20, 40), (64, 128), (400, 400)])
    def test_cgf_derivatives(self, n, k):
        cgf = likelihood._BartlettCgf(n, k)
        a = k - np.arange(n)
        k0, k1, k2, k3 = cgf.derivatives(0.0, 3)
        assert k0 == 0.0
        # E[log lr] = sum_i psi(k - i) - n log k, and the variance and third
        # cumulant from the trigamma and tetragamma sums
        assert k1 == pytest.approx(float(np.sum(digamma(a))) - n * math.log(k), rel=1e-12)
        assert k2 == pytest.approx(float(np.sum(polygamma(1, a))) - n / k, rel=1e-11)
        assert k3 == pytest.approx(float(np.sum(polygamma(2, a))) + n / k**2, rel=1e-11)
        t = 0.37 * cgf.m
        k0, k1 = cgf.derivatives(t, 1)
        direct = (n * t * (1 - math.log(k)) + float(np.sum(gammaln(a + t) - gammaln(a)))
                  - n * (k + t) * math.log1p(t / k))
        assert k0 == pytest.approx(direct, rel=1e-12)
        assert k1 == pytest.approx(float(np.sum(digamma(a + t))) - n * math.log(k + t), rel=1e-12)

    @pytest.mark.parametrize("n, k", [(2, 4), (20, 20), (64, 128), (400, 400)])
    def test_cdf_is_continuous_at_the_series_switch(self, n, k):
        sp = likelihood._Saddlepoint(likelihood._BartlettCgf(n, k))
        l3 = sp.b_series[0] * 6
        # at the mean the Lugannani-Rice CDF tends to 1/2 + l3 / (6 sqrt(2 pi))
        assert sp(0.0)[0] == 0.5 + l3 / (6 * math.sqrt(2 * math.pi))
        for edge in (-likelihood._NEAR_MEAN, likelihood._NEAR_MEAN):
            inner, outer = (sp(edge * f / sp.scale) for f in (1 - 1e-9, 1 + 1e-9))
            assert inner[0] == pytest.approx(outer[0], abs=1e-6)
            assert inner[1] == pytest.approx(outer[1], rel=1e-4)

    @pytest.mark.parametrize(
        "n, k", [(1, 4), (2, 2), (20, 20), (128, 128), (128, 256), (400, 400)])
    def test_newton_stays_in_domain_and_converges_fast(self, n, k):
        cgf = likelihood._BartlettCgf(n, k)
        cdf = likelihood._ScalarExact(cgf) if n == 1 else likelihood._Saddlepoint(cgf)
        sd = math.sqrt(cgf.derivatives(0.0, 2)[2])
        for p, z in zip(QUANTILE_PROBS, likelihood._NORMAL_QUANTILES):
            seen = []

            def counted(t):
                seen.append(t)
                return cdf(t)

            t = likelihood._solve_quantile(counted, cgf.m, p, max(z / sd, -0.5 * cgf.m))
            assert min(seen) > -cgf.m
            assert len(seen) <= 40, (p, len(seen))
            assert cdf(t)[0] == pytest.approx(p, abs=1e-9)


class TestLr0Table:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "table.txt"
        ref = lr0_reference(3, 12, trials=2000, seed=2)
        lr0_store(ref, path)
        loaded = lr0_load(3, 12, path)
        assert loaded == ref

    def test_absent_key(self, tmp_path):
        path = tmp_path / "table.txt"
        lr0_store(lr0_reference(3, 12, trials=2000, seed=2), path)
        assert lr0_load(5, 12, path) is None
        assert lr0_load(3, 12, tmp_path / "missing.txt") is None

    def test_last_write_wins_with_warning(self, tmp_path):
        # records as the former Monte Carlo reference wrote them, two seeds
        path = tmp_path / "table.txt"
        first, second = (
            LRReference(n=3, k=12, trials=2000, seed=seed, lr0=lr0,
                        quantiles=[(p, lr0 * (0.5 + p)) for p in QUANTILE_PROBS])
            for seed, lr0 in ((1, 0.31), (9, 0.32))
        )
        lr0_store(first, path)
        lr0_store(second, path)
        with pytest.warns(UserWarning, match="differing seeds"):
            loaded = lr0_load(3, 12, path)
        assert loaded == second

    def test_store_appends_without_rewriting(self, tmp_path):
        path = tmp_path / "table.txt"
        ref = lr0_reference(3, 12, trials=2000, seed=2)
        lr0_store(ref, path)
        record = path.read_bytes().split(b"\n", 1)[1]
        assert path.read_bytes() == b"LR0TABLE v1\n" + record
        # stored bytes stay as they are, and a missing final newline is added once
        path.write_bytes(b"LR0TABLE v1\r\n" + record.rstrip(b"\n"))
        lr0_store(ref, path)
        assert path.read_bytes() == b"LR0TABLE v1\r\n" + record + record
        lr0_store(ref, path)
        assert path.read_bytes() == b"LR0TABLE v1\r\n" + record * 3
        assert lr0_load(3, 12, path) == ref

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NOT A TABLE\n")
        with pytest.raises(FormatError) as err:
            lr0_load(1, 1, path)
        assert err.value.line == 1

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("LR0TABLE v1\n3 12 2000 1 0.5\n")
        with pytest.raises(FormatError) as err:
            lr0_load(3, 12, path)
        assert err.value.line == 2

    def test_lossless_floats(self, tmp_path):
        path = tmp_path / "table.txt"
        ref = LRReference(
            n=2, k=4, trials=10, seed=0, lr0=1.0 / 3.0,
            quantiles=[(p, 1.0 / 7.0 + p) for p in (0.05, 0.25, 0.5, 0.75, 0.95)],
        )
        lr0_store(ref, path)
        assert lr0_load(2, 4, path).lr0 == ref.lr0

    def test_lookup_computes_once_then_loads(self, tmp_path):
        path = tmp_path / "table.txt"
        with pytest.raises(InputError, match="autocompute is disabled"):
            lr0_lookup(3, 8, path, autocompute=False)
        lr0 = lr0_lookup(3, 8, path)
        assert lr0 == lr0_reference(3, 8).lr0
        assert lr0_load(3, 8, path) == lr0_reference(3, 8)
        assert lr0_lookup(3, 8, path, autocompute=False) == lr0
        assert lr0_lookup(3, 8, None) == lr0
        # a stored record wins over the computed value
        pinned = tmp_path / "pinned.txt"
        lr0_store(LRReference(3, 8, 2000, 4, 0.25, [(p, 0.25) for p in QUANTILE_PROBS]), pinned)
        assert lr0_lookup(3, 8, pinned, autocompute=False) == 0.25


class TestLambertW:
    def test_known_points(self):
        assert lambert_w(LambertBranch.PRINCIPAL, 0.0) == 0.0
        assert lambert_w(LambertBranch.PRINCIPAL, math.e) == pytest.approx(1.0, rel=1e-14)
        assert lambert_w(LambertBranch.PRINCIPAL, BRANCH_POINT) == -1.0
        assert lambert_w(LambertBranch.LOWER, BRANCH_POINT) == -1.0

    def test_identity_principal_grid(self):
        zs = np.concatenate([np.linspace(BRANCH_POINT, 1.0, 500), np.logspace(0.01, 12, 500)])
        for z in zs:
            w = lambert_w(LambertBranch.PRINCIPAL, float(z))
            assert w >= -1.0 - 1e-12
            assert abs(w * math.exp(w) - z) <= 1e-12 * abs(z) + 1e-14

    def test_identity_lower_grid(self):
        zs = -np.logspace(math.log10(1e-12), math.log10(1.0 / math.e), 1000)[::-1]
        zs = np.clip(zs, BRANCH_POINT, -1e-300)
        for z in zs:
            w = lambert_w(LambertBranch.LOWER, float(z))
            assert w <= -1.0 + 1e-12
            assert abs(w * math.exp(w) - z) <= 1e-12 * abs(z) + 1e-14

    def test_against_scipy(self):
        zs = np.concatenate([np.linspace(BRANCH_POINT + 1e-9, 2.0, 200), np.logspace(1, 8, 50)])
        for z in zs:
            mine = lambert_w(LambertBranch.PRINCIPAL, float(z))
            ref = float(scipy_lambertw(complex(z), 0).real)
            assert mine == pytest.approx(ref, rel=1e-10, abs=1e-10)
        # scipy's k=-1 branch loses several digits within ~1e-5 of the branch
        # point (the identity tests above cover that zone instead)
        zs = np.linspace(BRANCH_POINT + 1e-4, -1e-6, 200)
        for z in zs:
            mine = lambert_w(LambertBranch.LOWER, float(z))
            ref = float(scipy_lambertw(complex(z), -1).real)
            assert mine == pytest.approx(ref, rel=1e-8, abs=1e-8)

    @staticmethod
    def _dense_grid(branch):
        """20 001 points of ``(-1/e, 0)`` and, on the principal branch, as many
        of ``(0, 1e300]``, log-spaced."""
        zs = -np.exp(np.linspace(math.log(1e-300), -1.0, 20_001))
        if branch is LambertBranch.PRINCIPAL:
            zs = np.concatenate([zs, np.exp(np.linspace(math.log(1e-300), math.log(1e300), 20_001))])
        return zs.tolist()

    @pytest.mark.parametrize("branch", list(LambertBranch))
    def test_matches_former_fifty_step_loop(self, branch):
        # the loop now stops on a 2-cycle and returns the iterate the former
        # loop returned after all 50 steps (tests/conftest.py keeps it)
        for z in self._dense_grid(branch):
            assert repr(lambert_w(branch, z)) == repr(lambert_w_oracle(branch, z))

    @pytest.mark.parametrize("branch", list(LambertBranch))
    def test_at_most_eight_halley_steps(self, branch, monkeypatch):
        class CountingMath:
            """``math`` whose ``exp``, called once per Halley step, counts."""

            calls = 0

            def __getattr__(self, name):
                return getattr(math, name)

            def exp(self, x):
                CountingMath.calls += 1
                return math.exp(x)

        monkeypatch.setattr(likelihood, "math", CountingMath())
        most = 0
        for z in self._dense_grid(branch):
            CountingMath.calls = 0
            lambert_w(branch, z)
            most = max(most, CountingMath.calls)
        assert 1 <= most <= 8

    def test_domain_errors(self):
        with pytest.raises(InputError):
            lambert_w(LambertBranch.PRINCIPAL, BRANCH_POINT - 1e-6)
        with pytest.raises(InputError):
            lambert_w(LambertBranch.LOWER, 0.0)
        with pytest.raises(InputError):
            lambert_w(LambertBranch.LOWER, 0.5)


class TestTailProfile:
    def test_peak_at_trailing_mean(self, rng):
        d = np.sort(rng.gamma(2.0, 2.0, 6))[::-1]
        r = 2
        t_ml = float(np.mean(d[r:]))
        grid = np.linspace(0.2 * t_ml, 5.0 * t_ml, 400)
        vals = [log_tail_lr(d, r, float(t)) for t in grid]
        assert abs(grid[int(np.argmax(vals))] - t_ml) <= grid[1] - grid[0]

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            log_tail_lr([2.0, 1.0], 2, 1.0)
        with pytest.raises(InputError):
            log_tail_lr([2.0, 1.0], 0, -1.0)
