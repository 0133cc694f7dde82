import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import digamma, gammainc, gammaincc, gammaln, loggamma, polygamma
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
        vals = ref.log_quantiles
        assert len(vals) == len(QUANTILE_PROBS) and vals[2] == ref.log_lr0
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
        assert a == b

    def test_rejects_undersampled(self):
        with pytest.raises(InputError, match=r"no lr0 for \(n=4, k=2\): k < n"):
            lr0_reference(4, 2)

    @pytest.mark.parametrize("n, k, rounds", [
        (1, 2, True), (1, 4, True), (2, 6, True), (3, 6, False), (3, 9, False),
        (3, 12, False), (4, 8, False), (20, 40, False),
    ])
    def test_log_lr0_is_the_computed_log_median(self, tmp_path, n, k, rounds):
        # also where log(exp(x)) != x for the computed log median x: a sweep
        # reads x itself, and so does a stored record
        x = likelihood._log_lr_quantiles(n, k)[2]
        ref = lr0_reference(n, k)
        assert ref.log_lr0 == x and ref.lr0 == math.exp(x)
        assert (math.log(ref.lr0) != x) == rounds
        lr0_store(ref, tmp_path / "t.txt")
        assert lr0_load(n, k, tmp_path / "t.txt").log_lr0 == x

    @pytest.mark.parametrize("n", [745, 746, 800])
    def test_log_lr0_past_underflow_is_the_computed_log(self, n):
        ref = lr0_reference(n, n)
        x = likelihood._log_lr_quantiles(n, n)[2]
        assert math.isfinite(x) and ref.log_lr0 == x
        # 745 gives the last positive double
        assert ref.lr0 == (5e-324 if n == 745 else 0.0)

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
        # a record holds n, k and the five log quantiles, nothing of the draw
        assert tables[0].split(b"\n")[1].split()[:2] == [b"20", b"30"]
        assert len(tables[0].split(b"\n")[1].split()) == 2 + len(QUANTILE_PROBS)

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
        assert ref.log_quantiles[2] == ref.log_lr0
        for p, value in zip(QUANTILE_PROBS, ref.log_quantiles):
            # density at the quantile from the oracle's quantile spacing
            h = 0.01
            spacing = float(np.quantile(logs, p + h) - np.quantile(logs, p - h)) / (2 * h)
            se_oracle, se_draw = (
                math.sqrt(p * (1 - p) / m) * spacing for m in (oracle_trials, 20_000))
            diff = value - float(np.quantile(logs, p))
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
        log_q = dict(zip(QUANTILE_PROBS, ref.log_quantiles))
        se_ref = median_se(log_q[0.75] - log_q[0.25], trials)
        logs = gram_log_lr(derive_rng(131, "gram-oracle", n, k), n, k, oracle_trials, chunk=250)
        iqr = float(np.quantile(logs, 0.75) - np.quantile(logs, 0.25))
        se_oracle = median_se(iqr, oracle_trials)
        diff = ref.log_lr0 - float(np.median(logs))
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


def exact_scalar_cdf(k, x):
    """``P(log lr <= x)`` at N = 1, where ``log lr = log y + 1 - y`` and
    ``K y ~ Gamma(K)``: ``y`` lies outside the two real Lambert roots."""
    arg = -math.exp(x - 1.0)
    lower, upper = (-scipy_lambertw(arg, branch).real for branch in (0, -1))
    return gammainc(k, k * lower) + gammaincc(k, k * upper)


class TestExactReference:
    def test_stirling_rest_matches_scipy_loggamma(self):
        # lnG(z) = (z - 1/2) ln z - z + ln(2 pi) / 2 + rest; the logs may differ
        # by a multiple of 2 pi i, so compare their exp
        re, im = np.meshgrid(np.linspace(-60.5, 60.5, 37), [0.0, 0.3, 2.0, 25.0, 150.0])
        z = (re + 1j * im).ravel()
        z = np.concatenate([z, z.conj(), [0.5, 1.0, 1e-3 + 1e-3j, 3e4 + 9e4j, -2e3 + 7e3j]])
        z = z[np.abs(z - np.round(z.real)) > 1e-2]  # off the poles
        lead = (z - 0.5) * np.log(z) - z + 0.5 * math.log(2 * math.pi)
        mine, ref = lead + likelihood._stirling_rest(z), loggamma(z)
        assert np.all(np.abs(mine.real - ref.real) <= 1e-12 * np.maximum(np.abs(ref.real), 1.0))
        with np.errstate(over="ignore", under="ignore"):
            finite = np.abs(ref.real) < 600
            ratio = np.exp(mine[finite] - ref[finite])
        assert np.max(np.abs(ratio - 1.0)) <= 1e-11

    @pytest.mark.parametrize("n, k", [(1, 1), (1, 4), (3, 3), (7, 100), (20, 40), (64, 128)])
    def test_kappa_mean_and_sd(self, n, k):
        law = likelihood._BartlettLaw(n, k)
        a = k - np.arange(n)
        # E[log lr] = sum_i psi(a_i) - n log k, Var = sum_i psi'(a_i) - n / k
        assert law.mean == pytest.approx(float(np.sum(digamma(a))) - n * math.log(k), rel=1e-13)
        assert law.sd**2 == pytest.approx(float(np.sum(polygamma(1, a))) - n / k, rel=1e-12)
        s = np.array([0.37 * law.m, 0.5 + 2j, 1e-3j, 30j])
        direct = (n * s * (1 - math.log(k)) - n * (k + s) * np.log1p(s / k)
                  + np.sum(loggamma(a[:, None] + s) - gammaln(a)[:, None], axis=0))
        assert law.kappa(np.array([0j]))[0] == pytest.approx(0.0, abs=1e-13 * n * n)
        # the direct sum's terms cancel: it rounds at about 1e-13 of |kappa| and more
        assert np.all(np.abs(np.exp(law.kappa(s) - direct) - 1.0) <= 1e-12 * (1 + np.abs(direct)))

    @pytest.mark.parametrize("k", [1, 2, 40, 1000])
    def test_scalar_quantiles_match_exact_cdf(self, k):
        for p, x in zip(QUANTILE_PROBS, likelihood._log_lr_quantiles(1, k)):
            exact = brentq(lambda t: exact_scalar_cdf(k, t) - p, 2 * x, 0.5 * x,
                           xtol=1e-15, rtol=1e-15)
            assert abs(x - exact) <= 1e-8, (p, x - exact)

    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in (6, 7, 8) for k in (n, n + 1, 2 * n, 40, 1000)])
    def test_talbot_and_gil_pelaez_agree(self, n, k):
        # either side of the switch at N = 8
        law = likelihood._BartlettLaw(n, k)
        talbot = likelihood._solve_quantiles(law, likelihood._talbot(law))
        gil_pelaez = likelihood._solve_quantiles(law, likelihood._gil_pelaez(law))
        assert np.max(np.abs(np.subtract(talbot, gil_pelaez))) <= 1e-8
        assert likelihood._log_lr_quantiles(n, k) == (talbot if n <= 7 else gil_pelaez)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 12, 30, 100])
    def test_newton_converges_in_few_steps(self, n):
        for k in sorted({n, n + 1, n + 2, 2 * n, 100 * n, 20_000}):
            law = likelihood._BartlettLaw(n, k)
            cdf = likelihood._talbot(law) if n <= 7 else likelihood._gil_pelaez(law)
            calls = []

            def counted(x):
                calls.append(x)
                return cdf(x)

            logs = likelihood._solve_quantiles(law, counted)
            assert len(calls) <= 8, (k, len(calls))
            assert all(a < b for a, b in zip(logs, logs[1:])) and logs[-1] < 0.0

    # log-median and its standard error from 4 000 000 Bartlett draws per pair,
    # conftest.bartlett_log_lr(derive_rng(30, "k-eq-n-oracle", n, k), n, k,
    # 4_000_000); the standard error is sqrt(0.25 / draws) over the density,
    # taken from the 49 and 51 percent quantiles
    @pytest.mark.parametrize("n, k, oracle, se", [
        (2, 2, -1.269105433712516, 0.000617),
        (4, 4, -3.307064653783311, 0.00082),
        (20, 20, -19.369476631880005, 0.00115),
    ])
    def test_k_equal_n_median_matches_pinned_oracle(self, n, k, oracle, se):
        # at K = N the smallest Bartlett shape is 1; a saddlepoint median sat
        # 8 to 14 standard errors above these
        assert abs(lr0_reference(n, k).log_lr0 - oracle) <= 3.0 * se


def _ref(n, k, *log_quantiles):
    """A reference of the given log quantiles, one value repeated if only one is given."""
    return LRReference(n, k, log_quantiles * (5 if len(log_quantiles) == 1 else 1))


class TestLRReference:
    @pytest.mark.parametrize("values", [
        (math.nan,), (0.1,), (-math.inf,), (math.inf,),
        (-0.9, -0.8, math.nan, -0.6, -0.5), (-0.9, -0.8, -0.7, -0.6, 0.1),
    ], ids=["nan", "positive", "minus-inf", "inf", "nan-median", "positive-q95"])
    def test_rejects_a_log_quantile_outside_minus_inf_to_zero(self, values):
        with pytest.raises(InputError, match=r"a reference for \(n=3, k=8\) holds 5 log "
                                             r"quantiles in \(-inf, 0\], not \("):
            _ref(3, 8, *values)

    @pytest.mark.parametrize("count", [0, 4, 6])
    def test_rejects_a_count_other_than_five(self, count):
        with pytest.raises(InputError, match="holds 5 log quantiles"):
            LRReference(3, 8, (-0.5,) * count)

    def test_median_and_its_exp(self):
        ref = _ref(3, 8, -0.9, -0.8, -0.7, -0.6, 0.0)
        assert ref.log_lr0 == -0.7 and ref.lr0 == math.exp(-0.7)
        assert _ref(3, 8, 0.0).lr0 == 1.0
        with pytest.raises(AttributeError):
            ref.log_quantiles = (-0.5,) * 5


class TestLr0Table:
    @pytest.mark.parametrize("n, k", [(1, 1), (1, 2), (2, 6), (3, 12), (20, 40), (800, 800)])
    def test_round_trip(self, tmp_path, n, k):
        # all five log quantiles bit for bit, also at N = K = 800, where the
        # linear median underflows to 0
        path = tmp_path / "table.txt"
        ref = lr0_reference(n, k, trials=2000, seed=2)
        lr0_store(ref, path)
        loaded = lr0_load(n, k, path)
        assert loaded == ref
        assert [v.hex() for v in loaded.log_quantiles] == [v.hex() for v in ref.log_quantiles]

    def test_absent_key(self, tmp_path):
        path = tmp_path / "table.txt"
        lr0_store(lr0_reference(3, 12, trials=2000, seed=2), path)
        assert lr0_load(5, 12, path) is None
        assert lr0_load(3, 12, tmp_path / "missing.txt") is None

    def test_last_write_wins(self, tmp_path):
        # two records for one key, written by hand: the last one wins
        path = tmp_path / "table.txt"
        first, second = (_ref(3, 12, *(median + p for p in (-0.4, -0.2, 0.0, 0.2, 0.4)))
                         for median in (-1.17, -1.14))
        path.write_text("LR0TABLE v2\n" + "".join(
            "3 12 " + " ".join(repr(v) for v in ref.log_quantiles) + "\n" for ref in (first, second)
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = lr0_load(3, 12, path)
        assert loaded == second

    def test_store_appends_without_rewriting(self, tmp_path):
        path = tmp_path / "table.txt"
        ref = lr0_reference(3, 12, trials=2000, seed=2)
        lr0_store(ref, path)
        record = path.read_bytes().split(b"\n", 1)[1]
        assert path.read_bytes() == b"LR0TABLE v2\n" + record
        # stored bytes stay as they are, and a missing final newline is added once
        path.write_bytes(b"LR0TABLE v2\r\n" + record.rstrip(b"\n"))
        lr0_store(ref, path)
        assert path.read_bytes() == b"LR0TABLE v2\r\n" + record + record
        lr0_store(ref, path)
        assert path.read_bytes() == b"LR0TABLE v2\r\n" + record * 3
        assert lr0_load(3, 12, path) == ref

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NOT A TABLE\n")
        with pytest.raises(FormatError) as err:
            lr0_load(1, 1, path)
        assert err.value.line == 1

    def test_v1_table_fails_at_load(self, tmp_path):
        # a table of linear values, as the former format held them
        path = tmp_path / "v1.txt"
        path.write_text("LR0TABLE v1\n4 16 0 0" + " 0.59" * 6 + "\n")
        with pytest.raises(FormatError, match=r"line 1: expected header 'LR0TABLE v2'") as err:
            lr0_load(4, 16, path)
        assert err.value.line == 1

    @pytest.mark.parametrize("text", [
        "LR0TABLE v1\n4 16 0 0" + " 0.59" * 6 + "\n",
        "CMAT v1 1 1\n2 0\n",
        "notes\n",
    ], ids=["v1-table", "cmat", "text"])
    def test_store_refuses_a_file_that_is_not_a_table(self, tmp_path, text):
        path = tmp_path / "file.txt"
        path.write_text(text)
        before = path.read_bytes()
        with pytest.raises(FormatError, match=r"line 1: expected header 'LR0TABLE v2'") as err:
            lr0_store(lr0_reference(4, 16), path)
        assert err.value.line == 1
        assert path.read_bytes() == before

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("LR0TABLE v2\n3 12 -0.5\n")
        with pytest.raises(FormatError, match="expected 7 fields, found 3") as err:
            lr0_load(3, 12, path)
        assert err.value.line == 2

    @pytest.mark.parametrize("field, value, reason", [
        (0, "x", "invalid literal for int() with base 10: 'x'"),
        (5, "0.5e", "could not convert string to float: '0.5e'"),
        (1, "1_2", "'1_2' is not an ASCII number without '_'"),         # int() reads 12
        (4, "-0.3_1", "'-0.3_1' is not an ASCII number without '_'"),
        (0, "\u0663", "'\u0663' is not an ASCII number without '_'"),  # Arabic-Indic 3
        (6, "-\uff10.5", "'-\uff10.5' is not an ASCII number without '_'"),  # fullwidth 0
    ])
    def test_unparseable_field_reports_line(self, tmp_path, field, value, reason):
        path = tmp_path / "table.txt"
        lr0_store(_ref(3, 12, *(math.log(0.1 + 0.8 * p) for p in QUANTILE_PROBS)), path)
        record = path.read_text().splitlines()[1].split()
        record[field] = value
        with path.open("a", encoding="utf-8") as fh:
            fh.write("\n" + " ".join(record) + "\n")
        with pytest.raises(FormatError) as err:
            lr0_load(3, 12, path)
        assert str(err.value) == f"{path}, line 4: unparseable numeric field: {reason}"
        assert err.value.line == 4

    def test_lossless_floats(self, tmp_path):
        path = tmp_path / "table.txt"
        ref = _ref(2, 4, *(-1.0 / 7.0 - p for p in QUANTILE_PROBS))
        lr0_store(ref, path)
        assert lr0_load(2, 4, path) == ref

    def test_lookup_computes_without_storing_then_loads(self, tmp_path):
        path = tmp_path / "table.txt"
        with pytest.raises(InputError, match="autocompute is disabled"):
            lr0_lookup(3, 8, path, autocompute=False)
        ref = lr0_lookup(3, 8, path)
        assert ref == lr0_reference(3, 8) == lr0_lookup(3, 8, None)
        assert not path.exists()
        with pytest.raises(InputError, match="autocompute is disabled"):
            lr0_lookup(3, 8, path, autocompute=False)
        # a record that lr0_store pinned is read back, and wins over the computed value
        lr0_store(ref, path)
        assert lr0_lookup(3, 8, path, autocompute=False) == ref
        pinned = tmp_path / "pinned.txt"
        lr0_store(_ref(3, 8, math.log(0.25)), pinned)
        assert lr0_lookup(3, 8, pinned, autocompute=False).log_lr0 == math.log(0.25)
        assert lr0_lookup(3, 8, pinned).log_lr0 == math.log(0.25)

    def test_lookup_reads_but_never_computes_k_below_n(self, tmp_path):
        path = tmp_path / "table.txt"
        for table in (path, None):
            with pytest.raises(InputError, match=r"\(n=6, k=4\): k < n"):
                lr0_lookup(6, 4, table)
        assert not path.exists()
        lr0_store(_ref(6, 4, math.log(0.3)), path)
        assert lr0_lookup(6, 4, path).log_lr0 == math.log(0.3)

    def test_lookup_computes_an_underflowed_lr0_and_leaves_the_table_as_it_was(self, tmp_path):
        path = tmp_path / "table.txt"
        lr0_store(lr0_reference(3, 8), path)
        before = path.read_bytes()
        ref = lr0_lookup(760, 760, path)
        assert ref.lr0 == 0.0 and ref.log_lr0 == lr0_reference(760, 760).log_lr0
        assert path.read_bytes() == before

    @pytest.mark.parametrize("value", ["0.1", "nan", "-inf", "inf"])
    def test_load_rejects_a_record_outside_minus_inf_to_zero(self, tmp_path, value):
        # written by hand, as no reference holds such a value
        path = tmp_path / "table.txt"
        lr0_store(lr0_reference(3, 8), path)
        with path.open("a") as fh:
            fh.write(f"\n6 4 -0.9 -0.8 -0.7 -0.6 {value}\n")
        with pytest.raises(InputError, match=r"line 4: a reference for \(n=6, k=4\) holds 5 log "
                                             r"quantiles in \(-inf, 0\]"):
            lr0_lookup(6, 4, path)
        # the load checks every record: the table fails for any key, at that record's line
        for n, k in ((3, 8), (6, 4), (5, 5)):
            with pytest.raises(FormatError) as err:
                lr0_load(n, k, path)
            assert err.value.line == 4


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

    @staticmethod
    def _steps(monkeypatch):
        """Counts Halley steps: ``likelihood.math`` becomes a ``math`` whose
        ``exp``, called once per step, counts its calls."""

        class CountingMath:
            calls = 0

            def __getattr__(self, name):
                return getattr(math, name)

            def exp(self, x):
                CountingMath.calls += 1
                return math.exp(x)

        monkeypatch.setattr(likelihood, "math", CountingMath())
        return CountingMath

    @pytest.mark.parametrize("branch", list(LambertBranch))
    def test_at_most_eight_halley_steps(self, branch, monkeypatch):
        counter = self._steps(monkeypatch)
        most = 0
        for z in self._dense_grid(branch):
            counter.calls = 0
            lambert_w(branch, z)
            most = max(most, counter.calls)
        assert 1 <= most <= 8

    def test_large_z_starts_near_the_root(self, monkeypatch):
        # started at log z - log log z, the principal branch takes 3 to 5
        # steps above e; from log1p(z), 41 786 of these points took 7 or 8
        zs = np.exp(np.linspace(math.log(1e-300), math.log(1e300), 100_001))
        counter = self._steps(monkeypatch)
        steps = []
        for z in zs[zs > math.e].tolist():
            counter.calls = 0
            lambert_w(LambertBranch.PRINCIPAL, z)
            steps.append(counter.calls)
        assert 3 <= min(steps) and max(steps) <= 5

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
