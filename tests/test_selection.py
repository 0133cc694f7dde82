import functools
import math

import numpy as np
import pytest

from conftest import (
    _CnPath,
    as_hermitian_oracle,
    bisect_u_oracle,
    cn_lambda_map,
    eigh_desc_oracle,
    random_hermitian,
    reference_scenario,
    scalar_cn_solution_oracle,
    scalar_cncml_oracle,
    scalar_kmax_oracle,
    scalar_loading_oracle,
    scalar_rank_oracle,
    select_rank_sigma_oracle,
    sigma_el_roots_oracle,
    six_jammer_scenario,
    stats_from_spectrum,
)
from elcov import (
    ConstraintRecord,
    EigenDecomposition,
    InputError,
    JointSelection,
    NoRootError,
    SampleStats,
    cncml,
    cncml_u_star,
    derive_rng,
    eig_hermitian,
    generate_training,
    jammer_covariance,
    log_lr_rcml,
    log_lr_value,
    nmf_statistic,
    rcml,
    sample_covariance,
    sample_training,
    select_kmax,
    select_loading,
    select_rank,
    select_rank_sigma,
    sigma_el_roots,
    sigma_ml,
    sqrt_factor,
    steering_vector,
)
from elcov.estimators import _cncml_rows, _CnTable
from elcov.harness import _ESTIMATORS, EstimatorSpec, build_estimate
from elcov.likelihood import log_tail_lr, lr0_reference
from elcov.selection import _kmax_rows, _loading_rows, _nmf_scorer, _rank_rows


def log_lr_rank(stats, r):
    """Independent oracle: log LR of the rank-r profile, built by hand."""
    lam = np.full(stats.n, stats.sigma2)
    lam[:r] = np.maximum(stats.d[:r], stats.sigma2)
    return log_lr_value(lam, stats.d)


class TestSelectRank:
    def test_boundary_clamp_low(self):
        stats = stats_from_spectrum([5.0, 3.0, 0.5])
        tiny = 0.5 * math.exp(log_lr_rcml(stats, 0))
        assert select_rank(stats, tiny).r_hat == 0

    def test_plateau_picks_smallest(self):
        stats = stats_from_spectrum([5.0, 3.0, 0.5, 0.2])
        assert select_rank(stats, 1.0).r_hat == 2

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 21))
            d = np.sort(rng.gamma(1.5, 3.0, n))[::-1]
            stats = stats_from_spectrum(d, sigma2=float(rng.uniform(0.3, 3.0)))
            lr0 = float(rng.uniform(1e-6, 1.0))
            rng.integers(0, n + 1)  # the former start rank; keeps the drawn cases unchanged
            sel = select_rank(stats, lr0)
            log_lr0 = math.log(lr0)
            errs = [abs(log_lr_rank(stats, r) - log_lr0) for r in range(n + 1)]
            assert sel.r_hat == int(np.argmin(errs))

    def test_visited_invariant(self, rng):
        d = np.sort(rng.gamma(1.5, 3.0, 10))[::-1]
        stats = stats_from_spectrum(d)
        sel = select_rank(stats, 0.3)
        best = abs(sel.visited[0][1] - math.log(0.3))
        for r, log_lr in sel.visited:
            err = abs(log_lr - math.log(0.3))
            if r == sel.r_hat:
                best = err
        for r, log_lr in sel.visited:
            assert best <= abs(log_lr - math.log(0.3)) + 1e-12

    def test_visited_scores_every_rank_up_to_fml(self, rng):
        d = np.sort(rng.gamma(1.5, 3.0, 12))[::-1]
        stats = stats_from_spectrum(d, sigma2=1.5)
        p = int(np.count_nonzero(d > 1.5))
        sel = select_rank(stats, 0.3)
        assert [r for r, _ in sel.visited] == list(range(p + 1))
        for r, log_lr in sel.visited:
            assert log_lr == pytest.approx(log_lr_rank(stats, r), abs=1e-9)

    def test_singular_sample_picks_rank_zero(self):
        # every rank has LR 0 (log LR -inf); the tie resolves to the smallest rank
        assert select_rank(stats_from_spectrum([3.0, 2.0, 0.0]), 0.5).r_hat == 0

    def test_input_validation(self):
        stats = stats_from_spectrum([2.0, 1.0])
        with pytest.raises(InputError):
            select_rank(stats, 0.0)

    @pytest.mark.parametrize("bad", [-1e-16, np.nan])
    def test_negative_or_nan_eigenvalue_raises(self, bad):
        # the log of such an entry used to fill every rank's log LR with NaN,
        # and the argmin then picked rank 0; a NaN entry now fails where the
        # stats are built, and the core rejects it too
        with pytest.raises(InputError, match="NaN" if bad != bad else "non-negative"):
            select_rank(stats_from_spectrum([3.0, 2.0, bad]), 0.5)
        with pytest.raises(InputError, match="non-negative"):
            _rank_rows(np.array([[3.0, 2.0, bad]]), 1.0, math.log(0.5))

    def test_large_dimension_stays_in_log_domain(self):
        # at N = 352 the raw LR underflows doubles; the log-domain scores
        # must still see finite mismatches
        n, k = 352, 704
        gen = derive_rng(9, "large-dim")
        z = (gen.standard_normal((n, k)) + 1j * gen.standard_normal((n, k))) * np.sqrt(0.5)
        stats = SampleStats.from_sample_covariance(sample_covariance(z), k, 1.0)
        assert math.isfinite(log_lr_value(np.full(n, 1.0), stats.d))
        sel = select_rank(stats, math.exp(-60.0))
        assert 0 <= sel.r_hat <= n


class TestSigmaMl:
    def test_trailing_mean(self):
        assert sigma_ml([5.0, 3.0, 0.5, 0.2], 2) == pytest.approx(0.35)

    def test_rank_zero_full_mean(self):
        assert sigma_ml([4.0, 2.0], 0) == pytest.approx(3.0)

    def test_flat_spectrum(self):
        for r in range(3):
            assert sigma_ml([2.5, 2.5, 2.5], r) == pytest.approx(2.5)

    def test_rejects_full_rank(self):
        with pytest.raises(InputError):
            sigma_ml([1.0, 2.0], 2)


class TestSigmaElRoots:
    def test_peak_gives_single_root(self):
        d = np.array([5.0, 3.0, 0.5, 0.2])
        s_ml = sigma_ml(d, 2)
        lr_max = math.exp(log_tail_lr(d, 2, s_ml))
        roots = sigma_el_roots(d, 2, lr_max)
        assert roots.count == 1
        assert roots.roots[0] == pytest.approx(s_ml)

    def test_reference_above_peak_gives_none(self):
        # unequal trailing eigenvalues keep the attainable maximum below 1
        roots = sigma_el_roots([5.0, 3.0, 0.5, 0.2], 2, 1.0)
        assert roots.count == 0
        assert roots.roots == ()

    def test_two_roots_bracket_and_substitute(self):
        d = np.array([5.0, 3.0, 0.5, 0.2])
        s_ml = sigma_ml(d, 2)
        lr0 = 0.9 * math.exp(log_tail_lr(d, 2, s_ml))
        roots = sigma_el_roots(d, 2, lr0)
        assert roots.count == 2
        lo, hi = roots.roots
        assert lo < s_ml < hi
        for root in roots.roots:
            assert math.exp(log_tail_lr(d, 2, root)) == pytest.approx(lr0, rel=1e-8)

    def test_matches_bisection_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 10))
            r = int(rng.integers(0, n - 1))
            d = np.sort(rng.gamma(2.0, 2.0, n))[::-1]
            s_ml = sigma_ml(d, r)
            lr0 = float(rng.uniform(0.3, 0.97)) * math.exp(log_tail_lr(d, r, s_ml))
            roots = sigma_el_roots(d, r, lr0)
            assert roots.count == 2
            target = math.log(lr0)

            def bisect(lo, hi):
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if log_tail_lr(d, r, mid) < target:
                        lo = mid
                    else:
                        hi = mid
                return 0.5 * (lo + hi)

            lo_edge = s_ml
            while log_tail_lr(d, r, lo_edge) > target:
                lo_edge /= 2.0
            left = bisect(lo_edge, s_ml)
            hi_edge = s_ml
            while log_tail_lr(d, r, hi_edge) > target:
                hi_edge *= 2.0
            # reversed orientation on the decreasing side
            lo_b, hi_b = s_ml, hi_edge
            for _ in range(200):
                mid = 0.5 * (lo_b + hi_b)
                if log_tail_lr(d, r, mid) > target:
                    lo_b = mid
                else:
                    hi_b = mid
            right = 0.5 * (lo_b + hi_b)
            assert roots.roots[0] == pytest.approx(left, rel=1e-9)
            assert roots.roots[1] == pytest.approx(right, rel=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_negative_trailing_eigenvalue_rejected_before_any_log(self):
        with pytest.raises(InputError, match="non-negative"):
            sigma_el_roots([5.0, 1.0, -1e-15], 0, 0.5)
        with pytest.raises(InputError, match="non-negative"):
            sigma_el_roots([5.0, 1.0, 0.5, -1e-15], 2, 0.5)

    @pytest.mark.filterwarnings("error")
    def test_zero_trailing_eigenvalue_gives_no_roots(self):
        roots = sigma_el_roots([5.0, 1.0, 0.0], 0, 0.5)
        assert roots.count == 0
        assert roots.roots == ()
        assert roots.sigma_ml == 2.0

    def test_unimodal_profile(self, rng):
        # increasing below the trailing mean, decreasing above
        d = np.sort(rng.gamma(2.0, 2.0, 8))[::-1]
        r = 3
        s_ml = sigma_ml(d, r)
        grid = np.linspace(0.05 * s_ml, 8.0 * s_ml, 1000)
        vals = np.array([log_tail_lr(d, r, float(t)) for t in grid])
        peak = int(np.argmax(vals))
        assert np.all(np.diff(vals[: peak + 1]) >= -1e-12)
        assert np.all(np.diff(vals[peak:]) <= 1e-12)


def climb_rank_sigma(s_eig, k, r_init, lr0, training, steering):
    """Oracle: the former joint selection, which climbs rank by rank.

    Each climb asks :func:`sigma_el_roots` for roots at every rank from its
    start until some exist (at most ``n - 1``).  Returns the climbed rank of
    every pass, the last one being the pass that stopped the loop, and the
    selection, scoring the candidates as :func:`select_rank_sigma` does.
    """
    n, d = s_eig.n, s_eig.eigenvalues

    def climb(r):
        roots = sigma_el_roots(d, r, lr0)
        while r < n - 1 and roots.count == 0:
            r += 1
            roots = sigma_el_roots(d, r, lr0)
        return r, roots

    r, roots = climb(min(max(r_init, 0), n - 1))
    climbed = [r]
    for iterations in range(1, n + 1):
        stats = SampleStats(n=n, k=k, s_eig=s_eig, sigma2=roots.sigma_ml)
        r_new, roots_new = climb(min(select_rank(stats, lr0).r_hat, n - 1))
        climbed.append(r_new)
        if r_new >= r:
            break
        r, roots = r_new, roots_new
    sigmas = {"ML": roots.sigma_ml}
    if roots.count == 2 and r > 0:
        sigmas.update(EL1=roots.roots[0], EL2=roots.roots[1])
    mean_nmf = _nmf_scorer(s_eig.eigenvectors, steering, training)
    scores = {label: mean_nmf(rcml(SampleStats(n=n, k=k, s_eig=s_eig, sigma2=sig), r).lambdas)
              for label, sig in sigmas.items()}
    label = min(scores, key=scores.get)
    return climbed, JointSelection(r, sigmas[label], label, iterations)


class TestSelectRankSigma:
    def _planted(self, rng, n=8, r_true=3, floor=1.0):
        d = np.concatenate([np.array([50.0, 20.0, 10.0])[:r_true], np.full(n - r_true, floor)])
        eig = EigenDecomposition(eigenvalues=d, eigenvectors=np.eye(n, dtype=complex))
        r_mat = (eig.eigenvectors * d) @ eig.eigenvectors.conj().T
        z = sample_training(sqrt_factor(r_mat), 32, rng)
        return d, eig, z

    def test_planted_model_recovery(self, rng):
        n, r_true, floor = 8, 3, 1.0
        d, eig, z = self._planted(rng, n, r_true, floor)
        lr_max = math.exp(log_tail_lr(d, r_true, floor))
        lr0 = 0.99 * lr_max
        steering = steering_vector(n, 17.0)
        joint = select_rank_sigma(eig, 32, 1, lr0, z, steering)
        assert joint.r_hat == r_true
        assert joint.chosen_from in {"ML", "EL1", "EL2"}
        assert abs(joint.sigma2_hat - floor) <= 0.1 * floor

    def test_deterministic(self, rng):
        d, eig, z = self._planted(rng)
        lr0 = 0.95 * math.exp(log_tail_lr(d, 3, 1.0))
        s = steering_vector(8, -25.0)
        a = select_rank_sigma(eig, 32, 1, lr0, z, s)
        b = select_rank_sigma(eig, 32, 1, lr0, z, s)
        assert a == b

    def test_rejects_scalar_dimension(self):
        eig = EigenDecomposition(eigenvalues=np.array([2.0]), eigenvectors=np.eye(1, dtype=complex))
        with pytest.raises(InputError, match="dimension"):
            select_rank_sigma(eig, 4, 0, 0.5, np.ones((1, 4), dtype=complex), np.ones(1, dtype=complex))

    def test_rejects_non_unit_steering(self, rng):
        d, eig, z = self._planted(rng)
        with pytest.raises(InputError, match="unit-norm"):
            select_rank_sigma(eig, 32, 1, 0.5, z, np.ones(8, dtype=complex))

    def test_lower_rank_without_roots_climbs_back(self):
        # reference scenario, K = 20, trial 121: at sigma_ML(6) the rank
        # selector returns 5, which has no noise-power roots, so the climb
        # lands on 6 again and the alternation ends there instead of cycling
        scenario = reference_scenario()
        # lr0_reference(20, 20, trials=20000, seed=1).lr0 as drawn by the
        # former Gram-matrix sampler, kept so the test replays that exact case
        lr0 = 3.83391595215512e-09
        rng = derive_rng(7, "trial", 20, 121)
        z = generate_training(jammer_covariance(scenario), 20, None, rng).z
        eig = eig_hermitian(sample_covariance(z))
        assert sigma_el_roots(eig.eigenvalues, 5, lr0).count == 0
        joint = select_rank_sigma(eig, 20, 3, lr0, z, steering_vector(20, 0.0))
        assert joint.r_hat == 6
        assert joint.iterations == 1

    def test_climbed_ranks_never_rise(self, rng):
        # on the per-rank climb's trajectory the climbed rank of each pass
        # never exceeds the one before, and the loop stops as soon as it
        # stops falling; the closed-form climb returns the same selection
        multi_pass = 0
        for i in range(300):
            n = int(rng.integers(2, 65))
            if i % 4 == 0:  # tied spectrum
                d = rng.choice(np.exp(rng.uniform(np.log(0.05), np.log(1e3), 3)), n)
            else:
                d = np.exp(rng.uniform(np.log(0.05), np.log(1e3), n))
            d = np.sort(d)[::-1]
            eig = EigenDecomposition(eigenvalues=d, eigenvectors=np.eye(n, dtype=complex))
            z = sample_training(np.diag(np.sqrt(d)).astype(complex), 2 * n, rng)
            lr0 = math.exp(-float(10 ** rng.uniform(-3.0, 2.0)))
            args = (eig, 2 * n, int(rng.integers(0, n)), lr0, z, steering_vector(n, 0.0))
            climbed, oracle = climb_rank_sigma(*args)
            assert all(b <= a for a, b in zip(climbed, climbed[1:]))
            assert all(b < a for a, b in zip(climbed[:-1], climbed[1:-1]))
            assert oracle.iterations == len(climbed) - 1
            assert oracle.r_hat == climbed[-2]
            assert select_rank_sigma(*args) == oracle
            multi_pass += oracle.iterations > 1
        assert multi_pass >= 30

    def test_reference_at_a_peak_has_roots_there(self, rng):
        # lr0 at rank r's peak gives one root (within 1e-10 in log LR), so
        # the climb from r stops at r as the per-rank climb does
        for _ in range(200):
            n = int(rng.integers(2, 33))
            d = np.sort(np.exp(rng.uniform(np.log(0.5), np.log(20.0), n)))[::-1]
            eig = EigenDecomposition(eigenvalues=d, eigenvectors=np.eye(n, dtype=complex))
            z = sample_training(np.diag(np.sqrt(d)).astype(complex), 2 * n, rng)
            r = int(rng.integers(0, n - 1))
            lr0 = math.exp(log_tail_lr(d, r, sigma_ml(d, r)))
            args = (eig, 2 * n, r, lr0, z, steering_vector(n, 0.0))
            climbed, oracle = climb_rank_sigma(*args)
            assert climbed[0] == r
            assert select_rank_sigma(*args) == oracle

    def test_one_root_solve_per_selection(self, rng, monkeypatch):
        import elcov.selection as selection

        calls, inner = [], selection._noise_roots

        def roots(tail, log_lr0):
            calls.append(len(d) - len(tail))  # the rank whose tail is solved
            return inner(tail, log_lr0)

        monkeypatch.setattr(selection, "_noise_roots", roots)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            d = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(1e3), n)))[::-1]
            eig = EigenDecomposition(eigenvalues=d, eigenvectors=np.eye(n, dtype=complex))
            z = sample_training(np.diag(np.sqrt(d)).astype(complex), 2 * n, rng)
            lr0 = math.exp(-float(10 ** rng.uniform(-3.0, 2.0)))
            calls.clear()
            joint = select_rank_sigma(eig, 2 * n, int(rng.integers(0, n)), lr0, z,
                                      steering_vector(n, 0.0))
            assert calls == [joint.r_hat]

    def test_one_pass_of_work_per_selection(self, rng, monkeypatch):
        # no SampleStats, no rcml, one root solve, one projection of the
        # training matrix onto the eigenbasis and one scoring product
        import elcov.estimators as estimators
        import elcov.selection as selection

        calls = {"stats": 0, "rcml": 0, "roots": 0, "project": 0, "score": []}
        post_init, scorer = SampleStats.__post_init__, selection._nmf_scorer
        noise_roots = selection._noise_roots

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        def counted_scorer(v, steering, training):
            mean_nmf = scorer(v, steering, training)

            def score(lambdas):
                calls["score"].append(np.shape(lambdas))
                return mean_nmf(lambdas)

            return score

        class Basis(np.ndarray):
            """Eigenvectors that count their products with the training matrix."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul and any(x is z for x in inputs):
                    calls["project"] += 1
                out = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
                return out.view(Basis) if ufunc is np.conjugate else out

        monkeypatch.setattr(SampleStats, "__post_init__", counted("stats", post_init))
        monkeypatch.setattr(estimators, "rcml", counted("rcml", rcml))
        monkeypatch.setattr(selection, "rcml", estimators.rcml, raising=False)
        monkeypatch.setattr(selection, "_noise_roots", counted("roots", noise_roots))
        monkeypatch.setattr(selection, "_nmf_scorer", counted_scorer)
        for _ in range(60):
            n = int(rng.integers(2, 65))
            d = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(1e3), n)))[::-1]
            z = sample_training(np.diag(np.sqrt(d)).astype(complex), 2 * n, rng)
            basis = eig_hermitian(random_hermitian(rng, n)).eigenvectors.view(Basis)
            eig = EigenDecomposition(eigenvalues=d, eigenvectors=basis)
            lr0 = math.exp(-float(10 ** rng.uniform(-3.0, 2.0)))
            calls.update(stats=0, rcml=0, roots=0, project=0, score=[])
            joint = select_rank_sigma(eig, 2 * n, int(rng.integers(0, n)), lr0, z,
                                      steering_vector(n, 0.0))
            scored = calls.pop("score")
            assert calls == {"stats": 0, "rcml": 0, "roots": 1, "project": 1}
            roots = sigma_el_roots(d, joint.r_hat, lr0)
            assert scored == [(3 if roots.count == 2 and joint.r_hat > 0 else 1, n)]

    def test_rank_zero_scores_only_the_ml_noise_power(self, rng):
        # at rank 0 every candidate is sigma2 I, so two roots add nothing
        found = 0
        for _ in range(200):
            n = int(rng.integers(2, 17))
            d = np.sort(np.exp(rng.uniform(np.log(0.5), np.log(2.0), n)))[::-1]
            eig = EigenDecomposition(
                eigenvalues=d, eigenvectors=eig_hermitian(random_hermitian(rng, n)).eigenvectors
            )
            z = sample_training((eig.eigenvectors * np.sqrt(d)).astype(complex), 2 * n, rng)
            lr0 = math.exp(-float(10 ** rng.uniform(-1.0, 1.5)))
            joint = select_rank_sigma(eig, 2 * n, 0, lr0, z, steering_vector(n, 10.0))
            if joint.r_hat == 0 and sigma_el_roots(d, 0, lr0).count == 2:
                found += 1
                assert joint.chosen_from == "ML"
                assert joint.sigma2_hat == sigma_ml(d, 0)
        assert found >= 20

    def test_rejects_a_spectrum_without_positive_floor(self, rng):
        d, eig, z = self._planted(rng)
        for last in (0.0, -1e-15):
            d_low = np.concatenate([d[:-1], [last]])
            eig_low = EigenDecomposition(eigenvalues=d_low, eigenvectors=eig.eigenvectors)
            with pytest.raises(InputError, match="sample eigenvalues must be positive"):
                select_rank_sigma(eig_low, 32, 1, 0.5, z, steering_vector(8, 0.0))

    def test_nmf_scores_match_nmf_statistic_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 65))
            d = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(1e3), n)))[::-1]
            eig = EigenDecomposition(
                eigenvalues=d, eigenvectors=eig_hermitian(random_hermitian(rng, n)).eigenvectors
            )
            k = int(rng.integers(1, 3 * n))
            z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            s = steering_vector(n, float(rng.uniform(-90.0, 90.0)))
            mean_nmf = _nmf_scorer(eig.eigenvectors, s, z)
            for sigma2 in rng.uniform(0.05, 2.0, 3):
                est = rcml(SampleStats(n=n, k=k, s_eig=eig, sigma2=float(sigma2)),
                           int(rng.integers(n + 1)))
                oracle = float(np.mean(nmf_statistic(est, s, z)))
                assert mean_nmf(est.lambdas) == pytest.approx(oracle, rel=1e-12)

    def test_batched_nmf_scores_match_row_by_row(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 65))
            eig = eig_hermitian(random_hermitian(rng, n))
            k = int(rng.integers(1, 3 * n))
            z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            mean_nmf = _nmf_scorer(eig.eigenvectors, steering_vector(n, float(rng.uniform(-90.0, 90.0))),
                                   z)
            lambdas = np.exp(rng.uniform(np.log(0.05), np.log(1e3), (int(rng.integers(1, 4)), n)))
            batched = mean_nmf(lambdas)
            assert batched.shape == (len(lambdas),)
            for row, score in zip(lambdas, batched):
                one = mean_nmf(row)
                assert isinstance(one, float)
                assert score == pytest.approx(one, rel=1e-12)

    @pytest.mark.parametrize("n, k, draws", [
        (20, 20, 200), (20, 30, 200), (20, 40, 200), (64, 128, 60), (128, 256, 30),
    ])
    def test_matches_per_rank_climb_on_scenario_draws(self, n, k, draws):
        # the reference scenario at N = 20, the six-jammer one above it;
        # the oracle scores the candidates one at a time
        scenario = reference_scenario() if n == 20 else six_jammer_scenario(n)
        r_true = jammer_covariance(scenario)
        lr0 = lr0_reference(n, k, trials=2000, seed=1).lr0
        steering = steering_vector(n, 0.0)
        r_init = len(scenario.jammer_powers)
        for i in range(draws):
            z = generate_training(r_true, k, None, derive_rng(7, "joint-oracle", k, i)).z
            args = (eig_hermitian(sample_covariance(z)), k, r_init, lr0, z, steering)
            assert select_rank_sigma(*args) == climb_rank_sigma(*args)[1]

    def test_chooses_the_oracle_nmf_minimum(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 33))
            d = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(1e3), n)))[::-1]
            eig = EigenDecomposition(
                eigenvalues=d, eigenvectors=eig_hermitian(random_hermitian(rng, n)).eigenvectors
            )
            z = sample_training((eig.eigenvectors * np.sqrt(d)).astype(complex), 2 * n, rng)
            s = steering_vector(n, 10.0)
            lr0 = math.exp(-float(10 ** rng.uniform(-3.0, 2.0)))
            joint = select_rank_sigma(eig, 2 * n, 0, lr0, z, s)
            roots = sigma_el_roots(d, joint.r_hat, lr0)
            two = roots.count == 2
            labels = ["ML", "EL1", "EL2"] if two else ["ML"]
            sigmas = [roots.sigma_ml, *roots.roots] if two else [roots.sigma_ml]
            scores = [
                float(np.mean(nmf_statistic(
                    rcml(SampleStats(n=n, k=2 * n, s_eig=eig, sigma2=sig), joint.r_hat), s, z)))
                for sig in sigmas
            ]
            # equal estimates (r = 0 is sigma2 I at every sigma2) tie up to rounding
            chosen = sigmas.index(joint.sigma2_hat)
            assert joint.chosen_from == labels[chosen]
            assert scores[chosen] <= min(scores) * (1.0 + 1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_training_rejected(self, rng, bad):
        d, eig, z = self._planted(rng)
        z[3, 7] = bad
        with pytest.raises(InputError, match="finite"):
            select_rank_sigma(eig, 32, 1, 0.5, z, steering_vector(8, 0.0))

    def test_non_finite_steering_rejected(self, rng):
        d, eig, z = self._planted(rng)
        steering = steering_vector(8, 0.0)
        steering[2] = np.nan
        with pytest.raises(InputError, match="unit-norm"):
            select_rank_sigma(eig, 32, 1, 0.5, z, steering)

    def test_zero_training_column_rejected(self, rng):
        d, eig, z = self._planted(rng)
        z[:, 5] = 0.0
        with pytest.raises(InputError, match="nonzero"):
            select_rank_sigma(eig, 32, 1, 0.5, z, steering_vector(8, 0.0))


class TestMatchesFormerJointPath:
    """The one-call joint path (``eig_hermitian``, ``select_rank_sigma`` with
    ``sigma_el_roots``, ``rcml``) returns, repr for repr and byte for byte,
    what the former code returns (``tests/conftest.py`` keeps it), and raises
    the same errors with the same messages."""

    @staticmethod
    def _same(fn, oracle, *args):
        mine = _outcome(fn, *args)
        assert repr(mine) == repr(_outcome(oracle, *args))
        return mine

    def _joint(self, rng, d, k=None):
        """Arguments of ``select_rank_sigma`` for the spectrum ``d`` on a random
        basis: training drawn on it, a steering vector and random r_init, lr0."""
        n = len(d)
        basis = eig_hermitian(random_hermitian(rng, n)).eigenvectors
        eig = EigenDecomposition(eigenvalues=d, eigenvectors=basis)
        k = k or int(rng.integers(1, 3 * n + 1))
        z = sample_training(basis * np.sqrt(np.maximum(d, 0.0)), k, rng)
        lr0 = math.exp(-float(10 ** rng.uniform(-3.0, 2.5)))
        steering = steering_vector(n, float(rng.uniform(-90.0, 90.0)))
        return [eig, k, int(rng.integers(-2, n + 3)), lr0, z, steering]

    def test_random_spectra(self, rng):
        for i in range(150):
            n = 2 + i % 127 if i < 127 else int(rng.integers(2, 129))
            d = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(1e3), n)))[::-1]
            args = self._joint(rng, d)
            for lr0 in (args[3], 1.0, 1e-300):
                args[3] = lr0
                joint = self._same(select_rank_sigma, select_rank_sigma_oracle, *args)
                assert isinstance(joint, JointSelection)

    def test_tie_heavy_spectra(self, rng):
        for i in range(150):
            n = int(rng.integers(2, 65))
            levels = np.exp(rng.uniform(np.log(0.05), np.log(1e3), int(rng.integers(1, 4))))
            d = np.sort(rng.choice(levels, n))[::-1]
            self._same(select_rank_sigma, select_rank_sigma_oracle, *self._joint(rng, d))
            for r in range(n):
                lr0 = math.exp(log_tail_lr(d, r, sigma_ml(d, r)))  # a peak, up to rounding
                self._same(sigma_el_roots, sigma_el_roots_oracle, d, r, lr0)

    @pytest.mark.parametrize("k", [20, 30, 40])
    def test_reference_draws(self, k):
        r_true = jammer_covariance(reference_scenario())
        lr0 = lr0_reference(20, k).lr0
        steering = steering_vector(20, 0.0)
        for i in range(100):
            z = generate_training(r_true, k, None, derive_rng(2024, "joint-bits", k, i)).z
            s = sample_covariance(z)
            eig = eig_hermitian(s)
            w, v = eigh_desc_oracle(as_hermitian_oracle(s))
            assert eig.eigenvalues.tobytes() == w.tobytes()
            assert eig.eigenvectors.tobytes() == v.tobytes()
            joint = self._same(select_rank_sigma, select_rank_sigma_oracle,
                               eig, k, 3, lr0, z, steering)
            est = rcml(SampleStats(n=20, k=k, s_eig=eig, sigma2=joint.sigma2_hat), joint.r_hat)
            expected = np.where(np.arange(20) < joint.r_hat,
                                np.maximum(w, joint.sigma2_hat), joint.sigma2_hat)
            assert est.lambdas.tobytes() == expected.tobytes()

    def test_rejected_inputs(self, rng):
        d = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(1e3), 8)))[::-1]
        eig, k, _, lr0, z, steering = self._joint(rng, d, k=16)
        good = (eig, k, 1, lr0, z, steering)

        def spectrum(values):
            return EigenDecomposition(eigenvalues=np.array(values), eigenvectors=eig.eigenvectors)

        cases = []
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, -np.inf), complex(np.nan, 1.0)):
            z_bad = z.copy()
            z_bad[3, 7] = bad
            cases.append((eig, k, 1, lr0, z_bad, steering))
        z_zero = z.copy()
        z_zero[:, 5] = 0.0
        cases.append((eig, k, 1, lr0, z_zero, steering))
        for wrong in (z.T, z[:, :0], z[0], z[:4]):
            cases.append((eig, k, 1, lr0, wrong, steering))
        unsorted = d.copy()
        unsorted[[2, 5]] = unsorted[[5, 2]]
        cases.append((spectrum(unsorted), k, 1, lr0, z, steering))
        for last in (0.0, -0.0, -1e-15, -1.0, np.nan):
            cases.append((spectrum(np.append(d[:-1], last)), k, 1, lr0, z, steering))
        for s_bad in (np.ones(8), 2.0 * steering, np.append(steering[:-1], np.nan),
                      steering[:4], np.full(8, np.inf)):
            cases.append((eig, k, 1, lr0, z, s_bad))
        for lr0_bad in (0.0, -0.5, 1.5, np.nan):
            cases.append((eig, k, 1, lr0_bad, z, steering))
        cases.append((eig, 0, 1, lr0, z, steering))
        cases.append((spectrum([2.0]), k, 0, lr0, z[:1], steering_vector(1, 0.0)))
        assert isinstance(_outcome(select_rank_sigma, *good), JointSelection)
        for args in cases:
            raised = self._same(select_rank_sigma, select_rank_sigma_oracle, *args)
            assert raised[0] == "InputError"
        # n = 1 with a second fault: the core checks the dimension, after the
        # entry's own checks, so the second fault is the one reported
        for args, message in (
            ((spectrum([2.0]), k, 0, lr0, z[:1], steering[:1]),
             "steering must be a unit-norm length-n vector"),
            ((spectrum([2.0]), 0, 0, lr0, z, steering), "sample count k must be at least 1"),
            ((spectrum([2.0]), k, 0, 0.0, z, steering), "lr0 must lie in (0, 1]"),
        ):
            assert _outcome(select_rank_sigma, *args) == ("InputError", message)

    def _roots(self, d, r, lr0):
        """``sigma_el_roots`` against the oracle, except on a valid call whose
        tail or its sum is not finite: that raises its own error, where the
        oracle warned and then raised or returned an infinite noise power."""
        tail = np.asarray(d, dtype=float)[r:] if 0 <= r < len(d) else None
        if 0 < lr0 <= 1 and tail is not None and not (tail < 0).any():
            with np.errstate(over="ignore"):
                finite = float(tail.sum()) < math.inf
            if not finite:
                assert _outcome(sigma_el_roots, d, r, lr0) == (
                    "InputError", "trailing eigenvalues and their sum must be finite")
                return
        self._same(sigma_el_roots, sigma_el_roots_oracle, d, r, lr0)

    def test_noise_roots_on_edge_spectra(self, rng):
        for i in range(300):
            n = int(rng.integers(1, 33))
            d = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(1e3), n)))[::-1]
            kind = i % 6
            if kind == 1:
                d[-int(rng.integers(1, n + 1)):] = 0.0
            elif kind == 2:
                d[-1] = -float(rng.choice([1e-15, 1.0]))
            elif kind == 3:
                d[int(rng.integers(n))] = np.nan
            elif kind == 4:
                d[int(rng.integers(n))] = np.inf
            elif kind == 5:
                d = rng.permutation(d)
            for r in (int(rng.integers(n)), -1, n):
                for lr0 in (math.exp(-float(10 ** rng.uniform(-3.0, 2.5))), 1.0, 0.0, 2.0):
                    self._roots(d, r, lr0)
        # a ratio to the trailing mean that underflows to zero, or an overflowing sum
        for d in ([1e300, 1e-30], [1e308, 1e308, 1.0], [5.0, 1.0, -0.0], [-0.0, -0.0],
                  [np.inf, 1.0], [3.0, np.nan]):
            for lr0 in (1e-300, 0.5, 1.0):
                self._roots(d, 0, lr0)


class TestSelectKmax:
    def test_flat_case_returns_initial(self):
        stats = stats_from_spectrum([0.5, 0.3])
        sel = select_kmax(stats, 0.5)
        assert sel.kmax_hat == 1.0
        assert not sel.constraint_active
        assert sel.final_step == 0.0

    def test_plateau_reference_keeps_ml_value(self):
        # reference at or above the attainable maximum: stay at the ML bound
        stats = stats_from_spectrum([8.0, 2.0, 0.5])
        lr_top = math.exp(log_lr_value(np.maximum(stats.d, 1.0), stats.d))
        sel = select_kmax(stats, min(1.0, lr_top * 1.0))
        assert sel.kmax_hat == pytest.approx(8.0)
        assert sel.constraint_active
        assert sel.final_step < 1e-4

    def test_visited_lr_monotone_on_increasing_steps(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 9))
            hi = np.exp(rng.uniform(np.log(2.0), np.log(15.0), 2))
            lo = np.exp(rng.uniform(np.log(0.05), np.log(0.8), n - 2))
            d = np.sort(np.concatenate([hi, lo]))[::-1]
            stats = stats_from_spectrum(d)
            lr_bot = math.exp(log_lr_value(cncml(stats, 1.0).lambdas, d))
            lr0 = math.sqrt(lr_bot)
            sel = select_kmax(stats, lr0)
            pts = sorted(sel.visited)
            for (k1, lr1), (k2, lr2) in zip(pts, pts[1:]):
                if k2 > k1:
                    assert lr2 >= lr1 - 1e-10

    def test_rejects_bad_lr0(self):
        with pytest.raises(InputError):
            select_kmax(stats_from_spectrum([2.0, 1.0]), 1.5)

    @pytest.mark.parametrize("lr0", [1e-6, 0.3, 0.999])
    def test_estimate_is_built_at_kmax_hat(self, rng, lr0):
        d = np.sort(rng.gamma(1.5, 3.0, 10))[::-1]
        stats = stats_from_spectrum(d, sigma2=0.5)
        sel = select_kmax(stats, lr0)
        assert sel.estimate.constraints.kmax == sel.kmax_hat
        np.testing.assert_array_equal(sel.estimate.lambdas, cncml(stats, sel.kmax_hat).lambdas)

    def test_plateau_above_noise_floor_reaches_root(self):
        # d_N > sigma2: the LR is flat at 1 for kmax in [d_1/d_N, d_1/sigma2],
        # so the ML bound 8 has log LR 0 and the root lies below the plateau
        stats = stats_from_spectrum([8.0, 2.0, 1.5])
        sel = select_kmax(stats, 0.5)
        log_lr = log_lr_value(cncml(stats, sel.kmax_hat).lambdas, stats.d)
        assert sel.kmax_hat == pytest.approx(1.1668, abs=1e-4)
        assert abs(log_lr - math.log(0.5)) <= 1e-9
        assert sel.constraint_active
        assert sel.final_step <= 1e-9 * sel.kmax_hat


class TestSelectLoading:
    def test_zero_loading_is_unit_lr(self):
        stats = stats_from_spectrum([3.0, 1.0, 0.5])
        assert log_lr_value(stats.d + 0.0, stats.d) == 0.0

    def test_substitution(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 10))
            d = np.sort(rng.gamma(2.0, 2.0, n))[::-1] + 0.05
            stats = stats_from_spectrum(d)
            lr0 = float(rng.uniform(0.05, 0.95))
            beta = select_loading(stats, lr0)
            assert beta >= 0.0
            assert math.exp(log_lr_value(d + beta, d)) == pytest.approx(lr0, abs=1e-8)

    def test_monotone_decreasing_in_beta(self, rng):
        d = np.sort(rng.gamma(2.0, 2.0, 5))[::-1] + 0.05
        betas = np.linspace(0.0, 50.0, 200)
        vals = [log_lr_value(d + b, d) for b in betas]
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_singular_sample_raises(self):
        stats = stats_from_spectrum([2.0, 1.0, 0.0])
        with pytest.raises(NoRootError):
            select_loading(stats, 0.5)

    def test_rejects_degenerate_reference(self):
        stats = stats_from_spectrum([2.0, 1.0])
        with pytest.raises(InputError):
            select_loading(stats, 1.0)

    def test_log_domain_tolerance_at_n64(self):
        # lr0 = 1e-9 lies below any linear-domain tolerance of 1e-8, so the
        # match must be made on log lr
        n, k = 64, 128
        z = sample_training(np.eye(n, dtype=complex), k, derive_rng(64, "white"))
        stats = SampleStats.from_sample_covariance(sample_covariance(z), k, sigma2=1.0)
        beta = select_loading(stats, 1e-9)
        assert abs(log_lr_value(stats.d + beta, stats.d) - math.log(1e-9)) <= 1e-9


def _spectrum(rng, n, sigma2):
    """Random descending spectrum: spread, tied, above the floor, or flat."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        d = np.exp(rng.uniform(np.log(1e-3), np.log(1e4), n)) * sigma2
    elif kind == 1:
        d = rng.choice(np.exp(rng.uniform(np.log(0.05), np.log(1e3), 3)), n) * sigma2
    elif kind == 2:
        d = np.exp(rng.uniform(np.log(1.01), np.log(1e3), n)) * sigma2
    else:
        d = np.full(n, float(rng.uniform(0.1, 10.0)) * sigma2)
    return np.sort(d)[::-1]


def test_root_selectors_never_raise_and_stay_bounded(rng, monkeypatch):
    """Valid spectra (N = 2..256, ties, d_N on either side of sigma2) and lr0
    from 1e-300 to 1 - 1e-12: no error, at most 60 LR evaluations per call,
    and the LR matched; only a singular covariance raises, in loading.  The
    loading search evaluates the LR inline and reports its own count."""
    import elcov.selection as selection

    evals = [0]

    def counting(est_lambdas, sample_lambdas):
        evals[0] += 1
        return log_lr_value(est_lambdas, sample_lambdas)

    # counts any LR evaluation a selector makes through log_lr_value
    monkeypatch.setattr(selection, "log_lr_value", counting, raising=False)
    log_lr0s = [math.log(1e-300), math.log1p(-1e-12)] + list(
        -(10.0 ** rng.uniform(-12.0, math.log10(690.0), 298))
    )
    for i, log_lr0 in enumerate(log_lr0s):
        n = int(rng.integers(2, 257))
        sigma2 = float(rng.uniform(0.1, 10.0))
        d = _spectrum(rng, n, sigma2)
        stats = stats_from_spectrum(d, sigma2=sigma2)
        lr0 = math.exp(log_lr0)

        evals[0] = 0
        sel = select_kmax(stats, lr0)
        assert evals[0] <= 60
        k_ml = max(d[0] / sigma2, 1.0)
        assert 1.0 <= sel.kmax_hat <= k_ml * (1.0 + 1e-12)
        if 1.0 < sel.kmax_hat < k_ml:
            log_lr = log_lr_value(cncml(stats, sel.kmax_hat).lambdas, d)
            assert abs(log_lr - log_lr0) <= 1e-6

        evals[0] = 0
        beta = select_loading(stats, lr0)
        assert evals[0] <= 60
        (row_beta,), (row_evals,) = _loading_rows(d[np.newaxis], math.log(lr0))
        assert row_beta == beta
        assert 1 <= row_evals <= 60
        assert beta > 0.0
        assert abs(log_lr_value(d + beta, d) - log_lr0) <= 1e-9

        if i % 10 == 0:
            singular = stats_from_spectrum(np.concatenate([d[:-1], [0.0]]), sigma2=sigma2)
            select_kmax(singular, lr0)
            with pytest.raises(NoRootError):
                select_loading(singular, lr0)


def _outcome(fn, *args):
    """``fn(*args)``, or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _log_rows(lr0, b):
    """A core's ``log lr0`` argument for an ``lr0`` that is one float or a
    list of one per row, and each of the ``b`` rows' lr0."""
    if isinstance(lr0, float):
        return math.log(lr0), [lr0] * b
    return np.array([math.log(x) for x in lr0]), list(lr0)


class TestStackedCores:
    """The stacked rank, loading and condition-number cores return, row for
    row, exactly what the former one-spectrum code returns
    (``tests/conftest.py`` keeps it), whether the rows share one lr0 or each
    has its own."""

    def _stacks(self, rng, count):
        """``(d, sigma2, lr0s)``: ``(B, N)`` stacks of N = 2..256 (B = 1 in a
        quarter of them) mixing the kinds of ``_spectrum``, and lr0 from 1e-300
        to 1 - 1e-12, the last a list of those three, one per row."""
        for i in range(count):
            n = int(rng.integers(2, 257))
            b = 1 if i % 4 == 0 else int(rng.integers(2, 13))
            sigma2 = float(rng.uniform(0.1, 10.0))
            d = np.array([_spectrum(rng, n, sigma2) for _ in range(b)])
            if i % 10 == 5:
                d[-1, -1] = 0.0  # a singular row
            lr0s = [1e-300, 1.0 - 1e-12, math.exp(-(10.0 ** rng.uniform(-12.0, 2.8)))]
            yield d, sigma2, lr0s + [[float(lr0) for lr0 in rng.choice(lr0s, b)]]

    def test_rank_rows_match_scalar_oracle(self, rng):
        for d, sigma2, lr0s in self._stacks(rng, 80):
            for lr0 in lr0s + [1.0]:
                log_lr0, rows_lr0 = _log_rows(lr0, len(d))
                r_hat, log_lr, p = _rank_rows(d, sigma2, log_lr0)
                for i, (row, row_lr0) in enumerate(zip(d, rows_lr0)):
                    visited = list(enumerate(log_lr[i, : p[i] + 1].tolist()))
                    oracle = scalar_rank_oracle(row, sigma2, row_lr0)
                    assert repr((int(r_hat[i]), visited)) == repr(oracle)
                    if len(d) == 1:
                        sel = select_rank(stats_from_spectrum(row, sigma2=sigma2), row_lr0)
                        assert repr((sel.r_hat, sel.visited)) == repr(oracle)

    def test_loading_rows_match_scalar_oracle(self, rng):
        for d, sigma2, lr0s in self._stacks(rng, 80):
            for lr0 in lr0s:
                log_lr0, rows_lr0 = _log_rows(lr0, len(d))
                oracles = [_outcome(scalar_loading_oracle, row, x) for row, x in zip(d, rows_lr0)]
                got = _outcome(_loading_rows, d, log_lr0)
                failed = [out for out in oracles if not isinstance(out[0], float)]
                if failed:  # a stack raises the failure of one of its rows
                    assert got in failed
                else:
                    assert repr(list(zip(*got))) == repr(oracles)
                if len(d) == 1:
                    stats = stats_from_spectrum(d[0], sigma2=sigma2)
                    beta = _outcome(select_loading, stats, rows_lr0[0])
                    assert repr(beta) == repr(failed[0] if failed else oracles[0][0])

    def _cn_stacks(self, rng, count):
        """``_stacks`` with condition-number edge rows mixed in: spectra wholly
        at or below the noise floor, with several zero entries, tied at
        values whose reciprocals round (49, 3), or ending in tiny entries of
        either sign, as eigh returns for a singular sample covariance."""
        for i, (d, sigma2, lr0s) in enumerate(self._stacks(rng, count)):
            b, n = d.shape
            for row in rng.choice(b, int(rng.integers(0, b + 1)), replace=False):
                kind = int(rng.integers(0, 4))
                if kind == 0:
                    d[row] *= float(rng.uniform(0.05, 1.0)) * sigma2 / d[row, 0]
                elif kind == 1:
                    d[row, rng.integers(0, n, int(rng.integers(1, n + 1)))] = 0.0
                elif kind == 2:
                    d[row] = rng.choice([0.0, 1.0, 3.0, 49.0], n) * sigma2
                else:
                    tail = int(rng.integers(1, n))
                    d[row, -tail:] = rng.normal(0.0, 1e-12, tail) * sigma2
                d[row] = np.sort(d[row])[::-1]
            yield d, sigma2, lr0s

    def test_every_path_runs_from_k_ml_to_one(self, rng):
        """The invariant the table's lookup rests on: each spectrum's first row
        is at ``k_ml`` and its last at ``kmax = 1``, so every bound of at
        least 1 has a row at or under it; a spectrum at or under the noise
        floor has the one row at cell 0."""
        for d, sigma2, _ in self._cn_stacks(rng, 60):
            x = d / sigma2
            table = _CnTable(x)
            kmax = table.kmax.ravel()
            assert kmax.take(table.first).tobytes() == table.k_ml.tobytes()
            assert (kmax.take(table.last) == 1.0).all()
            low = x[:, 0] <= 1.0
            assert (table.valid[low].sum(axis=1) == 1).all() and table.valid[low, 0].all()

    def test_kmax_rows_match_scalar_oracle(self, rng):
        for stack, sigma2, lr0s in self._cn_stacks(rng, 60):
            # a stack with a negative entry raises; its other rows are
            # compared as a stack of their own
            negative = (stack < 0).any(axis=1)
            d = stack[~negative]
            for lr0 in lr0s + [1.0]:
                if negative.any():
                    with pytest.raises(InputError, match="sample eigenvalues must be non-negative"):
                        _kmax_rows(stack, sigma2, _log_rows(lr0, len(stack))[0])
                if not len(d):
                    continue
                if not isinstance(lr0, float):
                    lr0 = [x for x, neg in zip(lr0, negative) if not neg]
                log_lr0, rows_lr0 = _log_rows(lr0, len(d))
                sel = _kmax_rows(d, sigma2, log_lr0)
                table = sel.table
                for i, (row, row_lr0) in enumerate(zip(d, rows_lr0)):
                    # the table itself, down to the log prefix sums
                    path, cells = _CnPath(row / sigma2), table.valid[i]
                    assert table.kmax[i, cells].tobytes() == path.kmax.tobytes()
                    assert table.log_lr[i, cells].tobytes() == path.log_lr.tobytes()
                    assert table.top[i, cells].tolist() == path.top.tolist()
                    assert table.bottom[i, cells].tolist() == path.bottom.tolist()
                    assert table.switch[i] == path.switch
                    assert table.log_top[i].tobytes() == path.sums.log_top.tobytes()
                    assert table.log_bottom[i].tobytes() == path.sums.log_bottom.tobytes()
                    stats = stats_from_spectrum(row, sigma2=sigma2)
                    oracle = scalar_kmax_oracle(stats, row_lr0)
                    kmax_hat = float(sel.kmax_hat[i])
                    assert repr((kmax_hat, sel.final_step[i])) == repr(
                        (oracle.kmax_hat, oracle.final_step)
                    )
                    assert sel.lambdas[i].tobytes() == oracle.estimate.lambdas.tobytes()
                    assert sel.steps[i] > 0 or oracle.final_step == 0.0
                    # the log LR at the bound, wherever the oracle lists it
                    log_hat = dict(oracle.visited).get(kmax_hat)
                    if log_hat is not None and math.isfinite(log_hat):
                        assert abs(sel.log_lr[i] - log_hat) <= 1e-9
                    if len(d) == 1:
                        one = select_kmax(stats, row_lr0)
                        assert repr(
                            (one.kmax_hat, one.visited, one.final_step, one.constraint_active,
                             one.estimate.constraints)
                        ) == repr(
                            (oracle.kmax_hat, oracle.visited, oracle.final_step,
                             oracle.constraint_active, oracle.estimate.constraints)
                        )
                        assert one.estimate.lambdas.tobytes() == oracle.estimate.lambdas.tobytes()

    def test_table_logs_round_as_the_one_row_table(self, rng):
        """numpy can take a contiguous log (its SIMD loop) and a strided one
        (libm) a last bit apart.  The stacked table's log sums equal the one-row
        table's on such entries, placed as the largest and the smallest entry."""
        v = np.exp(rng.uniform(-7.0, 9.0, 200_000))
        split = v[np.log(v[::-1])[::-1] != np.log(v)][:30]
        assert len(split) > 0
        d = np.concatenate((split[:, np.newaxis] * [1.0, 0.5, 0.3, 0.2],
                            split[:, np.newaxis] * [7.0, 5.0, 3.0, 1.0]))
        table = _CnTable(d / 1.0)
        table.log_lr
        for i, row in enumerate(d):
            sums = _CnPath(row / 1.0).sums
            assert table.log_top[i].tobytes() == sums.log_top.tobytes()
            assert table.log_bottom[i].tobytes() == sums.log_bottom.tobytes()

    def test_cncml_rows_match_scalar_oracle(self, rng):
        for d, sigma2, _ in self._cn_stacks(rng, 60):
            x = d / sigma2
            bounds = [1.0, float(np.exp(rng.uniform(0.0, 10.0))), float(x[0, 0]), float(x[-1, 0]),
                      float(rng.choice(x[0]))]
            for kmax in [k for k in bounds if k >= 1.0]:
                lambdas, columns = _cncml_rows(d, sigma2, kmax)
                assert [len(column) for column in columns.values()] == [len(d)] * len(columns)
                for i, row in enumerate(d):
                    stats = stats_from_spectrum(row, sigma2=sigma2)
                    oracle = scalar_cncml_oracle(stats, kmax)
                    assert lambdas[i].tobytes() == oracle.lambdas.tobytes()
                    row_constraints = {name: column[i] for name, column in columns.items()}
                    assert repr(ConstraintRecord(**row_constraints)) == repr(oracle.constraints)
                    if len(d) == 1:
                        res = cncml_u_star(stats, kmax)
                        o_case, o_u, o_p, o_c = scalar_cn_solution_oracle(stats, kmax)
                        assert repr((res.case_id, res.u_star, res.p, stats.n - res.q)) == repr(
                            (o_case, float(o_u), o_p, o_c)
                        )
                        assert cncml(stats, kmax).lambdas.tobytes() == oracle.lambdas.tobytes()


def illinois_kmax(stats, lr0):
    """Oracle: the former root search on ``log kmax``, one estimate per point.

    Illinois regula falsi, each point projected toward the bracket midpoint
    so that a relative bracket of 1e-9 is reached within
    ``ceil(log2(log k_ml / 1e-9)) + 6`` steps; returns the evaluated bound
    with the smallest log-LR mismatch.
    """
    xtol, d, log_lr0 = 1e-9, stats.d, math.log(lr0)
    k_ml = max(float(d[0] / stats.sigma2), 1.0)

    def mismatch(km):
        return log_lr_value(cncml(stats, km).lambdas, d) - log_lr0, km

    fb, _ = top = mismatch(k_ml)
    if fb <= 0.0 or d[0] <= stats.sigma2:
        return k_ml
    fa, _ = bottom = mismatch(1.0)
    if fa >= 0.0:
        return 1.0
    a, b, last = 0.0, math.log(k_ml), 0.0
    best = bottom if -fa <= fb else top
    n_max = math.ceil(math.log2(b / xtol)) + 6
    for j in range(n_max):
        if b - a <= xtol:
            break
        mid = 0.5 * (a + b)
        r = xtol * 2.0 ** (n_max - j - 1) - 0.5 * (b - a)
        c = min(max((a * fb - b * fa) / (fb - fa), mid - r), mid + r)
        point = mismatch(math.exp(c))
        fc = point[0]
        if abs(fc) < abs(best[0]):
            best = point
        if fc < 0.0:
            a, fa, fb = c, fc, fb * (0.5 if last < 0.0 else 1.0)
        else:
            b, fb, fa = c, fc, fa * (0.5 if last > 0.0 else 1.0)
        last = fc
    return best[1]


def _interior_lr0(rng, stats):
    """A reference strictly between the LR at kmax = 1 and at k_ml, or None
    when that range is rounding noise (a flat spectrum) or underflows lr0."""
    k_ml = max(float(stats.d[0] / stats.sigma2), 1.0)
    lo = max(log_lr_value(cncml(stats, 1.0).lambdas, stats.d), -700.0)
    hi = log_lr_value(cncml(stats, k_ml).lambdas, stats.d)
    if not hi - lo > 1e-9:
        return None
    return math.exp(lo + float(rng.uniform(0.02, 0.98)) * (hi - lo))


class TestKmaxPath:
    def test_breakpoints_match_estimate_lr_and_fall_with_kmax(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 257))
            sigma2 = float(rng.uniform(0.1, 10.0))
            d = _spectrum(rng, n, sigma2)
            stats = stats_from_spectrum(d, sigma2=sigma2)
            dbar = d / sigma2
            table = _CnTable(dbar[np.newaxis])
            kmaxes, log_lr = table.kmax[0, table.valid[0]], table.log_lr[0, table.valid[0]]
            assert kmaxes[0] == max(dbar[0], 1.0)
            assert kmaxes[-1] == 1.0
            assert np.all(np.diff(kmaxes) <= 0.0)
            # an independent estimate at every breakpoint: the bisected u*, or
            # u = 1/kmax where dbar_1 <= kmax and the cap map gives max(dbar, 1)
            _, u = bisect_u_oracle(dbar, kmaxes)
            u = np.where(dbar[0] <= kmaxes, 1.0 / kmaxes, u)
            for km, u_km, val in zip(kmaxes.tolist(), u.tolist(), log_lr.tolist()):
                lam = sigma2 / cn_lambda_map(u_km, dbar, km)
                assert abs(val - log_lr_value(lam, d)) <= 1e-9
            assert np.all(np.diff(log_lr) <= 1e-9)

    def test_matches_illinois_oracle_on_random_spectra(self, rng):
        roots = 0
        while roots < 2000:
            n = int(rng.integers(2, 65))
            sigma2 = float(rng.uniform(0.1, 10.0))
            stats = stats_from_spectrum(_spectrum(rng, n, sigma2), sigma2=sigma2)
            lr0 = _interior_lr0(rng, stats)
            if lr0 is None:
                continue
            assert select_kmax(stats, lr0).kmax_hat == pytest.approx(
                illinois_kmax(stats, lr0), rel=1e-9
            )
            roots += 1

    @pytest.mark.parametrize("k", [20, 30, 40])
    def test_matches_illinois_oracle_on_reference_scenario(self, k):
        scenario = reference_scenario()
        lr0 = lr0_reference(scenario.n, k, trials=4000, seed=5).lr0
        r_true = jammer_covariance(scenario)
        for t in range(100):
            z = generate_training(r_true, k, None, derive_rng(31, "kmax-oracle", k, t)).z
            stats = SampleStats.from_sample_covariance(sample_covariance(z), k, 1.0)
            assert select_kmax(stats, lr0).kmax_hat == pytest.approx(
                illinois_kmax(stats, lr0), rel=1e-9
            )

    def test_estimate_equals_cncml_at_kmax_hat_on_random_spectra(self, rng):
        """The selector's estimate and cncml at the selected bound read the same
        table row, so they agree bit for bit (closed-form returns included)."""
        for _ in range(300):
            n = int(rng.integers(2, 129))
            sigma2 = float(rng.uniform(0.1, 10.0))
            stats = stats_from_spectrum(_spectrum(rng, n, sigma2), sigma2=sigma2)
            for lr0 in (1e-300, 1.0, _interior_lr0(rng, stats) or 0.5):
                sel = select_kmax(stats, lr0)
                lam = cncml(stats, sel.kmax_hat).lambdas
                np.testing.assert_array_equal(sel.estimate.lambdas, lam)

    @pytest.mark.parametrize("k", [20, 40])
    def test_estimate_equals_cncml_at_kmax_hat_on_reference_scenario(self, k):
        scenario = reference_scenario()
        lr0 = lr0_reference(scenario.n, k, trials=4000, seed=5).lr0
        r_true = jammer_covariance(scenario)
        for t in range(100):
            z = generate_training(r_true, k, None, derive_rng(37, "kmax-cncml", k, t)).z
            stats = SampleStats.from_sample_covariance(sample_covariance(z), k, 1.0)
            sel = select_kmax(stats, lr0)
            np.testing.assert_array_equal(sel.estimate.lambdas, cncml(stats, sel.kmax_hat).lambdas)

    def test_one_estimate_and_no_lr_evaluation_per_call(self, rng, monkeypatch):
        import elcov.estimators as estimators
        import elcov.selection as selection

        calls = {"estimate": 0, "cn_table": 0, "log_lr_value": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        # the estimate comes from the shared cap map, and every CN solve reads
        # a table: one table per call means no second CN solve
        estimate, table = estimators._cn_caps, counted("cn_table", estimators._CnTable)
        monkeypatch.setattr(selection, "_cn_caps", counted("estimate", estimate))
        monkeypatch.setattr(selection, "_CnTable", table)
        monkeypatch.setattr(estimators, "_CnTable", table)
        monkeypatch.setattr(
            selection, "log_lr_value", counted("log_lr_value", log_lr_value), raising=False
        )
        for lr0 in (1e-12, 0.3, 1.0):
            for _ in range(20):
                n = int(rng.integers(2, 65))
                stats = stats_from_spectrum(_spectrum(rng, n, 1.0))
                calls.update(estimate=0, cn_table=0, log_lr_value=0)
                select_kmax(stats, lr0)
                assert calls == {"estimate": 1, "cn_table": 1, "log_lr_value": 0}

    def test_visited_is_the_path_plus_the_root(self, rng):
        d = np.sort(rng.gamma(1.5, 3.0, 12))[::-1]
        stats = stats_from_spectrum(d, sigma2=0.5)
        lr0 = _interior_lr0(rng, stats)
        sel = select_kmax(stats, lr0)
        table = _CnTable((d / 0.5)[np.newaxis])
        kmaxes = [k for k, _ in sel.visited]
        assert kmaxes == sorted(kmaxes, reverse=True)
        assert sorted(set(kmaxes) - set(table.kmax[0, table.valid[0]].tolist())) == [sel.kmax_hat]
        assert dict(sel.visited)[sel.kmax_hat] == pytest.approx(math.log(lr0), abs=1e-9)
        assert 0.0 < sel.final_step <= 1e-9 * sel.kmax_hat


def _lr0_entries():
    """Every public entry that takes lr0, as ``name -> call(lr0)``, on one
    well-posed N = 4, K = 8 draw: the five selectors and ``build_estimate``
    for each estimator."""
    z = sample_training(np.eye(4), 8, np.random.default_rng(5))
    stats = SampleStats.from_sample_covariance(sample_covariance(z), k=8, sigma2=0.5)
    steering = steering_vector(4, 0.0)
    params = {"RCML_FIXED": 1.0, "CNCML_FIXED": 4.0}
    entries = {
        "select_rank": lambda lr0: select_rank(stats, lr0),
        "select_kmax": lambda lr0: select_kmax(stats, lr0),
        "select_loading": lambda lr0: select_loading(stats, lr0),
        "sigma_el_roots": lambda lr0: sigma_el_roots(stats.d, 1, lr0),
        "select_rank_sigma": lambda lr0: select_rank_sigma(stats.s_eig, 8, 1, lr0, z, steering),
    }
    for name in _ESTIMATORS:
        spec = EstimatorSpec(name, params.get(name))
        entries[f"build_estimate-{name}"] = functools.partial(
            build_estimate, spec, stats, joint=(1, z, steering)
        )
    return entries


_LR0_ENTRIES = _lr0_entries()


class TestLr0CheckedWhereItEnters:
    """lr0 is checked once, by each public entry; the cores trust its log."""

    @pytest.mark.parametrize("lr0", [0.0, -0.5, 1.5, math.nan, math.inf])
    @pytest.mark.parametrize("entry", list(_LR0_ENTRIES))
    def test_lr0_outside_unit_interval_is_input_error(self, entry, lr0):
        with pytest.raises(InputError, match=r"^lr0 must lie in \(0, 1\]$"):
            _LR0_ENTRIES[entry](lr0)

    @pytest.mark.parametrize("entry", ["select_loading", "build_estimate-LSMI_EL"])
    def test_loading_at_lr0_one_keeps_the_strict_interior_message(self, entry):
        with pytest.raises(InputError, match=r"strictly inside \(0, 1\) for loading selection"):
            _LR0_ENTRIES[entry](1.0)

    @pytest.mark.parametrize(
        "entry", [e for e in _LR0_ENTRIES if e not in ("select_loading", "build_estimate-LSMI_EL")]
    )
    def test_lr0_one_is_accepted(self, entry):
        _LR0_ENTRIES[entry](1.0)
