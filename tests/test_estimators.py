import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bisect_u_oracle,
    cn_lambda_map,
    cn_objective_grid,
    cncml_objective,
    stats_from_spectrum,
)
from elcov import (
    CnCase,
    InputError,
    cncml,
    cncml_u_star,
    condition_number,
    fml,
    log_lr_value,
    lsmi,
    rcml,
    smi,
)


class TestSampleStats:
    def test_rejects_exactly_the_spectra_with_a_rise(self, rng):
        # the order check rejects what the former np.any(np.diff(d) > 0) did,
        # non-finite and tied entries included
        pool = [3.0, 1.0, 1.0, 0.0, -0.0, -2.0, np.inf, -np.inf, np.nan, 5e-324, 1e308]
        for _ in range(2000):
            d = rng.choice(pool, int(rng.integers(1, 6)))
            if rng.integers(2):
                d = np.sort(d)[::-1]
            with np.errstate(invalid="ignore"):  # inf - inf
                rises = bool(np.any(np.diff(d) > 0))
            try:
                stats_from_spectrum(d)
            except InputError as exc:
                assert rises and str(exc) == "sample eigenvalues must be sorted descending"
            else:
                assert not rises


class TestSmi:
    def test_identity_map(self):
        stats = stats_from_spectrum([3.0, 1.0, 0.2])
        assert np.array_equal(smi(stats).lambdas, [3.0, 1.0, 0.2])

    def test_preserves_zeros(self):
        stats = stats_from_spectrum([3.0, 1.0, 0.0, 0.0])
        assert np.array_equal(smi(stats).lambdas, [3.0, 1.0, 0.0, 0.0])

    def test_lr_is_one(self):
        stats = stats_from_spectrum([4.0, 2.0, 0.5])
        est = smi(stats)
        assert math.exp(log_lr_value(est.lambdas, stats.d)) == pytest.approx(1.0, abs=1e-12)


class TestFml:
    def test_clips_at_floor(self):
        stats = stats_from_spectrum([5.0, 0.8, 0.5])
        est = fml(stats)
        assert np.array_equal(est.lambdas, [5.0, 1.0, 1.0])
        assert est.constraints.r == 1

    def test_all_below_floor(self):
        stats = stats_from_spectrum([0.8, 0.5, 0.1])
        est = fml(stats)
        assert np.array_equal(est.lambdas, [1.0, 1.0, 1.0])
        assert est.constraints.r == 0

    def test_all_above_floor(self):
        stats = stats_from_spectrum([5.0, 3.0, 2.0])
        assert np.array_equal(fml(stats).lambdas, [5.0, 3.0, 2.0])

    def test_equals_rcml_at_implied_rank(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 10))
            d = np.sort(rng.gamma(2.0, 2.0, n))[::-1]
            stats = stats_from_spectrum(d, sigma2=float(rng.uniform(0.2, 3.0)))
            implied = int(np.count_nonzero(d > stats.sigma2))
            assert np.array_equal(fml(stats).lambdas, rcml(stats, implied).lambdas)


class TestRcml:
    def test_profile(self):
        stats = stats_from_spectrum([5.0, 3.0, 0.5, 0.2])
        assert np.array_equal(rcml(stats, 2).lambdas, [5.0, 3.0, 1.0, 1.0])

    def test_clipping_makes_ranks_agree(self):
        stats = stats_from_spectrum([5.0, 3.0, 0.5, 0.2])
        assert np.array_equal(rcml(stats, 3).lambdas, rcml(stats, 2).lambdas)

    def test_full_rank_identity(self):
        stats = stats_from_spectrum([5.0, 3.0, 2.0, 1.5])
        assert np.array_equal(rcml(stats, 4).lambdas, stats.d)

    def test_rank_zero_scaled_identity(self):
        stats = stats_from_spectrum([5.0, 3.0], sigma2=0.7)
        assert np.array_equal(rcml(stats, 0).lambdas, [0.7, 0.7])

    def test_rejects_out_of_range(self):
        stats = stats_from_spectrum([2.0, 1.0])
        with pytest.raises(InputError):
            rcml(stats, 3)
        with pytest.raises(InputError):
            rcml(stats, -1)

    def test_nesting(self, rng):
        # lower-rank profiles agree with higher-rank ones on the kept head
        for _ in range(30):
            n = int(rng.integers(2, 12))
            d = np.sort(rng.gamma(2.0, 2.0, n))[::-1]
            stats = stats_from_spectrum(d, sigma2=float(rng.uniform(0.2, 3.0)))
            i, j = sorted(rng.integers(0, n + 1, size=2))
            li, lj = rcml(stats, int(i)).lambdas, rcml(stats, int(j)).lambdas
            assert np.array_equal(li[: int(i)], lj[: int(i)])
            below = stats.d < stats.sigma2
            assert np.array_equal(li[below], lj[below])


class TestCnCaseSplit:
    def test_scaled_identity_case(self):
        stats = stats_from_spectrum([0.5, 0.3])
        res = cncml_u_star(stats, 7.0)
        assert res.case_id is CnCase.SCALED_IDENTITY
        assert res.u_star == pytest.approx(1.0 / 7.0)
        est = cncml(stats, 7.0)
        assert np.array_equal(est.lambdas, [1.0, 1.0])
        assert condition_number(est) == 1.0

    def test_fml_equivalent_case(self):
        stats = stats_from_spectrum([10.0, 5.0, 0.5])
        res = cncml_u_star(stats, 20.0)
        assert res.case_id is CnCase.FML_EQUIVALENT
        assert res.u_star == pytest.approx(0.1)
        est = cncml(stats, 20.0)
        assert np.array_equal(est.lambdas, fml(stats).lambdas)
        assert np.array_equal(est.lambdas, [10.0, 5.0, 1.0])

    def test_boundary_tie_resolves_to_fml(self):
        stats = stats_from_spectrum([4.0, 0.5])
        assert cncml_u_star(stats, 4.0).case_id is CnCase.FML_EQUIVALENT

    def test_interior_case_matches_grid(self):
        stats = stats_from_spectrum([10.0, 5.0, 0.5])
        res = cncml_u_star(stats, 4.0)
        assert res.case_id is CnCase.INTERIOR_U
        u_grid, val_grid = cn_objective_grid(stats.d, 4.0)
        assert res.u_star == pytest.approx(u_grid, abs=1e-5)
        est = cncml(stats, 4.0)
        assert condition_number(est) == pytest.approx(4.0, abs=1e-9)
        lam_grid = 1.0 / cn_lambda_map(u_grid, stats.d, 4.0)
        assert np.max(np.abs(est.lambdas - lam_grid) / lam_grid) <= 1e-4

    def test_interior_one_ulp_below_boundary_threshold(self):
        # the boundary case starts at kmax = 42.61083743842364; one ulp below
        # it every breakpoint slope can round negative, and the root is 1/kmax
        stats = stats_from_spectrum([86.5, 3.36, 1.97, 0.73, 0.24])
        threshold = 42.61083743842364
        kmax = math.nextafter(threshold, 0.0)
        assert cncml_u_star(stats, threshold).case_id is CnCase.BOUNDARY_U
        res = cncml_u_star(stats, kmax)
        assert res.case_id is CnCase.INTERIOR_U
        assert res.u_star == pytest.approx(1.0 / kmax, rel=1e-12)
        at_bound = cncml_objective(1.0 / kmax, stats.d, kmax)
        assert cncml_objective(res.u_star, stats.d, kmax) <= at_bound + 1e-12
        log_lr = log_lr_value(cncml(stats, kmax).lambdas, stats.d)
        assert log_lr == pytest.approx(
            log_lr_value(cncml(stats, threshold).lambdas, stats.d), abs=1e-9
        )

    def test_rejects_bad_kmax(self):
        stats = stats_from_spectrum([2.0, 1.0])
        with pytest.raises(InputError):
            cncml_u_star(stats, 0.5)


class TestCnRandomized:
    def test_objective_not_above_grid_minimum(self, rng):
        # 100 random spectra: closed form attains the grid minimum
        for _ in range(100):
            n = int(rng.integers(2, 9))
            d = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(40.0), n)))[::-1]
            kmax = float(np.exp(rng.uniform(np.log(1.2), np.log(20.0))))
            stats = stats_from_spectrum(d)
            res = cncml_u_star(stats, kmax)
            _, val_grid = cn_objective_grid(d, kmax, step=1e-4)
            assert cncml_objective(res.u_star, d, kmax) <= val_grid + 1e-8

    def test_condition_number_by_case(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            d = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(40.0), n)))[::-1]
            kmax = float(np.exp(rng.uniform(np.log(1.2), np.log(20.0))))
            stats = stats_from_spectrum(d, sigma2=float(rng.uniform(0.3, 2.0)))
            res = cncml_u_star(stats, kmax)
            est = cncml(stats, kmax)
            cond = condition_number(est)
            if res.case_id is CnCase.SCALED_IDENTITY:
                assert cond == pytest.approx(1.0, abs=1e-12)
            elif res.case_id is CnCase.FML_EQUIVALENT:
                assert np.array_equal(est.lambdas, np.maximum(d, stats.sigma2))
                # d1/sigma2 when the bottom is floored, d1/dN otherwise
                expected = d[0] / max(d[-1], stats.sigma2)
                assert cond == pytest.approx(expected, rel=1e-12)
            else:
                # the bound is met exactly whenever the lower cap is active
                lower_cap_active = (
                    res.nbar < n if res.case_id is CnCase.BOUNDARY_U else res.q < n
                )
                if lower_cap_active:
                    assert cond == pytest.approx(kmax, abs=1e-9)
            assert cond <= kmax + 1e-9
            assert np.all(np.diff(est.lambdas) <= 1e-12)
            assert np.all(est.lambdas >= stats.sigma2 - 1e-12)

    def test_case_profiles_equal_unified_cap_formula(self, rng):
        # the per-case eigenvalue profiles must agree with evaluating the
        # single min/max cap map at the optimal u
        for _ in range(100):
            n = int(rng.integers(2, 9))
            d = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(40.0), n)))[::-1]
            sigma2 = float(rng.uniform(0.3, 2.0))
            kmax = float(np.exp(rng.uniform(np.log(1.2), np.log(20.0))))
            stats = stats_from_spectrum(d, sigma2=sigma2)
            res = cncml_u_star(stats, kmax)
            unified = sigma2 / cn_lambda_map(res.u_star, d / sigma2, kmax)
            est = cncml(stats, kmax)
            assert np.max(np.abs(est.lambdas - unified) / unified) <= 1e-9

    def test_u_star_monotone_in_kmax(self, rng):
        # in the interior case the optimal u shrinks as the bound loosens
        for _ in range(30):
            n = int(rng.integers(3, 8))
            d = np.sort(np.exp(rng.uniform(np.log(0.1), np.log(30.0), n)))[::-1]
            d[0] = max(d[0], 8.0)
            stats = stats_from_spectrum(d)
            kmaxes = np.linspace(1.5, d[0] * 0.9, 12)
            us = [cncml_u_star(stats, float(k)).u_star for k in kmaxes]
            interior = [
                cncml_u_star(stats, float(k)).case_id is CnCase.INTERIOR_U for k in kmaxes
            ]
            for (u1, u2, i1, i2) in zip(us, us[1:], interior, interior[1:]):
                if i1 and i2:
                    assert u2 <= u1 + 1e-12


@pytest.mark.parametrize("n", [20, 64, 128, 256])
def test_interior_u_matches_bisection_oracle_at_large_n(rng, n):
    pinned = 0
    for i in range(60):
        sigma2 = float(rng.uniform(0.3, 3.0))
        if i % 4 == 0:
            # every dbar_i above dbar_1/kmax: no lower cap, root pinned at 1/dbar_1
            kmax = float(rng.uniform(1.5, 20.0))
            top = float(np.exp(rng.uniform(np.log(2.0 * kmax), np.log(1e4))))
            dbar = np.concatenate([[top], rng.uniform(1.01 * top / kmax, top, n - 1)])
        else:
            n_hi = int(rng.integers(1, 8))
            head = np.exp(rng.uniform(np.log(2.0), np.log(1e5), n_hi))
            tail = rng.gamma(4.0, 0.25, n - n_hi)
            dbar = np.concatenate([head, tail])
            kmax = float(np.exp(rng.uniform(np.log(1.2), np.log(dbar.max()))))
        dbar = np.sort(dbar)[::-1]
        stats = stats_from_spectrum(dbar * sigma2, sigma2=sigma2)
        res = cncml_u_star(stats, kmax)
        case, u_oracle = bisect_u_oracle(stats.d / sigma2, kmax)
        assert res.case_id is case
        dbar = stats.d / sigma2
        val_oracle = cncml_objective(u_oracle, dbar, kmax)
        assert cncml_objective(res.u_star, dbar, kmax) <= val_oracle + 1e-12 * abs(val_oracle)
        lam_oracle = sigma2 / cn_lambda_map(u_oracle, dbar, kmax)
        lam = cncml(stats, kmax).lambdas
        assert np.max(np.abs(lam - lam_oracle) / lam_oracle) <= 1e-9
        pinned += res.u_star == 1.0 / dbar[0]
    assert pinned >= 10


def test_interior_u_just_below_boundary_threshold(rng):
    """One to three ulps below the kmax where the boundary case takes over,
    the interior root must stay next to ``1/kmax``, not fall back to the
    first breakpoint segment."""
    probes = 0
    for _ in range(300):
        n = int(rng.integers(3, 40))
        n_hi = int(rng.integers(1, n))
        head = np.exp(rng.uniform(np.log(2.0), np.log(1e3), n_hi))
        dbar = np.sort(np.concatenate([head, rng.uniform(0.05, 0.95, n - n_hi)]))[::-1]
        h1 = float(np.sum(1.0 - dbar[n_hi:]))
        thresholds = [np.sum(dbar[:p]) / (p + h1) for p in range(1, n_hi + 1)]
        ok = [t for p, t in enumerate(thresholds, 1) if dbar[p] <= t < dbar[p - 1] and t >= 1.0]
        if not ok:
            continue
        stats = stats_from_spectrum(dbar)
        kmax = float(ok[0])
        for _ in range(3):
            kmax = math.nextafter(kmax, 0.0)
            res = cncml_u_star(stats, kmax)
            if res.case_id is CnCase.INTERIOR_U:
                assert res.u_star * kmax == pytest.approx(1.0, rel=1e-9)
                probes += 1
    assert probes >= 100


def test_zero_entries_match_bisection_oracle(rng):
    """Spectra with zero entries.  Where the zeros are the only entries below
    the floor, the breakpoint of the smallest positive entry lies on the same
    ``s = h(1)`` as the boundary/interior switch; the estimate under the
    switch must still clip that entry only once ``tau`` reaches it."""
    interior = 0
    for i in range(200):
        n = int(rng.integers(3, 40))
        zeros = int(rng.integers(1, n - 1))
        low = 1.01 if i % 4 else 0.05  # mostly: every positive entry above the floor
        positive = np.exp(rng.uniform(np.log([2.0] + [low] * (n - zeros - 1)), np.log(1e3)))
        dbar = np.sort(np.concatenate([positive, np.zeros(zeros)]))[::-1]
        sigma2 = float(rng.uniform(0.3, 3.0))
        stats = stats_from_spectrum(dbar * sigma2, sigma2=sigma2)
        dbar = stats.d / sigma2
        kmaxes = np.exp(rng.uniform(0.0, np.log(dbar[0]), 20))
        cases, u_oracle = bisect_u_oracle(dbar, kmaxes)
        for kmax, case, u in zip(kmaxes.tolist(), cases, u_oracle.tolist()):
            res = cncml_u_star(stats, kmax)
            assert res.case_id is case
            assert res.u_star == pytest.approx(u, rel=1e-9)
            lam_oracle = sigma2 / cn_lambda_map(u, dbar, kmax)
            lam = cncml(stats, kmax).lambdas
            assert np.max(np.abs(lam - lam_oracle) / lam_oracle) <= 1e-9
            interior += case is CnCase.INTERIOR_U
    assert interior >= 1000


@pytest.mark.parametrize("sigma2", [math.inf, math.nan, 0.0])
def test_sample_stats_rejects_noise_power_not_positive_and_finite(sigma2):
    with pytest.raises(InputError, match="sigma2"):
        stats_from_spectrum([2.0, 1.0], sigma2=sigma2)


class TestLsmi:
    def test_adds_loading(self):
        stats = stats_from_spectrum([3.0, 1.0])
        assert np.array_equal(lsmi(stats, 0.5).lambdas, [3.5, 1.5])

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            lsmi(stats_from_spectrum([1.0]), -0.1)


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(smi(stats_from_spectrum([2.0, 2.0]))) == 1.0

    def test_simple_ratio(self):
        assert condition_number(smi(stats_from_spectrum([8.0, 2.0]))) == 4.0

    def test_rejects_zero_eigenvalue(self):
        with pytest.raises(InputError):
            condition_number(smi(stats_from_spectrum([1.0, 0.0])))


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8),
    sigma2=st.floats(min_value=1e-2, max_value=10.0),
    kmax=st.floats(min_value=1.0, max_value=50.0),
)
def test_estimator_outputs_are_valid(data, sigma2, kmax):
    d = np.sort(np.asarray(data))[::-1]
    stats = stats_from_spectrum(d, sigma2=sigma2)
    for est in (fml(stats), rcml(stats, len(d) // 2), cncml(stats, kmax)):
        assert np.all(np.diff(est.lambdas) <= 1e-12)
        assert np.all(est.lambdas >= sigma2 - 1e-12)
    assert condition_number(cncml(stats, kmax)) <= kmax + 1e-9
