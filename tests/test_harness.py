import csv

import numpy as np
import pytest

import elcov.harness as harness
import elcov.scenario as scenario_module
from conftest import (
    random_hermitian,
    random_psd,
    reference_scenario,
    scalar_cncml_oracle,
    scalar_kmax_oracle,
    scalar_loading_oracle,
    scalar_rank_oracle,
    select_rank_sigma_oracle,
)
from elcov import (
    CorruptionSpec,
    CovarianceEstimate,
    EigenDecomposition,
    EstimatorSpec,
    ExperimentConfig,
    InputError,
    NoRootError,
    SampleStats,
    ScenarioConfig,
    SingularMatrixError,
    cncml,
    default_steering_grid,
    derive_rng,
    eig_hermitian,
    fml,
    jammer_covariance,
    load_experiment_config,
    lr0_load,
    lsmi,
    normalized_sinr,
    rcml,
    run_experiment,
    sample_covariance,
    sample_training,
    smi,
    sqrt_factor,
    steering_vector,
)
from elcov.cli import cli
from elcov.harness import _eigenbasis_projections, _sinr_scorer, build_estimate
from elcov.metrics import apply_inverse
from elcov.scenario import draw_training


def noise_only_config(tmp_path, **overrides):
    base = dict(
        scenario=ScenarioConfig(n=4, noise_power=1.0),
        k_list=(4,),
        trials=1,
        master_seed=1,
        estimators=(EstimatorSpec.parse("SMI"),),
        output_path=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestEstimatorSpec:
    def test_parses_plain(self):
        assert EstimatorSpec.parse(" fml ") == EstimatorSpec("FML")

    def test_parses_parameterized(self):
        spec = EstimatorSpec.parse("RCML_FIXED(5)")
        assert spec == EstimatorSpec("RCML_FIXED", 5.0)
        assert str(spec) == "RCML_FIXED(5)"

    def test_rejects_unknown_and_malformed(self):
        with pytest.raises(InputError):
            EstimatorSpec.parse("NOPE")
        with pytest.raises(InputError):
            EstimatorSpec.parse("RCML_FIXED")
        with pytest.raises(InputError):
            EstimatorSpec.parse("SMI(3)")

    @pytest.mark.parametrize("rank", ["2.7", "1e400", "-inf", "nan"])
    def test_rejects_non_integer_and_non_finite_rank(self, rank):
        with pytest.raises(InputError, match="whole number"):
            EstimatorSpec.parse(f"RCML_FIXED({rank})")

    def test_accepts_integer_valued_rank(self):
        assert EstimatorSpec.parse("RCML_FIXED(5.0)") == EstimatorSpec("RCML_FIXED", 5.0)


class TestSteeringGrid:
    def test_default_19_when_unobstructed(self):
        grid = default_steering_grid(ScenarioConfig(n=4, noise_power=1.0))
        assert len(grid) == 19
        assert grid[0] == -90.0 and grid[-1] == 90.0

    def test_excludes_jammer_directions(self):
        cfg = ScenarioConfig(n=8, jammer_powers=(10.0,), jammer_angles=(20.0,),
                             jammer_bandwidths=(0.0,), noise_power=1.0)
        grid = default_steering_grid(cfg)
        assert 20.0 not in grid and len(grid) == 18

    def test_excludes_equivalent_arrivals_in_radian_mode(self):
        grid = default_steering_grid(reference_scenario())
        # the strongest jammer's phase maps back to about 19.5 degrees
        assert 20.0 not in grid


class TestRunExperiment:
    def test_smoke_noise_only(self, tmp_path):
        cfg = noise_only_config(tmp_path)
        records = run_experiment(cfg)
        assert len(records) == 1
        rec = records[0]
        assert rec.estimator == "SMI"
        assert rec.sinr_db <= 1e-9
        assert (tmp_path / "out" / "trials.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_all_records_bounded(self, tmp_path):
        cfg = noise_only_config(
            tmp_path,
            scenario=ScenarioConfig(n=4, jammer_powers=(20.0,), jammer_angles=(10.0,),
                                    jammer_bandwidths=(0.0,), noise_power=1.0),
            k_list=(4, 8),
            trials=5,
            estimators=(EstimatorSpec.parse("SMI"), EstimatorSpec.parse("FML")),
        )
        records = run_experiment(cfg)
        assert len(records) == 2 * 5 * 2
        assert all(rec.sinr_db <= 1e-9 for rec in records)
        assert all(rec.wall_time >= 0.0 for rec in records)

    def test_constraints_recorded(self, tmp_path):
        cfg = noise_only_config(
            tmp_path,
            k_list=(8,),
            estimators=(
                EstimatorSpec.parse("RCML_FIXED(2)"),
                EstimatorSpec.parse("CNCML_ML"),
                EstimatorSpec.parse("LSMI_EL"),
            ),
            lr0_table_path=str(tmp_path / "lr0.txt"),
        )
        records = run_experiment(cfg)
        by_est = {rec.estimator: rec for rec in records}
        assert by_est["RCML_FIXED(2)"].r_hat == 2
        assert by_est["CNCML_ML"].kmax_hat >= 1.0
        assert by_est["LSMI_EL"].beta_hat >= 0.0

    def test_selector_estimators_end_to_end(self, tmp_path):
        scenario = ScenarioConfig(n=6, jammer_powers=(40.0, 150.0), jammer_angles=(10.0, -35.0),
                                  jammer_bandwidths=(0.0, 0.1), noise_power=1.0)
        cfg = noise_only_config(
            tmp_path,
            scenario=scenario,
            k_list=(12,),
            trials=3,
            estimators=(
                EstimatorSpec.parse("RCML_EL"),
                EstimatorSpec.parse("RCML_EL_SIGMA"),
                EstimatorSpec.parse("CNCML_EL"),
            ),
            lr0_table_path=str(tmp_path / "lr0.txt"),
            r_init=2,
        )
        records = run_experiment(cfg)
        assert len(records) == 9
        by_est = {}
        for rec in records:
            by_est.setdefault(rec.estimator, []).append(rec)
        assert all(0 <= rec.r_hat <= 6 for rec in by_est["RCML_EL"])
        assert all(rec.sigma2_hat > 0 for rec in by_est["RCML_EL_SIGMA"])
        assert all(rec.kmax_hat >= 1.0 for rec in by_est["CNCML_EL"])

    def test_summary_matches_independent_mean(self, tmp_path):
        cfg = noise_only_config(tmp_path, trials=7, k_list=(6,))
        run_experiment(cfg)
        with open(tmp_path / "out" / "trials.csv") as fh:
            rows = list(csv.DictReader(fh))
        mean = np.mean([float(r["sinr_db"]) for r in rows])
        with open(tmp_path / "out" / "summary.csv") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 1
        assert float(summary[0]["mean_sinr_db"]) == pytest.approx(mean, abs=1e-9)
        assert int(summary[0]["trials"]) == 7

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = noise_only_config(tmp_path, trials=3, output_path=str(tmp_path / "a"))
        cfg_b = noise_only_config(tmp_path, trials=3, output_path=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("trials.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_lr0_with_autocompute_disabled(self, tmp_path):
        cfg = noise_only_config(
            tmp_path,
            estimators=(EstimatorSpec.parse("RCML_EL"),),
            lr0_table_path=str(tmp_path / "lr0.txt"),
            autocompute_lr0=False,
        )
        with pytest.raises(InputError, match="autocompute"):
            run_experiment(cfg)

    def test_lr0_computed_and_stored(self, tmp_path):
        table = tmp_path / "lr0.txt"
        cfg = noise_only_config(
            tmp_path,
            k_list=(8,),
            estimators=(EstimatorSpec.parse("RCML_EL"),),
            lr0_table_path=str(table),
        )
        run_experiment(cfg)
        assert table.exists()
        text = table.read_text().splitlines()
        assert text[0] == "LR0TABLE v1"
        assert len(text) == 2


CONFIG_TEXT = """
[scenario]
n = 6
noise_power = 1.0
jammer_powers = 20, 5
jammer_angles = 10, -35
jammer_bandwidths = 0.0, 0.2

[experiment]
k_list = 6, 12
trials = 2
master_seed = 42
estimators = SMI, FML, RCML_FIXED(2)
output = {out}
"""


class TestConfigFile:
    def test_parse_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "out"))
        cfg = load_experiment_config(path)
        assert cfg.scenario.n == 6
        assert cfg.k_list == (6, 12)
        assert cfg.trials == 2
        assert [str(s) for s in cfg.estimators] == ["SMI", "FML", "RCML_FIXED(2)"]
        assert cfg.corruption is None
        records = run_experiment(cfg)
        assert len(records) == 2 * 2 * 3

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "out") + "\ntypo_key = 1\n")
        with pytest.raises(InputError, match="typo_key"):
            load_experiment_config(path)

    def test_unknown_section_is_hard_error(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "out") + "\n[mystery]\nx = 1\n")
        with pytest.raises(InputError, match="mystery"):
            load_experiment_config(path)

    def test_corruption_section(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            CONFIG_TEXT.format(out=tmp_path / "out")
            + "\n[corruption]\nfraction = 0.5\namplitude = 50\nangle = 0\n"
        )
        cfg = load_experiment_config(path)
        assert cfg.corruption is not None
        assert cfg.corruption.fraction == 0.5
        assert cfg.corruption.amplitude == 50.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_experiment_config(tmp_path / "absent.cfg")

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[scenario]\nn = 4\n[experiment]\ntrials = 1\n")
        with pytest.raises(InputError, match="k_list"):
            load_experiment_config(path)

    @pytest.mark.parametrize(
        "spec",
        ["RCML_FIXED(9)", "RCML_FIXED(-1)", "CNCML_FIXED(0.5)", "CNCML_FIXED(nan)",
         "CNCML_FIXED(inf)"],
    )
    def test_bad_fixed_parameter_fails_before_lr0_or_csv(self, tmp_path, spec):
        # n = 4: ranks outside [0, 4] and bounds that are not finite and >= 1
        # used to fail mid-sweep, after the lr0 table was computed
        table, out = tmp_path / "lr0.txt", tmp_path / "out"
        path = tmp_path / "exp.cfg"
        path.write_text(
            f"[scenario]\nn = 4\n[experiment]\nk_list = 8\ntrials = 2\nmaster_seed = 1\n"
            f"estimators = RCML_EL, {spec}\noutput = {out}\nlr0_table = {table}\n"
        )
        with pytest.raises(InputError, match=r"outside \[0, 4\]|finite and at least 1"):
            load_experiment_config(path)
        assert cli(["simulate", "--config", str(path)]) == 1
        assert not table.exists() and not out.exists()

    @pytest.mark.parametrize(
        "k_list, estimators, message",
        [
            ("20, 20", "SMI", "k_list repeats 20"),
            ("8, 20, 8", "SMI", "k_list repeats 8"),
            ("0, 20", "RCML_EL", "at least 1, got 0"),
            ("-3", "SMI", "at least 1, got -3"),
            ("20", "SMI, FML, smi", "estimator list repeats SMI"),
            ("20", "RCML_FIXED(2), RCML_FIXED(2.0)", r"estimator list repeats RCML_FIXED\(2\)"),
        ],
    )
    def test_repeated_or_bad_sample_counts_and_specs_fail_at_load(
        self, tmp_path, k_list, estimators, message
    ):
        # a repeated cell would write duplicate trials.csv rows and double its
        # summary count; k < 1 must fail here, not in the lr0 lookup
        table, out = tmp_path / "lr0.txt", tmp_path / "out"
        path = tmp_path / "exp.cfg"
        path.write_text(
            f"[scenario]\nn = 4\n[experiment]\nk_list = {k_list}\ntrials = 2\n"
            f"master_seed = 1\nestimators = {estimators}\noutput = {out}\n"
            f"lr0_table = {table}\n"
        )
        with pytest.raises(InputError, match=message):
            load_experiment_config(path)
        assert cli(["simulate", "--config", str(path)]) == 1
        assert not table.exists() and not out.exists()

    def test_repeats_rejected_when_built_directly(self, tmp_path):
        with pytest.raises(InputError, match="k_list repeats 4"):
            noise_only_config(tmp_path, k_list=(4, 4))
        with pytest.raises(InputError, match="estimator list repeats FML"):
            noise_only_config(tmp_path, estimators=(EstimatorSpec("FML"), EstimatorSpec("FML")))

    @pytest.mark.parametrize("spec", ["RCML_FIXED(0)", "RCML_FIXED(4)", "CNCML_FIXED(1)"])
    def test_fixed_parameter_limits_accepted(self, tmp_path, spec):
        noise_only_config(tmp_path, estimators=(EstimatorSpec.parse(spec),))


class TestHoistedFactor:
    def test_one_sqrt_factor_per_sweep(self, tmp_path, monkeypatch):
        calls = []

        def counted(module):
            inner = module.sqrt_factor
            monkeypatch.setattr(module, "sqrt_factor", lambda h: calls.append(1) or inner(h))

        counted(harness)
        counted(scenario_module)
        cfg = noise_only_config(
            tmp_path,
            scenario=reference_scenario(),
            k_list=(20, 30),
            trials=3,
            estimators=(EstimatorSpec.parse("SMI"), EstimatorSpec.parse("FML")),
        )
        assert len(run_experiment(cfg)) == 12
        assert len(calls) == 1


class TestTrialBlocks:
    def test_blocked_sweep_equals_per_trial_oracle(self, tmp_path, monkeypatch):
        n, k_list, trials = 6, (12, 9), 8
        # 3 trials per block at k = 12 (blocks 3, 3, 2) and 4 at k = 9 (4, 4)
        monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 3 * n * 12)
        assert [harness._block_size(n, k) for k in k_list] == [3, 4]
        scenario = ScenarioConfig(n=n, jammer_powers=(40.0, 150.0), jammer_angles=(10.0, -35.0),
                                  jammer_bandwidths=(0.0, 0.1), noise_power=1.0)
        corruption = CorruptionSpec(fraction=0.5, amplitude=50.0,
                                    steering=steering_vector(n, 0.0))
        specs = tuple(EstimatorSpec.parse(t) for t in ("RCML_EL_SIGMA", "CNCML_EL", "LSMI_EL"))
        table = str(tmp_path / "lr0.txt")
        cfg = noise_only_config(
            tmp_path, scenario=scenario, k_list=k_list, trials=trials, estimators=specs,
            lr0_table_path=table, r_init=2, corruption=corruption,
        )
        records = run_experiment(cfg)

        r_true = jammer_covariance(scenario)
        factor = sqrt_factor(r_true)
        steer = np.column_stack([steering_vector(n, a) for a in default_steering_grid(scenario)])
        den_true = np.abs(np.sum(steer.conj() * apply_inverse(r_true, steer), axis=0))
        nmf = steering_vector(n, 0.0)
        oracle = []
        for k in k_list:
            lr0 = lr0_load(n, k, table).lr0
            for t in range(trials):
                z = draw_training(factor, k, corruption, derive_rng(1, "trial", k, t)).z
                eig = eig_hermitian(sample_covariance(z))
                stats = SampleStats(n=n, k=k, s_eig=eig, sigma2=1.0)
                args = (*_eigenbasis_projections(eig.eigenvectors, r_true, steer), den_true)
                for spec in specs:
                    est = build_estimate(spec, stats, lr0, (2, z, nmf))
                    con = est.constraints
                    sinr = _sinr_scorer(est.lambdas[np.newaxis], *args)[0]
                    oracle.append((k, t, str(spec), con.r, con.sigma2, con.kmax, con.beta, sinr))
        got = [(r.k, r.trial_index, r.estimator, r.r_hat, r.sigma2_hat, r.kmax_hat, r.beta_hat,
                r.sinr_db) for r in records]
        assert got == oracle

    def test_one_stacked_eigh_per_block_and_one_score_per_trial(self, tmp_path, monkeypatch):
        eigh_stacks, scored = [], []
        eigh_inner, score_inner = harness._eigh_desc, harness._sinr_scorer

        def eigh(h):
            eigh_stacks.append(h.shape)
            return eigh_inner(h)

        def score(lambdas, *args):
            scored.append(lambdas.shape)
            return score_inner(lambdas, *args)

        monkeypatch.setattr(harness, "_eigh_desc", eigh)
        monkeypatch.setattr(harness, "_sinr_scorer", score)
        n, k_list, trials = 20, (20, 40), 45
        cfg = noise_only_config(
            tmp_path,
            scenario=reference_scenario(),
            k_list=k_list,
            trials=trials,
            estimators=(EstimatorSpec.parse("SMI"), EstimatorSpec.parse("FML")),
        )
        assert len(run_experiment(cfg)) == 2 * len(k_list) * trials
        expected = []
        for k in k_list:
            block = harness._block_size(n, k)
            assert 1 < block < trials
            sizes = [block] * (trials // block) + ([trials % block] if trials % block else [])
            assert len(sizes) == -(-trials // block)
            expected += [(b, n, n) for b in sizes]
        assert eigh_stacks == expected
        assert scored == [(2, n)] * (len(k_list) * trials)

    def test_one_kmax_pass_per_pass_and_no_per_trial_stats(self, tmp_path, monkeypatch):
        # every estimator is a map over a pass: the kmax core, the fixed-bound
        # map and the joint map run once per pass of whole blocks, eigh once
        # per block, and no trial builds a SampleStats
        n, k, trials = 20, 30, 14
        monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 3 * n * k)
        monkeypatch.setattr(harness, "_PASS_ELEMENTS", 2 * 3 * n * n)
        # blocks of 3 trials, at most 2 blocks per pass, the 5 blocks split 1, 2, 2
        assert harness._block_size(n, k) == 3
        assert harness._passes(n, k, trials) == [
            [range(0, 3)], [range(3, 6), range(6, 9)], [range(9, 12), range(12, 14)]]
        eigh_stacks, kmax_stacks, fixed_stacks, joint_stacks, stats_built = [], [], [], [], []
        eigh_inner, kmax_inner, fixed_inner, joint_inner, stats_inner = (
            harness._eigh_desc, harness._kmax_rows, harness._cncml_rows, harness._joint_rows,
            SampleStats.__post_init__)

        def eigh(h):
            eigh_stacks.append(len(h))
            return eigh_inner(h)

        def kmax_rows(d, sigma2, lr0):
            kmax_stacks.append(d.shape)
            return kmax_inner(d, sigma2, lr0)

        def cncml_rows(d, sigma2, kmax):
            fixed_stacks.append(d.shape)
            return fixed_inner(d, sigma2, kmax)

        def joint_rows(p):
            joint_stacks.append(p.d.shape)
            return joint_inner(p)

        def post_init(stats):
            stats_built.append(stats)
            stats_inner(stats)

        monkeypatch.setattr(harness, "_eigh_desc", eigh)
        monkeypatch.setattr(harness, "_kmax_rows", kmax_rows)
        monkeypatch.setattr(harness, "_cncml_rows", cncml_rows)
        monkeypatch.setattr(harness, "_joint_rows", joint_rows)
        monkeypatch.setattr(SampleStats, "__post_init__", post_init)
        specs = tuple(EstimatorSpec.parse(t)
                      for t in ("SMI", "CNCML_EL", "CNCML_FIXED(8)", "RCML_EL_SIGMA"))
        cfg = noise_only_config(
            tmp_path, scenario=reference_scenario(), k_list=(k,), trials=trials,
            estimators=specs, lr0_table_path=str(tmp_path / "lr0.txt"),
        )
        assert len(run_experiment(cfg)) == len(specs) * trials
        assert eigh_stacks == [3, 3, 3, 3, 2]
        assert kmax_stacks == fixed_stacks == joint_stacks == [(3, n), (6, n), (5, n)]
        assert stats_built == []

    @pytest.mark.parametrize("corrupted", [False, True])
    def test_block_size_changes_no_output(self, tmp_path, monkeypatch, corrupted):
        n, k_list, trials = 20, (20, 40), 23  # blocks of 20 + 3 and 10 + 10 + 3
        names = ("SMI", "FML", "RCML_EL", "RCML_EL_SIGMA", "RCML_FIXED(5)", "CNCML_ML",
                 "CNCML_FIXED(8)", "CNCML_EL", "LSMI_EL")
        assert {EstimatorSpec.parse(t).name for t in names} == set(harness._ESTIMATORS)
        corruption = CorruptionSpec(fraction=0.5, amplitude=50.0,
                                    steering=steering_vector(n, 0.0)) if corrupted else None
        outputs = []
        for budget, passes in ((1, harness._PASS_ELEMENTS), (harness._BLOCK_ELEMENTS, 1),
                               (harness._BLOCK_ELEMENTS, harness._PASS_ELEMENTS)):
            monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", budget)
            monkeypatch.setattr(harness, "_PASS_ELEMENTS", passes)
            out = tmp_path / f"out{budget}-{passes}"
            cfg = noise_only_config(
                tmp_path, scenario=reference_scenario(), k_list=k_list, trials=trials,
                estimators=tuple(EstimatorSpec.parse(t) for t in names), output_path=str(out),
                lr0_table_path=str(tmp_path / "lr0.txt"), r_init=3,
                corruption=corruption,
            )
            assert [harness._block_size(n, k) for k in k_list] == ([1, 1] if budget == 1
                                                                   else [20, 10])
            run_experiment(cfg)
            outputs.append([(out / name).read_bytes() for name in ("trials.csv", "summary.csv")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_failed_stacked_pass_raises_at_its_trial(self, tmp_path, monkeypatch):
        # trial 1 of the block has a singular sample covariance, so LSMI_EL's
        # stacked pass raises its error, before any trial is scored
        eigh_inner, score_inner, scored = harness._eigh_desc, harness._sinr_scorer, []

        def eigh(h):
            d, v = eigh_inner(h)
            d[1, -1] = 0.0
            return d, v

        def score(lambdas, *args):
            scored.append(lambdas.shape)
            return score_inner(lambdas, *args)

        monkeypatch.setattr(harness, "_eigh_desc", eigh)
        monkeypatch.setattr(harness, "_sinr_scorer", score)
        cfg = noise_only_config(
            tmp_path, scenario=reference_scenario(), k_list=(30,), trials=4,
            estimators=(EstimatorSpec.parse("SMI"), EstimatorSpec.parse("LSMI_EL")),
            lr0_table_path=str(tmp_path / "lr0.txt"),
        )
        with pytest.raises(NoRootError, match="singular"):
            run_experiment(cfg)
        assert scored == []
        assert not (tmp_path / "out" / "trials.csv").exists()

    def test_failed_kmax_pass_raises_at_its_trial(self, tmp_path, monkeypatch):
        # as above for CNCML_EL, whose kmax core is made to reject the
        # singular trial 1 (it takes singular spectra)
        eigh_inner, score_inner, kmax_inner, scored = (
            harness._eigh_desc, harness._sinr_scorer, harness._kmax_rows, [])

        def eigh(h):
            d, v = eigh_inner(h)
            d[1, -1] = 0.0
            return d, v

        def score(lambdas, *args):
            scored.append(lambdas.shape)
            return score_inner(lambdas, *args)

        def kmax_rows(d, sigma2, lr0):
            if not (d[:, -1] > 0).all():
                raise NoRootError("sample covariance is singular")
            return kmax_inner(d, sigma2, lr0)

        monkeypatch.setattr(harness, "_eigh_desc", eigh)
        monkeypatch.setattr(harness, "_sinr_scorer", score)
        monkeypatch.setattr(harness, "_kmax_rows", kmax_rows)
        cfg = noise_only_config(
            tmp_path, scenario=reference_scenario(), k_list=(30,), trials=4,
            estimators=(EstimatorSpec.parse("SMI"), EstimatorSpec.parse("CNCML_EL")),
            lr0_table_path=str(tmp_path / "lr0.txt"),
        )
        with pytest.raises(NoRootError, match="singular"):
            run_experiment(cfg)
        assert scored == []
        assert not (tmp_path / "out" / "trials.csv").exists()

    def test_failed_joint_pass_raises_at_its_trial(self, tmp_path, monkeypatch):
        # as above for RCML_EL_SIGMA, whose joint selector rejects the
        # singular trial 1
        eigh_inner, score_inner, scored = harness._eigh_desc, harness._sinr_scorer, []

        def eigh(h):
            d, v = eigh_inner(h)
            d[1, -1] = 0.0
            return d, v

        def score(lambdas, *args):
            scored.append(lambdas.shape)
            return score_inner(lambdas, *args)

        monkeypatch.setattr(harness, "_eigh_desc", eigh)
        monkeypatch.setattr(harness, "_sinr_scorer", score)
        cfg = noise_only_config(
            tmp_path, scenario=reference_scenario(), k_list=(30,), trials=4,
            estimators=(EstimatorSpec.parse("SMI"), EstimatorSpec.parse("RCML_EL_SIGMA")),
            lr0_table_path=str(tmp_path / "lr0.txt"),
        )
        with pytest.raises(InputError, match="sample eigenvalues must be positive"):
            run_experiment(cfg)
        assert scored == []
        assert not (tmp_path / "out" / "trials.csv").exists()

    @pytest.mark.parametrize(
        "names, error, match",
        [(("LSMI_EL", "CNCML_EL"), NoRootError, "singular"),
         (("CNCML_EL", "LSMI_EL"), InputError, "rejects row 1")],
        ids=["LSMI_EL-first", "CNCML_EL-first"],
    )
    def test_first_failing_estimator_in_config_order_raises(
        self, tmp_path, monkeypatch, names, error, match
    ):
        # one pass of 4 trials in which LSMI_EL fails on row 2 (singular) and
        # the kmax core is made to reject row 1: the estimator listed first
        # raises, whichever row it fails on, and no trial is scored
        eigh_inner, kmax_inner, score_inner = (
            harness._eigh_desc, harness._kmax_rows, harness._sinr_scorer)
        rejected, scored = [], []

        def eigh(h):
            d, v = eigh_inner(h)
            d[2, -1] = 0.0
            rejected.append(d[1].copy())
            return d, v

        def kmax_rows(d, sigma2, lr0):
            if any((row == rejected[0]).all() for row in d):
                raise InputError("kmax core rejects row 1")
            return kmax_inner(d, sigma2, lr0)

        def score(lambdas, *args):
            scored.append(lambdas.shape)
            return score_inner(lambdas, *args)

        monkeypatch.setattr(harness, "_eigh_desc", eigh)
        monkeypatch.setattr(harness, "_kmax_rows", kmax_rows)
        monkeypatch.setattr(harness, "_sinr_scorer", score)
        cfg = noise_only_config(
            tmp_path, scenario=reference_scenario(), k_list=(30,), trials=4,
            estimators=tuple(EstimatorSpec.parse(t) for t in names),
            lr0_table_path=str(tmp_path / "lr0.txt"),
        )
        assert harness._passes(20, 30, 4) == [[range(0, 4)]]
        with pytest.raises(error, match=match):
            run_experiment(cfg)
        assert len(rejected) == 1
        assert scored == []
        assert not (tmp_path / "out" / "trials.csv").exists()


class TestStackedEstimators:
    def test_builds_equal_per_spectrum_estimators(self, rng):
        """Each estimator, built on one spectrum and row by row in a pass,
        equals the library estimator it replaces, bit for bit."""
        lr0 = 0.02
        for _ in range(40):
            n, b = int(rng.integers(2, 40)), int(rng.integers(1, 8))
            k, r_init = 2 * n, int(rng.integers(n))
            sigma2 = float(rng.uniform(0.2, 5.0))
            d = np.sort(np.exp(rng.normal(0.0, 2.0, (b, n))) * sigma2, axis=1)[:, ::-1].copy()
            d[:, n - n // 3 :] = d[:, -1:]  # tied tails
            r = int(rng.integers(n + 1))
            kmax = float(np.exp(rng.uniform(0.0, 8.0)))
            v = np.stack([eig_hermitian(random_hermitian(rng, n)).eigenvectors for _ in range(b)])
            z = np.stack([sample_training(v_i * np.sqrt(d_i), k, rng) for v_i, d_i in zip(v, d)])
            nmf = steering_vector(n, float(rng.uniform(-90.0, 90.0)))
            specs = [EstimatorSpec.parse(t)
                     for t in ("SMI", "FML", f"RCML_FIXED({r})", "RCML_EL", "CNCML_ML", "LSMI_EL",
                               "CNCML_EL", f"CNCML_FIXED({kmax!r})", "RCML_EL_SIGMA")]
            for spec in specs:
                rows = harness._ESTIMATORS[spec.name].rows
                lambdas, constraints = rows(harness._Pass(d, v, z, k, sigma2, lr0, r_init, nmf),
                                            spec.param)
                for i, row in enumerate(d):
                    basis = v[i]
                    eig = EigenDecomposition(eigenvalues=row.copy(), eigenvectors=basis)
                    stats = SampleStats(n=n, k=k, s_eig=eig, sigma2=sigma2)

                    def joint():
                        sel = select_rank_sigma_oracle(eig, k, r_init, lr0, z[i], nmf)
                        return rcml(SampleStats(n=n, k=k, s_eig=eig, sigma2=sel.sigma2_hat),
                                    sel.r_hat)

                    expected = {
                        "SMI": lambda: smi(stats),
                        "FML": lambda: fml(stats),
                        "RCML_FIXED": lambda: rcml(stats, r),
                        "RCML_EL": lambda: rcml(stats, scalar_rank_oracle(row, sigma2, lr0)[0]),
                        "CNCML_ML": lambda: cncml(stats, max(float(row[0] / sigma2), 1.0)),
                        "LSMI_EL": lambda: lsmi(stats, scalar_loading_oracle(row, lr0)[0]),
                        "CNCML_EL": lambda: scalar_kmax_oracle(stats, lr0).estimate,
                        "CNCML_FIXED": lambda: scalar_cncml_oracle(stats, kmax),
                        "RCML_EL_SIGMA": joint,
                    }[spec.name]()
                    one = build_estimate(spec, stats, lr0, (r_init, z[i], nmf))
                    for est in (one, CovarianceEstimate(lambdas[i], basis, constraints[i])):
                        assert est.lambdas.tobytes() == expected.lambdas.tobytes()
                        assert repr(est.constraints) == repr(expected.constraints)
                        assert est.basis is basis

    @pytest.mark.parametrize("name", ["RCML_EL", "RCML_EL_SIGMA", "CNCML_EL", "LSMI_EL"])
    def test_missing_lr0_or_joint_is_input_error(self, name):
        d = np.array([9.0, 4.0, 0.6, 0.3])
        eig = EigenDecomposition(eigenvalues=d, eigenvectors=np.eye(4, dtype=complex))
        stats = SampleStats(n=4, k=8, s_eig=eig, sigma2=0.5)
        spec = EstimatorSpec.parse(name)
        with pytest.raises(InputError, match="needs lr0"):
            build_estimate(spec, stats)
        if name == "RCML_EL_SIGMA":
            with pytest.raises(InputError, match="needs joint"):
                build_estimate(spec, stats, 0.3)


def _random_estimates(rng, n):
    """One estimate of every kind on a random spectrum and a random basis."""
    d = np.sort(np.exp(rng.normal(0.0, 2.0, n)))[::-1]
    basis = eig_hermitian(random_hermitian(rng, n)).eigenvectors
    eig = EigenDecomposition(eigenvalues=d, eigenvectors=basis)
    stats = SampleStats(n=n, k=2 * n, s_eig=eig, sigma2=float(d[rng.integers(n)]))
    return basis, [
        smi(stats),
        fml(stats),
        rcml(stats, int(rng.integers(n + 1))),
        cncml(stats, float(1.0 + 100.0 * rng.random())),
        lsmi(stats, float(rng.random())),
    ]


class TestSinrScorer:
    def _steering(self, rng, n):
        s = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
        grid = np.column_stack([steering_vector(n, a) for a in (-60.0, 0.0, 25.0)])
        return np.column_stack([s / np.linalg.norm(s, axis=0), grid])

    def _inputs(self, rng, n):
        basis, estimates = _random_estimates(rng, n)
        r_true = random_psd(rng, n) + 0.1 * np.eye(n)
        steer = self._steering(rng, n)
        den_true = np.abs(np.sum(steer.conj() * np.linalg.solve(r_true, steer), axis=0))
        w0, g = _eigenbasis_projections(basis, r_true, steer)
        lambdas = np.stack([est.lambdas for est in estimates])
        return estimates, r_true, steer, (w0, g, den_true), lambdas

    def test_matches_normalized_sinr_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 65))
            estimates, r_true, steer, args, lambdas = self._inputs(rng, n)
            scores = _sinr_scorer(lambdas, *args)
            assert scores.shape == (len(estimates),)
            for est, score in zip(estimates, scores):
                oracle = np.mean(
                    [10.0 * np.log10(normalized_sinr(est, r_true, s)) for s in steer.T]
                )
                assert score == pytest.approx(oracle, abs=1e-10)

    def test_stack_equals_one_row_stacks(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 40))
            _, _, _, args, lambdas = self._inputs(rng, n)
            rows = [_sinr_scorer(lambdas[e : e + 1], *args)[0] for e in range(len(lambdas))]
            assert np.array_equal(_sinr_scorer(lambdas, *args), rows)

    def test_stacked_projections_equal_each_basis(self, rng):
        n = 7
        bases = np.stack([eig_hermitian(random_hermitian(rng, n)).eigenvectors for _ in range(5)])
        r_true, steer = random_psd(rng, n), self._steering(rng, n)
        w0, g = _eigenbasis_projections(bases, r_true, steer)
        for basis, w0_i, g_i in zip(bases, w0, g):
            one_w0, one_g = _eigenbasis_projections(basis, r_true, steer)
            assert np.array_equal(w0_i, one_w0) and np.array_equal(g_i, one_g)
            assert np.array_equal(g_i, g_i.conj().T)

    @pytest.mark.parametrize("bad", [0.0, -1e-3])
    def test_non_positive_eigenvalue_is_singular(self, rng, bad):
        basis = eig_hermitian(random_hermitian(rng, 3)).eigenvectors
        steer = self._steering(rng, 3)
        args = (*_eigenbasis_projections(basis, np.eye(3), steer), np.ones(steer.shape[1]))
        good = np.array([[3.0, 2.0, 1.0], [2.0, 1.5, 0.5], [4.0, 2.0, 1.0]])
        assert np.isfinite(_sinr_scorer(good, *args)).all()
        for row in range(len(good)):
            lambdas = good.copy()
            lambdas[row, -1] = bad
            with pytest.raises(SingularMatrixError):
                _sinr_scorer(lambdas, *args)

    def test_nan_eigenvalue_is_singular(self, rng):
        # NaN fails every comparison, so a `<= 0` test would let it through
        # and score the row as NaN dB
        basis = eig_hermitian(random_hermitian(rng, 3)).eigenvectors
        steer = self._steering(rng, 3)
        args = (*_eigenbasis_projections(basis, np.eye(3), steer), np.ones(steer.shape[1]))
        for col in range(3):
            lambdas = np.array([[3.0, 2.0, 1.0], [2.0, 1.5, 0.5]])
            lambdas[1, col] = np.nan
            with pytest.raises(SingularMatrixError, match="NaN"):
                _sinr_scorer(lambdas, *args)
