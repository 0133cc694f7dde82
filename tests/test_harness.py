import concurrent.futures
import csv
import hashlib
import itertools
import math
import threading
import time
from types import SimpleNamespace

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
    sinr_scorer_oracle,
    six_jammer_scenario,
    stats_from_spectrum,
)
from elcov import (
    ConstraintRecord,
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
    cncml_u_star,
    default_steering_grid,
    derive_rng,
    eig_hermitian,
    fml,
    generate_training,
    jammer_covariance,
    load_experiment_config,
    lr0_load,
    lr0_reference,
    lr0_store,
    lsmi,
    matrix_save,
    normalized_sinr,
    rcml,
    run_experiment,
    sample_covariance,
    sample_training,
    select_rank_sigma,
    smi,
    steering_vector,
)
from elcov.cli import cli
from elcov.harness import _eigenbasis_projections, _score_pass, _sinr_scorer, build_estimate
from elcov.metrics import apply_inverse


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

    @pytest.mark.parametrize("rank, message", [
        ("2.7", "rank 2.7 is not a whole number"),
        ("1e400", "rank inf outside [0, 4]"),
        ("-inf", "rank -inf outside [0, 4]"),
        ("nan", "rank nan outside [0, 4]"),
    ], ids=["2.7", "1e400", "-inf", "nan"])
    def test_rejects_non_integer_and_non_finite_rank(self, rank, message):
        # the spec parses; the rank map, which every build reaches, rejects it
        spec = EstimatorSpec.parse(f"RCML_FIXED({rank})")
        with pytest.raises(InputError) as exc:
            build_estimate(spec, stats_from_spectrum([4.0, 3.0, 2.0, 1.0]))
        assert str(exc.value) == message

    def test_accepts_integer_valued_rank(self):
        assert EstimatorSpec.parse("RCML_FIXED(5.0)") == EstimatorSpec("RCML_FIXED", 5.0)

    @pytest.mark.parametrize("text, label", [
        ("RCML_FIXED(5)", "RCML_FIXED(5)"),
        ("CNCML_FIXED(8)", "CNCML_FIXED(8)"),
        ("CNCML_FIXED(1000000)", "CNCML_FIXED(1e+06)"),
        ("CNCML_FIXED(2.0000001)", "CNCML_FIXED(2.0000001)"),
        ("CNCML_FIXED(2.0000002)", "CNCML_FIXED(2.0000002)"),
        ("CNCML_FIXED(1.23456789)", "CNCML_FIXED(1.23456789)"),
    ])
    def test_label_reads_back_as_the_spec(self, text, label):
        # short where :g keeps every digit, in full where it would drop some
        spec = EstimatorSpec.parse(text)
        assert str(spec) == label
        assert EstimatorSpec.parse(str(spec)) == spec


# n = 4: each bad parameter, the public functions that take it, and the
# message of the one map that checks it
_BOUND = "condition-number bound kmax must be finite and at least 1"
_BAD_PARAMETERS = [
    ("RCML_FIXED(9)", (rcml,), 9, "rank 9 outside [0, 4]"),
    ("RCML_FIXED(-1)", (rcml,), -1, "rank -1 outside [0, 4]"),
    ("RCML_FIXED(1.5)", (rcml,), 1.5, "rank 1.5 is not a whole number"),
    ("CNCML_FIXED(0.5)", (cncml, cncml_u_star), 0.5, _BOUND),
    ("CNCML_FIXED(nan)", (cncml, cncml_u_star), math.nan, _BOUND),
    ("CNCML_FIXED(inf)", (cncml, cncml_u_star), math.inf, _BOUND),
]


class TestParameterChecks:
    """Each rank and bound is checked once, by the map that takes it; every
    entry point reaches that check and reports its message."""

    @pytest.mark.parametrize("text, public, param, message", _BAD_PARAMETERS,
                             ids=[row[0] for row in _BAD_PARAMETERS])
    def test_every_entry_point_reports_the_map_message(
        self, tmp_path, capsys, text, public, param, message
    ):
        d = [9.0, 4.0, 0.6, 0.3]
        stats = stats_from_spectrum(d)
        spec = EstimatorSpec.parse(text)
        raised = [pytest.raises(InputError, f, stats, param) for f in public]
        raised.append(pytest.raises(InputError, build_estimate, spec, stats))
        assert [str(exc.value) for exc in raised] == [message] * len(raised)
        path = tmp_path / "exp.cfg"
        path.write_text(f"[scenario]\nn = 4\n[experiment]\nk_list = 8\ntrials = 1\n"
                        f"master_seed = 1\nestimators = SMI, {text}\noutput = out\n")
        with pytest.raises(InputError) as exc:
            load_experiment_config(path)
        assert str(exc.value) == f"bad [experiment] value: estimator {text}: {message}"
        cmat = tmp_path / "s.cmat"
        matrix_save(np.diag(d).astype(complex), cmat)
        assert cli(["estimate", "--input", str(cmat), "--k", "8", "--sigma2", "1.0",
                    "--estimator", text]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("estimator, param, message", [
        (rcml, 2.5, "rank 2.5 is not a whole number"),
        (lsmi, math.nan, "loading factor beta must be finite and non-negative"),
        (lsmi, math.inf, "loading factor beta must be finite and non-negative"),
        (lsmi, -0.1, "loading factor beta must be finite and non-negative"),
    ], ids=["rcml-2.5", "lsmi-nan", "lsmi-inf", "lsmi-negative"])
    def test_public_estimator_rejects_what_its_map_rejects(self, estimator, param, message):
        # a fractional rank once kept ceil(r) eigenvalues and recorded int(r),
        # and a NaN or infinite loading built a NaN or infinite estimate
        with pytest.raises(InputError) as exc:
            estimator(stats_from_spectrum([9.0, 4.0, 0.6, 0.3]), param)
        assert str(exc.value) == message

    def test_labels_differing_past_six_digits_are_two_columns(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[scenario]\nn = 4\n[experiment]\nk_list = 8\ntrials = 2\n"
                        f"master_seed = 1\noutput = {tmp_path / 'out'}\n"
                        "estimators = CNCML_FIXED(2.0000001), CNCML_FIXED(2.0000002), "
                        "CNCML_FIXED(1.23456789)\n")
        run_experiment(load_experiment_config(path))
        with open(tmp_path / "out" / "summary.csv", encoding="utf-8") as fh:
            labels = [row["estimator"] for row in csv.DictReader(fh)]
        assert labels == ["CNCML_FIXED(2.0000001)", "CNCML_FIXED(2.0000002)",
                          "CNCML_FIXED(1.23456789)"]


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

    def test_excludes_the_alias_of_an_angle_past_endfire(self):
        # 120 degrees arrives as 60: the two covariances agree to rounding
        scenarios = [ScenarioConfig(n=8, jammer_powers=(10.0,), jammer_angles=(angle,),
                                    jammer_bandwidths=(0.0,)) for angle in (120.0, 60.0)]
        np.testing.assert_allclose(*map(jammer_covariance, scenarios), rtol=0, atol=1e-12)
        grid = default_steering_grid(scenarios[0])
        assert 60.0 not in grid and len(grid) == 18

    @pytest.mark.parametrize(
        "phase, dropped",
        [(4.0, None), (2.0 * math.pi + math.pi * math.sin(math.radians(-50.0)), -50.0)],
        ids=["between-grid-angles", "onto-a-grid-angle"],
    )
    def test_excludes_the_alias_of_a_phase_past_pi(self, phase, dropped):
        # a phase is 2 pi periodic: 4.0 rad arrives as 4 - 2 pi, at -46.6
        # degrees, and does not hide the endfire angle at 90
        cfg = ScenarioConfig(n=8, jammer_powers=(10.0,), jammer_angles=(phase,),
                             jammer_bandwidths=(0.0,), angle_mode="radians")
        grid = default_steering_grid(cfg)
        assert 90.0 in grid
        expected = [a for a in np.linspace(-90.0, 90.0, 19).tolist() if a != dropped]
        assert list(grid) == expected

    @pytest.mark.parametrize(
        "angle, mode",
        [(90.0, "degrees"), (-90.0, "degrees"), (-89.5, "degrees"),
         (math.pi, "radians"), (-math.pi, "radians")],
    )
    def test_excludes_both_endfire_angles(self, angle, mode):
        # s(90) and s(-90) agree to rounding: |s(90)^H s(-90)| = 1 - 2e-16
        assert abs(np.vdot(steering_vector(8, 90.0), steering_vector(8, -90.0))) > 1 - 1e-15
        cfg = ScenarioConfig(n=8, jammer_powers=(10.0,), jammer_angles=(angle,),
                             jammer_bandwidths=(0.0,), angle_mode=mode)
        assert list(default_steering_grid(cfg)) == np.linspace(-80.0, 80.0, 17).tolist()

    def test_grids_clear_of_endfire_keep_their_angles(self):
        # the reference scenario and the N = 64 benchmark scenario
        every = np.linspace(-90.0, 90.0, 19).tolist()
        assert list(default_steering_grid(reference_scenario())) == [a for a in every if a != 20.0]
        large = ScenarioConfig(n=64, jammer_powers=(10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0),
                               jammer_angles=(-47.0, -25.0, -8.0, 12.0, 33.0, 58.0),
                               jammer_bandwidths=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3))
        assert list(default_steering_grid(large)) == every


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

    def test_lr0_computed_and_not_stored(self, tmp_path):
        # a sweep only reads its table: an absent one stays absent, and one
        # without the (n, k) keeps its bytes
        table = tmp_path / "lr0.txt"
        cfg = noise_only_config(
            tmp_path,
            k_list=(8,),
            estimators=(EstimatorSpec.parse("RCML_EL"),),
            lr0_table_path=str(table),
        )
        run_experiment(cfg)
        assert not table.exists()
        lr0_store(lr0_reference(4, 16), table)
        before = table.read_bytes()
        run_experiment(cfg)
        assert table.read_bytes() == before
        assert lr0_load(4, 8, table) is None

    @pytest.mark.parametrize("output", ["out", "out/sub"], ids=["file", "under-a-file"])
    def test_output_path_blocked_by_a_file_fails_before_any_pass(
        self, tmp_path, monkeypatch, output
    ):
        # mkdir would reject it only after every pass had run; the check
        # runs first, before the lr0 lookup
        (tmp_path / "out").write_text("not a directory\n")

        def no_draw(*args):
            raise AssertionError("a pass was drawn")

        monkeypatch.setattr(harness, "_draw_pass", no_draw)
        cfg = noise_only_config(
            tmp_path, k_list=(8,), estimators=(EstimatorSpec.parse("RCML_EL"),),
            lr0_table_path=str(tmp_path / "lr0.txt"), output_path=str(tmp_path / output))
        with pytest.raises(InputError, match=f"{tmp_path / 'out'}' is not a directory"):
            run_experiment(cfg)
        assert list(tmp_path.iterdir()) == [tmp_path / "out"]
        assert (tmp_path / "out").read_text() == "not a directory\n"

    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    @pytest.mark.parametrize("assigned", [False, True], ids=["constructed", "assigned"])
    def test_corruption_steering_of_another_size_fails_before_the_lr0_lookup(
        self, tmp_path, assigned, fraction
    ):
        # the draw would reject it only at the first pass, and at fraction 0
        # not at all; a loaded config assigns its corruption after
        # construction, so the check cannot live in __post_init__
        corruption = CorruptionSpec(fraction=fraction, amplitude=50.0,
                                    steering=steering_vector(4, 0.0))
        cfg = noise_only_config(
            tmp_path, scenario=ScenarioConfig(n=8, noise_power=1.0), k_list=(16,),
            estimators=(EstimatorSpec.parse("RCML_EL"),), lr0_table_path=str(tmp_path / "lr0.txt"),
            corruption=None if assigned else corruption)
        if assigned:
            cfg.corruption = corruption
        with pytest.raises(InputError, match="corruption steering length does not match"):
            run_experiment(cfg)
        assert list(tmp_path.iterdir()) == []


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


def write_config(tmp_path, sections):
    """``exp.cfg`` holding ``{section: {key: value}}``."""
    path = tmp_path / "exp.cfg"
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    ))
    return path


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
            ("20.5", "SMI", "finite whole numbers, got 20.5"),
            ("20, inf", "SMI", "finite whole numbers, got inf"),
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

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("experiment", "steering_grid", "0, nan", "steering grid angles must be finite"),
            ("experiment", "steering_grid", "0, inf", "steering grid angles must be finite"),
            ("experiment", "master_seed", "-5", "master_seed must be non-negative"),
            ("experiment", "nmf_angle", "nan", "nmf_angle must be finite"),
            ("corruption", "amplitude", "inf", "corruption amplitude must be finite"),
            ("corruption", "amplitude", "nan", "corruption amplitude must be finite"),
            ("corruption", "angle", "nan", "steering angle must be finite"),
            ("experiment", "r_init", "-1", r"r_init -1 outside \[0, 5\]"),
            ("experiment", "r_init", "6", r"r_init 6 outside \[0, 5\]"),
        ],
    )
    def test_bad_sweep_value_fails_before_lr0_or_csv(
        self, tmp_path, capsys, section, key, value, message
    ):
        # past the load, each writes nan SINRs or fails after the lr0 table
        # is computed
        table, out = tmp_path / "lr0.txt", tmp_path / "out"
        sections = {
            "scenario": {"n": "6", "jammer_powers": "100", "jammer_angles": "20",
                         "jammer_bandwidths": "0"},
            "experiment": {"k_list": "12", "trials": "3", "master_seed": "1",
                           "estimators": "SMI, RCML_EL", "lr0_table": table, "output": out},
            "corruption": {"fraction": "0.5", "amplitude": "50", "angle": "0"},
        }
        sections[section][key] = value
        path = write_config(tmp_path, sections)
        with pytest.raises(InputError, match=message):
            load_experiment_config(path)
        assert cli(["simulate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not table.exists() and not out.exists()

    REQUIRED_ONLY = {
        "scenario": {"n": "4"},
        "experiment": {"k_list": "8, 12", "trials": "2", "master_seed": "3",
                       "estimators": "SMI, RCML_FIXED(1)", "output": "out"},
        "corruption": {"fraction": "0.25", "amplitude": "5"},
    }

    def test_required_keys_alone_leave_every_field_at_its_default(self, tmp_path):
        # the loader has no defaults of its own; the dataclasses' defaults apply
        cfg = load_experiment_config(write_config(tmp_path, self.REQUIRED_ONLY))
        corruption, cfg.corruption = cfg.corruption, None
        assert cfg == ExperimentConfig(
            scenario=ScenarioConfig(n=4), k_list=(8, 12), trials=2, master_seed=3,
            estimators=(EstimatorSpec("SMI"), EstimatorSpec("RCML_FIXED", 1.0)),
            output_path="out",
        )
        assert (corruption.fraction, corruption.amplitude) == (0.25, 5.0)
        assert corruption.steering.tobytes() == steering_vector(4, 0.0).tobytes()

    @pytest.mark.parametrize(
        "section, key",
        [("scenario", "n"), ("experiment", "k_list"), ("experiment", "trials"),
         ("experiment", "master_seed"), ("experiment", "estimators"), ("experiment", "output"),
         ("corruption", "fraction"), ("corruption", "amplitude")],
    )
    def test_each_required_key_is_reported_missing(
        self, tmp_path, monkeypatch, capsys, section, key
    ):
        monkeypatch.chdir(tmp_path)  # the relative output, were a sweep to run
        sections = {name: dict(keys) for name, keys in self.REQUIRED_ONLY.items()}
        del sections[section][key]
        path = write_config(tmp_path, sections)
        message = f"missing required key {key!r} in [{section}]"
        with pytest.raises(InputError) as err:
            load_experiment_config(path)
        assert str(err.value) == message
        assert cli(["simulate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_empty_steering_grid_fails_before_lr0_or_csv(self, tmp_path):
        # an empty grid is an input error, not a fall-back to the default grid
        table, out = tmp_path / "lr0.txt", tmp_path / "out"
        path = tmp_path / "exp.cfg"
        path.write_text(
            f"[scenario]\nn = 4\n[experiment]\nk_list = 8\ntrials = 2\nmaster_seed = 1\n"
            f"estimators = SMI, RCML_EL\noutput = {out}\nlr0_table = {table}\n"
            "steering_grid =\n"
        )
        assert load_experiment_config(path).steering_grid == ()
        with pytest.raises(InputError, match="steering grid is empty"):
            run_experiment(load_experiment_config(path))
        assert cli(["simulate", "--config", str(path)]) == 1
        assert not table.exists() and not out.exists()

    def test_lr0_without_table_or_autocompute_fails_at_load(self, tmp_path):
        out = tmp_path / "out"
        path = tmp_path / "exp.cfg"
        path.write_text(
            f"[scenario]\nn = 4\n[experiment]\nk_list = 8\ntrials = 2\nmaster_seed = 1\n"
            f"estimators = SMI, RCML_EL, LSMI_EL\noutput = {out}\nautocompute = false\n"
        )
        with pytest.raises(InputError, match="RCML_EL, LSMI_EL need lr0"):
            load_experiment_config(path)
        assert cli(["simulate", "--config", str(path)]) == 1
        assert not out.exists()

    def test_lr0_without_table_or_autocompute_rejected_when_built_directly(self, tmp_path):
        with pytest.raises(InputError, match="CNCML_EL need lr0"):
            noise_only_config(tmp_path, autocompute_lr0=False,
                              estimators=(EstimatorSpec("SMI"), EstimatorSpec("CNCML_EL")))
        # estimators that need no lr0 run without a table
        assert len(run_experiment(noise_only_config(tmp_path, autocompute_lr0=False))) == 1

    def test_repeats_rejected_when_built_directly(self, tmp_path):
        with pytest.raises(InputError, match="k_list repeats 4"):
            noise_only_config(tmp_path, k_list=(4, 4))
        with pytest.raises(InputError, match="estimator list repeats FML"):
            noise_only_config(tmp_path, estimators=(EstimatorSpec("FML"), EstimatorSpec("FML")))

    @pytest.mark.parametrize("spec", ["RCML_FIXED(0)", "RCML_FIXED(4)", "CNCML_FIXED(1)"])
    def test_fixed_parameter_limits_accepted(self, tmp_path, spec):
        noise_only_config(tmp_path, estimators=(EstimatorSpec.parse(spec),))


class TestWriteOutputs:
    def test_exact_bytes(self, tmp_path):
        cfg = noise_only_config(
            tmp_path, scenario=ScenarioConfig(n=8), k_list=(10,), trials=2,
            estimators=tuple(EstimatorSpec.parse(t) for t in ("RCML_FIXED(5)", "CNCML_EL", "SMI")),
        )
        rec = harness.TrialRecord
        records = [
            rec(0, 10, "RCML_FIXED(5)", 5, 1.0, None, None, -3.14159265358979, 0.5),
            rec(0, 10, "CNCML_EL", None, 0.123456789012345, 12.3456789012345, None,
                -0.000123456789012345, 0.5),
            rec(0, 10, "SMI", None, None, None, None, 1.5, 0.5),
            rec(1, 10, "RCML_FIXED(5)", 0, 2.5, None, 0.25, -2.0, 0.5),
            rec(1, 10, "CNCML_EL", None, 1e-05, 1.0, None, 2.00000000004, 0.5),
            rec(1, 10, "SMI", None, None, None, None, -7.25, 0.5),
        ]
        harness._write_outputs(cfg, records)
        out = tmp_path / "out"
        assert (out / "trials.csv").read_bytes() == (
            b"k,trial,estimator,r,sigma2,kmax,beta,sinr_db\n"
            b"10,0,RCML_FIXED(5),5,1,,,-3.14159265359\n"
            b"10,0,CNCML_EL,,0.123456789012,12.3456789012,,-0.000123456789012\n"
            b"10,0,SMI,,,,,1.5\n"
            b"10,1,RCML_FIXED(5),0,2.5,,0.25,-2\n"
            b"10,1,CNCML_EL,,1e-05,1,,2.00000000004\n"
            b"10,1,SMI,,,,,-7.25\n"
        )
        assert (out / "summary.csv").read_bytes() == (
            b"k,estimator,trials,mean_sinr_db\n"
            b"10,RCML_FIXED(5),2,-2.57079632679\n"
            b"10,CNCML_EL,2,0.999938271625\n"
            b"10,SMI,2,-2.875\n"
        )


GOLDEN_LR0_TABLE = (
    "LR0TABLE v1\n"
    "20 20 0 0 3.9091407407572326e-09 1.2833478922876895e-10 1.0775703112049912e-09 "
    "3.9091407407572326e-09 1.2672553829686553e-08 5.889731075476079e-08\n"
    "20 40 0 0 0.0021892422421553636 0.0010328203796812056 0.0016203938402552037 "
    "0.0021892422421553636 0.00292894212482658 0.004377745420568691\n"
)

# sha256 of (trials.csv, summary.csv) for the golden sweep below.  They hold
# for numpy 2.4.6 with OpenBLAS 0.3.31, which CI pins.  OpenBLAS picks its
# kernels by CPU at run time and the two kernel families round differently,
# so each case has one pair for the AVX-512 kernels (SkylakeX, Cooperlake,
# SapphireRapids) and one for the AVX2 kernels (Haswell, Zen); a run must
# match one pair whole.
GOLDEN_DIGESTS = {
    False: (
        ("e5f01ef43fc1e6e0c1cc9bcedba8b984984705bff1aa648a0c723727ddb21028",
         "f8e045d5ed3b6b95cf762a80313a7f9e931165ba387468bb668f1e59a9d45145"),
        ("f7a0372ace1963841fd9b55812c9ce92f535659e124929531357a769fea43410",
         "e8218029db531969d3d58664d08d7666eb6c4df316249c8718e11022578cebbb"),
    ),
    True: (
        ("4e59e12880afcf917cd8eec4619024d8439f20e13b2cfb8a97f00e4f3ab6d4d1",
         "55bd69375c850130e999bc08d9cd8f0d6355a51ad043f2a54b5cf40dd2221a16"),
        ("c9e92579ace5edc8dad87e61b57fd8e9fcb224352ba0dd8921a20ae80f6700e1",
         "922de37351cddca1882ce98d40e313618a380b11bfe9849d75da838ab12b4990"),
    ),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("corrupted", [False, True], ids=["clean", "corrupted"])
    def test_output_bytes_match_recorded_digests(self, tmp_path, corrupted):
        # lr0 comes from a literal table, so the digests cover the draw,
        # eigh, the selectors and scoring, not the lr0 computation
        names = ("SMI", "FML", "RCML_EL", "RCML_EL_SIGMA", "RCML_FIXED(5)", "CNCML_ML",
                 "CNCML_FIXED(8)", "CNCML_EL", "LSMI_EL")
        table = tmp_path / "lr0.txt"
        table.write_text(GOLDEN_LR0_TABLE)
        corruption = CorruptionSpec(fraction=0.5, amplitude=50.0,
                                    steering=steering_vector(20, 0.0)) if corrupted else None
        cfg = noise_only_config(
            tmp_path, scenario=reference_scenario(), k_list=(20, 40), trials=5,
            master_seed=2024, estimators=tuple(EstimatorSpec.parse(t) for t in names),
            lr0_table_path=str(table), autocompute_lr0=False, corruption=corruption,
        )
        run_experiment(cfg)
        digests = tuple(hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                        for name in ("trials.csv", "summary.csv"))
        assert digests in GOLDEN_DIGESTS[corrupted]
        assert table.read_text() == GOLDEN_LR0_TABLE


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
        # 108 elements a cell at k = 12 and 90 at k = 9, at most 360 a pass:
        # three k = 12 passes, the third ending on k = 9's trial 0, then 4 + 3
        monkeypatch.setattr(harness, "_PASS_ELEMENTS", 4 * n * (n + 9))
        cells = [(k, t) for k in k_list for t in range(trials)]
        passes = harness._passes(n, cells)
        assert [len(p) for p in passes] == [3, 3, 3, 4, 3]
        assert sum(passes, []) == cells
        assert passes[2] == [(12, 6), (12, 7), (9, 0)]
        scenario = ScenarioConfig(n=n, jammer_powers=(40.0, 150.0), jammer_angles=(10.0, -35.0),
                                  jammer_bandwidths=(0.0, 0.1), noise_power=1.0)
        corruption = CorruptionSpec(fraction=0.5, amplitude=50.0,
                                    steering=steering_vector(n, 0.0))
        specs = tuple(EstimatorSpec.parse(t) for t in ("RCML_EL_SIGMA", "CNCML_EL", "LSMI_EL"))
        cfg = noise_only_config(
            tmp_path, scenario=scenario, k_list=k_list, trials=trials, estimators=specs,
            r_init=2, corruption=corruption,
        )
        records = run_experiment(cfg)

        r_true = jammer_covariance(scenario)
        steer = np.column_stack([steering_vector(n, a) for a in default_steering_grid(scenario)])
        den_true = np.abs(np.sum(steer.conj() * apply_inverse(r_true, steer), axis=0))
        nmf = steering_vector(n, 0.0)
        oracle = []
        for k in k_list:
            lr0 = lr0_reference(n, k).lr0
            for t in range(trials):
                z = generate_training(r_true, k, corruption, derive_rng(1, "trial", k, t)).z
                eig = eig_hermitian(sample_covariance(z))
                stats = SampleStats(n=n, k=k, s_eig=eig, sigma2=1.0)
                args = (*_eigenbasis_projections(eig.eigenvectors, r_true, steer), den_true)
                for spec in specs:
                    est = build_estimate(spec, stats, lr0, (2, z, nmf))
                    con = est.constraints
                    sinr = sinr_scorer_oracle(est.lambdas[np.newaxis], *args)[0]
                    oracle.append((k, t, str(spec), con.r, con.sigma2, con.kmax, con.beta, sinr))
        got = [(r.k, r.trial_index, r.estimator, r.r_hat, r.sigma2_hat, r.kmax_hat, r.beta_hat,
                r.sinr_db) for r in records]
        assert got == oracle

    def test_one_stacked_eigh_per_pass_and_one_score_per_block(self, tmp_path, monkeypatch):
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
        n, k_list, trials = 20, (20, 40), 120
        cfg = noise_only_config(
            tmp_path,
            scenario=reference_scenario(),
            k_list=k_list,
            trials=trials,
            estimators=(EstimatorSpec.parse("SMI"), EstimatorSpec.parse("FML")),
        )
        assert len(run_experiment(cfg)) == 2 * len(k_list) * trials
        # 81 cells of 800 elements fill a pass; the second takes k = 20's
        # last 39 and k = 40's first 28, of 1 200; then 54 and 38
        cells = [(k, t) for k in k_list for t in range(trials)]
        passes = harness._passes(n, cells)
        assert sum(passes, []) == cells
        assert [len(p) for p in passes] == [81, 67, 54, 38]
        assert {k for k, _ in passes[1]} == {20, 40}
        assert eigh_stacks == [(len(p), n, n) for p in passes]
        # 18 grid angles: blocks of 8 192 // (2 * 20 * 18) = 11 cells, each
        # pass's last block taking what is left of it: 81 = 7 * 11 + 4
        assert len(default_steering_grid(reference_scenario())) == 18
        blocks = [min(11, len(p) - lo) for p in passes for lo in range(0, len(p), 11)]
        assert blocks[:9] == [11] * 7 + [4, 11]
        assert scored == [(b, 2, n) for b in blocks]

    def test_one_kmax_pass_per_pass_and_no_per_trial_stats(self, tmp_path, monkeypatch):
        # every estimator is a map over a pass: eigh, the kmax core, the
        # fixed-bound map and the joint map run once per pass, and no trial
        # builds a SampleStats
        n, k, trials = 20, 30, 14
        monkeypatch.setattr(harness, "_PASS_ELEMENTS", 5 * n * (n + k))
        # at most 5 trials per pass, the 14 trials split 5, 5, 4
        assert [len(p) for p in harness._passes(n, [(k, t) for t in range(trials)])] == [5, 5, 4]
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
        assert eigh_stacks == [5, 5, 4]
        assert kmax_stacks == joint_stacks == [(5, n), (5, n), (4, n)]
        # the fixed-bound map also ran once at load, on one flat row, to check its bound
        assert fixed_stacks == [(1, n)] + kmax_stacks
        assert stats_built == []

    @pytest.mark.parametrize("corrupted", [False, True])
    def test_pass_size_changes_no_output(self, tmp_path, monkeypatch, corrupted):
        n, k_list, trials = 20, (20, 40), 60
        names = ("SMI", "FML", "RCML_EL", "RCML_EL_SIGMA", "RCML_FIXED(5)", "CNCML_ML",
                 "CNCML_FIXED(8)", "CNCML_EL", "LSMI_EL")
        assert {EstimatorSpec.parse(t).name for t in names} == set(harness._ESTIMATORS)
        corruption = CorruptionSpec(fraction=0.5, amplitude=50.0,
                                    steering=steering_vector(n, 0.0)) if corrupted else None
        outputs = []
        cells = [(k, t) for k in k_list for t in range(trials)]
        # three budgets: passes of one cell; the default (k = 20's 60 cells
        # and k = 40's first 14, then its last 46); and one pass for all
        for budget, sizes in ((1, [1] * len(cells)), (harness._PASS_ELEMENTS, [74, 46]),
                              (trials * n * (2 * n + sum(k_list)), [len(cells)])):
            monkeypatch.setattr(harness, "_PASS_ELEMENTS", budget)
            out = tmp_path / f"out{budget}"
            cfg = noise_only_config(
                tmp_path, scenario=reference_scenario(), k_list=k_list, trials=trials,
                estimators=tuple(EstimatorSpec.parse(t) for t in names), output_path=str(out),
                lr0_table_path=str(tmp_path / "lr0.txt"), r_init=3,
                corruption=corruption,
            )
            assert [len(p) for p in harness._passes(n, cells)] == sizes
            run_experiment(cfg)
            outputs.append([(out / name).read_bytes() for name in ("trials.csv", "summary.csv")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_pass_budget_bounds_training_and_bases(self, tmp_path, monkeypatch):
        # at N = 4 and K = 1000 or 600 the training dwarfs the bases: every
        # pass the sweep draws holds at most _PASS_ELEMENTS elements of both
        n, k_list, trials = 4, (1000, 600), 100
        budget = harness._PASS_ELEMENTS
        cells = [(k, t) for k in k_list for t in range(3000)]
        passes = harness._passes(n, cells)
        assert max(map(len, passes)) == 27
        assert len(passes[0]) == 16
        assert all(sum(n * (n + k) for k, _ in p) <= budget for p in passes)
        assert any(len({k for k, _ in p}) == 2 for p in passes)
        draws, stacks = [], []
        draw_inner, eigh_inner = harness._draw_rows, harness._eigh_desc

        def draw_rows(factor, k, corruption, rngs):
            z, picks = draw_inner(factor, k, corruption, rngs)
            draws.append(z.shape)
            return z, picks

        def eigh(h):
            stacks.append(len(h))
            return eigh_inner(h)

        monkeypatch.setattr(harness, "_draw_rows", draw_rows)
        monkeypatch.setattr(harness, "_eigh_desc", eigh)
        cfg = noise_only_config(
            tmp_path, scenario=ScenarioConfig(n=n, jammer_powers=(100.0,), jammer_angles=(20.0,),
                                              jammer_bandwidths=(0.1,), noise_power=1.0),
            k_list=k_list, trials=trials,
            estimators=(EstimatorSpec.parse("SMI"), EstimatorSpec.parse("FML")),
        )
        assert len(run_experiment(cfg)) == 2 * len(k_list) * trials
        assert sum(b for b, _, _ in draws) == sum(stacks) == len(k_list) * trials
        assert all(shape[1] == n for shape in draws)
        # each pass's draws, one per run of a sample count, in order
        runs = iter(draws)
        for rows in stacks:
            elements = 0
            while rows > 0:
                b, _, k = next(runs)
                elements, rows = elements + b * n * (n + k), rows - b
            assert rows == 0
            assert elements <= budget
        assert len(draws) > len(stacks)  # some pass spans both sample counts

    def test_failed_stacked_pass_raises_at_its_trial(self, tmp_path, monkeypatch):
        # trial 1 of the pass has a singular sample covariance, so LSMI_EL's
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
        # one pass of 4 cells over both sample counts, in which LSMI_EL fails
        # on row 2 (k = 20, singular) and the kmax core is made to reject
        # row 1 (k = 30): the estimator listed first raises, whichever row and
        # sample count it fails on, and no cell is scored
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
            tmp_path, scenario=reference_scenario(), k_list=(30, 20), trials=2,
            estimators=tuple(EstimatorSpec.parse(t) for t in names),
            lr0_table_path=str(tmp_path / "lr0.txt"),
        )
        cells = [(30, 0), (30, 1), (20, 0), (20, 1)]
        assert harness._passes(20, cells) == [cells]
        with pytest.raises(error, match=match):
            run_experiment(cfg)
        assert len(rejected) == 1
        assert scored == []
        assert not (tmp_path / "out" / "trials.csv").exists()


class TestStackedEstimators:
    def test_sweep_builds_no_constraint_record(self, tmp_path, monkeypatch):
        """Every map returns its constraints as columns: a sweep with every
        estimator fills its records from them and constructs no
        ConstraintRecord, inside a timed map or out of it."""
        built = []
        inner = ConstraintRecord.__init__

        def init(record, *args, **kwargs):
            built.append(record)
            inner(record, *args, **kwargs)

        names = ("SMI", "FML", "RCML_EL", "RCML_EL_SIGMA", "RCML_FIXED(5)", "CNCML_ML",
                 "CNCML_FIXED(8)", "CNCML_EL", "LSMI_EL")
        assert {EstimatorSpec.parse(t).name for t in names} == set(harness._ESTIMATORS)
        cfg = noise_only_config(
            tmp_path, scenario=reference_scenario(), k_list=(20, 30), trials=3,
            estimators=tuple(EstimatorSpec.parse(t) for t in names), r_init=3,
            lr0_table_path=str(tmp_path / "lr0.txt"))
        monkeypatch.setattr(ConstraintRecord, "__init__", init)
        assert len(run_experiment(cfg)) == len(names) * 2 * 3
        assert built == []
        # the counter sees a record built where one is still built
        smi(SampleStats.from_sample_covariance(np.eye(4), 8, 1.0))
        assert len(built) == 1

    def test_joint_rows_build_each_estimate_once(self, tmp_path, monkeypatch):
        """RCML_EL_SIGMA's rows are the joint core's winning candidates, not
        rebuilt by the RCML map: a sweep gives the same records without it."""
        cfg = noise_only_config(
            tmp_path, scenario=reference_scenario(), k_list=(20, 30), trials=4,
            estimators=(EstimatorSpec.parse("RCML_EL_SIGMA"),), r_init=3,
        )
        expected = run_experiment(cfg)

        def rebuilt(*args):
            raise AssertionError("RCML_EL_SIGMA rebuilt its rows")

        monkeypatch.setattr(harness, "_rcml_rows", rebuilt)
        got = run_experiment(cfg)
        assert [(r.r_hat, r.sigma2_hat, r.sinr_db) for r in got] == [
            (r.r_hat, r.sigma2_hat, r.sinr_db) for r in expected
        ]

    def test_builds_equal_per_spectrum_estimators(self, rng):
        """Each estimator, built on one spectrum and row by row in a pass
        whose rows differ in sample count and lr0, equals the library
        estimator it replaces, bit for bit."""
        for _ in range(40):
            n, b = int(rng.integers(2, 40)), int(rng.integers(1, 8))
            ks = [int(k) for k in rng.choice([2 * n, 3 * n], b)]
            lr0s = [float(lr0) for lr0 in rng.choice([0.02, 0.3, 0.6], b)]
            r_init = int(rng.integers(n))
            sigma2 = float(rng.uniform(0.2, 5.0))
            d = np.sort(np.exp(rng.normal(0.0, 2.0, (b, n))) * sigma2, axis=1)[:, ::-1].copy()
            d[:, n - n // 3 :] = d[:, -1:]  # tied tails
            r = int(rng.integers(n + 1))
            kmax = float(np.exp(rng.uniform(0.0, 8.0)))
            v = np.stack([eig_hermitian(random_hermitian(rng, n)).eigenvectors for _ in range(b)])
            z = [sample_training(v_i * np.sqrt(d_i), k, rng) for v_i, d_i, k in zip(v, d, ks)]
            nmf = steering_vector(n, float(rng.uniform(-90.0, 90.0)))
            one_pass = harness._Pass(d, v, z, sigma2, np.array([math.log(lr0) for lr0 in lr0s]),
                                     r_init, nmf)
            specs = [EstimatorSpec.parse(t)
                     for t in ("SMI", "FML", f"RCML_FIXED({r})", "RCML_EL", "CNCML_ML", "LSMI_EL",
                               "CNCML_EL", f"CNCML_FIXED({kmax!r})", "RCML_EL_SIGMA")]
            for spec in specs:
                lambdas, columns = harness._ESTIMATORS[spec.name].rows(one_pass, spec.param)
                assert [len(column) for column in columns.values()] == [b] * len(columns)
                for i, (row, k, lr0) in enumerate(zip(d, ks, lr0s)):
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
                    row_constraints = ConstraintRecord(
                        **{name: column[i] for name, column in columns.items()})
                    for est in (one, CovarianceEstimate(lambdas[i], basis, row_constraints)):
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

    @pytest.mark.parametrize("spoil, message", [
        (lambda z, s: (np.where(z == z[2, 5], np.nan, z), s),
         "training columns must be nonzero and finite"),
        (lambda z, s: (z * (np.arange(24) != 5), s), "training columns must be nonzero and finite"),
        (lambda z, s: (z[:5], s), "training must be an n-by-k matrix with at least one column"),
        (lambda z, s: (z, 2.0 * s), "steering must be a unit-norm length-n vector"),
    ], ids=["nan-entry", "zero-column", "row-count", "steering-norm"])
    def test_joint_input_is_checked_as_select_rank_sigma_checks_it(self, rng, spoil, message):
        # a sweep's map trusts the training it draws; a given one is checked,
        # where unchecked it gave a result, a divide warning or a numpy error
        stats = stats_from_spectrum([40.0, 15.0, 1.05, 1.0, 0.95, 0.9], k=24)
        z = (rng.standard_normal((6, 24)) + 1j * rng.standard_normal((6, 24))) / np.sqrt(2)
        z, steering = spoil(z, steering_vector(6, 0.0))
        with pytest.raises(InputError) as built:
            build_estimate(EstimatorSpec.parse("RCML_EL_SIGMA"), stats, 0.95, (2, z, steering))
        with pytest.raises(InputError) as selected:
            select_rank_sigma(stats.s_eig, 24, 2, 0.95, z, steering)
        assert str(built.value) == str(selected.value) == message


class TestOneLogLr0:
    """A sweep holds each sample count's log lr0 and nothing else of lr0."""

    def test_joint_rows_skip_the_public_selectors(self, tmp_path, monkeypatch):
        import elcov.selection as selection

        def refuse(*args):
            raise AssertionError("a sweep called a public selector")

        monkeypatch.setattr(selection, "select_rank_sigma", refuse)
        monkeypatch.setattr(selection, "sigma_el_roots", refuse)
        cfg = noise_only_config(
            tmp_path, scenario=reference_scenario(), k_list=(20, 40), trials=3,
            estimators=(EstimatorSpec.parse("RCML_EL_SIGMA"),),
        )
        records = run_experiment(cfg)
        assert len(records) == 6 and all(rec.r_hat is not None for rec in records)

    def test_underflowed_lr0_runs_and_is_not_stored(self, tmp_path):
        # lr0(760, 760) underflows to 0: the sweep reads the computed log
        # median, and the absent table stays absent
        table = tmp_path / "lr0.txt"
        for path in (None, table):
            cfg = noise_only_config(
                tmp_path, scenario=ScenarioConfig(n=760), k_list=(760,),
                estimators=(EstimatorSpec.parse("RCML_EL"),),
                lr0_table_path=None if path is None else str(path),
            )
            (record,) = run_experiment(cfg)
            assert record.r_hat is not None and math.isfinite(record.sinr_db)
            assert (tmp_path / "out" / "summary.csv").exists()
        assert not table.exists()

    @pytest.mark.parametrize("n, k", [(1, 2), (2, 6), (3, 6), (3, 9), (3, 12)])
    def test_computed_and_stored_lr0_write_the_same_bytes(self, tmp_path, monkeypatch, n, k):
        # at these pairs log(exp(x)) != x for the computed log median x; the
        # sweep reads log(lr0), which a stored record reproduces
        seen, inner = [], harness._rank_rows

        def rank_rows(d, sigma2, log_lr0):
            seen.append(log_lr0.tolist())
            return inner(d, sigma2, log_lr0)

        monkeypatch.setattr(harness, "_rank_rows", rank_rows)
        names = ("RCML_EL", "CNCML_EL", "LSMI_EL") + (("RCML_EL_SIGMA",) if n > 1 else ())
        table, outputs = tmp_path / "lr0.txt", []
        # computed without a table, computed with an absent one, and read
        # back once elcov lr0's lr0_store has pinned it
        for run, path in enumerate((None, table, table)):
            if run == 2:
                assert not table.exists()
                lr0_store(lr0_reference(n, k), table)
            cfg = noise_only_config(
                tmp_path, scenario=ScenarioConfig(n=n), k_list=(k,), trials=4,
                estimators=tuple(EstimatorSpec.parse(t) for t in names),
                lr0_table_path=None if path is None else str(path),
                output_path=str(tmp_path / f"out{run}"),
            )
            run_experiment(cfg)
            outputs.append([(tmp_path / f"out{run}" / name).read_bytes()
                            for name in ("trials.csv", "summary.csv")])
        assert outputs[0] == outputs[1] == outputs[2]
        assert seen == [[math.log(lr0_load(n, k, table).lr0)] * 4] * 3


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


class TestBlockedScoring:
    """A pass scores its cells in blocks, one scoring call a block; each
    score equals the former per-cell scorer's bit for bit, and each record
    is charged its block's time over the block's scores."""

    @pytest.mark.parametrize("s", [1, 16, 19])
    @pytest.mark.parametrize("n", [4, 20, 64])
    def test_blocks_equal_per_cell_oracle(self, rng, n, s):
        cells = 81
        h = rng.standard_normal((cells, n, n)) + 1j * rng.standard_normal((cells, n, n))
        _, v = harness._eigh_desc(h + h.conj().swapaxes(-1, -2))
        r_true = random_psd(rng, n) + 0.1 * np.eye(n)
        steer = rng.standard_normal((n, s)) + 1j * rng.standard_normal((n, s))
        steer /= np.linalg.norm(steer, axis=0)
        den_true = np.abs(np.sum(steer.conj() * np.linalg.solve(r_true, steer), axis=0))
        w0, g = _eigenbasis_projections(v, r_true, steer)
        spectra = np.exp(rng.normal(0.0, 2.0, (cells, 9, n)))
        for e in (1, 7, 9):
            for b in (1, 5, 81):
                estimates = np.ascontiguousarray(spectra[:b, :e])
                sinr_db, _ = _score_pass(estimates, w0[:b], g[:b], den_true)
                oracle = [sinr_scorer_oracle(estimates[i], w0[i], g[i], den_true)
                          for i in range(b)]
                assert np.shape(sinr_db) == (b, e)
                assert np.array_equal(np.array(sinr_db).view(np.uint64),
                                      np.array(oracle).view(np.uint64))

    def test_wall_time_is_pass_share_plus_block_share(self, tmp_path, monkeypatch):
        # a clock that ticks 1 s a call, so each estimator map and each
        # scoring call takes 1 s
        ticks = itertools.count()
        monkeypatch.setattr(harness, "time",
                            SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        scored, score_inner = [], harness._sinr_scorer

        def score(lambdas, *args):
            scored.append(len(lambdas))
            return score_inner(lambdas, *args)

        monkeypatch.setattr(harness, "_sinr_scorer", score)
        n, k_list, trials, e = 20, (20, 30), 10, 3
        # passes of 11 cells (k = 20's 10 and k = 30's first) and 9; blocks of
        # 8 192 // (3 * 20 * 18) = 7 cells
        monkeypatch.setattr(harness, "_PASS_ELEMENTS", 9 * n * (n + 30))
        cfg = noise_only_config(
            tmp_path, scenario=reference_scenario(), k_list=k_list, trials=trials,
            estimators=tuple(EstimatorSpec.parse(t) for t in ("SMI", "FML", "CNCML_FIXED(8)")),
        )
        records = run_experiment(cfg)
        passes = harness._passes(n, [(k, t) for k in k_list for t in range(trials)])
        blocks = ([7, 4], [7, 2])
        assert [len(p) for p in passes] == [11, 9]
        assert scored == sum(blocks, [])
        # each record: its estimator's map over its pass's cells, plus its
        # block's scoring call over the block's b cells times E estimators
        assert [r.wall_time for r in records] == [
            1.0 / len(p) + 1.0 / (b * e) for p, sizes in zip(passes, blocks)
            for b in sizes for _ in range(b * e)]
        # a pass's records add up to its E estimator maps and its scoring calls
        start = 0
        for p, sizes in zip(passes, blocks):
            rows = records[start : start + len(p) * e]
            assert math.fsum(r.wall_time for r in rows) == pytest.approx(e + len(sizes), rel=1e-14)
            start += len(rows)
        assert start == len(records)


def _on_main_thread() -> bool:
    return threading.current_thread() is threading.main_thread()


def _logged(log, label, fn):
    """``fn``, appending ``(label, on the main thread, start, end)`` to
    ``log`` for each call, whether it returns or raises."""
    def call(*args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            log.append((label, _on_main_thread(), start, time.perf_counter()))
    return call


class _InlineExecutor:
    """A stand-in for ``ThreadPoolExecutor`` that runs each submitted call
    at once, on the calling thread: the sweep then draws every pass
    inline, as a one-pass sweep does."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class TestOverlappedDraw:
    """A worker thread draws each pass but the first while the main thread
    decomposes the pass before it; the outputs, the errors and their order
    are those of the inline sweep, and no timed work shares the CPU with
    it."""

    # the README's scenario and sweep, with every estimator kind
    README_SCENARIO = ScenarioConfig(
        n=20, noise_power=1.0, jammer_powers=(10.0, 100.0, 1000.0),
        jammer_angles=(0.349, 0.698, 1.047), jammer_bandwidths=(0.2, 0.0, 0.3),
        angle_mode="radians",
    )
    NAMES = ("SMI", "FML", "RCML_EL", "RCML_EL_SIGMA", "RCML_FIXED(5)", "CNCML_ML",
             "CNCML_FIXED(3)", "CNCML_EL", "LSMI_EL", "CNCML_FIXED(8)")

    def _config(self, tmp_path, sweep, out):
        if sweep == "large-n":
            base = dict(scenario=six_jammer_scenario(64), k_list=(64, 128), trials=12)
        else:
            corruption = CorruptionSpec(fraction=0.5, amplitude=50.0,
                                        steering=steering_vector(20, 0.0))
            base = dict(scenario=self.README_SCENARIO, k_list=(20, 30, 40), trials=100,
                        corruption=corruption if sweep == "corrupted" else None)
        base.update(master_seed=2024, estimators=tuple(map(EstimatorSpec.parse, self.NAMES)),
                    r_init=3, lr0_table_path=str(tmp_path / "lr0.txt"),
                    output_path=str(tmp_path / out))
        return ExperimentConfig(**base)

    def _small(self, tmp_path):
        # three passes of 4, 4 and 2 cells at k = 20 under small_passes
        cfg = noise_only_config(
            tmp_path, scenario=reference_scenario(), k_list=(20,), trials=10,
            estimators=(EstimatorSpec.parse("SMI"), EstimatorSpec.parse("FML")))
        return cfg, [4, 4, 2]

    @pytest.fixture
    def small_passes(self, monkeypatch):
        monkeypatch.setattr(harness, "_PASS_ELEMENTS", 4 * 20 * (20 + 20))
        assert [len(p) for p in harness._passes(20, [(20, t) for t in range(10)])] == [4, 4, 2]

    @pytest.mark.parametrize("sweep", ["clean", "corrupted", "large-n"])
    @pytest.mark.parametrize("budget", [harness._PASS_ELEMENTS, 1], ids=["default", "one-cell"])
    def test_overlapped_and_inline_sweeps_write_the_same_bytes(
        self, tmp_path, monkeypatch, sweep, budget
    ):
        monkeypatch.setattr(harness, "_PASS_ELEMENTS", budget)
        log = []
        monkeypatch.setattr(harness, "_draw_pass", _logged(log, "draw", harness._draw_pass))
        monkeypatch.setattr(harness, "_eigh_desc", _logged(log, "eigh", harness._eigh_desc))
        outputs = []
        for overlap in (True, False):
            if not overlap:
                monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _InlineExecutor)
            out = tmp_path / f"out{overlap}"
            run_experiment(self._config(tmp_path, sweep, out.name))
            outputs.append([(out / name).read_bytes() for name in ("trials.csv", "summary.csv")])
        assert outputs[0] == outputs[1]
        # every draw but the first of the overlapped sweep ran on the
        # worker, every draw of the inline sweep on the main thread, and
        # every eigh of both on the main thread
        draws = [main for label, main, _, _ in log if label == "draw"]
        passes = len(draws) // 2
        assert passes > 1
        assert draws == [True] + [False] * (passes - 1) + [True] * passes
        assert [main for label, main, _, _ in log if label == "eigh"] == [True] * (2 * passes)

    def test_timed_work_never_overlaps_a_worker_draw(self, tmp_path, monkeypatch, small_passes):
        log, draw_inner, eigh_inner, threads_seen = [], harness._draw_pass, harness._eigh_desc, []
        started = threading.Semaphore(0)  # released as each worker draw starts
        eighs = []

        def draw(*args):
            threads_seen.append(threading.active_count())
            if not _on_main_thread():
                started.release()
                time.sleep(0.02)  # long enough for timed work to overlap it, were it not held
            return draw_inner(*args)

        def eigh(h):
            # every eigh but the last waits until the next pass's draw has
            # started, so an eigh that ran before that draw was submitted
            # would time out here
            eighs.append(len(eighs) == 2 or started.acquire(timeout=5.0))
            return eigh_inner(h)

        monkeypatch.setattr(harness, "_draw_pass", _logged(log, "draw", draw))
        monkeypatch.setattr(harness, "_eigh_desc", _logged(log, "eigh", eigh))
        monkeypatch.setattr(harness, "_sinr_scorer", _logged(log, "score", harness._sinr_scorer))
        for name, estimator in harness._ESTIMATORS.items():
            monkeypatch.setitem(harness._ESTIMATORS, name,
                                estimator._replace(rows=_logged(log, "map", estimator.rows)))
        cfg, sizes = self._small(tmp_path)
        threads = threading.active_count()
        run_experiment(cfg)
        # pass 0 is drawn before any thread starts, the others on the worker
        assert threads_seen == [threads] + [threads + 1] * (len(sizes) - 1)
        assert threading.active_count() == threads
        assert eighs == [True] * len(sizes)
        assert [main for label, main, _, _ in log if label == "draw"] == [True, False, False]
        assert [main for label, main, _, _ in log if label == "eigh"] == [True, True, True]
        worker = [(start, end) for label, main, start, end in log if label == "draw" and not main]
        timed = [(start, end) for label, _, start, end in log if label in ("map", "score")]
        assert len(timed) == 3 * 2 + 3  # two maps a pass and a scoring block a pass
        assert all(end <= start or begin >= stop for begin, end in timed for start, stop in worker)
        # each next-pass draw starts before the current pass's eigh ends
        eigh_ends = [end for label, _, _, end in log if label == "eigh"]
        assert all(start < end for (start, _), end in zip(worker, eigh_ends))

    def test_one_pass_sweep_starts_no_thread(self, tmp_path, monkeypatch):
        seen, draw_inner, eigh_inner = [], harness._draw_pass, harness._eigh_desc

        def draw(*args):
            seen.append(("draw", _on_main_thread(), threading.active_count()))
            return draw_inner(*args)

        def eigh(h):
            seen.append(("eigh", _on_main_thread(), threading.active_count()))
            return eigh_inner(h)

        monkeypatch.setattr(harness, "_draw_pass", draw)
        monkeypatch.setattr(harness, "_eigh_desc", eigh)
        threads = threading.active_count()
        cfg, _ = self._small(tmp_path)
        cfg.trials = 3
        assert len(run_experiment(cfg)) == 6
        assert seen == [("draw", True, threads), ("eigh", True, threads)]
        assert threading.active_count() == threads

    def test_draw_error_waits_for_the_pass_before_it(
        self, tmp_path, monkeypatch, small_passes
    ):
        # pass 1's training overflows: its sample covariance raises on the
        # worker, and the same error ends the sweep once pass 0 has been
        # built and scored; nothing is written
        draw_inner, pass_inner, calls, scored, raised = (
            harness._draw_rows, harness._draw_pass, [], [], [])

        def draw_rows(factor, k, corruption, rngs):
            z, picks = draw_inner(factor, k, corruption, rngs)
            calls.append(len(rngs))
            if len(calls) == 2:
                z[0, 0, 0] = np.inf
            return z, picks

        def draw_pass(*args):
            try:
                return pass_inner(*args)
            except InputError as exc:
                raised.append((_on_main_thread(), exc))
                raise

        monkeypatch.setattr(harness, "_draw_rows", draw_rows)
        monkeypatch.setattr(harness, "_draw_pass", draw_pass)
        monkeypatch.setattr(harness, "_sinr_scorer",
                            _logged(scored, "score", harness._sinr_scorer))
        threads = threading.active_count()
        cfg, _ = self._small(tmp_path)
        with pytest.raises(InputError, match="sample covariance must be finite") as caught:
            run_experiment(cfg)
        assert raised == [(False, caught.value)]
        assert calls == [4, 4]
        assert len(scored) == 1  # pass 0's one block of 4 cells
        assert not (tmp_path / "out").exists()
        assert threading.active_count() == threads

    def test_failing_estimator_beats_the_next_pass_draw_error(
        self, tmp_path, monkeypatch, small_passes
    ):
        # pass 1's draw fails, but FML fails on pass 0 first
        draw_inner, draws = harness._draw_rows, []

        def draw_rows(factor, k, corruption, rngs):
            draws.append(len(rngs))
            if len(draws) == 2:
                raise InputError("training entries and their sample covariance must be finite")
            return draw_inner(factor, k, corruption, rngs)

        def failing(p, param):
            raise NoRootError("FML fails on pass 0")

        monkeypatch.setattr(harness, "_draw_rows", draw_rows)
        monkeypatch.setitem(harness._ESTIMATORS, "FML",
                            harness._ESTIMATORS["FML"]._replace(rows=failing))
        threads = threading.active_count()
        cfg, _ = self._small(tmp_path)
        with pytest.raises(NoRootError, match="FML fails on pass 0"):
            run_experiment(cfg)
        # pass 1 was drawn, and failed, before pass 0 was built
        assert draws == [4, 4]
        assert not (tmp_path / "out").exists()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("draw_fails", [False, True], ids=["draw-ok", "draw-fails"])
    def test_eigh_error_surfaces_at_its_own_pass(
        self, tmp_path, monkeypatch, small_passes, draw_fails
    ):
        # pass 1's eigh raises on the main thread: the same error object
        # ends the sweep before pass 1 is built, even when pass 2's draw,
        # which ran meanwhile on the worker, fails too
        error = np.linalg.LinAlgError("Eigenvalues did not converge")
        eigh_inner, draw_inner, on_main, scored, draws = (
            harness._eigh_desc, harness._draw_rows, [], [], [])

        def eigh(h):
            on_main.append(_on_main_thread())
            if len(on_main) == 2:
                raise error
            return eigh_inner(h)

        def draw_rows(factor, k, corruption, rngs):
            draws.append(len(rngs))
            if draw_fails and len(draws) == 3:
                raise InputError("training entries and their sample covariance must be finite")
            return draw_inner(factor, k, corruption, rngs)

        monkeypatch.setattr(harness, "_eigh_desc", eigh)
        monkeypatch.setattr(harness, "_draw_rows", draw_rows)
        monkeypatch.setattr(harness, "_sinr_scorer",
                            _logged(scored, "score", harness._sinr_scorer))
        threads = threading.active_count()
        cfg, _ = self._small(tmp_path)
        with pytest.raises(np.linalg.LinAlgError) as caught:
            run_experiment(cfg)
        assert caught.value is error
        assert on_main == [True, True]
        assert len(scored) == 1  # pass 0 only
        assert draws == [4, 4, 2]
        assert not (tmp_path / "out").exists()
        assert threading.active_count() == threads


class TestScaleEquivariance:
    NAMES = ("SMI", "FML", "RCML_EL", "RCML_FIXED(5)", "RCML_EL_SIGMA", "CNCML_ML",
             "CNCML_FIXED(8)", "CNCML_EL", "LSMI_EL")

    def _sweep(self, tmp_path, c):
        ref = reference_scenario()
        scenario = ScenarioConfig(
            n=ref.n, jammer_powers=tuple(c * p for p in ref.jammer_powers),
            jammer_angles=ref.jammer_angles, jammer_bandwidths=ref.jammer_bandwidths,
            noise_power=c * ref.noise_power, angle_mode=ref.angle_mode,
        )
        cfg = noise_only_config(
            tmp_path, scenario=scenario, k_list=(20, 30, 40), trials=100,
            estimators=tuple(EstimatorSpec.parse(t) for t in self.NAMES),
            lr0_table_path=str(tmp_path / "lr0.txt"), output_path=str(tmp_path / f"out{c}"),
        )
        return run_experiment(cfg)

    @pytest.mark.parametrize("c", [2.0**10, 2.0**-6], ids=["2^10", "2^-6"])
    def test_scaling_every_power_scales_only_the_powers(self, tmp_path, c):
        """Scaling the noise and jammer powers by ``c`` scales the true
        covariance, its square-root factor (``c`` an even power of 2, so
        exactly), the training and every sample spectrum by ``c``.  Each
        estimator then picks the same constraints, its noise power and
        loading scale by ``c``, and its SINR stays.  The estimators whose
        selection is a comparison or a ratio do so bit for bit; the joint and
        loading selectors take logs of the scaled spectrum, so to rounding."""
        base, scaled = self._sweep(tmp_path, 1.0), self._sweep(tmp_path, c)
        assert len(base) == len(scaled) == 300 * len(self.NAMES)
        for one, two in zip(base, scaled):
            key = (one.k, one.trial_index, one.estimator, one.r_hat, one.kmax_hat)
            assert key == (two.k, two.trial_index, two.estimator, two.r_hat, two.kmax_hat)
            if one.estimator in ("RCML_EL_SIGMA", "LSMI_EL"):
                assert two.sinr_db == pytest.approx(one.sinr_db, rel=1e-12)
                for a, b in ((one.sigma2_hat, two.sigma2_hat), (one.beta_hat, two.beta_hat)):
                    assert a is b is None or b / c == pytest.approx(a, rel=1e-12)
            else:
                assert (two.sinr_db, two.beta_hat) == (one.sinr_db, None)
                assert two.sigma2_hat == (None if one.sigma2_hat is None else c * one.sigma2_hat)
