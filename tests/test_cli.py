import importlib
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import stats_from_spectrum
from elcov import (
    InputError,
    LRReference,
    SampleStats,
    lr0_load,
    lr0_reference,
    lr0_store,
    matrix_load,
    matrix_save,
    normalized_sinr,
    read_cmat,
    select_kmax,
    select_loading,
    select_rank,
    select_rank_sigma,
    steering_vector,
    write_cmat,
)
from elcov.cli import _build_parser, cli
from elcov.harness import _CONFIG_SCHEMA, EstimatorSpec, build_estimate, load_experiment_config


def kv(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def _src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


@pytest.fixture
def sample_cov(tmp_path, rng):
    d = np.array([9.0, 4.0, 0.6, 0.3])
    path = tmp_path / "s.cmat"
    matrix_save(np.diag(d).astype(complex), path)
    return path, d


class TestLr0Command:
    def test_adds_table_row(self, tmp_path, capsys):
        table = tmp_path / "t.txt"
        code = cli(["lr0", "--n", "4", "--k", "16", "--table", str(table)])
        assert code == 0
        pairs = kv(capsys)
        ref = lr0_load(4, 16, table)
        assert ref == lr0_reference(4, 16)
        assert list(pairs) == ["n", "k", "lr0", "log_q05", "log_q25", "log_q50", "log_q75",
                               "log_q95", "table"]
        assert pairs["lr0"] == f"{ref.lr0:.12g}"
        assert [pairs[f"log_q{p}"] for p in ("05", "25", "50", "75", "95")] == [
            f"{v:.12g}" for v in ref.log_quantiles]

    def test_csv_format(self, tmp_path, capsys):
        code = cli(["lr0", "--n", "2", "--k", "8", "--table", str(tmp_path / "t.txt"),
                    "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "key,value"

    def test_refuses_k_below_n(self, tmp_path, capsys):
        table = tmp_path / "t.txt"
        assert cli(["lr0", "--n", "6", "--k", "4", "--table", str(table)]) == 1
        assert capsys.readouterr().err == "error: no lr0 for (n=6, k=4): k < n has no reference\n"
        assert not table.exists()

    def test_stores_a_median_that_underflows(self, tmp_path, capsys):
        # at N = K = 800 lr0 underflows to 0; the table holds its finite log
        table = tmp_path / "t.txt"
        assert cli(["lr0", "--n", "800", "--k", "800", "--table", str(table)]) == 0
        pairs = kv(capsys)
        ref = lr0_reference(800, 800)
        assert (pairs["lr0"], pairs["log_q50"]) == ("0", f"{ref.log_lr0:.12g}")
        assert pairs["log_q50"].startswith("-799.43")
        assert lr0_load(800, 800, table) == ref

    def test_refuses_to_append_to_a_cmat_file(self, sample_cov, capsys):
        path, d = sample_cov
        before = path.read_bytes()
        assert cli(["lr0", "--n", "4", "--k", "8", "--table", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}, line 1: expected header 'LR0TABLE v2'\n")
        assert path.read_bytes() == before
        assert np.array_equal(matrix_load(path), np.diag(d))

    def test_module_entry_point_writes_table(self, tmp_path):
        # ``python -m elcov.cli`` runs the command, not just the import
        proc = subprocess.run(
            [sys.executable, "-m", "elcov.cli", "lr0", "--n", "2", "--k", "4", "--table", "t"],
            cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert lr0_load(2, 4, tmp_path / "t") is not None

    def test_console_script_writes_table(self, tmp_path, monkeypatch, capsys):
        # the ``elcov`` command that pyproject.toml installs, called as its wrapper calls it
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        module, _, name = target["elcov"].partition(":")
        table = tmp_path / "t"
        monkeypatch.setattr(sys, "argv", ["elcov", "lr0", "--n", "2", "--k", "4",
                                          "--table", str(table)])
        with pytest.raises(SystemExit) as exc:
            getattr(importlib.import_module(module), name)()
        assert exc.value.code == 0
        assert kv(capsys)["table"] == str(table)
        assert lr0_load(2, 4, table) is not None


class TestEstimateCommand:
    def test_fml(self, sample_cov, capsys):
        path, d = sample_cov
        code = cli(["estimate", "--input", str(path), "--k", "8",
                    "--sigma2", "1.0", "--estimator", "FML"])
        assert code == 0
        pairs = kv(capsys)
        assert pairs["estimator"] == "FML"
        eigs = [float(x) for x in pairs["eigenvalues"].split(",")]
        assert eigs == pytest.approx([9.0, 4.0, 1.0, 1.0])
        assert 0.0 < float(pairs["lr"]) <= 1.0

    def test_rcml_requires_rank(self, sample_cov, capsys):
        path, _ = sample_cov
        assert cli(["estimate", "--input", str(path), "--k", "8",
                    "--sigma2", "1.0", "--estimator", "RCML_FIXED"]) == 1
        assert cli(["estimate", "--input", str(path), "--k", "8",
                    "--sigma2", "1.0", "--estimator", "RCML_FIXED(1)"]) == 0
        pairs = kv(capsys)
        eigs = [float(x) for x in pairs["eigenvalues"].split(",")]
        assert eigs == pytest.approx([9.0, 1.0, 1.0, 1.0])

    def test_cncml_reports_condition_number(self, sample_cov, capsys):
        path, _ = sample_cov
        assert cli(["estimate", "--input", str(path), "--k", "8",
                    "--sigma2", "1.0", "--estimator", "CNCML_FIXED(4)"]) == 0
        pairs = kv(capsys)
        assert float(pairs["condition_number"]) == pytest.approx(4.0, abs=1e-9)

    def test_smi_without_sigma2(self, sample_cov, capsys):
        path, d = sample_cov
        assert cli(["estimate", "--input", str(path), "--k", "8", "--estimator", "SMI"]) == 0
        pairs = kv(capsys)
        assert float(pairs["lr"]) == pytest.approx(1.0)

    @pytest.mark.parametrize("fmt, first", [("kv", ["estimator=RCML_FIXED(2)"]),
                                            ("csv", ["key,value", "estimator,RCML_FIXED(2)"])])
    def test_names_the_estimator_as_trials_csv_does(self, sample_cov, capsys, fmt, first):
        path, _ = sample_cov
        assert cli(["estimate", "--input", str(path), "--k", "8", "--sigma2", "1.0",
                    "--estimator", " rcml_fixed(2.0) ", "--format", fmt]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:len(first)] == first
        assert str(EstimatorSpec.parse("rcml_fixed(2.0)")) == "RCML_FIXED(2)"

    @pytest.mark.parametrize("text", ["SMI", "FML", "RCML_FIXED(1)", "CNCML_ML",
                                      "CNCML_FIXED(4)"])
    def test_prints_what_build_estimate_returns(self, sample_cov, capsys, monkeypatch, text):
        # an estimator that reads no lr0 computes none and prints none
        monkeypatch.setattr("elcov.cli.lr0_reference", _no_lr0_work)
        path, d = sample_cov
        assert cli(["estimate", "--input", str(path), "--k", "8", "--sigma2", "0.5",
                    "--estimator", text]) == 0
        stats = stats_from_spectrum(d, k=8, sigma2=0.5)
        expected = build_estimate(EstimatorSpec.parse(text), stats).lambdas
        pairs = kv(capsys)
        assert pairs["eigenvalues"] == ",".join(f"{v:.12g}" for v in expected)
        assert "lr0" not in pairs and "log_lr0" not in pairs

    @pytest.mark.parametrize("text, message", [
        ("RCML_FIXED(1.5)", "rank 1.5 is not a whole number"),
        ("RCML_FIXED(1_0)", "malformed estimator parameter in 'RCML_FIXED(1_0)'"),
        ("RCML_FIXED(5", "malformed estimator spec 'RCML_FIXED(5'"),
        ("CNCML_FIXED", "estimator CNCML_FIXED requires a parameter, e.g. CNCML_FIXED(5)"),
        ("FML(2)", "estimator FML takes no parameter"),
        ("RCML_FIXED(9)", "rank 9 outside [0, 4]"),
        ("CNCML_FIXED(0.5)", "condition-number bound kmax must be finite and at least 1"),
        ("MVDR", "unknown estimator 'MVDR'; known: SMI, FML, RCML_FIXED, RCML_EL, "
                 "RCML_EL_SIGMA, CNCML_ML, CNCML_FIXED, CNCML_EL, LSMI_EL"),
    ])
    def test_rejects_what_a_config_rejects(self, sample_cov, capsys, text, message):
        path, _ = sample_cov
        assert cli(["estimate", "--input", str(path), "--k", "8", "--sigma2", "1.0",
                    "--estimator", text]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("text, key, select", [
        ("RCML_EL", "rank", lambda stats, lr0: str(select_rank(stats, lr0).r_hat)),
        ("CNCML_EL", "kmax", lambda stats, lr0: f"{select_kmax(stats, lr0).kmax_hat:.12g}"),
        ("LSMI_EL", "beta", lambda stats, lr0: f"{select_loading(stats, lr0):.12g}"),
    ])
    def test_selector_matches_library(self, sample_cov, capsys, text, key, select):
        path, _ = sample_cov
        stats = SampleStats.from_sample_covariance(matrix_load(path), k=8, sigma2=1.0)
        assert cli(["estimate", "--input", str(path), "--k", "8", "--sigma2", "1.0",
                    "--estimator", text, "--lr0", "0.4"]) == 0
        pairs = kv(capsys)
        assert pairs[key] == select(stats, 0.4)
        assert (pairs["lr0"], pairs["log_lr0"]) == ("0.4", f"{math.log(0.4):.12g}")

    def test_selected_loading_meets_lr0(self, sample_cov, capsys):
        path, _ = sample_cov
        assert cli(["estimate", "--input", str(path), "--k", "8", "--estimator", "LSMI_EL",
                    "--lr0", "0.5"]) == 0
        assert float(kv(capsys)["lr"]) == pytest.approx(0.5, abs=1e-6)

    def test_rank_sigma_matches_library(self, tmp_path, capsys, rng):
        s_path, z_path = _joint_files(tmp_path, rng, [40.0, 15.0, 1.05, 1.0, 0.95, 0.9], 24)
        assert cli(["estimate", "--input", str(s_path), "--k", "24", "--estimator",
                    "RCML_EL_SIGMA", "--r-init", "2", "--lr0", "0.95", "--training", str(z_path),
                    "--angle", "12.0"]) == 0
        pairs = kv(capsys)
        stats = SampleStats.from_sample_covariance(matrix_load(s_path), k=24, sigma2=1.0)
        joint = select_rank_sigma(stats.s_eig, 24, 2, 0.95, read_cmat(z_path),
                                  steering_vector(6, 12.0))
        assert (pairs["rank"], pairs["sigma2"]) == (str(joint.r_hat), f"{joint.sigma2_hat:.12g}")

    def test_rank_sigma_rejects_nan_training(self, tmp_path, capsys, rng):
        s_path, z_path = _joint_files(tmp_path, rng, [40.0, 15.0, 1.05, 1.0, 0.95, 0.9], 24)
        z = read_cmat(z_path)
        z[2, 5] = np.nan
        write_cmat(z, z_path)
        assert cli(["estimate", "--input", str(s_path), "--k", "24", "--estimator",
                    "RCML_EL_SIGMA", "--r-init", "2", "--lr0", "0.95",
                    "--training", str(z_path)]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("columns", [4, 12])
    def test_rank_sigma_rejects_training_of_another_sample_count(
        self, tmp_path, capsys, rng, monkeypatch, columns
    ):
        # the joint selection's one input check compares the training's width
        # with k; the CLI makes it before any lr0 work
        monkeypatch.setattr("elcov.cli.lr0_reference", _no_lr0_work)
        s_path, z_path = _joint_files(tmp_path, rng, [9.0, 4.0, 0.6, 0.3], columns)
        assert cli(["estimate", "--input", str(s_path), "--k", "8", "--estimator",
                    "RCML_EL_SIGMA", "--r-init", "1", "--training", str(z_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: training has {columns} columns, but k is 8\n"

    @pytest.mark.parametrize("r_init", ["-1", "6"])
    def test_rank_sigma_rejects_r_init_out_of_range(self, tmp_path, capsys, rng, monkeypatch,
                                                    r_init):
        # the joint selection's one input check rejects r_init outside
        # [0, n - 1]; the CLI makes it before any lr0 work
        monkeypatch.setattr("elcov.cli.lr0_reference", _no_lr0_work)
        s_path, z_path = _joint_files(tmp_path, rng, [40.0, 15.0, 1.05, 1.0, 0.95, 0.9], 24)
        assert cli(["estimate", "--input", str(s_path), "--k", "24", "--estimator",
                    "RCML_EL_SIGMA", "--r-init", r_init, "--training", str(z_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: r_init {r_init} outside [0, 5]")

    def test_rank_sigma_reports_missing_training_before_bad_r_init(self, sample_cov, capsys):
        path, _ = sample_cov
        assert cli(["estimate", "--input", str(path), "--k", "8", "--estimator",
                    "RCML_EL_SIGMA", "--r-init", "99"]) == 1
        assert capsys.readouterr().err == (
            "error: --training is required for estimator RCML_EL_SIGMA\n")

    def test_rank_sigma_requires_training(self, sample_cov, capsys, monkeypatch):
        monkeypatch.setattr("elcov.cli.lr0_reference", _no_lr0_work)
        path, _ = sample_cov
        assert cli(["estimate", "--input", str(path), "--k", "8",
                    "--estimator", "RCML_EL_SIGMA"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: --training is required for estimator RCML_EL_SIGMA\n")

    def test_rank_sigma_overflowing_root_is_numerical_error(self, tmp_path, capsys, rng):
        # the larger noise-power root at lr0 = 1e-300 lies beyond the double range
        s_path, z_path = _joint_files(tmp_path, rng, [1e307, 1e306, 1e305, 1e304], 8)
        assert cli(["estimate", "--input", str(s_path), "--k", "8", "--estimator",
                    "RCML_EL_SIGMA", "--lr0", "1e-300", "--training", str(z_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical error: the noise-power roots' closed form overflows "
                                "the double range at log lr0 = -690.775527898\n")

    @pytest.mark.parametrize("text", ["RCML_EL", "RCML_EL_SIGMA", "CNCML_EL", "LSMI_EL"])
    def test_estimator_needing_lr0_is_input_error(self, tmp_path, capsys, rng, text):
        # it computes the reference unless --lr0 is given, and K < N has none
        s_path, z_path = _joint_files(tmp_path, rng, [9.0, 4.0, 0.6, 0.3], 2)
        argv = ["estimate", "--input", str(s_path), "--k", "2", "--sigma2", "1.0",
                "--estimator", text, "--training", str(z_path)]
        assert cli(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: no lr0 for (n=4, k=2): k < n has no reference\n")
        assert cli([*argv, "--lr0", "0.3"]) == 0
        assert kv(capsys)["lr0"] == "0.3"

    @pytest.mark.parametrize("lr0", ["0", "1.5", "nan"])
    def test_lr0_outside_unit_interval_is_input_error(self, sample_cov, capsys, lr0):
        path, _ = sample_cov
        assert cli(["estimate", "--input", str(path), "--k", "8", "--sigma2", "1.0",
                    "--estimator", "RCML_EL", "--lr0", lr0]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: lr0 must lie in (0, 1]\n")

    def test_computes_reference_without_lr0_or_table(self, sample_cov, capsys, monkeypatch):
        path, _ = sample_cov
        monkeypatch.chdir(path.parent)
        assert cli(["estimate", "--input", str(path), "--k", "8", "--sigma2", "1.0",
                    "--estimator", "RCML_EL"]) == 0
        assert kv(capsys)["lr0"] == f"{lr0_reference(4, 8).lr0:.12g}"
        assert list(path.parent.iterdir()) == [path]

    def test_runs_where_the_reference_lr0_underflows(self, tmp_path, capsys, rng):
        # at N = K = 800 lr0 underflows to 0, but its log is finite: the
        # selector takes the reference, not its linear lr0
        n = 800
        d = np.sort(rng.uniform(0.5, 2.0, n))[::-1]
        d[:3] = 50.0, 20.0, 10.0
        path = tmp_path / "s.cmat"
        matrix_save(np.diag(d).astype(complex), path)
        ref = lr0_reference(n, n)
        assert ref.lr0 == 0.0 and math.isfinite(ref.log_lr0)
        assert cli(["estimate", "--input", str(path), "--k", str(n), "--sigma2", "1.0",
                    "--estimator", "RCML_EL"]) == 0
        pairs = kv(capsys)
        assert (pairs["lr0"], pairs["log_lr0"]) == ("0", f"{ref.log_lr0:.12g}")
        assert int(pairs["rank"]) == select_rank(stats_from_spectrum(d, k=n), ref).r_hat
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("text, required", [
        ("SMI", False), ("FML", True), ("RCML_FIXED(1)", True), ("RCML_EL", True),
        ("RCML_EL_SIGMA", False), ("CNCML_ML", True), ("CNCML_FIXED(4)", True),
        ("CNCML_EL", True), ("LSMI_EL", False),
    ])
    def test_sigma2_is_required_where_the_map_reads_it(self, tmp_path, capsys, rng, text,
                                                        required):
        # a map that reads no noise power prints the same whatever --sigma2 says
        s_path, z_path = _joint_files(tmp_path, rng, [9.0, 4.0, 0.6, 0.3], 8)
        argv = ["estimate", "--input", str(s_path), "--k", "8", "--estimator", text,
                "--lr0", "0.3", "--training", str(z_path)]
        if required:
            assert cli(argv) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", f"error: --sigma2 is required for estimator {text}\n")
        else:
            assert cli(argv) == 0
            out = capsys.readouterr().out
            assert cli([*argv, "--sigma2", "7.0"]) == 0
            assert capsys.readouterr().out == out


def _no_lr0_work(*args, **kwargs):
    pytest.fail("lr0_reference was called")


def _joint_files(tmp_path, rng, d, columns):
    """A sample covariance ``diag(d)`` and an ``n``-by-``columns`` training, as CMAT files."""
    s_path, z_path = tmp_path / "s.cmat", tmp_path / "z.cmat"
    matrix_save(np.diag(d).astype(complex), s_path)
    n = len(d)
    write_cmat((rng.standard_normal((n, columns)) + 1j * rng.standard_normal((n, columns)))
               / np.sqrt(2), z_path)
    return s_path, z_path


class TestSinrCommand:
    def test_matches_library(self, tmp_path, capsys, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r_true = a @ a.conj().T / 4 + np.eye(4)
        r_hat = r_true + 0.1 * np.eye(4)
        pt, ph = tmp_path / "t.cmat", tmp_path / "h.cmat"
        matrix_save(r_true, pt)
        matrix_save(r_hat, ph)
        code = cli(["sinr", "--rhat", str(ph), "--rtrue", str(pt), "--angle", "25"])
        assert code == 0
        pairs = kv(capsys)
        expected = normalized_sinr(r_hat, r_true, steering_vector(4, 25.0))
        assert float(pairs["eta"]) == pytest.approx(expected, rel=1e-9)
        assert float(pairs["sinr_db"]) == pytest.approx(10 * math.log10(expected), rel=1e-9)

    def test_dimension_mismatch_is_input_error(self, tmp_path, capsys):
        matrix_save(np.eye(4, dtype=complex), tmp_path / "rhat.cmat")
        matrix_save(np.eye(2, dtype=complex), tmp_path / "rtrue.cmat")
        assert cli(["sinr", "--rhat", str(tmp_path / "rhat.cmat"),
                    "--rtrue", str(tmp_path / "rtrue.cmat"), "--angle", "0"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: estimate and true covariance dimensions differ\n")

    @pytest.mark.parametrize("angle", ["nan", "inf"])
    def test_non_finite_angle_is_input_error(self, tmp_path, capsys, angle):
        pt = tmp_path / "t.cmat"
        matrix_save(np.eye(4, dtype=complex), pt)
        assert cli(["sinr", "--rhat", str(pt), "--rtrue", str(pt), "--angle", angle]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: steering angle must be finite")
        assert captured.out == ""


class TestSimulateCommand:
    def test_smoke(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[scenario]\nn = 4\nnoise_power = 1.0\n\n"
            "[experiment]\nk_list = 4\ntrials = 2\nmaster_seed = 7\n"
            f"estimators = SMI\noutput = {tmp_path / 'out'}\n"
        )
        code = cli(["simulate", "--config", str(cfg)])
        assert code == 0
        pairs = kv(capsys)
        assert int(pairs["records"]) == 2
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_missing_config(self, tmp_path):
        assert cli(["simulate", "--config", str(tmp_path / "none.cfg")]) == 1

    def test_undersampled_rank_selection_fails_without_csv(self, tmp_path, capsys):
        # README scenario at K = 10 < N = 20, lr0 pinned at 0.3: eigh leaves
        # entries near -1e-16, which rank selection rejects instead of
        # writing r = 0 for every trial
        table, out = tmp_path / "lr0.txt", tmp_path / "out"
        lr0_store(LRReference(20, 10, (math.log(0.3),) * 5), table)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[scenario]\nn = 20\nnoise_power = 1.0\njammer_powers = 10, 100, 1000\n"
            "jammer_angles = 0.349, 0.698, 1.047\njammer_bandwidths = 0.2, 0, 0.3\n"
            "angle_mode = radians\n\n"
            "[experiment]\nk_list = 10\ntrials = 8\nmaster_seed = 2024\n"
            f"estimators = RCML_EL\nlr0_table = {table}\noutput = {out}\n"
        )
        assert cli(["simulate", "--config", str(cfg)]) == 1
        assert "sample eigenvalues must be non-negative" in capsys.readouterr().err
        assert not (out / "trials.csv").exists() and not (out / "summary.csv").exists()

    def test_undersampled_kmax_selection_fails_without_csv(self, tmp_path, capsys):
        # as above, for CNCML_EL: a kmax selected from those entries lies in
        # the thousands and scores exactly as FML
        table, out = tmp_path / "lr0.txt", tmp_path / "out"
        lr0_store(LRReference(20, 10, (math.log(0.3),) * 5), table)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[scenario]\nn = 20\nnoise_power = 1.0\njammer_powers = 10, 100, 1000\n"
            "jammer_angles = 0.349, 0.698, 1.047\njammer_bandwidths = 0.2, 0, 0.3\n"
            "angle_mode = radians\n\n"
            "[experiment]\nk_list = 10\ntrials = 8\nmaster_seed = 2024\n"
            f"estimators = FML, CNCML_FIXED(50), CNCML_EL\nlr0_table = {table}\noutput = {out}\n"
        )
        assert cli(["simulate", "--config", str(cfg)]) == 1
        assert "sample eigenvalues must be non-negative" in capsys.readouterr().err
        assert not (out / "trials.csv").exists() and not (out / "summary.csv").exists()

    def test_undersampled_sweep_stores_no_lr0_and_fails_without_csv(self, tmp_path, capsys):
        # an lr0 reference for k < n is not defined: the lookup refuses to
        # compute one, and the (6, 12) computed before it is not stored
        table, out = tmp_path / "lr0.txt", tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[scenario]\nn = 6\n\n[experiment]\nk_list = 12, 4\ntrials = 3\nmaster_seed = 1\n"
            f"estimators = FML, RCML_EL\nlr0_table = {table}\noutput = {out}\n"
        )
        for pinned in (False, True):
            if pinned:
                lr0_store(lr0_reference(6, 8), table)
            before = table.read_bytes() if pinned else None
            assert cli(["simulate", "--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: no lr0 for (n=6, k=4): k < n")
            assert (table.read_bytes() if table.exists() else None) == before
            assert not out.exists()

    def test_joint_selection_at_dimension_one_fails_without_csv(self, tmp_path, capsys):
        # the joint core's own dimension check ends the sweep
        table, out = tmp_path / "lr0.txt", tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[scenario]\nn = 1\n\n[experiment]\nk_list = 4\ntrials = 3\nmaster_seed = 1\n"
            f"estimators = SMI, RCML_EL_SIGMA\nlr0_table = {table}\noutput = {out}\n"
        )
        assert cli(["simulate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: joint rank and noise selection needs dimension >= 2")
        assert not (out / "trials.csv").exists() and not (out / "summary.csv").exists()

    @pytest.mark.parametrize(
        "scenario",
        [
            "noise_power = inf",
            "jammer_powers = inf\njammer_angles = 10\njammer_bandwidths = 0",
            "jammer_powers = 10\njammer_angles = inf\njammer_bandwidths = 0",
        ],
        ids=["noise", "jammer", "angle"],
    )
    def test_non_finite_scenario_is_input_error(self, tmp_path, capsys, scenario):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"[scenario]\nn = 4\n{scenario}\n\n"
            "[experiment]\nk_list = 4\ntrials = 2\nmaster_seed = 7\n"
            f"estimators = SMI\noutput = {tmp_path / 'out'}\n"
        )
        assert cli(["simulate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "finite" in err

    @pytest.mark.parametrize(
        "scenario, corruption, code, message",
        [
            ("jammer_powers = 1e15\njammer_angles = 20\njammer_bandwidths = 0.3", "", 2,
             "numerical error: true covariance is not positive definite"),
            ("jammer_powers = 1e16\njammer_angles = 20\njammer_bandwidths = 0.3", "", 2,
             "numerical error: true covariance is not positive definite"),
            ("noise_power = 1e-30\njammer_powers = 10, 100, 1000\n"
             "jammer_angles = 0.349, 0.698, 1.047\njammer_bandwidths = 0.2, 0, 0.3\n"
             "angle_mode = radians", "", 2,
             "numerical error: true covariance is not positive definite"),
            ("jammer_powers = 1e308, 1e308\njammer_angles = 10, 30\njammer_bandwidths = 0, 0",
             "", 1, "error: bad [scenario] value: jammer and noise powers must sum to a finite"),
            ("", "[corruption]\nfraction = 0.5\namplitude = 1e200\n", 1,
             "error: training entries and their sample covariance must be finite"),
        ],
        ids=["jammer-power-1e15", "jammer-power", "noise-power", "total-power",
             "corruption-amplitude"],
    )
    def test_unsound_covariance_ends_with_one_line(self, tmp_path, capsys, scenario, corruption,
                                                   code, message):
        # the suite turns a RuntimeWarning into an error, so none is raised
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"[scenario]\nn = 20\n{scenario}\n\n"
            "[experiment]\nk_list = 20\ntrials = 2\nmaster_seed = 7\n"
            f"estimators = SMI\noutput = {out}\n\n{corruption}"
        )
        assert cli(["simulate", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert cli(["lr0", "--n", "2", "--k", "4", "--nope", "1"]) == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lr0", "--n", "2", "--k", "4", "--table", "t", "--trials", "10"],
            ["lr0", "--n", "2", "--k", "4", "--table", "t", "--seed", "1"],
            ["simulate", "--config", "exp.cfg", "--no-autocompute"],
            ["estimate", "--input", "s.cmat", "--k", "8", "--estimator", "SMI",
             "--method", "smi"],
            ["estimate", "--input", "s.cmat", "--k", "8", "--estimator", "RCML_FIXED(1)",
             "--rank", "1"],
            ["estimate", "--input", "s.cmat", "--k", "8", "--estimator", "CNCML_FIXED(4)",
             "--kmax", "4"],
        ],
        ids=["lr0-trials", "lr0-seed", "simulate-no-autocompute", "estimate-method",
             "estimate-rank", "estimate-kmax"],
    )
    def test_removed_flags_are_unknown(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert cli(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_select_is_an_unknown_command(self, tmp_path, monkeypatch, capsys):
        # estimate runs each selecting estimator spec that select --mode named
        monkeypatch.chdir(tmp_path)
        matrix_save(np.eye(4, dtype=complex), tmp_path / "s.cmat")
        assert cli(["select", "--input", "s.cmat", "--k", "8", "--mode", "rank",
                    "--sigma2", "1.0", "--lr0", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: ")
        assert "invalid choice: 'select'" in captured.err
        assert list(tmp_path.iterdir()) == [tmp_path / "s.cmat"]

    def test_unknown_command(self, capsys):
        assert cli(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("sigma2", ["inf", "nan"])
    def test_non_finite_sigma2_is_input_error(self, sample_cov, capsys, sigma2):
        path, _ = sample_cov
        assert cli(["estimate", "--input", str(path), "--k", "8", "--sigma2", sigma2,
                    "--estimator", "FML"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert "eigenvalues" not in captured.out

    @pytest.mark.parametrize("spelling", ["1_6", "\u0661\u0666"], ids=["separator", "arabic"])
    @pytest.mark.parametrize("command, option, kind", [
        ("lr0", "--n", "int"), ("lr0", "--k", "int"),
        ("estimate", "--k", "int"), ("estimate", "--sigma2", "float"),
        ("estimate", "--r-init", "int"), ("estimate", "--lr0", "float"),
        ("estimate", "--angle", "float"), ("sinr", "--angle", "float"),
    ])
    def test_numbers_are_spelled_as_in_files(
        self, tmp_path, monkeypatch, capsys, spelling, command, option, kind
    ):
        # argparse's int and float read both spellings as 16; the options
        # follow the data files' rule instead, and reject them before any work
        monkeypatch.chdir(tmp_path)
        required = {
            "lr0": ["--n", "4", "--k", "16", "--table", "t"],
            "estimate": ["--input", "s.cmat", "--k", "16", "--sigma2", "1", "--estimator", "FML"],
            "sinr": ["--rhat", "r.cmat", "--rtrue", "t.cmat", "--angle", "0"],
        }
        assert cli([command, *required[command], option, spelling]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: ")
        assert f"argument {option}: invalid {kind} value: '{spelling}'" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_closed_stdout_is_no_input_error(self, sample_cov, tmp_path):
        # a pipe whose read end is closed fails every write with EPIPE: the
        # command exits 1 and reports nothing, not even at interpreter exit;
        # an unreadable input is still reported
        path, _ = sample_cov
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            runs = [subprocess.run(
                [sys.executable, "-m", "elcov.cli", "estimate", "--input", str(source),
                 "--k", "8", "--sigma2", "1.0", "--estimator", "FML"],
                stdout=write_end, stderr=subprocess.PIPE, env=_src_env(), text=True,
                timeout=120,
            ) for source in (path, tmp_path / "nope.cmat")]
        finally:
            os.close(write_end)
        assert [run.returncode for run in runs] == [1, 1]
        assert runs[0].stderr == ""
        assert runs[1].stderr.startswith("error: [Errno 2] No such file or directory")

    def test_stdout_closed_at_start_is_no_input_error(self, sample_cov, tmp_path):
        # with fd 1 closed at start Python has no sys.stdout: the command runs,
        # then exits 1 as on EPIPE and reports nothing; its table is written,
        # and an unreadable input is still reported
        path, _ = sample_cov
        table = tmp_path / "t.txt"
        runs = [subprocess.run(
            ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "elcov.cli", *argv],
            stderr=subprocess.PIPE, env=_src_env(), text=True, timeout=120,
        ) for argv in (
            ["estimate", "--input", str(path), "--k", "8", "--sigma2", "1.0", "--estimator", "FML"],
            ["lr0", "--n", "2", "--k", "4", "--table", str(table)],
            ["estimate", "--input", str(tmp_path / "nope.cmat"), "--k", "8", "--sigma2", "1.0",
             "--estimator", "FML"],
        )]
        assert [run.returncode for run in runs] == [1, 1, 1]
        assert [run.stderr for run in runs[:2]] == ["", ""]
        assert lr0_load(2, 4, table) is not None
        assert runs[2].stderr.startswith("error: [Errno 2] No such file or directory")

    def test_missing_file_is_input_error(self, tmp_path):
        assert cli(["estimate", "--input", str(tmp_path / "nope.cmat"), "--k", "4",
                    "--sigma2", "1.0", "--estimator", "FML"]) == 1

    def test_numerical_error_exit_code(self, tmp_path):
        # singular sample covariance cannot support loading selection
        matrix_save(np.diag([1.0, 0.0]).astype(complex), tmp_path / "s.cmat")
        code = cli(["estimate", "--input", str(tmp_path / "s.cmat"), "--k", "2",
                    "--estimator", "LSMI_EL", "--lr0", "0.5"])
        assert code == 2


_GOOD_EXPERIMENT = b"[experiment]\nk_list = 4\ntrials = 1\nmaster_seed = 1\nestimators = SMI\n"


class TestMalformedFiles:
    """A malformed input file is an input error: exit 1 and one ``error:``
    line naming the file, never a traceback."""

    @pytest.mark.parametrize(
        "content",
        [
            b"[scenario]\nn = 4\nn = 5\n" + _GOOD_EXPERIMENT,
            b"[scenario]\nn = 4\n[scenario]\nnoise_power = 1\n" + _GOOD_EXPERIMENT,
            b"n = 4\n" + _GOOD_EXPERIMENT,
            b"[scenario]\nn = 4 \xff\n" + _GOOD_EXPERIMENT,
        ],
        ids=["repeated-key", "repeated-section", "no-section-header", "not-utf8"],
    )
    def test_config(self, tmp_path, monkeypatch, capsys, content):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_bytes(content + b"output = out\n")
        assert cli(["simulate", "--config", "exp.cfg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config file 'exp.cfg'") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_config_value_with_a_bare_percent_sign(self, tmp_path, monkeypatch, capsys):
        # configparser interpolates values, and a lone '%' fails as they are read
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_bytes(b"[scenario]\nn = 4\n" + _GOOD_EXPERIMENT
                                           + b"output = out%\n")
        assert cli(["simulate", "--config", "exp.cfg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad [experiment] value: '%'") and err.count("\n") == 1

    def test_config_value_spanning_lines(self, tmp_path, monkeypatch, capsys):
        # configparser joins an indented line onto the value above it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_bytes(b"[scenario]\nn = 4\n" + _GOOD_EXPERIMENT
                                           + b"output = o\n  bad continuation\n")
        assert cli(["simulate", "--config", "exp.cfg"]) == 1
        err = capsys.readouterr().err
        assert err == "error: value of 'output' in section [experiment] spans lines\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "exp.cfg"]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("estimators", "RCML_FIXED(5",
             "bad [experiment] value: estimators = RCML_FIXED(5: "
             "malformed estimator spec 'RCML_FIXED(5'"),
            ("estimators", "RCML_FIXED(x)",
             "bad [experiment] value: estimators = RCML_FIXED(x): "
             "malformed estimator parameter in 'RCML_FIXED(x)'"),
            ("estimators", "RCML_FIXED(1_0)",
             "bad [experiment] value: estimators = RCML_FIXED(1_0): "
             "malformed estimator parameter in 'RCML_FIXED(1_0)'"),
            ("estimators", "", "bad [experiment] value: estimator list must not be empty"),
            ("k_list", "", "bad [experiment] value: k_list must not be empty"),
            ("k_list", "1_0, \u0668",
             "bad [experiment] value: k_list = 1_0, \u0668: '1_0' is not an ASCII number "
             "without '_'"),
            ("k_list", "4, \u0668",
             "bad [experiment] value: k_list = 4, \u0668: '\u0668' is not an ASCII number "
             "without '_'"),
            ("trials", "0", "bad [experiment] value: trials must be at least 1"),
            ("trials", "1_0",
             "bad [experiment] value: trials = 1_0: '1_0' is not an ASCII number without '_'"),
            ("nmf_angle", "\uff10",
             "bad [experiment] value: nmf_angle = \uff10: '\uff10' is not an ASCII number "
             "without '_'"),
            ("autocompute", "maybe",
             "bad [experiment] value: autocompute = maybe: Not a boolean: maybe"),
        ],
        ids=["spec-unclosed", "spec-parameter", "spec-separator", "no-estimators", "no-k-list",
             "k-list-separator", "k-list-arabic-indic", "no-trials", "trials-separator",
             "nmf-angle-fullwidth", "autocompute"],
    )
    def test_config_value(self, tmp_path, monkeypatch, capsys, key, value, message):
        monkeypatch.chdir(tmp_path)
        lines = [line for line in _GOOD_EXPERIMENT.decode().splitlines()
                 if not line.startswith(key + " ")]
        (tmp_path / "exp.cfg").write_text("[scenario]\nn = 4\n" + "\n".join(lines)
                                          + f"\n{key} = {value}\noutput = out\n",
                                          encoding="utf-8")
        assert cli(["simulate", "--config", "exp.cfg"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "exp.cfg"]

    @pytest.mark.parametrize("content, message", [
        (b"[scenario]\nn = 4\n", "missing required config section [experiment]"),
        (b"[scenario]\nn = 1_0\n" + _GOOD_EXPERIMENT + b"output = out\n",
         "bad [scenario] value: n = 1_0: '1_0' is not an ASCII number without '_'"),
        ("[scenario]\nn = 4\nnoise_power = \u0661\n".encode() + _GOOD_EXPERIMENT
         + b"output = out\n",
         "bad [scenario] value: noise_power = \u0661: '\u0661' is not an ASCII number "
         "without '_'"),
    ], ids=["no-experiment", "n-separator", "noise-power-arabic-indic"])
    def test_config_scenario(self, tmp_path, monkeypatch, capsys, content, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_bytes(content)
        assert cli(["simulate", "--config", "exp.cfg"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "exp.cfg"]

    def test_config_loader_raises_input_error(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"[scenario]\nn = 4\nn = 5\n" + _GOOD_EXPERIMENT)
        with pytest.raises(InputError, match="already exists"):
            load_experiment_config(path)

    def test_cmat(self, tmp_path, capsys):
        path = tmp_path / "s.cmat"
        path.write_bytes(b"CMAT v1 1 1\n1 0 \xff\n")
        assert cli(["estimate", "--input", str(path), "--k", "4", "--estimator", "SMI"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_cmat_non_finite_entry(self, tmp_path, capsys):
        path = tmp_path / "s.cmat"
        path.write_text("CMAT v1 2 2\n1 0 0 0\n0 0 nan 0\n")
        assert cli(["estimate", "--input", str(path), "--k", "4", "--estimator", "SMI"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}, line 3, column 2: matrix entry (nan+0j) is not finite\n"

    def test_lr0_table(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "lr0.txt").write_bytes(b"\xfe\n")
        (tmp_path / "exp.cfg").write_bytes(
            b"[scenario]\nn = 4\n" + _GOOD_EXPERIMENT.replace(b"= SMI", b"= RCML_EL")
            + b"lr0_table = lr0.txt\noutput = out\n")
        assert cli(["simulate", "--config", "exp.cfg"]) == 1
        err = capsys.readouterr().err
        assert err == "error: lr0.txt: not UTF-8 text (invalid start byte)\n"
        assert not (tmp_path / "out").exists()


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The ``elcov ...`` lines of the README's Command line block, continuations joined."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("elcov ")]


class TestReadme:
    def test_command_line_examples_parse(self):
        commands = readme_commands()
        assert {argv[0] for argv in commands} == {"lr0", "estimate", "simulate", "sinr"}
        for argv in commands:
            try:
                _build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: elcov {shlex.join(argv)}")

    def test_config_example_loads(self, tmp_path):
        block = README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "experiment.cfg"
        path.write_text(block, encoding="utf-8")
        cfg = load_experiment_config(path)
        assert cfg.scenario.n == 20 and cfg.corruption is not None
        # every key the loader knows is in the example, set or commented out
        shown, section = {}, None
        for line in block.splitlines():
            line = line.lstrip("; ")
            if line.startswith("["):
                section = line[1:line.index("]")]
            elif "=" in line:
                shown.setdefault(section, set()).add(line.split("=", 1)[0].strip())
        assert {name: set(keys) for name, keys in _CONFIG_SCHEMA.items()} == shown
