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
    LRReference,
    lr0_load,
    lr0_reference,
    lr0_store,
    matrix_save,
    normalized_sinr,
    select_rank,
    steering_vector,
    write_cmat,
)
from elcov.cli import _build_parser, cli
from elcov.likelihood import QUANTILE_PROBS


def kv(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


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
        assert ref is not None
        assert float(pairs["lr0"]) == pytest.approx(ref.lr0, rel=1e-10)

    def test_csv_format(self, tmp_path, capsys):
        code = cli(["lr0", "--n", "2", "--k", "8", "--table", str(tmp_path / "t.txt"),
                    "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "key,value"

    def test_module_entry_point_writes_table(self, tmp_path):
        # ``python -m elcov.cli`` runs the command, not just the import
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "elcov.cli", "lr0", "--n", "2", "--k", "4", "--table", "t"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert lr0_load(2, 4, tmp_path / "t") is not None


class TestEstimateCommand:
    def test_fml(self, sample_cov, capsys):
        path, d = sample_cov
        code = cli(["estimate", "--input", str(path), "--k", "8",
                    "--sigma2", "1.0", "--method", "fml"])
        assert code == 0
        pairs = kv(capsys)
        assert pairs["method"] == "fml"
        eigs = [float(x) for x in pairs["eigenvalues"].split(",")]
        assert eigs == pytest.approx([9.0, 4.0, 1.0, 1.0])
        assert 0.0 < float(pairs["lr"]) <= 1.0

    def test_rcml_requires_rank(self, sample_cov, capsys):
        path, _ = sample_cov
        assert cli(["estimate", "--input", str(path), "--k", "8",
                    "--sigma2", "1.0", "--method", "rcml"]) == 1
        assert cli(["estimate", "--input", str(path), "--k", "8",
                    "--sigma2", "1.0", "--method", "rcml", "--rank", "1"]) == 0
        pairs = kv(capsys)
        eigs = [float(x) for x in pairs["eigenvalues"].split(",")]
        assert eigs == pytest.approx([9.0, 1.0, 1.0, 1.0])

    def test_cncml_reports_condition_number(self, sample_cov, capsys):
        path, _ = sample_cov
        assert cli(["estimate", "--input", str(path), "--k", "8",
                    "--sigma2", "1.0", "--method", "cncml", "--kmax", "4"]) == 0
        pairs = kv(capsys)
        assert float(pairs["condition_number"]) == pytest.approx(4.0, abs=1e-9)

    def test_smi_without_sigma2(self, sample_cov, capsys):
        path, d = sample_cov
        assert cli(["estimate", "--input", str(path), "--k", "8", "--method", "smi"]) == 0
        pairs = kv(capsys)
        assert float(pairs["lr"]) == pytest.approx(1.0)


class TestSelectCommand:
    def test_rank_matches_library(self, sample_cov, capsys):
        path, d = sample_cov
        stats = stats_from_spectrum(d, k=8)
        lr0 = 0.4
        expected = select_rank(stats, lr0).r_hat
        code = cli(["select", "--input", str(path), "--k", "8", "--mode", "rank",
                    "--sigma2", "1.0", "--r-init", "0", "--lr0", str(lr0)])
        assert code == 0
        pairs = kv(capsys)
        assert int(pairs["r_hat"]) == expected
        assert len(pairs["visited_r"].split(",")) == len(pairs["visited_lr"].split(","))

    def test_rank_with_table_autocompute(self, sample_cov, capsys, tmp_path):
        path, _ = sample_cov
        table = tmp_path / "t.txt"
        code = cli(["select", "--input", str(path), "--k", "8", "--mode", "rank",
                    "--sigma2", "1.0", "--lr0-table", str(table)])
        assert code == 0
        assert lr0_load(4, 8, table) is not None

    def test_uses_the_stored_table_entry(self, sample_cov, capsys, tmp_path):
        path, _ = sample_cov
        table = tmp_path / "t.txt"
        lr0_store(LRReference(4, 8, 0, 0, 0.25, [(q, 0.25) for q in QUANTILE_PROBS]), table)
        before = table.read_bytes()
        code = cli(["select", "--input", str(path), "--k", "8", "--mode", "rank",
                    "--sigma2", "1.0", "--lr0-table", str(table)])
        assert code == 0
        assert float(kv(capsys)["lr0"]) == 0.25
        assert table.read_bytes() == before

    def test_kmax_mode(self, sample_cov, capsys):
        path, _ = sample_cov
        code = cli(["select", "--input", str(path), "--k", "8", "--mode", "kmax",
                    "--sigma2", "1.0", "--lr0", "0.3"])
        assert code == 0
        pairs = kv(capsys)
        assert float(pairs["kmax_hat"]) >= 1.0
        assert float(pairs["final_step"]) < 1e-4

    def test_loading_mode(self, sample_cov, capsys):
        path, _ = sample_cov
        code = cli(["select", "--input", str(path), "--k", "8", "--mode", "loading",
                    "--lr0", "0.5"])
        assert code == 0
        pairs = kv(capsys)
        assert float(pairs["lr_at_beta"]) == pytest.approx(0.5, abs=1e-6)

    def test_rank_sigma_mode(self, tmp_path, capsys, rng):
        d = np.array([40.0, 15.0, 1.05, 1.0, 0.95, 0.9])
        s_path = tmp_path / "s.cmat"
        matrix_save(np.diag(d).astype(complex), s_path)
        z = (rng.standard_normal((6, 24)) + 1j * rng.standard_normal((6, 24))) / np.sqrt(2)
        z_path = tmp_path / "z.cmat"
        write_cmat(z, z_path)
        code = cli(["select", "--input", str(s_path), "--k", "24", "--mode", "rank-sigma",
                    "--r-init", "2", "--lr0", "0.95", "--training", str(z_path),
                    "--angle", "12.0"])
        assert code == 0
        pairs = kv(capsys)
        assert pairs["chosen_from"] in {"ML", "EL1", "EL2"}
        assert float(pairs["sigma2_hat"]) > 0

    def test_rank_sigma_rejects_nan_training(self, tmp_path, capsys, rng):
        d = np.array([40.0, 15.0, 1.05, 1.0, 0.95, 0.9])
        s_path = tmp_path / "s.cmat"
        matrix_save(np.diag(d).astype(complex), s_path)
        z = (rng.standard_normal((6, 24)) + 1j * rng.standard_normal((6, 24))) / np.sqrt(2)
        z[2, 5] = np.nan
        z_path = tmp_path / "z.cmat"
        write_cmat(z, z_path)
        code = cli(["select", "--input", str(s_path), "--k", "24", "--mode", "rank-sigma",
                    "--r-init", "2", "--lr0", "0.95", "--training", str(z_path)])
        assert code == 1
        assert "finite" in capsys.readouterr().err

    def test_computes_reference_without_lr0_or_table(self, sample_cov, capsys, monkeypatch):
        path, _ = sample_cov
        monkeypatch.chdir(path.parent)
        assert cli(["select", "--input", str(path), "--k", "8", "--mode", "rank",
                    "--sigma2", "1.0"]) == 0
        assert kv(capsys)["lr0"] == f"{lr0_reference(4, 8).lr0:.12g}"
        assert list(path.parent.iterdir()) == [path]


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


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert cli(["lr0", "--n", "2", "--k", "4", "--nope", "1"]) == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lr0", "--n", "2", "--k", "4", "--table", "t", "--trials", "10"],
            ["lr0", "--n", "2", "--k", "4", "--table", "t", "--seed", "1"],
            ["select", "--input", "s.cmat", "--k", "8", "--mode", "loading", "--lr0", "0.5",
             "--lr0-trials", "10"],
            ["select", "--input", "s.cmat", "--k", "8", "--mode", "loading", "--lr0", "0.5",
             "--seed", "1"],
            ["select", "--input", "s.cmat", "--k", "8", "--mode", "rank", "--lr0-table", "t",
             "--no-autocompute"],
            ["simulate", "--config", "exp.cfg", "--no-autocompute"],
        ],
        ids=["lr0-trials", "lr0-seed", "select-lr0-trials", "select-seed",
             "select-no-autocompute", "simulate-no-autocompute"],
    )
    def test_removed_flags_are_unknown(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert cli(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_command(self, capsys):
        assert cli(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("sigma2", ["inf", "nan"])
    def test_non_finite_sigma2_is_input_error(self, sample_cov, capsys, sigma2):
        path, _ = sample_cov
        assert cli(["estimate", "--input", str(path), "--k", "8", "--sigma2", sigma2,
                    "--method", "fml"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert "eigenvalues" not in captured.out

    def test_missing_file_is_input_error(self, tmp_path):
        assert cli(["estimate", "--input", str(tmp_path / "nope.cmat"), "--k", "4",
                    "--sigma2", "1.0", "--method", "fml"]) == 1

    def test_numerical_error_exit_code(self, tmp_path):
        # singular sample covariance cannot support loading selection
        matrix_save(np.diag([1.0, 0.0]).astype(complex), tmp_path / "s.cmat")
        code = cli(["select", "--input", str(tmp_path / "s.cmat"), "--k", "2",
                    "--mode", "loading", "--lr0", "0.5"])
        assert code == 2


def readme_commands():
    """The ``elcov ...`` lines of the README's Command line block, continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("elcov ")]


class TestReadme:
    def test_command_line_examples_parse(self):
        commands = readme_commands()
        assert {argv[0] for argv in commands} == {"lr0", "estimate", "select", "simulate", "sinr"}
        for argv in commands:
            try:
                _build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: elcov {shlex.join(argv)}")
