"""End-to-end Monte Carlo experiment from a config file.

Writes a small experiment configuration, runs it through the same code path
as the `elcov simulate` command, and prints the summary table.  Identical
configuration and master seed reproduce the CSVs byte for byte.
"""

import csv
import tempfile
from pathlib import Path

from elcov import load_experiment_config, run_experiment

with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)
    config_path = workdir / "experiment.cfg"
    config_path.write_text(f"""\
[scenario]
n = 12
noise_power = 1.0
jammer_powers = 200, 1000
jammer_angles = 0.5, 1.0
jammer_bandwidths = 0.1, 0.0
angle_mode = radians

[experiment]
k_list = 12, 24, 48
trials = 50
master_seed = 2024
estimators = SMI, FML, RCML_EL, CNCML_EL
lr0_table = {workdir / "lr0_table.txt"}
r_init = 2
output = {workdir / "results"}
""")

    print(f"experiment config written to {config_path}\n")
    cfg = load_experiment_config(config_path)
    records = run_experiment(cfg)
    print(f"ran {len(records)} (k, trial, estimator) cells; outputs in {cfg.output_path}\n")

    with open(Path(cfg.output_path) / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    print("    k   estimator      trials   mean SINR (dB)")
    for row in rows:
        print(f"  {row['k']:>3s}   {row['estimator']:<12s} {row['trials']:>5s}   {float(row['mean_sinr_db']):10.3f}")

    print("\nan example per-trial record (trials.csv):")
    with open(Path(cfg.output_path) / "trials.csv") as fh:
        lines = fh.read().splitlines()
    print("  " + lines[0])
    print("  " + lines[1])
