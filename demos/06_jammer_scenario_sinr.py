"""Jammer scenario construction and adaptive-filter quality per estimator.

Builds the three-jammer disturbance covariance, draws one limited training
batch, and compares the normalized SINR (1 means clairvoyant performance)
of each estimator across steering directions.
"""

import numpy as np

from elcov import (
    SampleStats,
    ScenarioConfig,
    derive_rng,
    fml,
    generate_training,
    jammer_covariance,
    lr0_reference,
    normalized_sinr,
    rcml,
    sample_covariance,
    select_rank,
    smi,
    steering_vector,
)

scenario = ScenarioConfig(
    n=20,
    jammer_powers=(10.0, 100.0, 1000.0),
    jammer_angles=tuple(float(np.deg2rad(a)) for a in (20.0, 40.0, 60.0)),
    jammer_bandwidths=(0.2, 0.0, 0.3),
    noise_power=1.0,
    angle_mode="radians",
)
r_true = jammer_covariance(scenario)
w = np.linalg.eigvalsh(r_true)[::-1]
print("true covariance top eigenvalues:", np.round(w[:7], 1))
print(f"diagonal power (uniform): {r_true[0, 0].real:.1f}\n")

k = 20  # starved training: K equals the dimension
training = generate_training(r_true, k, None, derive_rng(3, "training"))
stats = SampleStats.from_sample_covariance(sample_covariance(training.z), k, 1.0)

lr0 = lr0_reference(scenario.n, k).lr0
r_hat = select_rank(stats, lr0).r_hat
estimates = [("SMI", smi(stats)), ("FML", fml(stats)), (f"RCML r={r_hat}", rcml(stats, r_hat))]

angles = np.arange(-80.0, 90.0, 20.0)
header = "steering   " + "".join(f"{label:>12s}" for label, _ in estimates)
print(header)
for angle in angles:
    s = steering_vector(scenario.n, float(angle))
    cells = []
    for _, est in estimates:
        eta = normalized_sinr(est, r_true, s)
        cells.append(f"{10 * np.log10(eta):12.2f}")
    print(f"{angle:7.0f}    " + "".join(cells))

print("\nvalues are SINR in dB relative to the clairvoyant filter (0 is perfect);")
print(f"with K = N = {k} the raw sample matrix loses 10 dB and more everywhere,")
print("while the structured estimates stay within a couple of dB.")
