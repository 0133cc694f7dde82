"""Automatic clutter-rank selection by likelihood-ratio matching.

Builds the three-jammer reference scenario (true disturbance rank 5), draws
limited training, and picks the rank whose constrained estimate's LR is
closest to the precomputed reference median.  The log LR of every rank up to
the count of eigenvalues above the noise floor is one suffix sum, so all of
them are scored at once.  The LR grows by orders of magnitude per rank step,
so the match is done on log LR.
"""

import math

import numpy as np

from elcov import (
    SampleStats,
    ScenarioConfig,
    derive_rng,
    generate_training,
    jammer_covariance,
    log_lr_rcml,
    lr0_reference,
    sample_covariance,
    select_rank,
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
true_strong = int(np.sum(np.linalg.eigvalsh(r_true) > 10.0))
print(f"true covariance: N={scenario.n}, eigenvalues >10x noise: {true_strong}\n")

k = 40
lr0 = lr0_reference(scenario.n, k).lr0
print(f"reference median lr0(N={scenario.n}, K={k}) = {lr0:.3e}\n")

training = generate_training(r_true, k, None, derive_rng(42, "demo-trial"))
stats = SampleStats.from_sample_covariance(
    sample_covariance(training.z), k, scenario.noise_power
)

print("LR versus rank around the interesting region:")
for r in range(2, 9):
    lr = math.exp(log_lr_rcml(stats, r))
    mismatch = abs(math.log(max(lr, 1e-300)) - math.log(lr0))
    print(f"  r={r}:  lr = {lr:10.3e}   |log lr - log lr0| = {mismatch:7.2f}")

selection = select_rank(stats, lr0=lr0)
print(f"\nscored ranks 0..{len(selection.visited) - 1} (beyond them every rank gives FML)")
print(f"selected rank: {selection.r_hat}")

counts = {}
for t in range(100):
    z = generate_training(r_true, k, None, derive_rng(42, "mc", t)).z
    s = SampleStats.from_sample_covariance(sample_covariance(z), k, 1.0)
    r_hat = select_rank(s, lr0).r_hat
    counts[r_hat] = counts.get(r_hat, 0) + 1
print(f"\nselected-rank histogram over 100 independent draws: {dict(sorted(counts.items()))}")
